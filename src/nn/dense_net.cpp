#include "nn/dense_net.hpp"

#include <algorithm>
#include <cfloat>
#include <cmath>

namespace tunio::nn {

namespace {

/// The per-step constants of one Adam update.
struct AdamStep {
  double lr, b1, b2, bc1, bc2, epsilon;
};

/// Stores a moment below the normal range as +0.0.
double flush_subnormal(double moment) {
  return std::abs(moment) < DBL_MIN ? 0.0 : moment;
}

/// One Adam update of parameter `w` with moments `m`, `v`.
///
/// Flushing subnormal moments and the zero-gradient shortcut leave every
/// weight bit-identical to textbook Adam (lr = 2e-3 here, ε = 1e-8,
/// β1 = 0.9, β2 = 0.999; bc1 ≥ 1 − β1, bc2 ≥ 1 − β2):
///  * a subnormal m (< DBL_MIN ≈ 2.2e-308) contributes an update below
///    lr·DBL_MIN/(bc1·ε) < 5e-302, under half an ulp of any weight with
///    |w| > 1e-285, so the rounded subtraction leaves w unchanged;
///  * a subnormal v leaves sqrt(v/bc2) < 5e-153, so sqrt(v/bc2) + ε
///    rounds to exactly ε;
///  * the next step's β1·m_sub (or β2·v_sub) is absorbed into the rounding
///    of (1 − β1)·g for any |g| > 1e-290 (of (1 − β2)·g² for |g| > 1e-145),
///    and with g = 0 the moment only decays further.
/// With g = 0 and m = +0.0 the full formula computes m = +0.0, v = β2·v
/// and an update of lr·0/(…) = +0.0, so skipping it is exact.
inline void adam_step(double& w, double& m, double& v, double grad,
                      const AdamStep& s) {
  if (grad == 0.0 && m == 0.0) {
    v = flush_subnormal(s.b2 * v);
    return;
  }
  m = flush_subnormal(s.b1 * m + (1.0 - s.b1) * grad);
  v = flush_subnormal(s.b2 * v + (1.0 - s.b2) * grad * grad);
  w -= s.lr * (m / s.bc1) / (std::sqrt(v / s.bc2) + s.epsilon);
}

/// Sizes `scratch` for `sizes` without shrinking capacity.
void shape(Activations& scratch, const std::vector<std::size_t>& sizes) {
  scratch.layers.resize(sizes.size());
  for (std::size_t l = 0; l < sizes.size(); ++l) {
    scratch.layers[l].resize(sizes[l]);
  }
}

}  // namespace

DenseNet::DenseNet(std::vector<std::size_t> layer_sizes, Rng& rng,
                   AdamParams adam)
    : layer_sizes_(std::move(layer_sizes)), adam_(adam) {
  TUNIO_CHECK_MSG(layer_sizes_.size() >= 2, "network needs >= 2 layers");
  layers_.reserve(layer_sizes_.size() - 1);
  for (std::size_t l = 0; l + 1 < layer_sizes_.size(); ++l) {
    const std::size_t in = layer_sizes_[l];
    const std::size_t out = layer_sizes_[l + 1];
    Layer layer;
    layer.weights = Matrix(out, in);
    // He initialization for the ReLU stack.
    const double scale = std::sqrt(2.0 / static_cast<double>(in));
    for (double& w : layer.weights.data()) w = rng.normal(0.0, scale);
    layer.bias.assign(out, 0.0);
    layer.m_w = Matrix(out, in);
    layer.v_w = Matrix(out, in);
    layer.m_b.assign(out, 0.0);
    layer.v_b.assign(out, 0.0);
    layers_.push_back(std::move(layer));
  }
}

std::span<const double> DenseNet::forward(std::span<const double> input,
                                          Activations& scratch) const {
  TUNIO_CHECK_MSG(input.size() == input_size(), "input size mismatch");
  shape(scratch, layer_sizes_);
  std::copy(input.begin(), input.end(), scratch.layers[0].begin());
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    std::vector<double>& z = scratch.layers[l + 1];
    layers_[l].weights.multiply(scratch.layers[l].data(), z.data());
    for (std::size_t i = 0; i < z.size(); ++i) z[i] += layers_[l].bias[i];
    if (l + 1 < layers_.size()) {
      for (double& v : z) v = std::max(0.0, v);  // ReLU hidden
    }
  }
  return scratch.layers.back();
}

std::vector<double> DenseNet::forward(const std::vector<double>& input) const {
  Activations scratch;
  const std::span<const double> out = forward(input, scratch);
  return {out.begin(), out.end()};
}

std::vector<double> DenseNet::forward_with_embedding(
    const std::vector<double>& input, std::vector<double>* embedding) const {
  Activations scratch;
  const std::span<const double> out = forward(input, scratch);
  if (embedding != nullptr) {
    *embedding = scratch.layers[scratch.layers.size() - 2];
  }
  return {out.begin(), out.end()};
}

void DenseNet::backward() {
  ++step_;
  const AdamStep s{adam_.learning_rate,
                   adam_.beta1,
                   adam_.beta2,
                   1.0 - std::pow(adam_.beta1, static_cast<double>(step_)),
                   1.0 - std::pow(adam_.beta2, static_cast<double>(step_)),
                   adam_.epsilon};

  for (std::size_t l = layers_.size(); l-- > 0;) {
    Layer& layer = layers_[l];
    const std::vector<double>& a_in = train_act_.layers[l];
    // Gradient wrt pre-activation: hidden layers carry the ReLU mask.
    if (l + 1 < layers_.size()) {
      const std::vector<double>& a_out = train_act_.layers[l + 1];
      for (std::size_t i = 0; i < delta_.size(); ++i) {
        if (a_out[i] <= 0.0) delta_[i] = 0.0;
      }
    }
    // Parameter updates (Adam).
    const std::size_t cols = layer.weights.cols();
    for (std::size_t o = 0; o < layer.weights.rows(); ++o) {
      double* w = layer.weights.data().data() + o * cols;
      double* m = layer.m_w.data().data() + o * cols;
      double* v = layer.v_w.data().data() + o * cols;
      for (std::size_t i = 0; i < cols; ++i) {
        adam_step(w[i], m[i], v[i], delta_[o] * a_in[i], s);
      }
      adam_step(layer.bias[o], layer.m_b[o], layer.v_b[o], delta_[o], s);
    }
    // The error flows back through the freshly updated weights.
    if (l > 0) {
      delta_back_.resize(cols);
      layer.weights.multiply_transposed(delta_.data(), delta_back_.data());
      delta_.swap(delta_back_);
    }
  }
}

double DenseNet::train(const std::vector<double>& input,
                       const std::vector<double>& target) {
  TUNIO_CHECK_MSG(target.size() == output_size(), "target size mismatch");
  const std::span<const double> out = forward(input, train_act_);
  delta_.resize(out.size());
  double mse = 0.0;
  for (std::size_t i = 0; i < out.size(); ++i) {
    const double diff = out[i] - target[i];
    delta_[i] = 2.0 * diff / static_cast<double>(out.size());
    mse += diff * diff;
  }
  mse /= static_cast<double>(out.size());
  backward();
  return mse;
}

double DenseNet::train_output(std::span<const double> input,
                              std::size_t output_index, double target) {
  TUNIO_CHECK_MSG(output_index < output_size(), "output index out of range");
  const std::span<const double> out = forward(input, train_act_);
  delta_.assign(out.size(), 0.0);
  const double diff = out[output_index] - target;
  delta_[output_index] = 2.0 * diff;
  backward();
  return diff * diff;
}

double DenseNet::train_epoch(const std::vector<std::vector<double>>& inputs,
                             const std::vector<std::vector<double>>& targets) {
  TUNIO_CHECK_MSG(inputs.size() == targets.size(), "dataset size mismatch");
  TUNIO_CHECK_MSG(!inputs.empty(), "empty training set");
  double total = 0.0;
  for (std::size_t i = 0; i < inputs.size(); ++i) {
    total += train(inputs[i], targets[i]);
  }
  return total / static_cast<double>(inputs.size());
}

void DenseNet::soft_update_from(const DenseNet& other, double tau) {
  TUNIO_CHECK_MSG(layer_sizes_ == other.layer_sizes_,
                  "soft update across mismatched architectures");
  for (std::size_t l = 0; l < layers_.size(); ++l) {
    auto& mine = layers_[l];
    const auto& theirs = other.layers_[l];
    for (std::size_t i = 0; i < mine.weights.data().size(); ++i) {
      mine.weights.data()[i] = tau * theirs.weights.data()[i] +
                               (1.0 - tau) * mine.weights.data()[i];
    }
    for (std::size_t i = 0; i < mine.bias.size(); ++i) {
      mine.bias[i] = tau * theirs.bias[i] + (1.0 - tau) * mine.bias[i];
    }
  }
}

void DenseNet::copy_from(const DenseNet& other) { soft_update_from(other, 1.0); }

std::vector<double> DenseNet::parameters() const {
  std::vector<double> out;
  for (const Layer& layer : layers_) {
    out.insert(out.end(), layer.weights.data().begin(),
               layer.weights.data().end());
    out.insert(out.end(), layer.bias.begin(), layer.bias.end());
  }
  return out;
}

}  // namespace tunio::nn
