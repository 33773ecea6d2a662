// Tests for the neural-network module: matrices, dense nets (function
// approximation), PCA.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "common/error.hpp"
#include "common/rng.hpp"
#include "nn/dense_net.hpp"
#include "nn/matrix.hpp"
#include "nn/pca.hpp"

namespace tunio::nn {
namespace {

TEST(Matrix, MultiplyAndTranspose) {
  Matrix m(2, 3);
  // [1 2 3; 4 5 6]
  m(0, 0) = 1; m(0, 1) = 2; m(0, 2) = 3;
  m(1, 0) = 4; m(1, 1) = 5; m(1, 2) = 6;
  const auto y = m.multiply({1.0, 1.0, 1.0});
  ASSERT_EQ(y.size(), 2u);
  EXPECT_DOUBLE_EQ(y[0], 6.0);
  EXPECT_DOUBLE_EQ(y[1], 15.0);
  const auto yt = m.multiply_transposed({1.0, 1.0});
  ASSERT_EQ(yt.size(), 3u);
  EXPECT_DOUBLE_EQ(yt[0], 5.0);
  EXPECT_DOUBLE_EQ(yt[1], 7.0);
  EXPECT_DOUBLE_EQ(yt[2], 9.0);
  EXPECT_THROW(m.multiply({1.0}), Error);
  EXPECT_THROW(m.multiply_transposed({1.0, 2.0, 3.0}), Error);
}

TEST(DenseNet, ShapeValidation) {
  Rng rng(1);
  EXPECT_THROW(DenseNet({4}, rng), Error);
  DenseNet net({4, 8, 2}, rng);
  EXPECT_EQ(net.input_size(), 4u);
  EXPECT_EQ(net.output_size(), 2u);
  EXPECT_THROW(net.forward({1.0, 2.0}), Error);
  EXPECT_THROW(net.train({1, 2, 3, 4}, {1.0}), Error);
}

TEST(DenseNet, LearnsLinearFunction) {
  Rng rng(7);
  DenseNet net({2, 16, 1}, rng, {5e-3});
  Rng data(11);
  double final_mse = 1e9;
  for (int epoch = 0; epoch < 400; ++epoch) {
    double mse = 0.0;
    for (int i = 0; i < 16; ++i) {
      const double a = data.uniform(-1, 1);
      const double b = data.uniform(-1, 1);
      mse += net.train({a, b}, {0.5 * a - 0.25 * b + 0.1});
    }
    final_mse = mse / 16;
  }
  EXPECT_LT(final_mse, 1e-3);
  const double pred = net.forward({0.5, -0.5})[0];
  EXPECT_NEAR(pred, 0.5 * 0.5 + 0.25 * 0.5 + 0.1, 0.05);
}

TEST(DenseNet, LearnsXor) {
  Rng rng(3);
  DenseNet net({2, 12, 12, 1}, rng, {8e-3});
  const std::vector<std::vector<double>> xs{{0, 0}, {0, 1}, {1, 0}, {1, 1}};
  const std::vector<std::vector<double>> ys{{0}, {1}, {1}, {0}};
  double mse = 1e9;
  for (int epoch = 0; epoch < 1200; ++epoch) {
    mse = net.train_epoch(xs, ys);
  }
  EXPECT_LT(mse, 0.02);
  EXPECT_LT(net.forward({0, 0})[0], 0.3);
  EXPECT_GT(net.forward({0, 1})[0], 0.7);
  EXPECT_GT(net.forward({1, 0})[0], 0.7);
  EXPECT_LT(net.forward({1, 1})[0], 0.3);
}

TEST(DenseNet, TrainOutputUpdatesSingleHead) {
  Rng rng(5);
  DenseNet net({2, 8, 3}, rng, {1e-2});
  for (int i = 0; i < 500; ++i) {
    net.train_output({1.0, 0.0}, 1, 0.75);
  }
  EXPECT_NEAR(net.forward({1.0, 0.0})[1], 0.75, 0.05);
}

TEST(DenseNet, EmbeddingHasHiddenWidth) {
  Rng rng(9);
  DenseNet net({4, 10, 6, 2}, rng);
  std::vector<double> embedding;
  net.forward_with_embedding({1, 2, 3, 4}, &embedding);
  EXPECT_EQ(embedding.size(), 6u);
  // ReLU hidden activations are non-negative.
  for (double v : embedding) EXPECT_GE(v, 0.0);
}

TEST(DenseNet, SoftUpdateMovesTowardSource) {
  // A single-layer net is linear in its parameters, so averaging the
  // weights exactly averages the outputs (with ReLU stacks it need not).
  Rng rng(13);
  DenseNet a({2, 1}, rng);
  DenseNet b({2, 1}, rng);
  const double before = std::abs(a.forward({1, 1})[0] - b.forward({1, 1})[0]);
  a.soft_update_from(b, 0.5);
  const double after = std::abs(a.forward({1, 1})[0] - b.forward({1, 1})[0]);
  EXPECT_NEAR(after, before / 2.0, 1e-9);
  a.copy_from(b);
  EXPECT_NEAR(a.forward({1, 1})[0], b.forward({1, 1})[0], 1e-12);
  // Mismatched architectures are rejected.
  DenseNet c({3, 1}, rng);
  EXPECT_THROW(a.soft_update_from(c, 0.5), Error);
}

/// Textbook Adam on a ReLU MLP (MSE on one output head), written with
/// plain loops and none of DenseNet's flushing or shortcuts. It follows
/// DenseNet's conventions — row-major weights, sums in index order, the
/// error propagated back through the freshly updated weights — so the
/// two must agree bit for bit.
class ReferenceMlp {
 public:
  ReferenceMlp(std::vector<std::size_t> sizes, const std::vector<double>& init,
               AdamParams adam)
      : sizes_(std::move(sizes)), adam_(adam) {
    std::size_t next = 0;
    for (std::size_t l = 0; l + 1 < sizes_.size(); ++l) {
      const std::size_t n_w = sizes_[l] * sizes_[l + 1];
      w_.emplace_back(init.begin() + next, init.begin() + next + n_w);
      next += n_w;
      b_.emplace_back(init.begin() + next, init.begin() + next + sizes_[l + 1]);
      next += sizes_[l + 1];
      m_w_.emplace_back(n_w, 0.0);
      v_w_.emplace_back(n_w, 0.0);
      m_b_.emplace_back(sizes_[l + 1], 0.0);
      v_b_.emplace_back(sizes_[l + 1], 0.0);
    }
  }

  std::vector<double> forward(const std::vector<double>& x) {
    a_.assign(1, x);
    for (std::size_t l = 0; l < w_.size(); ++l) {
      const std::size_t in = sizes_[l];
      std::vector<double> z(sizes_[l + 1]);
      for (std::size_t o = 0; o < z.size(); ++o) {
        double sum = 0.0;
        for (std::size_t i = 0; i < in; ++i) sum += w_[l][o * in + i] * a_[l][i];
        z[o] = sum + b_[l][o];
        if (l + 1 < w_.size()) z[o] = std::max(0.0, z[o]);  // ReLU
      }
      a_.push_back(z);
    }
    return a_.back();
  }

  void train_output(const std::vector<double>& x, std::size_t k,
                    double target) {
    std::vector<double> delta(sizes_.back(), 0.0);
    delta[k] = 2.0 * (forward(x)[k] - target);
    ++step_;
    const double bc1 = 1.0 - std::pow(adam_.beta1, static_cast<double>(step_));
    const double bc2 = 1.0 - std::pow(adam_.beta2, static_cast<double>(step_));
    for (std::size_t l = w_.size(); l-- > 0;) {
      const std::size_t in = sizes_[l];
      if (l + 1 < w_.size()) {
        for (std::size_t o = 0; o < delta.size(); ++o) {
          if (a_[l + 1][o] <= 0.0) delta[o] = 0.0;
        }
      }
      for (std::size_t o = 0; o < delta.size(); ++o) {
        for (std::size_t i = 0; i < in; ++i) {
          adam(w_[l][o * in + i], m_w_[l][o * in + i], v_w_[l][o * in + i],
               delta[o] * a_[l][i], bc1, bc2);
        }
        adam(b_[l][o], m_b_[l][o], v_b_[l][o], delta[o], bc1, bc2);
      }
      if (l > 0) {
        std::vector<double> back(in, 0.0);
        for (std::size_t o = 0; o < delta.size(); ++o) {
          for (std::size_t i = 0; i < in; ++i) {
            back[i] += w_[l][o * in + i] * delta[o];
          }
        }
        delta = back;
      }
    }
  }

  std::vector<double> parameters() const {
    std::vector<double> out;
    for (std::size_t l = 0; l < w_.size(); ++l) {
      out.insert(out.end(), w_[l].begin(), w_[l].end());
      out.insert(out.end(), b_[l].begin(), b_[l].end());
    }
    return out;
  }

  /// Adam updates that read a subnormal first moment.
  std::uint64_t subnormal_moment_reads() const { return subnormal_reads_; }

 private:
  void adam(double& w, double& m, double& v, double g, double bc1,
            double bc2) {
    if (std::fpclassify(m) == FP_SUBNORMAL) ++subnormal_reads_;
    m = adam_.beta1 * m + (1.0 - adam_.beta1) * g;
    v = adam_.beta2 * v + (1.0 - adam_.beta2) * g * g;
    w -= adam_.learning_rate * (m / bc1) / (std::sqrt(v / bc2) + adam_.epsilon);
  }

  std::vector<std::size_t> sizes_;
  AdamParams adam_;
  std::vector<std::vector<double>> w_, b_, m_w_, v_w_, m_b_, v_b_;
  std::vector<std::vector<double>> a_;
  std::uint64_t step_ = 0;
  std::uint64_t subnormal_reads_ = 0;
};

TEST(DenseNet, MatchesTextbookAdamBitForBit) {
  // The agents' shape of problem: single-head Q updates on a ReLU stack
  // whose dead units leave first moments decaying into the subnormal
  // range, where DenseNet flushes them and skips zero-gradient updates.
  const std::vector<std::size_t> sizes{5, 24, 24, 3};
  const AdamParams adam{2e-3};
  Rng init(41);
  DenseNet net(sizes, init, adam);
  ReferenceMlp reference(sizes, net.parameters(), adam);
  Rng data(43);
  for (int step = 0; step < 20000; ++step) {
    std::vector<double> x(sizes.front());
    for (double& v : x) v = data.uniform(0.0, 1.0);
    x[1] -= 0.5;
    const std::size_t head = data.index(sizes.back());
    const double target = x[0] - x[1] + 0.25 * static_cast<double>(head);
    net.train_output(x, head, target);
    reference.train_output(x, head, target);
  }
  EXPECT_GT(reference.subnormal_moment_reads(), 0u);
  const std::vector<double> got = net.parameters();
  const std::vector<double> want = reference.parameters();
  ASSERT_EQ(got.size(), want.size());
  std::size_t differing = 0;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::bit_cast<std::uint64_t>(got[i]) !=
        std::bit_cast<std::uint64_t>(want[i])) {
      ++differing;
    }
  }
  EXPECT_EQ(differing, 0u);
  const std::vector<double> probe{0.5, 0.0, 0.5, 0.25, 0.75};
  EXPECT_EQ(net.forward(probe), reference.forward(probe));
}

TEST(DenseNet, SharedScratchForwardMatchesAllocatingForward) {
  Rng rng(47);
  const DenseNet net({3, 7, 5, 2}, rng);
  Activations scratch;
  for (int i = 0; i < 4; ++i) {
    const std::vector<double> x{0.1 * i, 1.0 - 0.2 * i, 0.3};
    const std::span<const double> out = net.forward(x, scratch);
    EXPECT_EQ(std::vector<double>(out.begin(), out.end()), net.forward(x));
  }
}

TEST(Pca, RecoversDominantDirection) {
  // Points along y = 2x with small noise: the first component should be
  // ~(1, 2)/sqrt(5).
  Rng rng(21);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 400; ++i) {
    const double t = rng.uniform(-1, 1);
    samples.push_back({t + rng.normal(0, 0.01), 2 * t + rng.normal(0, 0.01)});
  }
  const PcaResult pca = pca_fit(samples);
  ASSERT_EQ(pca.components.size(), 2u);
  EXPECT_GT(pca.eigenvalues[0], pca.eigenvalues[1] * 50);
  const auto& c = pca.components[0];
  const double ratio = std::abs(c[1] / c[0]);
  EXPECT_NEAR(ratio, 2.0, 0.05);
  // Components are unit length.
  EXPECT_NEAR(c[0] * c[0] + c[1] * c[1], 1.0, 1e-6);
}

TEST(Pca, EigenvaluesSortedDescending) {
  Rng rng(22);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back({rng.normal(0, 3.0), rng.normal(0, 1.0),
                       rng.normal(0, 0.1)});
  }
  const PcaResult pca = pca_fit(samples);
  for (std::size_t k = 1; k < pca.eigenvalues.size(); ++k) {
    EXPECT_GE(pca.eigenvalues[k - 1], pca.eigenvalues[k]);
  }
  // Variances roughly match the generating stddevs squared.
  EXPECT_NEAR(pca.eigenvalues[0], 9.0, 2.5);
  EXPECT_NEAR(pca.eigenvalues[1], 1.0, 0.5);
}

TEST(Pca, ImportanceHighlightsVaryingDimension) {
  Rng rng(23);
  std::vector<std::vector<double>> samples;
  for (int i = 0; i < 200; ++i) {
    samples.push_back({rng.normal(0, 5.0), rng.normal(0, 0.1)});
  }
  const auto importance = pca_importance(pca_fit(samples));
  ASSERT_EQ(importance.size(), 2u);
  EXPECT_GT(importance[0], importance[1]);
  EXPECT_NEAR(importance[0] + importance[1], 1.0, 1e-9);
}

TEST(Pca, RejectsDegenerateInput) {
  EXPECT_THROW(pca_fit({}), Error);
  EXPECT_THROW(pca_fit({{1.0, 2.0}, {1.0}}), Error);
}

TEST(Pca, ConstantDataHasZeroEigenvalues) {
  std::vector<std::vector<double>> samples(10, {3.0, 3.0});
  const PcaResult pca = pca_fit(samples);
  for (double ev : pca.eigenvalues) EXPECT_NEAR(ev, 0.0, 1e-12);
}

}  // namespace
}  // namespace tunio::nn
