// A small fully connected network with ReLU hidden layers, linear output,
// MSE loss and Adam — the C++ stand-in for the paper's Keras models.
//
// Supports everything the TunIO agents need: forward evaluation, a view
// of the last hidden activation (the Smart Configuration Generation
// "state observation"), single-sample and mini-batch SGD/Adam training,
// and soft parameter copies (target networks for Q-learning).
//
// Inference is `const` and writes nothing in the network: the activations
// of a pass live in a caller-owned `Activations`, so any number of threads
// may query one shared network, each with its own scratch. Training owns
// its scratch, so once the buffers have grown to the widest layer a
// training step allocates nothing.
//
// Subnormal moments. The agents' gradients are mostly exact zeros (dead
// ReLU units; `train_output` propagates one action's error), and with a
// zero gradient Adam's first moment shrinks ×β1 per step into the
// subnormal range, where every x86 operation on it takes a microcode
// assist. `backward` therefore stores moments below DBL_MIN as +0.0 and
// skips the arithmetic when gradient and first moment are both zero,
// without changing any weight bit (`adam_step` in dense_net.cpp says why).
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "common/rng.hpp"
#include "nn/matrix.hpp"

namespace tunio::nn {

struct AdamParams {
  double learning_rate = 1e-3;
  double beta1 = 0.9;
  double beta2 = 0.999;
  double epsilon = 1e-8;
};

/// Activation buffers of one forward pass, one per layer boundary (the
/// input included). Reusing one across calls makes passes allocation-free.
struct Activations {
  std::vector<std::vector<double>> layers;
};

class DenseNet {
 public:
  /// `layer_sizes` = {input, hidden..., output}; at least {in, out}.
  DenseNet(std::vector<std::size_t> layer_sizes, Rng& rng,
           AdamParams adam = {});

  std::size_t input_size() const { return layer_sizes_.front(); }
  std::size_t output_size() const { return layer_sizes_.back(); }

  /// Forward pass.
  std::vector<double> forward(const std::vector<double>& input) const;

  /// Forward pass into caller-owned scratch; returns the output layer, a
  /// view into `scratch` valid until its next use.
  std::span<const double> forward(std::span<const double> input,
                                  Activations& scratch) const;

  /// Forward pass that also returns the last hidden layer's activation
  /// (the embedding used as RL "state observation").
  std::vector<double> forward_with_embedding(
      const std::vector<double>& input, std::vector<double>* embedding) const;

  /// One Adam step on a single (input, target) pair; returns the MSE.
  double train(const std::vector<double>& input,
               const std::vector<double>& target);

  /// One Adam step on a single sample where only `output_index`'s error
  /// is propagated (Q-learning updates one action's value).
  double train_output(std::span<const double> input,
                      std::size_t output_index, double target);
  double train_output(const std::vector<double>& input,
                      std::size_t output_index, double target) {
    return train_output(std::span<const double>(input), output_index, target);
  }

  /// Mini-batch training epoch over all samples; returns the mean MSE.
  double train_epoch(const std::vector<std::vector<double>>& inputs,
                     const std::vector<std::vector<double>>& targets);

  /// θ ← τ·other + (1−τ)·θ (target-network soft update).
  void soft_update_from(const DenseNet& other, double tau);

  /// Hard parameter copy.
  void copy_from(const DenseNet& other);

  /// Every weight and bias, layer by layer (weights row-major, then the
  /// biases) — for fingerprinting and differential tests.
  std::vector<double> parameters() const;

 private:
  struct Layer {
    Matrix weights;  ///< out × in
    std::vector<double> bias;
    // Adam state
    Matrix m_w, v_w;
    std::vector<double> m_b, v_b;
  };

  /// Backprop for the sample in `train_act_` given the output error
  /// dL/dy in `delta_`.
  void backward();

  std::vector<std::size_t> layer_sizes_;
  std::vector<Layer> layers_;
  AdamParams adam_;
  std::uint64_t step_ = 0;

  // Training scratch: the forward pass being trained on, and the error
  // vector backpropagated through it (ping-ponged with delta_back_).
  Activations train_act_;
  std::vector<double> delta_;
  std::vector<double> delta_back_;
};

}  // namespace tunio::nn
