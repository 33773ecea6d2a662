// Fixed-capacity experience replay.
//
// States have a fixed width, so transitions are stored flat — one array
// per field, a state being `state_dim` consecutive doubles — and sampled
// as views, without allocating.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "common/rng.hpp"

namespace tunio::rl {

struct Transition {
  std::vector<double> state;
  std::size_t action = 0;
  double reward = 0.0;
  std::vector<double> next_state;
  bool terminal = false;
};

/// A stored transition, viewed in place.
struct TransitionView {
  std::span<const double> state;
  std::size_t action;
  double reward;
  std::span<const double> next_state;
  bool terminal;
};

class ReplayBuffer {
 public:
  ReplayBuffer(std::size_t capacity, std::size_t state_dim)
      : capacity_(capacity), state_dim_(state_dim) {
    TUNIO_CHECK_MSG(capacity_ > 0, "replay buffer needs capacity");
  }

  /// Stores a transition, overwriting the oldest once full.
  void push(const Transition& t) {
    TUNIO_CHECK_MSG(t.state.size() == state_dim_ &&
                        t.next_state.size() == state_dim_,
                    "transition state width mismatch");
    if (actions_.size() < capacity_) {
      states_.insert(states_.end(), t.state.begin(), t.state.end());
      next_states_.insert(next_states_.end(), t.next_state.begin(),
                          t.next_state.end());
      actions_.push_back(t.action);
      rewards_.push_back(t.reward);
      terminal_.push_back(t.terminal);
    } else {
      std::copy(t.state.begin(), t.state.end(),
                states_.begin() + cursor_ * state_dim_);
      std::copy(t.next_state.begin(), t.next_state.end(),
                next_states_.begin() + cursor_ * state_dim_);
      actions_[cursor_] = t.action;
      rewards_[cursor_] = t.reward;
      terminal_[cursor_] = t.terminal;
    }
    cursor_ = (cursor_ + 1) % capacity_;
  }

  std::size_t size() const { return actions_.size(); }
  bool empty() const { return actions_.empty(); }

  /// One uniform draw (sampling is with replacement); the view is valid
  /// until the next push.
  TransitionView sample(Rng& rng) const {
    TUNIO_CHECK_MSG(!empty(), "sampling empty replay buffer");
    const std::size_t i = rng.index(size());
    return {{states_.data() + i * state_dim_, state_dim_},
            actions_[i],
            rewards_[i],
            {next_states_.data() + i * state_dim_, state_dim_},
            terminal_[i] != 0};
  }

 private:
  std::size_t capacity_;
  std::size_t state_dim_;
  std::size_t cursor_ = 0;
  std::vector<double> states_;
  std::vector<double> next_states_;
  std::vector<std::size_t> actions_;
  std::vector<double> rewards_;
  std::vector<char> terminal_;
};

}  // namespace tunio::rl
