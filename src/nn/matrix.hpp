// A minimal dense matrix for the neural-network components.
//
// The RL agents' networks are tiny (tens of units), so the priority is
// clarity and cache-friendly row-major storage, not BLAS.
#pragma once

#include <cstddef>
#include <vector>

#include "common/error.hpp"

namespace tunio::nn {

class Matrix {
 public:
  Matrix() = default;
  Matrix(std::size_t rows, std::size_t cols, double fill = 0.0)
      : rows_(rows), cols_(cols), data_(rows * cols, fill) {}

  std::size_t rows() const { return rows_; }
  std::size_t cols() const { return cols_; }

  double& operator()(std::size_t r, std::size_t c) {
    return data_[r * cols_ + c];
  }
  double operator()(std::size_t r, std::size_t c) const {
    return data_[r * cols_ + c];
  }

  std::vector<double>& data() { return data_; }
  const std::vector<double>& data() const { return data_; }

  /// y = A * x (x.size() == cols).
  std::vector<double> multiply(const std::vector<double>& x) const;

  /// y = A^T * x (x.size() == rows).
  std::vector<double> multiply_transposed(const std::vector<double>& x) const;

  /// Unchecked, allocation-free forms: `x` holds cols() (resp. rows())
  /// values and `y` receives rows() (resp. cols()).
  void multiply(const double* x, double* y) const;
  void multiply_transposed(const double* x, double* y) const;

 private:
  std::size_t rows_ = 0;
  std::size_t cols_ = 0;
  std::vector<double> data_;
};

}  // namespace tunio::nn
