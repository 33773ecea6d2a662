#include "nn/matrix.hpp"

namespace tunio::nn {

std::vector<double> Matrix::multiply(const std::vector<double>& x) const {
  TUNIO_CHECK_MSG(x.size() == cols_, "matrix-vector size mismatch");
  std::vector<double> y(rows_);
  multiply(x.data(), y.data());
  return y;
}

std::vector<double> Matrix::multiply_transposed(
    const std::vector<double>& x) const {
  TUNIO_CHECK_MSG(x.size() == rows_, "matrix^T-vector size mismatch");
  std::vector<double> y(cols_);
  multiply_transposed(x.data(), y.data());
  return y;
}

void Matrix::multiply(const double* x, double* y) const {
  for (std::size_t r = 0; r < rows_; ++r) {
    double sum = 0.0;
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) sum += row[c] * x[c];
    y[r] = sum;
  }
}

void Matrix::multiply_transposed(const double* x, double* y) const {
  for (std::size_t c = 0; c < cols_; ++c) y[c] = 0.0;
  for (std::size_t r = 0; r < rows_; ++r) {
    const double* row = data_.data() + r * cols_;
    for (std::size_t c = 0; c < cols_; ++c) y[c] += row[c] * x[r];
  }
}

}  // namespace tunio::nn
