#include "harness/stats.hpp"

#include <algorithm>
#include <cmath>

namespace jobbench {

namespace {

/// 1-based nearest rank of the q-quantile among n samples.
std::size_t nearest_rank(double q, std::size_t n) {
  const double rank = std::ceil(q * static_cast<double>(n) - 1e-9);
  return std::clamp<std::size_t>(static_cast<std::size_t>(rank), 1, n);
}

}  // namespace

std::size_t min_samples_for(double q) {
  std::size_t n = 1;
  while (n - nearest_rank(q, n) < kMinSamplesBeyond) ++n;
  return n;
}

std::optional<double> tail_percentile(std::vector<double> samples, double q) {
  const std::size_t n = samples.size();
  if (n == 0 || n < min_samples_for(q)) return std::nullopt;
  const std::size_t rank = nearest_rank(q, n);
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

double median(std::vector<double> samples) {
  if (samples.empty()) return 0.0;
  std::sort(samples.begin(), samples.end());
  const std::size_t n = samples.size();
  return n % 2 == 1 ? samples[n / 2]
                    : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);
}

double mean(const std::vector<double>& samples) {
  if (samples.empty()) return 0.0;
  double sum = 0.0;
  for (double v : samples) sum += v;
  return sum / static_cast<double>(samples.size());
}

}  // namespace jobbench
