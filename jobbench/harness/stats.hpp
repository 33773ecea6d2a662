// Summary statistics with the benchmark's reporting rules.
#pragma once

#include <cstddef>
#include <optional>
#include <vector>

namespace jobbench {

/// Tail percentiles are only reported when at least this many samples
/// lie beyond them (p90 needs 100 samples, p99 needs 1000).
inline constexpr std::size_t kMinSamplesBeyond = 10;

/// Smallest sample count for which `tail_percentile(q)` is defined.
std::size_t min_samples_for(double q);

/// Nearest-rank q-quantile (q in (0, 1)), or nullopt when fewer than
/// `kMinSamplesBeyond` samples lie beyond it.
std::optional<double> tail_percentile(std::vector<double> samples, double q);

/// Median (mean of the two middle samples for an even count); 0 when
/// `samples` is empty.
double median(std::vector<double> samples);

double mean(const std::vector<double>& samples);

}  // namespace jobbench
