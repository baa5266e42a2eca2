// Summary statistics for the benchmark's samples (round wall times,
// request latencies, generator lateness).
#pragma once

#include <cstddef>
#include <vector>

namespace perfbench {

/// Cuts of one sample set. Percentiles interpolate linearly between closest
/// ranks (raptee::percentile_of_sorted); all fields are 0 for an empty set.
struct Summary {
  std::size_t count = 0;
  double p50 = 0.0;
  double p99 = 0.0;
  double p999 = 0.0;
  double max = 0.0;
};

[[nodiscard]] Summary summarize(std::vector<double> samples);

}  // namespace perfbench
