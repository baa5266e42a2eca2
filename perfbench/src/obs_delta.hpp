// What one process-wide registry histogram recorded between two snapshots
// (obs::Registry::global() accumulates across everything a process ran, so
// the benchmark reads differences around the part it measures).
#pragma once

#include <cstdint>
#include <string_view>

#include "obs/registry.hpp"

namespace perfbench {

struct HistogramDelta {
  std::uint64_t count = 0;
  std::uint64_t sum = 0;
  /// Upper bound of the bucket holding the 99th-percentile observation and
  /// of the highest non-empty bucket (the overflow bucket reports the last
  /// finite bound). 0 when nothing was recorded.
  std::uint64_t p99_bound = 0;
  std::uint64_t max_bound = 0;

  [[nodiscard]] double mean() const {
    return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count);
  }
};

[[nodiscard]] HistogramDelta histogram_delta(const raptee::obs::Snapshot& before,
                                             const raptee::obs::Snapshot& after,
                                             std::string_view name);

}  // namespace perfbench
