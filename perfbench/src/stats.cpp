#include "stats.hpp"

#include <algorithm>

#include "common/stats.hpp"

namespace perfbench {

Summary summarize(std::vector<double> samples) {
  Summary s;
  if (samples.empty()) return s;
  std::sort(samples.begin(), samples.end());
  s.count = samples.size();
  s.p50 = raptee::percentile_of_sorted(samples, 50.0);
  s.p99 = raptee::percentile_of_sorted(samples, 99.0);
  s.p999 = raptee::percentile_of_sorted(samples, 99.9);
  s.max = samples.back();
  return s;
}

}  // namespace perfbench
