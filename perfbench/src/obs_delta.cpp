#include "obs_delta.hpp"

#include <vector>

namespace perfbench {

namespace {

const raptee::obs::Snapshot::HistogramValue* find(const raptee::obs::Snapshot& snap,
                                                  std::string_view name) {
  for (const auto& h : snap.histograms) {
    if (h.name == name) return &h;
  }
  return nullptr;
}

}  // namespace

HistogramDelta histogram_delta(const raptee::obs::Snapshot& before,
                               const raptee::obs::Snapshot& after,
                               std::string_view name) {
  HistogramDelta d;
  const auto* h1 = find(after, name);
  if (h1 == nullptr) return d;
  const auto* h0 = find(before, name);
  std::vector<std::uint64_t> counts(h1->buckets);
  for (std::size_t i = 0; i < h1->buckets; ++i) {
    counts[i] = after.bucket_counts[h1->first + i] -
                (h0 ? before.bucket_counts[h0->first + i] : 0);
  }
  d.count = h1->count - (h0 ? h0->count : 0);
  d.sum = h1->sum - (h0 ? h0->sum : 0);
  if (d.count == 0) return d;
  const auto bound = [&](std::size_t i) {
    const std::size_t finite = i + 1 < h1->buckets ? i : h1->buckets - 2;
    return after.bucket_bounds[h1->first + finite];
  };
  std::uint64_t seen = 0;
  bool p99_set = false;
  for (std::size_t i = 0; i < counts.size(); ++i) {
    if (counts[i] == 0) continue;
    seen += counts[i];
    if (!p99_set && seen * 100 >= d.count * 99) {
      d.p99_bound = bound(i);
      p99_set = true;
    }
    d.max_bound = bound(i);
  }
  return d;
}

}  // namespace perfbench
