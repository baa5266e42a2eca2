#include "trace.hpp"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "metrics/json.hpp"

namespace perfbench {

std::uint32_t SpanRecorder::add(std::string name, std::uint32_t parent,
                                double start_ms, double end_ms) {
  if (parent > spans_.size()) throw std::out_of_range("span parent does not exist");
  const auto id = static_cast<std::uint32_t>(spans_.size() + 1);
  spans_.push_back({id, parent, std::move(name), start_ms, end_ms});
  return id;
}

std::uint32_t SpanRecorder::open(std::string name, std::uint32_t parent,
                                 double start_ms) {
  return add(std::move(name), parent, start_ms, start_ms);
}

void SpanRecorder::close(std::uint32_t id, double end_ms) {
  spans_.at(id - 1).end_ms = end_ms;
}

std::vector<double> SpanRecorder::self_ms() const {
  std::vector<std::vector<std::pair<double, double>>> covered(spans_.size());
  for (const Span& child : spans_) {
    if (child.parent == 0) continue;
    const Span& parent = spans_[child.parent - 1];
    const double lo = std::max(child.start_ms, parent.start_ms);
    const double hi = std::min(child.end_ms, parent.end_ms);
    if (hi > lo) covered[child.parent - 1].emplace_back(lo, hi);
  }
  std::vector<double> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& intervals = covered[i];
    std::sort(intervals.begin(), intervals.end());
    double busy = 0.0;
    double run_lo = 0.0;
    double run_hi = -1.0;  // empty run
    for (const auto& [lo, hi] : intervals) {
      if (lo > run_hi) {
        if (run_hi > run_lo) busy += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) busy += run_hi - run_lo;
    self[i] = (spans_[i].end_ms - spans_[i].start_ms) - busy;
  }
  return self;
}

std::string SpanRecorder::to_json() const {
  raptee::metrics::JsonArray items;
  for (const Span& s : spans_) {
    raptee::metrics::JsonObject o;
    o.field("id", static_cast<std::uint64_t>(s.id))
        .field("parent", static_cast<std::uint64_t>(s.parent))
        .field("name", s.name)
        .field("start_ms", s.start_ms)
        .field("end_ms", s.end_ms);
    items.item_raw(o.str());
  }
  return raptee::metrics::JsonObject().field_raw("spans", items.str()).str();
}

}  // namespace perfbench
