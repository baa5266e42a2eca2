// In-memory spans for the traced run.
//
// The benchmark records spans from its own files around each call into the
// program: workload > setup > round[r] > phase.<name> for simulations
// (phases laid out from RoundSnapshot::phase_ms), and one `request` span per
// service request. Spans stay in memory and are written out once, when the
// run ends. A span's self time is its duration minus the part of it that
// its children cover, which is how the per-layer split is derived.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  std::uint32_t id = 0;      ///< 1-based; 0 means "no span"
  std::uint32_t parent = 0;  ///< 0 for a root span
  std::string name;
  double start_ms = 0.0;     ///< offsets on the recorder's clock
  double end_ms = 0.0;
};

class SpanRecorder {
 public:
  /// Adds a finished span and returns its id.
  std::uint32_t add(std::string name, std::uint32_t parent, double start_ms,
                    double end_ms);
  /// Opens a span that close() finishes later.
  std::uint32_t open(std::string name, std::uint32_t parent, double start_ms);
  void close(std::uint32_t id, double end_ms);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Self time of every span, indexed by id - 1: its duration minus the
  /// union of its children's intervals clipped to it.
  [[nodiscard]] std::vector<double> self_ms() const;

  /// {"spans":[{"id":..,"parent":..,"name":..,"start_ms":..,"end_ms":..}...]}
  [[nodiscard]] std::string to_json() const;

 private:
  std::vector<Span> spans_;
};

}  // namespace perfbench
