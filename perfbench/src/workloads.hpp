// The benchmark's workloads and what each run reports.
#pragma once

#include <array>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/// The engine's five profiled phases, in sim::Engine::Phase order; metric
/// names are "sim.<phase>_ms".
inline constexpr std::array<const char*, 5> kPhaseNames = {
    "begin_round", "push_gen", "push_deliver", "pulls", "end_round"};

struct Options {
  std::string workload;
  std::uint64_t seed = 20220308;
  double seconds = 15.0;
  bool trace = false;
  std::string spans_path;  ///< traced runs write their spans here (may be empty)
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

struct RunReport {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> failures;  ///< one line per failed check
  std::vector<Metric> metrics;
  /// Per-repeat (per-slice) values behind an end-to-end metric, printed for
  /// people so a run's own spread is visible next to its summary.
  std::vector<std::pair<std::string, std::vector<double>>> samples;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
};

[[nodiscard]] bool is_sim_workload(const std::string& name);
/// paper_10k, wire_sealed, event_wan.
[[nodiscard]] RunReport run_sim_workload(const Options& options);
/// svc_open.
[[nodiscard]] RunReport run_svc_workload(const Options& options);

/// Fixed-iteration unit costs of the crypto, wire, auth and service codec
/// functions at the message sizes the workloads produce.
[[nodiscard]] std::vector<Metric> unit_costs();

}  // namespace perfbench
