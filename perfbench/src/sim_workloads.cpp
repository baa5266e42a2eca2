// The three simulation workloads, driven through scenario::ScenarioSpec /
// Runner with an IScenarioObserver.
//
// A run repeats the workload's fixed scenario (same seed, fixed round
// count) while another repeat still fits in --seconds, at least twice, so
// the results digest of every repeat can be compared with the first. Set-up
// is timed from the Runner::run call to on_run_start in set-up probes
// (which stop the run right there), two before every repeat, so it is
// sampled across the whole run like the rounds.
#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/stats.hpp"
#include "crypto/sha256.hpp"
#include "gauge.hpp"
#include "host.hpp"
#include "obs/registry.hpp"
#include "obs_delta.hpp"
#include "scenario/observer.hpp"
#include "scenario/results.hpp"
#include "scenario/runner.hpp"
#include "scenario/spec.hpp"
#include "sim/engine.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
using raptee::scenario::ScenarioSpec;

constexpr std::size_t kPulls = raptee::sim::Engine::kPhasePulls;
constexpr std::size_t kMinRepeats = 2;
constexpr int kProbesPerRepeat = 2;

/// The workload table. All share the paper's protocol parameters (l1 = l2 =
/// 48, f = 10 %, t = 1 %, adaptive eviction) and engine width 4; each adds
/// the layer it exists to exercise. Round counts are fixed so a run's
/// results do not depend on how long it measures, and short, so a run holds
/// several repeats and its median shrugs off a host stall.
ScenarioSpec workload_spec(const std::string& name, std::uint64_t seed) {
  using raptee::brahms::AuthMode;
  ScenarioSpec spec;
  spec.view_size(48)
      .adversary(0.10)
      .trusted(0.01)
      .eviction(raptee::core::EvictionSpec::adaptive())
      .threads(4)
      .seed(seed);
  if (name == "paper_10k") {
    spec.population(10000).rounds(1).auth_mode(AuthMode::kFingerprint);
  } else if (name == "wire_sealed") {
    spec.population(1000)
        .rounds(2)
        .auth_mode(AuthMode::kFull)
        .wire_roundtrip(true)
        .encrypt_links(true)
        .tamper_rate(0.02);
  } else if (name == "event_wan") {
    // 6 rounds put the mid-third partition over rounds 2..3.
    spec.population(2000)
        .rounds(6)
        .attack("delay_eclipse")
        .latency("wan")
        .partition("mid-third")
        .auth_mode(AuthMode::kOracle);
  } else {
    throw std::invalid_argument("unknown simulation workload " + name);
  }
  return spec;
}

SimExpect workload_expect(const ScenarioSpec& spec) {
  const raptee::metrics::ExperimentConfig config = spec.config();
  SimExpect expect;
  expect.sealed_tamper = config.encrypt_links && config.tamper_rate > 0.0;
  expect.event_partition = config.event.enabled;
  expect.rounds = config.rounds;
  expect.round_interval_ms = config.event.round_interval_us / 1000;
  return expect;
}

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct RoundRecord {
  double wall_ms = 0.0;
  double cpu_s = 0.0;  ///< process CPU over the round
  /// host_scale() of the gauge readings around the round; 1 when ungauged.
  double scale = 1.0;
  std::array<double, 5> phase_ms{};
};

/// Everything one repeat of the scenario produced.
struct Repeat {
  double setup_s = 0.0;
  std::vector<RoundRecord> rounds;
  raptee::scenario::RoundSnapshot last;
  raptee::sim::Engine::Counters counters;  ///< cumulative after the last round
  double eviction_rate_sum = 0.0;
  std::uint64_t link_derivations = 0;
  std::size_t link_sessions = 0;
  SimOutcome outcome;
};

/// Times the run from outside the program: set-up until on_run_start, then
/// each round from one callback to the next. With a recorder it also lays
/// down setup / round[r] / phase.<name> spans. With a gauge it takes a
/// reading before the first round and after every round, outside the
/// timed stretches, so each round sits between two readings.
class RoundClock final : public raptee::scenario::IScenarioObserver {
 public:
  RoundClock(Repeat& out, SpanRecorder* spans, std::uint32_t parent, Clock::time_point origin,
             HostGauge* gauge)
      : out_(out),
        spans_(spans),
        parent_(parent),
        origin_(origin),
        gauge_(gauge),
        call_(Clock::now()) {}

  void on_run_start(const raptee::metrics::ExperimentConfig&,
                    const raptee::sim::Engine&) override {
    const auto now = Clock::now();
    out_.setup_s = ms_between(call_, now) / 1e3;
    if (spans_ != nullptr) spans_->add("setup", parent_, at(call_), at(now));
    if (gauge_ != nullptr) reading_ = gauge_->sample();
    round_start_ = gauge_ != nullptr ? Clock::now() : now;
    cpu_start_ = process_cpu_s();
  }

  void on_round(const raptee::scenario::RoundSnapshot& snap,
                const raptee::sim::Engine& engine) override {
    const auto now = Clock::now();
    const double cpu_now = process_cpu_s();
    RoundRecord rec;
    rec.wall_ms = ms_between(round_start_, now);
    rec.cpu_s = cpu_now - cpu_start_;
    rec.phase_ms = snap.phase_ms;
    out_.counters = engine.counters();
    out_.last = snap;
    out_.eviction_rate_sum += snap.eviction_rate;
    out_.link_derivations = engine.link_derivations();
    out_.link_sessions = engine.link_active_sessions();
    if (spans_ != nullptr) {
      const std::uint32_t round = spans_->add("round[" + std::to_string(snap.round) + "]",
                                              parent_, at(round_start_), at(now));
      double t = at(round_start_);
      for (std::size_t p = 0; p < kPhaseNames.size(); ++p) {
        spans_->add(std::string("phase.") + kPhaseNames[p], round, t, t + snap.phase_ms[p]);
        t += snap.phase_ms[p];
      }
    }
    round_start_ = now;
    cpu_start_ = cpu_now;
    if (gauge_ != nullptr) {
      const double reading = gauge_->sample();
      rec.scale = host_scale(reading_, reading);
      reading_ = reading;
      round_start_ = Clock::now();
      cpu_start_ = process_cpu_s();
    }
    out_.rounds.push_back(rec);
  }

 private:
  double at(Clock::time_point t) const { return ms_between(origin_, t); }

  Repeat& out_;
  SpanRecorder* spans_;
  std::uint32_t parent_;
  Clock::time_point origin_;
  HostGauge* gauge_;
  Clock::time_point call_;
  Clock::time_point round_start_{};
  double cpu_start_ = 0.0;
  double reading_ = 0.0;
};

struct SetupReached {};

/// Stops the run as soon as the population is built and bootstrapped.
class SetupProbe final : public raptee::scenario::IScenarioObserver {
 public:
  void on_run_start(const raptee::metrics::ExperimentConfig&,
                    const raptee::sim::Engine&) override {
    throw SetupReached{};
  }
  void on_round(const raptee::scenario::RoundSnapshot&, const raptee::sim::Engine&) override {}
};

double setup_probe_s(const ScenarioSpec& spec) {
  SetupProbe probe;
  const auto t0 = Clock::now();
  try {
    (void)raptee::scenario::Runner(1).run(spec, &probe);
  } catch (const SetupReached&) {
    return ms_between(t0, Clock::now()) / 1e3;
  }
  throw std::logic_error("set-up probe ran to completion");
}

/// One set-up probe between two gauge readings, brought to reference speed.
double gauged_setup_s(const ScenarioSpec& spec, HostGauge& gauge) {
  const double before = gauge.sample();
  const double setup_s = setup_probe_s(spec);
  return setup_s * host_scale(before, gauge.sample());
}

Repeat run_repeat(const ScenarioSpec& spec, SpanRecorder* spans, std::uint32_t parent,
                  Clock::time_point origin, HostGauge* gauge = nullptr) {
  Repeat rep;
  RoundClock clock(rep, spans, parent, origin, gauge);
  const raptee::metrics::ExperimentResult result =
      raptee::scenario::Runner(1).run(spec, &clock);
  rep.outcome.digest =
      raptee::crypto::to_hex(raptee::crypto::sha256(raptee::scenario::results::to_json(result)));
  rep.outcome.pulls_completed = result.pulls_completed;
  rep.outcome.final_pollution_honest = rep.last.pollution_honest;
  rep.outcome.legs_tampered = result.legs_tampered;
  rep.outcome.legs_corrupted = result.legs_corrupted;
  rep.outcome.virtual_ms = result.evt.virtual_ms;
  rep.outcome.partition_drops = result.evt.partition_drops;
  return rep;
}

/// Runs the output checks on `rep` and books it as attempted / failed.
void check(const Repeat& rep, const SimExpect& expect, std::string& reference,
           RunReport& report) {
  ++report.attempted;
  const auto failures = check_sim_run(rep.outcome, expect, reference);
  if (reference.empty()) reference = rep.outcome.digest;
  if (failures.empty()) return;
  ++report.failed;
  report.failures.insert(report.failures.end(), failures.begin(), failures.end());
}

/// Mean wall time of one round of `rep`. A run's rounds are not alike
/// (event_wan's partitioned rounds are half as long), so repeats, not
/// rounds, are the unit a run compares.
double mean_round_ms(const Repeat& rep) {
  double sum = 0.0;
  for (const RoundRecord& r : rep.rounds) sum += r.wall_ms;
  return sum / static_cast<double>(rep.rounds.size());
}

double mean_phase_ms(const Repeat& rep, std::size_t phase) {
  double sum = 0.0;
  for (const RoundRecord& r : rep.rounds) sum += r.phase_ms[phase];
  return sum / static_cast<double>(rep.rounds.size());
}

/// `setups` holds the probes' set-up times at reference speed.
void add_end_to_end(const std::vector<Repeat>& reps, std::vector<double> setups,
                    std::size_t population, RunReport& report) {
  std::vector<double> round_ms;
  std::vector<double> cpu_us;
  std::vector<double> measured_ms;
  for (const Repeat& rep : reps) {
    measured_ms.push_back(mean_round_ms(rep));
    double wall_ms = 0.0;
    double cpu_s = 0.0;
    for (const RoundRecord& r : rep.rounds) {
      wall_ms += r.wall_ms * r.scale;
      cpu_s += r.cpu_s * r.scale;
    }
    const auto rounds = static_cast<double>(rep.rounds.size());
    round_ms.push_back(wall_ms / rounds);
    cpu_us.push_back(cpu_s * 1e6 / (rounds * static_cast<double>(population)));
  }
  // Each round is brought to reference speed by the gauge readings around
  // it. Every repeat does identical work, and the median repeat drops what
  // the gauge misses, a stall or a quiet stretch.
  report.add("round_ms_p50", raptee::median_of(round_ms), "ms");
  report.add("setup_s", raptee::median_of(setups), "s");
  report.add("peak_rss_mib", peak_rss_mib(), "MiB");
  report.add("cpu_us_per_op", raptee::median_of(cpu_us), "us");
  report.samples.emplace_back("round_ms", std::move(round_ms));
  report.samples.emplace_back("round_ms_measured", std::move(measured_ms));
  report.samples.emplace_back("setup_s", std::move(setups));
  report.samples.emplace_back("cpu_us_per_op", std::move(cpu_us));
}

/// Per-layer split of the traced repeat.
void add_layers(const Repeat& traced, const SpanRecorder& spans,
                const raptee::obs::Snapshot& before, const raptee::obs::Snapshot& after,
                RunReport& report) {
  const double rounds = static_cast<double>(traced.rounds.size());
  const double round_ms = mean_round_ms(traced);
  for (std::size_t p = 0; p < kPhaseNames.size(); ++p) {
    report.add(std::string("sim.") + kPhaseNames[p] + "_ms", mean_phase_ms(traced, p), "ms");
  }
  const auto& c = traced.counters;
  const double pulls_ms = mean_phase_ms(traced, kPulls);
  report.add("sim.pulls_per_round", static_cast<double>(c.pulls_started) / rounds, "count");
  report.add("sim.pushes_per_round", static_cast<double>(c.pushes_sent) / rounds, "count");
  report.add("sim.pull_us_per_exchange",
             c.pulls_started == 0 ? 0.0
                                  : pulls_ms * 1e3 * rounds /
                                        static_cast<double>(c.pulls_started),
             "us");
  report.add("sim.serial_share", pulls_ms / round_ms, "ratio");
  report.add("sim.pull_completion_frac",
             c.pulls_started == 0 ? 0.0
                                  : static_cast<double>(c.pulls_completed) /
                                        static_cast<double>(c.pulls_started),
             "ratio");

  // Round self time = round wall minus its phases: the scenario driver
  // (trackers, observers) between engine steps.
  const std::vector<double> self = spans.self_ms();
  double driver_ms = 0.0;
  for (const Span& s : spans.spans()) {
    if (s.name.rfind("round[", 0) == 0) driver_ms += self[s.id - 1];
  }
  report.add("scenario.driver_ms", driver_ms / rounds, "ms");

  report.add("core.eviction_rate", traced.eviction_rate_sum / rounds, "ratio");
  report.add("core.trusted_swaps_per_round", static_cast<double>(c.swaps_completed) / rounds,
             "count");
  report.add("pollution_honest", traced.last.pollution_honest, "ratio");

  report.add("wire.bytes_per_round", static_cast<double>(c.wire_bytes) / rounds, "count");
  report.add("wire.link_derivations", static_cast<double>(traced.link_derivations), "count");
  report.add("wire.link_sessions_active", static_cast<double>(traced.link_sessions), "count");
  report.add("wire.corrupted_per_tampered",
             c.legs_tampered == 0 ? 0.0
                                  : static_cast<double>(c.legs_corrupted) /
                                        static_cast<double>(c.legs_tampered),
             "ratio");

  const HistogramDelta events = histogram_delta(before, after, "evt.events_us");
  const HistogramDelta depth = histogram_delta(before, after, "evt.queue_depth");
  report.add("evt.events_us_mean", events.mean(), "us");
  report.add("evt.queue_depth_max", static_cast<double>(depth.max_bound), "count");
  report.add("evt.partition_drops_per_round", static_cast<double>(c.partition_drops) / rounds,
             "count");
  report.add("evt.legs_late_per_round", static_cast<double>(c.legs_late) / rounds, "count");
}

}  // namespace

bool is_sim_workload(const std::string& name) {
  return name == "paper_10k" || name == "wire_sealed" || name == "event_wan";
}

RunReport run_sim_workload(const Options& options) {
  const ScenarioSpec spec = workload_spec(options.workload, options.seed);
  const SimExpect expect = workload_expect(spec);
  const std::size_t population = spec.config().n;
  const auto origin = Clock::now();
  RunReport report;
  std::string reference;

  if (!options.trace) {
    const auto deadline =
        origin + std::chrono::duration_cast<Clock::duration>(
                     std::chrono::duration<double>(options.seconds));
    std::vector<Repeat> reps;
    std::vector<double> setups;
    // One iteration is the set-up probes and a repeat; the next starts only
    // if one as long as the last still ends by the deadline.
    Clock::duration last{};
    HostGauge gauge;
    while (reps.size() < kMinRepeats || Clock::now() + last <= deadline) {
      const auto start = Clock::now();
      for (int i = 0; i < kProbesPerRepeat; ++i) setups.push_back(gauged_setup_s(spec, gauge));
      reps.push_back(run_repeat(spec, nullptr, 0, origin, &gauge));
      check(reps.back(), expect, reference, report);
      last = Clock::now() - start;
    }
    add_end_to_end(reps, std::move(setups), population, report);
    report.samples.emplace_back("gauge_ns", gauge.samples());
    return report;
  }

  // Traced run: one untraced repeat, one traced repeat (spans + registry
  // deltas), then the ablations that price auth and the link cipher.
  HostGauge gauge;
  gauge.sample();
  const Repeat untraced = run_repeat(spec, nullptr, 0, origin);
  gauge.sample();
  check(untraced, expect, reference, report);

  SpanRecorder spans;
  const std::uint32_t root = spans.open(options.workload, 0, ms_between(origin, Clock::now()));
  const raptee::obs::Snapshot before = raptee::obs::Registry::global().snapshot();
  const Repeat traced = run_repeat(spec, &spans, root, origin);
  const raptee::obs::Snapshot after = raptee::obs::Registry::global().snapshot();
  spans.close(root, ms_between(origin, Clock::now()));
  check(traced, expect, reference, report);

  add_layers(traced, spans, before, after, report);
  const double pulls_ms = mean_phase_ms(traced, kPulls);
  const raptee::metrics::ExperimentConfig config = spec.config();
  double auth_ms = 0.0;
  if (config.auth_mode != raptee::brahms::AuthMode::kOracle) {
    ScenarioSpec oracle = spec;
    oracle.auth_mode(raptee::brahms::AuthMode::kOracle);
    auth_ms = pulls_ms - mean_phase_ms(run_repeat(oracle, nullptr, 0, origin), kPulls);
  }
  report.add("brahms.auth_ms_per_round", auth_ms, "ms");
  double cipher_ms = 0.0;
  if (config.encrypt_links) {
    ScenarioSpec plain = spec;
    plain.encrypt_links(false);
    cipher_ms = pulls_ms - mean_phase_ms(run_repeat(plain, nullptr, 0, origin), kPulls);
  }
  report.add("wire.link_cipher_ms_per_round", cipher_ms, "ms");
  report.add("trace.overhead_ms", mean_round_ms(traced) - mean_round_ms(untraced), "ms");
  gauge.sample();
  report.add("host.gauge_ns", raptee::median_of(gauge.samples()), "ns");
  for (Metric& m : unit_costs()) report.metrics.push_back(std::move(m));

  if (!options.spans_path.empty()) {
    std::ofstream(options.spans_path) << spans.to_json() << '\n';
  }
  return report;
}

}  // namespace perfbench
