// svc_open: an in-process ServiceDaemon under open-loop load.
//
// One client thread keeps four pipelined connections and sends SampleRequests
// on a fixed 20k req/s schedule whatever the replies do (service clients are
// independent protocols that do not wait on each other). It speaks the
// service protocol through the public net functions only: connect_loopback,
// encode_hello, append_frame, FrameSplitter and the sample codec.
//
// Daemon CPU per request is process CPU minus the client thread's CPU,
// divided by completed requests. The daemon's own engine rounds are read
// from the engine.phase.* histograms it publishes, sampled between rounds.
#include <poll.h>

#include <algorithm>
#include <array>
#include <chrono>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "checks.hpp"
#include "common/stats.hpp"
#include "host.hpp"
#include "net/bus.hpp"
#include "net/frame.hpp"
#include "net/service.hpp"
#include "net/socket.hpp"
#include "obs/registry.hpp"
#include "gauge.hpp"
#include "obs_delta.hpp"
#include "openloop.hpp"
#include "stats.hpp"
#include "trace.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;
namespace net = raptee::net;

constexpr double kRatePerS = 20000.0;
constexpr std::uint16_t kSamples = 8;
constexpr std::size_t kConnections = 4;
constexpr std::size_t kPopulation = 64;
constexpr std::size_t kView = 16;
/// ServiceDaemon::start() probes before every window of an end-to-end run,
/// so set-up is sampled across the whole run like the windows.
constexpr int kProbesPerSlice = 3;
constexpr std::int64_t kTimeoutNs = 1'000'000'000;
constexpr std::size_t kMaxFailureLines = 5;
/// An end-to-end run is windows of about this length (8 in a 30-second
/// run), with set-up probes between them; it reports the median window.
constexpr double kSliceSeconds = 4.0;
constexpr double kMinWindowSeconds = 1.0;

net::DaemonConfig daemon_config(std::uint64_t seed) {
  net::DaemonConfig config;
  config.population = kPopulation;
  config.view_size = kView;
  config.seed = seed;
  return config;
}

/// Times ServiceDaemon::start(); `port` receives the bound port.
double start_s(net::ServiceDaemon& daemon, std::uint16_t& port) {
  const auto t0 = Clock::now();
  port = daemon.start();
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// ServiceDaemon::start() of a probe daemon between two gauge readings,
/// brought to reference speed (see gauge.hpp): start() lasts a fraction of
/// a second, short enough for the readings around it to see the contention
/// it ran under. The probe is stopped again before it serves anything.
double gauged_start_s(std::uint64_t seed, HostGauge& gauge) {
  std::uint16_t port = 0;
  net::ServiceDaemon probe(daemon_config(seed));
  const double before = gauge.sample();
  const double start = start_s(probe, port);
  return start * host_scale(before, gauge.sample());
}

/// Median wall time of the daemon's engine rounds: the sum of the five
/// phase histograms' totals, taken whenever exactly one more round has
/// completed since the last consistent reading.
class DaemonRounds {
 public:
  DaemonRounds() {
    for (std::size_t p = 0; p < kPhaseNames.size(); ++p) {
      hist_[p] = &raptee::obs::Registry::global().histogram(
          std::string("engine.phase.") + kPhaseNames[p] + "_us");
    }
  }

  void poll() {
    std::array<std::uint64_t, 5> before{};
    std::uint64_t total = 0;
    for (std::size_t p = 0; p < hist_.size(); ++p) before[p] = hist_[p]->count();
    for (const auto* h : hist_) total += h->sum();
    for (std::size_t p = 0; p < hist_.size(); ++p) {
      // A round in progress, or one that finished during the reading.
      if (hist_[p]->count() != before[p] || before[p] != before[0]) return;
    }
    if (before[0] == last_count_ + 1) {
      round_ms_.push_back(static_cast<double>(total - last_sum_) / 1e3);
    }
    last_count_ = before[0];
    last_sum_ = total;
  }

  [[nodiscard]] const std::vector<double>& round_ms() const { return round_ms_; }

 private:
  std::array<const raptee::obs::Histogram*, 5> hist_{};
  std::uint64_t last_count_ = std::numeric_limits<std::uint64_t>::max() - 1;
  std::uint64_t last_sum_ = 0;
  std::vector<double> round_ms_;
};

struct Connection {
  net::Fd fd;
  net::FrameSplitter splitter;
  std::vector<std::uint8_t> out;
  std::size_t out_sent = 0;
};

bool wait_fd(int fd, short events, Clock::time_point deadline) {
  while (Clock::now() < deadline) {
    pollfd pfd{fd, events, 0};
    if (::poll(&pfd, 1, 10) > 0) return true;
  }
  return false;
}

/// Connects and completes the HELLO exchange; throws when the daemon
/// refuses.
Connection open_connection(std::uint16_t port, std::uint32_t index, std::uint64_t seed) {
  const auto deadline = Clock::now() + std::chrono::seconds(2);
  Connection c;
  bool in_progress = false;
  c.fd = net::connect_loopback(port, &in_progress);
  if (in_progress && (!wait_fd(c.fd.get(), POLLOUT, deadline) ||
                      net::connect_result(c.fd.get()) != 0)) {
    throw std::runtime_error("service connection refused");
  }
  const auto hello = net::encode_hello(raptee::NodeId{index}, net::PeerRole::kClient,
                                       raptee::mix64(seed, index));
  net::append_frame(c.out, hello.data(), hello.size());
  std::vector<std::uint8_t> payload;
  while (true) {
    if (c.out_sent < c.out.size()) {
      const long n = net::write_some(c.fd.get(), c.out.data() + c.out_sent,
                                     c.out.size() - c.out_sent);
      if (n == -2) throw std::runtime_error("service connection reset during HELLO");
      if (n > 0) c.out_sent += static_cast<std::size_t>(n);
    }
    if (c.splitter.next(payload)) break;  // the daemon's HELLO
    if (!wait_fd(c.fd.get(), POLLIN, deadline)) {
      throw std::runtime_error("service HELLO timed out");
    }
    std::uint8_t buf[4096];
    const long n = net::read_some(c.fd.get(), buf, sizeof buf);
    if (n == 0 || n == -2) throw std::runtime_error("service closed during HELLO");
    if (n > 0) c.splitter.feed(buf, static_cast<std::size_t>(n));
  }
  c.out.clear();
  c.out_sent = 0;
  return c;
}

struct Window {
  LoadAccount account;
  double cpu_s = 0.0;  ///< process CPU minus the client thread's
  std::vector<double> round_ms;
  std::vector<std::string> failures;
};

/// Drives one open-loop window of `seconds` over `conns`, tagging request i
/// as `tag_base + i`; replies below `tag_base` answer an earlier window and
/// are skipped. With a recorder, every completed request becomes a
/// `request` span under `parent`.
Window run_window(std::vector<Connection>& conns, double seconds, std::uint64_t tag_base,
                  SpanRecorder* spans, std::uint32_t parent, Clock::time_point origin) {
  Window w;
  const OpenLoopSchedule schedule(kRatePerS);
  DaemonRounds rounds;
  const auto t0 = Clock::now();
  const auto window_ns = static_cast<std::int64_t>(seconds * 1e9);
  const double t0_ms = std::chrono::duration<double, std::milli>(t0 - origin).count();
  const auto elapsed_ns = [t0] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
  };
  w.account.reserve(schedule.due_by(window_ns) + 1);
  const double cpu_proc0 = process_cpu_s();
  const double cpu_thread0 = thread_cpu_s();
  const auto fail = [&w](std::string msg) {
    if (w.failures.size() < kMaxFailureLines) w.failures.push_back(std::move(msg));
  };

  std::vector<pollfd> pfds(conns.size());
  std::vector<std::uint8_t> payload;
  std::uint64_t next = 0;
  bool broken = false;
  while (!broken) {
    std::int64_t now = elapsed_ns();
    if (now >= window_ns) break;
    for (const std::uint64_t due = schedule.due_by(now); next < due; ++next) {
      const auto body = net::encode_sample_request({tag_base + next, kSamples});
      net::append_frame(conns[next % conns.size()].out, body.data(), body.size());
      w.account.sent(next, schedule.due_ns(next), now);
    }
    for (std::size_t i = 0; i < conns.size(); ++i) {
      Connection& c = conns[i];
      if (c.out_sent < c.out.size()) {
        const long n = net::write_some(c.fd.get(), c.out.data() + c.out_sent,
                                       c.out.size() - c.out_sent);
        if (n == -2) {
          fail("service connection reset on write");
          broken = true;
        }
        if (n > 0) c.out_sent += static_cast<std::size_t>(n);
        if (c.out_sent == c.out.size()) {
          c.out.clear();
          c.out_sent = 0;
        }
      }
      pfds[i] = {c.fd.get(),
                 static_cast<short>(POLLIN | (c.out.empty() ? 0 : POLLOUT)), 0};
    }
    const std::int64_t wait_ns =
        std::clamp<std::int64_t>(schedule.due_ns(next) - elapsed_ns(), 0, 1'000'000);
    const timespec timeout{0, static_cast<long>(wait_ns)};
    if (::ppoll(pfds.data(), pfds.size(), &timeout, nullptr) > 0) {
      for (std::size_t i = 0; i < conns.size(); ++i) {
        if ((pfds[i].revents & (POLLIN | POLLERR | POLLHUP)) == 0) continue;
        Connection& c = conns[i];
        std::uint8_t buf[16384];
        long n = 0;
        while ((n = net::read_some(c.fd.get(), buf, sizeof buf)) > 0) {
          c.splitter.feed(buf, static_cast<std::size_t>(n));
        }
        if (n == 0 || n == -2) {
          fail("service connection closed mid-window");
          broken = true;
        }
        now = elapsed_ns();
        while (c.splitter.next(payload)) {
          const auto reply = net::decode_sample_reply(payload.data(), payload.size());
          const std::string bad = check_reply(reply, kSamples, kPopulation);
          if (!bad.empty()) {
            w.account.malformed();
            fail(bad);
            continue;
          }
          if (reply->tag < tag_base) continue;
          const std::uint64_t index = reply->tag - tag_base;
          if (!w.account.replied(index, now)) {
            fail("reply echoes tag " + std::to_string(reply->tag) + " that is not in flight");
            continue;
          }
          if (spans != nullptr) {
            spans->add("request", parent, t0_ms + schedule.due_ns(index) / 1e6,
                       t0_ms + static_cast<double>(now) / 1e6);
          }
        }
      }
    }
    w.account.expire(elapsed_ns(), kTimeoutNs);
    rounds.poll();
  }
  w.account.close_window();
  w.cpu_s = (process_cpu_s() - cpu_proc0) - (thread_cpu_s() - cpu_thread0);
  w.round_ms = rounds.round_ms();
  if (w.account.timed_out() > 0) {
    fail(std::to_string(w.account.timed_out()) + " requests timed out");
  }
  return w;
}

void book(const Window& w, RunReport& report) {
  report.attempted += w.account.sent_count();
  report.failed += w.account.failed();
  report.failures.insert(report.failures.end(), w.failures.begin(), w.failures.end());
}

double cpu_us_per_request(const Window& w) {
  return w.account.completed() == 0
             ? 0.0
             : w.cpu_s * 1e6 / static_cast<double>(w.account.completed());
}

void add_layers(const Window& w, const raptee::obs::Snapshot& before,
                const raptee::obs::Snapshot& after, const net::BusStats& bus0,
                const net::BusStats& bus1, RunReport& report) {
  const auto counter = [&](const raptee::obs::Snapshot& snap, std::string_view name) {
    for (const auto& c : snap.counters) {
      if (c.name == name) return c.value;
    }
    return std::uint64_t{0};
  };
  const auto delta = [&](std::string_view name) {
    return static_cast<double>(counter(after, name) - counter(before, name));
  };
  const double rounds = delta("engine.rounds");
  double round_ms = 0.0;
  double pulls_ms = 0.0;
  for (const char* phase : kPhaseNames) {
    const HistogramDelta h =
        histogram_delta(before, after, std::string("engine.phase.") + phase + "_us");
    report.add(std::string("sim.") + phase + "_ms", h.mean() / 1e3, "ms");
    round_ms += h.mean() / 1e3;
    if (std::string_view(phase) == "pulls") pulls_ms = h.mean() / 1e3;
  }
  const double pulls = delta("engine.pulls_started");
  if (rounds > 0 && pulls > 0) {
    report.add("sim.pulls_per_round", pulls / rounds, "count");
    report.add("sim.pushes_per_round", delta("engine.pushes_sent") / rounds, "count");
    report.add("sim.pull_us_per_exchange", pulls_ms * 1e3 * rounds / pulls, "us");
    report.add("sim.serial_share", pulls_ms / round_ms, "ratio");
    report.add("sim.pull_completion_frac", delta("engine.pulls_completed") / pulls, "ratio");
  }
  for (const char* name : {"bus.dispatch_us", "bus.flush_us", "bus.timer_us"}) {
    const HistogramDelta h = histogram_delta(before, after, name);
    report.add(std::string("net.") + name + "_mean", h.mean(), "us");
    report.add(std::string("net.") + name + "_p99", static_cast<double>(h.p99_bound), "us");
  }
  const HistogramDelta sample = histogram_delta(before, after, "service.sample_us");
  report.add("service.sample_us_mean", sample.mean(), "us");
  report.add("service.sample_us_p99", static_cast<double>(sample.p99_bound), "us");

  const double served = static_cast<double>(w.account.completed());
  if (served > 0) {
    report.add("net.frames_per_req",
               static_cast<double>((bus1.frames_received - bus0.frames_received) +
                                   (bus1.frames_sent - bus0.frames_sent)) /
                   served,
               "count");
    report.add("net.bytes_per_req",
               static_cast<double>((bus1.bytes_received - bus0.bytes_received) +
                                   (bus1.bytes_sent - bus0.bytes_sent)) /
                   served,
               "count");
  }
  const Summary latency = summarize(w.account.latency_us());
  const Summary late = summarize(w.account.lateness_us());
  report.add("load.p50_us", latency.p50, "us");
  report.add("load.p99_us", latency.p99, "us");
  report.add("load.p999_us", latency.p999, "us");
  report.add("load.gen_late_us_p99", late.p99, "us");
  report.add("load.gen_late_us_max", late.max, "us");
  report.add("load.cutoff", static_cast<double>(w.account.cutoff()), "count");
}

}  // namespace

RunReport run_svc_workload(const Options& options) {
  const auto origin = Clock::now();
  const auto deadline = origin + std::chrono::duration_cast<Clock::duration>(
                                     std::chrono::duration<double>(options.seconds));
  RunReport report;

  net::ServiceDaemon daemon(daemon_config(options.seed));
  const std::uint16_t port = daemon.start();

  std::vector<Connection> conns;
  for (std::size_t i = 0; i < kConnections; ++i) {
    conns.push_back(open_connection(port, static_cast<std::uint32_t>(i), options.seed));
  }

  if (!options.trace) {
    std::vector<double> round_ms;
    std::vector<double> cpu_us;
    std::vector<double> setups;
    std::uint64_t tag_base = 0;
    const int slices = std::max(1, static_cast<int>(options.seconds / kSliceSeconds + 0.5));
    HostGauge gauge;
    for (int i = 0; i < slices; ++i) {
      const auto probes0 = Clock::now();
      for (int k = 0; k < kProbesPerSlice; ++k) {
        setups.push_back(gauged_start_s(options.seed, gauge));
      }
      // The windows share what is left of the run, less the probes still
      // to come (each batch about as long as this one).
      const double probes_s = std::chrono::duration<double>(Clock::now() - probes0).count();
      const int left = slices - i;
      const double left_s = std::chrono::duration<double>(deadline - Clock::now()).count();
      const double window_s = std::max(kMinWindowSeconds, (left_s - (left - 1) * probes_s) / left);
      const Window w = run_window(conns, window_s, tag_base, nullptr, 0, origin);
      tag_base += w.account.sent_count();
      book(w, report);
      round_ms.push_back(raptee::median_of(w.round_ms));
      cpu_us.push_back(cpu_us_per_request(w));
    }
    report.add("round_ms_p50", raptee::median_of(round_ms), "ms");
    report.add("setup_s", raptee::median_of(setups), "s");
    report.add("peak_rss_mib", peak_rss_mib(), "MiB");
    report.add("cpu_us_per_op", raptee::median_of(cpu_us), "us");
    report.samples.emplace_back("round_ms", std::move(round_ms));
    report.samples.emplace_back("setup_s", std::move(setups));
    report.samples.emplace_back("cpu_us_per_op", std::move(cpu_us));
    report.samples.emplace_back("gauge_ns", gauge.samples());
  } else {
    // Traced run: an untraced half window, then a traced half window with
    // request spans and registry / bus deltas.
    HostGauge gauge;
    gauge.sample();
    const Window untraced = run_window(conns, options.seconds / 2, 0, nullptr, 0, origin);
    gauge.sample();
    book(untraced, report);

    SpanRecorder spans;
    const std::uint32_t root = spans.open(
        options.workload, 0, std::chrono::duration<double, std::milli>(Clock::now() - origin).count());
    const raptee::obs::Snapshot before = raptee::obs::Registry::global().snapshot();
    const net::BusStats bus0 = daemon.bus_stats();
    const Window traced = run_window(conns, options.seconds / 2,
                                     untraced.account.sent_count(), &spans, root, origin);
    const raptee::obs::Snapshot after = raptee::obs::Registry::global().snapshot();
    const net::BusStats bus1 = daemon.bus_stats();
    spans.close(root, std::chrono::duration<double, std::milli>(Clock::now() - origin).count());
    book(traced, report);

    add_layers(traced, before, after, bus0, bus1, report);
    gauge.sample();
    report.add("host.gauge_ns", raptee::median_of(gauge.samples()), "ns");
    report.add("trace.overhead_ms",
               raptee::median_of(traced.round_ms) - raptee::median_of(untraced.round_ms), "ms");
    for (Metric& m : unit_costs()) report.metrics.push_back(std::move(m));
    if (!options.spans_path.empty()) {
      std::ofstream(options.spans_path) << spans.to_json() << '\n';
    }
  }
  conns.clear();
  daemon.stop();
  return report;
}

}  // namespace perfbench
