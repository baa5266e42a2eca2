// perfbench driver: runs one workload once and prints its result.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--spans <path>] [--describe <git describe>]
//
// Standard output ends with one JSON line {"correct", "attempted", "failed",
// "metrics"}: the end-to-end metrics with --trace 0, the per-layer split
// with --trace 1. The lines before it are for people: each metric with its
// unit, failed_frac, and the run's provenance. Exit status: 0 when every
// output check passed, 1 when one failed or the run broke, 2 on bad usage.
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>
#include <thread>

#include "host.hpp"
#include "metrics/json.hpp"
#include "workloads.hpp"

namespace {

using perfbench::Options;

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench: " << why << "\n"
            << "usage: perfbench --workload paper_10k|wire_sealed|event_wan|svc_open"
               " --seed <n> --seconds <s> --trace 0|1 [--spans <path>]"
               " [--describe <text>]\n";
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& text) {
  std::size_t used = 0;
  unsigned long long value = 0;
  try {
    value = std::stoull(text, &used);
  } catch (const std::exception&) {
    used = 0;
  }
  if (used == 0 || used != text.size() || text[0] == '-') {
    usage(flag + " needs a whole number, got '" + text + "'");
  }
  return value;
}

Options parse(int argc, char** argv, std::string& describe) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    if (flag == "--workload") {
      o.workload = value;
      have_workload = true;
    } else if (flag == "--seed") {
      o.seed = parse_u64(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_u64(flag, value));
      if (o.seconds < 1) usage("--seconds must be at least 1");
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--spans") {
      o.spans_path = value;
    } else if (flag == "--describe") {
      describe = value;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (!have_workload) usage("--workload is required");
  if (!perfbench::is_sim_workload(o.workload) && o.workload != "svc_open") {
    usage("unknown workload '" + o.workload + "'");
  }
  return o;
}

std::string provenance(const Options& o, const std::string& describe, double steal) {
  raptee::metrics::JsonArray flags;
  for (const std::string& f : perfbench::crypto_cpu_flags()) flags.item(f);
  return raptee::metrics::JsonObject()
      .field("workload", o.workload)
      .field("seed", o.seed)
      .field("seconds", o.seconds)
      .field("trace", o.trace)
      .field("git_describe", describe)
      .field("build_type", PERFBENCH_BUILD_TYPE)
      .field("cpu_model", perfbench::cpu_model())
      .field("nproc", static_cast<std::uint64_t>(std::thread::hardware_concurrency()))
      .field_raw("cpu_flags", flags.str())
      .field("host_steal_pct", steal)
      .str();
}

}  // namespace

int main(int argc, char** argv) {
  std::string describe = "unknown";
  const Options options = parse(argc, argv, describe);

  perfbench::RunReport report;
  const perfbench::CpuTimes host0 = perfbench::read_cpu_times();
  try {
    report = perfbench::is_sim_workload(options.workload)
                 ? perfbench::run_sim_workload(options)
                 : perfbench::run_svc_workload(options);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << options.workload << " broke: " << e.what() << "\n";
    return 1;
  }
  const double steal = perfbench::steal_pct(host0, perfbench::read_cpu_times());
  if (options.trace) report.add("host.steal_pct", steal, "%");

  for (const std::string& f : report.failures) {
    std::cerr << "perfbench: check failed: " << f << "\n";
  }
  raptee::metrics::JsonObject metrics;
  for (const perfbench::Metric& m : report.metrics) {
    std::printf("%-32s %14.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());
    metrics.field_raw(m.name, raptee::metrics::JsonObject()
                                  .field("value", m.value)
                                  .field("unit", m.unit)
                                  .str());
  }
  for (const auto& [name, values] : report.samples) {
    std::printf("samples %s:", name.c_str());
    for (const double v : values) std::printf(" %.6g", v);
    std::printf("\n");
  }
  const double failed_frac =
      report.attempted == 0 ? 0.0
                            : static_cast<double>(report.failed) /
                                  static_cast<double>(report.attempted);
  std::printf("%-32s %14.6g ratio (%llu of %llu)\n", "failed_frac", failed_frac,
              static_cast<unsigned long long>(report.failed),
              static_cast<unsigned long long>(report.attempted));
  std::printf("provenance %s\n", provenance(options, describe, steal).c_str());

  const bool correct = report.failed == 0 && report.attempted > 0;
  std::printf("%s\n", raptee::metrics::JsonObject()
                          .field("correct", correct)
                          .field("attempted", report.attempted)
                          .field("failed", report.failed)
                          .field_raw("metrics", metrics.str())
                          .str()
                          .c_str());
  return correct ? 0 : 1;
}
