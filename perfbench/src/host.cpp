#include "host.hpp"

#include <time.h>

#include <fstream>
#include <sstream>

namespace perfbench {

namespace {

double clock_s(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) return 0.0;
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) / 1e9;
}

/// The value after "key:" on the first matching line of a /proc file.
std::string proc_field(const char* path, const std::string& key) {
  std::ifstream in(path);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(key, 0) != 0) continue;
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    const auto start = line.find_first_not_of(" \t", colon + 1);
    return start == std::string::npos ? std::string() : line.substr(start);
  }
  return {};
}

}  // namespace

double peak_rss_mib() {
  const std::string kib = proc_field("/proc/self/status", "VmHWM");
  return kib.empty() ? 0.0 : std::stod(kib) / 1024.0;
}

double process_cpu_s() { return clock_s(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu_s() { return clock_s(CLOCK_THREAD_CPUTIME_ID); }

CpuTimes parse_cpu_line(const std::string& line) {
  std::istringstream in(line);
  std::string label;
  in >> label;
  CpuTimes t;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal [guest guest_nice]; guest
  // time is already included in user/nice, so it is not added again.
  std::uint64_t field = 0;
  for (int i = 0; i < 8 && in >> field; ++i) {
    t.total += field;
    if (i == 7) t.steal = field;
  }
  return t;
}

CpuTimes read_cpu_times() {
  std::ifstream in("/proc/stat");
  std::string line;
  std::getline(in, line);
  return parse_cpu_line(line);
}

double steal_pct(const CpuTimes& before, const CpuTimes& after) {
  if (after.total <= before.total) return 0.0;
  return 100.0 * static_cast<double>(after.steal - before.steal) /
         static_cast<double>(after.total - before.total);
}

std::string cpu_model() { return proc_field("/proc/cpuinfo", "model name"); }

std::vector<std::string> crypto_cpu_flags() {
  std::istringstream flags(proc_field("/proc/cpuinfo", "flags"));
  std::vector<std::string> found;
  std::string flag;
  while (flags >> flag) {
    if (flag == "sha_ni" || flag == "aes" || flag == "vaes") found.push_back(flag);
  }
  return found;
}

}  // namespace perfbench
