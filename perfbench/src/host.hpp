// Host readings: memory high-water mark, CPU clocks, hypervisor steal and
// the CPU identity that goes into every result's provenance. Linux /proc
// only; a reading that is unavailable comes back as 0 / empty.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Peak resident set of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mib();

/// CPU seconds consumed by the whole process / by the calling thread.
[[nodiscard]] double process_cpu_s();
[[nodiscard]] double thread_cpu_s();

/// Aggregate jiffies from the first line of /proc/stat.
struct CpuTimes {
  std::uint64_t total = 0;
  std::uint64_t steal = 0;
};
[[nodiscard]] CpuTimes read_cpu_times();
/// Steal share of all CPU time between two readings, percent.
[[nodiscard]] double steal_pct(const CpuTimes& before, const CpuTimes& after);
/// Parses one "cpu ..." line of /proc/stat (exposed for tests).
[[nodiscard]] CpuTimes parse_cpu_line(const std::string& line);

/// "model name" of the first CPU in /proc/cpuinfo.
[[nodiscard]] std::string cpu_model();
/// Which of the crypto-relevant flags (sha_ni, aes, vaes) the CPU reports.
[[nodiscard]] std::vector<std::string> crypto_cpu_flags();

}  // namespace perfbench
