// A gauge of how fast the host runs integer code right now. The shared
// host's co-tenants take execution ports from the benchmark's vCPUs for
// stretches of seconds to minutes, which slows throughput-bound code such
// as the program's hashing by up to half. The gauge times a fixed kernel
// owned by the benchmark (its own SHA-256 compression, not the program's),
// so a change to the program never moves it.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// FIPS 180-4 SHA-256 compression of one 16-word block into `state`.
void sha256_compress(std::array<std::uint32_t, 8>& state,
                     const std::array<std::uint32_t, 16>& block);

/// Nanoseconds per 64-byte block of the benchmark's own SHA-256
/// compression, timed over `blocks` blocks.
[[nodiscard]] double reference_ns_per_block(std::size_t blocks);

/// The gauge's reading on an uncontended vCPU of the host the baseline was
/// measured on (4-vCPU Xeon, RelWithDebInfo), ns per block.
inline constexpr double kReferenceGaugeNs = 300.0;

/// Factor that brings a time measured between two gauge readings on the
/// same thread to the reference speed: kReferenceGaugeNs over their mean.
/// A reading of 450 ns (co-tenant contention slowed the kernel by half)
/// scales the time by 2/3.
[[nodiscard]] double host_scale(double before_ns, double after_ns);

/// Collects short bursts of the reference kernel over a run.
class HostGauge {
 public:
  /// Times one burst of about 10 ms on the calling thread; records and
  /// returns its ns per block.
  double sample();
  [[nodiscard]] const std::vector<double>& samples() const { return ns_; }

 private:
  std::vector<double> ns_;
};

}  // namespace perfbench
