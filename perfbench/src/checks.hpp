// Output checks: what makes a run count as failed.
//
// A simulation run fails when its results differ from the first run of the
// same seed (the results::to_json digest), when no pull completed, when the
// honest nodes' final pollution is not strictly between 0 and 1, or when a
// workload-specific invariant breaks: on sealed links the AEAD must reject
// every tampered leg, and in event mode the virtual clock must end at
// rounds x interval with the partition visibly cutting messages.
//
// A service reply fails when it does not decode, or does not carry the
// requested sample count of IDs drawn from the daemon's population (tag
// matching is LoadAccount's job).
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "net/service.hpp"

namespace perfbench {

/// What a simulation workload promises about every run.
struct SimExpect {
  bool sealed_tamper = false;    ///< encrypt_links with tamper_rate > 0
  bool event_partition = false;  ///< event mode with a partition schedule
  std::uint64_t rounds = 0;
  std::uint64_t round_interval_ms = 0;
};

/// The observed outcome of one simulation run.
struct SimOutcome {
  std::string digest;  ///< sha256 hex of results::to_json(result)
  std::uint64_t pulls_completed = 0;
  double final_pollution_honest = 0.0;
  std::uint64_t legs_tampered = 0;
  std::uint64_t legs_corrupted = 0;
  std::uint64_t virtual_ms = 0;
  std::uint64_t partition_drops = 0;
};

/// Every check `run` fails, one message each (empty = the run passes).
/// `reference_digest` is the first run's digest for the same seed (empty
/// for the first run itself).
[[nodiscard]] std::vector<std::string> check_sim_run(const SimOutcome& run,
                                                     const SimExpect& expect,
                                                     const std::string& reference_digest);

/// Empty when `reply` decoded and carries `count` IDs below `population`.
[[nodiscard]] std::string check_reply(const std::optional<raptee::net::SampleReply>& reply,
                                      std::uint16_t count, std::size_t population);

}  // namespace perfbench
