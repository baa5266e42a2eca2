#include "checks.hpp"

#include <sstream>

namespace perfbench {

std::vector<std::string> check_sim_run(const SimOutcome& run, const SimExpect& expect,
                                       const std::string& reference_digest) {
  std::vector<std::string> failures;
  const auto fail = [&failures](const auto&... parts) {
    std::ostringstream msg;
    (msg << ... << parts);
    failures.push_back(msg.str());
  };
  if (!reference_digest.empty() && run.digest != reference_digest) {
    fail("results digest ", run.digest, " differs from the first run's ",
         reference_digest);
  }
  if (run.pulls_completed == 0) fail("no pull completed");
  if (!(run.final_pollution_honest > 0.0 && run.final_pollution_honest < 1.0)) {
    fail("final honest pollution ", run.final_pollution_honest, " is not in (0, 1)");
  }
  if (expect.sealed_tamper &&
      !(run.legs_tampered > 0 && run.legs_corrupted == run.legs_tampered)) {
    fail("sealed links rejected ", run.legs_corrupted, " of ", run.legs_tampered,
         " tampered legs");
  }
  if (expect.event_partition) {
    const std::uint64_t want = expect.rounds * expect.round_interval_ms;
    if (run.virtual_ms != want) {
      fail("virtual clock ended at ", run.virtual_ms, " ms, expected ", want);
    }
    if (run.partition_drops == 0) fail("partition cut nothing");
  }
  return failures;
}

std::string check_reply(const std::optional<raptee::net::SampleReply>& reply,
                        std::uint16_t count, std::size_t population) {
  if (!reply) return "reply does not decode";
  if (reply->samples.size() != count) {
    return "reply carries " + std::to_string(reply->samples.size()) + " samples, wanted " +
           std::to_string(count);
  }
  for (const raptee::NodeId id : reply->samples) {
    if (id.value >= population) {
      return "reply holds node id " + std::to_string(id.value) + " outside the population";
    }
  }
  return {};
}

}  // namespace perfbench
