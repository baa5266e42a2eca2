#include "openloop.hpp"

#include <cmath>
#include <stdexcept>

namespace perfbench {

OpenLoopSchedule::OpenLoopSchedule(double rate_per_s) : period_ns_(1e9 / rate_per_s) {
  if (!(rate_per_s > 0.0)) throw std::invalid_argument("open-loop rate must be > 0");
}

std::int64_t OpenLoopSchedule::due_ns(std::uint64_t i) const {
  return static_cast<std::int64_t>(std::llround(static_cast<double>(i) * period_ns_));
}

std::uint64_t OpenLoopSchedule::due_by(std::int64_t t_ns) const {
  if (t_ns < 0) return 0;
  auto n = static_cast<std::uint64_t>(static_cast<double>(t_ns) / period_ns_) + 1;
  // Correct the floating-point estimate against the exact due times.
  while (n > 0 && due_ns(n - 1) > t_ns) --n;
  while (due_ns(n) <= t_ns) ++n;
  return n;
}

void LoadAccount::reserve(std::size_t requests) {
  due_.reserve(requests);
  state_.reserve(requests);
  latency_us_.reserve(requests);
  lateness_us_.reserve(requests);
}

void LoadAccount::sent(std::uint64_t tag, std::int64_t due_ns, std::int64_t send_ns) {
  if (tag != due_.size()) throw std::invalid_argument("tags must be sent in order");
  due_.push_back(due_ns);
  state_.push_back(State::kInFlight);
  ++in_flight_;
  lateness_us_.push_back(static_cast<double>(send_ns - due_ns) / 1e3);
}

bool LoadAccount::replied(std::uint64_t tag, std::int64_t recv_ns) {
  if (tag >= state_.size() || state_[tag] == State::kDone) {
    ++malformed_;
    return false;
  }
  if (state_[tag] != State::kInFlight) return true;  // timed out or cut off
  state_[tag] = State::kDone;
  --in_flight_;
  ++completed_;
  latency_us_.push_back(static_cast<double>(recv_ns - due_[tag]) / 1e3);
  return true;
}

void LoadAccount::expire(std::int64_t now_ns, std::int64_t timeout_ns) {
  while (oldest_ < state_.size()) {
    if (state_[oldest_] == State::kInFlight) {
      if (now_ns - due_[oldest_] <= timeout_ns) return;
      state_[oldest_] = State::kTimedOut;
      --in_flight_;
      ++timed_out_;
    }
    ++oldest_;
  }
}

void LoadAccount::close_window() {
  for (std::uint64_t tag = oldest_; tag < state_.size(); ++tag) {
    if (state_[tag] != State::kInFlight) continue;
    state_[tag] = State::kCutoff;
    ++cutoff_;
  }
  in_flight_ = 0;
  oldest_ = state_.size();
}

}  // namespace perfbench
