// Open-loop load accounting for the service workload.
//
// Service clients are independent protocols that do not wait on each
// other, so the generator sends on a fixed schedule whether or not earlier
// replies came back. Request i is due at i / rate seconds after the start.
// Every request is timed from when it was DUE, not from when it was sent,
// so a generator or host stall is charged to every request it delayed; how
// late the generator itself ran (send time - due time) is reported
// separately.
//
// Outcomes: a request is completed (a reply with its tag arrived), timed
// out (no reply within the timeout while the window was open — a failure),
// or cut off (still in flight when the window closed — not a failure). A
// reply whose tag was never sent or was already answered is malformed and
// counts as a failure too.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

class OpenLoopSchedule {
 public:
  explicit OpenLoopSchedule(double rate_per_s);

  /// Due time of request `i`, in ns after the window opened.
  [[nodiscard]] std::int64_t due_ns(std::uint64_t i) const;
  /// Number of requests due at or before `t_ns` (requests 0..n-1).
  [[nodiscard]] std::uint64_t due_by(std::int64_t t_ns) const;

 private:
  double period_ns_;
};

class LoadAccount {
 public:
  /// Sizes the per-request records for `requests` sends up front, so the
  /// generator's own memory does not grow in steps during the window.
  void reserve(std::size_t requests);
  /// Request `tag` (tags are 0, 1, 2, ... in send order) went out at
  /// `send_ns`; it was due at `due_ns`.
  void sent(std::uint64_t tag, std::int64_t due_ns, std::int64_t send_ns);
  /// A reply for `tag` arrived at `recv_ns`. Returns false (and counts a
  /// malformed reply) for a tag never sent or already answered; a reply to
  /// a request that already timed out or was cut off is ignored.
  bool replied(std::uint64_t tag, std::int64_t recv_ns);
  /// A reply arrived that could not be decoded or failed its content check.
  void malformed() { ++malformed_; }
  /// Fails every in-flight request due more than `timeout_ns` before `now_ns`.
  void expire(std::int64_t now_ns, std::int64_t timeout_ns);
  /// The window closed: whatever is still in flight is cut off.
  void close_window();

  [[nodiscard]] std::uint64_t sent_count() const { return due_.size(); }
  [[nodiscard]] std::uint64_t completed() const { return completed_; }
  [[nodiscard]] std::uint64_t timed_out() const { return timed_out_; }
  [[nodiscard]] std::uint64_t malformed_count() const { return malformed_; }
  [[nodiscard]] std::uint64_t cutoff() const { return cutoff_; }
  [[nodiscard]] std::uint64_t in_flight() const { return in_flight_; }
  /// Failures: timed-out requests plus malformed replies.
  [[nodiscard]] std::uint64_t failed() const { return timed_out_ + malformed_; }

  /// Microseconds from due time to reply, one entry per completed request.
  [[nodiscard]] const std::vector<double>& latency_us() const { return latency_us_; }
  /// Microseconds from due time to send, one entry per request sent.
  [[nodiscard]] const std::vector<double>& lateness_us() const { return lateness_us_; }

 private:
  enum class State : std::uint8_t { kInFlight, kDone, kTimedOut, kCutoff };

  std::vector<std::int64_t> due_;
  std::vector<State> state_;
  std::uint64_t oldest_ = 0;  // every tag below is no longer in flight
  std::uint64_t in_flight_ = 0;
  std::uint64_t completed_ = 0;
  std::uint64_t timed_out_ = 0;
  std::uint64_t malformed_ = 0;
  std::uint64_t cutoff_ = 0;
  std::vector<double> latency_us_;
  std::vector<double> lateness_us_;
};

}  // namespace perfbench
