// Tests for the benchmark's own helpers: percentile cuts, span self time,
// the open-loop schedule and its lateness accounting, host readings, the
// host gauge, and every output check fed a known-bad result.
#include <gtest/gtest.h>

#include <stdexcept>

#include "checks.hpp"
#include "gauge.hpp"
#include "host.hpp"
#include "metrics/json.hpp"
#include "obs/registry.hpp"
#include "obs_delta.hpp"
#include "openloop.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

TEST(Summarize, CutsInterpolateBetweenClosestRanks) {
  std::vector<double> xs;
  for (int i = 1000; i >= 1; --i) xs.push_back(i);  // unsorted on purpose
  const Summary s = summarize(xs);
  EXPECT_EQ(s.count, 1000u);
  EXPECT_DOUBLE_EQ(s.p50, 500.5);
  EXPECT_NEAR(s.p99, 990.01, 1e-9);
  EXPECT_NEAR(s.p999, 999.001, 1e-9);
  EXPECT_DOUBLE_EQ(s.max, 1000.0);
}

TEST(Summarize, EmptyAndSingleSample) {
  EXPECT_EQ(summarize({}).count, 0u);
  EXPECT_DOUBLE_EQ(summarize({}).p99, 0.0);
  const Summary one = summarize({7.0});
  EXPECT_DOUBLE_EQ(one.p50, 7.0);
  EXPECT_DOUBLE_EQ(one.p999, 7.0);
}

TEST(Spans, SelfTimeSubtractsTheUnionOfClippedChildren) {
  SpanRecorder r;
  const auto root = r.add("round[0]", 0, 0.0, 10.0);
  r.add("phase.a", root, 1.0, 3.0);
  r.add("phase.b", root, 2.0, 5.0);   // overlaps phase.a: counted once
  const auto c = r.add("phase.c", root, 8.0, 12.0);  // clipped at 10
  r.add("deep", c, 8.0, 9.0);         // a grandchild does not touch the root
  const std::vector<double> self = r.self_ms();
  EXPECT_DOUBLE_EQ(self[root - 1], 10.0 - (4.0 + 2.0));
  EXPECT_DOUBLE_EQ(self[c - 1], 4.0 - 1.0);
  EXPECT_DOUBLE_EQ(self[1], 2.0);  // a leaf's self time is its duration
}

TEST(Spans, OpenCloseAndJson) {
  SpanRecorder r;
  const auto w = r.open("paper_10k", 0, 1.0);
  r.add("setup", w, 1.0, 2.0);
  r.close(w, 5.0);
  EXPECT_DOUBLE_EQ(r.spans()[w - 1].end_ms, 5.0);
  EXPECT_DOUBLE_EQ(r.self_ms()[w - 1], 3.0);
  EXPECT_TRUE(raptee::metrics::json_valid(r.to_json()));
  EXPECT_THROW(r.add("orphan", 9, 0.0, 1.0), std::out_of_range);
}

TEST(OpenLoop, ScheduleIsFixedByRate) {
  const OpenLoopSchedule s(20000.0);  // one request every 50 us
  EXPECT_EQ(s.due_ns(0), 0);
  EXPECT_EQ(s.due_ns(3), 150000);
  EXPECT_EQ(s.due_by(-1), 0u);
  EXPECT_EQ(s.due_by(0), 1u);
  EXPECT_EQ(s.due_by(49999), 1u);
  EXPECT_EQ(s.due_by(50000), 2u);
  EXPECT_EQ(s.due_by(1'000'000'000), 20001u);
  EXPECT_THROW(OpenLoopSchedule(0.0), std::invalid_argument);
}

TEST(OpenLoop, DueByAgreesWithDueTimesForAnUnevenPeriod) {
  const OpenLoopSchedule s(3.0);  // 333333333.33 ns
  for (std::int64_t t : {0LL, 333333332LL, 333333333LL, 666666666LL, 666666667LL,
                         999999999LL, 1000000000LL}) {
    const std::uint64_t n = s.due_by(t);
    EXPECT_LE(s.due_ns(n - 1), t);
    EXPECT_GT(s.due_ns(n), t);
  }
}

TEST(OpenLoop, RequestsAreTimedFromWhenTheyWereDue) {
  LoadAccount a;
  a.sent(0, 0, 5'000);        // sent 5 us late
  a.sent(1, 10'000, 10'000);  // on time
  a.sent(2, 20'000, 40'000);  // a stall: 20 us late
  ASSERT_EQ(a.lateness_us(), (std::vector<double>{5.0, 0.0, 20.0}));
  EXPECT_TRUE(a.replied(2, 140'000));
  ASSERT_EQ(a.latency_us().size(), 1u);
  EXPECT_DOUBLE_EQ(a.latency_us()[0], 120.0);  // from due (20 us), not send (40 us)
  EXPECT_EQ(a.completed(), 1u);
  EXPECT_EQ(a.in_flight(), 2u);
  EXPECT_THROW(a.sent(7, 0, 0), std::invalid_argument);
}

TEST(OpenLoop, TimeoutsAndBadTagsFailButCutoffDoesNot) {
  LoadAccount a;
  a.sent(0, 0, 0);
  a.sent(1, 1'000'000, 1'000'000);
  a.sent(2, 2'000'000, 2'000'000);
  EXPECT_TRUE(a.replied(1, 1'500'000));
  EXPECT_FALSE(a.replied(1, 1'600'000));  // answered twice
  EXPECT_FALSE(a.replied(9, 1'600'000));  // never sent
  a.malformed();                          // undecodable reply
  a.expire(1'000'000'001, 1'000'000'000);  // request 0 is older than 1 s
  EXPECT_EQ(a.timed_out(), 1u);
  EXPECT_TRUE(a.replied(0, 1'100'000'000));  // late reply to a failed request: ignored
  EXPECT_EQ(a.completed(), 1u);
  a.close_window();  // request 2 still in flight
  EXPECT_EQ(a.cutoff(), 1u);
  EXPECT_EQ(a.in_flight(), 0u);
  EXPECT_EQ(a.malformed_count(), 3u);
  EXPECT_EQ(a.failed(), 4u);  // 1 timeout + 3 malformed; the cutoff is not a failure
  EXPECT_EQ(a.sent_count(), 3u);
}

SimOutcome good_run() {
  SimOutcome o;
  o.digest = "abc";
  o.pulls_completed = 100;
  o.final_pollution_honest = 0.2;
  o.legs_tampered = 10;
  o.legs_corrupted = 10;
  o.virtual_ms = 30000;
  o.partition_drops = 5;
  return o;
}

SimExpect event_and_sealed() {
  SimExpect e;
  e.sealed_tamper = true;
  e.event_partition = true;
  e.rounds = 12;
  e.round_interval_ms = 2500;
  return e;
}

TEST(Checks, AGoodRunPasses) {
  EXPECT_TRUE(check_sim_run(good_run(), event_and_sealed(), "").empty());
  EXPECT_TRUE(check_sim_run(good_run(), event_and_sealed(), "abc").empty());
  SimOutcome plain = good_run();
  plain.legs_tampered = plain.legs_corrupted = plain.virtual_ms = plain.partition_drops = 0;
  EXPECT_TRUE(check_sim_run(plain, SimExpect{}, "abc").empty());
}

TEST(Checks, EachKnownBadResultFailsOnce) {
  const SimExpect expect = event_and_sealed();
  const auto failures = [&](auto mutate, const std::string& ref = "abc") {
    SimOutcome o = good_run();
    mutate(o);
    return check_sim_run(o, expect, ref).size();
  };
  EXPECT_EQ(failures([](SimOutcome& o) { o.digest = "abd"; }), 1u);
  EXPECT_EQ(failures([](SimOutcome& o) { o.pulls_completed = 0; }), 1u);
  EXPECT_EQ(failures([](SimOutcome& o) { o.final_pollution_honest = 0.0; }), 1u);
  EXPECT_EQ(failures([](SimOutcome& o) { o.final_pollution_honest = 1.0; }), 1u);
  EXPECT_EQ(failures([](SimOutcome& o) { o.legs_corrupted = 9; }), 1u);
  EXPECT_EQ(failures([](SimOutcome& o) { o.legs_tampered = o.legs_corrupted = 0; }), 1u);
  EXPECT_EQ(failures([](SimOutcome& o) { o.virtual_ms = 29999; }), 1u);
  EXPECT_EQ(failures([](SimOutcome& o) { o.partition_drops = 0; }), 1u);
}

TEST(Checks, ReplyContent) {
  raptee::net::SampleReply reply;
  reply.tag = 3;
  for (std::uint32_t i = 0; i < 8; ++i) reply.samples.emplace_back(i);
  EXPECT_EQ(check_reply(reply, 8, 64), "");
  EXPECT_NE(check_reply(std::nullopt, 8, 64), "");
  EXPECT_NE(check_reply(reply, 4, 64), "");  // wrong sample count
  reply.samples[5] = raptee::NodeId{64};
  EXPECT_NE(check_reply(reply, 8, 64), "");  // ID outside the population
}

TEST(Host, StealShareFromProcStatLines) {
  const CpuTimes a = parse_cpu_line("cpu  100 0 50 800 10 0 5 35 7 0");
  EXPECT_EQ(a.total, 1000u);  // guest (7) is already inside user time
  EXPECT_EQ(a.steal, 35u);
  const CpuTimes b = parse_cpu_line("cpu  150 0 100 1585 20 0 10 135 9 0");
  EXPECT_DOUBLE_EQ(steal_pct(a, b), 10.0);
  EXPECT_EQ(parse_cpu_line("cpu0 1 2 3").total, 0u);
  EXPECT_DOUBLE_EQ(steal_pct(b, a), 0.0);
}

TEST(ObsDelta, HistogramDeltaCoversOnlyTheMeasuredPart) {
  raptee::obs::Registry reg;
  auto& h = reg.histogram("x_us");
  h.record(1000);
  const raptee::obs::Snapshot before = reg.snapshot();
  for (int i = 0; i < 99; ++i) h.record(3);
  h.record(40);
  const raptee::obs::Snapshot after = reg.snapshot();
  const HistogramDelta d = histogram_delta(before, after, "x_us");
  EXPECT_EQ(d.count, 100u);
  EXPECT_EQ(d.sum, 99u * 3 + 40);
  EXPECT_DOUBLE_EQ(d.mean(), 3.37);
  EXPECT_GE(d.p99_bound, 3u);
  EXPECT_LT(d.p99_bound, 40u);
  EXPECT_GE(d.max_bound, 40u);
  EXPECT_LT(d.max_bound, 1000u);
  EXPECT_EQ(histogram_delta(before, after, "missing").count, 0u);
}

TEST(Gauge, KernelIsSha256Compression) {
  // SHA-256("abc") is one padded block.
  std::array<std::uint32_t, 8> h = {0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a,
                                    0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19};
  std::array<std::uint32_t, 16> block{};
  block[0] = 0x61626380;
  block[15] = 24;
  sha256_compress(h, block);
  const std::array<std::uint32_t, 8> want = {0xba7816bf, 0x8f01cfea, 0x414140de, 0x5dae2223,
                                             0xb00361a3, 0x96177a9c, 0xb410ff61, 0xf20015ad};
  EXPECT_EQ(h, want);
}

TEST(Gauge, ScaleBringsTheMeanReadingToTheReference) {
  EXPECT_DOUBLE_EQ(host_scale(kReferenceGaugeNs, kReferenceGaugeNs), 1.0);
  EXPECT_DOUBLE_EQ(host_scale(400.0, 500.0), kReferenceGaugeNs / 450.0);
  EXPECT_DOUBLE_EQ(host_scale(0.0, 0.0), 1.0);  // no reading: leave the time as is
  HostGauge gauge;
  const double ns = gauge.sample();
  EXPECT_GT(ns, 0.0);
  ASSERT_EQ(gauge.samples().size(), 1u);
  EXPECT_EQ(gauge.samples()[0], ns);
}

}  // namespace
}  // namespace perfbench
