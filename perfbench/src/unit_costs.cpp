// Unit costs with fixed iteration counts: the micro_protocol bodies without
// google-benchmark's adaptive iteration counts, so every run times the same
// work. Each cost is the median of five batches.
#include <algorithm>
#include <array>
#include <chrono>
#include <cstdint>
#include <vector>

#include "brahms/auth.hpp"
#include "crypto/aes.hpp"
#include "crypto/hmac.hpp"
#include "crypto/key.hpp"
#include "crypto/sha256.hpp"
#include "net/frame.hpp"
#include "net/service.hpp"
#include "wire/link_cipher.hpp"
#include "wire/message.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using Clock = std::chrono::steady_clock;

// Folds results into a value the compiler cannot discard.
volatile std::uint64_t g_sink = 0;

/// Median over five batches of the nanoseconds one call of `op` takes.
template <typename Op>
double ns_per_op(std::size_t iterations, Op&& op) {
  std::array<double, 5> batches{};
  for (double& batch : batches) {
    const auto t0 = Clock::now();
    for (std::size_t i = 0; i < iterations; ++i) op(i);
    batch = std::chrono::duration<double, std::nano>(Clock::now() - t0).count() /
            static_cast<double>(iterations);
  }
  std::sort(batches.begin(), batches.end());
  return batches[2];
}

double mb_per_s(double ns_per_call, std::size_t bytes) {
  return static_cast<double>(bytes) / ns_per_call * 1e3;  // bytes/ns -> MB/s
}

/// A PullReply as the workloads send it: a 48-entry view (l1 = 48).
raptee::wire::PullReply pull_reply() {
  raptee::wire::PullReply reply;
  reply.sender = raptee::NodeId{7};
  for (std::uint32_t i = 0; i < 48; ++i) reply.view.emplace_back(i * 131 + 5);
  reply.auth.r_b.fill(0x5A);
  reply.auth.proof_b.fill(0xA5);
  return reply;
}

}  // namespace

std::vector<Metric> unit_costs() {
  using namespace raptee;
  std::vector<Metric> out;

  const std::vector<std::uint8_t> kib(1024, 0xAB);
  const double sha_ns = ns_per_op(2000, [&](std::size_t) {
    g_sink = g_sink + crypto::sha256(kib)[0];
  });
  out.push_back({"crypto.sha256_mb_s", mb_per_s(sha_ns, kib.size()), "MB/s"});

  const std::vector<std::uint8_t> key(32, 0x11);
  std::vector<std::uint8_t> msg73(73, 0x22);
  out.push_back({"crypto.hmac_73b_ns", ns_per_op(20000, [&](std::size_t i) {
                   msg73[0] = static_cast<std::uint8_t>(i);
                   g_sink = g_sink + crypto::hmac_sha256(key.data(), key.size(),
                                                         msg73.data(), msg73.size())[0];
                 }),
                 "ns"});

  crypto::Drbg drbg(9);
  std::array<std::uint8_t, 32> drbg_out{};
  out.push_back({"crypto.drbg_32b_ns", ns_per_op(20000, [&](std::size_t) {
                   drbg.fill(drbg_out.data(), drbg_out.size());
                   g_sink = g_sink + drbg_out[0];
                 }),
                 "ns"});

  const crypto::SymmetricKey aes_key = crypto::Drbg(1).generate_key();
  const crypto::Aes aes = crypto::Aes::aes256(aes_key.bytes());
  const auto counter = crypto::make_counter_block({});
  std::vector<std::uint8_t> block(1024, 0x55);
  const double aes_ns = ns_per_op(1000, [&](std::size_t) {
    crypto::AesCtr ctr(aes, counter);
    ctr.process(block);
    g_sink = g_sink + block[0];
  });
  out.push_back({"crypto.aes_ctr_mb_s", mb_per_s(aes_ns, block.size()), "MB/s"});

  crypto::AuthNonce a{};
  const crypto::AuthNonce b{};
  out.push_back({"brahms.mac_proof_ns", ns_per_op(20000, [&](std::size_t i) {
                   a[0] = static_cast<std::uint8_t>(i);
                   g_sink = g_sink +
                            brahms::auth_detail::mac_proof(aes_key, "pull", a, b)[0];
                 }),
                 "ns"});

  const wire::Message reply{pull_reply()};
  std::vector<std::uint8_t> leg;
  out.push_back({"wire.pull_reply_encode_ns", ns_per_op(20000, [&](std::size_t) {
                   wire::encode_into(reply, leg);
                   g_sink = g_sink + leg.size();
                 }),
                 "ns"});
  wire::Message decoded;
  out.push_back({"wire.pull_reply_decode_ns", ns_per_op(20000, [&](std::size_t) {
                   wire::decode_into(leg.data(), leg.size(), decoded);
                   g_sink = g_sink + decoded.index();
                 }),
                 "ns"});

  wire::LinkCipher tx(aes_key, 0);
  wire::LinkCipher rx(aes_key, 0);
  std::vector<std::uint8_t> frame;
  std::vector<std::uint8_t> opened;
  out.push_back({"wire.seal_open_us", ns_per_op(1000, [&](std::size_t) {
                   tx.seal_into(leg.data(), leg.size(), frame);
                   g_sink = g_sink + static_cast<std::uint64_t>(
                                         rx.open_into(frame.data(), frame.size(), opened));
                 }) / 1e3,
                 "us"});

  net::SampleReply sample_reply;
  sample_reply.tag = 1;
  sample_reply.round = 20;
  for (std::uint32_t i = 0; i < 8; ++i) sample_reply.samples.emplace_back(i + 1);
  out.push_back({"service.codec_ns", ns_per_op(20000, [&](std::size_t i) {
                   const auto req = net::encode_sample_request({i, 8});
                   const auto parsed = net::decode_sample_request(req.data(), req.size());
                   sample_reply.tag = parsed->tag;
                   const auto rep = net::encode_sample_reply(sample_reply);
                   const auto back = net::decode_sample_reply(rep.data(), rep.size());
                   g_sink = g_sink + back->tag;
                 }),
                 "ns"});

  const auto reply_bytes = net::encode_sample_reply(sample_reply);
  std::vector<std::uint8_t> stream;
  std::vector<std::uint8_t> payload;
  net::FrameSplitter splitter;
  out.push_back({"net.frame_ns", ns_per_op(50000, [&](std::size_t) {
                   stream.clear();
                   net::append_frame(stream, reply_bytes.data(), reply_bytes.size());
                   splitter.feed(stream.data(), stream.size());
                   g_sink = g_sink + static_cast<std::uint64_t>(splitter.next(payload));
                 }),
                 "ns"});
  return out;
}

}  // namespace perfbench
