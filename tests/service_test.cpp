// End-to-end tests for the fault-tolerant decode service: real sockets on a
// loopback server, hostile clients, per-tenant admission, deadline
// propagation, and the drain lifecycle. The drain test is the PR's
// exactly-once contract: every accepted request resolves exactly once — a
// decode response, a typed refusal, or kDeadlineExpired — never silence.
//
// Runs in the ThreadSanitizer stage of scripts/check.sh: the event loop /
// worker / shutdown handshakes are the code under test.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <map>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "codes/encoder.hpp"
#include "codes/registry.hpp"
#include "codes/wimax.hpp"
#include "runtime/batch_engine.hpp"
#include "service/client.hpp"
#include "service/service.hpp"

namespace ldpc::service {
namespace {

using namespace std::chrono_literals;

constexpr std::uint8_t kWimaxStd =
    static_cast<std::uint8_t>(CodeStandard::kWimax);
constexpr std::uint8_t kRegistryStd =
    static_cast<std::uint8_t>(CodeStandard::kRegistry);
/// Registry entry 1: hamsternz-demo-32, n = 32 — decodes in microseconds,
/// ideal for load tests.
const CodecRef kTinyCodec{kRegistryStd, 1, 1};

/// Noiseless LLRs for the all-zero codeword of an n-bit code.
std::vector<float> zero_codeword_llrs(std::size_t n) {
  return std::vector<float>(n, 4.0F);
}

DecodeRequest make_request(std::uint64_t id, std::uint32_t tenant,
                           const CodecRef& codec, std::vector<float> llr,
                           std::uint32_t deadline_us = 0) {
  DecodeRequest request;
  request.request_id = id;
  request.tenant_id = tenant;
  request.codec = codec;
  request.deadline_us = deadline_us;
  request.llr = std::move(llr);
  return request;
}

ServiceConfig base_config(unsigned workers = 2) {
  ServiceConfig config;
  config.engine.num_workers = workers;
  config.engine.queue_capacity = 256;
  return config;
}

/// The engine metrics once every engine job has been booked. A task posts
/// its response before the engine books it, so a client that just read a
/// response may still be ahead of the engine's counters.
EngineMetrics settled_engine_metrics(const DecodeService& service) {
  const auto give_up = std::chrono::steady_clock::now() + 5s;
  EngineMetrics m = service.stats().engine;
  while (m.jobs_completed != m.jobs_submitted &&
         std::chrono::steady_clock::now() < give_up) {
    std::this_thread::sleep_for(1ms);
    m = service.stats().engine;
  }
  return m;
}

// ---------------------------------------------------------------------------
// Engine snapshot (the tear-free metrics satellite).

TEST(EngineSnapshot, ConsistentUnderConcurrentLoad) {
  BatchEngineConfig config;
  config.num_workers = 4;
  config.queue_capacity = 64;
  const QCLdpcCode code = make_wimax_code(all_wimax_rates()[0], 24);
  BatchEngine engine([&] { return make_decoder("layered-minsum-fixed", code,
                                               DecoderOptions{}); },
                     config);

  std::atomic<bool> stop{false};
  std::thread poller([&] {
    // Hammer snapshot() while jobs complete; every snapshot must be
    // internally consistent — completed <= submitted and the latency
    // sample count never exceeds the jobs that could have produced one.
    while (!stop.load()) {
      const EngineMetrics m = engine.snapshot();
      ASSERT_LE(m.jobs_completed, m.jobs_submitted);
      ASSERT_LE(m.latency.samples, m.jobs_completed);
      ASSERT_LE(m.queue_max_occupancy, m.queue_capacity);
      if (m.latency.samples > 0) {
        ASSERT_LE(m.latency.p50_us, m.latency.p95_us);
        ASSERT_LE(m.latency.p95_us, m.latency.p99_us);
        ASSERT_LE(m.latency.p99_us, m.latency.max_us);
      }
    }
  });

  const std::vector<float> llr = zero_codeword_llrs(code.n());
  std::vector<DecodeResult> results(400);
  for (std::size_t i = 0; i < results.size(); ++i)
    ASSERT_TRUE(submit_accepted(engine.submit(i, llr, &results[i])));
  engine.drain();
  stop.store(true);
  poller.join();

  const EngineMetrics m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, 400U);
  EXPECT_EQ(m.latency.samples, 400U);
}

TEST(EngineSnapshot, LatencyReservoirCapBoundsMemory) {
  BatchEngineConfig config;
  config.num_workers = 2;
  config.latency_sample_cap = 16;
  const QCLdpcCode& code = external_code("hamsternz-demo-32");
  BatchEngine engine([&] { return make_decoder("layered-minsum-fixed", code,
                                               DecoderOptions{}); },
                     config);
  const std::vector<float> llr = zero_codeword_llrs(code.n());
  std::vector<DecodeResult> results(300);
  for (std::size_t i = 0; i < results.size(); ++i)
    ASSERT_TRUE(submit_accepted(engine.submit(i, llr, &results[i])));
  engine.drain();
  const EngineMetrics m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, 300U);
  // The reservoir holds exactly the cap; the summary stays a valid
  // order-statistics estimate over it.
  EXPECT_EQ(m.latency.samples, 16U);
  EXPECT_GT(m.latency.max_us, 0.0);
  EXPECT_LE(m.latency.p50_us, m.latency.max_us);
}

// ---------------------------------------------------------------------------
// Basic request/response.

TEST(ServiceTest, PingStatsAndDecodeRoundTrip) {
  DecodeService service(base_config());
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  EXPECT_EQ(client.ping(0xC0FFEE, 2000ms), 0xC0FFEEULL);
  const auto stats_json = client.stats(2000ms);
  ASSERT_TRUE(stats_json.has_value());
  EXPECT_NE(stats_json->find("\"tenants\""), std::string::npos);

  // A real codeword through a real 802.16e code, bit-for-bit.
  const QCLdpcCode code = make_wimax_code(all_wimax_rates()[0], 24);
  const DenseEncoder encoder(code);
  BitVec info(code.k());
  for (std::size_t i = 0; i < info.size(); i += 2) info.set(i, true);
  const BitVec codeword = encoder.encode(info);
  std::vector<float> llr(code.n());
  for (std::size_t i = 0; i < llr.size(); ++i)
    llr[i] = codeword.get(i) ? -4.0F : 4.0F;

  const CodecRef wimax{kWimaxStd, 0, 24};
  const auto outcome =
      client.decode(make_request(1, 0, wimax, llr), 5000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_FALSE(outcome->is_error) << to_string(outcome->error.code);
  EXPECT_EQ(outcome->response.status,
            static_cast<std::uint8_t>(DecodeStatus::kConverged));
  ASSERT_EQ(outcome->response.bit_count, code.n());
  const BitVec bits =
      unpack_bits(outcome->response.packed_bits, outcome->response.bit_count);
  for (std::size_t i = 0; i < code.n(); ++i)
    ASSERT_EQ(bits.get(i), codeword.get(i)) << "bit " << i;

  // The engine books the codec decoder that ran: its code and info bits.
  const EngineMetrics engine = settled_engine_metrics(service);
  EXPECT_EQ(engine.jobs_completed, 1u);
  EXPECT_EQ(engine.decoded_bits, code.n());
  EXPECT_EQ(engine.decoded_info_bits, code.k());

  const ShutdownReport report = service.shutdown_after(2s);
  EXPECT_TRUE(report.drained_clean);
}

TEST(ServiceTest, TaskExpiredInQueueBooksNoDecode) {
  // One worker, held up while it builds its first codec decoder: the second
  // request's deadline passes while its task waits in the engine queue, so
  // the task resolves kDeadlineExpired without decoding. The engine must
  // book no decoded bits for it — not the bits of the decode before it.
  ServiceConfig config = base_config(/*workers=*/1);
  config.decoder_options_hook = [](DecoderOptions&) {
    std::this_thread::sleep_for(200ms);
  };
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  const QCLdpcCode code = make_wimax_code(all_wimax_rates()[0], 24);
  const CodecRef wimax{kWimaxStd, 0, 24};
  ASSERT_TRUE(client.send_raw(encode_decode_request(
      make_request(1, 0, wimax, zero_codeword_llrs(code.n())))));
  ASSERT_TRUE(client.send_raw(encode_decode_request(make_request(
      2, 0, wimax, zero_codeword_llrs(code.n()), /*deadline_us=*/20000))));
  std::map<std::uint64_t, DecodeStatus> statuses;
  for (int seen = 0; seen < 2; ++seen) {
    const auto frame = client.read_frame(5000ms);
    ASSERT_TRUE(frame.has_value()) << "request starved after " << seen;
    ASSERT_EQ(frame->type, FrameType::kDecodeResponse);
    DecodeResponse response;
    ASSERT_EQ(parse_decode_response(frame->body, &response),
              WireErrorCode::kNone);
    statuses[response.request_id] =
        static_cast<DecodeStatus>(response.status);
  }
  EXPECT_EQ(statuses[1], DecodeStatus::kConverged);
  EXPECT_EQ(statuses[2], DecodeStatus::kDeadlineExpired);

  const EngineMetrics engine = settled_engine_metrics(service);
  EXPECT_EQ(engine.jobs_completed, 2u);
  EXPECT_EQ(engine.status_total(DecodeStatus::kDeadlineExpired), 1u);
  EXPECT_EQ(engine.decoded_bits, code.n());
  EXPECT_EQ(engine.decoded_info_bits, code.k());
  service.shutdown_after(2s);
}

TEST(ServiceTest, TypedErrorsKeepTheConnectionUsable) {
  DecodeService service(base_config());
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // Unknown codec.
  auto outcome = client.decode(
      make_request(1, 0, CodecRef{9, 9, 999}, zero_codeword_llrs(8)), 2000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_error);
  EXPECT_EQ(outcome->error.code, WireErrorCode::kUnknownCodec);

  // Right codec, wrong LLR count.
  outcome = client.decode(
      make_request(2, 0, kTinyCodec, zero_codeword_llrs(31)), 2000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_error);
  EXPECT_EQ(outcome->error.code, WireErrorCode::kLlrCountMismatch);

  // A well-framed frame whose type the server does not accept.
  DecodeResponse bogus;
  bogus.request_id = 3;
  ASSERT_TRUE(client.send_raw(encode_decode_response(bogus)));
  auto frame = client.read_frame(2000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kError);
  ErrorResponse error;
  ASSERT_EQ(parse_error_response(frame->body, &error), WireErrorCode::kNone);
  EXPECT_EQ(error.code, WireErrorCode::kBadType);

  // A truncated body inside a valid frame.
  std::vector<std::uint8_t> truncated = {0, 0, 0, 0, 'L', 'D', 1,
                                         static_cast<std::uint8_t>(
                                             FrameType::kDecodeRequest),
                                         1, 2, 3};
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(truncated.size() - 4);
  std::memcpy(truncated.data(), &payload_len, sizeof(payload_len));
  ASSERT_TRUE(client.send_raw(truncated));
  frame = client.read_frame(2000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kError);
  ASSERT_EQ(parse_error_response(frame->body, &error), WireErrorCode::kNone);
  EXPECT_EQ(error.code, WireErrorCode::kTruncatedBody);

  // After all that abuse the connection still decodes.
  outcome = client.decode(
      make_request(4, 0, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->is_error);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.malformed_frames, 2U);
  EXPECT_EQ(stats.connections_fatal_framing, 0U);
  service.shutdown_after(2s);
}

TEST(ServiceTest, FatalFramingGetsOneGoodbyeThenClose) {
  DecodeService service(base_config());
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // Valid length prefix, garbage magic: unrecoverable.
  std::vector<std::uint8_t> garbage = {16, 0, 0, 0, 'X', 'X', 1, 1,
                                       0,  0, 0, 0, 0,   0,  0, 0,
                                       0,  0, 0, 0};
  ASSERT_TRUE(client.send_raw(garbage));
  const auto frame = client.read_frame(2000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kError);
  ErrorResponse error;
  ASSERT_EQ(parse_error_response(frame->body, &error), WireErrorCode::kNone);
  EXPECT_EQ(error.code, WireErrorCode::kBadMagic);
  // Then EOF — the server cannot resynchronize the stream.
  EXPECT_FALSE(client.read_frame(2000ms).has_value());

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.connections_fatal_framing, 1U);
  service.shutdown_after(2s);
}

TEST(ServiceTest, MidRequestDisconnectsDoNotWedgeTheServer) {
  DecodeService service(base_config());
  service.start();

  {
    // Half a frame, then gone.
    BlockingClient client;
    client.connect("127.0.0.1", service.port());
    const auto bytes = encode_decode_request(
        make_request(1, 0, kTinyCodec, zero_codeword_llrs(32)));
    client.send_raw(std::span<const std::uint8_t>(bytes.data(),
                                                  bytes.size() / 2));
  }
  {
    // A full request, disconnect before the response.
    BlockingClient client;
    client.connect("127.0.0.1", service.port());
    client.send_raw(encode_decode_request(
        make_request(2, 0, kTinyCodec, zero_codeword_llrs(32))));
  }

  // The server keeps serving.
  BlockingClient client;
  client.connect("127.0.0.1", service.port());
  const auto outcome = client.decode(
      make_request(3, 0, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(outcome.has_value());
  EXPECT_FALSE(outcome->is_error);

  const ShutdownReport report = service.shutdown_after(2s);
  EXPECT_TRUE(report.drained_clean);
  const ServiceStats stats = service.stats();
  // Every job the dead clients got in resolved anyway (exactly-once), the
  // responses just had nowhere to go.
  EXPECT_EQ(stats.jobs_completed + stats.jobs_deadline_expired >=
                stats.jobs_admitted,
            true);
}

// ---------------------------------------------------------------------------
// Admission control.

TEST(ServiceTest, RateLimitRefusesTyped) {
  ServiceConfig config = base_config();
  TenantConfig limited;
  limited.rate_per_sec = 0.001;  // effectively no refill during the test
  limited.burst = 2.0;
  config.tenants[5] = limited;
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  for (std::uint64_t id = 1; id <= 2; ++id) {
    const auto outcome = client.decode(
        make_request(id, 5, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
    ASSERT_TRUE(outcome.has_value());
    EXPECT_FALSE(outcome->is_error) << "request " << id;
  }
  const auto refused = client.decode(
      make_request(3, 5, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(refused.has_value());
  ASSERT_TRUE(refused->is_error);
  EXPECT_EQ(refused->error.code, WireErrorCode::kRateLimited);

  // Other tenants are untouched by tenant 5's bucket.
  const auto other = client.decode(
      make_request(4, 6, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(other.has_value());
  EXPECT_FALSE(other->is_error);
  service.shutdown_after(2s);
}

TEST(ServiceTest, QuotaPoliciesRejectParkAndShed) {
  ServiceConfig config = base_config();
  TenantConfig reject;  // kRejectNewest with zero capacity: always refuse
  reject.max_in_flight = 0;
  reject.policy = OverloadPolicy::kRejectNewest;
  config.tenants[1] = reject;
  TenantConfig park;  // kBlock with zero capacity: park until deadline
  park.max_in_flight = 0;
  park.policy = OverloadPolicy::kBlock;
  config.tenants[2] = park;
  TenantConfig shed;  // kShedOldest, wait line of 1: newest evicts oldest
  shed.max_in_flight = 0;
  shed.max_parked = 1;
  shed.policy = OverloadPolicy::kShedOldest;
  config.tenants[3] = shed;
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // kRejectNewest: immediate typed refusal.
  auto outcome = client.decode(
      make_request(1, 1, kTinyCodec, zero_codeword_llrs(32)), 5000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_TRUE(outcome->is_error);
  EXPECT_EQ(outcome->error.code, WireErrorCode::kQuotaExceeded);

  // kBlock: parks, then resolves kDeadlineExpired when its deadline passes
  // (deadline propagation reaches parked work too).
  outcome = client.decode(
      make_request(2, 2, kTinyCodec, zero_codeword_llrs(32),
                   /*deadline_us=*/60000),
      5000ms);
  ASSERT_TRUE(outcome.has_value());
  ASSERT_FALSE(outcome->is_error);
  EXPECT_EQ(outcome->response.status,
            static_cast<std::uint8_t>(DecodeStatus::kDeadlineExpired));

  // kShedOldest: the second request evicts the first (typed kShedOverload),
  // and only tenant 3's line is touched.
  ASSERT_TRUE(client.send_raw(encode_decode_request(
      make_request(3, 3, kTinyCodec, zero_codeword_llrs(32), 500000))));
  ASSERT_TRUE(client.send_raw(encode_decode_request(
      make_request(4, 3, kTinyCodec, zero_codeword_llrs(32), 500000))));
  const auto frame = client.read_frame(5000ms);
  ASSERT_TRUE(frame.has_value());
  ASSERT_EQ(frame->type, FrameType::kError);
  ErrorResponse error;
  ASSERT_EQ(parse_error_response(frame->body, &error), WireErrorCode::kNone);
  EXPECT_EQ(error.request_id, 3U);
  EXPECT_EQ(error.code, WireErrorCode::kShedOverload);

  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.jobs_shed, 1U);
  EXPECT_GE(stats.jobs_quota_rejected, 1U);
  service.shutdown_after(2s);
}

TEST(ServiceTest, DeadlineStormResolvesEveryRequestTyped) {
  DecodeService service(base_config());
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // A storm of 1 us deadlines: each request must resolve with *either* a
  // typed refusal at the door (kDeadlineUnmeetable) or a kDeadlineExpired
  // response — whichever side of the admission instant it lands on.
  constexpr int kStorm = 50;
  for (std::uint64_t id = 1; id <= kStorm; ++id)
    ASSERT_TRUE(client.send_raw(encode_decode_request(
        make_request(id, 0, kTinyCodec, zero_codeword_llrs(32), 1))));
  std::map<std::uint64_t, int> resolutions;
  for (int seen = 0; seen < kStorm; ++seen) {
    const auto frame = client.read_frame(5000ms);
    ASSERT_TRUE(frame.has_value()) << "request starved after " << seen;
    if (frame->type == FrameType::kError) {
      ErrorResponse error;
      ASSERT_EQ(parse_error_response(frame->body, &error),
                WireErrorCode::kNone);
      // Refused at the door — or, when the storm outruns the tenant's wait
      // line, refused for quota. Both are typed; silence is the bug.
      EXPECT_TRUE(error.code == WireErrorCode::kDeadlineUnmeetable ||
                  error.code == WireErrorCode::kQuotaExceeded)
          << to_string(error.code);
      ++resolutions[error.request_id];
    } else {
      ASSERT_EQ(frame->type, FrameType::kDecodeResponse);
      DecodeResponse response;
      ASSERT_EQ(parse_decode_response(frame->body, &response),
                WireErrorCode::kNone);
      ++resolutions[response.request_id];
    }
  }
  EXPECT_EQ(resolutions.size(), static_cast<std::size_t>(kStorm));
  for (const auto& [id, count] : resolutions)
    EXPECT_EQ(count, 1) << "request " << id << " resolved " << count
                        << " times";
  service.shutdown_after(2s);
}

TEST(ServiceTest, SlowClientIsEvictedNotBuffered) {
  ServiceConfig config = base_config();
  config.max_write_buffer = 2048;  // tiny: evict fast
  config.send_buffer_bytes = 4096;
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // Pings are cheap to send and make the server produce pongs the client
  // never reads; once kernel buffers and the 2 KiB cap fill, eviction.
  const auto ping_bytes = encode_ping(1);
  for (int batch = 0; batch < 100; ++batch) {
    bool dead = false;
    for (int i = 0; i < 1000 && !dead; ++i)
      dead = !client.send_raw(ping_bytes);
    if (dead || service.stats().connections_evicted_slow > 0) break;
  }
  // Depending on kernel buffering the send side may keep succeeding for a
  // while; the authoritative signal is the server's counter.
  for (int i = 0; i < 100; ++i) {
    if (service.stats().connections_evicted_slow > 0) break;
    std::this_thread::sleep_for(50ms);
  }
  EXPECT_GE(service.stats().connections_evicted_slow, 1U);
  service.shutdown_after(2s);
}

// ---------------------------------------------------------------------------
// Drain semantics: the exactly-once satellite.

TEST(ServiceTest, DrainUnderLoadResolvesEveryAcceptedJobExactlyOnce) {
  ServiceConfig config = base_config(/*workers=*/3);
  DecodeService service(config);
  service.start();
  const std::uint16_t port = service.port();

  constexpr int kClients = 4;
  constexpr int kPerClient = 120;
  std::atomic<int> resolved_total{0};
  std::atomic<int> duplicate_resolutions{0};
  std::atomic<int> silent_requests{0};

  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      BlockingClient client;
      client.connect("127.0.0.1", port);
      // Pipeline everything, mixing deadline-carrying and open-ended work
      // across two tenants.
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(c) * 1000 + 1 + i;
        const std::uint32_t deadline_us = (i % 3 == 0) ? 30000 : 0;
        client.send_raw(encode_decode_request(make_request(
            id, static_cast<std::uint32_t>(c % 2), kTinyCodec,
            zero_codeword_llrs(32), deadline_us)));
      }
      // Read until the server closes the drained connection.
      std::map<std::uint64_t, int> seen;
      for (;;) {
        const auto frame = client.read_frame(10000ms);
        if (!frame) break;  // EOF after drain (or timeout = test failure)
        std::uint64_t id = 0;
        if (frame->type == FrameType::kDecodeResponse) {
          DecodeResponse response;
          if (parse_decode_response(frame->body, &response) !=
              WireErrorCode::kNone)
            continue;
          id = response.request_id;
        } else if (frame->type == FrameType::kError) {
          ErrorResponse error;
          if (parse_error_response(frame->body, &error) !=
              WireErrorCode::kNone)
            continue;
          id = error.request_id;
        } else {
          continue;
        }
        if (++seen[id] > 1) duplicate_resolutions.fetch_add(1);
      }
      int resolved = 0;
      for (int i = 0; i < kPerClient; ++i) {
        const std::uint64_t id =
            static_cast<std::uint64_t>(c) * 1000 + 1 + i;
        const auto it = seen.find(id);
        if (it == seen.end())
          silent_requests.fetch_add(1);
        else
          resolved += it->second;
      }
      resolved_total.fetch_add(resolved);
    });
  }

  // Wait for every request to reach the server (a request still in a kernel
  // buffer when the drain finishes was never *accepted*, so exactly-once
  // would not apply to it), then pull the plug with work in flight.
  for (int i = 0; i < 400; ++i) {
    if (service.stats().requests_received >=
        static_cast<std::size_t>(kClients * kPerClient))
      break;
    std::this_thread::sleep_for(25ms);
  }
  const ShutdownReport report = service.shutdown_after(5s);
  for (std::thread& t : clients) t.join();

  // The drain contract: nothing resolved twice, nothing starved. Requests
  // refused while draining still count — a typed kDraining error *is* a
  // resolution.
  EXPECT_EQ(duplicate_resolutions.load(), 0);
  EXPECT_EQ(silent_requests.load(), 0);
  EXPECT_EQ(resolved_total.load(), kClients * kPerClient);
  EXPECT_EQ(report.stragglers, 0U);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.requests_received,
            static_cast<std::size_t>(kClients * kPerClient));
  EXPECT_EQ(stats.responses_sent + stats.errors_sent,
            static_cast<std::size_t>(kClients * kPerClient));
}

TEST(ServiceTest, ShutdownIsIdempotentAndBounded) {
  DecodeService service(base_config());
  service.start();
  const auto t0 = std::chrono::steady_clock::now();
  const ShutdownReport first = service.shutdown_after(500ms);
  const ShutdownReport second = service.shutdown_after(500ms);
  const auto elapsed = std::chrono::steady_clock::now() - t0;
  EXPECT_TRUE(first.drained_clean);
  EXPECT_EQ(first.drained_clean, second.drained_clean);
  // Bounded: no load, so shutdown must be far quicker than deadline+grace.
  EXPECT_LT(elapsed, 5s);
  // And the port is released: a new service can bind afresh.
  DecodeService again(base_config());
  again.start();
  EXPECT_GT(again.port(), 0);
  again.shutdown_after(500ms);
}

TEST(ServiceTest, RefusesNewWorkWhileDraining) {
  ServiceConfig config = base_config();
  TenantConfig park;  // parked forever: guarantees the drain deadline fires
  park.max_in_flight = 0;
  park.policy = OverloadPolicy::kBlock;
  config.tenants[9] = park;
  DecodeService service(config);
  service.start();
  BlockingClient client;
  client.connect("127.0.0.1", service.port());

  // Park a job with no deadline, then drain with a short deadline: the
  // flush must resolve it kDeadlineExpired rather than hang the shutdown.
  ASSERT_TRUE(client.send_raw(encode_decode_request(
      make_request(1, 9, kTinyCodec, zero_codeword_llrs(32)))));
  std::this_thread::sleep_for(100ms);  // let it park

  std::thread drainer([&] { service.shutdown_after(300ms); });
  const auto outcome = client.read_frame(5000ms);
  drainer.join();
  ASSERT_TRUE(outcome.has_value());
  ASSERT_EQ(outcome->type, FrameType::kDecodeResponse);
  DecodeResponse response;
  ASSERT_EQ(parse_decode_response(outcome->body, &response),
            WireErrorCode::kNone);
  EXPECT_EQ(response.status,
            static_cast<std::uint8_t>(DecodeStatus::kDeadlineExpired));
  const ServiceStats stats = service.stats();
  EXPECT_GE(stats.jobs_flushed_at_drain, 1U);
}

// ---------------------------------------------------------------------------
// Codec cache.

TEST(CodecCacheTest, SingleFlightConstructionUnderHerd) {
  CodecCache cache;
  const CodecRef ref{kWimaxStd, 0, 96};  // the big one: worth coalescing
  constexpr int kThreads = 8;
  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<CodecEntry>> entries(kThreads);
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      WireErrorCode error = WireErrorCode::kNone;
      entries[static_cast<std::size_t>(t)] = cache.resolve(ref, &error);
    });
  for (std::thread& t : threads) t.join();
  for (const auto& entry : entries) {
    ASSERT_NE(entry, nullptr);
    EXPECT_EQ(entry.get(), entries[0].get()) << "not coalesced";
  }
  const CodecCacheStats stats = cache.stats();
  EXPECT_EQ(stats.misses, 1U);  // exactly one build
  EXPECT_EQ(stats.hits + stats.coalesced_waits,
            static_cast<std::size_t>(kThreads - 1));

  // Unknown refs are typed refusals and do not poison anything.
  WireErrorCode error = WireErrorCode::kNone;
  EXPECT_EQ(cache.resolve({kWimaxStd, 0, 23}, &error), nullptr);
  EXPECT_EQ(error, WireErrorCode::kUnknownCodec);
  EXPECT_EQ(cache.resolve({kWimaxStd, 9, 24}, &error), nullptr);
  EXPECT_EQ(cache.resolve({3, 0, 1}, &error), nullptr);
}

TEST(CodecCacheTest, AllAdvertisedCodecsActuallyBuild) {
  CodecCache cache;
  for (const CodecRef& ref : CodecCache::all_known_codecs()) {
    WireErrorCode error = WireErrorCode::kNone;
    const auto entry = cache.resolve(ref, &error);
    ASSERT_NE(entry, nullptr) << to_string(ref);
    EXPECT_GT(entry->code().n(), 0U);
  }
}

}  // namespace
}  // namespace ldpc::service
