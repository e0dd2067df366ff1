// service_mix: open-loop TCP load against an in-process DecodeService.
//
// Requests are noisy frames of four codes, sent round-robin on a fixed
// schedule over one request connection: the calling thread sends, a
// receiver thread reads and matches responses by request id. Latency runs
// from each request's due time (not its actual send time), so a stalled
// generator shows as latency, and how late the sender ran is reported on
// its own. Phases:
//
//   fixed   kFixedRate req/s for 35% of the run, with a second connection
//           polling `stats` at 10 Hz (the monitoring load a deployment
//           carries). Gives p50 / p99 and the engine-side telemetry.
//   ladder  rising rates, poller off; each step drains before the next.
//           The highest rate whose p99 meets kLatencyLimitMs with no
//           backlog left at the step's end is service.max_rate_rps.
//
// Every response is checked against the scalar reference decode of its
// frame (hard bits, iterations, status); every request id must resolve
// exactly once, with a decode, never an error frame.
#include <algorithm>
#include <atomic>
#include <cstring>
#include <memory>
#include <thread>

#include "codes/wifi.hpp"
#include "codes/wimax.hpp"
#include "service/client.hpp"
#include "service/service.hpp"
#include "traced_decoder.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace svc = ldpc::service;

const std::vector<ServiceCode>& service_codes() {
  constexpr auto kWimax = static_cast<std::uint8_t>(svc::CodeStandard::kWimax);
  constexpr auto kWifi = static_cast<std::uint8_t>(svc::CodeStandard::kWifi);
  static const std::vector<ServiceCode> codes = {
      {"wimax24", {kWimax, 0, 24},
       [] { return ldpc::make_wimax_code(ldpc::WimaxRate::kRate1_2, 24); }},
      {"wifi27", {kWifi, 0, 27}, ldpc::make_wifi_648_half_rate},
      {"wifi81", {kWifi, 0, 81}, ldpc::make_wifi_1944_half_rate},
      {"wimax96", {kWimax, 0, 96}, ldpc::make_wimax_2304_half_rate},
  };
  return codes;
}

ZlaneProbe probe_zlane(
    const std::vector<const std::vector<std::vector<float>>*>& frames_per_code,
    SpanLog* spans, Report& report) {
  ZlaneProbe out;
  for (std::size_t c = 0; c < service_codes().size(); ++c) {
    const ServiceCode& sc = service_codes()[c];
    const ldpc::QCLdpcCode code = sc.make();
    DecoderProbe probe("layered-minsum-simd", code, spans);
    const auto decoder = probe.factory()();
    std::vector<double> us;
    for (const auto& frame : *frames_per_code[c]) {
      const std::int64_t t0 = now_ns();
      const ldpc::DecodeResult r = decoder->decode(frame);
      us.push_back(static_cast<double>(now_ns() - t0) / 1e3);
      out.busy_s += us.back() / 1e6;
      out.iterations += r.iterations;
      if (r.simd_fallback != ldpc::SimdFallback::kNone) ++out.fallbacks;
    }
    report.add(std::string("core.zlane_decode_us.") + sc.label, median(us),
               "us");
    const auto ms = probe.build_ms();
    out.build_ms.insert(out.build_ms.end(), ms.begin(), ms.end());
  }
  return out;
}

namespace {

constexpr unsigned kEngineWorkers = 2;
/// Distinct frames per code sent as requests.
constexpr std::size_t kFramesPerCode = 4096;
/// Frames per code more, decoded once on the scalar reference for the
/// quality metrics only: fer over the pool alone varied 8% between seeds.
constexpr std::size_t kQualityFramesPerCode = 4096;
/// Frames per code the traced run decodes directly on the z-lane decoder.
constexpr std::size_t kZlaneProbeFrames = 256;
/// About two thirds of the knee while the host is slow (21000 to 25000
/// req/s; about 40000 when it is fast). Closer to the knee, p50 swings
/// with every change of host speed.
constexpr double kFixedRate = 14000.0;
constexpr double kFixedShare = 0.35;  ///< of --seconds
/// service.p99_ms is the median of the p99s of this many consecutive
/// windows of the fixed phase, so that one host stall does not set it.
constexpr std::size_t kP99Windows = 8;
/// Slices of the traced run's fixed phase (even: untraced, odd: traced).
constexpr std::size_t kTracedSlices = 8;
constexpr double kLadderStart = 18000.0;
constexpr double kLadderStep = 2000.0;
/// Misses in a row that end the ladder: below the knee a step misses only
/// on a host stall; past it every step misses.
constexpr std::size_t kLadderMissesToStop = 3;
constexpr double kLadderMax = 80000.0;
constexpr double kLadderStepSeconds = 0.3;
/// p99 limit of a ladder step. Below the knee, p99 sits at 0.5-5 ms (event
/// loop and scheduling stalls); past it the backlog grows and p99 jumps
/// past 15 ms within one step.
constexpr double kLatencyLimitMs = 10.0;
/// A ladder step stops sending once this many requests are unanswered.
constexpr std::size_t kLadderBacklogAbort = 4096;
constexpr std::size_t kSetupReps = 11;
constexpr auto kPollInterval = std::chrono::milliseconds(100);
constexpr auto kDrainTimeout = std::chrono::seconds(20);
/// Byte offset of request_id in an encoded kDecodeRequest frame: the u32
/// length prefix, then the payload header (magic, version, type).
constexpr std::size_t kRequestIdOffset = 4 + svc::kPayloadHeaderBytes;

/// Seeded frames of one code as the encoded requests they become
/// (request_id patched in per send), with their scalar reference results.
/// Only the wire copy of the LLRs is kept, plus a few frames as floats.
struct CodePool {
  const ServiceCode* code = nullptr;
  std::size_t k = 0;
  std::vector<std::vector<std::uint8_t>> wire;
  std::vector<ldpc::DecodeResult> reference;
  std::vector<std::vector<std::uint8_t>> expected_bits;  ///< pack_bits
  std::vector<std::vector<float>> probe_llr;  ///< first kZlaneProbeFrames
  /// Reference-side quality over the pool and kQualityFramesPerCode more.
  std::size_t quality_frames = 0;
  std::size_t frame_errors = 0;  ///< reference output != codeword
  std::size_t iterations = 0;
  std::size_t converged = 0;

  void tally(const ldpc::DecodeResult& r, const ldpc::BitVec& sent) {
    ++quality_frames;
    if (!(r.hard_bits == sent)) ++frame_errors;
    iterations += r.iterations;
    if (r.converged) ++converged;
  }
};

std::vector<CodePool> make_pools(std::uint64_t seed, bool corrupt_expected) {
  std::vector<CodePool> pools;
  for (std::size_t c = 0; c < service_codes().size(); ++c) {
    CodePool pool;
    pool.code = &service_codes()[c];
    const ldpc::QCLdpcCode code = pool.code->make();
    pool.k = code.k();
    Frames frames =
        make_frames(code, kServiceEbN0, kFramesPerCode, seed * 8 + c);
    std::vector<const std::vector<float>*> views;
    for (const auto& f : frames.llr) views.push_back(&f);
    pool.reference = reference_decode("layered-minsum-fixed", code, views);
    for (std::size_t f = 0; f < kFramesPerCode; ++f) {
      pool.expected_bits.push_back(svc::pack_bits(pool.reference[f].hard_bits));
      pool.tally(pool.reference[f], frames.codeword[f]);
      svc::DecodeRequest request;
      request.codec = pool.code->ref;
      if (f < kZlaneProbeFrames) pool.probe_llr.push_back(frames.llr[f]);
      request.llr = std::move(frames.llr[f]);
      pool.wire.push_back(svc::encode_decode_request(request));
    }
    const Frames more = make_frames(code, kServiceEbN0, kQualityFramesPerCode,
                                    seed * 8 + c, kFramesPerCode);
    views.clear();
    for (const auto& f : more.llr) views.push_back(&f);
    const auto more_reference =
        reference_decode("layered-minsum-fixed", code, views);
    for (std::size_t f = 0; f < kQualityFramesPerCode; ++f)
      pool.tally(more_reference[f], more.codeword[f]);
    pools.push_back(std::move(pool));
  }
  if (corrupt_expected) pools[0].expected_bits[0][0] ^= 1;
  return pools;
}

/// One request slot. The sender fills due/send before the request goes on
/// the wire; the receiver fills the rest. Both threads are joined (or the
/// counters below are read) before anyone else looks at a slot.
struct Slot {
  std::int64_t due_ns = 0;
  std::int64_t send_ns = 0;
  std::int64_t recv_ns = 0;
  std::uint32_t answers = 0;
  bool ok = false;  ///< decoded, and equal to the reference
};

/// Request id = slot index + 1 (0 is the "unattributed" error id).
class LoadGenerator {
 public:
  LoadGenerator(std::uint16_t port, std::vector<CodePool>& pools,
                std::size_t capacity, Checks& checks)
      : pools_(pools), slots_(capacity), checks_(checks) {
    request_client_.connect("127.0.0.1", port);
    receiver_ = std::thread([this] { receive_loop(); });
  }
  ~LoadGenerator() {
    stop_.store(true);
    if (receiver_.joinable()) receiver_.join();
  }
  LoadGenerator(const LoadGenerator&) = delete;
  LoadGenerator& operator=(const LoadGenerator&) = delete;

  std::size_t sent() const { return sent_.load(); }
  std::size_t received() const { return received_.load(); }

  /// Round-robin code, then frame, for request slot `i`.
  const CodePool& pool_of(std::size_t i) const {
    return pools_[i % pools_.size()];
  }
  std::size_t frame_of(std::size_t i) const {
    return (i / pools_.size()) % kFramesPerCode;
  }

  /// Send at `rate` for `seconds` on an absolute schedule. Returns the slot
  /// range [first, last). Stops early (returning `aborted`) once the
  /// backlog passes `backlog_abort`.
  struct PhaseResult {
    std::size_t first = 0;
    std::size_t last = 0;
    std::size_t backlog_end = 0;
    double send_seconds = 0.0;
    bool aborted = false;
  };
  PhaseResult send_phase(double rate, double seconds,
                         std::size_t backlog_abort, SpanLog* spans) {
    PhaseResult r;
    r.first = sent();
    const auto count = static_cast<std::size_t>(rate * seconds);
    const std::int64_t start = now_ns();
    const double period_ns = 1e9 / rate;
    std::size_t i = r.first;
    for (std::size_t n = 0; n < count && i < slots_.size(); ++n, ++i) {
      const auto due = start + static_cast<std::int64_t>(
                                   static_cast<double>(n) * period_ns);
      const std::int64_t now = now_ns();
      if (due > now)
        std::this_thread::sleep_for(std::chrono::nanoseconds(due - now));
      if (backlog_abort && sent() - received() > backlog_abort) {
        r.aborted = true;
        break;
      }
      Slot& slot = slots_[i];
      slot.due_ns = due;
      auto& bytes = pools_[i % pools_.size()].wire[frame_of(i)];
      const std::uint64_t id = i + 1;
      std::memcpy(bytes.data() + kRequestIdOffset, &id, sizeof id);
      slot.send_ns = now_ns();
      const bool ok = request_client_.send_raw(bytes);
      if (!ok) checks_.expect(false, "request connection accepts the send");
      if (spans)
        spans->record({.name = "gen.send",
                       .start_ns = slot.send_ns,
                       .end_ns = now_ns(),
                       .request_id = id,
                       .frames = 1,
                       .thread = thread_index()});
      sent_.store(i + 1);
      if (!ok) break;
    }
    r.last = i;
    r.backlog_end = sent() - received();
    r.send_seconds = static_cast<double>(now_ns() - start) / 1e9;
    return r;
  }

  /// Wait until every sent request has been answered.
  bool drain() {
    const auto give_up = Clock::now() + kDrainTimeout;
    while (received() < sent() && Clock::now() < give_up)
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    return received() == sent();
  }

  /// Stop the receiver; slots may be read afterwards.
  void finish() {
    stop_.store(true);
    if (receiver_.joinable()) receiver_.join();
  }

  const Slot& slot(std::size_t i) const { return slots_[i]; }

  /// Record each answered request of [first, last) as a span.
  void record_spans(std::size_t first, std::size_t last, SpanLog& spans) const {
    for (std::size_t i = first; i < last; ++i) {
      const Slot& s = slots_[i];
      if (s.answers == 0) continue;
      spans.record({.name = "client.request",
                    .start_ns = s.due_ns,
                    .end_ns = s.recv_ns,
                    .request_id = i + 1,
                    .frames = 1,
                    .thread = 0});
    }
  }

 private:
  void receive_loop() {
    for (;;) {
      if (stop_.load() && received() >= sent()) return;
      auto frame = request_client_.read_frame(std::chrono::milliseconds(20));
      if (!frame) {
        if (stop_.load()) return;
        continue;
      }
      const std::int64_t t = now_ns();
      std::uint64_t id = 0;
      bool ok = false;
      if (frame->type == svc::FrameType::kDecodeResponse) {
        svc::DecodeResponse response;
        const bool parsed = svc::parse_decode_response(frame->body, &response) ==
                            svc::WireErrorCode::kNone;
        id = response.request_id;
        if (parsed && id >= 1 && id <= slots_.size()) {
          const std::size_t i = id - 1;
          const CodePool& pool = pool_of(i);
          const std::size_t f = frame_of(i);
          const auto& ref = pool.reference[f];
          ok = response.packed_bits == pool.expected_bits[f] &&
               response.iterations == ref.iterations &&
               response.status == static_cast<std::uint8_t>(ref.status);
          if (!ok)
            checks_.expect(false, "response " + std::to_string(id) +
                                      " equals the scalar reference of its "
                                      "frame");
        }
      } else if (frame->type == svc::FrameType::kError) {
        svc::ErrorResponse error;
        (void)svc::parse_error_response(frame->body, &error);
        id = error.request_id;
        checks_.expect(false, "request " + std::to_string(id) +
                                  " answered with error " +
                                  svc::to_string(error.code));
      }
      if (id < 1 || id > slots_.size()) {
        checks_.expect(false, "response carries a known request id");
        continue;
      }
      Slot& slot = slots_[id - 1];
      slot.recv_ns = t;
      slot.ok = ok;
      if (++slot.answers != 1)
        checks_.expect(false, "request " + std::to_string(id) +
                                  " answered more than once");
      else
        received_.fetch_add(1);
    }
  }

  std::vector<CodePool>& pools_;
  std::vector<Slot> slots_;
  Checks& checks_;
  svc::BlockingClient request_client_;
  std::atomic<std::size_t> sent_{0};
  std::atomic<std::size_t> received_{0};
  std::atomic<bool> stop_{false};
  std::thread receiver_;
};

/// The monitoring connection: a `stats` round trip every kPollInterval.
class StatsPoller {
 public:
  StatsPoller(std::uint16_t port, SpanLog* spans, Checks& checks)
      : spans_(spans), checks_(checks) {
    client_.connect("127.0.0.1", port);
    thread_ = std::thread([this] { loop(); });
  }
  ~StatsPoller() { stop(); }
  StatsPoller(const StatsPoller&) = delete;
  StatsPoller& operator=(const StatsPoller&) = delete;

  /// Stop polling; returns each poll's round trip in ms.
  std::vector<double> stop() {
    stop_.store(true);
    if (thread_.joinable()) thread_.join();
    return rtt_ms_;
  }

 private:
  void loop() {
    auto next = Clock::now();
    while (!stop_.load()) {
      const std::int64_t t0 = now_ns();
      const bool ok = client_.stats(std::chrono::seconds(5)).has_value();
      const std::int64_t t1 = now_ns();
      checks_.expect(ok, "stats poll answered");
      rtt_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
      if (spans_)
        spans_->record({.name = "monitor.stats",
                        .start_ns = t0,
                        .end_ns = t1,
                        .thread = thread_index()});
      next += kPollInterval;
      while (!stop_.load() && Clock::now() < next)
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
  }

  SpanLog* spans_;
  Checks& checks_;
  svc::BlockingClient client_;
  std::vector<double> rtt_ms_;
  std::atomic<bool> stop_{false};
  std::thread thread_;
};

svc::ServiceConfig service_config() {
  svc::ServiceConfig config;
  config.decoder_name = "layered-minsum-simd";
  config.engine.num_workers = kEngineWorkers;
  // Admission and queue limits sit far above the offered load: the
  // workload measures the decode path, and a refusal would be a failure.
  config.engine.queue_capacity = 1 << 16;
  config.default_tenant.max_in_flight = 1 << 16;
  config.default_tenant.max_parked = 1 << 16;
  return config;
}

/// Start a service and get one decode answered per code.
std::unique_ptr<svc::DecodeService> set_up(const std::vector<CodePool>& pools,
                                           Checks& checks) {
  auto service = std::make_unique<svc::DecodeService>(service_config());
  service->start();
  svc::BlockingClient client;
  client.connect("127.0.0.1", service->port());
  for (const CodePool& pool : pools) {
    svc::DecodeRequest request;
    request.request_id = 1;
    request.codec = pool.code->ref;
    request.llr = pool.probe_llr[0];
    const auto outcome = client.decode(request, std::chrono::seconds(30));
    checks.expect(outcome && !outcome->is_error &&
                      outcome->response.packed_bits == pool.expected_bits[0],
                  std::string("set-up request on ") + pool.code->label +
                      " decodes to the reference");
  }
  return service;
}

/// Requests of a step answered per second, from its first due time to its
/// last answer.
double answered_rate(const LoadGenerator& gen,
                     const LoadGenerator::PhaseResult& step) {
  if (step.last <= step.first) return 0.0;
  std::int64_t last_answer = 0;
  for (std::size_t i = step.first; i < step.last; ++i)
    last_answer = std::max(last_answer, gen.slot(i).recv_ns);
  const auto span_ns = last_answer - gen.slot(step.first).due_ns;
  return span_ns > 0 ? static_cast<double>(step.last - step.first) * 1e9 /
                           static_cast<double>(span_ns)
                     : 0.0;
}

std::vector<double> latencies_ms(const LoadGenerator& gen, std::size_t first,
                                 std::size_t last, bool from_send) {
  std::vector<double> out;
  for (std::size_t i = first; i < last; ++i) {
    const Slot& s = gen.slot(i);
    if (s.answers == 0) continue;
    out.push_back(static_cast<double>(s.recv_ns -
                                      (from_send ? s.send_ns : s.due_ns)) /
                  1e6);
  }
  return out;
}

}  // namespace

Outcome run_service_workload(const Args& args, Report& report,
                             Checks& checks) {
  const auto inputs_start = Clock::now();
  std::vector<CodePool> pools = make_pools(args.seed, args.corrupt_expected);
  report.note("inputs and references ready in " +
              std::to_string(seconds_between(inputs_start, Clock::now())) +
              " s");

  std::vector<double> setup_s;
  std::unique_ptr<svc::DecodeService> service;
  for (std::size_t rep = 0; rep < kSetupReps; ++rep) {
    if (service) (void)service->shutdown_after(std::chrono::seconds(5));
    service.reset();
    const auto t0 = Clock::now();
    service = set_up(pools, checks);
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }

  SpanLog spans(args.trace ? 1 << 18 : 0);
  SpanLog* trace = args.trace ? &spans : nullptr;
  const double fixed_seconds = args.seconds * kFixedShare;
  const auto run_start = Clock::now();
  const std::size_t capacity = static_cast<std::size_t>(
      kLadderMax * args.seconds + kFixedRate * fixed_seconds) + 1024;
  LoadGenerator gen(service->port(), pools, capacity, checks);

  // Fixed-rate phase, monitoring poll on. With tracing it runs as
  // alternating untraced / traced slices: the poll slows down as the
  // service accumulates latency samples, so halves would not compare.
  const std::size_t slices = args.trace ? kTracedSlices : 1;
  std::vector<LoadGenerator::PhaseResult> fixed;
  std::vector<double> poll_ms;
  const double fixed_cpu0 = process_cpu_seconds();
  {
    StatsPoller poller(service->port(), trace, checks);
    for (std::size_t i = 0; i < slices; ++i)
      fixed.push_back(gen.send_phase(kFixedRate, fixed_seconds / slices, 0,
                                     i % 2 ? trace : nullptr));
    checks.expect(gen.drain(), "every fixed-rate request is answered");
    poll_ms = poller.stop();
  }
  const double fixed_cpu_s = process_cpu_seconds() - fixed_cpu0;
  const svc::ServiceStats stats = service->stats();
  std::size_t engine_fallbacks = 0;
  for (const auto& w : stats.engine.workers) engine_fallbacks += w.simd_fallbacks;
  checks.expect(engine_fallbacks == 0, "no SIMD fallback in the service");

  // Rate ladder, poller off, until kLadderMissesToStop steps in a row miss
  // the limit or time is up.
  double max_rate = 0.0;  ///< answered req/s of the highest passing step
  std::size_t ladder_steps = 0;
  std::size_t misses_in_row = 0;
  std::vector<LoadGenerator::PhaseResult> passing;  ///< steps that met it
  for (double rate = kLadderStart; rate <= kLadderMax; rate += kLadderStep) {
    if (seconds_between(run_start, Clock::now()) + kLadderStepSeconds >
        args.seconds)
      break;
    const auto step =
        gen.send_phase(rate, kLadderStepSeconds, kLadderBacklogAbort, nullptr);
    checks.expect(gen.drain(), "every ladder request is answered");
    ++ladder_steps;
    const auto lat = latencies_ms(gen, step.first, step.last, false);
    const double p99 = percentile(lat, 0.99);
    const bool meets = !step.aborted && p99 <= kLatencyLimitMs &&
                       static_cast<double>(step.backlog_end) <=
                           rate * kLatencyLimitMs / 1e3;
    report.note("ladder " + std::to_string(static_cast<int>(rate)) +
                " req/s: p50 " + std::to_string(percentile(lat, 0.5)) +
                " ms, p99 " + std::to_string(p99) + " ms, backlog_end " +
                std::to_string(step.backlog_end) +
                (meets ? "" : " -> limit missed"));
    if (meets) {
      max_rate = answered_rate(gen, step);
      passing.push_back(step);
      misses_in_row = 0;
    } else if (++misses_in_row == kLadderMissesToStop) {
      break;
    }
  }
  gen.finish();

  // Exactly once, decoded, equal to the reference.
  Outcome outcome;
  outcome.attempted = gen.sent();
  for (std::size_t i = 0; i < gen.sent(); ++i) {
    const Slot& s = gen.slot(i);
    if (s.answers != 1 || !s.ok) ++outcome.failed;
  }
  checks.expect(outcome.failed == 0,
                std::to_string(outcome.failed) + " request(s) not resolved "
                "by a matching decode");

  const auto& last_fixed = fixed.back();
  const std::size_t fixed_first = fixed.front().first;
  const auto fixed_lat = latencies_ms(gen, fixed_first, last_fixed.last, false);
  report.note("fixed phase: " + std::to_string(fixed_lat.size()) +
              " requests at " + std::to_string(static_cast<int>(kFixedRate)) +
              " req/s, p50 " + std::to_string(percentile(fixed_lat, 0.5)) +
              " ms, p99 " + std::to_string(percentile(fixed_lat, 0.99)) +
              " ms; ladder: " + std::to_string(ladder_steps) +
              " step(s) of " + std::to_string(kLadderStepSeconds) +
              " s; latency limit p99 <= " + std::to_string(kLatencyLimitMs) +
              " ms; stats polls " + std::to_string(poll_ms.size()));

  // Reference-side quality over the pool and the quality-only frames
  // (deterministic per seed).
  std::size_t quality_frames = 0;
  std::size_t frame_errors = 0;
  std::size_t ref_iterations = 0;
  std::size_t ref_converged = 0;
  for (const CodePool& pool : pools) {
    quality_frames += pool.quality_frames;
    frame_errors += pool.frame_errors;
    ref_iterations += pool.iterations;
    ref_converged += pool.converged;
  }

  double info_bits = 0.0;
  double send_seconds = 0.0;
  for (const auto& phase : fixed) {
    for (std::size_t i = phase.first; i < phase.last; ++i)
      info_bits += static_cast<double>(gen.pool_of(i).k);
    send_seconds += phase.send_seconds;
  }
  if (!args.trace) {
    report.add("info_mbit_per_cpu_s", info_bits / fixed_cpu_s / 1e6,
               "Mbit/cpu-s");
    report.add("fer",
               static_cast<double>(frame_errors) /
                   static_cast<double>(quality_frames),
               "ratio");
    report.add("setup_s", median(setup_s), "s");
    return outcome;
  }

  // Per-layer numbers of the traced run.
  std::vector<const std::vector<std::vector<float>>*> zlane_frames;
  for (const CodePool& pool : pools) zlane_frames.push_back(&pool.probe_llr);
  const ZlaneProbe zlane = probe_zlane(zlane_frames, trace, report);
  checks.expect(zlane.fallbacks == 0, "no SIMD fallback in the z-lane probe");

  report.add("core.decode_busy_s", zlane.busy_s, "s");
  report.add("core.ns_per_frame_iter",
             zlane.busy_s * 1e9 /
                 static_cast<double>(std::max<std::size_t>(zlane.iterations, 1)),
             "ns");
  report.add("core.lane_fill", 1.0, "ratio");
  report.add("core.avg_iterations",
             static_cast<double>(ref_iterations) /
                 static_cast<double>(quality_frames),
             "iterations");
  report.add("core.converged_share",
             static_cast<double>(ref_converged) /
                 static_cast<double>(quality_frames),
             "ratio");
  report.add("core.simd_fallbacks",
             static_cast<double>(engine_fallbacks + zlane.fallbacks), "count");
  report.add("core.build_ms", median(zlane.build_ms), "ms");

  std::vector<double> untraced_lat;
  std::vector<double> traced_lat;
  for (std::size_t i = 0; i < fixed.size(); ++i) {
    const auto lat = latencies_ms(gen, fixed[i].first, fixed[i].last, false);
    auto& into = i % 2 ? traced_lat : untraced_lat;
    into.insert(into.end(), lat.begin(), lat.end());
  }
  const auto rtt = latencies_ms(gen, fixed_first, last_fixed.last, true);
  const double rtt_p50_us = percentile(rtt, 0.5) * 1e3;
  checks.expect(rtt_p50_us >= stats.engine.latency.p50_us,
                "client RTT p50 >= engine job latency p50");
  // The service's own latency and capacity are reported with the layers:
  // on a shared host they swing with its stalls and its speed by more than
  // any bound allows.
  report.add("service.p50_ms", percentile(fixed_lat, 0.50), "ms");
  std::vector<double> window_p99;
  const std::size_t window = (last_fixed.last - fixed_first) / kP99Windows;
  for (std::size_t w = 0; w < kP99Windows; ++w)
    window_p99.push_back(percentile(
        latencies_ms(gen, fixed_first + w * window,
                     fixed_first + (w + 1) * window, false),
        0.99));
  report.add("service.p99_ms", median(window_p99), "ms");
  report.add("service.max_rate_rps", max_rate, "1/s");
  report.add("runtime.job_latency_p50_us", stats.engine.latency.p50_us, "us");
  report.add("runtime.job_latency_p99_us", stats.engine.latency.p99_us, "us");
  report.add("runtime.queue_max_occupancy",
             static_cast<double>(stats.engine.queue_max_occupancy), "count");
  report.add("service.overhead_p50_us",
             rtt_p50_us - stats.engine.latency.p50_us, "us");
  report.add("service.stats_ms_p50", median(poll_ms), "ms");
  report.add("service.stats_ms_max",
             poll_ms.empty() ? 0.0
                             : *std::max_element(poll_ms.begin(), poll_ms.end()),
             "ms");
  report.add("service.read_throttle_events",
             static_cast<double>(stats.read_throttle_events), "count");
  report.add("service.refused.rate_limited",
             static_cast<double>(stats.jobs_rate_limited), "count");
  report.add("service.refused.quota",
             static_cast<double>(stats.jobs_quota_rejected), "count");
  report.add("service.refused.shed", static_cast<double>(stats.jobs_shed),
             "count");
  report.add("service.refused.deadline",
             static_cast<double>(stats.jobs_deadline_refused +
                                 stats.jobs_deadline_expired),
             "count");
  report.add("service.refused.engine_full",
             static_cast<double>(stats.jobs_engine_rejected), "count");
  report.add("service.codec_builds", static_cast<double>(stats.codec.misses),
             "count");
  // The generator's own health over the steps whose latencies count: the
  // fixed phase and the ladder steps that met the limit.
  std::vector<LoadGenerator::PhaseResult> counted = fixed;
  counted.insert(counted.end(), passing.begin(), passing.end());
  std::vector<double> late_us;
  std::size_t backlog_end = 0;
  for (const auto& phase : counted) {
    for (std::size_t i = phase.first; i < phase.last; ++i)
      late_us.push_back(
          static_cast<double>(gen.slot(i).send_ns - gen.slot(i).due_ns) / 1e3);
    backlog_end = std::max(backlog_end, phase.backlog_end);
  }
  report.add("gen.late_p99_us", percentile(late_us, 0.99), "us");
  report.add("gen.backlog_end", static_cast<double>(backlog_end), "count");
  report.add("trace.overhead_share",
             median(traced_lat) / median(untraced_lat) - 1.0, "ratio");
  report.add("info_mbps", info_bits / send_seconds / 1e6, "Mbit/s");

  gen.record_spans(fixed_first, last_fixed.last, spans);
  if (!args.trace_out.empty()) spans.write(args.trace_out);
  return outcome;
}

}  // namespace perfbench
