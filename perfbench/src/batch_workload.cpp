// batch_q8 / batch_fa4: closed batches of WiMAX (2304, 1/2) z = 96 frames
// through BatchEngine::decode_batch on an inter-frame-batched decoder.
//
// Set-up (timed, repeated, median reported): build the code, construct
// the engine over a wrapping factory, run one warm-up batch and wait until
// every worker has built its decoder. The first set-up gives the measured
// system; the other repetitions are spread over the timed phase, between
// passes, so that setup_s samples the host over the whole run and not in
// one burst at its start. The timed phase decodes fixed passes of the
// seeded frame pool back to back. Each pass is one decode_batch call. Its
// information bits over the CPU time the process used during the call give
// info_mbit_per_cpu_s, median over passes; over its wall time, the
// wall-clock rate info_mbps (traced run only, no bound).
//
// The wall-clock rate is not an end-to-end metric: on a shared host the
// hypervisor takes 0-45% of the vCPUs' time (steal) from one minute to the
// next, and a worker that loses its vCPU while holding a pass's last block
// holds up the whole pass. In one 60-second batch_fa4 run the median pass
// rate went from 56 to 122 Mbit/s as steal fell from 44% to 0, while the
// rate per CPU-second, which leaves steal out, moved by 18%. The price:
// workers waiting for work use no CPU time, so engine idle shows only in
// runtime.idle_share, first_block_ms, tail_ms and info_mbps.
//
// Every pass's outputs are compared with the first decode of the same
// frames (outside the pass timing), and after the timed phase a fixed
// subset is decoded again on the scalar reference decoder and compared bit
// for bit, iteration count included.
#include <algorithm>
#include <map>
#include <memory>

#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "runtime/batch_engine.hpp"
#include "traced_decoder.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

struct BatchSpec {
  const char* decoder;
  const char* reference;  ///< scalar oracle of `decoder`
  float ebn0_db;
};

BatchSpec spec_for(const std::string& workload) {
  if (workload == "batch_q8")
    return {"layered-minsum-simd-batched", "layered-minsum-fixed", 2.0F};
  return {"layered-minsum-simd-batched-fa4", "layered-minsum-fa4", 3.0F};
}

constexpr unsigned kWorkers = 4;
constexpr std::size_t kPassFrames = 2048;
constexpr std::size_t kPoolPasses = 4;
/// Passes more of the same frame sequence, decoded once after the timed
/// phase for the quality metrics only: fer over the pool alone (about 270
/// frame errors on batch_fa4) varied 6-8% between seeds.
constexpr std::size_t kQualityPasses = 4;
constexpr std::size_t kSetupReps = 11;
constexpr std::size_t kWarmBlocksPerWorker = 4;
/// Every kReferenceStride-th pool frame is re-decoded on the scalar oracle.
constexpr std::size_t kReferenceStride = 8;
/// Service-code frames per code for the z-lane probe of the traced run.
constexpr std::size_t kZlaneProbeFrames = 16;

/// A set-up engine: the code it decodes, the probe wrapping its factory.
struct System {
  std::unique_ptr<ldpc::QCLdpcCode> code;
  std::unique_ptr<DecoderProbe> probe;
  std::unique_ptr<ldpc::BatchEngine> engine;
};

System set_up(const BatchSpec& spec, std::size_t block_frames,
              const std::vector<std::vector<float>>& warm_frames,
              Checks& checks) {
  System sys;
  sys.code = std::make_unique<ldpc::QCLdpcCode>(
      ldpc::make_wimax_2304_half_rate());
  sys.probe = std::make_unique<DecoderProbe>(spec.decoder, *sys.code);
  ldpc::BatchEngineConfig config;
  config.num_workers = kWorkers;
  config.block_frames = block_frames;
  sys.engine =
      std::make_unique<ldpc::BatchEngine>(sys.probe->factory(), config);
  // A worker builds its decoder on its first job; the system is ready once
  // every worker has. A warm-up batch holds kWarmBlocksPerWorker blocks per
  // worker, so one batch nearly always reaches every worker and set-up does
  // the same work on every run.
  for (int round = 0; round < 100 && sys.probe->decoders_built() < kWorkers;
       ++round)
    (void)sys.engine->decode_batch(warm_frames);
  checks.expect(sys.probe->decoders_built() == kWorkers,
                "every worker builds its decoder during set-up");
  return sys;
}

bool resolved_by_decode(const ldpc::DecodeResult& r) {
  return (r.status == ldpc::DecodeStatus::kConverged ||
          r.status == ldpc::DecodeStatus::kMaxIterations) &&
         r.simd_fallback == ldpc::SimdFallback::kNone;
}

struct PassSample {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< CPU time of the whole process during the pass
  std::uint64_t span_id = 0;  ///< traced passes only
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::size_t iterations = 0;
};

}  // namespace

Outcome run_batch_workload(const Args& args, Report& report,
                           Checks& checks) {
  const BatchSpec spec = spec_for(args.workload);
  Outcome outcome;

  // Inputs: a seeded pool of kPoolPasses passes.
  const ldpc::QCLdpcCode input_code = ldpc::make_wimax_2304_half_rate();
  Frames pool = make_frames(input_code, spec.ebn0_db,
                            kPassFrames * kPoolPasses, args.seed);
  std::vector<std::vector<std::vector<float>>> passes(kPoolPasses);
  for (std::size_t f = 0; f < pool.llr.size(); ++f)
    passes[f / kPassFrames].push_back(std::move(pool.llr[f]));
  const std::size_t block_frames =
      ldpc::make_decoder(spec.decoder, input_code, {})->block_width();
  const std::vector<std::vector<float>> warm_frames(
      passes[0].begin(),
      passes[0].begin() + static_cast<std::ptrdiff_t>(
                              kWarmBlocksPerWorker * kWorkers * block_frames));

  // Set-up; the system of the first one is the one measured.
  std::vector<double> setup_s;
  std::vector<double> build_ms;
  auto timed_set_up = [&] {
    const auto t0 = Clock::now();
    System s = set_up(spec, block_frames, warm_frames, checks);
    setup_s.push_back(seconds_between(t0, Clock::now()));
    const auto ms = s.probe->build_ms();
    build_ms.insert(build_ms.end(), ms.begin(), ms.end());
    return s;
  };
  System sys = timed_set_up();
  ldpc::BatchEngine& engine = *sys.engine;
  DecoderProbe& probe = *sys.probe;
  const std::size_t k = input_code.k();

  // First decode of every pool frame: the expected output of every later
  // pass, and the input of the quality metrics.
  std::vector<std::vector<ldpc::DecodeResult>> expected;
  for (const auto& batch : passes) expected.push_back(engine.decode_batch(batch));

  std::size_t fallbacks = 0;
  auto check_pass = [&](std::size_t p, const std::vector<ldpc::DecodeResult>& out,
                        std::uint64_t frames_through_kernel) {
    outcome.attempted += passes[p].size();
    checks.expect(out.size() == passes[p].size(),
                  "decode_batch returns one result per frame");
    // Every frame reaches the kernel exactly once per pass.
    checks.expect(frames_through_kernel == passes[p].size(),
                  "each frame of a pass goes through decode_block once");
    for (std::size_t f = 0; f < out.size() && f < expected[p].size(); ++f) {
      if (out[f].simd_fallback != ldpc::SimdFallback::kNone) ++fallbacks;
      if (!resolved_by_decode(out[f])) {
        ++outcome.failed;
        checks.expect(false, "frame resolved by a vector decode");
      }
      checks.expect(same_decode(out[f], expected[p][f]),
                    "pass output equals the first decode of the frame");
    }
  };

  // Timed passes. With tracing, whole cycles over the pool alternate
  // between untraced (the reference for the overhead) and traced, so both
  // see the same frames and the same drift of the host.
  SpanLog spans(args.trace ? 1 << 16 : 0);
  std::vector<PassSample> untraced;
  std::vector<PassSample> traced;
  const auto timed_start = Clock::now();
  for (std::size_t p = 0; seconds_between(timed_start, Clock::now()) < args.seconds;
       ++p) {
    const std::size_t which = p % passes.size();
    const bool with_spans = args.trace && (p / passes.size()) % 2 == 1;
    PassSample s;
    if (with_spans) {
      s.span_id = spans.next_id();
      probe.set_parent(s.span_id);
    }
    probe.set_spans(with_spans ? &spans : nullptr);
    const auto before = probe.totals().frames;
    // The workers sleep between passes, so the process CPU clock is exact
    // at both ends of the call.
    const double cpu0 = process_cpu_seconds();
    s.start_ns = now_ns();
    const auto t0 = Clock::now();
    const auto out = engine.decode_batch(passes[which]);
    const auto t1 = Clock::now();
    s.end_ns = now_ns();
    s.cpu_s = process_cpu_seconds() - cpu0;
    s.wall_s = seconds_between(t0, t1);
    for (const auto& r : out) s.iterations += r.iterations;
    if (with_spans)
      spans.record({.name = "runtime.decode_batch",
                    .start_ns = s.start_ns,
                    .end_ns = s.end_ns,
                    .id = s.span_id,
                    .request_id = which,
                    .frames = out.size(),
                    .thread = thread_index()});
    check_pass(which, out, probe.totals().frames - before);
    (with_spans ? traced : untraced).push_back(s);
    if (setup_s.size() < kSetupReps &&
        seconds_between(timed_start, Clock::now()) >=
            args.seconds * static_cast<double>(setup_s.size()) / kSetupReps)
      (void)timed_set_up();
  }
  while (setup_s.size() < kSetupReps) (void)timed_set_up();
  probe.set_spans(nullptr);
  probe.set_parent(0);

  // Scalar oracle on a fixed subset, outside every timed region.
  std::vector<const std::vector<float>*> subset;
  std::vector<const ldpc::DecodeResult*> subset_expected;
  for (std::size_t p = 0; p < passes.size(); ++p)
    for (std::size_t f = 0; f < passes[p].size(); f += kReferenceStride) {
      subset.push_back(&passes[p][f]);
      subset_expected.push_back(&expected[p][f]);
    }
  const auto ref_start = Clock::now();
  auto reference = reference_decode(spec.reference, input_code, subset);
  report.note("reference check: " + std::to_string(subset.size()) +
              " frames in " +
              std::to_string(seconds_between(ref_start, Clock::now())) + " s");
  if (args.corrupt_expected) reference[0].hard_bits.flip(0);
  for (std::size_t i = 0; i < subset.size(); ++i)
    checks.expect(same_decode(*subset_expected[i], reference[i]),
                  std::string(spec.decoder) + " matches " + spec.reference +
                      " on reference frame " + std::to_string(i));

  // Quality over the pool and kQualityPasses more passes, each decoded
  // once, outside every timed region: deterministic per seed.
  std::size_t frame_errors = 0;
  std::size_t iterations = 0;
  std::size_t converged = 0;
  auto tally = [&](const ldpc::DecodeResult& r, const ldpc::BitVec& sent) {
    if (!(r.hard_bits == sent)) ++frame_errors;
    iterations += r.iterations;
    if (r.converged) ++converged;
  };
  for (std::size_t p = 0; p < passes.size(); ++p)
    for (std::size_t f = 0; f < expected[p].size(); ++f)
      tally(expected[p][f], pool.codeword[p * kPassFrames + f]);
  for (std::size_t p = kPoolPasses; p < kPoolPasses + kQualityPasses; ++p) {
    const Frames more = make_frames(input_code, spec.ebn0_db, kPassFrames,
                                    args.seed, p * kPassFrames);
    const auto out = engine.decode_batch(more.llr);
    checks.expect(out.size() == more.llr.size(),
                  "decode_batch returns one result per frame");
    for (std::size_t f = 0; f < out.size(); ++f) {
      if (out[f].simd_fallback != ldpc::SimdFallback::kNone) ++fallbacks;
      checks.expect(resolved_by_decode(out[f]),
                    "frame resolved by a vector decode");
      tally(out[f], more.codeword[f]);
    }
  }
  const double quality_frames =
      static_cast<double>(kPassFrames * (kPoolPasses + kQualityPasses));

  // Median over passes of the pass's information bits per second of wall
  // time or of process CPU time.
  auto pass_rate = [&](const std::vector<PassSample>& samples,
                       double PassSample::*seconds) {
    std::vector<double> v;
    for (const auto& s : samples)
      v.push_back(static_cast<double>(kPassFrames * k) / (s.*seconds) / 1e6);
    return median(std::move(v));
  };
  const double untraced_cpu_rate = pass_rate(untraced, &PassSample::cpu_s);
  checks.expect(!untraced.empty(), "at least one timed pass");
  report.note("passes " + std::to_string(untraced.size()) + " x " +
              std::to_string(kPassFrames) + " frames, block_frames " +
              std::to_string(block_frames) + ", workers " +
              std::to_string(kWorkers) + ", decoder " + spec.decoder);

  if (!args.trace) {
    report.add("info_mbit_per_cpu_s", untraced_cpu_rate, "Mbit/cpu-s");
    report.add("fer", static_cast<double>(frame_errors) / quality_frames,
               "ratio");
    report.add("setup_s", median(setup_s), "s");
  } else {
    // Per-pass attribution from the decode_block spans of each pass.
    std::map<std::uint64_t, std::vector<const Span*>> blocks_by_pass;
    const std::vector<Span> all = spans.spans();
    for (const Span& s : all)
      if (std::string_view(s.name) == "core.decode_block")
        blocks_by_pass[s.parent].push_back(&s);
    double busy_s = 0.0;
    double wall_s = 0.0;
    std::size_t traced_iterations = 0;
    std::vector<double> first_block_ms;
    std::vector<double> tail_ms;
    for (const PassSample& pass : traced) {
      const auto& blocks = blocks_by_pass[pass.span_id];
      double pass_busy = 0.0;
      std::int64_t first_start = pass.end_ns;
      std::map<std::uint32_t, std::int64_t> last_end_by_thread;
      for (const Span* b : blocks) {
        pass_busy += static_cast<double>(b->end_ns - b->start_ns) / 1e9;
        first_start = std::min(first_start, b->start_ns);
        auto& last = last_end_by_thread[b->thread];
        last = std::max(last, b->end_ns);
      }
      std::int64_t first_idle = pass.end_ns;
      for (const auto& [thread, end] : last_end_by_thread)
        first_idle = std::min(first_idle, end);
      checks.expect(pass_busy <= kWorkers * pass.wall_s * 1.0001,
                    "decode_block busy time <= workers x pass wall");
      busy_s += pass_busy;
      wall_s += pass.wall_s;
      traced_iterations += pass.iterations;
      first_block_ms.push_back(
          static_cast<double>(first_start - pass.start_ns) / 1e6);
      tail_ms.push_back(static_cast<double>(pass.end_ns - first_idle) / 1e6);
    }
    const auto totals = probe.totals();
    const ldpc::EngineMetrics engine_metrics = engine.snapshot();

    report.add("core.decode_busy_s", busy_s, "s");
    report.add("core.ns_per_frame_iter",
               busy_s * 1e9 / static_cast<double>(std::max<std::size_t>(
                                  traced_iterations, 1)),
               "ns");
    report.add("core.lane_fill",
               totals.calls ? static_cast<double>(totals.frames) /
                                  static_cast<double>(totals.calls) /
                                  static_cast<double>(block_frames)
                            : 0.0,
               "ratio");
    report.add("core.avg_iterations",
               static_cast<double>(iterations) / quality_frames, "iterations");
    report.add("core.converged_share",
               static_cast<double>(converged) / quality_frames, "ratio");
    report.add("core.simd_fallbacks", static_cast<double>(fallbacks), "count");
    report.add("core.build_ms", median(build_ms), "ms");
    report.add("runtime.idle_share",
               wall_s > 0 ? 1.0 - busy_s / (kWorkers * wall_s) : 0.0, "ratio");
    report.add("runtime.first_block_ms", median(first_block_ms), "ms");
    report.add("runtime.tail_ms", median(tail_ms), "ms");
    report.add("runtime.job_latency_p50_us", engine_metrics.latency.p50_us,
               "us");
    report.add("runtime.job_latency_p99_us", engine_metrics.latency.p99_us,
               "us");
    report.add("runtime.queue_max_occupancy",
               static_cast<double>(engine_metrics.queue_max_occupancy),
               "count");
    report.add("trace.overhead_share",
               1.0 - pass_rate(traced, &PassSample::cpu_s) / untraced_cpu_rate,
               "ratio");
    report.add("info_mbps", pass_rate(untraced, &PassSample::wall_s),
               "Mbit/s");

    // The service-code z-lane probe runs here too, so that every workload
    // reports the same per-layer set.
    std::vector<std::vector<std::vector<float>>> zlane_frames;
    for (const ServiceCode& sc : service_codes())
      zlane_frames.push_back(make_frames(sc.make(), kServiceEbN0,
                                         kZlaneProbeFrames, args.seed)
                                 .llr);
    std::vector<const std::vector<std::vector<float>>*> zlane_views;
    for (const auto& f : zlane_frames) zlane_views.push_back(&f);
    const ZlaneProbe zlane = probe_zlane(zlane_views, &spans, report);
    checks.expect(zlane.fallbacks == 0, "no SIMD fallback in the z-lane probe");
    if (!args.trace_out.empty()) spans.write(args.trace_out);
  }
  return outcome;
}

}  // namespace perfbench
