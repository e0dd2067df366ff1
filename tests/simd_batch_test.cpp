// Block equivalence for the inter-frame-batched SIMD decoder: every frame
// of a SimdBatchDecoder::decode_block must be *bit-identical* to a
// standalone LayeredMinSumFixedDecoder decode of the same LLRs — hard
// bits, iteration counts, status, and every per-site saturation counter —
// on every kernel tier, for block sizes below / at / above the lane width
// (refill mid-block), and for every code geometry including z values that
// are not multiples of any lane count (irrelevant here by design: frames
// ride in lanes, so every lane is full for any z — that invariance is the
// point of the batched layout, and this suite is where it is proven).
// scripts/check.sh runs this suite scalar-only, under ASan/UBSan and under
// TSan, so lane indexing or refill races fail loudly.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "codes/random_qc.hpp"
#include "codes/wifi.hpp"
#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "core/layered_minsum_fixed.hpp"
#include "core/simd/simd_batch.hpp"
#include "fault/fault_injector.hpp"
#include "util/rng.hpp"

namespace ldpc {
namespace {

std::vector<float> noisy_llr(const QCLdpcCode& code, float ebn0_db,
                             std::uint64_t seed) {
  const RuEncoder enc(code);
  Xoshiro256 rng(seed);
  BitVec info(code.k());
  for (std::size_t i = 0; i < info.size(); ++i) info.set(i, rng.coin());
  const float variance = awgn_noise_variance(ebn0_db, code.rate());
  AwgnChannel ch(variance, seed + 1);
  return BpskModem::demodulate(
      ch.transmit(BpskModem::modulate(enc.encode(info))), variance);
}

/// Per-frame scalar reference: the result and saturation stats a standalone
/// LayeredMinSumFixedDecoder produces for one LLR vector.
struct Reference {
  DecodeResult result;
  SaturationStats saturation;
};

void expect_frame_identical(const Reference& ref, const DecodeResult& rv,
                            const SaturationStats& sv, const std::string& ctx) {
  EXPECT_TRUE(ref.result.hard_bits == rv.hard_bits) << ctx;
  EXPECT_EQ(ref.result.iterations, rv.iterations) << ctx;
  EXPECT_EQ(ref.result.converged, rv.converged) << ctx;
  EXPECT_EQ(ref.result.status, rv.status) << ctx;
  EXPECT_EQ(rv.simd_fallback, SimdFallback::kNone) << ctx;
  EXPECT_EQ(ref.saturation.quantizer_clips, sv.quantizer_clips) << ctx;
  EXPECT_EQ(ref.saturation.datapath_clips, sv.datapath_clips) << ctx;
  EXPECT_EQ(ref.saturation.q_clips, sv.q_clips) << ctx;
  EXPECT_EQ(ref.saturation.r_clips, sv.r_clips) << ctx;
  EXPECT_EQ(ref.saturation.p_clips, sv.p_clips) << ctx;
  EXPECT_EQ(ref.saturation.degenerate_checks, sv.degenerate_checks) << ctx;
}

/// Decode the pool's first `count` frames as one block and compare each
/// against its scalar reference.
void expect_block_identical(SimdBatchDecoder& batched,
                            const std::vector<std::vector<float>>& pool,
                            const std::vector<Reference>& refs,
                            std::size_t count, const std::string& ctx) {
  std::vector<BlockFrame> frames;
  frames.reserve(count);
  for (std::size_t f = 0; f < count; ++f)
    frames.push_back({pool[f], nullptr});
  std::vector<DecodeResult> results(count);
  std::vector<SaturationStats> saturation(count);
  batched.decode_block(frames, results, saturation);
  for (std::size_t f = 0; f < count; ++f) {
    expect_frame_identical(refs[f], results[f], saturation[f],
                           ctx + " block=" + std::to_string(count) +
                               " frame=" + std::to_string(f));
  }
}

/// Sweep one (code, options, format) point: scalar references once, then
/// every tier x block sizes {1, W-1, W, W+3} where W is the tier's lane
/// width — one frame (the z-lane route), a partial block, a full block,
/// and a block that forces a mid-flight lane refill — plus a fast+slow
/// pair that ends on one live lane.
/// `refs_out`, when set, receives the scalar references, so a case can
/// assert what its frames do.
void sweep_code(const QCLdpcCode& code, const DecoderOptions& opt,
                FixedFormat fmt, float ebn0_db,
                std::vector<Reference>* refs_out = nullptr) {
  std::size_t max_width = 0;
  for (const simd::SimdTier tier : simd::available_tiers())
    max_width = std::max<std::size_t>(max_width, simd::tier_lanes(tier));

  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  for (std::size_t f = 0; f < max_width + 3; ++f) {
    pool.push_back(noisy_llr(code, ebn0_db,
                             static_cast<std::uint64_t>(f) * 131 + 7));
    refs.push_back({scalar.decode(pool.back()), scalar.saturation()});
  }
  if (refs_out) *refs_out = refs;
  // A one-frame block runs the z-lane kernel, so the batched kernel's
  // one-live-lane tail is pinned by a pair: the pool's fastest and slowest
  // frames, the slow one decoding alone once its lane-mate retires.
  const auto [fast, slow] = std::minmax_element(
      refs.begin(), refs.end(), [](const Reference& a, const Reference& b) {
        return a.result.iterations < b.result.iterations;
      });
  const std::vector<std::vector<float>> pair_pool = {
      pool[static_cast<std::size_t>(fast - refs.begin())],
      pool[static_cast<std::size_t>(slow - refs.begin())]};
  const std::vector<Reference> pair_refs = {*fast, *slow};

  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdBatchDecoder batched(code, opt, fmt, tier);
    ASSERT_FALSE(batched.scalar_only());
    const std::size_t w = batched.block_width();
    EXPECT_EQ(w, simd::tier_lanes(tier));
    const std::string ctx = "z=" + std::to_string(code.z()) +
                            " n=" + std::to_string(code.n()) +
                            " tier=" + simd::to_string(tier);
    for (const std::size_t count : {std::size_t{1}, w - 1, w, w + 3})
      expect_block_identical(batched, pool, refs, count, ctx);
    expect_block_identical(batched, pair_pool, pair_refs, 2,
                           ctx + " fast+slow");
  }
}

DecoderOptions counting_options() {
  DecoderOptions opt;
  opt.count_saturation = true;
  return opt;
}

// ------------------------------------------------------------- geometry ----

TEST(SimdBatch, WimaxHalfRateZ96) {
  // The paper's case-study code, also the throughput-gate operating point.
  sweep_code(make_wimax_2304_half_rate(), counting_options(), FixedFormat{8, 2},
             1.8F);
}

TEST(SimdBatch, WifiZ27) {
  // z = 27 leaves tail lanes idle in the z-lane kernel; the batched layout
  // must not care — lanes carry frames, not rows.
  sweep_code(make_wifi_648_half_rate(), counting_options(), FixedFormat{8, 2},
             1.8F);
}

TEST(SimdBatch, WifiZ81) {
  sweep_code(make_wifi_1944_half_rate(), counting_options(), FixedFormat{8, 2},
             1.6F);
}

TEST(SimdBatch, RandomQcZ10BelowEveryLaneWidth) {
  RandomQcConfig cfg;
  cfg.z = 10;
  cfg.seed = 7;
  sweep_code(make_random_qc_code(cfg), counting_options(), FixedFormat{8, 2},
             2.5F);
}

TEST(SimdBatch, RandomQcZ33OddGeometry) {
  RandomQcConfig cfg;
  cfg.block_rows = 5;
  cfg.block_cols = 15;
  cfg.z = 33;
  cfg.info_row_degree = 5;
  cfg.seed = 21;
  const auto code = make_random_qc_code(cfg);
  sweep_code(code, counting_options(), FixedFormat{8, 2}, 2.5F);
  // With the watchdog on, per-lane syndrome weights (not just parity)
  // decide when frames stop, so every check row's mask words count — n is
  // not a multiple of 64 and every rotation wraps. ET on and off.
  DecoderOptions opt = counting_options();
  opt.max_iterations = 30;
  opt.watchdog.stall_window = 4;
  for (const bool et : {true, false}) {
    opt.early_termination = et;
    std::vector<Reference> refs;
    sweep_code(code, opt, FixedFormat{8, 2}, 0.0F, &refs);
    EXPECT_TRUE(std::any_of(refs.begin(), refs.end(), [](const Reference& r) {
      return r.result.status == DecodeStatus::kWatchdogAbort;
    })) << "et=" << et;
  }
}

TEST(SimdBatch, LongCirculantNeedsNoGeometryEnvelope) {
  // z * deg >= 2^15: a single layer pass sees more clip events per lane
  // than an int16 lane can count, so the kernel must drain its counters
  // per row, not per pass. A few frames per tier keep the n = 57600 code
  // cheap under the sanitizers.
  RandomQcConfig cfg;
  cfg.z = 4800;
  cfg.info_row_degree = 5;
  cfg.seed = 5;
  const auto code = make_random_qc_code(cfg);
  ASSERT_GE(static_cast<std::size_t>(code.z()) * code.base().max_row_degree(),
            32768U);
  const DecoderOptions opt = counting_options();
  const FixedFormat fmt{8, 2};
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  for (std::size_t f = 0; f < 3; ++f) {
    pool.push_back(noisy_llr(code, 2.5F, f * 61 + 5));
    // Rail-hot inputs so the counted clip sites see traffic too.
    for (std::size_t v = f; v < code.n(); v += 5) pool.back()[v] *= 20.0F;
    refs.push_back({scalar.decode(pool.back()), scalar.saturation()});
  }
  ASSERT_GT(refs[0].saturation.q_clips + refs[0].saturation.p_clips, 0);

  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdBatchDecoder batched(code, opt, fmt, tier);
    ASSERT_FALSE(batched.scalar_only()) << simd::to_string(tier);
    expect_block_identical(batched, pool, refs, pool.size(),
                           std::string("z=4800 tier=") + simd::to_string(tier));
  }
}

// ------------------------------------------------- kernel configurations ----

TEST(SimdBatch, NarrowQ6Format) {
  sweep_code(make_wifi_648_half_rate(), counting_options(), FixedFormat{6, 1},
             2.0F);
}

TEST(SimdBatch, ScaleSweep) {
  // Non-0.75 scales route through the truncating num/16 magnitude path.
  const auto code = make_wifi_648_half_rate();
  for (const float scale : {0.5F, 1.0F}) {
    DecoderOptions opt = counting_options();
    opt.scale = scale;
    sweep_code(code, opt, FixedFormat{8, 2}, 1.8F);
  }
}

TEST(SimdBatch, EarlyTerminationOff) {
  // Fixed iteration budget: lanes retire together only at max_iterations,
  // the one boundary that sweeps the sign masks (for the output parity
  // recheck; the watchdog, off here, would sweep every iteration).
  DecoderOptions opt = counting_options();
  opt.early_termination = false;
  opt.max_iterations = 8;
  sweep_code(make_wifi_648_half_rate(), opt, FixedFormat{8, 2}, 2.2F);
}

TEST(SimdBatch, WatchdogAbort) {
  // Heavy noise + stall watchdog: per-lane watchdog state must abort each
  // frame on the same iteration as the scalar decoder would.
  DecoderOptions opt = counting_options();
  opt.max_iterations = 30;
  opt.watchdog.stall_window = 4;
  sweep_code(make_wifi_648_half_rate(), opt, FixedFormat{8, 2}, 0.0F);
}

TEST(SimdBatch, UncountedPathMatchesHardOutputs) {
  // count_saturation = false is the throughput configuration (the benches
  // run it): no clip accounting, but hard bits / iterations / status must
  // still match the scalar decoder run in the same mode.
  const auto code = make_wifi_648_half_rate();
  DecoderOptions opt;  // count_saturation defaults to false
  sweep_code(code, opt, FixedFormat{8, 2}, 1.8F);
}

// --------------------------------------------------------- cancellation ----

TEST(SimdBatch, CancelledFrameInBlockLeavesLaneMatesIntact) {
  const auto code = make_wifi_648_half_rate();
  const DecoderOptions opt = counting_options();
  const FixedFormat fmt{8, 2};
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);

  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  for (std::size_t f = 0; f < 8; ++f) {
    pool.push_back(noisy_llr(code, 1.8F, f * 977 + 3));
    refs.push_back({scalar.decode(pool.back()), scalar.saturation()});
  }

  CancelToken cancelled;
  cancelled.cancel();  // expired before the block starts
  // A sticky pre-cancelled token is deterministic: both decoders poll at
  // layer boundaries, so both bail before layer 0 of iteration 1 and the
  // cancelled frame too must match the scalar decoder bit-for-bit.
  scalar.set_cancel_token(&cancelled);
  const Reference cancelled_ref{scalar.decode(pool[2]), scalar.saturation()};
  scalar.set_cancel_token(nullptr);
  EXPECT_EQ(cancelled_ref.result.status, DecodeStatus::kDeadlineExpired);

  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdBatchDecoder batched(code, opt, fmt, tier);
    std::vector<BlockFrame> frames;
    for (std::size_t f = 0; f < pool.size(); ++f)
      frames.push_back({pool[f], f == 2 ? &cancelled : nullptr});
    std::vector<DecodeResult> results(frames.size());
    std::vector<SaturationStats> saturation(frames.size());
    batched.decode_block(frames, results, saturation);
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      expect_frame_identical(f == 2 ? cancelled_ref : refs[f], results[f],
                             saturation[f],
                             ctx + " frame=" + std::to_string(f));
    }
  }
}

// ------------------------------------------------------------ fallbacks ----

TEST(SimdBatch, WideFormatFallsBackPerFrameAndSaysSo) {
  // q16.4 is outside the int16 lane envelope: the block decodes per-frame
  // on the z-lane twin's scalar path, matches the reference decoder, and
  // every result carries the fallback reason — never silent.
  const auto code = make_wifi_648_half_rate();
  const DecoderOptions opt = counting_options();
  const FixedFormat fmt{16, 4};
  LayeredMinSumFixedDecoder scalar(code, opt, fmt);
  SimdBatchDecoder batched(code, opt, fmt);
  EXPECT_TRUE(batched.scalar_only());

  std::vector<std::vector<float>> pool;
  std::vector<BlockFrame> frames;
  for (std::size_t f = 0; f < 4; ++f) {
    pool.push_back(noisy_llr(code, 1.8F, f * 55 + 17));
    frames.push_back({pool.back(), nullptr});
  }
  std::vector<DecodeResult> results(frames.size());
  std::vector<SaturationStats> saturation(frames.size());
  batched.decode_block(frames, results, saturation);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    EXPECT_EQ(results[f].simd_fallback, SimdFallback::kWideFormat);
    const DecodeResult ref = scalar.decode(pool[f]);
    EXPECT_TRUE(ref.hard_bits == results[f].hard_bits);
    EXPECT_EQ(ref.iterations, results[f].iterations);
    EXPECT_EQ(ref.status, results[f].status);
  }
}

TEST(SimdBatch, FaultCampaignFallsBackPerFrame) {
  // Fault-injection corruption order is defined by scalar access order, so
  // an enabled injector must force the per-frame path — and stamp why.
  const auto code = make_wifi_648_half_rate();
  FaultConfig cfg;
  cfg.rate = 1e-4;
  FaultInjector injector(cfg);
  DecoderOptions opt;
  opt.fault_injector = &injector;
  SimdBatchDecoder batched(code, opt, FixedFormat{8, 2});
  EXPECT_FALSE(batched.scalar_only());  // config-dependent, not structural

  const auto llr = noisy_llr(code, 1.8F, 99);
  const BlockFrame frames[] = {{llr, nullptr}, {llr, nullptr}};
  std::vector<DecodeResult> results(2);
  std::vector<SaturationStats> saturation(2);
  batched.decode_block(frames, results, saturation);
  for (const DecodeResult& r : results)
    EXPECT_EQ(r.simd_fallback, SimdFallback::kFaultInjector);
}

TEST(SimdBatch, ObserverFallsBackPerFrame) {
  // The observer contract is one snapshot per iteration of one frame —
  // meaningless across interleaved lanes, so the block goes per-frame.
  const auto code = make_wifi_648_half_rate();
  std::size_t snapshots = 0;
  DecoderOptions opt;
  opt.observer = [&](const IterationSnapshot&) { ++snapshots; };
  SimdBatchDecoder batched(code, opt, FixedFormat{8, 2});

  const auto llr = noisy_llr(code, 1.8F, 42);
  const BlockFrame frames[] = {{llr, nullptr}, {llr, nullptr}};
  std::vector<DecodeResult> results(2);
  std::vector<SaturationStats> saturation(2);
  batched.decode_block(frames, results, saturation);
  for (const DecodeResult& r : results)
    EXPECT_EQ(r.simd_fallback, SimdFallback::kObserver);
  EXPECT_GT(snapshots, 0U);
}

TEST(SimdBatch, BenchConfigurationNeverFallsBack) {
  // The exact configuration the throughput benches run (q8.2, no counters,
  // no observer, no faults) must take the batched kernel on every tier —
  // the bench additionally exits non-zero if any frame reports a fallback,
  // so a regression here fails twice.
  const auto code = make_wimax_2304_half_rate();
  DecoderOptions opt;
  for (const simd::SimdTier tier : simd::available_tiers()) {
    SimdBatchDecoder batched(code, opt, FixedFormat{8, 2}, tier);
    EXPECT_FALSE(batched.scalar_only()) << simd::to_string(tier);
  }
}

// ------------------------------------------------------------- dispatch ----

TEST(SimdBatch, UnknownTierOverrideThrows) {
  // LDPC_SIMD_TIER with a typo must throw, not silently decode on some
  // other tier — an override that changed what a benchmark measured
  // without saying so would poison every number collected under it.
  ASSERT_EQ(setenv("LDPC_SIMD_TIER", "avx1024", 1), 0);
  EXPECT_THROW(simd::best_tier(), Error);
  // A *known but unavailable* tier name falls through to auto-detection
  // instead (pinned scripts stay portable across hosts).
  ASSERT_EQ(setenv("LDPC_SIMD_TIER", "avx512", 1), 0);
  EXPECT_NO_THROW(simd::best_tier());
  ASSERT_EQ(unsetenv("LDPC_SIMD_TIER"), 0);
  EXPECT_NO_THROW(simd::best_tier());
}

TEST(SimdBatch, FactoryNameProducesBatchedDecoder) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  DecoderOptions opt;
  const auto dec = make_decoder("layered-minsum-simd-batched", code, opt);
  EXPECT_GT(dec->block_width(), 1U);
  EXPECT_NE(dec->name().find("batched"), std::string::npos);
  // Single-frame decode rides the z-lane twin and still works.
  const auto llr = noisy_llr(code, 3.0F, 5);
  const DecodeResult r = dec->decode(llr);
  EXPECT_TRUE(r.converged);
}

}  // namespace
}  // namespace ldpc
