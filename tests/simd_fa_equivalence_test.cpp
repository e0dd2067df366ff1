// Bit-identity proof for the finite-alphabet SIMD decoder family: every
// frame decoded by the z-lane SimdFaLayeredDecoder and by the inter-frame
// batched SimdFaBatchDecoder must match a standalone LayeredMinSumFaDecoder
// decode of the same LLRs — hard bits, iteration counts, status, and every
// saturation counter — on every kernel tier, at every message resolution
// (fa2/fa3/fa4), for block sizes below / at / above the lane width, and
// across code geometries including z values that collide with none of the
// int8 lane counts. Both quantizer paths are covered: the counted
// per-element fa_quantize and the uncounted vector quantize kernel
// (quantize_pass, shared with the int16 family; the cases below still
// call it by its former int8-only name fa_quantize_pass), whose
// exactness argument lives in simd_kernel.hpp. scripts/check.sh runs this suite scalar-only and under
// the sanitizer matrix.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "codes/random_qc.hpp"
#include "codes/wifi.hpp"
#include "codes/wimax.hpp"
#include "core/layered_minsum_fa.hpp"
#include "core/simd/simd_batch.hpp"
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
  // Family invariant, independently of the scalar reference: the staircase
  // emits in-alphabet magnitudes, so R never clips on any implementation.
  EXPECT_EQ(sv.r_clips, 0) << ctx;
}

void expect_block_identical(SimdFaBatchDecoder& batched,
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
  for (std::size_t f = 0; f < count; ++f)
    expect_frame_identical(refs[f], results[f], saturation[f],
                           ctx + " block=" + std::to_string(count) +
                               " frame=" + std::to_string(f));
}

/// Sweep one (code, options, msg_bits) point: scalar references once, then
/// every tier twice over — the z-lane decoder per frame, and the batched
/// decoder at block sizes {1, W-1, W, W+3} (one lane, a partial block, a
/// full block, a mid-flight lane refill).
/// `refs_out`, when set, receives the scalar references, so a case can
/// assert what its frames do.
void sweep_code(const QCLdpcCode& code, const DecoderOptions& opt,
                int msg_bits, float ebn0_db,
                std::vector<Reference>* refs_out = nullptr) {
  std::size_t max_width = 0;
  for (const simd::SimdTier tier : simd::available_tiers())
    max_width = std::max<std::size_t>(max_width, simd::tier_lanes8(tier));

  std::vector<std::vector<float>> pool;
  std::vector<Reference> refs;
  LayeredMinSumFaDecoder scalar(code, opt, msg_bits);
  for (std::size_t f = 0; f < max_width + 3; ++f) {
    pool.push_back(noisy_llr(code, ebn0_db,
                             static_cast<std::uint64_t>(f) * 131 + 7));
    refs.push_back({scalar.decode(pool.back()), scalar.saturation()});
  }
  if (refs_out) *refs_out = refs;

  for (const simd::SimdTier tier : simd::available_tiers()) {
    const std::string ctx = "fa" + std::to_string(msg_bits) +
                            " z=" + std::to_string(code.z()) +
                            " n=" + std::to_string(code.n()) +
                            " tier=" + simd::to_string(tier);
    SimdFaLayeredDecoder lane(code, opt, msg_bits, 2.0F, tier);
    for (std::size_t f = 0; f < pool.size(); ++f) {
      const DecodeResult rv = lane.decode(pool[f]);
      expect_frame_identical(refs[f], rv, lane.saturation(),
                             ctx + " zlane frame=" + std::to_string(f));
    }

    SimdFaBatchDecoder batched(code, opt, msg_bits, 2.0F, tier);
    ASSERT_FALSE(batched.scalar_only());
    const std::size_t w = batched.block_width();
    EXPECT_EQ(w, simd::tier_lanes8(tier));
    for (const std::size_t count : {std::size_t{1}, w - 1, w, w + 3})
      expect_block_identical(batched, pool, refs, count, ctx);
  }
}

DecoderOptions counting_options() {
  DecoderOptions opt;
  opt.count_saturation = true;
  return opt;
}

DecoderOptions uncounted_options() {
  DecoderOptions opt;
  opt.count_saturation = false;
  return opt;
}

// ------------------------------------------------------------- geometry ----

TEST(SimdFaEquivalence, WimaxHalfRateZ96Fa4) {
  sweep_code(make_wimax_2304_half_rate(), counting_options(), 4, 2.4F);
}

TEST(SimdFaEquivalence, WifiZ27Fa4) {
  // z = 27 collides with none of the int8 lane counts; the batched layout
  // is z-agnostic (frames ride in lanes) and must stay exact.
  sweep_code(make_wifi_648_half_rate(), counting_options(), 4, 2.4F);
}

TEST(SimdFaEquivalence, WifiZ81Fa4) {
  sweep_code(make_wifi_1944_half_rate(), counting_options(), 4, 2.4F);
}

TEST(SimdFaEquivalence, RandomQcZ10BelowEveryLaneWidth) {
  RandomQcConfig cfg;
  cfg.z = 10;
  cfg.seed = 11;
  sweep_code(make_random_qc_code(cfg), counting_options(), 4, 3.0F);
}

TEST(SimdFaEquivalence, RandomQcZ33OddGeometry) {
  RandomQcConfig cfg;
  cfg.block_rows = 5;
  cfg.block_cols = 15;
  cfg.z = 33;
  cfg.info_row_degree = 5;
  cfg.seed = 23;
  sweep_code(make_random_qc_code(cfg), counting_options(), 4, 3.0F);
}

// ----------------------------------------------------------- resolution ----

TEST(SimdFaEquivalence, TwoBitMessages) {
  sweep_code(make_wifi_648_half_rate(), counting_options(), 2, 3.0F);
}

TEST(SimdFaEquivalence, ThreeBitMessages) {
  sweep_code(make_wifi_648_half_rate(), counting_options(), 3, 2.6F);
}

// ----------------------------------------------------- quantizer paths ----

TEST(SimdFaEquivalence, UncountedVectorQuantizePath) {
  // count_saturation = false routes channel quantization through the
  // tier's fa_quantize_pass kernel instead of per-element fa_quantize;
  // results must stay bit-identical (stats all zero on both sides).
  sweep_code(make_wifi_648_half_rate(), uncounted_options(), 4, 2.4F);
}

TEST(SimdFaEquivalence, UncountedVectorQuantizeWimaxZ96) {
  sweep_code(make_wimax_2304_half_rate(), uncounted_options(), 4, 2.4F);
}

// ------------------------------------------------------------- options ----

TEST(SimdFaEquivalence, EarlyTerminationOff) {
  DecoderOptions opt = counting_options();
  opt.early_termination = false;
  opt.max_iterations = 6;
  sweep_code(make_wifi_648_half_rate(), opt, 4, 2.2F);
}

TEST(SimdFaEquivalence, WatchdogAbort) {
  DecoderOptions opt = counting_options();
  opt.max_iterations = 30;
  opt.watchdog.stall_window = 4;
  // 0 dB: most frames stall, so the watchdog path actually fires.
  sweep_code(make_wifi_648_half_rate(), opt, 4, 0.0F);
  // The odd geometry of RandomQcZ33OddGeometry (n not a multiple of 64,
  // every rotation wraps), ET on and off: per-lane syndrome weights decide
  // the aborts row by row.
  RandomQcConfig cfg;
  cfg.block_rows = 5;
  cfg.block_cols = 15;
  cfg.z = 33;
  cfg.info_row_degree = 5;
  cfg.seed = 23;
  const auto code = make_random_qc_code(cfg);
  for (const bool et : {true, false}) {
    opt.early_termination = et;
    std::vector<Reference> refs;
    sweep_code(code, opt, 4, 0.0F, &refs);
    EXPECT_TRUE(std::any_of(refs.begin(), refs.end(), [](const Reference& r) {
      return r.result.status == DecodeStatus::kWatchdogAbort;
    })) << "et=" << et;
  }
}

}  // namespace
}  // namespace ldpc
