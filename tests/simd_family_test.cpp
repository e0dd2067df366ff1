// Driver-path equivalence for both SIMD message families — the int16
// q8.2 decoders and the int8 fa4 finite-alphabet decoders — run as one
// typed suite. The per-family suites (simd_equivalence_test,
// simd_batch_test, simd_fa_equivalence_test) prove the lane kernels
// bit-identical on clean decodes; this suite covers the driver paths
// around them on both families alike:
//
//   * a cancelled frame inside a batched block leaves its lane-mates
//     bit-identical to the scalar reference;
//   * lanes that retire and refill together at one iteration boundary —
//     converged, out of iterations or cancelled, one cancelled frame
//     already a codeword — all match the scalar reference, counted and
//     uncounted;
//   * batched fault-campaign and observer decodes fall back per frame and
//     say so (kFaultInjector / kObserver), with scalar-identical results;
//   * the uncounted row quantizer matches the scalar codes on hostile
//     LLRs (NaN, infinities, ties, rail-hot values) in both shapes, and
//     element by element around every half step of the rails; frames
//     of one LLR magnitude, where every check row ties at min1, match
//     the scalar reference in both shapes;
//   * the z-lane quantized entry point routes out-of-rail codes to the
//     scalar twin (kOutOfRailInput) and matches the scalar decode;
//   * z-lane observer snapshots match the scalar decoder's.
//
// scripts/check.sh also runs this suite on the scalar-only
// (LDPC_SIMD=OFF) build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/base_matrix.hpp"
#include "codes/encoder.hpp"
#include "codes/qc_code.hpp"
#include "codes/wifi.hpp"
#include "core/fa_tables.hpp"
#include "core/layered_minsum_fa.hpp"
#include "core/layered_minsum_fixed.hpp"
#include "core/simd/simd_batch.hpp"
#include "core/simd/simd_layered.hpp"
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

/// int16 q8.2: the paper's format on the shift-add scaled min-sum kernels.
struct Q8Family {
  using Scalar = LayeredMinSumFixedDecoder;
  static constexpr FixedFormat kFormat{8, 2};

  static std::unique_ptr<Scalar> scalar(const QCLdpcCode& code,
                                        const DecoderOptions& opt) {
    return std::make_unique<Scalar>(code, opt, kFormat);
  }
  static std::unique_ptr<SimdLayeredDecoder> zlane(
      const QCLdpcCode& code, const DecoderOptions& opt, simd::SimdTier tier) {
    return std::make_unique<SimdLayeredDecoder>(code, opt, kFormat, tier);
  }
  static std::unique_ptr<SimdBatchDecoder> batched(
      const QCLdpcCode& code, const DecoderOptions& opt, simd::SimdTier tier) {
    return std::make_unique<SimdBatchDecoder>(code, opt, kFormat, tier);
  }
  static std::int32_t quantize(float llr) { return kFormat.quantize(llr); }
  /// The tier's uncounted row quantizer, codes widened for comparison.
  static std::vector<std::int32_t> quantize_row(const std::vector<float>& llr,
                                                simd::SimdTier tier) {
    const simd::Q16Messages msg(kFormat, 0.75F, tier);
    std::vector<std::int16_t> codes(llr.size());
    msg.quantize_row(llr.data(), codes.data(), llr.size());
    return {codes.begin(), codes.end()};
  }
  static constexpr std::int32_t kRailLo = kFormat.min_code();
  static constexpr std::int32_t kRailHi = kFormat.max_code();
  /// One code past the top rail: never produced by the quantizer.
  static std::int32_t out_of_rail() { return kFormat.max_code() + 1; }
};

/// int8 fa4: the finite-alphabet staircase kernels on the symmetric rail.
struct Fa4Family {
  using Scalar = LayeredMinSumFaDecoder;
  static constexpr int kMsgBits = 4;

  static std::unique_ptr<Scalar> scalar(const QCLdpcCode& code,
                                        const DecoderOptions& opt) {
    return std::make_unique<Scalar>(code, opt, kMsgBits);
  }
  static std::unique_ptr<SimdFaLayeredDecoder> zlane(
      const QCLdpcCode& code, const DecoderOptions& opt, simd::SimdTier tier) {
    return std::make_unique<SimdFaLayeredDecoder>(code, opt, kMsgBits, 2.0F,
                                                  tier);
  }
  static std::unique_ptr<SimdFaBatchDecoder> batched(
      const QCLdpcCode& code, const DecoderOptions& opt, simd::SimdTier tier) {
    return std::make_unique<SimdFaBatchDecoder>(code, opt, kMsgBits, 2.0F,
                                                tier);
  }
  static std::int32_t quantize(float llr) {
    return fa_quantize(FixedFormat{8, 2}, llr);
  }
  /// The tier's uncounted row quantizer, codes widened for comparison.
  static std::vector<std::int32_t> quantize_row(const std::vector<float>& llr,
                                                simd::SimdTier tier) {
    static const FaTableSet tables =
        build_fa_tables(make_wifi_648_half_rate(), kMsgBits);
    const simd::FaMessages msg(tables, tier);
    std::vector<std::int8_t> codes(llr.size());
    msg.quantize_row(llr.data(), codes.data(), llr.size());
    return {codes.begin(), codes.end()};
  }
  static constexpr std::int32_t kRailLo = -kFaRail;
  static constexpr std::int32_t kRailHi = kFaRail;
  /// -128 fits an int8 but lies outside the symmetric [-127, 127] rail.
  static std::int32_t out_of_rail() { return -kFaRail - 1; }
};

template <typename Family>
class SimdFamily : public ::testing::Test {};

using Families = ::testing::Types<Q8Family, Fa4Family>;

struct FamilyNames {
  template <typename T>
  static std::string GetName(int) {
    return std::is_same_v<T, Q8Family> ? "q8_2" : "fa4";
  }
};

TYPED_TEST_SUITE(SimdFamily, Families, FamilyNames);

DecoderOptions counting_options() {
  DecoderOptions opt;
  opt.count_saturation = true;
  return opt;
}

void expect_same_decode(const DecodeResult& ref, const SaturationStats& rs,
                        const DecodeResult& rv, const SaturationStats& sv,
                        const std::string& ctx) {
  EXPECT_TRUE(ref.hard_bits == rv.hard_bits) << ctx;
  EXPECT_EQ(ref.iterations, rv.iterations) << ctx;
  EXPECT_EQ(ref.converged, rv.converged) << ctx;
  EXPECT_EQ(ref.status, rv.status) << ctx;
  EXPECT_EQ(ref.faults_injected, rv.faults_injected) << ctx;
  EXPECT_EQ(rs.quantizer_clips, sv.quantizer_clips) << ctx;
  EXPECT_EQ(rs.datapath_clips, sv.datapath_clips) << ctx;
  EXPECT_EQ(rs.q_clips, sv.q_clips) << ctx;
  EXPECT_EQ(rs.r_clips, sv.r_clips) << ctx;
  EXPECT_EQ(rs.p_clips, sv.p_clips) << ctx;
  EXPECT_EQ(rs.degenerate_checks, sv.degenerate_checks) << ctx;
}

// --------------------------------------------------------- cancellation ----

TYPED_TEST(SimdFamily, CancelledFrameInBlockLeavesLaneMatesIntact) {
  const auto code = make_wifi_648_half_rate();
  const DecoderOptions opt = counting_options();
  const auto scalar = TypeParam::scalar(code, opt);

  std::vector<std::vector<float>> pool;
  std::vector<DecodeResult> refs;
  std::vector<SaturationStats> ref_sat;
  for (std::size_t f = 0; f < 8; ++f) {
    pool.push_back(noisy_llr(code, 2.0F, f * 977 + 3));
    refs.push_back(scalar->decode(pool.back()));
    ref_sat.push_back(scalar->saturation());
  }

  // A sticky pre-cancelled token is deterministic: every decoder polls at
  // layer boundaries, so all bail before layer 0 of iteration 1.
  CancelToken cancelled;
  cancelled.cancel();
  scalar->set_cancel_token(&cancelled);
  refs[2] = scalar->decode(pool[2]);
  ref_sat[2] = scalar->saturation();
  scalar->set_cancel_token(nullptr);
  ASSERT_EQ(refs[2].status, DecodeStatus::kDeadlineExpired);

  for (const simd::SimdTier tier : simd::available_tiers()) {
    const auto batched = TypeParam::batched(code, opt, tier);
    std::vector<BlockFrame> frames;
    for (std::size_t f = 0; f < pool.size(); ++f)
      frames.push_back({pool[f], f == 2 ? &cancelled : nullptr});
    std::vector<DecodeResult> results(frames.size());
    std::vector<SaturationStats> saturation(frames.size());
    batched->decode_block(frames, results, saturation);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const std::string ctx = std::string("tier=") + simd::to_string(tier) +
                              " frame=" + std::to_string(f);
      EXPECT_EQ(results[f].simd_fallback, SimdFallback::kNone) << ctx;
      expect_same_decode(refs[f], ref_sat[f], results[f], saturation[f], ctx);
    }
  }
}

TYPED_TEST(SimdFamily, DecodeBlockDetachesAttachedCancelToken) {
  // Decoder::decode_block contract: the per-frame tokens replace a token
  // attached with set_cancel_token, and it is detached on return — on the
  // batched vector path and on the per-frame observer fallback alike — so
  // a later single-frame decode runs to completion.
  const auto code = make_wifi_648_half_rate();
  const auto llr = noisy_llr(code, 2.0F, 57);
  const auto scalar = TypeParam::scalar(code, counting_options());
  const DecodeResult ref = scalar->decode(llr);
  const SaturationStats ref_sat = scalar->saturation();
  // A decode cancelled before layer 0 stops at iteration 1: the reference
  // must need more, or a still-attached token would go unnoticed.
  ASSERT_GT(ref.iterations, 1U);

  CancelToken cancelled;
  cancelled.cancel();
  for (const bool observer : {false, true}) {
    DecoderOptions opt = counting_options();
    if (observer) opt.observer = [](const IterationSnapshot&) {};
    for (const simd::SimdTier tier : simd::available_tiers()) {
      const std::string ctx = std::string("tier=") + simd::to_string(tier) +
                              (observer ? " observer" : " vector");
      const auto batched = TypeParam::batched(code, opt, tier);
      batched->set_cancel_token(&cancelled);
      const BlockFrame frame{llr, nullptr};
      DecodeResult block_result;
      SaturationStats block_sat;
      batched->decode_block(std::span<const BlockFrame>(&frame, 1),
                            std::span<DecodeResult>(&block_result, 1),
                            std::span<SaturationStats>(&block_sat, 1));
      EXPECT_EQ(block_result.simd_fallback,
                observer ? SimdFallback::kObserver : SimdFallback::kNone)
          << ctx;
      expect_same_decode(ref, ref_sat, block_result, block_sat,
                         ctx + " decode_block");
      const DecodeResult after = batched->decode(llr);
      expect_same_decode(ref, ref_sat, after, batched->saturation(),
                         ctx + " decode");
    }
  }
}

// ------------------------------------------------------ refill / retire ----

TYPED_TEST(SimdFamily, LanesRefillAndRetireTogetherForMixedReasons) {
  // A block of 2W + 3 frames (W = the decoder's lane count) mixing frames
  // that converge in one or two iterations, frames that run out of
  // iterations and frames whose token is already cancelled: many lanes
  // retire and refill at the same iteration boundaries, for different
  // reasons, so the batched refill and drain serve several lanes in one
  // sweep. Every frame must match the scalar reference, counted and
  // uncounted.
  const auto code = make_wifi_648_half_rate();
  CancelToken cancelled;
  cancelled.cancel();
  const auto token = [&](std::size_t f) {
    return f % 5 == 2 ? &cancelled : nullptr;
  };
  const float ebn0_db[] = {6.0F, 0.0F, 2.5F};
  std::vector<std::vector<float>> pool;
  // Enough frames for the widest block on any tier.
  const std::size_t widest = simd::tier_lanes8(simd::SimdTier::kAvx512);
  for (std::size_t f = 0; f < 2 * widest + 3; ++f)
    pool.push_back(noisy_llr(code, ebn0_db[f % 3], f * 131 + 7));
  // Cancelled frame 12 is nearly noiseless: its channel hard decisions
  // already form a codeword, so the parity check at the cancel boundary
  // must report it converged, not expired.
  pool[12] = noisy_llr(code, 20.0F, 12 * 131 + 7);

  for (const bool counted : {false, true}) {
    DecoderOptions opt;
    opt.count_saturation = counted;
    const auto scalar = TypeParam::scalar(code, opt);
    std::vector<DecodeResult> refs;
    std::vector<SaturationStats> ref_sat;
    for (std::size_t f = 0; f < pool.size(); ++f) {
      scalar->set_cancel_token(token(f));
      refs.push_back(scalar->decode(pool[f]));
      ref_sat.push_back(scalar->saturation());
    }
    scalar->set_cancel_token(nullptr);

    for (const simd::SimdTier tier : simd::available_tiers()) {
      const auto batched = TypeParam::batched(code, opt, tier);
      const std::size_t count = 2 * batched->block_width() + 3;
      ASSERT_LE(count, pool.size());
      // The mix does what it claims on every block size.
      std::size_t quick = 0;
      std::size_t exhausted = 0;
      std::size_t expired = 0;
      std::size_t cancelled_codewords = 0;
      for (std::size_t f = 0; f < count; ++f) {
        quick += refs[f].converged && refs[f].iterations <= 2 ? 1 : 0;
        exhausted += refs[f].iterations == opt.max_iterations &&
                             !refs[f].converged
                         ? 1
                         : 0;
        expired += refs[f].status == DecodeStatus::kDeadlineExpired ? 1 : 0;
        cancelled_codewords +=
            token(f) && refs[f].status == DecodeStatus::kConverged ? 1 : 0;
      }
      ASSERT_GE(quick, 3U);
      ASSERT_GE(exhausted, 3U);
      ASSERT_GE(expired, 3U);
      ASSERT_GE(cancelled_codewords, 1U);

      std::vector<BlockFrame> frames;
      for (std::size_t f = 0; f < count; ++f)
        frames.push_back({pool[f], token(f)});
      std::vector<DecodeResult> results(count);
      std::vector<SaturationStats> saturation(count);
      batched->decode_block(frames, results, saturation);
      for (std::size_t f = 0; f < count; ++f) {
        const std::string ctx = std::string("tier=") + simd::to_string(tier) +
                                (counted ? " counted" : " uncounted") +
                                " frame=" + std::to_string(f);
        EXPECT_EQ(results[f].simd_fallback, SimdFallback::kNone) << ctx;
        expect_same_decode(refs[f], ref_sat[f], results[f], saturation[f],
                           ctx);
      }
    }
  }
}

// ------------------------------------------------------------ fallbacks ----

TYPED_TEST(SimdFamily, BatchedFaultCampaignFallsBackPerFrame) {
  // Fault-campaign corruption order is scalar access order: the block
  // decodes per frame, stamps the reason, and reproduces a scalar decoder
  // fed the same frames in the same order from an identically seeded
  // injector.
  const auto code = make_wifi_648_half_rate();
  FaultConfig cfg;
  cfg.rate = 1e-4;
  std::vector<std::vector<float>> pool;
  for (std::size_t f = 0; f < 3; ++f)
    pool.push_back(noisy_llr(code, 2.0F, f * 31 + 99));

  FaultInjector ref_injector(cfg);
  DecoderOptions ref_opt = counting_options();
  ref_opt.fault_injector = &ref_injector;
  const auto scalar = TypeParam::scalar(code, ref_opt);
  std::vector<DecodeResult> refs;
  std::vector<SaturationStats> ref_sat;
  std::size_t ref_faults = 0;
  for (const auto& llr : pool) {
    refs.push_back(scalar->decode(llr));
    ref_sat.push_back(scalar->saturation());
    ref_faults += refs.back().faults_injected;
  }
  ASSERT_GT(ref_faults, 0U);  // the campaign must actually corrupt something

  for (const simd::SimdTier tier : simd::available_tiers()) {
    FaultInjector injector(cfg);
    DecoderOptions opt = counting_options();
    opt.fault_injector = &injector;
    const auto batched = TypeParam::batched(code, opt, tier);
    EXPECT_FALSE(batched->scalar_only());  // config-dependent, not structural
    std::vector<BlockFrame> frames;
    for (const auto& llr : pool) frames.push_back({llr, nullptr});
    std::vector<DecodeResult> results(frames.size());
    std::vector<SaturationStats> saturation(frames.size());
    batched->decode_block(frames, results, saturation);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const std::string ctx = std::string("tier=") + simd::to_string(tier) +
                              " frame=" + std::to_string(f);
      EXPECT_EQ(results[f].simd_fallback, SimdFallback::kFaultInjector) << ctx;
      expect_same_decode(refs[f], ref_sat[f], results[f], saturation[f], ctx);
    }
  }
}

TYPED_TEST(SimdFamily, BatchedObserverFallsBackPerFrame) {
  // One snapshot per iteration of one frame has no meaning across
  // interleaved lanes: the block decodes per frame and says so.
  const auto code = make_wifi_648_half_rate();
  const DecoderOptions ref_opt = counting_options();
  const auto scalar = TypeParam::scalar(code, ref_opt);
  std::vector<std::vector<float>> pool;
  std::vector<DecodeResult> refs;
  std::vector<SaturationStats> ref_sat;
  std::size_t ref_iterations = 0;
  for (std::size_t f = 0; f < 3; ++f) {
    pool.push_back(noisy_llr(code, 1.8F, f * 17 + 42));
    refs.push_back(scalar->decode(pool.back()));
    ref_sat.push_back(scalar->saturation());
    ref_iterations += refs.back().iterations;
  }

  for (const simd::SimdTier tier : simd::available_tiers()) {
    std::size_t snapshots = 0;
    DecoderOptions opt = counting_options();
    opt.observer = [&](const IterationSnapshot&) { ++snapshots; };
    const auto batched = TypeParam::batched(code, opt, tier);
    std::vector<BlockFrame> frames;
    for (const auto& llr : pool) frames.push_back({llr, nullptr});
    std::vector<DecodeResult> results(frames.size());
    std::vector<SaturationStats> saturation(frames.size());
    batched->decode_block(frames, results, saturation);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const std::string ctx = std::string("tier=") + simd::to_string(tier) +
                              " frame=" + std::to_string(f);
      EXPECT_EQ(results[f].simd_fallback, SimdFallback::kObserver) << ctx;
      expect_same_decode(refs[f], ref_sat[f], results[f], saturation[f], ctx);
    }
    EXPECT_EQ(snapshots, ref_iterations) << simd::to_string(tier);
  }
}

// ------------------------------------------------------------ quantizer ----

TYPED_TEST(SimdFamily, UncountedQuantizerMatchesScalarOnHostileLlrs) {
  // count_saturation = false quantizes through the policy's row quantizer
  // in both shapes; rail-hot, tied, NaN and infinite LLRs must land on the
  // scalar decoder's codes. Three more frames have LLRs of one magnitude
  // with random signs: a mid-alphabet code, the positive rail (127 also
  // ties the int8 kernel's min sentinel) and the negative rail (q8.2's
  // quantizer clips its mirror image to +127). Every check row of those
  // ties at min1 on the first iteration, where the vector check_row, which
  // keeps no pos1, must still give the scalar kernels' R'.
  const auto code = make_wifi_648_half_rate();
  std::vector<float> llr = noisy_llr(code, 2.0F, 21);
  for (std::size_t v = 0; v < llr.size(); v += 7) llr[v] *= 100.0F;
  llr[3] = std::numeric_limits<float>::quiet_NaN();
  llr[10] = std::numeric_limits<float>::infinity();
  llr[11] = -std::numeric_limits<float>::infinity();
  llr[12] = 0.125F;  // exactly half a q8.2 step: ties round away from zero
  llr[13] = -0.375F;
  std::vector<std::vector<float>> pool{llr};
  constexpr float kScale = 4.0F;  // q8.2 codes per LLR unit
  Xoshiro256 rng(77);
  for (const std::int32_t m : {TypeParam::kRailHi / 2, TypeParam::kRailHi,
                               -TypeParam::kRailLo}) {
    const float mag = static_cast<float>(m) / kScale;
    std::vector<float>& frame = pool.emplace_back(code.n());
    for (float& x : frame) x = rng.coin() ? -mag : mag;
  }
  ASSERT_EQ(std::abs(TypeParam::quantize(pool[1][0])), TypeParam::kRailHi / 2);

  const DecoderOptions opt;  // count_saturation defaults to false
  const auto scalar = TypeParam::scalar(code, opt);
  std::vector<DecodeResult> refs;
  std::vector<SaturationStats> ref_sat;
  std::vector<BlockFrame> frames;
  for (const auto& frame : pool) {
    refs.push_back(scalar->decode(frame));
    ref_sat.push_back(scalar->saturation());
    frames.push_back({frame, nullptr});
  }

  for (const simd::SimdTier tier : simd::available_tiers()) {
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    const auto lane = TypeParam::zlane(code, opt, tier);
    for (std::size_t f = 0; f < pool.size(); ++f) {
      const DecodeResult rv = lane->decode(pool[f]);
      EXPECT_EQ(rv.simd_fallback, SimdFallback::kNone) << ctx;
      expect_same_decode(refs[f], ref_sat[f], rv, lane->saturation(),
                         ctx + " zlane frame=" + std::to_string(f));
    }

    const auto batched = TypeParam::batched(code, opt, tier);
    std::vector<DecodeResult> results(frames.size());
    std::vector<SaturationStats> saturation(frames.size());
    batched->decode_block(frames, results, saturation);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      EXPECT_EQ(results[f].simd_fallback, SimdFallback::kNone) << ctx;
      expect_same_decode(refs[f], ref_sat[f], results[f], saturation[f],
                         ctx + " batched frame=" + std::to_string(f));
    }
  }
}

TYPED_TEST(SimdFamily, RowQuantizerMatchesScalarAroundEveryHalfStep) {
  // Round-half-away is decided at the half steps k + 0.5, so probe each
  // one inside the rails (and the pre-limit band just past them) at the
  // float below, the tie itself and the float above, scaled back to LLRs
  // on the q8.2 grid both families quantize onto. 0.5 - 2^-25 (LLR
  // +-0x1.fffffep-4) is the value an add-half-then-truncate round gets
  // wrong: the sum 1 - 2^-25 rounds up to 1.0 in float.
  constexpr float kScale = 4.0F;  // 1 << frac_bits of q8.2
  std::vector<float> llr = {0x1.fffffep-4F, -0x1.fffffep-4F, 0.0F, -0.0F,
                            std::numeric_limits<float>::quiet_NaN(),
                            std::numeric_limits<float>::infinity(),
                            -std::numeric_limits<float>::infinity(),
                            std::numeric_limits<float>::denorm_min(),
                            1e30F, -1e30F};
  for (std::int32_t k = TypeParam::kRailLo - 2; k <= TypeParam::kRailHi + 1;
       ++k) {
    const float tie = static_cast<float>(k) + 0.5F;
    for (const float s : {std::nextafter(tie, -1e9F), tie,
                          std::nextafter(tie, 1e9F)})
      llr.push_back(s / kScale);
  }
  // Again at the end, so the two known values also reach the vector
  // tiers' scalar tail (the length is no multiple of any vector width).
  llr.push_back(0x1.fffffep-4F);
  llr.push_back(-0x1.fffffep-4F);
  ASSERT_NE(llr.size() % 16, 0U);

  for (const simd::SimdTier tier : simd::available_tiers()) {
    const std::vector<std::int32_t> codes = TypeParam::quantize_row(llr, tier);
    ASSERT_EQ(codes.size(), llr.size());
    for (std::size_t v = 0; v < llr.size(); ++v)
      EXPECT_EQ(codes[v], TypeParam::quantize(llr[v]))
          << "tier=" << simd::to_string(tier) << " v=" << v << " llr="
          << std::hexfloat << llr[v];
  }
}

// ---------------------------------------------------- degenerate layers ----

TYPED_TEST(SimdFamily, DegreeOneLayerMatchesScalarInBothShapes) {
  // A layer of block degree 1 has no extrinsic input: every kernel forces
  // R' = 0 on its rows and the driver counts them as degenerate checks.
  // No shipped code has such a layer, so this hand-written base matrix
  // (layer 2 touches block column 5 alone, z = 10 is no multiple of any
  // lane width) is the only test that runs that branch. The all-zero word
  // is a codeword of any linear code, so no encoder is needed.
  const QCLdpcCode code(BaseMatrix(4, 8,
                                   {1, -1, 4, 0, 0, -1, -1, -1,   //
                                    -1, 3, 7, -1, 0, 0, 2, -1,    //
                                    -1, -1, -1, -1, -1, 0, -1, -1,  //
                                    6, 2, -1, 9, -1, 5, 0, 0},
                                   10, "degree-1-layer"));
  ASSERT_EQ(code.layers()[2].size(), 1U);
  const DecoderOptions opt = counting_options();
  const auto scalar = TypeParam::scalar(code, opt);

  const float variance = awgn_noise_variance(1.0F, code.rate());
  std::vector<std::vector<float>> pool;
  std::vector<DecodeResult> refs;
  std::vector<SaturationStats> ref_sat;
  long long ref_clips = 0;
  for (std::size_t f = 0; f < 5; ++f) {
    AwgnChannel ch(variance, f * 53 + 11);
    pool.push_back(BpskModem::demodulate(
        ch.transmit(BpskModem::modulate(BitVec(code.n()))), variance));
    // Rail-hot inputs so the counted clip sites see traffic too.
    for (std::size_t v = f; v < code.n(); v += 9) pool.back()[v] *= 20.0F;
    refs.push_back(scalar->decode(pool.back()));
    ref_sat.push_back(scalar->saturation());
    ASSERT_GT(ref_sat.back().degenerate_checks, 0);
    ref_clips += ref_sat.back().q_clips + ref_sat.back().p_clips;
  }
  ASSERT_GT(ref_clips, 0);

  for (const simd::SimdTier tier : simd::available_tiers()) {
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    const auto lane = TypeParam::zlane(code, opt, tier);
    for (std::size_t f = 0; f < pool.size(); ++f) {
      const DecodeResult rv = lane->decode(pool[f]);
      EXPECT_EQ(rv.simd_fallback, SimdFallback::kNone) << ctx;
      expect_same_decode(refs[f], ref_sat[f], rv, lane->saturation(),
                         ctx + " zlane frame=" + std::to_string(f));
    }

    const auto batched = TypeParam::batched(code, opt, tier);
    std::vector<BlockFrame> frames;
    for (const auto& llr : pool) frames.push_back({llr, nullptr});
    std::vector<DecodeResult> results(frames.size());
    std::vector<SaturationStats> saturation(frames.size());
    batched->decode_block(frames, results, saturation);
    for (std::size_t f = 0; f < frames.size(); ++f) {
      EXPECT_EQ(results[f].simd_fallback, SimdFallback::kNone) << ctx;
      expect_same_decode(refs[f], ref_sat[f], results[f], saturation[f],
                         ctx + " batched frame=" + std::to_string(f));
    }
  }
}

// ------------------------------------------------------- entry points ----

TYPED_TEST(SimdFamily, ZLaneQuantizedEntryPointRoutesOutOfRailToScalar) {
  const auto code = make_wifi_648_half_rate();
  const DecoderOptions opt = counting_options();
  const auto scalar = TypeParam::scalar(code, opt);
  const auto llr = noisy_llr(code, 1.8F, 9);
  std::vector<std::int32_t> in_rail(llr.size());
  for (std::size_t v = 0; v < llr.size(); ++v)
    in_rail[v] = TypeParam::quantize(llr[v]);
  std::vector<std::int32_t> out_of_rail = in_rail;
  out_of_rail[5] = TypeParam::out_of_rail();

  const DecodeResult ref_in = scalar->decode_quantized(in_rail);
  const SaturationStats sat_in = scalar->saturation();
  const DecodeResult ref_out = scalar->decode_quantized(out_of_rail);
  const SaturationStats sat_out = scalar->saturation();

  for (const simd::SimdTier tier : simd::available_tiers()) {
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    const auto lane = TypeParam::zlane(code, opt, tier);

    const DecodeResult rv_in = lane->decode_quantized(in_rail);
    EXPECT_EQ(rv_in.simd_fallback, SimdFallback::kNone) << ctx;
    EXPECT_EQ(lane->last_fallback(), SimdFallback::kNone) << ctx;
    expect_same_decode(ref_in, sat_in, rv_in, lane->saturation(),
                       ctx + " in-rail");

    const DecodeResult rv_out = lane->decode_quantized(out_of_rail);
    EXPECT_EQ(rv_out.simd_fallback, SimdFallback::kOutOfRailInput) << ctx;
    EXPECT_EQ(lane->last_fallback(), SimdFallback::kOutOfRailInput) << ctx;
    expect_same_decode(ref_out, sat_out, rv_out, lane->saturation(),
                       ctx + " out-of-rail");
  }
}

TYPED_TEST(SimdFamily, ZLaneObserverSnapshotsIdentical) {
  const auto code = make_wifi_648_half_rate();
  const auto llr = noisy_llr(code, 1.8F, 13);
  std::vector<IterationSnapshot> ref_snaps;
  DecoderOptions ref_opt = counting_options();
  ref_opt.observer = [&](const IterationSnapshot& s) {
    ref_snaps.push_back(s);
  };
  TypeParam::scalar(code, ref_opt)->decode(llr);
  ASSERT_FALSE(ref_snaps.empty());

  for (const simd::SimdTier tier : simd::available_tiers()) {
    const std::string ctx = std::string("tier=") + simd::to_string(tier);
    std::vector<IterationSnapshot> snaps;
    DecoderOptions opt = counting_options();
    opt.observer = [&](const IterationSnapshot& s) { snaps.push_back(s); };
    const DecodeResult rv = TypeParam::zlane(code, opt, tier)->decode(llr);
    EXPECT_EQ(rv.simd_fallback, SimdFallback::kNone) << ctx;
    ASSERT_EQ(ref_snaps.size(), snaps.size()) << ctx;
    for (std::size_t i = 0; i < snaps.size(); ++i) {
      EXPECT_EQ(ref_snaps[i].iteration, snaps[i].iteration) << ctx;
      EXPECT_EQ(ref_snaps[i].syndrome_weight, snaps[i].syndrome_weight) << ctx;
      EXPECT_EQ(ref_snaps[i].mean_abs_llr, snaps[i].mean_abs_llr) << ctx;
      EXPECT_EQ(ref_snaps[i].flipped_bits, snaps[i].flipped_bits) << ctx;
      EXPECT_EQ(ref_snaps[i].saturation_clips, snaps[i].saturation_clips)
          << ctx;
    }
  }
}

}  // namespace
}  // namespace ldpc
