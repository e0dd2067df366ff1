// SIMD z-lane layered min-sum driver, one template over the two message
// policies of simd_messages.hpp:
//
//   SimdLayeredDecoder    int16 q-format scaled / offset min-sum, asserted
//                         bit-identical to LayeredMinSumFixedDecoder in
//                         tests/simd_equivalence_test.cpp
//   SimdFaLayeredDecoder  int8 finite-alphabet fa2/fa3/fa4, asserted
//                         bit-identical to LayeredMinSumFaDecoder in
//                         tests/simd_fa_equivalence_test.cpp
//
// Same algorithm, schedule, and arithmetic as the scalar reference (hard
// bits, iteration counts, convergence status, saturation counters), but
// the z check rows of each layer execute as SIMD lanes instead of a scalar
// loop, mirroring the paper's z parallel datapath copies (Fig. 3).
//
// Memory layout: posteriors live in natural variable order as lane codes.
// Per layer, each non-zero block column's z posteriors are gathered into an
// aligned structure-of-arrays scratch with the circulant rotation applied —
// (row + shift) % z collapses into two memcpys, the software analogue of
// the barrel shifter — so that lane r of every vector op is exactly check
// row r of the layer. Check messages are stored row-major per R slot with a
// padded stride, so they need no rotation at all. After the vector pass
// the updated posteriors rotate back on scatter. Padding lanes hold zeros
// on entry and provably produce no saturation or message traffic.
//
// Exactness envelope: configurations outside the lane envelope
// (int16 formats wider than 15 bits or offsets beyond int16; int8 layer
// degrees >= 128), decodes with an active fault injector (whose corruption
// sequence is defined by scalar access order) and out-of-rail quantized
// inputs transparently delegate to an embedded scalar twin — behaviour,
// results, and stats stay identical, only the speed differs, and the
// bypass reason is recorded in DecodeResult::simd_fallback.
// The batched driver (simd_batch.hpp) subclasses this one, so the scalar
// twin is the only decoder nested inside either shape.
#pragma once

#include <concepts>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "codes/qc_code.hpp"
#include "core/decoder.hpp"
#include "core/fa_tables.hpp"
#include "core/quant.hpp"
#include "core/simd/simd_kernel.hpp"
#include "core/simd/simd_messages.hpp"
#include "util/aligned.hpp"

namespace ldpc {

template <class P>
class SimdZLaneDriver : public Decoder {
 public:
  using Elem = typename P::Elem;

  /// int16: normalized min-sum, scale taken from options (0.75 -> the
  /// paper's shift-add, anything else -> truncating num/16), like the
  /// scalar decoder's primary constructor. `tier` pins a specific kernel
  /// tier (tests); default picks the best available at runtime.
  SimdZLaneDriver(const QCLdpcCode& code, DecoderOptions options,
                  FixedFormat format = FixedFormat{},
                  std::optional<simd::SimdTier> tier = std::nullopt)
    requires std::same_as<P, simd::Q16Messages>;

  /// int16 offset-min-sum variant: magnitudes corrected by
  /// max(|m| - offset, 0), `offset_code` in quantized units (mirrors
  /// LayerRowKernel::offset_kernel).
  SimdZLaneDriver(const QCLdpcCode& code, DecoderOptions options,
                  FixedFormat format, std::int32_t offset_code,
                  std::string label,
                  std::optional<simd::SimdTier> tier = std::nullopt)
    requires std::same_as<P, simd::Q16Messages>;

  /// int8 finite alphabet: `msg_bits` in {2, 3, 4}; the MIM tables are
  /// built by the embedded scalar twin at construction.
  SimdZLaneDriver(const QCLdpcCode& code, DecoderOptions options,
                  int msg_bits, float design_ebn0_db = 2.0F,
                  std::optional<simd::SimdTier> tier = std::nullopt)
    requires std::same_as<P, simd::FaMessages>;

  DecodeResult decode(std::span<const float> llr) override;
  std::size_t n() const override { return code_.n(); }
  std::size_t k() const override { return code_.k(); }
  std::string name() const override {
    return label_.empty() ? "layered-minsum-simd-" + msg_.name() : label_;
  }
  std::string message_format() const override { return msg_.name(); }
  SaturationStats saturation() const override;
  void set_cancel_token(const CancelToken* token) override;

  /// Decode from already-quantized channel codes (the scalar decoder's
  /// bit-exact entry point). Codes outside the policy's rails route to the
  /// scalar twin, which accepts arbitrary int32 messages.
  DecodeResult decode_quantized(std::span<const std::int32_t> channel_codes);

  /// Posterior grid (int8: q8.2; messages are `tables().msg_bits` wide).
  FixedFormat format() const { return msg_.format; }

  /// The finite-alphabet MIM tables (owned by the scalar twin).
  const FaTableSet& tables() const
    requires std::same_as<P, simd::FaMessages>
  {
    return *msg_.tables;
  }

  /// Kernel tier this decoder dispatches to.
  simd::SimdTier tier() const { return msg_.tier; }

  /// True when the configuration is outside the lane envelope and every
  /// decode delegates to the scalar twin.
  bool scalar_only() const { return force_scalar_; }

  /// Why the most recent decode bypassed the lane kernel (kNone when the
  /// vector path ran) — the same value stamped into its DecodeResult.
  SimdFallback last_fallback() const { return last_fallback_; }

 protected:  // shared with the batched subclass (simd_batch.hpp)
  /// Why this configuration cannot use the lane kernel (kNone: it can).
  SimdFallback config_fallback() const;

  const QCLdpcCode& code_;
  DecoderOptions options_;
  /// Scalar twin: construction-time validation of the kernel config (and,
  /// for the finite alphabet, the MIM tables) plus the exact fallback.
  /// Declared before msg_, which may read it during construction.
  std::unique_ptr<typename P::Scalar> scalar_;
  P msg_;
  std::uint32_t z_ = 0;
  /// Stats of the most recent vector-path decode (saturation() reports
  /// the scalar twin's instead when that decode fell back).
  SaturationStats saturation_;
  bool last_used_scalar_ = false;
  SimdFallback last_fallback_ = SimdFallback::kNone;

 private:
  struct GatherBlock {
    std::uint32_t p_base;  ///< block_col * z into the posterior array
    std::uint32_t shift;   ///< circulant rotation, already reduced mod z
  };

  void init_geometry();
  /// Stamp a scalar-twin result with the reason the lane kernel was skipped.
  DecodeResult on_scalar(DecodeResult result, SimdFallback reason);
  DecodeResult run();

  std::string label_;  ///< empty: derived from the message format
  const CancelToken* cancel_ = nullptr;  ///< non-owning, may be null

  std::uint32_t z_pad_ = 0;  ///< z rounded up to max(16, tier lane count)
  std::vector<std::vector<GatherBlock>> gather_;     ///< per layer
  std::vector<std::vector<std::uint32_t>> r_base_;   ///< per layer, kernel view
  AlignedVec<Elem> posterior_;  ///< P memory, natural order
  AlignedVec<Elem> r_;          ///< R memory, r_slot * z_pad + row
  AlignedVec<Elem> p_scratch_;  ///< gathered P lanes, deg * z_pad
  AlignedVec<Elem> q_scratch_;  ///< Q_array lanes, deg * z_pad

  bool force_scalar_ = false;
};

using SimdLayeredDecoder = SimdZLaneDriver<simd::Q16Messages>;
using SimdFaLayeredDecoder = SimdZLaneDriver<simd::FaMessages>;

extern template class SimdZLaneDriver<simd::Q16Messages>;
extern template class SimdZLaneDriver<simd::FaMessages>;

}  // namespace ldpc
