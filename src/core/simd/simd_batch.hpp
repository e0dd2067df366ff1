// Inter-frame-batched SIMD layered min-sum driver, one template over the
// two message policies of simd_messages.hpp, extending the z-lane driver:
//
//   SimdBatchDecoder    int16 q-format scaled min-sum, F = tier_lanes frames
//                       per block (AVX-512: 32)
//   SimdFaBatchDecoder  int8 finite-alphabet fa2/fa3/fa4, F = tier_lanes8
//                       frames per block (AVX-512: 64)
//
// The z-lane driver (simd_layered.hpp) maps the z check rows of a layer
// onto vector lanes — full lanes only when z is a multiple of the tier
// width, and never wider than z. This driver turns the lane axis sideways:
// lane f carries *frame* f of a block, every array is lane-major with
// stride F (p[v * F + f]), and the z rows of a layer run serially.
// Consequences:
//
//   * every lane is full for any z — z = 10 wastes 6 of 16 AVX2 lanes in
//     the z-lane kernel, zero lanes here;
//   * the circulant rotation becomes a scalar index per vector load — the
//     barrel-shift gather/scatter memcpys of the z-lane kernel disappear;
//   * the per-iteration parity probe covers all frames at once: one sweep
//     takes each posterior row's lane sign mask, and a check row's
//     unsatisfied lanes are the XOR of its variables' 64-bit masks, so
//     early termination no longer serializes;
//   * the AVX-512 tier decodes 32 (int16) or 64 (int8) frames per sweep.
//
// Frames inside a block are independent decodes at independent iteration
// counts: when a lane's frame converges (or expires, or exhausts its
// budget) the lane is refilled with the next pending frame *mid-block*, so
// block throughput tracks the mean iteration count, not the max — a
// lockstep batch would pay the slowest frame's iterations on every lane.
// Lanes that retire at one iteration boundary read their hard bits out of
// the same sign masks that decided their parity, and lanes claimed at one
// boundary are loaded together (one tiled quantize-and-scatter sweep), so
// the per-frame work touches each posterior line once per boundary, not
// once per frame.
// The finite-alphabet tables are per-iteration, so that policy keeps one
// staircase column per lane and refreshes it as the lane's iteration moves.
//
// Per-frame results are bit-identical to the scalar reference — hard bits,
// iteration counts, status, per-site SaturationStats — asserted in
// tests/simd_batch_test.cpp and tests/simd_fa_equivalence_test.cpp across
// tiers, z values and block sizes. Blocks outside the lane envelope, fault
// campaigns and per-iteration observers decode frame by frame on the
// inherited z-lane path — one hop from the scalar reference — with the
// reason recorded in DecodeResult::simd_fallback.
#pragma once

#include <concepts>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "codes/qc_code.hpp"
#include "core/decoder.hpp"
#include "core/quant.hpp"
#include "core/simd/simd_kernel.hpp"
#include "core/simd/simd_layered.hpp"
#include "core/simd/simd_messages.hpp"
#include "util/aligned.hpp"

namespace ldpc {

template <class P>
class SimdBatchDriver : public SimdZLaneDriver<P> {
 public:
  using Elem = typename P::Elem;

  /// int16: normalized min-sum; scale taken from options (0.75 -> the
  /// paper's shift-add, anything else -> truncating num/16), mirroring the
  /// scalar and z-lane decoders. `tier` pins a kernel tier (tests); default
  /// picks the best available at runtime.
  SimdBatchDriver(const QCLdpcCode& code, DecoderOptions options,
                  FixedFormat format = FixedFormat{},
                  std::optional<simd::SimdTier> tier = std::nullopt)
    requires std::same_as<P, simd::Q16Messages>;

  /// int8 finite alphabet: `msg_bits` in {2, 3, 4}; the MIM tables are
  /// built once, by the scalar reference.
  SimdBatchDriver(const QCLdpcCode& code, DecoderOptions options,
                  int msg_bits, float design_ebn0_db = 2.0F,
                  std::optional<simd::SimdTier> tier = std::nullopt)
    requires std::same_as<P, simd::FaMessages>;

  // Single-frame decode() is the inherited z-lane path: with one frame
  // there is nothing to batch, and the z-lane kernel is the faster shape.
  // A one-frame decode_block takes the same path, with no fallback reason.

  void decode_block(std::span<const BlockFrame> frames,
                    std::span<DecodeResult> results,
                    std::span<SaturationStats> saturation) override;

  std::string name() const override {
    return "layered-minsum-simd-batched-" + msg_.name();
  }

  /// Frames per full block = the tier's lane count for the element type.
  std::size_t block_width() const override { return lanes_; }

 private:
  using Base = SimdZLaneDriver<P>;
  using Base::code_;
  using Base::last_fallback_;
  using Base::last_used_scalar_;
  using Base::msg_;
  using Base::options_;
  using Base::saturation_;
  using Base::z_;

  static constexpr std::size_t kIdleLane = static_cast<std::size_t>(-1);
  /// Variable rows per refill tile: kRefillRows * F lanes of posteriors
  /// (8 KB at AVX-512 width) stay L1-resident while every lane claimed at
  /// the boundary is scattered into them.
  static constexpr std::size_t kRefillRows = 128;

  /// Per-lane decode-in-flight state; `frame` indexes into the current
  /// decode_block call's spans (kIdleLane when the lane holds no frame).
  struct Lane {
    std::size_t frame = kIdleLane;
    std::size_t iter = 0;
    WatchdogState watchdog{WatchdogOptions{}};
    const CancelToken* cancel = nullptr;
  };

  void init_block_geometry();
  void run_block(std::span<const BlockFrame> frames,
                 std::span<DecodeResult> results,
                 std::span<SaturationStats> saturation);

  std::uint32_t lanes_ = 0;  ///< F: frames per block, lane-major stride

  std::vector<std::vector<simd::BatchBlock>> layers_;
  AlignedVec<Elem> p_;       ///< n rows * F lanes posteriors
  AlignedVec<Elem> r_;       ///< nonzero_blocks * z rows * F check messages
  AlignedVec<Elem> q_;       ///< max_deg * F row scratch
  AlignedVec<Elem> active_;  ///< F lane mask (-1 live, 0 idle)
  AlignedVec<Elem> r_keep_;  ///< F lane mask (0 = first iteration, R reads
                             ///< as 0 — see r_keep in SimdBatchLayerPass)
  AlignedVec<std::uint64_t> signs_;   ///< per-row lane sign masks
  AlignedVec<std::uint64_t> words_;   ///< retiring lanes' hard-bit words
  AlignedVec<std::uint64_t> check_rows_;  ///< one layer's z unsatisfied-
                                          ///< lane words (parity scratch)
  std::vector<std::uint32_t> loading_;   ///< lanes claimed at this boundary
  std::vector<std::uint32_t> retiring_;  ///< lanes retired at this boundary
  std::vector<Lane> lane_;
  std::vector<long long> q_clips_;     ///< per-lane clip accumulators
  std::vector<long long> r_clips_;     ///< (int8: structurally zero)
  std::vector<long long> p_clips_;
  std::vector<long long> degenerate_;  ///< per-lane degenerate checks
  std::vector<std::int32_t> weight_;   ///< per-lane syndrome weights
};

using SimdBatchDecoder = SimdBatchDriver<simd::Q16Messages>;
using SimdFaBatchDecoder = SimdBatchDriver<simd::FaMessages>;

extern template class SimdBatchDriver<simd::Q16Messages>;
extern template class SimdBatchDriver<simd::FaMessages>;

}  // namespace ldpc
