// Message policies of the SIMD layered decoders.
//
// The paper's layered schedule (Algorithm 1) is one algorithm whatever the
// check-node correction: core 1 forms Q = P - R and min1/min2/pos1/sign,
// core 2 writes R' and P'. The SIMD decoders therefore have one driver per
// vector shape — the z-lane driver (simd_layered.hpp: the z check rows of a
// layer as lanes) and the batched driver (simd_batch.hpp: one frame per
// lane) — and plug in one of two message policies for what differs:
//
//   Q16Messages  int16 q-format codes, the 0.75 shift-add (or num/16,
//                or offset) correction; scalar reference
//                LayeredMinSumFixedDecoder
//   FaMessages   int8 finite-alphabet codes on the symmetric +-127 rail,
//                per-iteration MIM staircase tables; scalar reference
//                LayeredMinSumFaDecoder
//
// A policy holds the lane element type and count, the tier's kernel
// entry points, the channel quantizer (one kernel for both families, set
// up with the family's grid and rails), the kernel's check-node parameters,
// the per-iteration table hooks and the format envelope. The drivers call
// it through the concrete type: every call resolves at compile time, and
// the q16 hooks are empty inline functions.
#pragma once

#include <cstdint>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "core/fa_tables.hpp"
#include "core/layered_minsum_fa.hpp"
#include "core/layered_minsum_fixed.hpp"
#include "core/quant.hpp"
#include "core/simd/simd_kernel.hpp"
#include "util/aligned.hpp"

namespace ldpc::simd {

/// int16 q-format messages: the paper's fixed-point datapath.
class Q16Messages {
 public:
  using Elem = std::int16_t;
  using Scalar = LayeredMinSumFixedDecoder;

  /// Normalized min-sum: 0.75 -> the paper's shift-add, anything else ->
  /// truncating num/16, like the scalar decoder's primary constructor.
  Q16Messages(FixedFormat format, float scale,
              std::optional<SimdTier> tier);

  /// Offset min-sum: magnitudes corrected by max(|m| - offset, 0),
  /// `offset_code` in quantized units (LayerRowKernel::offset_kernel).
  static Q16Messages offset(FixedFormat format, std::int32_t offset_code,
                            std::optional<SimdTier> tier);

  static std::uint32_t lanes(SimdTier t) { return tier_lanes(t); }
  std::string name() const { return format.name(); }
  std::int32_t rail_lo() const { return format.min_code(); }
  std::int32_t rail_hi() const { return format.max_code(); }

  /// Format envelope: the int16 lane arithmetic reproduces the scalar
  /// int32/int64 saturating ops only for formats up to 15 total bits and
  /// offsets that fit an int16 lane.
  bool format_fits() const { return !wide_; }

  Elem quantize(float llr, long long& clips) const {
    return static_cast<Elem>(format.quantize(llr, clips));
  }
  /// Uncounted quantizer into a contiguous row: the tier's quantize kernel,
  /// bit-identical to FixedFormat::quantize (see SimdQuantizePass).
  void quantize_row(const float* llr, Elem* out, std::size_t n) const {
    SimdQuantizePass qp = quant_;
    qp.llr = llr;
    qp.n = n;
    qp.out16 = out;
    kernels_->quantize_pass(qp);
  }

  /// Rails and correction, the same for either pass shape.
  template <class Pass>
  void setup(Pass& pass) const {
    pass.check = check_;
  }

  // One correction for every iteration: no per-iteration state, and the
  // zero pad lanes of P and R produce zero R' (the scaled or offset min of
  // zero is zero), so R's pad lanes stay zero without help.
  void start_iteration(SimdLayerPass<Elem>& /*pass*/,
                       std::size_t /*iter*/) const {}
  void finish_layer(const SimdLayerPass<Elem>& /*pass*/,
                    std::uint32_t /*z*/) const {}
  void bind_lanes(std::uint32_t /*lanes*/) {}
  void start_lane_iteration(std::uint32_t /*f*/, std::size_t /*iter*/) {}

  void layer(const SimdLayerPass<Elem>& pass) const {
    kernels_->layer_pass(pass);
  }
  void batch_layer(const SimdBatchLayerPass<Elem>& pass) const {
    kernels_->batch_layer_pass(pass);
  }
  void batch_syndrome(const SimdBatchSyndromePass<Elem>& pass) const {
    kernels_->batch_syndrome_pass(pass);
  }
  void batch_drain(const SimdBatchDrainPass<Elem>& pass) const {
    kernels_->batch_drain_pass(pass);
  }

  SimdTier tier;
  FixedFormat format;

 private:
  const Kernels* kernels_;
  SimdQuantizePass quant_;  ///< scale, pre-limit and rails; no buffers
  Q16Check check_;
  bool wide_ = false;  ///< outside the int16 lane envelope
};

/// int8 finite-alphabet messages (fa2/fa3/fa4, see core/fa_tables.hpp).
class FaMessages {
 public:
  using Elem = std::int8_t;
  using Scalar = LayeredMinSumFaDecoder;

  /// `tables` is owned by the scalar twin and must outlive the policy.
  FaMessages(const FaTableSet& tables, std::optional<SimdTier> tier);

  static std::uint32_t lanes(SimdTier t) { return tier_lanes8(t); }
  std::string name() const { return tables->name(); }
  std::int32_t rail_lo() const { return -kFaRail; }
  std::int32_t rail_hi() const { return kFaRail; }

  /// Every value lives on the symmetric +-127 rail: no wide format.
  bool format_fits() const { return true; }

  Elem quantize(float llr, long long& clips) const {
    return static_cast<Elem>(fa_quantize(format, llr, clips));
  }
  /// Uncounted quantizer into a contiguous row: the tier's quantize kernel,
  /// bit-identical to fa_quantize (see SimdQuantizePass).
  void quantize_row(const float* llr, Elem* out, std::size_t n) const {
    SimdQuantizePass qp = quant_;
    qp.llr = llr;
    qp.n = n;
    qp.out8 = out;
    kernels_->quantize_pass(qp);
  }

  void setup(SimdLayerPass<Elem>& pass) const {
    pass.check.num_thr = num_thr_;
  }
  /// Batched shape: the per-lane staircase columns (see bind_lanes).
  void setup(SimdBatchLayerPass<Elem>& pass) const {
    pass.check = {thr_lanes_.data(), delta_lanes_.data(),
                  recon0_lanes_.data(), num_thr_};
  }

  /// z-lane shape: point the pass at this iteration's staircase
  /// (iterations beyond the table count reuse the last one).
  void start_iteration(SimdLayerPass<Elem>& pass, std::size_t iter) const {
    const IterTable& it = table_for(iter);
    pass.check.thr = it.thr;
    pass.check.delta = it.delta;
    pass.check.recon0 = &it.recon0;
  }

  /// z-lane shape: restore the all-zero-pad R invariant. The pass wrote
  /// +recon0 into the pad lanes of every touched slot (zero rows have a
  /// positive sign product); zero them so the next layer that reads these
  /// slots sees clip-free padding again (P'_pad = recon0 <= 127).
  void finish_layer(const SimdLayerPass<Elem>& pass, std::uint32_t z) const {
    if (pass.z_pad == z) return;
    for (std::uint32_t j = 0; j < pass.deg; ++j)
      std::memset(pass.r + pass.r_base[j] + z, 0, pass.z_pad - z);
  }

  /// Batched shape: lanes sit at independent iteration counts, so the
  /// kernel takes the staircase as per-lane columns (thr/delta: num_thr
  /// rows of `lanes`; recon0: one row).
  void bind_lanes(std::uint32_t lanes);

  /// Batched shape: refresh lane f's staircase column for its iteration
  /// `iter`. A lane's iterations count up from 1, so its table index
  /// min(iter-1, T-1) changes exactly while iter <= T — a handful of
  /// scalar byte stores per lane per iteration, nothing on the row sweep.
  void start_lane_iteration(std::uint32_t f, std::size_t iter) {
    if (iter > iter_tables_.size()) return;
    const IterTable& it = iter_tables_[iter - 1];
    recon0_lanes_[f] = it.recon0;
    for (std::uint32_t k = 0; k < num_thr_; ++k) {
      thr_lanes_[k * lanes_ + f] = it.thr[k];
      delta_lanes_[k * lanes_ + f] = it.delta[k];
    }
  }

  void layer(const SimdLayerPass<Elem>& pass) const {
    kernels_->fa_layer_pass(pass);
  }
  void batch_layer(const SimdBatchLayerPass<Elem>& pass) const {
    kernels_->fa_batch_layer_pass(pass);
  }
  void batch_syndrome(const SimdBatchSyndromePass<Elem>& pass) const {
    kernels_->fa_batch_syndrome_pass(pass);
  }
  void batch_drain(const SimdBatchDrainPass<Elem>& pass) const {
    kernels_->fa_batch_drain_pass(pass);
  }

  SimdTier tier;
  const FaTableSet* tables;  ///< non-owning
  FixedFormat format;        ///< posterior grid (q8.2)

 private:
  /// One decode iteration's staircase, kernel-ready: thresholds plus
  /// nonnegative reconstruction deltas (recon[t+1] - recon[t]).
  struct IterTable {
    std::int8_t thr[kFaMaxThresholds];
    std::int8_t delta[kFaMaxThresholds];
    std::int8_t recon0;
  };

  const Kernels* kernels_;
  SimdQuantizePass quant_;  ///< scale, pre-limit and rails; no buffers
  std::uint32_t num_thr_ = 0;  ///< staircase thresholds (levels - 1)

  const IterTable& table_for(std::size_t iter) const {
    return iter_tables_[iter - 1 < iter_tables_.size()
                            ? iter - 1
                            : iter_tables_.size() - 1];
  }

  std::vector<IterTable> iter_tables_;  ///< one per table, kernel layout
  std::uint32_t lanes_ = 0;             ///< batched lane stride F
  AlignedVec<std::int8_t> thr_lanes_;     ///< num_thr rows * F, per-lane
  AlignedVec<std::int8_t> delta_lanes_;   ///< num_thr rows * F, per-lane
  AlignedVec<std::int8_t> recon0_lanes_;  ///< F, per-lane recon[0]
};

}  // namespace ldpc::simd
