// Vector kernel interface for the SIMD layered min-sum decoder.
//
// One layer of the paper's schedule updates `z` independent check rows —
// the hardware instantiates z datapath copies (Fig. 3) and runs them in
// lockstep. The software analogue maps row r of the layer onto SIMD lane
// r: posteriors are pre-rotated into a structure-of-arrays scratch (the
// (row + shift) % z gather collapses into two memcpys, mirroring the
// barrel shifter), after which every message update is a vertical int16
// lane operation. The kernels below implement exactly the LayerRowKernel
// arithmetic — saturating Q = P - R, min1/min2/pos1/sign tracking via
// compare/blend, the multiplier-free (x>>1)+(x>>2) scaling, saturating
// R'/P' write-back — and are asserted bit-identical to the scalar decoder
// in tests/simd_equivalence_test.cpp.
//
// Four tiers share one templated implementation (simd_kernel_impl.hpp):
//   kAvx512    32 lanes / step, compiled only on x86-64 with LDPC_SIMD=ON,
//              dispatched after a runtime avx512f+avx512bw check
//   kAvx2      16 lanes / step, compiled only on x86-64 with LDPC_SIMD=ON
//   kSse2      8 lanes / step, ditto (baseline on every x86-64 CPU)
//   kPortable  fixed-width 8-lane arrays, plain C++ the autovectorizer
//              can chew on; always compiled, the only tier when
//              LDPC_SIMD=OFF or on non-x86 hosts
// Tier selection happens once per decoder at construction (best available,
// overridable with the LDPC_SIMD_TIER environment variable or an explicit
// constructor argument).
//
// Besides the z-lane layer pass, each tier also instantiates the
// inter-frame-batched kernels (batch_layer_pass / batch_syndrome_pass):
// one *frame* per lane instead of one check row per lane, so every lane is
// full regardless of z. See SimdBatchLayerPass below and simd_batch.hpp.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/decoder.hpp"

namespace ldpc::simd {

/// How check-message magnitudes are corrected, mirroring LayerRowKernel:
/// the paper's 0.75 shift-add, a truncating num/16 ratio (ablation
/// sweeps), or offset min-sum max(|m| - offset, 0).
enum class ScaleMode : std::uint8_t {
  kThreeQuarters,  ///< (x>>1) + (x>>2), truncating per shift
  kNumOver16,      ///< (x * num) / 16, truncating once
  kOffset,         ///< max(x - offset, 0)
};

/// One layer's worth of work for a vector kernel. All pointers reference
/// int16 lane buffers padded to a multiple of 16 lanes (z_pad); padding
/// lanes hold zeros and provably generate no saturation events, so the
/// tail of a non-multiple-of-lane-width z rides in the same vector ops.
struct SimdLayerPass {
  std::int16_t* p;             ///< deg * z_pad gathered posteriors (in/out)
  std::int16_t* q;             ///< deg * z_pad Q scratch (Fig. 5's Q_array)
  std::int16_t* r;             ///< R memory base, stride z_pad per slot
  const std::uint32_t* r_base; ///< deg offsets into `r` (multiples of z_pad)
  std::uint32_t deg;           ///< non-zero blocks in this layer
  std::uint32_t z_pad;         ///< z rounded up to a multiple of 16
  std::int16_t lo;             ///< format rail: fixed_min(total_bits)
  std::int16_t hi;             ///< format rail: fixed_max(total_bits)
  ScaleMode mode;
  std::int16_t scale_num;      ///< numerator for kNumOver16
  std::int16_t offset_code;    ///< subtrahend for kOffset
  bool degenerate;             ///< deg < 2: force R' = 0 (no extrinsic input)
  bool count_clips;            ///< accumulate saturation events into *stats
  /// Per-site clip counters (used iff count_clips): the Q clamp fills
  /// q_clips, the R' clamp r_clips, the P' clamp p_clips — same attribution
  /// as the scalar LayerRowKernel, so the equivalence suite can compare
  /// site-for-site and the static range verifier's proofs apply unchanged.
  SaturationStats* stats;
};

using LayerPassFn = void (*)(const SimdLayerPass&);

enum class SimdTier : std::uint8_t { kPortable, kSse2, kAvx2, kAvx512 };

inline const char* to_string(SimdTier t) {
  switch (t) {
    case SimdTier::kPortable: return "portable";
    case SimdTier::kSse2:     return "sse2";
    case SimdTier::kAvx2:     return "avx2";
    case SimdTier::kAvx512:   return "avx512";
  }
  return "?";
}

/// Lanes per vector step of a tier — the stride padding granularity of the
/// z-lane kernel and the natural frames-per-block of the batched kernel.
constexpr std::uint32_t tier_lanes(SimdTier t) {
  switch (t) {
    case SimdTier::kPortable: return 8;
    case SimdTier::kSse2:     return 8;
    case SimdTier::kAvx2:     return 16;
    case SimdTier::kAvx512:   return 32;
  }
  return 8;
}

// ---------------------------------------------------------------------------
// Inter-frame-batched kernels: frame f rides in lane f. The posterior /
// check-message / scratch arrays are lane-major with stride F = tier lane
// count (p[v * F + f]), so one vector load reads variable v of all F frames
// at once and the circulant rotation degenerates to a scalar index — no
// gather, no barrel-shift memcpys, and every lane is full for any z.
// ---------------------------------------------------------------------------

/// Rows of slack the batched kernels' software prefetch may touch past the
/// logical end of the posterior / check-message arrays (and past a
/// circulant wrap). Callers allocate this many extra kF-lane rows.
constexpr std::uint32_t kBatchPrefetchPad = 16;

/// One non-zero block of a layer, batch-kernel view. Offsets are in rows
/// (the kernel multiplies by the lane stride F itself).
struct BatchBlock {
  std::uint32_t p_base;  ///< block_col * z into the posterior rows
  std::uint32_t shift;   ///< circulant rotation, already reduced mod z
  std::uint32_t r_base;  ///< r_slot * z into the check-message rows
};

/// One layer of work for the batched kernel: z serial check rows, F frames
/// in lanes. Inactive lanes (retired or not-yet-filled frames) still flow
/// through the arithmetic — their stores are garbage nobody reads — but
/// clip accounting is masked by `active` so per-frame SaturationStats stay
/// exact.
struct SimdBatchLayerPass {
  std::int16_t* p;             ///< n rows * F lanes posteriors (in/out)
  std::int16_t* q;             ///< deg * F Q scratch (one row at a time)
  std::int16_t* r;             ///< R memory, nonzero_blocks * z rows * F
  const BatchBlock* blocks;    ///< deg block descriptors
  std::uint32_t deg;           ///< non-zero blocks in this layer
  std::uint32_t z;             ///< circulant size (serial row count)
  const std::int16_t* active;  ///< F lane mask, -1 = live frame, 0 = idle
  /// F lane mask: -1 = the lane's R memory is valid, 0 = the lane is in its
  /// first iteration and R reads as 0. Each R slot is read exactly once per
  /// iteration (by its own layer) and rewritten in the same row step, so
  /// masking reads for one full iteration replaces zero-filling the lane's
  /// whole R column at refill — a strided walk over every R cache line that
  /// cost more than a decode iteration.
  const std::int16_t* r_keep;
  std::int16_t lo;             ///< format rail: fixed_min(total_bits)
  std::int16_t hi;             ///< format rail: fixed_max(total_bits)
  ScaleMode mode;
  std::int16_t scale_num;      ///< numerator for kNumOver16
  std::int16_t offset_code;    ///< subtrahend for kOffset
  bool degenerate;             ///< deg < 2: force R' = 0
  bool count_clips;            ///< accumulate per-lane clip counters
  /// Per-lane (= per-frame) clip accumulators, F entries each (used iff
  /// count_clips). Same per-site attribution as the scalar LayerRowKernel.
  long long* q_clips;
  long long* r_clips;
  long long* p_clips;
};

/// Per-lane syndrome accumulation for one layer: adds the number of this
/// layer's z check rows that are unsatisfied in lane f to weight[f].
/// Summed over all layers this equals QCLdpcCode::syndrome_weight of the
/// lane's hard decisions (weight == 0 <=> parity_ok), vectorized so the
/// per-iteration early-termination / watchdog probe does not serialize the
/// batch.
struct SimdBatchSyndromePass {
  const std::int16_t* p;       ///< n rows * F lanes posteriors
  const BatchBlock* blocks;    ///< deg block descriptors
  std::uint32_t deg;
  std::uint32_t z;
  std::int32_t* weight;        ///< F accumulators (+= per-lane unsat rows)
};

using BatchLayerPassFn = void (*)(const SimdBatchLayerPass&);
using BatchSyndromePassFn = void (*)(const SimdBatchSyndromePass&);

// ---------------------------------------------------------------------------
// Finite-alphabet int8 kernels (fa2/fa3/fa4, see core/fa_tables.hpp): same
// two shapes as the int16 kernels — z-lane layer pass and inter-frame-
// batched pass — at twice the lane density (int8 lanes: portable/SSE2 16,
// AVX2 32, AVX-512 64). The datapath lives on the symmetric [-127, +127]
// rail, so abs/negate of any value is representable; the check-message
// magnitude is a staircase lookup, vectorized as
//   recon = recon0 + sum_t (mag > thr[t] ? delta[t] : 0)
// with delta[t] = recon[t+1] - recon[t] >= 0 and every partial sum <= 127
// (the reconstruction levels are nondecreasing), so the adds cannot wrap.
// The staircase output is always in-alphabet: R' needs no clamp and
// r_clips is structurally zero for this family (matching the scalar
// FaRowKernel). Saturation lives at the Q = P - R and P' = Q + R' sites,
// computed with saturating int8 ops re-railed to -127; in counted mode the
// exact clip predicate is recovered from the saturating/wrapping pair:
//   clip  <=>  subs8(a,b) != sub8(a,b)  or  sub8(a,b) == -128
// (true exactly when the exact result falls outside [-127, +127]).
// ---------------------------------------------------------------------------

/// Lanes per vector step of a tier in the int8 FA kernels — twice
/// tier_lanes() on the x86 tiers, and the padding granularity of the FA
/// z-lane layout.
constexpr std::uint32_t tier_lanes8(SimdTier t) {
  switch (t) {
    case SimdTier::kPortable: return 16;
    case SimdTier::kSse2:     return 16;
    case SimdTier::kAvx2:     return 32;
    case SimdTier::kAvx512:   return 64;
  }
  return 16;
}

/// Maximum staircase thresholds any FA pass carries (fa4: 8 levels - 1).
inline constexpr std::uint32_t kFaMaxThresholds = 7;

/// One layer's worth of the z-lane finite-alphabet kernel. Same geometry
/// as SimdLayerPass with int8 storage; `z_pad` is z rounded up to a
/// multiple of the tier's int8 lane count. Padding lanes hold zeros on
/// entry; the pass writes +recon0 into pad R lanes (sign product of zero
/// is positive) — the caller re-zeroes the touched slots' pad lanes after
/// the pass, preserving the all-zero-pad invariant and keeping pad lanes
/// provably clip-free (P'_pad = recon0 <= 127).
struct SimdFaLayerPass {
  std::int8_t* p;              ///< deg * z_pad gathered posteriors (in/out)
  std::int8_t* q;              ///< deg * z_pad Q scratch
  std::int8_t* r;              ///< R memory base, stride z_pad per slot
  const std::uint32_t* r_base; ///< deg offsets into `r` (multiples of z_pad)
  std::uint32_t deg;           ///< non-zero blocks in this layer (< 128)
  std::uint32_t z_pad;         ///< z rounded up to the int8 lane count
  const std::int8_t* thr;      ///< num_thr staircase thresholds (this iter)
  const std::int8_t* delta;    ///< num_thr recon deltas, all >= 0
  std::int8_t recon0;          ///< recon[0] (lowest reconstruction level)
  std::uint32_t num_thr;       ///< levels - 1, <= kFaMaxThresholds
  bool degenerate;             ///< deg < 2: force R' = 0
  bool count_clips;            ///< accumulate q/p saturation into *stats
  SaturationStats* stats;      ///< q_clips/p_clips only; r_clips untouched
};

/// One layer of the inter-frame-batched finite-alphabet kernel: z serial
/// check rows, F = tier_lanes8 frames in lanes, lane-major arrays exactly
/// like SimdBatchLayerPass. Lanes may sit at different decode iterations,
/// so the staircase tables are per-lane rows: thr_lanes/delta_lanes hold
/// num_thr rows of F lanes each and recon0_lanes one row (the decoder
/// refreshes a lane's column when its iteration changes).
struct SimdFaBatchLayerPass {
  std::int8_t* p;              ///< n rows * F lanes posteriors (in/out)
  std::int8_t* q;              ///< deg * F Q scratch (one row at a time)
  std::int8_t* r;              ///< R memory, nonzero_blocks * z rows * F
  const BatchBlock* blocks;    ///< deg block descriptors
  std::uint32_t deg;           ///< non-zero blocks in this layer (< 128)
  std::uint32_t z;             ///< circulant size (serial row count)
  const std::int8_t* active;   ///< F lane mask, -1 = live frame, 0 = idle
  const std::int8_t* r_keep;   ///< F lane mask, 0 = first-iteration lane
  const std::int8_t* thr_lanes;    ///< num_thr rows * F per-lane thresholds
  const std::int8_t* delta_lanes;  ///< num_thr rows * F per-lane deltas
  const std::int8_t* recon0_lanes; ///< F per-lane recon[0]
  std::uint32_t num_thr;       ///< levels - 1 (max over live lanes' formats)
  bool degenerate;             ///< deg < 2: force R' = 0
  bool count_clips;            ///< accumulate per-lane clip counters
  /// Per-lane clip accumulators, F entries each (used iff count_clips).
  /// No r_clips: the staircase output is in-alphabet by construction.
  long long* q_clips;
  long long* p_clips;
};

/// Per-lane syndrome accumulation for one layer, int8 posteriors. Same
/// contract as SimdBatchSyndromePass.
struct SimdFaBatchSyndromePass {
  const std::int8_t* p;        ///< n rows * F lanes posteriors
  const BatchBlock* blocks;    ///< deg block descriptors
  std::uint32_t deg;
  std::uint32_t z;
  std::int32_t* weight;        ///< F accumulators (+= per-lane unsat rows)
};

/// Vectorized channel quantizer for the finite-alphabet decoders: contiguous
/// float LLRs -> contiguous int8 codes on the symmetric +-127 rail,
/// bit-identical to scalar fa_quantize (uncounted). The pre-limit keeps
/// |scaled| <= rail + 2 < 2^8, where every float ulp is 2^-16 or finer, so
/// adding copysign(0.5, s) is exact in float and truncating the sum is
/// exactly round-half-away — the double round of the scalar path is not
/// needed. Frame setup is a measurable slice of batched decode time, hence
/// a dispatched kernel rather than a loop the autovectorizer may miss.
struct SimdFaQuantizePass {
  const float* llr;   ///< n channel LLRs
  std::int8_t* out;   ///< n codes, contiguous
  std::size_t n;
  float fscale;       ///< 1 << posterior.frac_bits
  float fhi;          ///< posterior.max_code() + 1 (pre-limit, not the rail)
  float flo;          ///< posterior.min_code() - 1
};

using FaLayerPassFn = void (*)(const SimdFaLayerPass&);
using FaBatchLayerPassFn = void (*)(const SimdFaBatchLayerPass&);
using FaBatchSyndromePassFn = void (*)(const SimdFaBatchSyndromePass&);
using FaQuantizePassFn = void (*)(const SimdFaQuantizePass&);

/// Kernel entry points. The portable tier is always compiled; the x86
/// tiers exist only when CMake enabled LDPC_SIMD on an x86-64 target
/// (dispatch gates every reference behind the same macro).
void layer_pass_portable(const SimdLayerPass& pass);
void batch_layer_pass_portable(const SimdBatchLayerPass& pass);
void batch_syndrome_pass_portable(const SimdBatchSyndromePass& pass);
void fa_layer_pass_portable(const SimdFaLayerPass& pass);
void fa_batch_layer_pass_portable(const SimdFaBatchLayerPass& pass);
void fa_batch_syndrome_pass_portable(const SimdFaBatchSyndromePass& pass);
void fa_quantize_pass_portable(const SimdFaQuantizePass& pass);
#ifdef LDPC_SIMD_X86
void layer_pass_sse2(const SimdLayerPass& pass);
void layer_pass_avx2(const SimdLayerPass& pass);
void layer_pass_avx512(const SimdLayerPass& pass);
void batch_layer_pass_sse2(const SimdBatchLayerPass& pass);
void batch_layer_pass_avx2(const SimdBatchLayerPass& pass);
void batch_layer_pass_avx512(const SimdBatchLayerPass& pass);
void batch_syndrome_pass_sse2(const SimdBatchSyndromePass& pass);
void batch_syndrome_pass_avx2(const SimdBatchSyndromePass& pass);
void batch_syndrome_pass_avx512(const SimdBatchSyndromePass& pass);
void fa_layer_pass_sse2(const SimdFaLayerPass& pass);
void fa_layer_pass_avx2(const SimdFaLayerPass& pass);
void fa_layer_pass_avx512(const SimdFaLayerPass& pass);
void fa_batch_layer_pass_sse2(const SimdFaBatchLayerPass& pass);
void fa_batch_layer_pass_avx2(const SimdFaBatchLayerPass& pass);
void fa_batch_layer_pass_avx512(const SimdFaBatchLayerPass& pass);
void fa_batch_syndrome_pass_sse2(const SimdFaBatchSyndromePass& pass);
void fa_batch_syndrome_pass_avx2(const SimdFaBatchSyndromePass& pass);
void fa_batch_syndrome_pass_avx512(const SimdFaBatchSyndromePass& pass);
void fa_quantize_pass_sse2(const SimdFaQuantizePass& pass);
void fa_quantize_pass_avx2(const SimdFaQuantizePass& pass);
void fa_quantize_pass_avx512(const SimdFaQuantizePass& pass);
#endif

/// True when `tier` is both compiled in and supported by this CPU.
bool tier_available(SimdTier tier);

/// All usable tiers on this host, portable first (for test sweeps).
std::vector<SimdTier> available_tiers();

/// Every kernel entry point of one tier: the int16 q-format kernels and
/// the int8 finite-alphabet kernels, each in the z-lane and batched shape.
/// The decoders' message policies (simd_messages.hpp) pick their entries.
struct Kernels {
  LayerPassFn layer_pass;
  BatchLayerPassFn batch_layer_pass;
  BatchSyndromePassFn batch_syndrome_pass;
  FaLayerPassFn fa_layer_pass;
  FaBatchLayerPassFn fa_batch_layer_pass;
  FaBatchSyndromePassFn fa_batch_syndrome_pass;
  FaQuantizePassFn fa_quantize_pass;
};

/// Kernel table of a specific tier; throws ldpc::Error if unavailable.
const Kernels& kernels_for(SimdTier tier);

/// Best available tier, honouring an LDPC_SIMD_TIER environment override.
/// An override naming a *known but unavailable* tier (e.g. avx512 on a CPU
/// without it) falls through to auto-detection — pinned-tier scripts stay
/// portable across hosts; an *unknown* name throws ldpc::Error so a typo
/// can never silently change what a benchmark measured.
SimdTier best_tier();

/// Parse a tier name; throws ldpc::Error on unknown names.
SimdTier tier_from_string(const std::string& name);

}  // namespace ldpc::simd
