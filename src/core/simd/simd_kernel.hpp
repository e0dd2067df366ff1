// Vector kernel interface for the SIMD layered min-sum decoder.
//
// One layer of the paper's schedule updates `z` independent check rows —
// the hardware instantiates z datapath copies (Fig. 3) and runs them in
// lockstep. The software analogue maps row r of the layer onto SIMD lane
// r: posteriors are pre-rotated into a structure-of-arrays scratch (the
// (row + shift) % z gather collapses into two memcpys, mirroring the
// barrel shifter), after which every message update is a vertical lane
// operation. The kernels implement exactly the scalar row-kernel
// arithmetic — Q = P - R on the rails, min1/min2/pos1/sign tracking via
// compare/blend, the magnitude correction, R'/P' write-back — and are
// asserted bit-identical to the scalar decoders in
// tests/simd_equivalence_test.cpp and tests/simd_fa_equivalence_test.cpp.
//
// Two message families share the kernels (simd_kernel_impl.hpp: one
// check-row body, one shell per shape, two arithmetic policies):
//   int16 q-format  LayerRowKernel: clamp to the format rails, the
//                   multiplier-free (x>>1)+(x>>2) scaling (or num/16, or
//                   offset), clamped R'
//   int8 finite     FaRowKernel (fa2/fa3/fa4, see core/fa_tables.hpp):
//   alphabet        the symmetric [-127, +127] rail, a per-iteration MIM
//                   staircase in place of the scaling, unclamped R'
//
// Four tiers instantiate that implementation over one lane-ops template
// each:
//   kAvx512    32 int16 / 64 int8 lanes per step, compiled only on x86-64
//              with LDPC_SIMD=ON, dispatched after a runtime
//              avx512f+avx512bw check
//   kAvx2      16 / 32 lanes per step, compiled only on x86-64 with
//              LDPC_SIMD=ON
//   kSse2      8 / 16 lanes per step, ditto (baseline on every x86-64 CPU)
//   kPortable  fixed-width 8 / 16-lane arrays, plain C++ the
//              autovectorizer can chew on; always compiled, the only tier
//              when LDPC_SIMD=OFF or on non-x86 hosts
// Tier selection happens once per decoder at construction (best available,
// overridable with the LDPC_SIMD_TIER environment variable or an explicit
// constructor argument).
//
// Each family runs in two shapes: the z-lane layer pass above, and the
// inter-frame-batched pass (one *frame* per lane instead of one check row
// per lane, so every lane is full regardless of z; see
// SimdBatchLayerPass below and simd_batch.hpp).
#pragma once

#include <cstdint>
#include <string>
#include <type_traits>
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

/// Check-node parameters of the int16 q-format family, the same in both
/// shapes.
struct Q16Check {
  std::int16_t lo;           ///< format rail: fixed_min(total_bits)
  std::int16_t hi;           ///< format rail: fixed_max(total_bits)
  ScaleMode mode;
  std::int16_t scale_num;    ///< numerator for kNumOver16
  std::int16_t offset_code;  ///< subtrahend for kOffset
};

/// Maximum staircase thresholds any FA pass carries (fa4: 8 levels - 1).
inline constexpr std::uint32_t kFaMaxThresholds = 7;

/// Check-node parameters of the int8 finite-alphabet family: the MIM
/// staircase recon = recon0 + sum_t (mag > thr[t] ? delta[t] : 0), with
/// delta[t] = recon[t+1] - recon[t] >= 0. In the z-lane shape every lane
/// is the same frame at the same iteration, so thr/delta hold num_thr
/// scalars and recon0 one. In the batched shape lanes sit at different
/// decode iterations, so the tables are per-lane rows: thr/delta hold
/// num_thr rows of F lanes and recon0 one row (the decoder refreshes a
/// lane's column when its iteration changes).
struct FaCheck {
  const std::int8_t* thr;
  const std::int8_t* delta;
  const std::int8_t* recon0;
  std::uint32_t num_thr;  ///< levels - 1, <= kFaMaxThresholds
};

/// The check-node parameters of the family whose lane element is T.
template <class T>
using CheckParams =
    std::conditional_t<std::is_same_v<T, std::int16_t>, Q16Check, FaCheck>;

/// One layer's worth of work for the z-lane kernel. All pointers reference
/// lane buffers padded to a multiple of the tier's lane count (z_pad).
/// Padding lanes hold zeros and provably generate no saturation events,
/// so the tail of a non-multiple-of-lane-width z rides in the same vector
/// ops. int16: the zero pad lanes produce R' = 0. int8: the pass writes
/// +recon0 into pad R lanes (the sign product of zero is positive) — the
/// caller re-zeroes the touched slots' pad lanes after the pass,
/// preserving the all-zero-pad invariant (P'_pad = recon0 <= 127).
template <class T>
struct SimdLayerPass {
  T* p;                        ///< deg * z_pad gathered posteriors (in/out)
  T* q;                        ///< deg * z_pad Q scratch (Fig. 5's Q_array)
  T* r;                        ///< R memory base, stride z_pad per slot
  const std::uint32_t* r_base; ///< deg offsets into `r` (multiples of z_pad)
  std::uint32_t deg;           ///< non-zero blocks in this layer
  std::uint32_t z_pad;         ///< z rounded up to the lane granularity
  CheckParams<T> check;
  bool degenerate;             ///< deg < 2: force R' = 0 (no extrinsic input)
  bool count_clips;            ///< accumulate saturation events into *stats
  /// Per-site clip counters (used iff count_clips): the Q site fills
  /// q_clips, the R' clamp r_clips, the P' site p_clips — same attribution
  /// as the scalar row kernels, so the equivalence suites can compare
  /// site-for-site and the static range verifier's proofs apply unchanged.
  SaturationStats* stats;
};

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

/// Lanes per vector step of a tier in the int8 kernels — twice
/// tier_lanes() on every tier, and the padding granularity of the int8
/// z-lane layout.
constexpr std::uint32_t tier_lanes8(SimdTier t) { return 2 * tier_lanes(t); }

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
template <class T>
struct SimdBatchLayerPass {
  T* p;                        ///< n rows * F lanes posteriors (in/out)
  T* q;                        ///< deg * F Q scratch (one row at a time)
  T* r;                        ///< R memory, nonzero_blocks * z rows * F
  const BatchBlock* blocks;    ///< deg block descriptors
  std::uint32_t deg;           ///< non-zero blocks in this layer
  std::uint32_t z;             ///< circulant size (serial row count)
  const T* active;             ///< F lane mask, -1 = live frame, 0 = idle
  /// F lane mask: -1 = the lane's R memory is valid, 0 = the lane is in its
  /// first iteration and R reads as 0. Each R slot is read exactly once per
  /// iteration (by its own layer) and rewritten in the same row step, so
  /// masking reads for one full iteration replaces zero-filling the lane's
  /// whole R column at refill — a strided walk over every R cache line that
  /// cost more than a decode iteration.
  const T* r_keep;
  CheckParams<T> check;
  bool degenerate;             ///< deg < 2: force R' = 0
  bool count_clips;            ///< accumulate per-lane clip counters
  /// Per-lane (= per-frame) clip accumulators, F entries each (used iff
  /// count_clips). Same per-site attribution as the scalar row kernels;
  /// the int8 family never adds to r_clips (its R' is in-alphabet).
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
template <class T>
struct SimdBatchSyndromePass {
  const T* p;                  ///< n rows * F lanes posteriors
  const BatchBlock* blocks;    ///< deg block descriptors
  std::uint32_t deg;
  std::uint32_t z;
  std::int32_t* weight;        ///< F accumulators (+= per-lane unsat rows)
};

/// Hard-decision drain of the lanes that retire at one iteration boundary.
/// One sweep over the posterior rows takes each row's lane sign mask (bit f
/// set = lane f's posterior is negative, a LaneOps sign_mask) into `signs`;
/// each retiring lane's hard-bit words are then read out of that mask
/// array, which stays L1-resident, instead of walking the lane's strided
/// column (one cache line per bit). Must run before the next layer pass,
/// which overwrites the retired lanes with garbage.
template <class T>
struct SimdBatchDrainPass {
  const T* p;                  ///< rows * F lanes posteriors
  std::uint32_t rows;          ///< variable rows (n)
  /// words * 64 masks of scratch; rows past `rows` are written as zero.
  std::uint64_t* signs;
  std::uint32_t words;         ///< hard-bit words per lane, ceil(rows / 64)
  const std::uint32_t* lanes;  ///< the retiring lanes
  std::uint32_t count;         ///< number of retiring lanes
  std::uint64_t* out;          ///< count * words hard-bit words, lane-major
};

/// Vectorized channel quantizer of both message families: contiguous float
/// LLRs -> contiguous int16 or int8 codes, bit-identical to the uncounted
/// FixedFormat::quantize (int16) or fa_quantize (int8). The scale, the
/// float pre-limit and the integer rails are pass parameters, so one kernel
/// entry serves both. Rounding is truncate-then-compare-the-fraction:
/// t = trunc(s), t += (s - t >= 0.5) - (s - t <= -0.5). s - t is exact in
/// float (|s| < 1: t = 0; else s/2 <= t <= s, Sterbenz), so the tie test
/// sees the exact fraction for every input. Adding copysign(0.5, s) and
/// truncating is not exact: 0.5 - 2^-25 + 0.5 rounds to 1.0 in float.
/// Frame setup is a measurable slice of batched decode time, hence a
/// dispatched kernel rather than a loop the autovectorizer may miss.
struct SimdQuantizePass {
  const float* llr;     ///< n channel LLRs
  std::size_t n;
  std::int16_t* out16;  ///< n int16 codes, contiguous (or null)
  std::int8_t* out8;    ///< n int8 codes, contiguous (null iff out16 set)
  float fscale;         ///< 1 << frac_bits
  float fhi;            ///< max_code() + 1 (pre-limit, not the rail)
  float flo;            ///< min_code() - 1
  std::int16_t hi;      ///< upper rail
  std::int16_t lo;      ///< lower rail
};

template <class T>
using LayerPassFn = void (*)(const SimdLayerPass<T>&);
template <class T>
using BatchLayerPassFn = void (*)(const SimdBatchLayerPass<T>&);
template <class T>
using BatchSyndromePassFn = void (*)(const SimdBatchSyndromePass<T>&);
template <class T>
using BatchDrainPassFn = void (*)(const SimdBatchDrainPass<T>&);
using QuantizePassFn = void (*)(const SimdQuantizePass&);

/// True when `tier` is both compiled in and supported by this CPU.
bool tier_available(SimdTier tier);

/// All usable tiers on this host, portable first (for test sweeps).
std::vector<SimdTier> available_tiers();

/// Every kernel entry point of one tier: the int16 q-format kernels and
/// the int8 finite-alphabet kernels, each in the z-lane and batched shape,
/// and the channel quantizer both families share. The decoders' message
/// policies (simd_messages.hpp) pick their entries.
struct Kernels {
  LayerPassFn<std::int16_t> layer_pass;
  BatchLayerPassFn<std::int16_t> batch_layer_pass;
  BatchSyndromePassFn<std::int16_t> batch_syndrome_pass;
  BatchDrainPassFn<std::int16_t> batch_drain_pass;
  LayerPassFn<std::int8_t> fa_layer_pass;
  BatchLayerPassFn<std::int8_t> fa_batch_layer_pass;
  BatchSyndromePassFn<std::int8_t> fa_batch_syndrome_pass;
  BatchDrainPassFn<std::int8_t> fa_batch_drain_pass;
  QuantizePassFn quantize_pass;
};

/// Kernel table of a specific tier; throws ldpc::Error if unavailable.
const Kernels& kernels_for(SimdTier tier);

namespace detail {
/// Each tier TU's kernel table. The portable tier is always compiled; the
/// x86 tiers exist only when CMake enabled LDPC_SIMD on an x86-64 target
/// (dispatch gates every reference behind the same macro).
const Kernels& portable_kernels();
#ifdef LDPC_SIMD_X86
const Kernels& sse2_kernels();
const Kernels& avx2_kernels();
const Kernels& avx512_kernels();
#endif
}  // namespace detail

/// Best available tier, honouring an LDPC_SIMD_TIER environment override.
/// An override naming a *known but unavailable* tier (e.g. avx512 on a CPU
/// without it) falls through to auto-detection — pinned-tier scripts stay
/// portable across hosts; an *unknown* name throws ldpc::Error so a typo
/// can never silently change what a benchmark measured.
SimdTier best_tier();

/// Parse a tier name; throws ldpc::Error on unknown names.
SimdTier tier_from_string(const std::string& name);

}  // namespace ldpc::simd
