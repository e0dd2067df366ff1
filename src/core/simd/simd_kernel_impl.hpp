// Shared templated body of the SIMD kernels — the single source of truth
// for the vectorized Algorithm 1 arithmetic of both message families.
// Each kernel TU (portable / SSE2 / AVX2 / AVX-512) defines one LaneOps
// template with an int16 and an int8 instance and fills its kernel table
// with make_kernels<Ops16, Ops8>, so all four tiers execute the same
// operation sequence on different vector widths.
//
// LaneOps contract (Vec is a pack of kLanes values of Elem = int16 / int8):
//   load/store (unaligned), broadcast, zero
//   add/sub           wrapping
//   adds/subs         saturating (x86 semantics: clamp to [Elem min, max])
//   min/max           signed
//   cmpgt/cmpeq       lane masks, all-ones where true
//   blend(m, a, b)    m ? a : b, m a lane mask
//   abs               |v| for v > Elem min
//   xor_/or_/and_     bitwise
//   sign_mask         bit f of the result set iff lane f is negative
//   lane_column(m, f) bit b of the result = bit f of m[b], b < 64 (a
//                     column of a 64-row mask array; element-agnostic)
// int16 only (num/16 correction):
//   srl<k>/sll<k>     logical shifts by compile-time k
//   mullo/mulhi       low/high 16 bits of the 32-bit signed product
// int8, optional:
//   staircase_add(s, mag, thr, delta)  fused s + ((mag > thr) ? delta : 0)
//
// Layering: check_row is one check row of the schedule (stage 1: Q and
// min1/min2/sign; stage 2: R' and P'), over a row view that says
// where the row's lanes live, and an arithmetic policy that says what
// the family's rails, clip predicate and magnitude correction are:
//
//               z-lane shell (ZLaneRow)    batched shell (BatchRow)
//   Q16Arith    int16 z-lane pass          int16 batched pass
//   FaArith     int8 z-lane pass           int8 batched pass
//
// Family and shape are template parameters: every call resolves at
// compile time, and the uncounted instances carry no clip code at all.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <type_traits>

#include "core/simd/simd_kernel.hpp"

namespace ldpc::simd::detail {

/// Round-half-away of a pre-limited scaled LLR (|s| <= 2^15 + 1), exact
/// for every float: truncate, then compare the exact fraction with +-0.5
/// (see SimdQuantizePass).
inline std::int32_t round_half_away(float s) {
  const auto t = static_cast<std::int32_t>(s);
  const float frac = s - static_cast<float>(t);
  return t + (frac >= 0.5F ? 1 : 0) - (frac <= -0.5F ? 1 : 0);
}

/// Scalar body of the channel quantizer, used by the portable tier and as
/// the vector tiers' tail loop.
inline void quantize_scalar(const SimdQuantizePass& a, std::size_t v0) {
  for (std::size_t v = v0; v < a.n; ++v) {
    float s = a.llr[v] * a.fscale;
    s = s != s ? 0.0F : s;
    s = s > a.fhi ? a.fhi : s;
    s = s < a.flo ? a.flo : s;
    const std::int32_t t = round_half_away(s);
    const std::int32_t c = t > a.hi ? a.hi : (t < a.lo ? a.lo : t);
    if (a.out16)
      a.out16[v] = static_cast<std::int16_t>(c);
    else
      a.out8[v] = static_cast<std::int8_t>(c);
  }
}

// ---------------------------------------------------------------------------
// Arithmetic policies. Each is built once per pass from the pass's check
// parameters (`lane_rows`: per-lane table rows in the batched shape,
// broadcast scalars in the z-lane shape) and provides
//   sub<kCount>(p, r, clip)      Q = P - R on the rails
//   correct(mag)                 the magnitude correction of min1/min2
//   limit_r<kCount>(val, clip)   R' on the rails
//   add<kCount>(q, r, clip)      P' = Q + R' on the rails
// where `clip` is set (only when kCount) to the lane mask of the exact
// result falling outside the rails — the scalar kernels' clip predicate.
// kPrefetchRows is how far ahead the batched shell prefetches its streams.
// ---------------------------------------------------------------------------

/// int16 q-format (LayerRowKernel). Width envelope: the dispatcher only
/// routes formats with total_bits <= 15 here (wider formats fall back to
/// the scalar decoder). Then |P|,|R| <= 2^14, so P - R and Q + R' fit
/// int16 exactly and wrapping add/sub equal the scalar int64
/// intermediates; saturation happens in an explicit clamp-to-rails
/// min/max, and a clip event is precisely "clamped value differs from the
/// exact value" — the same predicate sat_clamp_counted applies.
template <class Ops>
class Q16Arith {
 public:
  using V = typename Ops::Vec;
  static constexpr std::uint32_t kPrefetchRows = 8;

  Q16Arith(const Q16Check& c, bool /*lane_rows*/)
      : lo_(Ops::broadcast(c.lo)),
        hi_(Ops::broadcast(c.hi)),
        num_(Ops::broadcast(c.scale_num)),
        offset_(Ops::broadcast(c.offset_code)),
        mode_(c.mode) {}

  template <bool kCount>
  V sub(V a, V b, V& clip) const {
    return rail<kCount>(Ops::sub(a, b), clip);
  }
  template <bool kCount>
  V add(V a, V b, V& clip) const {
    return rail<kCount>(Ops::add(a, b), clip);
  }
  template <bool kCount>
  V limit_r(V val, V& clip) const {
    return rail<kCount>(val, clip);
  }

  V correct(V mag) const {
    switch (mode_) {
      case ScaleMode::kThreeQuarters:
        // scale_three_quarters on a non-negative magnitude: each shift
        // truncates separately, exactly like the hardware shift-add.
        return Ops::add(Ops::template srl<1>(mag), Ops::template srl<2>(mag));
      case ScaleMode::kNumOver16: {
        // (mag * num) / 16 with mag <= 2^14, num <= 16: the 32-bit product
        // is < 2^19, so the truncating divide is a logical shift of the
        // {mulhi:mullo} pair. mag and num are non-negative and < 2^15, so
        // the signed high half equals the unsigned one.
        const V lo = Ops::mullo(mag, num_);
        const V hi = Ops::mulhi(mag, num_);
        return Ops::or_(Ops::template srl<4>(lo), Ops::template sll<12>(hi));
      }
      case ScaleMode::kOffset:
        // max(mag - offset, 0); mag - offset >= -2^15 + 1, no wrap.
        return Ops::max(Ops::zero(), Ops::sub(mag, offset_));
    }
    return Ops::zero();  // unreachable
  }

 private:
  template <bool kCount>
  V rail(V exact, V& clip) const {
    const V v = Ops::max(lo_, Ops::min(hi_, exact));
    if constexpr (kCount)
      clip = Ops::xor_(Ops::cmpeq(v, exact),
                       Ops::broadcast(static_cast<std::int16_t>(-1)));
    return v;
  }

  V lo_, hi_, num_, offset_;
  ScaleMode mode_;
};

/// int8 finite alphabet (FaRowKernel). Every value on the datapath lives
/// on the symmetric [-127, +127] rail (kFaRail), maintained by re-railing
/// each saturating op with max(x, -127), so abs/negate of any railed value
/// is representable. The exact clip predicate in counted mode is
/// reconstructed from the saturating/wrapping op pair:
///   clip(a op b)  <=>  sat != wrap  or  wrap == -128
/// — `sat != wrap` catches every exact result outside [-128, 127], and
/// `wrap == -128` the two remaining cases (exact -128, which saturating
/// arithmetic preserves but the rail rejects, and exact +128, which wraps
/// to -128); together: exact result outside [-127, +127], the same
/// predicate the scalar FaRowKernel counts.
///
/// The staircase output is always in-alphabet: R' needs no clamp and has
/// no clip events (r_clips is structurally zero, as in the scalar kernel).
/// Its reconstruction uses wrapping add: the deltas are nonnegative and
/// every partial sum is a prefix of the nondecreasing reconstruction
/// sequence, hence <= 127.
template <class Ops>
class FaArith {
 public:
  using V = typename Ops::Vec;
  // int8 rows are half the bytes of int16 ones, so fetch a little further
  // ahead.
  static constexpr std::uint32_t kPrefetchRows = 12;

  FaArith(const FaCheck& c, bool lane_rows)
      : rail_lo_(broadcast(-127)), num_thr_(c.num_thr) {
    const auto table = [&](const std::int8_t* row) {
      return lane_rows ? Ops::load(row) : Ops::broadcast(*row);
    };
    const std::uint32_t stride = lane_rows ? Ops::kLanes : 1;
    recon0_ = table(c.recon0);
    for (std::uint32_t t = 0; t < num_thr_; ++t) {
      thr_[t] = table(c.thr + t * stride);
      delta_[t] = table(c.delta + t * stride);
    }
  }

  template <bool kCount>
  V sub(V a, V b, V& clip) const {
    const V sat = Ops::subs(a, b);
    if constexpr (kCount) clip = clipped(sat, Ops::sub(a, b));
    return Ops::max(sat, rail_lo_);
  }
  template <bool kCount>
  V add(V a, V b, V& clip) const {
    const V sat = Ops::adds(a, b);
    if constexpr (kCount) clip = clipped(sat, Ops::add(a, b));
    return Ops::max(sat, rail_lo_);
  }
  template <bool kCount>
  V limit_r(V val, V& clip) const {
    if constexpr (kCount) clip = Ops::zero();
    return val;
  }

  /// Staircase lookup. A LaneOps may provide staircase_add to fuse the
  /// cmpgt/and_/add step (AVX-512 does it in two masked instructions);
  /// the fallback composes the generic ops. Either way the step computes
  /// s + ((mag > thr) ? delta : 0) exactly.
  V correct(V mag) const {
    V s = recon0_;
    for (std::uint32_t t = 0; t < num_thr_; ++t) {
      if constexpr (requires { Ops::staircase_add(s, mag, s, s); })
        s = Ops::staircase_add(s, mag, thr_[t], delta_[t]);
      else
        s = Ops::add(s, Ops::and_(Ops::cmpgt(mag, thr_[t]), delta_[t]));
    }
    return s;
  }

 private:
  static V broadcast(int x) {
    return Ops::broadcast(static_cast<std::int8_t>(x));
  }
  static V clipped(V sat, V wrap) {
    return Ops::or_(Ops::xor_(Ops::cmpeq(sat, wrap), broadcast(-1)),
                    Ops::cmpeq(wrap, broadcast(-128)));
  }

  V rail_lo_;
  V recon0_;
  V thr_[kFaMaxThresholds];
  V delta_[kFaMaxThresholds];
  std::uint32_t num_thr_;
};

/// The arithmetic policy of the family whose lane element is Ops::Elem.
template <class Ops>
using ArithFor =
    std::conditional_t<std::is_same_v<typename Ops::Elem, std::int16_t>,
                       Q16Arith<Ops>, FaArith<Ops>>;

// ---------------------------------------------------------------------------
// Row views: where the deg blocks of one check row (z-lane: one chunk of
// kLanes rows) live, and which lanes' clip events count.
// ---------------------------------------------------------------------------

/// z-lane shape: lane r of chunk c is check row c + r of the layer, block
/// j's gathered posteriors and Q scratch sit at j * z_pad, its R slot at
/// r_base[j]. Every lane counts — the zero pad lanes provably never clip.
template <class Ops>
struct ZLaneRow {
  using T = typename Ops::Elem;
  using V = typename Ops::Vec;
  const SimdLayerPass<T>& a;
  std::uint32_t c;  ///< first row of the chunk

  T* p(std::uint32_t j) const { return a.p + j * a.z_pad + c; }
  T* q(std::uint32_t j) const { return a.q + j * a.z_pad + c; }
  T* r(std::uint32_t j) const { return a.r + a.r_base[j] + c; }
  V load_r(std::uint32_t j) const { return Ops::load(r(j)); }
  void prefetch(std::uint32_t /*j*/) const {}
  V live(V clip) const { return clip; }
};

/// Batched shape: lane f is frame f, the row is check row `row` of the
/// layer; block j reads posterior row p_base + (row + shift) mod z and R
/// row r_base + row, each one kF-lane vector.
template <class Ops, std::uint32_t kAhead>
struct BatchRow {
  using T = typename Ops::Elem;
  using V = typename Ops::Vec;
  static constexpr std::size_t kF = Ops::kLanes;
  const SimdBatchLayerPass<T>& a;
  V r_keep;
  V active;
  std::uint32_t row;

  std::size_t p_row(std::uint32_t j) const {
    const BatchBlock& b = a.blocks[j];
    std::uint32_t rot = row + b.shift;
    if (rot >= a.z) rot -= a.z;
    return b.p_base + rot;
  }
  std::size_t r_row(std::uint32_t j) const { return a.blocks[j].r_base + row; }
  T* p(std::uint32_t j) const { return a.p + p_row(j) * kF; }
  T* q(std::uint32_t j) const { return a.q + j * kF; }
  T* r(std::uint32_t j) const { return a.r + r_row(j) * kF; }
  /// First-iteration lanes read R as 0 (r_keep masks the stale column);
  /// stage 2 then stores the real value, so iteration 2 reads it back.
  V load_r(std::uint32_t j) const { return Ops::and_(Ops::load(r(j)), r_keep); }
  /// Both streams advance one kF-lane row (= one cache line at AVX-512
  /// width) per z-step; with ~2 * deg concurrent streams the hardware
  /// prefetcher gives up, so fetch a few rows ahead by hand. The look-ahead
  /// can run past the circulant's wrap or the layer's last row — the arrays
  /// carry kBatchPrefetchPad padding rows so the touch stays in bounds, and
  /// a handful of wasted lines per layer is noise. (always_inline: GCC's
  /// IPA pure-const pass classes an out-of-line function whose only effect
  /// is __builtin_prefetch as const and deletes the calls.)
  [[gnu::always_inline]] void prefetch(std::uint32_t j) const {
    __builtin_prefetch(a.p + (p_row(j) + kAhead) * kF, 1);
    __builtin_prefetch(a.r + (r_row(j) + kAhead) * kF, 1);
  }
  /// Inactive lanes compute garbage nobody reads; their clips do not count.
  V live(V clip) const { return Ops::and_(active, clip); }
};

/// Clip events of one row (z-lane: one chunk), per site, as lane counts in
/// element-typed lanes: one event subtracts an all-ones mask. Each site
/// sees at most deg events per lane per row, and the drivers keep deg <=
/// numeric_limits<Elem>::max(), so the counts cannot wrap before the
/// shell drains them.
template <class Ops>
struct ClipLanes {
  typename Ops::Vec q = Ops::zero();
  typename Ops::Vec r = Ops::zero();
  typename Ops::Vec p = Ops::zero();
};

/// One check row of Algorithm 1 for every lane of `at` at once.
///
/// The scalar kernels track pos1, the block index of the first strict
/// minimum, and give block pos1 the second minimum. This body keeps no
/// pos1: stage 2 gives s2 to every block whose |Q_j| equals min1, s1 to
/// the rest. That is the same R'. Block pos1 has |Q| == min1 and gets s2
/// in both. Any other block with |Q_j| == min1 is a second block at the
/// minimum, so min2 == min1 and s2 == s1. Degree-1 rows never reach the
/// selection (R' = 0), and from degree 2 on no sentinel survives stage 1.
template <class Ops, class Arith, bool kCount, class Row>
inline void check_row(const Arith& ar, const Row& at, std::uint32_t deg,
                      bool degenerate, ClipLanes<Ops>& clips) {
  using T = typename Ops::Elem;
  using V = typename Ops::Vec;
  const V zero = Ops::zero();
  // numeric_limits<T>::max() is the min1/min2 sentinel: every real |Q| on
  // the int16 rails is strictly smaller. On the int8 rail a magnitude of
  // 127 ties it, but with >= 2 in-rail magnitudes min1 and min2 are still
  // the two smallest of them, as in the scalar kernel's huge-sentinel
  // scan.
  V min1 = Ops::broadcast(std::numeric_limits<T>::max());
  V min2 = min1;
  V signs = zero;  // sign bit: the XOR of every Q's sign bit
  V clip = zero;   // a site's clip mask; written and read only when kCount

  // Stage 1 (core 1): Q = P - R per block, min1/min2/sign across the
  // layer, each lane tracking its own check row's state registers. The
  // compare-free update keeps the two smallest magnitudes: the new min2
  // is the smaller of the old min2 and the larger of (min1, |Q|).
  for (std::uint32_t j = 0; j < deg; ++j) {
    at.prefetch(j);
    const V q = ar.template sub<kCount>(Ops::load(at.p(j)), at.load_r(j), clip);
    if constexpr (kCount) clips.q = Ops::sub(clips.q, at.live(clip));
    Ops::store(at.q(j), q);
    const V mag = Ops::abs(q);
    min2 = Ops::min(min2, Ops::max(min1, mag));
    min1 = Ops::min(min1, mag);
    signs = Ops::xor_(signs, q);
  }

  // The magnitude correction is a pure function of min1/min2, so it
  // hoists out of the per-block loop (the hardware computes it once per
  // row into the min1/min2 arrays too).
  const V s1 = degenerate ? zero : ar.correct(min1);
  const V s2 = degenerate ? zero : ar.correct(min2);

  // Stage 2 (core 2): R' selection + sign, P' = Q + R'.
  for (std::uint32_t j = 0; j < deg; ++j) {
    T* const p_out = at.p(j);  // before the R' store, which may alias `at`
    const V q = Ops::load(at.q(j));
    V r_new = zero;
    // Degree < 2: no extrinsic input, R' = 0 before any clamp — the
    // scalar kernels return early, so no clip event either.
    if (!degenerate) {
      const V mag = Ops::blend(Ops::cmpeq(Ops::abs(q), min1), s2, s1);
      // signs ^ Q takes Q_j's own sign out of the row product.
      const V neg = Ops::cmpgt(zero, Ops::xor_(signs, q));
      r_new = ar.template limit_r<kCount>(
          Ops::blend(neg, Ops::sub(zero, mag), mag), clip);
      if constexpr (kCount) clips.r = Ops::sub(clips.r, at.live(clip));
    }
    Ops::store(at.r(j), r_new);
    const V p_new = ar.template add<kCount>(q, r_new, clip);
    if constexpr (kCount) clips.p = Ops::sub(clips.p, at.live(clip));
    Ops::store(p_out, p_new);
  }
}

/// Widen element-typed lane counts into kLanes per-lane accumulators.
template <class Ops, class Acc>
inline void drain_lanes(typename Ops::Vec counts, Acc* acc) {
  typename Ops::Elem tmp[Ops::kLanes];
  Ops::store(tmp, counts);
  for (int f = 0; f < Ops::kLanes; ++f) acc[f] += tmp[f];
}

/// Sum of element-typed lane counts.
template <class Ops>
inline long long lane_sum(typename Ops::Vec counts) {
  typename Ops::Elem tmp[Ops::kLanes];
  Ops::store(tmp, counts);
  long long sum = 0;
  for (int f = 0; f < Ops::kLanes; ++f) sum += tmp[f];
  return sum;
}

// ---------------------------------------------------------------------------
// Shells.
// ---------------------------------------------------------------------------

/// z-lane layer pass: the layer's z_pad rows in chunks of kLanes, clip
/// counts drained once per chunk.
template <class Ops, bool kCount>
void zlane_pass(const SimdLayerPass<typename Ops::Elem>& a) {
  const ArithFor<Ops> ar(a.check, false);
  for (std::uint32_t c = 0; c < a.z_pad; c += Ops::kLanes) {
    ClipLanes<Ops> clips;
    check_row<Ops, ArithFor<Ops>, kCount>(ar, ZLaneRow<Ops>{a, c}, a.deg,
                                          a.degenerate, clips);
    if constexpr (kCount) {
      a.stats->q_clips += lane_sum<Ops>(clips.q);
      a.stats->r_clips += lane_sum<Ops>(clips.r);
      a.stats->p_clips += lane_sum<Ops>(clips.p);
    }
  }
}

/// Inter-frame-batched layer pass: frame f rides in lane f, the z check
/// rows of the layer run serially. Every array is lane-major with stride
/// F = Ops::kLanes (p[v * F + f]), so the circulant rotation is a scalar
/// index computation per load and each row update is exactly one vector op
/// wide — lanes are full for any z. The per-lane arithmetic is the same
/// check_row as the z-lane pass (and therefore bit-identical to the scalar
/// row kernel per frame); only the axis the lanes span changed from check
/// rows to frames. Clip counts drain into the per-lane accumulators once
/// per row — counted mode is a test-path concern.
template <class Ops, bool kCount>
void batch_pass(const SimdBatchLayerPass<typename Ops::Elem>& a) {
  using A = ArithFor<Ops>;
  const A ar(a.check, true);
  BatchRow<Ops, A::kPrefetchRows> at{a, Ops::load(a.r_keep),
                                     Ops::load(a.active), 0};
  for (; at.row < a.z; ++at.row) {
    ClipLanes<Ops> clips;
    check_row<Ops, A, kCount>(ar, at, a.deg, a.degenerate, clips);
    if constexpr (kCount) {
      drain_lanes<Ops>(clips.q, a.q_clips);
      drain_lanes<Ops>(clips.r, a.r_clips);
      drain_lanes<Ops>(clips.p, a.p_clips);
    }
  }
}

template <class Ops>
void layer_pass(const SimdLayerPass<typename Ops::Elem>& a) {
  if (a.count_clips)
    zlane_pass<Ops, true>(a);
  else
    zlane_pass<Ops, false>(a);
}

template <class Ops>
void batch_layer_pass(const SimdBatchLayerPass<typename Ops::Elem>& a) {
  if (a.count_clips)
    batch_pass<Ops, true>(a);
  else
    batch_pass<Ops, false>(a);
}

/// Sign-mask sweep and hard-bit drain of one iteration boundary: the sweep
/// takes every row's lane sign mask, then each retiring lane's words are
/// columns of that (L1-resident) mask array. The sweep walks the rows in
/// order, so the hardware prefetcher covers it.
template <class Ops>
void batch_drain_pass(const SimdBatchDrainPass<typename Ops::Elem>& a) {
  constexpr std::size_t kF = Ops::kLanes;
  for (std::uint32_t v = 0; v < a.rows; ++v)
    a.signs[v] = Ops::sign_mask(Ops::load(a.p + std::size_t{v} * kF));
  for (std::uint32_t i = 0; i < a.count; ++i) {
    std::uint64_t* const out = a.out + std::size_t{i} * a.words;
    for (std::uint32_t w = 0; w < a.words; ++w)
      out[w] = Ops::lane_column(a.signs + std::size_t{w} * 64, a.lanes[i]);
  }
}

/// A tier's kernel table: both families' kernels over its int16 and int8
/// lane ops, plus its channel quantizer.
template <class Ops16, class Ops8>
constexpr Kernels make_kernels(QuantizePassFn quantize_pass) {
  static_assert(std::is_same_v<typename Ops16::Elem, std::int16_t> &&
                std::is_same_v<typename Ops8::Elem, std::int8_t>);
  static_assert(Ops8::kLanes == 2 * Ops16::kLanes);  // see tier_lanes8
  static_assert(Ops8::kLanes <= 64);  // sign_mask fits one word
  return Kernels{&layer_pass<Ops16>,       &batch_layer_pass<Ops16>,
                 &batch_drain_pass<Ops16>, &layer_pass<Ops8>,
                 &batch_layer_pass<Ops8>,  &batch_drain_pass<Ops8>,
                 quantize_pass};
}

}  // namespace ldpc::simd::detail
