// SSE2 lane kernel: 8 int16 / 16 int8 lanes per step. SSE2 is baseline on
// every x86-64 CPU, so this tier needs no runtime feature check — it is the
// floor the AVX2 tier falls back to. SSE2 lacks blendv/pabsw, so blend is
// the classic and/andnot/or select and abs is max(v, 0 - v) (exact for
// |v| < 2^15, which the dispatcher's width envelope guarantees).
#include "core/simd/simd_kernel_impl.hpp"

#ifdef LDPC_SIMD_X86

#include <emmintrin.h>

namespace ldpc::simd {
namespace {

/// What both element types share: the 128-bit register, unaligned
/// load/store and the lane-agnostic select and bitwise ops.
struct Sse2Bits {
  using Vec = __m128i;

  template <class T>
  static Vec load(const T* p) {
    return _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
  }
  template <class T>
  static void store(T* p, Vec a) {
    _mm_storeu_si128(reinterpret_cast<__m128i*>(p), a);
  }
  static Vec zero() { return _mm_setzero_si128(); }
  static Vec blend(Vec m, Vec a, Vec b) {
    return _mm_or_si128(_mm_and_si128(m, a), _mm_andnot_si128(m, b));
  }
  static Vec xor_(Vec a, Vec b) { return _mm_xor_si128(a, b); }
  static Vec or_(Vec a, Vec b) { return _mm_or_si128(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm_and_si128(a, b); }
  static std::uint64_t lane_column(const std::uint64_t* m, unsigned f) {
    // Shift bit f of two rows into their sign bits, then movmskpd.
    const __m128i to_sign = _mm_cvtsi32_si128(static_cast<int>(63 - f));
    std::uint64_t col = 0;
    for (int i = 0; i < 32; ++i) {
      const __m128i x = _mm_sll_epi64(load(m + 2 * i), to_sign);
      col |= static_cast<std::uint64_t>(_mm_movemask_pd(_mm_castsi128_pd(x)))
             << (2 * i);
    }
    return col;
  }
};

template <class T>
struct Sse2Ops;

template <>
struct Sse2Ops<std::int16_t> : Sse2Bits {
  using Elem = std::int16_t;
  static constexpr int kLanes = 8;

  static Vec broadcast(std::int16_t x) { return _mm_set1_epi16(x); }
  static Vec add(Vec a, Vec b) { return _mm_add_epi16(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm_sub_epi16(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm_adds_epi16(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm_subs_epi16(a, b); }
  static Vec min(Vec a, Vec b) { return _mm_min_epi16(a, b); }
  static Vec max(Vec a, Vec b) { return _mm_max_epi16(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm_cmpgt_epi16(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm_cmpeq_epi16(a, b); }
  static Vec abs(Vec a) { return _mm_max_epi16(a, _mm_sub_epi16(zero(), a)); }
  static std::uint64_t sign_mask(Vec a) {
    // packs keeps each word's sign in a byte; pmovmskb reads them.
    return static_cast<std::uint32_t>(_mm_movemask_epi8(_mm_packs_epi16(a, a))) &
           0xFFU;
  }
  template <int kShift>
  static Vec srl(Vec a) {
    return _mm_srli_epi16(a, kShift);
  }
  template <int kShift>
  static Vec sll(Vec a) {
    return _mm_slli_epi16(a, kShift);
  }
  static Vec mullo(Vec a, Vec b) { return _mm_mullo_epi16(a, b); }
  static Vec mulhi(Vec a, Vec b) { return _mm_mulhi_epi16(a, b); }
};

/// SSE2 has no pminsb/pmaxsb/pabsb (those are SSE4.1/SSSE3), so int8
/// min/max are cmpgt+select and abs is max(v, 0 - v) — exact for v >= -127,
/// which the symmetric rail guarantees.
template <>
struct Sse2Ops<std::int8_t> : Sse2Bits {
  using Elem = std::int8_t;
  static constexpr int kLanes = 16;

  static Vec broadcast(std::int8_t x) {
    return _mm_set1_epi8(static_cast<char>(x));
  }
  static Vec add(Vec a, Vec b) { return _mm_add_epi8(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm_sub_epi8(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm_adds_epi8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm_subs_epi8(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm_cmpgt_epi8(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm_cmpeq_epi8(a, b); }
  static Vec min(Vec a, Vec b) { return blend(cmpgt(a, b), b, a); }
  static Vec max(Vec a, Vec b) { return blend(cmpgt(a, b), a, b); }
  static Vec abs(Vec a) { return max(a, _mm_sub_epi8(zero(), a)); }
  static std::uint64_t sign_mask(Vec a) {
    return static_cast<std::uint32_t>(_mm_movemask_epi8(a));
  }
};

void quantize_pass(const SimdQuantizePass& pass) {
  // 16 LLRs per step: four 4-wide float pipelines, the tie test on the
  // exact fraction as all-ones compare masks (t - ge + le), narrowed
  // through the saturating packs; the rail clamp runs on int16 (SSE2 has
  // no epi32 min/max), where every pre-limited code fits.
  const __m128 vscale = _mm_set1_ps(pass.fscale);
  const __m128 vhi = _mm_set1_ps(pass.fhi);
  const __m128 vlo = _mm_set1_ps(pass.flo);
  const __m128 vhalf = _mm_set1_ps(0.5F);
  const __m128 vnhalf = _mm_set1_ps(-0.5F);
  const __m128i vrail = _mm_set1_epi16(pass.hi);
  const __m128i vnrail = _mm_set1_epi16(pass.lo);
  const auto quant4 = [&](std::size_t v) {
    __m128 s = _mm_mul_ps(_mm_loadu_ps(pass.llr + v), vscale);
    s = _mm_and_ps(s, _mm_cmpord_ps(s, s));  // NaN -> 0
    s = _mm_min_ps(_mm_max_ps(s, vlo), vhi);
    const __m128i t = _mm_cvttps_epi32(s);
    const __m128 frac = _mm_sub_ps(s, _mm_cvtepi32_ps(t));
    const __m128i up = _mm_castps_si128(_mm_cmpge_ps(frac, vhalf));
    const __m128i down = _mm_castps_si128(_mm_cmple_ps(frac, vnhalf));
    return _mm_add_epi32(_mm_sub_epi32(t, up), down);
  };
  const auto codes = [&](std::size_t v) {  // 8 railed int16 codes
    const __m128i w = _mm_packs_epi32(quant4(v), quant4(v + 4));
    return _mm_max_epi16(_mm_min_epi16(w, vrail), vnrail);
  };
  std::size_t v = 0;
  if (pass.out16) {
    for (; v + 8 <= pass.n; v += 8)
      _mm_storeu_si128(reinterpret_cast<__m128i*>(pass.out16 + v), codes(v));
  } else {
    for (; v + 16 <= pass.n; v += 16)
      _mm_storeu_si128(reinterpret_cast<__m128i*>(pass.out8 + v),
                       _mm_packs_epi16(codes(v), codes(v + 8)));
  }
  detail::quantize_scalar(pass, v);
}

constexpr Kernels kKernels =
    detail::make_kernels<Sse2Ops<std::int16_t>, Sse2Ops<std::int8_t>>(
        &quantize_pass);

}  // namespace

const Kernels& detail::sse2_kernels() { return kKernels; }

}  // namespace ldpc::simd

#endif  // LDPC_SIMD_X86
