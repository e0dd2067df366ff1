// AVX2 lane kernel: 16 int16 / 32 int8 lanes per step — a whole z = 96
// int16 layer is six vector iterations. Compiled with -mavx2 (see
// src/core/CMakeLists.txt) and only ever dispatched to after a runtime
// __builtin_cpu_supports check, so the library binary stays safe on
// pre-AVX2 hosts.
#include "core/simd/simd_kernel_impl.hpp"

#ifdef LDPC_SIMD_X86

#include <immintrin.h>

namespace ldpc::simd {
namespace {

/// What both element types share: the 256-bit register, unaligned
/// load/store and the lane-agnostic select and bitwise ops.
struct Avx2Bits {
  using Vec = __m256i;

  template <class T>
  static Vec load(const T* p) {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  template <class T>
  static void store(T* p, Vec a) {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), a);
  }
  static Vec zero() { return _mm256_setzero_si256(); }
  static Vec blend(Vec m, Vec a, Vec b) {
    // blendv picks per byte; lane masks are all-ones per lane, so byte
    // granularity is exact for int16 lanes too.
    return _mm256_blendv_epi8(b, a, m);
  }
  static Vec xor_(Vec a, Vec b) { return _mm256_xor_si256(a, b); }
  static Vec or_(Vec a, Vec b) { return _mm256_or_si256(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm256_and_si256(a, b); }
  static std::uint64_t lane_column(const std::uint64_t* m, unsigned f) {
    // Shift bit f of four rows into their sign bits, then vmovmskpd.
    const __m128i to_sign = _mm_cvtsi32_si128(static_cast<int>(63 - f));
    std::uint64_t col = 0;
    for (int i = 0; i < 16; ++i) {
      const __m256i x = _mm256_sll_epi64(load(m + 4 * i), to_sign);
      col |= static_cast<std::uint64_t>(
                 _mm256_movemask_pd(_mm256_castsi256_pd(x)))
             << (4 * i);
    }
    return col;
  }
};

template <class T>
struct Avx2Ops;

template <>
struct Avx2Ops<std::int16_t> : Avx2Bits {
  using Elem = std::int16_t;
  static constexpr int kLanes = 16;

  static Vec broadcast(std::int16_t x) { return _mm256_set1_epi16(x); }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi16(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_epi16(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm256_adds_epi16(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm256_subs_epi16(a, b); }
  static Vec min(Vec a, Vec b) { return _mm256_min_epi16(a, b); }
  static Vec max(Vec a, Vec b) { return _mm256_max_epi16(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm256_cmpgt_epi16(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm256_cmpeq_epi16(a, b); }
  static Vec abs(Vec a) { return _mm256_abs_epi16(a); }
  static std::uint64_t sign_mask(Vec a) {
    // packs keeps each word's sign in a byte (per 128-bit half); the
    // permute gathers the two halves' low quadwords before vpmovmskb.
    const __m256i b = _mm256_permute4x64_epi64(_mm256_packs_epi16(a, a), 0xD8);
    return static_cast<std::uint32_t>(_mm256_movemask_epi8(b)) & 0xFFFFU;
  }
  template <int kShift>
  static Vec srl(Vec a) {
    return _mm256_srli_epi16(a, kShift);
  }
  template <int kShift>
  static Vec sll(Vec a) {
    return _mm256_slli_epi16(a, kShift);
  }
  static Vec mullo(Vec a, Vec b) { return _mm256_mullo_epi16(a, b); }
  static Vec mulhi(Vec a, Vec b) { return _mm256_mulhi_epi16(a, b); }
};

template <>
struct Avx2Ops<std::int8_t> : Avx2Bits {
  using Elem = std::int8_t;
  static constexpr int kLanes = 32;

  static Vec broadcast(std::int8_t x) {
    return _mm256_set1_epi8(static_cast<char>(x));
  }
  static Vec add(Vec a, Vec b) { return _mm256_add_epi8(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm256_sub_epi8(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm256_adds_epi8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm256_subs_epi8(a, b); }
  static Vec min(Vec a, Vec b) { return _mm256_min_epi8(a, b); }
  static Vec max(Vec a, Vec b) { return _mm256_max_epi8(a, b); }
  static Vec cmpgt(Vec a, Vec b) { return _mm256_cmpgt_epi8(a, b); }
  static Vec cmpeq(Vec a, Vec b) { return _mm256_cmpeq_epi8(a, b); }
  static Vec abs(Vec a) { return _mm256_abs_epi8(a); }
  static std::uint64_t sign_mask(Vec a) {
    return static_cast<std::uint32_t>(_mm256_movemask_epi8(a));
  }
};

void quantize_pass(const SimdQuantizePass& pass) {
  // 16 LLRs per step: two 8-wide float pipelines, the tie test on the exact
  // fraction as all-ones compare masks (t - ge + le); packs_epi32
  // interleaves the 128-bit halves, fixed by one permute4x64. The rail
  // clamp runs on int16: every pre-limited code fits, so the saturating
  // pack changes nothing a 16-bit rail would keep.
  const __m256 vscale = _mm256_set1_ps(pass.fscale);
  const __m256 vhi = _mm256_set1_ps(pass.fhi);
  const __m256 vlo = _mm256_set1_ps(pass.flo);
  const __m256 vhalf = _mm256_set1_ps(0.5F);
  const __m256 vnhalf = _mm256_set1_ps(-0.5F);
  const __m256i vrail = _mm256_set1_epi16(pass.hi);
  const __m256i vnrail = _mm256_set1_epi16(pass.lo);
  const auto quant8 = [&](std::size_t v) {
    __m256 s = _mm256_mul_ps(_mm256_loadu_ps(pass.llr + v), vscale);
    s = _mm256_and_ps(s, _mm256_cmp_ps(s, s, _CMP_ORD_Q));  // NaN -> 0
    s = _mm256_min_ps(_mm256_max_ps(s, vlo), vhi);
    const __m256i t = _mm256_cvttps_epi32(s);
    const __m256 frac = _mm256_sub_ps(s, _mm256_cvtepi32_ps(t));
    const __m256i up = _mm256_castps_si256(_mm256_cmp_ps(frac, vhalf, _CMP_GE_OQ));
    const __m256i down =
        _mm256_castps_si256(_mm256_cmp_ps(frac, vnhalf, _CMP_LE_OQ));
    return _mm256_add_epi32(_mm256_sub_epi32(t, up), down);
  };
  const auto codes = [&](std::size_t v) {
    const __m256i w = _mm256_permute4x64_epi64(
        _mm256_packs_epi32(quant8(v), quant8(v + 8)), 0xD8);
    return _mm256_max_epi16(_mm256_min_epi16(w, vrail), vnrail);
  };
  std::size_t v = 0;
  if (pass.out16) {
    for (; v + 16 <= pass.n; v += 16)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pass.out16 + v),
                          codes(v));
  } else {
    for (; v + 16 <= pass.n; v += 16) {
      const __m256i w = codes(v);
      _mm_storeu_si128(reinterpret_cast<__m128i*>(pass.out8 + v),
                       _mm_packs_epi16(_mm256_castsi256_si128(w),
                                       _mm256_extracti128_si256(w, 1)));
    }
  }
  detail::quantize_scalar(pass, v);
}

constexpr Kernels kKernels =
    detail::make_kernels<Avx2Ops<std::int16_t>, Avx2Ops<std::int8_t>>(
        &quantize_pass);

}  // namespace

const Kernels& detail::avx2_kernels() { return kKernels; }

}  // namespace ldpc::simd

#endif  // LDPC_SIMD_X86
