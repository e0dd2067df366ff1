// AVX-512 lane kernel: 32 int16 / 64 int8 lanes per step — one vector
// covers a whole 32-frame (int16) or 64-frame (int8) batch row, one cache
// line, and a z = 96 int16 z-lane layer is three vector iterations.
// Compiled with -mavx512f -mavx512bw (see src/core/CMakeLists.txt) and only
// dispatched to after a runtime __builtin_cpu_supports check for both
// features, so the library binary stays safe on pre-AVX-512 hosts.
//
// AVX-512 comparisons natively produce mask registers, not vectors; the
// LaneOps contract wants all-ones-per-lane vector masks (shared with the
// SSE2/AVX2/portable tiers), so cmpgt/cmpeq expand their __mmask32 /
// __mmask64 through vpmovm2w / vpmovm2b. blend() exploits the contract in
// the other direction: because masks are all-ones per lane, a bitwise
// ternary-logic select (0xCA = m ? a : b) replaces the mask-register blend
// with no conversion at all. sign_mask goes the same way in reverse:
// vpmovw2m / vpmovb2m read the lane sign bits straight into a mask.
#include "core/simd/simd_kernel_impl.hpp"

#ifdef LDPC_SIMD_X86

#include <immintrin.h>

namespace ldpc::simd {
namespace {

/// What both element types share: the 512-bit register, unaligned
/// load/store and the lane-agnostic select and bitwise ops.
struct Avx512Bits {
  using Vec = __m512i;

  template <class T>
  static Vec load(const T* p) {
    return _mm512_loadu_si512(reinterpret_cast<const void*>(p));
  }
  template <class T>
  static void store(T* p, Vec a) {
    _mm512_storeu_si512(reinterpret_cast<void*>(p), a);
  }
  static Vec zero() { return _mm512_setzero_si512(); }
  static Vec blend(Vec m, Vec a, Vec b) {
    // Bitwise select (m & a) | (~m & b): exact because lane masks are
    // all-ones per lane. Truth table 0xCA = m ? a : b.
    return _mm512_ternarylogic_epi32(m, a, b, 0xCA);
  }
  static Vec xor_(Vec a, Vec b) { return _mm512_xor_si512(a, b); }
  static Vec or_(Vec a, Vec b) { return _mm512_or_si512(a, b); }
  static Vec and_(Vec a, Vec b) { return _mm512_and_si512(a, b); }
  static std::uint64_t lane_column(const std::uint64_t* m, unsigned f) {
    // vptestmq: eight rows' bit f per instruction.
    const __m512i bit = _mm512_set1_epi64(static_cast<long long>(1ULL << f));
    std::uint64_t col = 0;
    for (int i = 0; i < 8; ++i)
      col |= std::uint64_t{_mm512_test_epi64_mask(load(m + 8 * i), bit)}
             << (8 * i);
    return col;
  }
};

template <class T>
struct Avx512Ops;

template <>
struct Avx512Ops<std::int16_t> : Avx512Bits {
  using Elem = std::int16_t;
  static constexpr int kLanes = 32;

  static Vec broadcast(std::int16_t x) { return _mm512_set1_epi16(x); }
  static Vec add(Vec a, Vec b) { return _mm512_add_epi16(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_epi16(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm512_adds_epi16(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm512_subs_epi16(a, b); }
  static Vec min(Vec a, Vec b) { return _mm512_min_epi16(a, b); }
  static Vec max(Vec a, Vec b) { return _mm512_max_epi16(a, b); }
  static Vec cmpgt(Vec a, Vec b) {
    return _mm512_movm_epi16(_mm512_cmpgt_epi16_mask(a, b));
  }
  static Vec cmpeq(Vec a, Vec b) {
    return _mm512_movm_epi16(_mm512_cmpeq_epi16_mask(a, b));
  }
  static Vec abs(Vec a) { return _mm512_abs_epi16(a); }
  static std::uint64_t sign_mask(Vec a) { return _mm512_movepi16_mask(a); }
  template <int kShift>
  static Vec srl(Vec a) {
    return _mm512_srli_epi16(a, kShift);
  }
  template <int kShift>
  static Vec sll(Vec a) {
    return _mm512_slli_epi16(a, kShift);
  }
  static Vec mullo(Vec a, Vec b) { return _mm512_mullo_epi16(a, b); }
  static Vec mulhi(Vec a, Vec b) { return _mm512_mulhi_epi16(a, b); }
};

template <>
struct Avx512Ops<std::int8_t> : Avx512Bits {
  using Elem = std::int8_t;
  static constexpr int kLanes = 64;

  static Vec broadcast(std::int8_t x) {
    return _mm512_set1_epi8(static_cast<char>(x));
  }
  static Vec add(Vec a, Vec b) { return _mm512_add_epi8(a, b); }
  static Vec sub(Vec a, Vec b) { return _mm512_sub_epi8(a, b); }
  static Vec adds(Vec a, Vec b) { return _mm512_adds_epi8(a, b); }
  static Vec subs(Vec a, Vec b) { return _mm512_subs_epi8(a, b); }
  static Vec min(Vec a, Vec b) { return _mm512_min_epi8(a, b); }
  static Vec max(Vec a, Vec b) { return _mm512_max_epi8(a, b); }
  static Vec cmpgt(Vec a, Vec b) {
    return _mm512_movm_epi8(_mm512_cmpgt_epi8_mask(a, b));
  }
  static Vec cmpeq(Vec a, Vec b) {
    return _mm512_movm_epi8(_mm512_cmpeq_epi8_mask(a, b));
  }
  static Vec abs(Vec a) { return _mm512_abs_epi8(a); }
  static std::uint64_t sign_mask(Vec a) { return _mm512_movepi8_mask(a); }
  static Vec staircase_add(Vec s, Vec mag, Vec thr, Vec delta) {
    // One masked add replaces the generic cmpgt (vpcmpb + vpmovm2b),
    // vpand, vpaddb chain: s + ((mag > thr) ? delta : 0) in two
    // instructions, same value byte for byte.
    return _mm512_mask_add_epi8(s, _mm512_cmpgt_epi8_mask(mag, thr), s,
                                delta);
  }
};

// GCC 12's unmasked AVX-512 float intrinsics expand through
// _mm512_undefined_ps() merge operands, tripping -Wmaybe-uninitialized
// (GCC PR 105593). The operands are dead — full-mask forms ignore them.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmaybe-uninitialized"
void quantize_pass(const SimdQuantizePass& pass) {
  // 16 LLRs per step: one 16-wide float pipeline, the tie test on the exact
  // fraction as two masked +-1 adds, clamp on int32, narrow with vpmovdw /
  // vpmovdb.
  const __m512 vscale = _mm512_set1_ps(pass.fscale);
  const __m512 vhi = _mm512_set1_ps(pass.fhi);
  const __m512 vlo = _mm512_set1_ps(pass.flo);
  const __m512 vhalf = _mm512_set1_ps(0.5F);
  const __m512 vnhalf = _mm512_set1_ps(-0.5F);
  const __m512i vone = _mm512_set1_epi32(1);
  const __m512i vrail = _mm512_set1_epi32(pass.hi);
  const __m512i vnrail = _mm512_set1_epi32(pass.lo);
  const auto codes = [&](std::size_t v) {
    __m512 s = _mm512_mul_ps(_mm512_loadu_ps(pass.llr + v), vscale);
    s = _mm512_maskz_mov_ps(_mm512_cmp_ps_mask(s, s, _CMP_ORD_Q), s);
    s = _mm512_min_ps(_mm512_max_ps(s, vlo), vhi);  // NaN -> 0 above
    __m512i t = _mm512_cvttps_epi32(s);
    const __m512 frac = _mm512_sub_ps(s, _mm512_cvtepi32_ps(t));
    t = _mm512_mask_add_epi32(
        t, _mm512_cmp_ps_mask(frac, vhalf, _CMP_GE_OQ), t, vone);
    t = _mm512_mask_sub_epi32(
        t, _mm512_cmp_ps_mask(frac, vnhalf, _CMP_LE_OQ), t, vone);
    return _mm512_max_epi32(_mm512_min_epi32(t, vrail), vnrail);
  };
  std::size_t v = 0;
  if (pass.out16) {
    for (; v + 16 <= pass.n; v += 16)
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(pass.out16 + v),
                          _mm512_cvtepi32_epi16(codes(v)));
  } else {
    for (; v + 16 <= pass.n; v += 16)
      _mm_storeu_si128(reinterpret_cast<__m128i*>(pass.out8 + v),
                       _mm512_cvtepi32_epi8(codes(v)));
  }
  detail::quantize_scalar(pass, v);
}
#pragma GCC diagnostic pop

constexpr Kernels kKernels =
    detail::make_kernels<Avx512Ops<std::int16_t>, Avx512Ops<std::int8_t>>(
        &quantize_pass);

}  // namespace

const Kernels& detail::avx512_kernels() { return kKernels; }

}  // namespace ldpc::simd

#endif  // LDPC_SIMD_X86
