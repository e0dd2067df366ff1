// Portable lane kernel: fixed-width lane arrays (8 int16 / 16 int8) and
// plain loops. No intrinsics — this tier compiles everywhere (and is the
// only one when LDPC_SIMD=OFF), and the fixed trip counts give the
// autovectorizer a fair shot at emitting vector code anyway. Arithmetic
// is bit-identical to the x86 tiers by construction: all four instantiate
// the same template.
#include "core/simd/simd_kernel_impl.hpp"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>

namespace ldpc::simd {
namespace {

template <class T, int N>
struct PortableOps {
  using Elem = T;
  static constexpr int kLanes = N;
  struct Vec {
    T v[N];
  };

  /// r[i] = f(a[i], b[i]) narrowed to T (wrapping, like the vector ops).
  template <class F>
  static Vec map(Vec a, Vec b, F f) {
    Vec r;
    for (int i = 0; i < N; ++i) r.v[i] = static_cast<T>(f(a.v[i], b.v[i]));
    return r;
  }
  template <class F>
  static Vec map(Vec a, F f) {
    return map(a, a, [f](int x, int) { return f(x); });
  }
  /// Lane mask: all-ones where the predicate holds.
  static int mask(bool x) { return x ? -1 : 0; }
  static int sat(int x) {
    return std::clamp<int>(x, std::numeric_limits<T>::min(),
                           std::numeric_limits<T>::max());
  }

  static Vec load(const T* p) {
    Vec r;
    for (int i = 0; i < N; ++i) r.v[i] = p[i];
    return r;
  }
  static void store(T* p, Vec a) {
    for (int i = 0; i < N; ++i) p[i] = a.v[i];
  }
  static Vec broadcast(T x) {
    Vec r;
    for (int i = 0; i < N; ++i) r.v[i] = x;
    return r;
  }
  static Vec zero() { return broadcast(0); }
  static Vec add(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return x + y; });
  }
  static Vec sub(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return x - y; });
  }
  static Vec adds(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return sat(x + y); });
  }
  static Vec subs(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return sat(x - y); });
  }
  static Vec min(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return x < y ? x : y; });
  }
  static Vec max(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return x > y ? x : y; });
  }
  static Vec cmpgt(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return mask(x > y); });
  }
  static Vec cmpeq(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return mask(x == y); });
  }
  static Vec blend(Vec m, Vec a, Vec b) {
    Vec r;
    for (int i = 0; i < N; ++i) r.v[i] = m.v[i] != 0 ? a.v[i] : b.v[i];
    return r;
  }
  static Vec abs(Vec a) {
    return map(a, [](int x) { return x < 0 ? -x : x; });
  }
  static Vec xor_(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return x ^ y; });
  }
  static Vec or_(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return x | y; });
  }
  static Vec and_(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return x & y; });
  }
  static std::uint64_t sign_mask(Vec a) {
    std::uint64_t m = 0;
    for (int i = 0; i < N; ++i)
      m |= static_cast<std::uint64_t>(a.v[i] < 0) << i;
    return m;
  }
  static std::uint64_t lane_column(const std::uint64_t* m, unsigned f) {
    std::uint64_t col = 0;
    for (int b = 0; b < 64; ++b) col |= ((m[b] >> f) & 1U) << b;
    return col;
  }

  // int16 only (the num/16 correction). Shifts act on the unsigned bit
  // pattern; the products of two T fit an int exactly.
  using U = std::make_unsigned_t<T>;
  template <int kShift>
  static Vec srl(Vec a) {
    return map(a, [](int x) { return static_cast<U>(x) >> kShift; });
  }
  template <int kShift>
  static Vec sll(Vec a) {
    return map(a, [](int x) { return static_cast<U>(x) << kShift; });
  }
  static Vec mullo(Vec a, Vec b) {
    return map(a, b, [](int x, int y) { return x * y; });
  }
  static Vec mulhi(Vec a, Vec b) {
    return map(a, b, [](int x, int y) {
      return (x * y) >> std::numeric_limits<U>::digits;
    });
  }
};

void quantize_pass(const SimdQuantizePass& pass) {
  detail::quantize_scalar(pass, 0);
}

constexpr Kernels kKernels =
    detail::make_kernels<PortableOps<std::int16_t, 8>,
                         PortableOps<std::int8_t, 16>>(&quantize_pass);

}  // namespace

const Kernels& detail::portable_kernels() { return kKernels; }

}  // namespace ldpc::simd
