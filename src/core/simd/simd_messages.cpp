#include "core/simd/simd_messages.hpp"

#include <algorithm>

namespace ldpc::simd {
namespace {

/// The quantize kernel's parameters for codes on `grid`, clamped to
/// [lo, hi]: the scalar quantizers' scale and rails-plus-one pre-limit.
SimdQuantizePass quantize_params(const FixedFormat& grid, std::int32_t lo,
                                 std::int32_t hi) {
  SimdQuantizePass qp{};
  qp.fscale = static_cast<float>(1 << grid.frac_bits);
  qp.fhi = static_cast<float>(grid.max_code()) + 1.0F;
  qp.flo = static_cast<float>(grid.min_code()) - 1.0F;
  qp.hi = static_cast<std::int16_t>(hi);
  qp.lo = static_cast<std::int16_t>(lo);
  return qp;
}

}  // namespace

Q16Messages::Q16Messages(FixedFormat fmt, float scale,
                         std::optional<SimdTier> t)
    : tier(t.value_or(best_tier())),
      format(fmt),
      kernels_(&kernels_for(tier)),
      quant_(quantize_params(fmt, fmt.min_code(), fmt.max_code())),
      check_{static_cast<Elem>(fmt.min_code()),
             static_cast<Elem>(fmt.max_code()), ScaleMode::kThreeQuarters,
             3, 0},
      wide_(fmt.total_bits > 15) {
  if (scale != 0.75F) {
    check_.mode = ScaleMode::kNumOver16;
    check_.scale_num = static_cast<std::int16_t>(
        static_cast<std::int32_t>(scale * 16.0F + 0.5F));
  }
}

Q16Messages Q16Messages::offset(FixedFormat fmt, std::int32_t offset_code,
                                std::optional<SimdTier> t) {
  Q16Messages m(fmt, 0.75F, t);
  m.check_.mode = ScaleMode::kOffset;
  m.check_.offset_code = static_cast<std::int16_t>(
      std::min<std::int32_t>(offset_code, INT16_MAX));
  m.wide_ = m.wide_ || offset_code > INT16_MAX;
  return m;
}

FaMessages::FaMessages(const FaTableSet& ts, std::optional<SimdTier> t)
    : tier(t.value_or(best_tier())),
      tables(&ts),
      format(ts.posterior),
      kernels_(&kernels_for(tier)),
      quant_(quantize_params(ts.posterior, -kFaRail, kFaRail)),
      num_thr_(static_cast<std::uint32_t>(ts.levels - 1)) {
  iter_tables_.reserve(ts.tables.size());
  for (const FaCnTable& table : ts.tables) {
    IterTable it{};
    it.recon0 = table.recon[0];
    for (std::uint32_t k = 0; k < num_thr_; ++k) {
      it.thr[k] = table.thr[k];
      // Deltas are nonnegative (recon is nondecreasing) and every prefix
      // sum recon0 + delta[0..k] = recon[k+1] <= 127: the kernel's
      // wrapping-add staircase cannot overflow.
      it.delta[k] =
          static_cast<std::int8_t>(table.recon[k + 1] - table.recon[k]);
    }
    iter_tables_.push_back(it);
  }
}

void FaMessages::bind_lanes(std::uint32_t lanes) {
  lanes_ = lanes;
  thr_lanes_.assign(static_cast<std::size_t>(num_thr_) * lanes, 0);
  delta_lanes_.assign(static_cast<std::size_t>(num_thr_) * lanes, 0);
  recon0_lanes_.assign(lanes, 0);
}

}  // namespace ldpc::simd
