#include "core/simd/simd_messages.hpp"

#include <algorithm>
#include <cmath>

namespace ldpc::simd {

Q16Messages::Q16Messages(FixedFormat fmt, float scale,
                         std::optional<SimdTier> t)
    : tier(t.value_or(best_tier())),
      format(fmt),
      kernels_(&kernels_for(tier)),
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

void Q16Messages::quantize_row(const float* llr, Elem* out,
                               std::size_t n) const {
  // A branchless restatement of FixedFormat::quantize the autovectorizer
  // can chew on — same NaN -> 0, same rails-plus-one float pre-limit, same
  // round-half-away in double (exact per the quantize() width argument),
  // same integer rail clamp, so codes are bit-identical.
  const float fscale = static_cast<float>(1 << format.frac_bits);
  const float fhi = static_cast<float>(format.max_code()) + 1.0F;
  const float flo = static_cast<float>(format.min_code()) - 1.0F;
  const std::int32_t rail_hi = format.max_code();
  const std::int32_t rail_lo = format.min_code();
  for (std::size_t v = 0; v < n; ++v) {
    float s = llr[v] * fscale;
    s = s != s ? 0.0F : s;
    s = s > fhi ? fhi : s;
    s = s < flo ? flo : s;
    // trunc(d + copysign(0.5, d)) == round_half_away(d): the cast
    // truncates toward zero, so the negative arm ceil(d - 0.5) equals
    // -floor(0.5 - d) — one conversion, no branch.
    const double d = static_cast<double>(s);
    const std::int32_t t = static_cast<std::int32_t>(d + std::copysign(0.5, d));
    const std::int32_t c = t > rail_hi ? rail_hi : (t < rail_lo ? rail_lo : t);
    out[v] = static_cast<Elem>(c);
  }
}

FaMessages::FaMessages(const FaTableSet& ts, std::optional<SimdTier> t)
    : tier(t.value_or(best_tier())),
      tables(&ts),
      format(ts.posterior),
      kernels_(&kernels_for(tier)),
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

void FaMessages::quantize_row(const float* llr, Elem* out,
                              std::size_t n) const {
  SimdFaQuantizePass qp;
  qp.llr = llr;
  qp.out = out;
  qp.n = n;
  qp.fscale = static_cast<float>(1 << format.frac_bits);
  qp.fhi = static_cast<float>(format.max_code()) + 1.0F;
  qp.flo = static_cast<float>(format.min_code()) - 1.0F;
  kernels_->fa_quantize_pass(qp);
}

void FaMessages::bind_lanes(std::uint32_t lanes) {
  lanes_ = lanes;
  thr_lanes_.assign(static_cast<std::size_t>(num_thr_) * lanes, 0);
  delta_lanes_.assign(static_cast<std::size_t>(num_thr_) * lanes, 0);
  recon0_lanes_.assign(lanes, 0);
}

}  // namespace ldpc::simd
