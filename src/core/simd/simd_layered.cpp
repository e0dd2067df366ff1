#include "core/simd/simd_layered.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>

#include "fault/fault_injector.hpp"
#include "util/check.hpp"

namespace ldpc {

template <class P>
SimdZLaneDriver<P>::SimdZLaneDriver(const QCLdpcCode& code,
                                    DecoderOptions options,
                                    FixedFormat format,
                                    std::optional<simd::SimdTier> tier)
  requires std::same_as<P, simd::Q16Messages>
    : code_(code),
      options_(options),
      // The scalar twin runs the identical kernel-parameter derivation and
      // validation (scale fraction bounds, format sanity, max_iterations).
      scalar_(std::make_unique<LayeredMinSumFixedDecoder>(code, options,
                                                          format)),
      msg_(format, options.scale, tier) {
  init_geometry();
}

template <class P>
SimdZLaneDriver<P>::SimdZLaneDriver(const QCLdpcCode& code,
                                    DecoderOptions options,
                                    FixedFormat format,
                                    std::int32_t offset_code,
                                    std::string label,
                                    std::optional<simd::SimdTier> tier)
  requires std::same_as<P, simd::Q16Messages>
    : code_(code),
      options_(options),
      scalar_(std::make_unique<LayeredMinSumFixedDecoder>(
          code, options, LayerRowKernel::offset_kernel(format, offset_code),
          label)),
      msg_(simd::Q16Messages::offset(format, offset_code, tier)),
      label_(std::move(label)) {
  init_geometry();
}

template <class P>
SimdZLaneDriver<P>::SimdZLaneDriver(const QCLdpcCode& code,
                                    DecoderOptions options, int msg_bits,
                                    float design_ebn0_db,
                                    std::optional<simd::SimdTier> tier)
  requires std::same_as<P, simd::FaMessages>
    : code_(code),
      options_(options),
      // The scalar twin builds (and owns) the MIM tables and runs the same
      // option validation.
      scalar_(std::make_unique<LayeredMinSumFaDecoder>(code, options,
                                                       msg_bits,
                                                       design_ebn0_db)),
      msg_(scalar_->tables(), tier) {
  init_geometry();
}

template <class P>
void SimdZLaneDriver<P>::init_geometry() {
  z_ = static_cast<std::uint32_t>(code_.z());
  // Lane-count granularity the scratch strides are padded to: at least 16
  // (one layout covers the narrow tiers), or the tier's own lane count
  // when it is wider — a wide tier steps a full vector at a time, so z_pad
  // must be a multiple of it (int16 AVX-512: z = 10 pads to 32, z = 33 to
  // 64; int8 AVX-512: z = 96 pads to 128).
  const std::uint32_t lanes = std::max(16U, P::lanes(msg_.tier));
  z_pad_ = (z_ + lanes - 1) & ~(lanes - 1);
  std::size_t max_deg = 0;
  gather_.reserve(code_.layers().size());
  r_base_.reserve(code_.layers().size());
  for (const auto& layer : code_.layers()) {
    std::vector<GatherBlock> gs;
    std::vector<std::uint32_t> rb;
    gs.reserve(layer.size());
    rb.reserve(layer.size());
    for (const auto& blk : layer) {
      gs.push_back({blk.block_col * z_, blk.shift % z_});
      rb.push_back(blk.r_slot * z_pad_);
    }
    max_deg = std::max(max_deg, layer.size());
    gather_.push_back(std::move(gs));
    r_base_.push_back(std::move(rb));
  }
  posterior_.resize(code_.n());
  r_.resize(code_.base().nonzero_blocks() * static_cast<std::size_t>(z_pad_));
  p_scratch_.resize(max_deg * z_pad_);
  q_scratch_.resize(max_deg * z_pad_);
  // A row's clip counts are lane values (at most deg events per site), so
  // the layer degree must fit the element type — no shipped code comes
  // close to int8's 127.
  force_scalar_ = !msg_.format_fits() ||
                  max_deg > std::numeric_limits<Elem>::max();
}

template <class P>
SimdFallback SimdZLaneDriver<P>::config_fallback() const {
  if (force_scalar_) return SimdFallback::kWideFormat;
  if (options_.fault_injector && options_.fault_injector->enabled())
    return SimdFallback::kFaultInjector;
  return SimdFallback::kNone;
}

template <class P>
DecodeResult SimdZLaneDriver<P>::on_scalar(DecodeResult result,
                                           SimdFallback reason) {
  // Record *why* the lane kernel was bypassed: a benchmark or serving
  // config silently riding the scalar twin is a perf bug, not a
  // correctness one, and must be visible from the outside.
  last_used_scalar_ = true;
  last_fallback_ = reason;
  result.simd_fallback = reason;
  return result;
}

template <class P>
SaturationStats SimdZLaneDriver<P>::saturation() const {
  return last_used_scalar_ ? scalar_->saturation() : saturation_;
}

template <class P>
void SimdZLaneDriver<P>::set_cancel_token(const CancelToken* token) {
  cancel_ = token;
  scalar_->set_cancel_token(token);
}

template <class P>
DecodeResult SimdZLaneDriver<P>::decode(std::span<const float> llr) {
  LDPC_CHECK(llr.size() == code_.n());
  const SimdFallback reason = config_fallback();
  if (reason != SimdFallback::kNone)
    return on_scalar(scalar_->decode(llr), reason);
  saturation_.quantizer_clips = 0;
  if (options_.count_saturation) {
    for (std::size_t v = 0; v < llr.size(); ++v)
      posterior_[v] = msg_.quantize(llr[v], saturation_.quantizer_clips);
  } else {
    msg_.quantize_row(llr.data(), posterior_.data(), llr.size());
  }
  return run();
}

template <class P>
DecodeResult SimdZLaneDriver<P>::decode_quantized(
    std::span<const std::int32_t> channel_codes) {
  LDPC_CHECK(channel_codes.size() == code_.n());
  SimdFallback reason = config_fallback();
  if (reason == SimdFallback::kNone) {
    // The scalar decoder accepts arbitrary int32 codes; the lane kernels
    // assume rail-bounded inputs. Out-of-rail codes (never produced by the
    // quantizer) ride the scalar twin instead.
    const std::int32_t lo = msg_.rail_lo();
    const std::int32_t hi = msg_.rail_hi();
    if (std::any_of(channel_codes.begin(), channel_codes.end(),
                    [&](std::int32_t c) { return c < lo || c > hi; }))
      reason = SimdFallback::kOutOfRailInput;
  }
  if (reason != SimdFallback::kNone)
    return on_scalar(scalar_->decode_quantized(channel_codes), reason);
  for (std::size_t v = 0; v < channel_codes.size(); ++v)
    posterior_[v] = static_cast<Elem>(channel_codes[v]);
  return run();
}

template <class P>
DecodeResult SimdZLaneDriver<P>::run() {
  last_used_scalar_ = false;
  last_fallback_ = SimdFallback::kNone;
  std::fill(r_.begin(), r_.end(), Elem{0});
  saturation_.datapath_clips = 0;
  saturation_.q_clips = 0;
  saturation_.r_clips = 0;
  saturation_.p_clips = 0;
  saturation_.degenerate_checks = 0;
  WatchdogState watchdog(options_.watchdog);
  bool watchdog_fired = false;
  bool cancelled = false;

  DecodeResult result;
  result.hard_bits.resize(code_.n());
  BitVec previous_hard;
  if (options_.observer) previous_hard.resize(code_.n());

  simd::SimdLayerPass<Elem> pass;
  pass.p = p_scratch_.data();
  pass.q = q_scratch_.data();
  pass.r = r_.data();
  pass.z_pad = z_pad_;
  pass.count_clips = options_.count_saturation;
  pass.stats = &saturation_;
  msg_.setup(pass);

  for (std::size_t iter = 1; iter <= options_.max_iterations; ++iter) {
    result.iterations = iter;
    msg_.start_iteration(pass, iter);

    for (std::size_t l = 0; l < gather_.size(); ++l) {
      // Same cooperative-cancellation cadence as the scalar decoder: the
      // posterior memory is consistent at every layer boundary.
      if (cancel_ && cancel_->expired()) {
        cancelled = true;
        break;
      }
      const auto& gs = gather_[l];
      const auto deg = static_cast<std::uint32_t>(gs.size());
      if (deg == 0) continue;

      // Barrel-shift gather: rotate each block column's z posteriors into
      // contiguous lane order, zero the padding lanes.
      for (std::uint32_t j = 0; j < deg; ++j) {
        const Elem* src = posterior_.data() + gs[j].p_base;
        Elem* dst = p_scratch_.data() + j * z_pad_;
        const std::uint32_t shift = gs[j].shift;
        std::memcpy(dst, src + shift, (z_ - shift) * sizeof(Elem));
        std::memcpy(dst + (z_ - shift), src, shift * sizeof(Elem));
        std::memset(dst + z_, 0, (z_pad_ - z_) * sizeof(Elem));
      }

      pass.r_base = r_base_[l].data();
      pass.deg = deg;
      pass.degenerate = deg < 2;
      msg_.layer(pass);
      // A degree-1 layer forces R' = 0 on every one of its z rows, once
      // per layer pass — same accounting as the scalar row kernels.
      if (deg < 2) saturation_.degenerate_checks += z_;
      msg_.finish_layer(pass, z_);

      // Scatter: inverse rotation back into natural variable order.
      for (std::uint32_t j = 0; j < deg; ++j) {
        const Elem* src = p_scratch_.data() + j * z_pad_;
        Elem* dst = posterior_.data() + gs[j].p_base;
        const std::uint32_t shift = gs[j].shift;
        std::memcpy(dst + shift, src, (z_ - shift) * sizeof(Elem));
        std::memcpy(dst, src + (z_ - shift), shift * sizeof(Elem));
      }
    }

    for (std::size_t v = 0; v < code_.n(); ++v)
      result.hard_bits.set(v, posterior_[v] < 0);
    const bool want_weight =
        static_cast<bool>(options_.observer) || options_.watchdog.enabled();
    std::size_t weight = 0;
    if (want_weight) weight = code_.syndrome_weight(result.hard_bits);
    if (options_.observer) {
      IterationSnapshot snap;
      snap.iteration = iter;
      snap.syndrome_weight = weight;
      double sum = 0.0;
      for (const Elem p : posterior_)
        sum += std::abs(static_cast<double>(msg_.format.dequantize(p)));
      snap.mean_abs_llr = sum / static_cast<double>(code_.n());
      snap.flipped_bits = result.hard_bits.hamming_distance(previous_hard);
      snap.saturation_clips =
          saturation_.q_clips + saturation_.r_clips + saturation_.p_clips;
      previous_hard = result.hard_bits;
      options_.observer(snap);
    }
    if (options_.early_termination &&
        (want_weight ? weight == 0 : code_.parity_ok(result.hard_bits))) {
      result.converged = true;
      break;
    }
    if (cancelled) break;
    if (options_.watchdog.enabled() && watchdog.should_abort(weight)) {
      watchdog_fired = true;
      break;
    }
  }

  // Parity recheck on output: never report garbage as a codeword.
  if (!result.converged) result.converged = code_.parity_ok(result.hard_bits);
  saturation_.datapath_clips =
      saturation_.q_clips + saturation_.r_clips + saturation_.p_clips;
  result.status =
      classify_exit(result.converged, watchdog_fired, 0, cancelled);
  return result;
}

template class SimdZLaneDriver<simd::Q16Messages>;
template class SimdZLaneDriver<simd::FaMessages>;

}  // namespace ldpc
