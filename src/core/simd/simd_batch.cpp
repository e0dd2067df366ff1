#include "core/simd/simd_batch.hpp"

#include <algorithm>

#include "util/check.hpp"

namespace ldpc {

// The z-lane base validates the configuration (through its scalar
// reference, which also builds the MIM tables) and owns the one message
// policy both shapes use.
template <class P>
SimdBatchDriver<P>::SimdBatchDriver(const QCLdpcCode& code,
                                    DecoderOptions options,
                                    FixedFormat format,
                                    std::optional<simd::SimdTier> tier)
  requires std::same_as<P, simd::Q16Messages>
    : SimdZLaneDriver<P>(code, options, format, tier) {
  init_block_geometry();
}

template <class P>
SimdBatchDriver<P>::SimdBatchDriver(const QCLdpcCode& code,
                                    DecoderOptions options, int msg_bits,
                                    float design_ebn0_db,
                                    std::optional<simd::SimdTier> tier)
  requires std::same_as<P, simd::FaMessages>
    : SimdZLaneDriver<P>(code, options, msg_bits, design_ebn0_db, tier) {
  init_block_geometry();
}

template <class P>
void SimdBatchDriver<P>::init_block_geometry() {
  lanes_ = P::lanes(msg_.tier);
  msg_.bind_lanes(lanes_);
  layers_.reserve(code_.layers().size());
  for (const auto& layer : code_.layers()) {
    std::vector<simd::BatchBlock> blocks;
    blocks.reserve(layer.size());
    for (const auto& blk : layer)
      blocks.push_back({blk.block_col * z_, blk.shift % z_, blk.r_slot * z_});
    layers_.push_back(std::move(blocks));
  }
  std::size_t max_deg = 0;
  for (const auto& layer : layers_) max_deg = std::max(max_deg, layer.size());
  const std::size_t r_rows = code_.base().nonzero_blocks() * z_;
  // kBatchPrefetchPad rows of slack so the kernels' look-ahead prefetches
  // stay inside the allocations.
  p_.resize((code_.n() + simd::kBatchPrefetchPad) * lanes_);
  r_.resize((r_rows + simd::kBatchPrefetchPad) * lanes_);
  q_.resize(std::max<std::size_t>(max_deg, 1) * lanes_);
  active_.assign(lanes_, Elem{0});
  r_keep_.assign(lanes_, Elem{-1});
  const std::size_t words = (code_.n() + 63) / 64;
  signs_.resize(words * 64);
  words_.resize(words * lanes_);
  loading_.reserve(lanes_);
  retiring_.reserve(lanes_);
  lane_.assign(lanes_, Lane{});
  q_clips_.assign(lanes_, 0);
  r_clips_.assign(lanes_, 0);
  p_clips_.assign(lanes_, 0);
  degenerate_.assign(lanes_, 0);
  weight_.assign(lanes_, 0);
}

template <class P>
void SimdBatchDriver<P>::decode_block(std::span<const BlockFrame> frames,
                                      std::span<DecodeResult> results,
                                      std::span<SaturationStats> saturation) {
  LDPC_CHECK(results.size() == frames.size());
  LDPC_CHECK(saturation.size() == frames.size());
  for (const BlockFrame& f : frames) LDPC_CHECK(f.llr.size() == code_.n());

  SimdFallback reason = this->config_fallback();
  // The observer contract is one snapshot per iteration of one frame;
  // interleaved lanes have no meaningful single-frame cadence.
  if (reason == SimdFallback::kNone && options_.observer)
    reason = SimdFallback::kObserver;
  if (reason != SimdFallback::kNone) {
    // Per-frame decodes on the inherited z-lane path. A frame that also
    // bypassed the z-lane kernel already carries the same reason; stamp
    // why batching was off on the rest.
    Decoder::decode_block(frames, results, saturation);
    for (DecodeResult& result : results)
      if (result.simd_fallback == SimdFallback::kNone)
        result.simd_fallback = reason;
    return;
  }
  run_block(frames, results, saturation);
  // The per-frame tokens replaced any attached one for the block.
  this->set_cancel_token(nullptr);
}

template <class P>
void SimdBatchDriver<P>::run_block(std::span<const BlockFrame> frames,
                                   std::span<DecodeResult> results,
                                   std::span<SaturationStats> saturation) {
  const std::size_t count = frames.size();
  const std::size_t n = code_.n();
  std::size_t next = 0;  // next pending frame to claim a lane
  std::size_t done = 0;
  std::uint32_t live = 0;  // lanes currently carrying a frame
  // Every frame runs the batched kernel; saturation() reports the stats of
  // the last frame to retire.
  last_used_scalar_ = false;
  last_fallback_ = SimdFallback::kNone;

  simd::SimdBatchLayerPass<Elem> pass;
  pass.p = p_.data();
  pass.q = q_.data();
  pass.r = r_.data();
  pass.z = z_;
  pass.active = active_.data();
  pass.r_keep = r_keep_.data();
  pass.count_clips = options_.count_saturation;
  pass.q_clips = q_clips_.data();
  pass.r_clips = r_clips_.data();
  pass.p_clips = p_clips_.data();
  msg_.setup(pass);

  simd::SimdBatchSyndromePass<Elem> syn;
  syn.p = p_.data();
  syn.z = z_;

  const bool et = options_.early_termination;
  const bool wd = options_.watchdog.enabled();

  simd::SimdBatchDrainPass<Elem> drain_pass;
  drain_pass.p = p_.data();
  drain_pass.rows = static_cast<std::uint32_t>(n);
  drain_pass.signs = signs_.data();
  drain_pass.words = static_cast<std::uint32_t>((n + 63) / 64);
  drain_pass.lanes = retiring_.data();
  drain_pass.out = words_.data();

  // Claim lane f for frame g; its posteriors are written by the next
  // refill() together with every other lane claimed at this boundary.
  const auto claim = [&](std::uint32_t f, std::size_t g) {
    Lane& lane = lane_[f];
    lane.frame = g;
    lane.iter = 0;
    lane.watchdog = WatchdogState(options_.watchdog);
    lane.cancel = frames[g].cancel;
    saturation[g] = SaturationStats{};
    q_clips_[f] = 0;
    r_clips_[f] = 0;
    p_clips_[f] = 0;
    degenerate_[f] = 0;
    active_[f] = -1;
    loading_.push_back(f);
    ++live;
  };

  // Quantize the claimed lanes' frames into their columns, kRefillRows
  // variable rows at a time: per lane, the row slice goes through a small
  // staging row and is scattered into the tile, whose rows stay L1-
  // resident across the lanes — each posterior line is written once per
  // refill, not once per loading frame. The counted quantizer shares the
  // scatter; both quantizers give the same codes. The lanes' R columns
  // are NOT zero-filled — r_keep_ masks their reads for the frames' first
  // iteration instead (see SimdBatchLayerPass::r_keep).
  const auto refill = [&] {
    const std::size_t stride = lanes_;
    for (std::size_t v0 = 0; v0 < n; v0 += kRefillRows) {
      const std::size_t rows = std::min<std::size_t>(kRefillRows, n - v0);
      Elem* const tile = p_.data() + v0 * stride;
      for (const std::uint32_t f : loading_) {
        const std::size_t g = lane_[f].frame;
        const float* const llr = frames[g].llr.data() + v0;
        Elem stage[kRefillRows];
        if (options_.count_saturation) {
          long long& clips = saturation[g].quantizer_clips;
          for (std::size_t i = 0; i < rows; ++i)
            stage[i] = msg_.quantize(llr[i], clips);
        } else {
          msg_.quantize_row(llr, stage, rows);
        }
        // Locals, not members: an int8 store may alias any object, so
        // members read in the loop would be reloaded after every store.
        Elem* col = tile + f;
        for (std::size_t i = 0; i < rows; ++i, col += stride) *col = stage[i];
      }
    }
    loading_.clear();
  };

  // Retire lane f: stop counting its clips and queue it for the boundary's
  // drain, which writes its frame's DecodeResult exactly as the scalar
  // decoder's iteration tail + output parity recheck would have. When the
  // caller just ran the vectorized syndrome pass, lane f's parity is
  // already known (`parity_known` + `parity` = weight_[f] == 0) and the
  // scalar whole-code parity_ok walk is skipped; only cancellation mid-
  // iteration (stale weight_) and the no-probe configuration pay it.
  const auto retire = [&](std::uint32_t f, bool watchdog_fired, bool cancelled,
                          bool parity_known, bool parity) {
    lane_[f].exit = {watchdog_fired, cancelled, parity_known, parity};
    active_[f] = 0;
    retiring_.push_back(f);
    --live;
  };

  // Write the results of every lane retired at this boundary. One kernel
  // sweep takes the posterior rows' sign masks and reads each retiring
  // lane's hard-bit words out of them; it runs before the next layer pass
  // overwrites the retired lanes.
  const auto drain = [&] {
    if (retiring_.empty()) return;
    drain_pass.count = static_cast<std::uint32_t>(retiring_.size());
    msg_.batch_drain(drain_pass);
    for (std::size_t i = 0; i < retiring_.size(); ++i) {
      const std::uint32_t f = retiring_[i];
      Lane& lane = lane_[f];
      DecodeResult& res = results[lane.frame];
      res.hard_bits.resize(n);
      for (std::uint32_t w = 0; w < drain_pass.words; ++w)
        res.hard_bits.set_word(w, words_[i * drain_pass.words + w]);
      res.iterations = lane.iter;
      res.converged = lane.exit.parity_known ? lane.exit.parity
                                             : code_.parity_ok(res.hard_bits);
      res.status = classify_exit(res.converged, lane.exit.watchdog_fired, 0,
                                 lane.exit.cancelled);
      res.faults_injected = 0;
      res.simd_fallback = SimdFallback::kNone;
      SaturationStats& sat = saturation[lane.frame];
      sat.q_clips = q_clips_[f];
      sat.r_clips = r_clips_[f];
      sat.p_clips = p_clips_[f];
      sat.datapath_clips = sat.q_clips + sat.r_clips + sat.p_clips;
      sat.degenerate_checks = degenerate_[f];
      saturation_ = sat;
      lane.frame = kIdleLane;
      lane.cancel = nullptr;
      ++done;
    }
    retiring_.clear();
  };

  while (done < count) {
    // Refill: idle lanes pick up pending frames mid-block, so lanes stay
    // full while their neighbours are still iterating.
    for (std::uint32_t f = 0; f < lanes_ && next < count; ++f)
      if (lane_[f].frame == kIdleLane) claim(f, next++);
    refill();

    for (std::uint32_t f = 0; f < lanes_; ++f)
      if (lane_[f].frame != kIdleLane) {
        const std::size_t iter = ++lane_[f].iter;
        // First iteration of a refilled lane: its R column is stale memory
        // and must read as 0 (the kernel masks it via r_keep).
        r_keep_[f] = iter == 1 ? Elem{0} : Elem{-1};
        msg_.start_lane_iteration(f, iter);
      }

    for (std::size_t l = 0; l < layers_.size() && live > 0; ++l) {
      // Same cooperative-cancellation cadence as the scalar decoder:
      // polled at every layer boundary, where lane posteriors are
      // consistent. An expired lane finalizes from its current state —
      // parity recheck decides converged vs deadline-expired.
      for (std::uint32_t f = 0; f < lanes_; ++f) {
        const Lane& lane = lane_[f];
        if (lane.frame != kIdleLane && lane.cancel && lane.cancel->expired())
          retire(f, false, true, false, false);
      }
      drain();
      if (live == 0) break;
      const auto& blocks = layers_[l];
      if (blocks.empty()) continue;
      pass.blocks = blocks.data();
      pass.deg = static_cast<std::uint32_t>(blocks.size());
      pass.degenerate = blocks.size() < 2;
      msg_.batch_layer(pass);
      // A degree-1 layer forces R' = 0 on every one of its z rows, once
      // per layer pass — same accounting as the scalar row kernels, per
      // frame.
      if (blocks.size() == 1)
        for (std::uint32_t f = 0; f < lanes_; ++f)
          if (active_[f] != 0) degenerate_[f] += z_;
    }

    if (live == 0) continue;  // everything cancelled mid-iteration

    // Iteration tail, per lane in the scalar order: early termination,
    // then the watchdog (which may abort even on the final iteration),
    // then the iteration budget.
    if (et || wd) {
      std::fill(weight_.begin(), weight_.end(), 0);
      syn.weight = weight_.data();
      for (const auto& blocks : layers_) {
        if (blocks.empty()) continue;
        syn.blocks = blocks.data();
        syn.deg = static_cast<std::uint32_t>(blocks.size());
        msg_.batch_syndrome(syn);
      }
    }
    const bool probed = et || wd;  // weight_ holds this iteration's syndrome
    for (std::uint32_t f = 0; f < lanes_; ++f) {
      Lane& lane = lane_[f];
      if (lane.frame == kIdleLane) continue;
      const bool parity = probed && weight_[f] == 0;
      if (et && parity) {
        retire(f, false, false, true, true);
        continue;
      }
      if (wd && lane.watchdog.should_abort(
                    static_cast<std::size_t>(weight_[f]))) {
        retire(f, true, false, probed, parity);
        continue;
      }
      if (lane.iter >= options_.max_iterations)
        retire(f, false, false, probed, parity);
    }
    drain();
  }
}

template class SimdBatchDriver<simd::Q16Messages>;
template class SimdBatchDriver<simd::FaMessages>;

}  // namespace ldpc
