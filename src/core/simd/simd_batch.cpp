#include "core/simd/simd_batch.hpp"

#include <algorithm>
#include <bit>

#include "util/check.hpp"

namespace ldpc {
namespace {

/// out[i] ^= in[i] for i < count: one block's run of consecutive sign-mask
/// rows onto consecutive check rows. Four words per step: at -O2 GCC's
/// straight-line (SLP) vectorizer turns the unrolled body into 128-bit
/// XORs on baseline x86-64, which it does not do for the plain loop.
void xor_run(std::uint64_t* __restrict out,
             const std::uint64_t* __restrict in, std::size_t count) {
  std::size_t i = 0;
  for (; i + 4 <= count; i += 4)
    for (std::size_t k = 0; k < 4; ++k) out[i + k] ^= in[i + k];
  for (; i < count; ++i) out[i] ^= in[i];
}

}  // namespace

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
  // The mask sweep writes rows below n; the rows past n stay zero, so the
  // drain reads whole 64-row words.
  const std::size_t words = (code_.n() + 63) / 64;
  signs_.assign(words * 64, 0);
  words_.resize(words * lanes_);
  check_rows_.resize(z_);
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
  // A lone frame takes the z-lane kernel, not one live lane of the batched
  // one; that is the per-frame path, not a fallback.
  if (frames.size() == 1) {
    Decoder::decode_block(frames, results, saturation);
    return;
  }

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
  std::uint64_t live = 0;  // bit(f) set: lane f carries a frame
  const auto bit = [](std::uint32_t f) { return std::uint64_t{1} << f; };
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

  const bool et = options_.early_termination;
  const bool wd = options_.watchdog.enabled();

  simd::SimdBatchDrainPass<Elem> drain_pass;
  drain_pass.p = p_.data();
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
    live |= bit(f);
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

  // The lanes of `of` whose hard decisions fail parity. One kernel sweep
  // takes every posterior row's lane sign mask into signs_; check row r of
  // a layer is then unsatisfied in the lanes set in the XOR of its blocks'
  // masks signs_[p_base + (r + shift) mod z] — the scalar parity check,
  // bit-sliced across frames. Per block that is two runs of consecutive
  // rows (before and after the circulant wraps), XORed into the layer's
  // check_rows_ words. With the watchdog on, each lane's unsatisfied rows
  // are also counted into weight_[f], which then equals
  // QCLdpcCode::syndrome_weight of its hard decisions.
  const auto unsatisfied = [&](std::uint64_t of) {
    if (wd) std::fill(weight_.begin(), weight_.end(), 0);
    drain_pass.rows = static_cast<std::uint32_t>(n);
    drain_pass.count = 0;
    msg_.batch_drain(drain_pass);
    std::uint64_t unsat = 0;
    std::uint64_t* const rows = check_rows_.data();
    for (const auto& blocks : layers_) {
      std::fill(check_rows_.begin(), check_rows_.end(), 0);
      for (const simd::BatchBlock& b : blocks) {
        const std::uint64_t* const masks = signs_.data() + b.p_base;
        const std::uint32_t head = z_ - b.shift;  // rows before the wrap
        xor_run(rows, masks + b.shift, head);
        xor_run(rows + head, masks, b.shift);
      }
      for (std::uint32_t r = 0; r < z_; ++r) {
        std::uint64_t word = rows[r] & of;
        unsat |= word;
        for (; wd && word != 0; word &= word - 1)
          ++weight_[std::countr_zero(word)];
      }
    }
    return unsat;
  };

  // Retire lane f: stop counting its clips and write its frame's
  // DecodeResult exactly as the scalar decoder's iteration tail + output
  // parity recheck would have, `parity` coming from this boundary's sign
  // masks; the boundary's drain() then adds the hard bits.
  const auto retire = [&](std::uint32_t f, bool parity, bool watchdog_fired,
                          bool cancelled) {
    const Lane& lane = lane_[f];
    DecodeResult& res = results[lane.frame];
    res.iterations = lane.iter;
    res.converged = parity;
    res.status = classify_exit(parity, watchdog_fired, 0, cancelled);
    res.faults_injected = 0;
    res.simd_fallback = SimdFallback::kNone;
    SaturationStats& sat = saturation[lane.frame];
    sat.q_clips = q_clips_[f];
    sat.r_clips = r_clips_[f];
    sat.p_clips = p_clips_[f];
    sat.datapath_clips = sat.q_clips + sat.r_clips + sat.p_clips;
    sat.degenerate_checks = degenerate_[f];
    saturation_ = sat;
    active_[f] = 0;
    live &= ~bit(f);
    retiring_.push_back(f);
  };

  // Read the hard-bit words of every lane retired at this boundary out of
  // the sign masks its parity came from, before the next layer pass
  // overwrites the retired lanes.
  const auto drain = [&] {
    if (retiring_.empty()) return;
    drain_pass.rows = 0;
    drain_pass.count = static_cast<std::uint32_t>(retiring_.size());
    msg_.batch_drain(drain_pass);
    for (std::size_t i = 0; i < retiring_.size(); ++i) {
      Lane& lane = lane_[retiring_[i]];
      BitVec& bits = results[lane.frame].hard_bits;
      bits.resize(n);
      for (std::uint32_t w = 0; w < drain_pass.words; ++w)
        bits.set_word(w, words_[i * drain_pass.words + w]);
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

    for (std::size_t l = 0; l < layers_.size() && live != 0; ++l) {
      // Same cooperative-cancellation cadence as the scalar decoder:
      // polled at every layer boundary, where lane posteriors are
      // consistent. An expired lane finalizes from its current state —
      // parity recheck decides converged vs deadline-expired.
      std::uint64_t expired = 0;
      for (std::uint32_t f = 0; f < lanes_; ++f) {
        const Lane& lane = lane_[f];
        if (lane.frame != kIdleLane && lane.cancel && lane.cancel->expired())
          expired |= bit(f);
      }
      if (expired != 0) {
        const std::uint64_t unsat = unsatisfied(expired);
        for (std::uint32_t f = 0; f < lanes_; ++f)
          if ((expired & bit(f)) != 0)
            retire(f, (unsat & bit(f)) == 0, false, true);
        drain();
        if (live == 0) break;
      }
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
    // then the iteration budget. The masks are swept only when one of
    // them can retire a lane.
    const std::size_t budget = options_.max_iterations;
    const bool probe =
        et || wd ||
        std::any_of(lane_.begin(), lane_.end(), [&](const Lane& lane) {
          return lane.frame != kIdleLane && lane.iter >= budget;
        });
    const std::uint64_t unsat = probe ? unsatisfied(live) : 0;
    for (std::uint32_t f = 0; f < lanes_; ++f) {
      Lane& lane = lane_[f];
      if (lane.frame == kIdleLane) continue;
      const bool parity = (unsat & bit(f)) == 0;
      if (et && parity) {
        retire(f, true, false, false);
        continue;
      }
      if (wd && lane.watchdog.should_abort(
                    static_cast<std::size_t>(weight_[f]))) {
        retire(f, parity, true, false);
        continue;
      }
      if (lane.iter >= budget) retire(f, parity, false, false);
    }
    drain();
  }
}

template class SimdBatchDriver<simd::Q16Messages>;
template class SimdBatchDriver<simd::FaMessages>;

}  // namespace ldpc
