#include "traced_decoder.hpp"

#include <utility>

namespace perfbench {
namespace {

/// Forwards every Decoder call to the wrapped decoder, counting (and, when
/// traced, timing) the two decode entry points.
class TracedDecoder final : public ldpc::Decoder {
 public:
  TracedDecoder(std::unique_ptr<ldpc::Decoder> inner, DecoderProbe& probe,
                std::shared_ptr<DecoderProbe::Counters> counters)
      : inner_(std::move(inner)),
        probe_(probe),
        counters_(std::move(counters)) {}

  ldpc::DecodeResult decode(std::span<const float> llr) override {
    SpanLog* spans = probe_.spans();
    const std::int64_t t0 = spans ? now_ns() : 0;
    ldpc::DecodeResult result = inner_->decode(llr);
    finish(spans, "core.decode", t0, 1);
    return result;
  }

  void decode_block(std::span<const ldpc::BlockFrame> frames,
                    std::span<ldpc::DecodeResult> results,
                    std::span<ldpc::SaturationStats> saturation) override {
    SpanLog* spans = probe_.spans();
    const std::int64_t t0 = spans ? now_ns() : 0;
    inner_->decode_block(frames, results, saturation);
    finish(spans, "core.decode_block", t0, frames.size());
  }

  std::size_t n() const override { return inner_->n(); }
  std::size_t k() const override { return inner_->k(); }
  std::string name() const override { return inner_->name(); }
  std::string message_format() const override {
    return inner_->message_format();
  }
  std::size_t block_width() const override { return inner_->block_width(); }
  ldpc::SaturationStats saturation() const override {
    return inner_->saturation();
  }
  void set_cancel_token(const ldpc::CancelToken* token) override {
    inner_->set_cancel_token(token);
  }

 private:
  void finish(SpanLog* spans, const char* name, std::int64_t t0,
              std::size_t frames) {
    counters_->calls.fetch_add(1, std::memory_order_relaxed);
    counters_->frames.fetch_add(frames, std::memory_order_relaxed);
    if (!spans) return;
    spans->record({.name = name,
                   .start_ns = t0,
                   .end_ns = now_ns(),
                   .parent = probe_.parent(),
                   .frames = frames,
                   .thread = thread_index()});
  }

  std::unique_ptr<ldpc::Decoder> inner_;
  DecoderProbe& probe_;
  std::shared_ptr<DecoderProbe::Counters> counters_;
};

}  // namespace

DecoderProbe::DecoderProbe(std::string decoder_name,
                           const ldpc::QCLdpcCode& code, SpanLog* spans)
    : decoder_name_(std::move(decoder_name)), code_(code), spans_(spans) {}

ldpc::DecoderFactory DecoderProbe::factory() {
  return [this]() -> std::unique_ptr<ldpc::Decoder> {
    const std::int64_t t0 = now_ns();
    auto inner = ldpc::make_decoder(decoder_name_, code_, {});
    const std::int64_t t1 = now_ns();
    auto counters = std::make_shared<Counters>();
    {
      const std::lock_guard lock(mutex_);
      counters_.push_back(counters);
      build_ms_.push_back(static_cast<double>(t1 - t0) / 1e6);
    }
    if (SpanLog* spans = this->spans())
      spans->record({.name = "core.build_decoder",
                      .start_ns = t0,
                      .end_ns = t1,
                      .parent = parent(),
                      .thread = thread_index()});
    return std::make_unique<TracedDecoder>(std::move(inner), *this,
                                           std::move(counters));
  };
}

std::size_t DecoderProbe::decoders_built() const {
  const std::lock_guard lock(mutex_);
  return build_ms_.size();
}

std::vector<double> DecoderProbe::build_ms() const {
  const std::lock_guard lock(mutex_);
  return build_ms_;
}

DecoderProbe::Totals DecoderProbe::totals() const {
  const std::lock_guard lock(mutex_);
  Totals t;
  for (const auto& c : counters_) {
    t.calls += c->calls.load(std::memory_order_relaxed);
    t.frames += c->frames.load(std::memory_order_relaxed);
  }
  return t;
}

}  // namespace perfbench
