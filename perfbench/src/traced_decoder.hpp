// Measuring the core layer from outside: a DecoderFactory that wraps every
// decoder it builds in a forwarding Decoder. The wrapper counts each
// decode_block / decode call and the frames it carried, and — when a span
// log is attached — records the call as a span under the current parent (a
// batch pass). Construction is always timed: it is part of the set-up a
// user pays.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/decoder_factory.hpp"

namespace perfbench {

class DecoderProbe {
 public:
  /// `spans` null = untraced: only counters, no per-call clock reads.
  DecoderProbe(std::string decoder_name, const ldpc::QCLdpcCode& code,
               SpanLog* spans = nullptr);

  /// Factory for BatchEngine / direct use. The probe must outlive every
  /// decoder the factory returns.
  ldpc::DecoderFactory factory();

  /// Span the next calls are attributed to (0 = none).
  void set_parent(std::uint64_t span_id) {
    parent_.store(span_id, std::memory_order_relaxed);
  }
  std::uint64_t parent() const {
    return parent_.load(std::memory_order_relaxed);
  }
  SpanLog* spans() const { return spans_.load(std::memory_order_relaxed); }
  /// Switch tracing on (a log) or off (nullptr) between decode calls.
  void set_spans(SpanLog* spans) {
    spans_.store(spans, std::memory_order_relaxed);
  }

  std::size_t decoders_built() const;
  /// Wall time of each factory call, in build order.
  std::vector<double> build_ms() const;

  /// Call counters, summed over every decoder built so far.
  struct Totals {
    std::uint64_t calls = 0;
    std::uint64_t frames = 0;
  };
  Totals totals() const;

  struct Counters {
    std::atomic<std::uint64_t> calls{0};
    std::atomic<std::uint64_t> frames{0};
  };

 private:
  std::string decoder_name_;
  const ldpc::QCLdpcCode& code_;
  std::atomic<SpanLog*> spans_;
  std::atomic<std::uint64_t> parent_{0};

  mutable std::mutex mutex_;
  std::vector<std::shared_ptr<Counters>> counters_;
  std::vector<double> build_ms_;
};

}  // namespace perfbench
