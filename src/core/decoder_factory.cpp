#include "core/decoder_factory.hpp"

#include <cstdint>
#include <sstream>

#include "core/flooding_bp.hpp"
#include "core/flooding_minsum.hpp"
#include "core/gallager_b.hpp"
#include "core/layered_minsum_fa.hpp"
#include "core/layered_minsum_fixed.hpp"
#include "core/layered_minsum_float.hpp"
#include "core/simd/simd_batch.hpp"

namespace ldpc {

namespace {

using Maker = std::unique_ptr<Decoder> (*)(const QCLdpcCode&,
                                           const DecoderOptions&);

/// make<D, args...>: construct D(code, options, args...).
template <class D, auto... Args>
std::unique_ptr<Decoder> make(const QCLdpcCode& code,
                              const DecoderOptions& options) {
  return std::make_unique<D>(code, options, Args...);
}

constexpr FixedFormat kQ8{8, 2};
constexpr FixedFormat kQ6{6, 1};
/// Offset 0.5 in LLR units at the default q8.2 format = 2 codes.
constexpr std::int32_t kOffsetCode = 2;

std::unique_ptr<Decoder> make_offset_fixed(const QCLdpcCode& code,
                                           const DecoderOptions& options) {
  return std::make_unique<LayeredMinSumFixedDecoder>(
      code, options, LayerRowKernel::offset_kernel(kQ8, kOffsetCode),
      "layered-minsum-offset-" + kQ8.name());
}

std::unique_ptr<Decoder> make_offset_simd(const QCLdpcCode& code,
                                          const DecoderOptions& options) {
  return std::make_unique<SimdLayeredDecoder>(
      code, options, kQ8, kOffsetCode,
      "layered-minsum-simd-offset-" + kQ8.name());
}

struct Entry {
  const char* name;
  Maker make;
};

/// Every factory name, in decoder_names() order.
constexpr Entry kDecoders[] = {
    {"flooding-bp", &make<FloodingBpDecoder>},
    {"flooding-minsum", &make<FloodingMinSumDecoder, MinSumVariant::kPlain>},
    {"flooding-minsum-norm",
     &make<FloodingMinSumDecoder, MinSumVariant::kNormalized>},
    {"flooding-minsum-offset",
     &make<FloodingMinSumDecoder, MinSumVariant::kOffset>},
    {"flooding-minsum-scms",
     &make<FloodingMinSumDecoder, MinSumVariant::kSelfCorrected>},
    {"gallager-b", &make<GallagerBDecoder>},
    {"layered-minsum-float", &make<LayeredMinSumFloatDecoder>},
    {"layered-minsum-fixed", &make<LayeredMinSumFixedDecoder, kQ8>},
    {"layered-minsum-q6", &make<LayeredMinSumFixedDecoder, kQ6>},
    {"layered-minsum-offset-fixed", &make_offset_fixed},
    // SIMD z-lane twins of the fixed-point layered decoders: bit-identical
    // results (asserted in tests/simd_equivalence_test.cpp), z rows of each
    // layer processed as vector lanes. See src/core/simd/.
    {"layered-minsum-simd", &make<SimdLayeredDecoder, kQ8>},
    {"layered-minsum-simd-q6", &make<SimdLayeredDecoder, kQ6>},
    {"layered-minsum-simd-offset", &make_offset_simd},
    // Inter-frame-batched SIMD decoder: frame per lane instead of check row
    // per lane, so every lane is full for any z. Callers size the batch
    // engine's frame blocks (BatchEngineConfig::block_frames) from
    // block_width() to hand it whole lane-blocks.
    {"layered-minsum-simd-batched", &make<SimdBatchDecoder, kQ8>},
    // Finite-alphabet family (fa2/fa3/fa4): 2-4-bit check messages via MIM
    // staircase tables on an int8 posterior. Scalar references for all
    // three; the int8 SIMD z-lane and inter-frame-batched shapes for fa4.
    // See core/fa_tables.hpp.
    {"layered-minsum-fa2", &make<LayeredMinSumFaDecoder, 2>},
    {"layered-minsum-fa3", &make<LayeredMinSumFaDecoder, 3>},
    {"layered-minsum-fa4", &make<LayeredMinSumFaDecoder, 4>},
    {"layered-minsum-simd-fa4", &make<SimdFaLayeredDecoder, 4>},
    {"layered-minsum-simd-batched-fa4", &make<SimdFaBatchDecoder, 4>},
};

}  // namespace

std::unique_ptr<Decoder> make_decoder(const std::string& name,
                                      const QCLdpcCode& code,
                                      const DecoderOptions& options) {
  for (const Entry& e : kDecoders)
    if (name == e.name) return e.make(code, options);
  // List the candidates in the error: factory names travel through CLI
  // flags and JSON configs, where a typo is otherwise a dead end.
  std::ostringstream msg;
  msg << "unknown decoder name: " << name << " (known:";
  for (const std::string& known : decoder_names()) msg << ' ' << known;
  msg << ')';
  throw Error(msg.str());
}

const std::vector<std::string>& decoder_names() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> v;
    for (const Entry& e : kDecoders) v.emplace_back(e.name);
    return v;
  }();
  return names;
}

}  // namespace ldpc
