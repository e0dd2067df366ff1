// Decoder factory — maps benchmark/CLI names onto decoder instances so the
// examples and the BER harness select decoders by string.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "codes/qc_code.hpp"
#include "core/decoder.hpp"
#include "core/quant.hpp"

namespace ldpc {

/// Callable producing a fresh decoder instance. Invoked once per worker
/// thread by the BER harness and the runtime batch engine (decoders hold
/// per-call message memory, so each thread needs its own).
using DecoderFactory = std::function<std::unique_ptr<Decoder>()>;

/// Recognised names (decoder_names() lists all 19 in order):
///   flooding-bp, flooding-minsum{,-norm,-offset,-scms}   flooding schedule
///   gallager-b                                   hard-decision bit flipping
///   layered-minsum-float
///   layered-minsum-{fixed,q6,offset-fixed}       scalar q8.2 / q6.1 / offset
///   layered-minsum-simd{,-q6,-offset}            bit-identical SIMD z-lane
///                                                twins of the three above
///   layered-minsum-simd-batched                  inter-frame-batched SIMD
///                                                q8.2
///   layered-minsum-fa{2,3,4}                     finite alphabet, scalar
///                                                (see core/fa_tables.hpp)
///   layered-minsum-simd{,-batched}-fa4           its z-lane and batched
///                                                SIMD twins
/// Throws ldpc::Error for unknown names (the message lists every known
/// name). The returned decoder borrows `code`;
/// the caller must keep the code alive for the decoder's lifetime.
std::unique_ptr<Decoder> make_decoder(const std::string& name,
                                      const QCLdpcCode& code,
                                      const DecoderOptions& options);

/// All names make_decoder accepts (for --help strings and sweeps).
const std::vector<std::string>& decoder_names();

}  // namespace ldpc
