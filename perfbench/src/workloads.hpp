// The benchmark's workloads. Each runs set-up, the timed phase and the
// correctness checks, adds its metrics to the report and returns how many
// frames / requests it attempted and how many were not resolved by a
// decode.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "codes/qc_code.hpp"
#include "common.hpp"
#include "service/wire.hpp"

namespace perfbench {

struct Outcome {
  std::size_t attempted = 0;
  std::size_t failed = 0;
};

/// batch_q8 / batch_fa4: closed batches through BatchEngine::decode_batch.
Outcome run_batch_workload(const Args& args, Report& report, Checks& checks);

/// service_mix: open-loop TCP load against an in-process DecodeService.
Outcome run_service_workload(const Args& args, Report& report,
                             Checks& checks);

/// The four codes of the service mix, in round-robin order.
struct ServiceCode {
  const char* label;  ///< metric suffix, e.g. "wimax24"
  ldpc::service::CodecRef ref;
  ldpc::QCLdpcCode (*make)();
};
const std::vector<ServiceCode>& service_codes();

/// Eb/N0 of the service frames (dB).
inline constexpr float kServiceEbN0 = 2.5F;

/// Direct, single-threaded decodes of service-code frames on the z-lane
/// decoder the service runs, one wrapped decoder per code. Adds the
/// core.zlane_decode_us.<label> metrics (median per decode) and returns the
/// probe totals so the service workload can report its core layer from
/// them.
struct ZlaneProbe {
  double busy_s = 0.0;
  std::size_t iterations = 0;
  std::size_t fallbacks = 0;
  std::vector<double> build_ms;
};
ZlaneProbe probe_zlane(
    const std::vector<const std::vector<std::vector<float>>*>& frames_per_code,
    SpanLog* spans, Report& report);

}  // namespace perfbench
