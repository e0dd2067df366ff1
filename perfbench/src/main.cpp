// ldpc_perfbench, the benchmark program: one workload per invocation.
//
//   ldpc_perfbench --workload batch_q8|batch_fa4|service_mix --seed N
//                  --seconds S --trace 0|1 [--trace-out spans.json]
//                  [--corrupt-expected]
//
// Prints context lines, one "metric <name> = <value> <unit>" line per
// metric, and as the last line one JSON object with the keys correct,
// attempted, failed and metrics. --trace 0 reports the end-to-end metrics,
// --trace 1 the per-layer ones (and writes the spans to --trace-out).
// Exits 1 when any correctness check fails, 2 on a usage error.
#include <iostream>
#include <string>
#include <vector>

#include "common.hpp"
#include "util/check.hpp"
#include "workloads.hpp"

namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

/// What --trace 0 reports, on every workload.
const std::vector<MetricDef> kEndToEnd = {
    {"info_mbit_per_cpu_s", "Mbit/cpu-s"}, {"fer", "ratio"}, {"setup_s", "s"},
};

/// What --trace 1 reports. A layer a workload does not pass through (the
/// TCP front end on a batch workload, decode_batch on the service) reads 0.
const std::vector<MetricDef> kPerLayer = {
    {"core.decode_busy_s", "s"},
    {"core.ns_per_frame_iter", "ns"},
    {"core.lane_fill", "ratio"},
    {"core.avg_iterations", "iterations"},
    {"core.converged_share", "ratio"},
    {"core.simd_fallbacks", "count"},
    {"core.build_ms", "ms"},
    {"core.zlane_decode_us.wimax24", "us"},
    {"core.zlane_decode_us.wifi27", "us"},
    {"core.zlane_decode_us.wifi81", "us"},
    {"core.zlane_decode_us.wimax96", "us"},
    {"runtime.idle_share", "ratio"},
    {"runtime.first_block_ms", "ms"},
    {"runtime.tail_ms", "ms"},
    {"runtime.job_latency_p50_us", "us"},
    {"runtime.job_latency_p99_us", "us"},
    {"runtime.queue_max_occupancy", "count"},
    {"service.p50_ms", "ms"},
    {"service.p99_ms", "ms"},
    {"service.max_rate_rps", "1/s"},
    {"service.overhead_p50_us", "us"},
    {"service.stats_ms_p50", "ms"},
    {"service.stats_ms_max", "ms"},
    {"service.read_throttle_events", "count"},
    {"service.refused.rate_limited", "count"},
    {"service.refused.quota", "count"},
    {"service.refused.shed", "count"},
    {"service.refused.deadline", "count"},
    {"service.refused.engine_full", "count"},
    {"service.codec_builds", "count"},
    {"gen.late_p99_us", "us"},
    {"gen.backlog_end", "count"},
    {"trace.overhead_share", "ratio"},
    {"failed_share", "ratio"},
    {"info_mbps", "Mbit/s"},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  try {
    args = parse_args(argc, argv);
    if (args.workload != "batch_q8" && args.workload != "batch_fa4" &&
        args.workload != "service_mix")
      throw ldpc::Error("unknown workload '" + args.workload +
                        "' (batch_q8, batch_fa4, service_mix)");
  } catch (const ldpc::Error& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 2;
  }

  Report report;
  Checks checks;
  Outcome outcome;
  try {
    outcome = args.workload == "service_mix"
                  ? run_service_workload(args, report, checks)
                  : run_batch_workload(args, report, checks);
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    return 1;
  }
  if (args.trace)
    report.add("failed_share",
               outcome.attempted ? static_cast<double>(outcome.failed) /
                                       static_cast<double>(outcome.attempted)
                                 : 0.0,
               "ratio");
  checks.expect(outcome.attempted > 0, "the workload attempted some work");

  // The report carries exactly the metric set of its mode.
  const auto& defs = args.trace ? kPerLayer : kEndToEnd;
  std::string not_on_path;
  for (const MetricDef& def : defs) {
    const std::string* unit = report.unit_of(def.name);
    if (unit) {
      checks.expect(*unit == def.unit, std::string("unit of ") + def.name);
    } else if (args.trace) {
      report.add(def.name, 0.0, def.unit);
      not_on_path += std::string(" ") + def.name;
    } else {
      checks.expect(false, std::string("metric ") + def.name + " reported");
    }
  }
  checks.expect(report.size() == defs.size(), "no metric outside the set");
  if (!not_on_path.empty())
    report.note("not on this workload's path (reported as 0):" + not_on_path);

  std::cout << "fingerprint_simd " << simd_fingerprint_json() << "\n";
  report.print();
  if (!checks.ok())
    std::cout << "correctness: " << checks.violations()
              << " check(s) failed\n";
  std::cout << report.json(checks.ok(), outcome.attempted, outcome.failed)
            << std::endl;
  return checks.ok() ? 0 : 1;
}
