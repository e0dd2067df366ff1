// Shared pieces of ldpc_perfbench: command line, metric report,
// correctness checks, seeded input generation, scalar references and the
// in-memory span log.
#pragma once

#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "codes/qc_code.hpp"
#include "core/decoder.hpp"
#include "util/bitvec.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the first call in this process (the trace time base).
std::int64_t now_ns();

double seconds_between(Clock::time_point a, Clock::time_point b);

/// CPU time used so far by all threads of this process (s). It leaves out
/// the time the hypervisor runs other guests on this VM's vCPUs (steal)
/// and the time threads sleep.
double process_cpu_seconds();

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;  ///< span file of the traced run ("" = none)
  /// Flip one bit of one expected result before checking: the checks must
  /// then fail and the program exit non-zero (the benchmark's own test).
  bool corrupt_expected = false;
};

Args parse_args(int argc, char** argv);

/// Named metrics with units, printed one per line and as the result JSON.
class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit);
  /// Free-form context line (sample counts, settings), printed as-is.
  void note(const std::string& line);
  /// Unit of a reported metric, or nullptr when it was not reported.
  const std::string* unit_of(const std::string& name) const;
  std::size_t size() const { return metrics_.size(); }
  void print() const;
  std::string json(bool correct, std::size_t attempted,
                   std::size_t failed) const;

 private:
  struct Metric {
    std::string name;
    double value;
    std::string unit;
  };
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
};

/// Correctness violations. Every failed expectation is kept (the first few
/// are printed); any violation makes the run incorrect.
class Checks {
 public:
  void expect(bool ok, std::string_view what);
  bool ok() const { return violations_ == 0; }
  std::size_t violations() const { return violations_; }

 private:
  std::mutex mutex_;
  std::size_t violations_ = 0;
};

double percentile(std::vector<double> values, double q);
inline double median(std::vector<double> values) {
  return percentile(std::move(values), 0.5);
}

/// Noisy BPSK/AWGN frames of one code: random information words (seeded
/// per frame), systematic RU encoding, channel LLRs at `ebn0_db`. Frames
/// `first` .. `first + count - 1` of the sequence `seed` defines, so a long
/// sequence can be made and used a chunk at a time.
struct Frames {
  std::vector<std::vector<float>> llr;
  std::vector<ldpc::BitVec> codeword;
};
Frames make_frames(const ldpc::QCLdpcCode& code, float ebn0_db,
                   std::size_t count, std::uint64_t seed,
                   std::size_t first = 0);

/// Decode `frames` with a fresh `decoder_name` decoder per thread — the
/// scalar references the vector paths must match bit for bit.
std::vector<ldpc::DecodeResult> reference_decode(
    const std::string& decoder_name, const ldpc::QCLdpcCode& code,
    const std::vector<const std::vector<float>*>& frames);

/// Hard bits, iteration count and status all equal.
bool same_decode(const ldpc::DecodeResult& a, const ldpc::DecodeResult& b);

/// One timed interval. `parent` links a span to the span that caused it
/// (a pass, a request); `request_id` is the request it serves (0 = none);
/// `frames` is how many frames the interval carried.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
  std::uint64_t request_id = 0;
  std::uint64_t frames = 0;
  std::uint32_t thread = 0;
};

/// Small stable id of the calling thread (trace "tid").
std::uint32_t thread_index();

/// In-memory span store, written out once at the end of a traced run.
class SpanLog {
 public:
  explicit SpanLog(std::size_t reserve = 0) { spans_.reserve(reserve); }
  std::uint64_t next_id();
  void record(const Span& span);
  std::vector<Span> spans() const;
  /// Chrome trace-event JSON (loads in Perfetto / chrome://tracing).
  void write(const std::string& path) const;

 private:
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::uint64_t next_id_ = 1;
};

/// Host-side part of the result fingerprint: SIMD tier and lane counts,
/// plus the LDPC_SIMD_TIER override when set.
std::string simd_fingerprint_json();

}  // namespace perfbench
