#include "common.hpp"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

#include <time.h>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "core/decoder_factory.hpp"
#include "core/simd/simd_kernel.hpp"
#include "util/check.hpp"
#include "util/cli.hpp"
#include "util/rng.hpp"

namespace perfbench {

std::int64_t now_ns() {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                              epoch)
      .count();
}

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double process_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

Args parse_args(int argc, char** argv) {
  const ldpc::CliArgs cli(
      argc, argv,
      {"workload", "seed", "seconds", "trace", "trace-out", "corrupt-expected"},
      {"corrupt-expected"});
  Args args;
  args.workload = cli.get("workload", "");
  LDPC_CHECK_MSG(!args.workload.empty(), "--workload is required");
  const long seed = cli.get_int("seed", 1);
  LDPC_CHECK_MSG(seed >= 0, "--seed must be >= 0");
  args.seed = static_cast<std::uint64_t>(seed);
  args.seconds = cli.get_double("seconds", 10.0);
  LDPC_CHECK_MSG(args.seconds > 0.0 && args.seconds <= 600.0,
                 "--seconds must be in (0, 600]");
  const long trace = cli.get_int("trace", 0);
  LDPC_CHECK_MSG(trace == 0 || trace == 1, "--trace must be 0 or 1");
  args.trace = trace == 1;
  args.trace_out = cli.get("trace-out", "");
  args.corrupt_expected = cli.get_int("corrupt-expected", 0) != 0;
  return args;
}

void Report::add(const std::string& name, double value,
                 const std::string& unit) {
  metrics_.push_back({name, value, unit});
}

void Report::note(const std::string& line) { notes_.push_back(line); }

const std::string* Report::unit_of(const std::string& name) const {
  for (const auto& m : metrics_)
    if (m.name == name) return &m.unit;
  return nullptr;
}

void Report::print() const {
  for (const auto& line : notes_) std::cout << line << "\n";
  for (const auto& m : metrics_) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", m.value);
    std::cout << "metric " << m.name << " = " << buf << " " << m.unit << "\n";
  }
}

std::string Report::json(bool correct, std::size_t attempted,
                         std::size_t failed) const {
  std::ostringstream os;
  os << "{\"correct\": " << (correct ? "true" : "false")
     << ", \"attempted\": " << attempted << ", \"failed\": " << failed
     << ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics_.size(); ++i) {
    const auto& m = metrics_[i];
    char buf[64];
    // Non-finite values are not JSON; they only arise from a broken
    // measurement, which the caller has already flagged as a violation.
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(m.value) ? m.value
                                                                   : -1.0);
    os << (i ? ", " : "") << "\"" << m.name << "\": {\"value\": " << buf
       << ", \"unit\": \"" << m.unit << "\"}";
  }
  os << "}}";
  return os.str();
}

void Checks::expect(bool ok, std::string_view what) {
  if (ok) return;
  const std::lock_guard lock(mutex_);
  if (++violations_ <= 10) std::cerr << "check failed: " << what << "\n";
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double pos = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
}

Frames make_frames(const ldpc::QCLdpcCode& code, float ebn0_db,
                   std::size_t count, std::uint64_t seed,
                   std::size_t first) {
  Frames out;
  out.llr.resize(count);
  out.codeword.resize(count);
  const ldpc::RuEncoder encoder(code);
  const float variance = ldpc::awgn_noise_variance(ebn0_db, code.rate());
  // Each frame's bits and noise derive from (seed, frame index) alone, so
  // the split across generator threads cannot change the inputs.
  const unsigned threads =
      std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      for (std::size_t f = t; f < count; f += threads) {
        const std::uint64_t frame_seed =
            seed * 0x9E3779B97F4A7C15ULL + first + f;
        ldpc::Xoshiro256 rng(frame_seed);
        ldpc::BitVec info(code.k());
        for (std::size_t i = 0; i < info.size(); ++i) info.set(i, rng.coin());
        out.codeword[f] = encoder.encode(info);
        ldpc::AwgnChannel channel(variance, frame_seed ^ 0xA5A5A5A5ULL);
        out.llr[f] = ldpc::BpskModem::demodulate(
            channel.transmit(ldpc::BpskModem::modulate(out.codeword[f])),
            variance);
      }
    });
  for (auto& t : pool) t.join();
  return out;
}

std::vector<ldpc::DecodeResult> reference_decode(
    const std::string& decoder_name, const ldpc::QCLdpcCode& code,
    const std::vector<const std::vector<float>*>& frames) {
  std::vector<ldpc::DecodeResult> results(frames.size());
  const unsigned threads =
      std::max(1U, std::min(4U, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t)
    pool.emplace_back([&, t] {
      const auto decoder = ldpc::make_decoder(decoder_name, code, {});
      for (std::size_t f = t; f < frames.size(); f += threads)
        results[f] = decoder->decode(*frames[f]);
    });
  for (auto& t : pool) t.join();
  return results;
}

bool same_decode(const ldpc::DecodeResult& a, const ldpc::DecodeResult& b) {
  return a.hard_bits == b.hard_bits && a.iterations == b.iterations &&
         a.status == b.status;
}

std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

std::uint64_t SpanLog::next_id() {
  const std::lock_guard lock(mutex_);
  return next_id_++;
}

void SpanLog::record(const Span& span) {
  const std::lock_guard lock(mutex_);
  spans_.push_back(span);
}

std::vector<Span> SpanLog::spans() const {
  const std::lock_guard lock(mutex_);
  return spans_;
}

void SpanLog::write(const std::string& path) const {
  const std::lock_guard lock(mutex_);
  std::ofstream out(path);
  LDPC_CHECK_MSG(out.good(), "cannot write trace file " << path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  char buf[384];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                  "\"tid\": %u, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                  "{\"id\": %llu, \"parent\": %llu, \"request_id\": %llu, "
                  "\"frames\": %llu}}\n",
                  i ? "," : "", s.name, s.thread,
                  static_cast<double>(s.start_ns) / 1e3,
                  static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  static_cast<unsigned long long>(s.request_id),
                  static_cast<unsigned long long>(s.frames));
    out << buf;
  }
  out << "]}\n";
}

std::string simd_fingerprint_json() {
  const auto tier = ldpc::simd::best_tier();
  const char* env = std::getenv("LDPC_SIMD_TIER");
  std::ostringstream os;
  os << "{\"simd_tier\": \"" << ldpc::simd::to_string(tier)
     << "\", \"int16_lanes\": " << ldpc::simd::tier_lanes(tier)
     << ", \"int8_lanes\": " << ldpc::simd::tier_lanes8(tier)
     << ", \"LDPC_SIMD_TIER\": \"" << (env ? env : "") << "\"}";
  return os.str();
}

}  // namespace perfbench
