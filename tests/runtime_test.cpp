// Runtime batch-engine tests: the bounded MPMC job queue and its overload
// policies, the determinism contract (bit-identical output for any worker
// count), backpressure under a tiny queue, deadlines and cancellation,
// worker quarantine, the retry/escalation supervisor, and the engine
// metrics block.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "channel/awgn.hpp"
#include "channel/modem.hpp"
#include "codes/encoder.hpp"
#include "codes/wimax.hpp"
#include "core/decoder_factory.hpp"
#include "runtime/batch_engine.hpp"
#include "runtime/job_queue.hpp"
#include "runtime/retry_policy.hpp"
#include "runtime/supervisor.hpp"

namespace ldpc {
namespace {

using PushResult = BoundedJobQueue<int>::PushResult;

// ------------------------------------------------------------ job queue ----

TEST(JobQueue, FifoOrder) {
  BoundedJobQueue<int> q(8);
  for (int i = 0; i < 5; ++i) EXPECT_EQ(q.push(int{i}), PushResult::kAccepted);
  int out = -1;
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, i);
  }
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueue, CloseDrainsThenStops) {
  BoundedJobQueue<int> q(4);
  EXPECT_EQ(q.push(7), PushResult::kAccepted);
  EXPECT_EQ(q.push(8), PushResult::kAccepted);
  q.close();
  EXPECT_EQ(q.push(9), PushResult::kClosed);
  int out = 0;
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 7);
  EXPECT_TRUE(q.pop(out));
  EXPECT_EQ(out, 8);
  EXPECT_FALSE(q.pop(out));  // closed and drained
  EXPECT_TRUE(q.closed());
}

TEST(JobQueue, PushAfterCloseNeverSilentlyDrops) {
  // The failure mode this guards: a submit after shutdown must be *reported*
  // (the old API returned void and lost the job).
  BoundedJobQueue<int> q(4);
  q.close();
  EXPECT_EQ(q.push(1), PushResult::kClosed);
  EXPECT_FALSE(q.push_forced(2));
  EXPECT_EQ(q.size(), 0u);
}

TEST(JobQueue, BlockingPushWaitsForConsumer) {
  BoundedJobQueue<int> q(1);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  std::atomic<bool> pushed{false};
  std::thread producer([&] {
    EXPECT_EQ(q.push(2), PushResult::kAccepted);  // blocks until the pop
    pushed = true;
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(pushed.load());
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  producer.join();
  EXPECT_TRUE(pushed.load());
  EXPECT_EQ(q.size(), 1u);
}

TEST(JobQueue, RejectNewestTurnsAwayAtTheDoor) {
  BoundedJobQueue<int> q(2, OverloadPolicy::kRejectNewest);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  EXPECT_EQ(q.push(3), PushResult::kRejected);  // never blocks
  EXPECT_EQ(q.push(4), PushResult::kRejected);
  EXPECT_EQ(q.rejected_count(), 2u);
  EXPECT_EQ(q.shed_count(), 0u);
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 1);  // FIFO preserved; rejected items never entered
  EXPECT_EQ(q.push(5), PushResult::kAccepted);
}

TEST(JobQueue, ShedOldestEvictsHeadForTail) {
  BoundedJobQueue<int> q(2, OverloadPolicy::kShedOldest);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  int shed = 0;
  EXPECT_EQ(q.push(3, &shed), PushResult::kAcceptedShed);
  EXPECT_EQ(shed, 1);  // oldest handed back for completion
  EXPECT_EQ(q.shed_count(), 1u);
  EXPECT_EQ(q.size(), 2u);
  int out = 0;
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 2);
  ASSERT_TRUE(q.pop(out));
  EXPECT_EQ(out, 3);
}

TEST(JobQueue, PushForcedExceedsCapacity) {
  BoundedJobQueue<int> q(1);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_TRUE(q.push_forced(2));  // capacity-exempt, no blocking
  EXPECT_TRUE(q.push_forced(3));
  EXPECT_EQ(q.size(), 3u);
  int out = 0;
  for (int expect : {1, 2, 3}) {
    ASSERT_TRUE(q.pop(out));
    EXPECT_EQ(out, expect);
  }
}

TEST(JobQueue, OccupancyTracksDepth) {
  BoundedJobQueue<int> q(4);
  EXPECT_EQ(q.push(1), PushResult::kAccepted);
  EXPECT_EQ(q.push(2), PushResult::kAccepted);
  EXPECT_EQ(q.push(3), PushResult::kAccepted);
  const RunningStats occ = q.occupancy();
  EXPECT_EQ(occ.count(), 3u);
  EXPECT_DOUBLE_EQ(occ.max(), 3.0);
  EXPECT_DOUBLE_EQ(occ.mean(), 2.0);  // depths 1, 2, 3
  EXPECT_THROW(BoundedJobQueue<int>(0), Error);
}

// --------------------------------------------------------- batch engine ----

/// Deterministic noisy frames of the all-zero codeword.
std::vector<std::vector<float>> make_frames(const QCLdpcCode& code,
                                            std::size_t count, float ebn0_db) {
  const float variance = awgn_noise_variance(ebn0_db, code.rate());
  std::vector<std::vector<float>> frames;
  frames.reserve(count);
  const BitVec zero(code.n());
  for (std::size_t f = 0; f < count; ++f) {
    AwgnChannel awgn(variance, 1000 + f);
    frames.push_back(BpskModem::demodulate(
        awgn.transmit(BpskModem::modulate(zero)), variance));
  }
  return frames;
}

DecoderFactory fixed_factory(const QCLdpcCode& code,
                             std::size_t max_iterations = 10) {
  return [&code, max_iterations] {
    DecoderOptions opt;
    opt.max_iterations = max_iterations;
    return make_decoder("layered-minsum-fixed", code, opt);
  };
}

BatchEngineConfig engine_config(unsigned workers, std::size_t capacity) {
  BatchEngineConfig config;
  config.num_workers = workers;
  config.queue_capacity = capacity;
  return config;
}

/// A task that parks its worker until `release` turns true, then returns an
/// empty result. `running` flips as soon as the worker picked the job up —
/// tests that need the queue empty/full in a known state wait on it.
BatchEngine::Task gate_task(std::atomic<bool>& running,
                            std::atomic<bool>& release) {
  return [&running, &release](Decoder&) {
    running = true;
    while (!release.load()) std::this_thread::sleep_for(
        std::chrono::microseconds(100));
    return DecodeResult{};
  };
}

void wait_for(const std::atomic<bool>& flag) {
  while (!flag.load())
    std::this_thread::sleep_for(std::chrono::microseconds(100));
}

TEST(BatchEngine, DecodeBatchKeepsInputOrder) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 12, 6.0F);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  const auto results = engine.decode_batch(frames);
  ASSERT_EQ(results.size(), frames.size());
  // High SNR: every frame decodes to the all-zero codeword.
  for (const auto& r : results) {
    EXPECT_TRUE(r.converged);
    for (std::size_t i = 0; i < code.n(); ++i) EXPECT_FALSE(r.hard_bits.get(i));
  }
}

TEST(BatchEngine, BitIdenticalAcrossWorkerCounts) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 24, 1.5F);  // noisy: varied outcomes
  auto decode_all = [&](unsigned workers) {
    BatchEngine engine(fixed_factory(code), engine_config(workers, 16));
    return engine.decode_batch(frames);
  };
  const auto base = decode_all(1);
  for (unsigned workers : {2u, 8u}) {
    const auto results = decode_all(workers);
    ASSERT_EQ(results.size(), base.size());
    for (std::size_t f = 0; f < base.size(); ++f) {
      EXPECT_EQ(results[f].iterations, base[f].iterations) << f;
      EXPECT_EQ(results[f].converged, base[f].converged) << f;
      EXPECT_EQ(results[f].status, base[f].status) << f;
      for (std::size_t i = 0; i < code.n(); ++i)
        ASSERT_EQ(results[f].hard_bits.get(i), base[f].hard_bits.get(i))
            << "frame " << f << " bit " << i << " workers " << workers;
    }
  }
}

TEST(BatchEngine, BackpressureWithTinyQueue) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 40, 4.0F);
  // Queue of 1: every submit beyond the first blocks until a worker frees a
  // slot — the batch still completes and stays ordered.
  BatchEngine engine(fixed_factory(code), engine_config(2, 1));
  const auto results = engine.decode_batch(frames);
  ASSERT_EQ(results.size(), frames.size());
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, frames.size());
  EXPECT_LE(m.queue_max_occupancy, 1u);
}

TEST(BatchEngine, RefusedDecodeBatchDrainsAcceptedFramesBeforeThrowing) {
  // One slow worker and a one-entry queue that refuses when full: some
  // submit of the batch is refused while earlier frames are still queued or
  // decoding into the batch's result vector. The throw must wait for them —
  // a worker writing into the destroyed vector is a use-after-free.
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 96);
  const auto frames = make_frames(code, 16, 0.0F);
  BatchEngineConfig config = engine_config(1, 1);
  config.overload_policy = OverloadPolicy::kRejectNewest;
  BatchEngine engine(fixed_factory(code, 200), config);
  EXPECT_THROW(engine.decode_batch(frames), Error);
  const auto m = engine.snapshot();
  EXPECT_GE(m.jobs_rejected, 1u);
  EXPECT_EQ(m.jobs_completed, m.jobs_submitted);
}

TEST(BatchEngine, DrainIsReusable) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 6, 6.0F);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  engine.drain();  // nothing submitted: returns immediately
  std::vector<DecodeResult> first(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(submit_accepted(engine.submit(f, frames[f], &first[f])));
  engine.drain();
  std::vector<DecodeResult> second(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(submit_accepted(engine.submit(f, frames[f], &second[f])));
  engine.drain();
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_submitted, 2 * frames.size());
  EXPECT_EQ(m.jobs_completed, 2 * frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    EXPECT_EQ(first[f].iterations, second[f].iterations);
}

TEST(BatchEngine, DrainWithZeroJobsReturnsImmediately) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  engine.drain();
  const DrainReport report =
      engine.drain_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.outstanding, 0u);
  EXPECT_TRUE(report.straggler_frames.empty());
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_submitted, 0u);
  EXPECT_EQ(m.jobs_completed, 0u);
  EXPECT_EQ(m.latency.samples, 0u);
}

TEST(BatchEngine, DrainUntilReportsStragglers) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BatchEngine engine(fixed_factory(code), engine_config(1, 8));
  std::atomic<bool> running{false}, release{false};
  ASSERT_TRUE(submit_accepted(
      engine.submit_task(7, gate_task(running, release))));
  wait_for(running);
  const DrainReport stuck =
      engine.drain_for(std::chrono::milliseconds(5));
  EXPECT_FALSE(stuck.completed);
  EXPECT_EQ(stuck.outstanding, 1u);
  ASSERT_EQ(stuck.straggler_frames.size(), 1u);
  EXPECT_EQ(stuck.straggler_frames[0], 7u);
  release = true;
  engine.drain();
  const DrainReport done =
      engine.drain_for(std::chrono::milliseconds(1));
  EXPECT_TRUE(done.completed);
  EXPECT_TRUE(done.straggler_frames.empty());
}

TEST(BatchEngine, QueuedExpiredJobNeverReachesDecoder) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 1, 4.0F);
  BatchEngine engine(fixed_factory(code), engine_config(1, 8));
  std::atomic<bool> running{false}, release{false};
  ASSERT_TRUE(submit_accepted(
      engine.submit_task(0, gate_task(running, release))));
  wait_for(running);  // the worker is parked; anything queued now waits
  DecodeResult expired;
  JobOptions options;
  options.deadline = std::chrono::steady_clock::now();  // already passed
  ASSERT_TRUE(
      submit_accepted(engine.submit(1, frames[0], &expired, options)));
  release = true;
  engine.drain();
  EXPECT_EQ(expired.status, DecodeStatus::kDeadlineExpired);
  EXPECT_EQ(expired.iterations, 0u);  // no decoder ever saw the frame
  EXPECT_FALSE(expired.converged);
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_expired, 1u);
  EXPECT_EQ(m.jobs_completed, 2u);  // expiry still completes the job
  std::size_t worker_jobs = 0;
  for (const auto& w : m.workers) worker_jobs += w.jobs;
  EXPECT_EQ(worker_jobs, 1u);  // only the gate task ran on a worker
  EXPECT_EQ(m.latency.samples, 1u);  // expired jobs don't skew latency
}

TEST(BatchEngine, CancelTokenBailsMidDecode) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 1, 0.0F);  // too noisy to converge
  BatchEngine engine(fixed_factory(code, 50), engine_config(1, 8));
  // A slotless task job cannot be completed at the queue door, so an
  // expired deadline instead runs the task under a pre-expired token: the
  // decoder must bail at the first layer boundary.
  DecodeResult result;
  std::atomic<bool> ran{false};
  JobOptions options;
  options.deadline = std::chrono::steady_clock::now();
  const SubmitStatus s = engine.submit_task(
      0,
      [&](Decoder& decoder) {
        ran = true;
        result = decoder.decode(frames[0]);
        return result;
      },
      options);
  ASSERT_TRUE(submit_accepted(s));
  engine.drain();
  EXPECT_TRUE(ran.load());
  EXPECT_EQ(result.status, DecodeStatus::kDeadlineExpired);
  EXPECT_LE(result.iterations, 1u);  // bailed without burning the budget
}

TEST(BatchEngine, RejectNewestReportsAndCounts) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 3, 4.0F);
  BatchEngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.overload_policy = OverloadPolicy::kRejectNewest;
  BatchEngine engine(fixed_factory(code), config);
  std::atomic<bool> running{false}, release{false};
  ASSERT_TRUE(submit_accepted(
      engine.submit_task(0, gate_task(running, release))));
  wait_for(running);
  std::vector<DecodeResult> slots(3);
  ASSERT_TRUE(submit_accepted(engine.submit(1, frames[1], &slots[1])));
  // Queue full (job 1 waiting): admission control refuses the next one
  // without blocking; the slot is untouched and the caller keeps the frame.
  EXPECT_EQ(engine.submit(2, frames[2], &slots[2]),
            SubmitStatus::kRejectedQueueFull);
  release = true;
  engine.drain();
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_rejected, 1u);
  EXPECT_EQ(m.jobs_submitted, 2u);  // rejected job never counted submitted
  EXPECT_EQ(m.jobs_completed, 2u);
  EXPECT_GE(slots[1].iterations, 1u);
  EXPECT_EQ(slots[2].iterations, 0u);  // never ran
}

TEST(BatchEngine, ShedOldestCompletesEvictedJob) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 3, 4.0F);
  BatchEngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 1;
  config.overload_policy = OverloadPolicy::kShedOldest;
  BatchEngine engine(fixed_factory(code), config);
  std::atomic<bool> running{false}, release{false};
  ASSERT_TRUE(submit_accepted(
      engine.submit_task(0, gate_task(running, release))));
  wait_for(running);
  std::vector<DecodeResult> slots(3);
  ASSERT_TRUE(submit_accepted(engine.submit(1, frames[1], &slots[1])));
  // Queue full: the new job displaces the stale one, which completes as
  // shed — every accepted job completes exactly once, shed or decoded.
  EXPECT_EQ(engine.submit(2, frames[2], &slots[2]),
            SubmitStatus::kAcceptedShedOldest);
  release = true;
  engine.drain();
  EXPECT_EQ(slots[1].status, DecodeStatus::kShedOverload);
  EXPECT_EQ(slots[1].iterations, 0u);
  EXPECT_GE(slots[2].iterations, 1u);  // the fresh job decoded
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_shed, 1u);
  EXPECT_EQ(m.jobs_submitted, 3u);
  EXPECT_EQ(m.jobs_completed, 3u);
}

TEST(BatchEngine, MetricsReadableDuringLiveBatch) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 48, 2.0F);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    // Hammer the snapshot while jobs are in flight; TSAN guards this.
    while (!stop.load()) {
      const auto m = engine.snapshot();
      EXPECT_LE(m.jobs_completed, m.jobs_submitted);
      EXPECT_LE(m.latency.p50_us, m.latency.max_us + 1e-9);
    }
  });
  std::vector<DecodeResult> slots(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(submit_accepted(engine.submit(f, frames[f], &slots[f])));
  engine.drain();
  stop = true;
  reader.join();
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, frames.size());
}

TEST(BatchEngine, DestructorWithJobsInFlightCompletesThem) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 16, 4.0F);
  std::vector<DecodeResult> slots(frames.size());
  {
    BatchEngine engine(fixed_factory(code), engine_config(2, 32));
    for (std::size_t f = 0; f < frames.size(); ++f)
      ASSERT_TRUE(submit_accepted(engine.submit(f, frames[f], &slots[f])));
    // No drain: the destructor closes the queue, the workers finish what
    // was accepted, and the join guarantees every slot write is visible.
  }
  for (const auto& r : slots) EXPECT_GE(r.iterations, 1u);
}

TEST(BatchEngine, MetricsAggregateDecodeStatistics) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 20, 6.0F);
  BatchEngine engine(fixed_factory(code), engine_config(2, 16));
  const auto results = engine.decode_batch(frames);
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_submitted, frames.size());
  EXPECT_EQ(m.jobs_completed, frames.size());
  EXPECT_EQ(m.decoded_bits, frames.size() * code.n());
  EXPECT_EQ(m.decoded_info_bits, frames.size() * code.k());
  EXPECT_GT(m.wall_seconds, 0.0);
  EXPECT_GT(m.code_throughput_mbps, 0.0);
  EXPECT_GT(m.info_throughput_mbps, 0.0);
  // Rate-1/2 code: the info rate is exactly half the code rate, and both
  // divide the same wall clock, so the ratio is exact.
  EXPECT_DOUBLE_EQ(m.info_throughput_mbps * 2.0, m.code_throughput_mbps);
  EXPECT_EQ(m.queue_capacity, 16u);
  EXPECT_EQ(m.latency.samples, frames.size());
  EXPECT_GT(m.latency.p50_us, 0.0);
  EXPECT_LE(m.latency.p50_us, m.latency.p95_us);
  EXPECT_LE(m.latency.p95_us, m.latency.p99_us);
  EXPECT_LE(m.latency.p99_us, m.latency.max_us);
  ASSERT_EQ(m.workers.size(), 2u);
  std::size_t jobs = 0, expected_iterations = 0;
  for (const auto& w : m.workers) jobs += w.jobs;
  EXPECT_EQ(jobs, frames.size());
  for (const auto& r : results) expected_iterations += r.iterations;
  EXPECT_EQ(m.sum_iterations(), expected_iterations);
  // High SNR: everything converges, so every decode terminated early.
  EXPECT_EQ(m.status_total(DecodeStatus::kConverged), frames.size());
  std::size_t early = 0;
  for (const auto& w : m.workers) early += w.early_terminations;
  EXPECT_EQ(early, frames.size());
  EXPECT_GT(m.avg_iterations(), 0.0);
  EXPECT_EQ(m.jobs_expired, 0u);
  EXPECT_EQ(m.jobs_shed, 0u);
  EXPECT_EQ(m.jobs_rejected, 0u);
  EXPECT_EQ(m.workers_quarantined, 0u);
}

TEST(BatchEngine, SubmitTaskRunsOnWorkerDecoder) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 8, 6.0F);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  std::vector<std::size_t> iterations(frames.size(), 0);
  for (std::size_t f = 0; f < frames.size(); ++f) {
    const SubmitStatus s = engine.submit_task(f, [&, f](Decoder& decoder) {
      DecodeResult r = decoder.decode(frames[f]);
      iterations[f] = r.iterations;
      return r;
    });
    ASSERT_TRUE(submit_accepted(s));
  }
  engine.drain();
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, frames.size());
  for (const auto it : iterations) EXPECT_GE(it, 1u);
  EXPECT_EQ(m.decoded_bits, frames.size() * code.n());
}

TEST(BatchEngine, EscalationRungSelectsLadderDecoder) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 8, 2.0F);
  // Reference: what the 30-iteration decoder produces for each frame.
  std::vector<DecodeResult> reference;
  {
    const auto decoder = fixed_factory(code, 30)();
    for (const auto& f : frames) reference.push_back(decoder->decode(f));
  }
  // Find a frame the 1-iteration primary cannot finish.
  std::size_t hard = frames.size();
  for (std::size_t f = 0; f < frames.size(); ++f)
    if (reference[f].iterations >= 2) { hard = f; break; }
  ASSERT_LT(hard, frames.size()) << "no frame needed >= 2 iterations";

  BatchEngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 8;
  config.escalation_factories = {fixed_factory(code, 30)};
  BatchEngine engine(fixed_factory(code, 1), config);
  DecodeResult primary, escalated, clamped;
  ASSERT_TRUE(submit_accepted(engine.submit(0, frames[hard], &primary)));
  JobOptions rung1;
  rung1.rung = 1;
  ASSERT_TRUE(
      submit_accepted(engine.submit(1, frames[hard], &escalated, rung1)));
  JobOptions rung9;  // beyond the ladder: clamps to its last entry
  rung9.rung = 9;
  ASSERT_TRUE(
      submit_accepted(engine.submit(2, frames[hard], &clamped, rung9)));
  engine.drain();
  EXPECT_EQ(primary.iterations, 1u);  // primary budget is one iteration
  EXPECT_FALSE(primary.converged);
  EXPECT_EQ(escalated.iterations, reference[hard].iterations);
  EXPECT_EQ(escalated.converged, reference[hard].converged);
  EXPECT_EQ(clamped.iterations, reference[hard].iterations);
}

TEST(BatchEngine, ThrowingJobIsCountedNotFatal) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BatchEngine engine(fixed_factory(code), engine_config(2, 8));
  std::vector<DecodeResult> results(3);
  // Wrong LLR length: the decoder's precondition check throws on a worker.
  ASSERT_TRUE(submit_accepted(
      engine.submit(0, std::vector<float>(5, 0.0F), &results[0])));
  const auto good = make_frames(code, 2, 6.0F);
  ASSERT_TRUE(submit_accepted(engine.submit(1, good[0], &results[1])));
  ASSERT_TRUE(submit_accepted(engine.submit(2, good[1], &results[2])));
  engine.drain();
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, 3u);
  std::size_t exceptions = 0;
  for (const auto& w : m.workers) exceptions += w.exceptions;
  EXPECT_EQ(exceptions, 1u);
  EXPECT_EQ(m.decoded_bits, 2 * code.n());  // failed job decoded nothing
  EXPECT_FALSE(results[0].converged);       // slot left at default
  EXPECT_TRUE(results[1].converged);
  EXPECT_TRUE(results[2].converged);
}

TEST(BatchEngine, QuarantineReplacesStrikingWorker) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  BatchEngineConfig config;
  config.num_workers = 1;
  config.queue_capacity = 16;
  config.quarantine_strike_threshold = 2;
  config.max_replacement_workers = 2;
  BatchEngine engine(fixed_factory(code), config);
  std::vector<DecodeResult> bad(2);
  // Two throwing jobs = two strikes on the only worker: it is quarantined
  // and a replacement spawned before it retires.
  for (std::size_t f = 0; f < bad.size(); ++f)
    ASSERT_TRUE(submit_accepted(
        engine.submit(f, std::vector<float>(3, 0.0F), &bad[f])));
  engine.drain();
  // The pool must still decode: the replacement owns a fresh decoder.
  const auto good = make_frames(code, 4, 6.0F);
  std::vector<DecodeResult> slots(good.size());
  for (std::size_t f = 0; f < good.size(); ++f)
    ASSERT_TRUE(
        submit_accepted(engine.submit(10 + f, good[f], &slots[f])));
  engine.drain();
  for (const auto& r : slots) EXPECT_TRUE(r.converged);
  const auto m = engine.snapshot();
  EXPECT_EQ(m.workers_quarantined, 1u);
  EXPECT_EQ(m.workers_spawned, 1u);
  ASSERT_EQ(m.workers.size(), 2u);  // original + replacement
  EXPECT_TRUE(m.workers[0].quarantined);
  EXPECT_GE(m.workers[0].strikes, 2u);
  EXPECT_FALSE(m.workers[1].quarantined);
  EXPECT_EQ(m.jobs_completed, bad.size() + good.size());
}

TEST(BatchEngine, InvalidConfigRejected) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  EXPECT_THROW(BatchEngine(nullptr, engine_config(1, 8)), Error);
  EXPECT_THROW(BatchEngine(fixed_factory(code), engine_config(0, 8)), Error);
  EXPECT_THROW(BatchEngine(fixed_factory(code), engine_config(1, 0)), Error);
  BatchEngineConfig null_rung;
  null_rung.escalation_factories.push_back(nullptr);
  EXPECT_THROW(BatchEngine(fixed_factory(code), null_rung), Error);
}

// ---------------------------------------------------------- retry policy ----

TEST(RetryPolicy, DefaultsAndValidation) {
  const RetryPolicy none = RetryPolicy::none();
  EXPECT_FALSE(none.enabled());
  EXPECT_FALSE(none.should_retry(DecodeStatus::kMaxIterations, 1));
  const RetryPolicy three = RetryPolicy::up_to(3);
  EXPECT_TRUE(three.enabled());
  EXPECT_TRUE(three.should_retry(DecodeStatus::kMaxIterations, 1));
  EXPECT_TRUE(three.should_retry(DecodeStatus::kWatchdogAbort, 2));
  EXPECT_FALSE(three.should_retry(DecodeStatus::kMaxIterations, 3));
  EXPECT_FALSE(three.should_retry(DecodeStatus::kConverged, 1));
  EXPECT_FALSE(three.should_retry(DecodeStatus::kDeadlineExpired, 1));
  EXPECT_FALSE(three.should_retry(DecodeStatus::kShedOverload, 1));
  EXPECT_THROW(RetryPolicy::up_to(0), Error);
  RetryPolicy bad;
  bad.retry_statuses = retry_status_bit(DecodeStatus::kConverged);
  EXPECT_THROW(validate(bad), Error);
}

TEST(RetryPolicy, RetrySeedDistinctPerFrameAndAttempt) {
  const std::uint64_t base = 2009;
  EXPECT_NE(retry_seed(base, 0, 1), retry_seed(base, 0, 2));
  EXPECT_NE(retry_seed(base, 0, 1), retry_seed(base, 1, 1));
  EXPECT_NE(retry_seed(base, 3, 2), retry_seed(base, 2, 3));
  // Deterministic: same key, same seed.
  EXPECT_EQ(retry_seed(base, 5, 2), retry_seed(base, 5, 2));
}

TEST(RetryPolicy, DefaultLadderEscalatesBudgetThenWidth) {
  FixedFormat base;  // q8.2
  const auto ladder = default_escalation_ladder(10, base);
  ASSERT_EQ(ladder.size(), 2u);
  EXPECT_EQ(ladder[0].max_iterations, 20u);
  EXPECT_EQ(ladder[0].format.total_bits, base.total_bits);
  EXPECT_EQ(ladder[1].max_iterations, 30u);
  EXPECT_EQ(ladder[1].format.total_bits, base.total_bits + 2);
  // The width escalation saturates at the decoder's 16-bit ceiling.
  FixedFormat wide;
  wide.total_bits = 15;
  EXPECT_EQ(default_escalation_ladder(10, wide)[1].format.total_bits, 16);
}

// ------------------------------------------------------------ supervisor ----

SupervisorConfig make_supervisor_config(const QCLdpcCode& code,
                                        unsigned workers,
                                        std::size_t attempts) {
  SupervisorConfig config;
  config.engine.num_workers = workers;
  config.engine.queue_capacity = 16;
  config.engine.escalation_factories = {fixed_factory(code, 10),
                                        fixed_factory(code, 30)};
  config.retry = RetryPolicy::none();
  config.retry.max_attempts = attempts;
  return config;
}

TEST(Supervisor, RetryEscalatesAndRecoversFailedFrames) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 24, 1.5F);
  // Baseline: how many frames the starved 2-iteration primary fails.
  std::size_t primary_failures = 0;
  {
    const auto decoder = fixed_factory(code, 2)();
    for (const auto& f : frames)
      if (!decoder->decode(f).converged) ++primary_failures;
  }
  ASSERT_GT(primary_failures, 0u) << "test needs a failing primary";

  DecodeSupervisor supervisor(fixed_factory(code, 2),
                              make_supervisor_config(code, 2, 3));
  std::vector<DecodeResult> slots(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(
        submit_accepted(supervisor.submit(f, frames[f], &slots[f])));
  supervisor.drain();

  const SupervisorMetrics m = supervisor.metrics();
  EXPECT_GE(m.retry.retries_submitted, primary_failures);
  ASSERT_EQ(m.retry.finished_by_attempt.size(), 3u);
  std::size_t finished = 0;
  for (const auto c : m.retry.finished_by_attempt) finished += c;
  EXPECT_EQ(finished, frames.size());  // every frame finished exactly once
  EXPECT_EQ(m.retry.finished_by_attempt[0], frames.size() - primary_failures);
  // The ladder rescues frames the primary failed (10 then 30 iterations at
  // 1.5 dB recover essentially everything).
  std::size_t rescued = 0;
  for (std::size_t a = 1; a < m.retry.recovered_by_attempt.size(); ++a)
    rescued += m.retry.recovered_by_attempt[a];
  EXPECT_GT(rescued, 0u);
  std::size_t converged = 0;
  for (const auto& r : slots) converged += r.converged ? 1u : 0u;
  EXPECT_EQ(converged, frames.size() - m.retry.exhausted_frames);
  EXPECT_EQ(m.engine.jobs_completed,
            frames.size() + m.retry.retries_submitted);
}

TEST(Supervisor, RetryResultsBitIdenticalAcrossWorkersAndPolicies) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 24, 1.5F);
  // The determinism contract extended to retries: attempts are keyed
  // (frame_index, attempt), so the final per-frame results — including
  // which attempt finished each frame — are identical for any worker count
  // and any overload policy (with capacity for every job, the policies
  // admit identical work).
  auto run = [&](unsigned workers, OverloadPolicy policy) {
    SupervisorConfig config = make_supervisor_config(code, workers, 3);
    config.engine.queue_capacity = frames.size();
    config.engine.overload_policy = policy;
    DecodeSupervisor supervisor(fixed_factory(code, 2), config);
    std::vector<DecodeResult> slots(frames.size());
    for (std::size_t f = 0; f < frames.size(); ++f) {
      const SubmitStatus s = supervisor.submit(f, frames[f], &slots[f]);
      EXPECT_TRUE(submit_accepted(s));
    }
    supervisor.drain();
    return std::make_pair(std::move(slots),
                          supervisor.metrics().retry.retries_submitted);
  };
  const auto [base, base_retries] = run(1, OverloadPolicy::kBlock);
  ASSERT_GT(base_retries, 0u);  // the contract is vacuous without retries
  const std::vector<std::pair<unsigned, OverloadPolicy>> variants{
      {2, OverloadPolicy::kBlock},
      {8, OverloadPolicy::kBlock},
      {2, OverloadPolicy::kRejectNewest},
      {2, OverloadPolicy::kShedOldest}};
  for (const auto& [workers, policy] : variants) {
    const auto [slots, retries] = run(workers, policy);
    EXPECT_EQ(retries, base_retries)
        << workers << " workers, " << to_string(policy);
    ASSERT_EQ(slots.size(), base.size());
    for (std::size_t f = 0; f < base.size(); ++f) {
      EXPECT_EQ(slots[f].status, base[f].status) << f;
      EXPECT_EQ(slots[f].iterations, base[f].iterations) << f;
      for (std::size_t i = 0; i < code.n(); ++i)
        ASSERT_EQ(slots[f].hard_bits.get(i), base[f].hard_bits.get(i))
            << "frame " << f << " bit " << i << " workers " << workers
            << " policy " << to_string(policy);
    }
  }
}

TEST(Supervisor, ExhaustedRetriesKeepLastAttemptResult) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 4, 0.0F);  // hopeless SNR
  SupervisorConfig config;
  config.engine.num_workers = 2;
  config.engine.queue_capacity = 16;
  // Every rung is equally starved: no attempt can converge.
  config.engine.escalation_factories = {fixed_factory(code, 1)};
  config.retry = RetryPolicy::none();
  config.retry.max_attempts = 2;
  DecodeSupervisor supervisor(fixed_factory(code, 1), config);
  std::vector<DecodeResult> slots(frames.size());
  for (std::size_t f = 0; f < frames.size(); ++f)
    ASSERT_TRUE(
        submit_accepted(supervisor.submit(f, frames[f], &slots[f])));
  supervisor.drain();
  const SupervisorMetrics m = supervisor.metrics();
  EXPECT_EQ(m.retry.exhausted_frames, frames.size());
  EXPECT_EQ(m.retry.retries_submitted, frames.size());
  for (const auto& r : slots) {
    EXPECT_FALSE(r.converged);
    EXPECT_EQ(r.status, DecodeStatus::kMaxIterations);
    EXPECT_EQ(r.iterations, 1u);  // the last (rung-1) attempt's result
  }
}

TEST(Supervisor, DeadlinePassedAbandonsRetry) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  SupervisorConfig config = make_supervisor_config(code, 1, 2);
  DecodeSupervisor supervisor(fixed_factory(code), config);
  DecodeResult slot;
  std::atomic<int> attempts_run{0};
  // The first attempt outlives the frame's deadline; the supervisor must
  // not queue a second attempt that would be dead on arrival.
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::milliseconds(40);
  const SubmitStatus s = supervisor.submit_task(
      0,
      [&](std::size_t) {
        return [&](Decoder&) {
          ++attempts_run;
          std::this_thread::sleep_for(std::chrono::milliseconds(120));
          DecodeResult r;
          r.status = DecodeStatus::kMaxIterations;
          r.iterations = 1;
          return r;
        };
      },
      &slot, deadline);
  ASSERT_TRUE(submit_accepted(s));
  supervisor.drain();
  EXPECT_EQ(attempts_run.load(), 1);
  EXPECT_EQ(slot.status, DecodeStatus::kMaxIterations);
  const SupervisorMetrics m = supervisor.metrics();
  EXPECT_EQ(m.retry.retries_abandoned_deadline, 1u);
  EXPECT_EQ(m.retry.retries_submitted, 0u);
}

// ------------------------------------------------------------ block jobs ----

DecoderFactory batched_factory(const QCLdpcCode& code,
                               std::size_t max_iterations = 10) {
  return [&code, max_iterations] {
    DecoderOptions opt;
    opt.max_iterations = max_iterations;
    return make_decoder("layered-minsum-simd-batched", code, opt);
  };
}

TEST(BatchEngineBlocks, SubmitBlockResolvesEveryFrameOnce) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 6, 4.0F);
  BatchEngine engine(batched_factory(code), engine_config(1, 8));
  std::vector<DecodeResult> slots(frames.size());
  std::vector<BlockFrameJob> block;
  for (std::size_t f = 0; f < frames.size(); ++f)
    block.push_back(BlockFrameJob{f, frames[f], &slots[f], std::nullopt});
  ASSERT_TRUE(submit_accepted(engine.submit_block(std::move(block))));
  engine.drain();
  for (const auto& r : slots) {
    EXPECT_GE(r.iterations, 1u);
    EXPECT_TRUE(r.converged);
  }
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_submitted, frames.size());
  EXPECT_EQ(m.jobs_completed, frames.size());
  EXPECT_EQ(m.decoded_bits, frames.size() * code.n());
  EXPECT_EQ(m.decoded_info_bits, frames.size() * code.k());
  EXPECT_EQ(m.latency.samples, frames.size());
}

TEST(BatchEngineBlocks, DecodeBatchBlockShapeMatchesPerFrame) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  // 2.0 dB for a mix of outcomes; 21 frames so the final block is ragged
  // for every lane width (8, 16, 32).
  const auto frames = make_frames(code, 21, 2.0F);
  std::vector<DecodeResult> reference;
  {
    BatchEngine engine(batched_factory(code), engine_config(1, 32));
    reference = engine.decode_batch(frames);
    // Per-frame submits are one-frame blocks, which a batched decoder runs
    // on its z-lane kernel: no frame reports a fallback.
    for (const auto& w : engine.snapshot().workers)
      EXPECT_EQ(w.simd_fallbacks, 0u);
  }
  // Ragged widths at 2 workers, then whole lane-width blocks at 1, 2 and 4
  // workers: the output does not depend on the block shape or the worker
  // count.
  const std::size_t lane_width = batched_factory(code)()->block_width();
  const std::pair<unsigned, std::size_t> shapes[] = {
      {2, 3}, {2, 8}, {2, 16}, {1, lane_width}, {2, lane_width},
      {4, lane_width}};
  for (const auto& [workers, width] : shapes) {
    BatchEngineConfig config = engine_config(workers, 32);
    config.block_frames = width;
    BatchEngine engine(batched_factory(code), config);
    const auto results = engine.decode_batch(frames);
    ASSERT_EQ(results.size(), reference.size());
    for (std::size_t f = 0; f < results.size(); ++f) {
      const std::string ctx = "workers=" + std::to_string(workers) +
                              " block=" + std::to_string(width) +
                              " frame=" + std::to_string(f);
      EXPECT_EQ(results[f].iterations, reference[f].iterations) << ctx;
      EXPECT_EQ(results[f].converged, reference[f].converged) << ctx;
      EXPECT_EQ(results[f].status, reference[f].status) << ctx;
      EXPECT_EQ(results[f].hard_bits, reference[f].hard_bits) << ctx;
    }
    const auto m = engine.snapshot();
    EXPECT_EQ(m.jobs_completed, frames.size());
    EXPECT_EQ(m.decoded_info_bits, frames.size() * code.k());
  }
}

TEST(BatchEngineBlocks, ExpiredFrameInBlockResolvesLaneMates) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 5, 4.0F);
  BatchEngine engine(batched_factory(code), engine_config(1, 8));
  std::vector<DecodeResult> slots(frames.size());
  std::vector<BlockFrameJob> block;
  for (std::size_t f = 0; f < frames.size(); ++f) {
    // Frame 2 is already past its deadline when the worker pops the block;
    // it must resolve kDeadlineExpired without poisoning its lane-mates.
    std::optional<std::chrono::steady_clock::time_point> deadline;
    if (f == 2) deadline = std::chrono::steady_clock::now() -
                           std::chrono::milliseconds(10);
    block.push_back(BlockFrameJob{f, frames[f], &slots[f], deadline});
  }
  ASSERT_TRUE(submit_accepted(engine.submit_block(std::move(block))));
  engine.drain();
  EXPECT_EQ(slots[2].status, DecodeStatus::kDeadlineExpired);
  EXPECT_EQ(slots[2].iterations, 0u);
  for (std::size_t f = 0; f < slots.size(); ++f) {
    if (f == 2) continue;
    EXPECT_TRUE(slots[f].converged) << f;
    EXPECT_GE(slots[f].iterations, 1u) << f;
  }
  const auto m = engine.snapshot();
  EXPECT_EQ(m.jobs_completed, frames.size());
  EXPECT_EQ(m.jobs_expired, 1u);
}

TEST(BatchEngineBlocks, FallbackFramesCountedPerWorker) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 4, 4.0F);
  // An iteration observer forces the batched decoder onto its per-frame
  // scalar twin; the engine must surface that silent fallback in metrics.
  DecoderFactory factory = [&code] {
    DecoderOptions opt;
    opt.max_iterations = 10;
    opt.observer = [](const IterationSnapshot&) {};
    return make_decoder("layered-minsum-simd-batched", code, opt);
  };
  BatchEngineConfig config = engine_config(1, 8);
  config.block_frames = 4;
  BatchEngine engine(factory, config);
  const auto results = engine.decode_batch(frames);
  for (const auto& r : results)
    EXPECT_EQ(r.simd_fallback, SimdFallback::kObserver);
  const auto m = engine.snapshot();
  std::size_t fallbacks = 0;
  for (const auto& w : m.workers) fallbacks += w.simd_fallbacks;
  EXPECT_EQ(fallbacks, frames.size());
}

TEST(BatchEngineBlocks, DestructorCompletesBlockInFlight) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  const auto frames = make_frames(code, 4, 4.0F);
  std::vector<DecodeResult> slots(frames.size());
  {
    BatchEngine engine(batched_factory(code), engine_config(1, 8));
    std::vector<BlockFrameJob> block;
    for (std::size_t f = 0; f < frames.size(); ++f)
      block.push_back(BlockFrameJob{f, frames[f], &slots[f], std::nullopt});
    ASSERT_TRUE(submit_accepted(engine.submit_block(std::move(block))));
    // No drain: the destructor must still resolve every frame of the block.
  }
  for (const auto& r : slots) EXPECT_GE(r.iterations, 1u);
}

TEST(Supervisor, RetryWithoutLadderRejectedAtConstruction) {
  const auto code = make_wimax_code(WimaxRate::kRate1_2, 24);
  SupervisorConfig config;
  config.retry = RetryPolicy::up_to(2);  // but no escalation_factories
  EXPECT_THROW(DecodeSupervisor(fixed_factory(code), config), Error);
}

}  // namespace
}  // namespace ldpc
