#include "runtime/batch_engine.hpp"

#include <algorithm>
#include <utility>

#include "util/rng.hpp"

namespace ldpc {

std::size_t EngineMetrics::status_total(DecodeStatus s) const {
  std::size_t total = 0;
  for (const auto& w : workers)
    total += w.status_counts[static_cast<std::size_t>(s)];
  return total;
}

std::size_t EngineMetrics::sum_iterations() const {
  std::size_t total = 0;
  for (const auto& w : workers) total += w.sum_iterations;
  return total;
}

double EngineMetrics::avg_iterations() const {
  return jobs_completed == 0 ? 0.0
                             : static_cast<double>(sum_iterations()) /
                                   static_cast<double>(jobs_completed);
}

BatchEngine::BatchEngine(DecoderFactory factory, BatchEngineConfig config)
    : factory_(std::move(factory)),
      config_(std::move(config)),
      queue_(config_.queue_capacity, config_.overload_policy) {
  LDPC_CHECK(factory_ != nullptr);
  LDPC_CHECK_MSG(config_.num_workers >= 1, "engine needs >= 1 worker");
  for (const auto& f : config_.escalation_factories)
    LDPC_CHECK_MSG(f != nullptr, "escalation factory must not be null");
  // Held across the spawn loop: the first workers can start decoding (and a
  // quarantined one can append its replacement) while later ones are still
  // being emplaced — workers_ must not be mutated from two threads at once.
  const MutexLock lock(state_mutex_);
  worker_stats_.resize(config_.num_workers);
  workers_.reserve(config_.num_workers + config_.max_replacement_workers);
  for (unsigned w = 0; w < config_.num_workers; ++w)
    workers_.emplace_back([this, w] { worker_main(w); });
}

BatchEngine::~BatchEngine() {
  queue_.close();
  // The vector may grow while we join: a quarantined worker appends its
  // replacement before exiting, so joining index i happens-after any
  // append i performed — the re-checked size always catches new threads.
  for (std::size_t i = 0;;) {
    std::thread victim;
    {
      const MutexLock lock(state_mutex_);
      if (i >= workers_.size()) break;
      victim = std::move(workers_[i]);
      ++i;
    }
    if (victim.joinable()) victim.join();
  }
}

BatchEngine::Job BatchEngine::make_task_job(std::size_t frame_index,
                                            Task&& task, DecodeResult* slot,
                                            const JobOptions& options) {
  Job job;
  job.task = std::move(task);
  job.frames.push_back(BlockFrameJob{frame_index, {}, slot, options.deadline});
  job.rung = options.rung;
  return job;
}

SubmitStatus BatchEngine::enqueue(Job&& job, bool forced) {
  // Kept aside before the move: a refused push must back every frame out.
  std::vector<std::size_t> indices;
  indices.reserve(job.frames.size());
  for (const BlockFrameJob& f : job.frames) indices.push_back(f.frame_index);
  const auto unrecord = [&] {
    const MutexLock lock(state_mutex_);
    for (const std::size_t index : indices) {
      --submitted_;
      ++jobs_rejected_;
      const auto it = outstanding_.find(index);
      if (it != outstanding_.end() && --it->second == 0) outstanding_.erase(it);
    }
    // A concurrent drain() may have been waiting on the frames just backed
    // out; re-evaluate its predicate.
    if (completed_ == submitted_) all_done_.notify_all();
  };
  {
    const MutexLock lock(state_mutex_);
    job.enqueued = std::chrono::steady_clock::now();
    if (!started_) {
      started_ = true;
      first_enqueue_ = job.enqueued;
    }
    submitted_ += indices.size();
    for (const std::size_t index : indices) ++outstanding_[index];
  }
  if (forced) {
    if (queue_.push_forced(std::move(job))) return SubmitStatus::kAccepted;
    unrecord();
    return SubmitStatus::kRejectedClosed;
  }
  Job shed;
  switch (queue_.push(std::move(job), &shed)) {
    case BoundedJobQueue<Job>::PushResult::kClosed:
      unrecord();
      return SubmitStatus::kRejectedClosed;
    case BoundedJobQueue<Job>::PushResult::kRejected:
      unrecord();
      return SubmitStatus::kRejectedQueueFull;
    case BoundedJobQueue<Job>::PushResult::kAcceptedShed:
      // The evicted queue entry may be of either kind.
      complete_undecoded(std::move(shed), DecodeStatus::kShedOverload);
      return SubmitStatus::kAcceptedShedOldest;
    case BoundedJobQueue<Job>::PushResult::kAccepted:
      break;
  }
  return SubmitStatus::kAccepted;
}

void BatchEngine::finish_job_locked(
    std::size_t frame_index, std::chrono::steady_clock::time_point now) {
  last_complete_ = now;
  ++completed_;
  const auto it = outstanding_.find(frame_index);
  if (it != outstanding_.end() && --it->second == 0) outstanding_.erase(it);
  if (completed_ == submitted_) all_done_.notify_all();
}

void BatchEngine::complete_undecoded(Job&& job, DecodeStatus status) {
  DecodeResult undecoded;
  undecoded.status = status;
  const auto now = std::chrono::steady_clock::now();
  const MutexLock lock(state_mutex_);
  // Every frame resolves — a frame that silently vanished would wedge
  // drain() forever.
  for (const BlockFrameJob& frame : job.frames) {
    if (frame.slot) *frame.slot = undecoded;
    if (status == DecodeStatus::kShedOverload) ++jobs_shed_;
    if (status == DecodeStatus::kDeadlineExpired) ++jobs_expired_;
    finish_job_locked(frame.frame_index, now);
  }
}

SubmitStatus BatchEngine::submit(std::size_t frame_index,
                                 std::vector<float> llr, DecodeResult* slot,
                                 JobOptions options) {
  std::vector<BlockFrameJob> frame(1);
  frame[0] = {frame_index, std::move(llr), slot, options.deadline};
  return submit_block(std::move(frame), options.rung);
}

SubmitStatus BatchEngine::submit_task(std::size_t frame_index, Task task,
                                      JobOptions options, DecodeResult* slot) {
  LDPC_CHECK(task != nullptr);
  return enqueue(make_task_job(frame_index, std::move(task), slot, options));
}

SubmitStatus BatchEngine::submit_block(std::vector<BlockFrameJob> frames,
                                       unsigned rung) {
  LDPC_CHECK_MSG(!frames.empty(), "submit_block needs >= 1 frame");
  for (const BlockFrameJob& f : frames) LDPC_CHECK(f.slot != nullptr);
  Job job;
  job.frames = std::move(frames);
  job.rung = rung;
  return enqueue(std::move(job));
}

bool BatchEngine::submit_retry(std::size_t frame_index, Task task,
                               JobOptions options, DecodeResult* slot) {
  LDPC_CHECK(task != nullptr);
  return submit_accepted(enqueue(
      make_task_job(frame_index, std::move(task), slot, options),
      /*forced=*/true));
}

void BatchEngine::drain() {
  MutexLock lock(state_mutex_);
  while (completed_ != submitted_) lock.wait(all_done_);
}

DrainReport BatchEngine::drain_until(
    std::chrono::steady_clock::time_point deadline) {
  MutexLock lock(state_mutex_);
  DrainReport report;
  report.completed = true;
  while (completed_ != submitted_) {
    if (lock.wait_until(all_done_, deadline) == std::cv_status::timeout) {
      report.completed = completed_ == submitted_;
      break;
    }
  }
  if (!report.completed) {
    report.outstanding = submitted_ - completed_;
    report.straggler_frames.reserve(outstanding_.size());
    for (const auto& entry : outstanding_)
      report.straggler_frames.push_back(entry.first);
  }
  return report;
}

std::vector<DecodeResult> BatchEngine::decode_batch(
    const std::vector<std::vector<float>>& frames) {
  // Sized up front: slots must not move while jobs are in flight.
  std::vector<DecodeResult> results(frames.size());
  const std::size_t width = std::max<std::size_t>(config_.block_frames, 1);
  for (std::size_t base = 0; base < frames.size(); base += width) {
    const std::size_t count = std::min(width, frames.size() - base);
    std::vector<BlockFrameJob> block(count);
    for (std::size_t i = 0; i < count; ++i) {
      block[i].frame_index = base + i;
      block[i].llr = frames[base + i];
      block[i].slot = &results[base + i];
    }
    const SubmitStatus s = submit_block(std::move(block));
    // The frames already accepted write into `results`: let them finish
    // before the throw destroys it.
    if (!submit_accepted(s)) drain();
    LDPC_CHECK_MSG(submit_accepted(s),
                   "decode_batch submit failed: " << to_string(s));
  }
  drain();
  return results;
}

void BatchEngine::worker_main(unsigned worker_id) {
  // Rung decoder cache: [0] primary, [r] = escalation ladder entry r - 1.
  // Created lazily so a worker that never sees an escalated job never pays
  // for the wider decoders; each decoder is wired to this worker's cancel
  // token once, at creation.
  std::vector<std::unique_ptr<Decoder>> decoders(
      1 + config_.escalation_factories.size());
  CancelToken cancel;
  auto decoder_for = [&](unsigned rung) -> Decoder& {
    const std::size_t idx =
        std::min<std::size_t>(rung, config_.escalation_factories.size());
    auto& entry = decoders[idx];
    if (!entry) {
      entry = idx == 0 ? factory_() : config_.escalation_factories[idx - 1]();
      LDPC_CHECK(entry != nullptr);
      entry->set_cancel_token(&cancel);
    }
    return *entry;
  };

  Job job;
  while (queue_.pop(job)) {
    bool retire = false;
    if (!job.task) {
      run_block_job(worker_id, job, decoder_for(job.rung), cancel, &retire);
      job = Job{};  // release the frame buffers before blocking on the queue
      if (retire) return;
      continue;
    }
    const BlockFrameJob& frame = job.frames.front();
    // A queued task whose deadline already passed is completed without
    // running — but only when the engine owns a result slot to report
    // through; a slotless task must still run (with the token pre-expired,
    // so a cancellation-aware decode bails at its first poll).
    if (frame.deadline && frame.slot &&
        std::chrono::steady_clock::now() >= *frame.deadline) {
      complete_undecoded(std::move(job), DecodeStatus::kDeadlineExpired);
      job = Job{};
      continue;
    }
    cancel.clear();
    if (frame.deadline) cancel.arm_deadline(*frame.deadline);

    Decoder& decoder = decoder_for(job.rung);
    DecodeResult result;
    bool failed = false;
    try {
      // Task jobs own their result delivery (a retry layer may already
      // have the *next* attempt in flight by the time the task returns —
      // writing the slot here would race with it).
      result = job.task(decoder);
    } catch (...) {
      // A throwing task must not take the worker (and every queued job
      // behind it) down; it is surfaced as EngineWorkerStats::exceptions.
      failed = true;
    }
    const auto now = std::chrono::steady_clock::now();
    const SaturationStats saturation = decoder.saturation();
    {
      const MutexLock lock(state_mutex_);
      EngineWorkerStats& stats = worker_stats_[worker_id];
      if (failed) {
        ++stats.exceptions;
        ++stats.strikes;
      }
      book_frame_locked(
          stats, frame.frame_index, failed ? nullptr : &result, saturation,
          decoder,
          std::chrono::duration<double, std::micro>(now - job.enqueued)
              .count(),
          now);
      retire = maybe_quarantine_locked(worker_id);
    }
    job = Job{};
    if (retire) return;
  }
}

void BatchEngine::book_frame_locked(EngineWorkerStats& stats,
                                    std::size_t frame_index,
                                    const DecodeResult* result,
                                    const SaturationStats& saturation,
                                    const Decoder& decoder, double latency_us,
                                    std::chrono::steady_clock::time_point now) {
  ++stats.jobs;
  if (result) {
    stats.sum_iterations += result->iterations;
    stats.status_counts[static_cast<std::size_t>(result->status)] += 1;
    if (result->status == DecodeStatus::kConverged) ++stats.early_terminations;
    if (result->simd_fallback != SimdFallback::kNone) ++stats.simd_fallbacks;
    if (result->status == DecodeStatus::kFaultDetected ||
        result->status == DecodeStatus::kWatchdogAbort)
      ++stats.strikes;
    stats.saturation.quantizer_clips += saturation.quantizer_clips;
    stats.saturation.datapath_clips += saturation.datapath_clips;
    stats.saturation.q_clips += saturation.q_clips;
    stats.saturation.r_clips += saturation.r_clips;
    stats.saturation.p_clips += saturation.p_clips;
    stats.saturation.degenerate_checks += saturation.degenerate_checks;
    decoded_bits_ += decoder.n();
    decoded_info_bits_ += decoder.k();
  }
  record_latency_locked(latency_us);
  finish_job_locked(frame_index, now);
}

bool BatchEngine::maybe_quarantine_locked(unsigned worker_id) {
  EngineWorkerStats& stats = worker_stats_[worker_id];
  if (config_.quarantine_strike_threshold == 0 || stats.quarantined ||
      stats.strikes < config_.quarantine_strike_threshold ||
      workers_spawned_ >= config_.max_replacement_workers)
    return false;
  // Quarantine: retire this worker and hand its slot in the pool to a
  // fresh thread (and a fresh decoder) from the factory. `stats` is
  // dead after the push_back below — the vector may reallocate.
  stats.quarantined = true;
  ++workers_quarantined_;
  ++workers_spawned_;
  const auto new_id = static_cast<unsigned>(worker_stats_.size());
  worker_stats_.emplace_back();
  workers_.emplace_back([this, new_id] { worker_main(new_id); });
  return true;
}

void BatchEngine::run_block_job(unsigned worker_id, Job& job, Decoder& decoder,
                                CancelToken& worker_token, bool* retire) {
  const auto pop_time = std::chrono::steady_clock::now();
  // Frames already past their deadline complete without decoding; the rest
  // share one decode_block.
  std::vector<BlockFrameJob*> runnable;
  runnable.reserve(job.frames.size());
  std::vector<std::size_t> expired;
  for (BlockFrameJob& frame : job.frames) {
    if (frame.deadline && pop_time >= *frame.deadline) {
      DecodeResult result;
      result.status = DecodeStatus::kDeadlineExpired;
      *frame.slot = result;
      expired.push_back(frame.frame_index);
    } else {
      runnable.push_back(&frame);
    }
  }

  // Per-frame cancel tokens let one late frame bail at a layer boundary
  // while its lane-mates decode to completion.
  std::vector<CancelToken> tokens(runnable.size());
  std::vector<BlockFrame> frames(runnable.size());
  std::vector<DecodeResult> results(runnable.size());
  std::vector<SaturationStats> sats(runnable.size());
  for (std::size_t i = 0; i < runnable.size(); ++i) {
    if (runnable[i]->deadline) tokens[i].arm_deadline(*runnable[i]->deadline);
    frames[i].llr = runnable[i]->llr;
    frames[i].cancel = &tokens[i];
  }

  bool failed = false;
  if (!runnable.empty()) {
    try {
      decoder.decode_block(frames, results, sats);
    } catch (...) {
      // One throwing block must not take the worker down. Every runnable
      // frame still resolves — with its default (non-converged) result —
      // and the failure counts once against this worker.
      failed = true;
    }
    // decode_block detaches whatever token the per-frame ones replaced;
    // re-attach this worker's own so later task jobs keep deadlines.
    decoder.set_cancel_token(&worker_token);
  }
  const auto now = std::chrono::steady_clock::now();
  if (!failed)
    for (std::size_t i = 0; i < runnable.size(); ++i)
      *runnable[i]->slot = std::move(results[i]);

  const double latency_us =
      std::chrono::duration<double, std::micro>(now - job.enqueued).count();
  const MutexLock lock(state_mutex_);
  EngineWorkerStats& stats = worker_stats_[worker_id];
  for (const std::size_t index : expired) {
    ++jobs_expired_;
    finish_job_locked(index, now);
  }
  if (failed) {
    ++stats.exceptions;
    ++stats.strikes;
  }
  for (std::size_t i = 0; i < runnable.size(); ++i)
    book_frame_locked(stats, runnable[i]->frame_index,
                      failed ? nullptr : runnable[i]->slot, sats[i], decoder,
                      latency_us, now);
  *retire = maybe_quarantine_locked(worker_id);
}

void BatchEngine::record_latency_locked(double us) {
  ++latency_samples_seen_;
  const std::size_t cap = config_.latency_sample_cap;
  if (cap == 0 || latency_us_.size() < cap) {
    latency_us_.push_back(us);
    return;
  }
  // Algorithm R with a deterministic stream: sample i (1-based) replaces a
  // uniformly random reservoir slot with probability cap / i.
  std::uint64_t sm = 0x9e3779b97f4a7c15ULL ^ latency_samples_seen_;
  const std::size_t slot =
      static_cast<std::size_t>(splitmix64(sm) % latency_samples_seen_);
  if (slot < cap) latency_us_[slot] = us;
}

EngineMetrics BatchEngine::snapshot() const {
  EngineMetrics m;
  RunningStats occupancy;
  std::vector<double> latencies;
  {
    const MutexLock lock(state_mutex_);
    // The queue's internal mutex nests inside state_mutex_ here (no engine
    // path acquires them in the opposite order), making the occupancy
    // statistics part of the same consistent cut as the job counters.
    occupancy = queue_.occupancy();
    m.jobs_submitted = submitted_;
    m.jobs_completed = completed_;
    m.decoded_bits = decoded_bits_;
    m.decoded_info_bits = decoded_info_bits_;
    m.jobs_expired = jobs_expired_;
    m.jobs_shed = jobs_shed_;
    m.jobs_rejected = jobs_rejected_;
    m.workers_quarantined = workers_quarantined_;
    m.workers_spawned = workers_spawned_;
    if (started_) {
      const auto end = completed_ == submitted_
                           ? last_complete_
                           : std::chrono::steady_clock::now();
      m.wall_seconds =
          std::chrono::duration<double>(end - first_enqueue_).count();
    }
    m.workers = worker_stats_;
    latencies = latency_us_;
  }
  if (m.wall_seconds > 0.0) {
    m.code_throughput_mbps =
        static_cast<double>(m.decoded_bits) / m.wall_seconds / 1e6;
    m.info_throughput_mbps =
        static_cast<double>(m.decoded_info_bits) / m.wall_seconds / 1e6;
  }
  m.queue_capacity = queue_.capacity();
  m.queue_mean_occupancy = occupancy.mean();
  m.queue_max_occupancy =
      occupancy.count() == 0 ? 0 : static_cast<std::size_t>(occupancy.max());
  std::sort(latencies.begin(), latencies.end());
  m.latency.samples = latencies.size();
  if (!latencies.empty()) {
    double sum = 0.0;
    for (const double v : latencies) sum += v;
    m.latency.mean_us = sum / static_cast<double>(latencies.size());
    m.latency.p50_us = percentile_sorted(latencies, 0.50);
    m.latency.p95_us = percentile_sorted(latencies, 0.95);
    m.latency.p99_us = percentile_sorted(latencies, 0.99);
    m.latency.max_us = latencies.back();
  }
  return m;
}

}  // namespace ldpc
