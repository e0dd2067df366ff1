// Supervision and admission-control layer over the batch decode engine.
//
// BatchEngine moves frames through a worker pool; DecodeSupervisor makes
// that pool a *service*: every job carries an optional deadline, failed
// decodes are re-submitted under a bounded retry/escalation policy
// (runtime/retry_policy.hpp), the queue's overload policy turns producer
// overrun into explicit rejection or shedding instead of unbounded memory,
// and worker quarantine (BatchEngineConfig::quarantine_strike_threshold)
// retires decoding threads that keep producing damaged results.
//
// Retry flow: the supervisor wraps every submission in a task that, on a
// retryable final status, re-enqueues the frame with the next escalation
// rung — via the engine's capacity-exempt retry path, so a worker can never
// deadlock against its own backlog. The caller's result slot always ends up
// holding the *final* attempt's result (or kDeadlineExpired / kShedOverload
// if the system gave up before a decoder ran). Attempts are keyed by
// (frame_index, attempt), preserving the engine's determinism contract:
// decoded results are bit-identical for any worker count.
#pragma once

#include <chrono>
#include <cstddef>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

#include "runtime/batch_engine.hpp"
#include "runtime/retry_policy.hpp"
#include "util/thread_annotations.hpp"

namespace ldpc {

/// Called (on a worker thread) before re-submitting a frame whose next rung
/// is RungKind::kRequestRedundancy: the link layer combines one HARQ
/// retransmission into the frame's LLR buffer (src/harq/llr_buffer.hpp) so
/// the re-decode sees new channel information. `next_attempt` is the
/// 1-based attempt the redundancy feeds. Return false when the frame's
/// transmission budget is exhausted — the frame then resolves exactly once
/// with DecodeStatus::kHarqExhausted. Attempts for a frame are strictly
/// sequential, so the hook may mutate that frame's state without locks; it
/// must derive any randomness from (frame_index, next_attempt), never from
/// the worker, to preserve the engine's determinism contract.
using RedundancyHook =
    std::function<bool(std::size_t frame_index, std::size_t next_attempt)>;

struct SupervisorConfig {
  BatchEngineConfig engine;  ///< pool size, queue, quarantine, escalation
  RetryPolicy retry;         ///< when and how often to re-attempt
  /// Kind of each escalation rung, parallel to engine.escalation_factories
  /// (attempt a uses rung a - 1; rungs beyond the list clamp to its last
  /// entry, mirroring the engine's factory clamp). Empty = every rung
  /// kRedecode, the pre-HARQ behaviour.
  std::vector<RungKind> rung_kinds;
  /// Required when any rung is kRequestRedundancy; never called otherwise.
  RedundancyHook on_redundancy_request;
};

/// Retry/recovery accounting, aggregated over the supervisor's lifetime.
struct RetryStats {
  std::size_t retries_submitted = 0;  ///< re-attempts enqueued
  /// Retries skipped because the frame's deadline had already passed when
  /// its previous attempt finished (the re-decode would be dead on arrival).
  std::size_t retries_abandoned_deadline = 0;
  /// Frames whose decode ended (any status) on attempt a, indexed [a - 1].
  std::vector<std::size_t> finished_by_attempt;
  /// Frames whose *final converged* decode happened on attempt a, [a - 1]:
  /// index 0 is first-try convergence, higher indices are rescues by the
  /// escalation ladder.
  std::vector<std::size_t> recovered_by_attempt;
  /// Frames that burned every attempt and still failed.
  std::size_t exhausted_frames = 0;
  /// Retransmissions the redundancy hook granted (kRequestRedundancy rungs).
  std::size_t redundancy_requests = 0;
  /// Frames finalized kHarqExhausted: the ladder asked for a retransmission
  /// and the link had none left. Disjoint from exhausted_frames (those
  /// burned max_attempts; these stopped earlier, out of redundancy).
  std::size_t harq_exhausted_frames = 0;
};

struct SupervisorMetrics {
  EngineMetrics engine;
  RetryStats retry;
};

class DecodeSupervisor {
 public:
  /// Per-attempt task builder for task-based submissions: called with the
  /// 1-based attempt number, returns the task to run. Any randomness the
  /// task consumes must derive from (frame_index, attempt) — use
  /// retry_seed() — so retries stay deterministic.
  using TaskFactory = std::function<BatchEngine::Task(std::size_t attempt)>;

  DecodeSupervisor(DecoderFactory primary, SupervisorConfig config);

  /// Submit one frame of LLRs: a task job (submit_task) whose every
  /// attempt decodes the same retained LLRs. `*slot` (required; must
  /// outlive drain()) receives the final attempt's result. `deadline`, when
  /// set, bounds the frame's total time in the system across all attempts.
  [[nodiscard]] SubmitStatus submit(
      std::size_t frame_index, std::vector<float> llr, DecodeResult* slot,
      std::optional<std::chrono::steady_clock::time_point> deadline = {});

  /// Submit a task-based job (e.g. a whole generate-transmit-decode-score
  /// frame). `factory(attempt)` builds each attempt's task; the engine runs
  /// it with the escalation-rung decoder for that attempt.
  [[nodiscard]] SubmitStatus submit_task(
      std::size_t frame_index, TaskFactory factory, DecodeResult* slot,
      std::optional<std::chrono::steady_clock::time_point> deadline = {});

  /// Block until every submitted frame (including its retries) completed.
  void drain() { engine_.drain(); }

  /// Bounded drain with straggler report; see BatchEngine::drain_until.
  DrainReport drain_until(std::chrono::steady_clock::time_point deadline) {
    return engine_.drain_until(deadline);
  }
  DrainReport drain_for(std::chrono::nanoseconds timeout) {
    return engine_.drain_for(timeout);
  }

  SupervisorMetrics metrics() const;

  /// The underlying engine (e.g. for decode_batch-style direct use).
  BatchEngine& engine() { return engine_; }

  const RetryPolicy& retry_policy() const { return config_.retry; }

 private:
  /// Mutable per-frame state shared between this supervisor and the
  /// attempt tasks in flight for the frame.
  struct JobControl {
    std::size_t frame_index = 0;
    TaskFactory task_factory;
    DecodeResult* slot = nullptr;
    std::optional<std::chrono::steady_clock::time_point> deadline;
    std::size_t attempt = 1;  ///< attempt currently running (1-based)
  };

  BatchEngine::Task make_attempt(std::shared_ptr<JobControl> control);
  /// Kind of escalation rung `rung` (1-based attempt - 1), clamped to the
  /// configured list; kRedecode when no kinds were configured.
  RungKind rung_kind_for(std::size_t rung) const;
  void on_attempt_done(const std::shared_ptr<JobControl>& control,
                       const DecodeResult& result)
      LDPC_EXCLUDES(stats_mutex_);

  SupervisorConfig config_;
  BatchEngine engine_;

  mutable Mutex stats_mutex_;
  RetryStats stats_ LDPC_GUARDED_BY(stats_mutex_);
};

}  // namespace ldpc
