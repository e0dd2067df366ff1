#include "runtime/supervisor.hpp"

#include <algorithm>
#include <utility>

namespace ldpc {

DecodeSupervisor::DecodeSupervisor(DecoderFactory primary,
                                   SupervisorConfig config)
    : config_(std::move(config)), engine_(std::move(primary), config_.engine) {
  validate(config_.retry);
  if (config_.retry.enabled())
    LDPC_CHECK_MSG(
        !config_.engine.escalation_factories.empty(),
        "retry without an escalation ladder re-runs the identical decode; "
        "configure BatchEngineConfig::escalation_factories");
  const bool has_harq_rung =
      std::any_of(config_.rung_kinds.begin(), config_.rung_kinds.end(),
                  [](RungKind k) { return k == RungKind::kRequestRedundancy; });
  LDPC_CHECK_MSG(!has_harq_rung || config_.on_redundancy_request != nullptr,
                 "a kRequestRedundancy rung needs the redundancy hook; "
                 "configure SupervisorConfig::on_redundancy_request");
  stats_.finished_by_attempt.resize(config_.retry.max_attempts, 0);
  stats_.recovered_by_attempt.resize(config_.retry.max_attempts, 0);
}

RungKind DecodeSupervisor::rung_kind_for(std::size_t rung) const {
  if (config_.rung_kinds.empty() || rung == 0) return RungKind::kRedecode;
  return config_.rung_kinds[std::min(rung, config_.rung_kinds.size()) - 1];
}

BatchEngine::Task DecodeSupervisor::make_attempt(
    std::shared_ptr<JobControl> control) {
  return [this, control = std::move(control)](Decoder& decoder) {
    const DecodeResult result =
        control->task_factory(control->attempt)(decoder);
    on_attempt_done(control, result);
    return result;
  };
}

void DecodeSupervisor::on_attempt_done(
    const std::shared_ptr<JobControl>& control, const DecodeResult& result) {
  bool retry =
      config_.retry.should_retry(result.status, control->attempt);
  bool abandoned = false;
  bool harq_exhausted = false;
  bool redundancy_granted = false;
  if (retry && control->deadline &&
      std::chrono::steady_clock::now() >= *control->deadline) {
    // The re-decode would expire in the queue anyway; give up now and let
    // this attempt's result stand.
    retry = false;
    abandoned = true;
  }
  if (retry &&
      rung_kind_for(control->attempt) == RungKind::kRequestRedundancy) {
    // The next rung needs new channel information before it may decode. The
    // hook combines one retransmission into the frame's buffer — or reports
    // the link out of redundancy, which is a *typed* terminal outcome, not
    // a silent re-decode of LLRs the ladder already failed on.
    if (config_.on_redundancy_request(control->frame_index,
                                      control->attempt + 1)) {
      redundancy_granted = true;
    } else {
      retry = false;
      harq_exhausted = true;
    }
  }
  if (retry) {
    const std::size_t attempt = ++control->attempt;
    JobOptions options;
    options.deadline = control->deadline;
    // Attempt a runs on escalation rung a - 1 (the engine clamps rungs
    // beyond the ladder to its last entry).
    options.rung = static_cast<unsigned>(attempt - 1);
    // Capacity-exempt: this runs on a worker thread, which must never
    // block on queue space it is itself responsible for freeing.
    if (engine_.submit_retry(control->frame_index, make_attempt(control),
                             options, control->slot)) {
      const MutexLock lock(stats_mutex_);
      ++stats_.retries_submitted;
      if (redundancy_granted) ++stats_.redundancy_requests;
      return;  // the next attempt owns the slot now
    }
    // Engine stopped under us: record this attempt as final.
  }
  // Final attempt: publish the result. Safe without a lock — attempts for a
  // frame are strictly sequential, and drain() observes this write because
  // it happens before the worker's completion bookkeeping.
  DecodeResult final_result = result;
  if (harq_exhausted) final_result.status = DecodeStatus::kHarqExhausted;
  if (control->slot) *control->slot = final_result;
  const MutexLock lock(stats_mutex_);
  // A granted retransmission whose resubmit lost to engine shutdown still
  // consumed link redundancy; account for it.
  if (redundancy_granted) ++stats_.redundancy_requests;
  const std::size_t index =
      std::min(control->attempt, config_.retry.max_attempts) - 1;
  ++stats_.finished_by_attempt[index];
  if (final_result.status == DecodeStatus::kConverged)
    ++stats_.recovered_by_attempt[index];
  else if (harq_exhausted)
    ++stats_.harq_exhausted_frames;
  else if (control->attempt >= config_.retry.max_attempts)
    ++stats_.exhausted_frames;
  if (abandoned) ++stats_.retries_abandoned_deadline;
}

SubmitStatus DecodeSupervisor::submit(
    std::size_t frame_index, std::vector<float> llr, DecodeResult* slot,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  // Shared by every attempt's task, never copied per attempt.
  auto frame = std::make_shared<const std::vector<float>>(std::move(llr));
  return submit_task(
      frame_index,
      [frame](std::size_t) -> BatchEngine::Task {
        return [frame](Decoder& decoder) { return decoder.decode(*frame); };
      },
      slot, deadline);
}

SubmitStatus DecodeSupervisor::submit_task(
    std::size_t frame_index, TaskFactory factory, DecodeResult* slot,
    std::optional<std::chrono::steady_clock::time_point> deadline) {
  LDPC_CHECK(factory != nullptr);
  LDPC_CHECK(slot != nullptr);
  auto control = std::make_shared<JobControl>();
  control->frame_index = frame_index;
  control->task_factory = std::move(factory);
  control->slot = slot;
  control->deadline = deadline;
  JobOptions options;
  options.deadline = deadline;
  return engine_.submit_task(frame_index, make_attempt(std::move(control)),
                             options, slot);
}

SupervisorMetrics DecodeSupervisor::metrics() const {
  SupervisorMetrics m;
  m.engine = engine_.snapshot();
  {
    const MutexLock lock(stats_mutex_);
    m.retry = stats_;
  }
  return m;
}

}  // namespace ldpc
