#include "adapt/adaptation_controller.h"

#include <algorithm>
#include <utility>

#include "util/check.h"
#include "util/fs.h"

namespace qcfe {
namespace adapt {

namespace {

AdaptationConfig Normalize(const AdaptationConfig& config) {
  AdaptationConfig c = config;
  if (c.evaluate_every == 0) c.evaluate_every = 1;
  if (c.min_retrain_samples == 0) c.min_retrain_samples = 1;
  return c;
}

}  // namespace

AdaptationController::AdaptationController(Pipeline* trainer,
                                           SwappableModel* target,
                                           const AdaptationConfig& config,
                                           AsyncServer* server, Fs* fs)
    : trainer_(trainer),
      target_(target),
      server_(server),
      fs_(fs),
      config_(Normalize(config)),
      sink_(config.window),
      detector_(config.drift) {
  QCFE_CHECK(trainer_ != nullptr && target_ != nullptr,
             "AdaptationController requires a trainer pipeline and a "
             "publication target");
  detector_.SetBaselines(trainer_->env_baseline_qerror());
  worker_ = std::thread([this] { WorkerLoop(); });
}

AdaptationController::~AdaptationController() { Stop(); }

void AdaptationController::OnObservation(const PlanNode& plan, int env_id,
                                         double predicted_ms,
                                         double actual_ms) {
  sink_.OnObservation(plan, env_id, predicted_ms, actual_ms);
  // The sink drops (and counts) unusable latencies; they must not advance
  // the evaluation cadence either.
  if (!ValidObservation(predicted_ms, actual_ms)) return;
  // Sample-count epochs: evaluate this environment's window every Nth of
  // its observations. The cumulative count is stable across window clears,
  // so the cadence never resets.
  const uint64_t seen = sink_.EnvObservations(env_id);
  const bool evaluate = seen % config_.evaluate_every == 0;
  DriftVerdict verdict;
  if (evaluate) {
    verdict = detector_.Evaluate(env_id, sink_.WindowQErrors(env_id));
  }
  MutexLock lock(&mu_);
  ++stats_.observations;
  if (!evaluate) return;
  ++stats_.windows_evaluated;
  if (!verdict.drifted) return;
  ++stats_.drift_trips;
  // Coalesce: any number of trips fold into one pending cycle (a trip
  // during a running cycle queues exactly one follow-up — the running
  // cycle's windows predate the trip's evidence). After Stop, trips are
  // counted but start nothing.
  if (!stop_ && !cycle_pending_) {
    cycle_pending_ = true;
    cv_.NotifyAll();
  }
}

void AdaptationController::WorkerLoop() {
  for (;;) {
    {
      MutexLock lock(&mu_);
      cv_.Wait(&mu_, [this] {
        QCFE_ASSERT_HELD(mu_);
        return cycle_pending_ || stop_;
      });
      if (stop_) return;  // pending trips after Stop are dropped
      cycle_pending_ = false;
      cycle_running_ = true;
    }
    Status status = RunCycle();
    MutexLock lock(&mu_);
    last_cycle_status_ = std::move(status);
    cycle_running_ = false;
    cv_.NotifyAll();
  }
}

Status AdaptationController::RunCycleNow() {
  {
    MutexLock lock(&mu_);
    // Wait out any background cycle, then claim the running slot so the
    // worker cannot start one underneath us.
    cv_.Wait(&mu_, [this] {
      QCFE_ASSERT_HELD(mu_);
      return !cycle_pending_ && !cycle_running_;
    });
    cycle_running_ = true;
  }
  Status status = RunCycle();
  MutexLock lock(&mu_);
  last_cycle_status_ = status;
  cycle_running_ = false;
  cv_.NotifyAll();
  return status;
}

void AdaptationController::WaitForIdle() {
  MutexLock lock(&mu_);
  cv_.Wait(&mu_, [this] {
    QCFE_ASSERT_HELD(mu_);
    return !cycle_pending_ && !cycle_running_;
  });
}

Status AdaptationController::RunCycle() {
  {
    MutexLock lock(&mu_);
    ++stats_.cycles_started;
  }
  if (config_.artifact_path.empty()) {
    MutexLock lock(&mu_);
    ++stats_.cycles_skipped;
    return Status::InvalidArgument(
        "AdaptationConfig::artifact_path is empty; nowhere to publish from");
  }
  // The snapshot owns its rescaled plan clones (LabeledCorpus::owners), so
  // the corpus stays valid through retrain+probe even as new observations
  // evict ring entries underneath it.
  const LabeledCorpus corpus = sink_.LabeledSamples();
  const std::vector<PlanSample>& samples = corpus.samples;
  if (samples.size() < config_.min_retrain_samples) {
    MutexLock lock(&mu_);
    ++stats_.cycles_skipped;
    return Status::FailedPrecondition(
        "only " + std::to_string(samples.size()) +
        " buffered labeled samples; retrain needs " +
        std::to_string(config_.min_retrain_samples));
  }

  // 1. Warm-start retrain on the observed-execution corpus. On failure the
  // trainer's weights may have moved, but nothing was published — the
  // serving model is untouched.
  Status trained = trainer_->Retrain(samples, config_.retrain, nullptr);
  if (!trained.ok()) {
    MutexLock lock(&mu_);
    ++stats_.retrain_failures;
    return trained.WithContext("adaptation retrain");
  }

  // 2. Persist through the Fs seam. Atomic rename: a failed save leaves
  // the previously published artifact intact.
  Status saved = trainer_->Save(config_.artifact_path, fs_);
  if (!saved.ok()) {
    MutexLock lock(&mu_);
    ++stats_.save_failures;
    return saved.WithContext("adaptation save");
  }

  // 3. Publish via LoadAndSwap with a bit-parity probe: the loaded
  // candidate must reproduce the trainer's predictions exactly, proving
  // the artifact on disk is the model that was just retrained. Any
  // load/validation/probe failure keeps the old version serving.
  SwapOptions options;
  const size_t probe_n = std::min(config_.probe_size, samples.size());
  options.probe.assign(samples.begin(), samples.begin() + probe_n);
  if (!options.probe.empty()) {
    Result<std::vector<double>> expected = trainer_->PredictBatch(options.probe);
    if (expected.ok()) {
      options.expected = std::move(expected.value());
    } else {
      // Can't form expectations; probe for warm-up only.
      options.expected.clear();
    }
  }
  Result<std::shared_ptr<const Pipeline>> published = LoadAndSwap(
      trainer_->database(), trainer_->environments(),
      trainer_->query_templates(), config_.artifact_path, options, target_,
      server_, fs_);
  if (!published.ok()) {
    MutexLock lock(&mu_);
    ++stats_.swaps_rejected;
    return published.status().WithContext("adaptation swap");
  }

  // 4. New generation is live: drop q-error history observed against the
  // old model and re-reference the detector on the retrained fit.
  sink_.ClearWindows();
  detector_.SetBaselines(trainer_->env_baseline_qerror());
  const uint64_t version = target_->version();
  {
    MutexLock lock(&mu_);
    ++stats_.swaps_published;
    stats_.model_version = version;
  }
  if (config_.on_publish) config_.on_publish(*published, version);
  return Status::OK();
}

void AdaptationController::Stop() {
  {
    MutexLock lock(&mu_);
    stop_ = true;
    cv_.NotifyAll();
  }
  if (worker_.joinable()) worker_.join();
}

AdaptationStats AdaptationController::stats() const {
  MutexLock lock(&mu_);
  return stats_;
}

Status AdaptationController::last_cycle_status() const {
  MutexLock lock(&mu_);
  return last_cycle_status_;
}

}  // namespace adapt
}  // namespace qcfe
