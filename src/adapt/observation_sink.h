#ifndef QCFE_ADAPT_OBSERVATION_SINK_H_
#define QCFE_ADAPT_OBSERVATION_SINK_H_

/// \file observation_sink.h
/// The "observe" stage of the online adaptation loop.
///
/// Serving callers that later learn a request's true latency report
/// (plan, env, predicted, actual) tuples — typically through
/// AsyncServer::ReportObserved. The sink condenses that stream into two
/// deterministic, fixed-capacity structures:
///
///  * a per-environment ring of recent q-errors (the drift detector's
///    window: what the serving model's accuracy looks like *now*), and
///  * one shared ring of labeled samples (the retraining corpus: what the
///    next warm-start Retrain will consume).
///
/// The labeled ring stores *training-ready* samples, not bare pointers into
/// caller-owned plans: each observation is a deep clone of the served plan
/// with every node's recorded latency rescaled so the subtree targets sum
/// to the observed execution time. Only the end-to-end latency is observed
/// online, but the cost models train on per-node subtree targets
/// (SubtreeLatencyMs) — without the proportional attribution a retrain
/// would keep fitting the fit-time world no matter what was measured, and
/// the adaptation loop would never actually adapt.
///
/// Everything is sized up front and indexed by sample count — no wall
/// clock, no growth. Given the same observation sequence the sink's state
/// is bit-identical on every run, which is what makes the whole adaptation
/// loop replayable in tests.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "models/cost_model.h"
#include "serve/async_server.h"
#include "util/sync.h"

namespace qcfe {
namespace adapt {

/// Capacity knobs for ObservationSink. All rings drop-oldest when full.
struct ObservationWindowConfig {
  /// Per-environment q-error ring size: how much recent history the drift
  /// detector sees.
  size_t window_capacity = 256;
  /// Labeled-sample ring size (shared across environments): the maximum
  /// retraining corpus one adaptation cycle can use.
  size_t label_capacity = 1024;
};

/// A snapshot of the labeled retraining ring. `samples` feeds
/// Pipeline::Retrain directly (oldest observation first); `owners` holds
/// the rescaled plan clones the samples point into, so the corpus stays
/// valid for as long as the caller trains on it — even if the ring evicts
/// or the sink itself is destroyed in the meantime.
struct LabeledCorpus {
  std::vector<PlanSample> samples;
  std::vector<std::shared_ptr<const PlanNode>> owners;
};

/// Thread-safe observation accumulator; see the file comment. Implements
/// ObservationListener so it can be attached directly to an AsyncServer,
/// or fed through a forwarding listener (AdaptationController does the
/// latter). Lock rank: lock_rank::kObservationSink, a leaf.
class ObservationSink : public ObservationListener {
 public:
  explicit ObservationSink(const ObservationWindowConfig& config = {});

  /// Records one observation: pushes QError(actual, predicted) into the
  /// environment's q-error ring, and a deep clone of `plan` — node
  /// latencies rescaled by actual_ms / SubtreeLatencyMs(plan) — into the
  /// labeled ring. The plan is not retained past this call; the clone is
  /// owned by the sink (and by any outstanding LabeledSamples snapshot).
  /// Latencies that ValidObservation rejects (non-finite or non-positive)
  /// touch neither ring nor any per-environment counter; they are counted
  /// in DroppedObservations instead.
  void OnObservation(const PlanNode& plan, int env_id, double predicted_ms,
                     double actual_ms) override;

  /// The environment's current q-error window, oldest observation first.
  /// At most window_capacity entries; empty for an unseen environment.
  std::vector<double> WindowQErrors(int env_id) const;

  /// Clears every environment's q-error window (cumulative counters and
  /// the labeled ring are untouched). The adaptation controller calls this
  /// after publishing a retrained model: accuracy observed against the old
  /// model must not count for or against the new one.
  void ClearWindows();

  /// The buffered retraining corpus in arrival order (oldest first), at
  /// most label_capacity samples. PlanSample::label_ms carries the
  /// *observed* latency and the plans are the rescaled clones, so the
  /// snapshot feeds Pipeline::Retrain directly and the per-node training
  /// targets reflect what was measured, not what was collected at fit time.
  LabeledCorpus LabeledSamples() const;

  /// Cumulative observations, total and per environment (not reset by
  /// ring wrap-around or ClearWindows).
  uint64_t TotalObservations() const;
  uint64_t EnvObservations(int env_id) const;

  /// Observations rejected by ValidObservation, cumulative.
  uint64_t DroppedObservations() const;

  /// Environment ids ever observed, ascending.
  std::vector<int> EnvIds() const;

  const ObservationWindowConfig& config() const { return config_; }

 private:
  struct EnvWindow {
    std::vector<double> qerrors;  ///< ring storage, capacity-bounded
    size_t next = 0;              ///< ring write cursor
    uint64_t total = 0;           ///< cumulative observations for this env
  };

  /// One labeled-ring slot: the rescaled clone plus what PlanSample needs.
  struct LabeledEntry {
    std::shared_ptr<const PlanNode> plan;
    int env_id = 0;
    double label_ms = 0.0;
  };

  const ObservationWindowConfig config_;
  mutable Mutex mu_{lock_rank::kObservationSink};
  /// Ordered map so every iteration (EnvIds, debugging dumps) is
  /// deterministic in env id.
  std::map<int, EnvWindow> windows_ QCFE_GUARDED_BY(mu_);
  std::vector<LabeledEntry> labels_ QCFE_GUARDED_BY(mu_);
  size_t label_next_ QCFE_GUARDED_BY(mu_) = 0;
  uint64_t label_total_ QCFE_GUARDED_BY(mu_) = 0;
  uint64_t dropped_ QCFE_GUARDED_BY(mu_) = 0;
};

}  // namespace adapt
}  // namespace qcfe

#endif  // QCFE_ADAPT_OBSERVATION_SINK_H_
