#ifndef QCFE_MODELS_COST_MODEL_H_
#define QCFE_MODELS_COST_MODEL_H_

/// \file cost_model.h
/// The estimator interface shared by the PostgreSQL analytical baseline and
/// the learned models (QPPNet, MSCN). Estimators are trained on labeled
/// plans and predict total query latency in milliseconds from plan-time
/// information only.

#include <memory>
#include <string>
#include <vector>

#include "engine/plan.h"
#include "featurize/featurizer.h"
#include "nn/mlp.h"
#include "nn/scaler.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace qcfe {

class ByteReader;
class ByteWriter;

/// One training/evaluation sample: an executed plan (carrying per-operator
/// actual latencies used as training signal), the environment it ran under,
/// and the total ground-truth latency.
struct PlanSample {
  const PlanNode* plan = nullptr;
  int env_id = 0;
  double label_ms = 0.0;
};

/// Training hyper-parameters.
struct TrainConfig {
  int epochs = 100;
  size_t batch_size = 32;
  double learning_rate = 1e-3;
  uint64_t seed = 1;
  /// Samples per gradient chunk: the order in which parameter gradients
  /// are summed. Each optimizer batch is cut into fixed chunks of this
  /// width; each chunk's gradients are summed from zero, and the chunk sums
  /// are added onto the optimizer-bound gradients in chunk index order.
  /// The partition depends only on batch_size and the resolved chunk_size
  /// — never on the worker count — so the fitted model is bit-identical at
  /// any thread count. Both models run a whole batch at once (QPPNet wave
  /// by wave, MSCN as one packed forward and backward), so the width only
  /// fixes the summation order; it buys no parallelism. Changing the width
  /// changes the trained model's bits.
  ///
  /// 0 (the default) autotunes: models derive the width from batch_size and
  /// a per-chunk sink-merge cost — the exact count of gradient elements a
  /// separate per-chunk sink would zero and merge versus the per-sample
  /// backprop element count (see ResolveTrainChunkSize). Element counts
  /// rather than wall timings keep the partition deterministic, so
  /// autotuned training stays bit-identical across runs and thread counts.
  size_t chunk_size = 0;
  /// If > 0, evaluate mean q-error on `eval_set` every `eval_every` epochs
  /// (drives the paper's Figure 8 convergence curves).
  int eval_every = 0;
  std::vector<PlanSample> eval_set;
};

/// Bookkeeping returned from Train().
struct TrainStats {
  double train_seconds = 0.0;
  std::vector<double> loss_curve;  ///< training loss per epoch
  /// (epoch, mean q-error on eval_set) pairs when eval_every > 0.
  std::vector<std::pair<int, double>> eval_curve;
};

/// A query cost estimator.
class CostModel {
 public:
  virtual ~CostModel() = default;

  virtual std::string name() const = 0;

  /// Trains (or continues training — learned models warm-start, which is
  /// how the transfer-learning experiment retrains a basis model).
  virtual Status Train(const std::vector<PlanSample>& train,
                       const TrainConfig& config, TrainStats* stats) = 0;

  /// Predicted total latency (ms) for a plan under an environment.
  virtual Result<double> PredictMs(const PlanNode& plan, int env_id) const = 0;

  /// Predicted latency for a whole batch of plans: the serving hot path.
  /// Results are positionally aligned with `batch` and bit-identical to
  /// calling PredictMs per sample; implementations override the two-arg
  /// form to amortise featurization and run matrix-batched forward passes
  /// instead of per-plan scalar loops. This overload serves with the pool
  /// configured via set_thread_pool (none by default).
  Result<std::vector<double>> PredictBatchMs(
      const std::vector<PlanSample>& batch) const {
    return PredictBatchMs(batch, pool_);
  }

  /// Batched prediction across an explicit pool: deduped requests are
  /// sharded into contiguous blocks, one per worker, each with its own
  /// scratch buffers. Per-request arithmetic is row-independent, so results
  /// are bit-identical for every thread count (and to PredictMs). The
  /// default implementation runs the per-plan loop across the pool.
  virtual Result<std::vector<double>> PredictBatchMs(
      const std::vector<PlanSample>& batch, ThreadPool* pool) const;

  /// One request's outcome in a per-request batched prediction: either an
  /// OK status with the predicted latency, or the request's own error.
  struct BatchPrediction {
    Status status;
    double ms = 0.0;
  };

  /// Batched prediction with per-request status isolation: positionally
  /// aligned with `batch`, and a request that cannot be served (null plan,
  /// unknown environment, numeric failure) fails alone instead of poisoning
  /// its co-batched neighbours. The healthy path is one PredictBatchMs call
  /// (so throughput matches the all-or-nothing API); only when that whole
  /// batch fails does it fall back to deduped per-request PredictMs — which
  /// the parity contract guarantees is bit-identical, so healthy requests
  /// in a poisoned batch still receive exactly the values a clean batch
  /// would have produced. This is the serving surface the async front end
  /// (serve/async_server.h) flushes micro-batches through.
  std::vector<BatchPrediction> PredictBatchEach(
      const std::vector<PlanSample>& batch, ThreadPool* pool) const;
  std::vector<BatchPrediction> PredictBatchEach(
      const std::vector<PlanSample>& batch) const {
    return PredictBatchEach(batch, pool_);
  }

  /// Attaches a serving/training pool (not owned; must outlive the model —
  /// the Pipeline owns both and guarantees this). Null detaches. The pool
  /// is used by PredictBatchMs(batch) and by per-epoch eval during Train.
  void set_thread_pool(ThreadPool* pool) { pool_ = pool; }
  ThreadPool* thread_pool() const { return pool_; }

  /// The featurizer backing this model (nullptr for analytical models).
  virtual const OperatorFeaturizer* featurizer() const { return nullptr; }

  /// Label scaler (nullptr for analytical models).
  virtual const LogTargetScaler* label_scaler() const { return nullptr; }

  /// Materializes a plain MLP view mapping one operator's feature vector to
  /// the model's (scaled) cost prediction, holding all other model context
  /// (child outputs / sibling sets) fixed at averages over `context`.
  /// The feature-reduction algorithms (gradient and difference propagation)
  /// walk this view's layers. Analytical models return FailedPrecondition.
  virtual Result<Mlp> OperatorView(
      OpType op, const std::vector<PlanSample>& context) const {
    (void)op;
    (void)context;
    return Status::FailedPrecondition("model has no operator view");
  }

  /// Serializes the trained state — weights, scalers, optimizer moments,
  /// RNG stream position — into `w` as this model's own versioned
  /// sub-format inside an artifact's model section (core/artifact.h).
  /// Stateless analytical models write nothing.
  virtual Status SaveState(ByteWriter* w) const {
    (void)w;
    return Status::OK();
  }

  /// Restores state written by SaveState into a model constructed against
  /// the same featurizer/catalog/config: weights are overwritten **in
  /// place** (no layer or moment slot is reallocated, so optimizer
  /// parameter bindings survive). Wrong model family or architecture is
  /// kFailedPrecondition; truncated bytes are kDataLoss.
  virtual Status LoadState(ByteReader* r) {
    (void)r;
    return Status::OK();
  }

 private:
  ThreadPool* pool_ = nullptr;
};

/// Subtree latency of a node: the per-operator training signal used by
/// plan-structured models (sum of actual_ms in the subtree).
double SubtreeLatencyMs(const PlanNode& node);

/// Cost-model constant for chunk autotuning: backprop element-traffic per
/// parameter element per sample (forward + backward + accumulate roughly
/// triple the forward's two flops per weight).
constexpr double kTrainFlopsPerParam = 6.0;

/// Resolves TrainConfig::chunk_size, the width that sets the gradient
/// summation order; for both models it sets nothing else. Explicit widths
/// pass through; 0 (auto) picks the smallest chunk whose per-chunk sink
/// overhead (`merge_cost_elems`, the gradient elements zeroed + merged per
/// chunk) stays under a fixed fraction of the chunk's compute
/// (`per_sample_cost_elems` per sample), clamped to [1, batch_size].
/// Neither batched trainer keeps per-chunk sinks any more, but both still
/// resolve their width with this cost model: the width is part of what
/// makes a fitted model's bits. All inputs are deterministic element
/// counts, so the resolved width — and with it the chunk partition and the
/// trained model — is identical across runs and thread counts.
size_t ResolveTrainChunkSize(const TrainConfig& config,
                             double merge_cost_elems,
                             double per_sample_cost_elems);

/// Mean q-error of the model on `eval_set` through the batched, pool-sharded
/// serving path (bit-identical to the per-plan loop). Drives the per-epoch
/// convergence traces (TrainConfig::eval_every) without serializing a full
/// eval sweep per epoch. Samples whose prediction fails are skipped, like
/// the historical per-plan loop.
double EvalMeanQError(const CostModel& model,
                      const std::vector<PlanSample>& eval_set,
                      ThreadPool* pool);

/// Request-level deduplication for batched serving. Production estimation
/// traffic is highly repetitive — templated workloads, knob sweeps and plan
/// enumeration all resubmit the same (plan, environment) pairs — and a
/// deterministic model maps identical requests to identical predictions, so
/// a batch only needs one forward pass per distinct request. `unique` holds
/// the distinct samples in first-appearance order and `slot[i]` maps batch
/// position i to its index in `unique`.
struct BatchRequestDedup {
  explicit BatchRequestDedup(const std::vector<PlanSample>& batch);

  /// Expands per-unique results back to batch order.
  std::vector<double> Expand(const std::vector<double>& unique_results) const;

  std::vector<PlanSample> unique;
  std::vector<size_t> slot;
};

}  // namespace qcfe

#endif  // QCFE_MODELS_COST_MODEL_H_
