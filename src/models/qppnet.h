#ifndef QCFE_MODELS_QPPNET_H_
#define QCFE_MODELS_QPPNET_H_

/// \file qppnet.h
/// QPPNet (Marcus & Papaemmanouil, "Plan-Structured Deep Neural Network
/// Models for Query Performance Prediction"): one MLP "neural unit" per
/// physical operator type. A unit consumes the operator's feature vector
/// concatenated with its children's output vectors and emits a d-dimensional
/// vector whose first channel is the predicted (scaled) latency of the
/// operator's subtree; the remaining channels are a learned "data vector"
/// passed to the parent. Training backpropagates a per-operator latency loss
/// through the plan-tree structure.

#include <array>
#include <memory>

#include "models/cost_model.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace qcfe {

/// QPPNet hyper-parameters.
struct QppNetConfig {
  size_t hidden = 48;          ///< hidden width of each neural unit
  size_t data_vector_dim = 8;  ///< unit output width (latency + data vector)
  size_t max_children = 2;     ///< plan nodes have at most two children
};

/// Plan-structured estimator.
class QppNet : public CostModel {
 public:
  /// `featurizer` must outlive the model.
  QppNet(const OperatorFeaturizer* featurizer, QppNetConfig config,
         uint64_t seed);

  std::string name() const override { return "QPPNet"; }
  /// Wave-batched training. Each optimizer batch (sample order from an
  /// epoch-keyed Rng::Split stream) runs in three steps over the wave
  /// schedule PredictBatchMs uses:
  ///  1. forward: one taped, matrix-batched unit forward per (wave,
  ///     operator type) group over all plans of the batch;
  ///  2. backward: the groups in reverse, one delta-recording unit
  ///     backward each (Mlp::BackwardDeltas), reducing no gradient yet;
  ///  3. reduction: each unit's weight and bias gradients summed from the
  ///     recorded rows in (chunk, plan, pre-order node) order, one
  ///     zero-seeded sum per TrainConfig::chunk_size-wide chunk, added in
  ///     chunk order (Mlp::AccumulateParamGrads).
  /// Unit forwards and backwards are row-independent within an ISA tier
  /// (the contract that makes PredictBatchMs match PredictMs), and the
  /// reduction replays exactly the chain of a trainer that backprops one
  /// node at a time into a gradient sink per chunk. So the fitted model,
  /// its Adam state and its loss curve are bit-identical to that per-node
  /// trainer. The batch runs inline; the attached pool only encodes plans,
  /// so the result is also the same at any thread count.
  Status Train(const std::vector<PlanSample>& train, const TrainConfig& config,
               TrainStats* stats) override;
  Result<double> PredictMs(const PlanNode& plan, int env_id) const override;
  /// Wave-batched inference: featurizes every plan once, then schedules
  /// nodes bottom-up into "waves" whose children are already computed, so
  /// each (wave, operator type) runs one matrix-batched unit forward over
  /// the whole batch instead of a 1-row forward per node. With a pool, the
  /// deduped requests are sharded into contiguous blocks, one wave-batched
  /// sweep per worker with per-shard scratch buffers; unit forwards are
  /// row-independent, so shard boundaries never change a prediction.
  using CostModel::PredictBatchMs;
  Result<std::vector<double>> PredictBatchMs(
      const std::vector<PlanSample>& batch, ThreadPool* pool) const override;
  const OperatorFeaturizer* featurizer() const override { return featurizer_; }
  const LogTargetScaler* label_scaler() const override { return &label_scaler_; }
  Result<Mlp> OperatorView(
      OpType op, const std::vector<PlanSample>& context) const override;

  /// Persists units, per-op feature scalers, label scaler, Adam moments and
  /// the RNG stream position (core/artifact.h model section). A loaded
  /// model predicts — and, warm-started, trains — bit-identically to the
  /// original.
  Status SaveState(ByteWriter* w) const override;
  Status LoadState(ByteReader* r) override;

  const Mlp& unit(OpType op) const { return *units_[static_cast<size_t>(op)]; }

  /// Flat trainable-parameter / optimizer-bound gradient lists across all
  /// neural units, in operator order (autodiff verification and external
  /// optimizers; same layout in both lists).
  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();

  /// Mean per-node squared loss of the scaled subtree-latency regression
  /// over `samples`, treated as one batch and one chunk of Train()'s
  /// wave-batched path. With `accumulate_gradients`, the matching parameter
  /// gradients are added into Grads() (not applied). Fits the scalers on
  /// `samples` if the model is untrained. This is the differentiable
  /// quantity Train() descends, exposed so finite-difference checks can
  /// verify the batched composite backprop end to end.
  Result<double> TrainingLoss(const std::vector<PlanSample>& samples,
                              bool accumulate_gradients);

 private:
  /// Pre-encoded plan: nodes in pre-order with child links.
  struct EncodedNode {
    OpType op = OpType::kSeqScan;
    std::vector<double> feats;      ///< scaled features
    std::vector<size_t> children;   ///< indices into EncodedPlan::nodes
    size_t wave = 0;                ///< 0 for leaves, else 1 + max child wave
    double label_scaled = 0.0;      ///< scaled subtree latency
  };
  struct EncodedPlan {
    std::vector<EncodedNode> nodes;  ///< pre-order; root at 0
  };

  /// The bottom-up schedule serving and training share. Every node of a
  /// set of plans lands in the (wave, operator type) group of its wave, so
  /// a group's children were all computed by earlier groups. Groups run
  /// waves ascending and operator types in AllOpTypes() order; a group
  /// lists its nodes in (plan, pre-order node) order. Nodes also have a
  /// flat index, node_base[plan] + node, for per-node side tables. Build
  /// reuses the storage, so a warm schedule does not allocate.
  struct WaveSchedule {
    struct NodeRef {
      size_t plan = 0;
      size_t node = 0;
    };
    struct Group {
      OpType op = OpType::kSeqScan;
      size_t wave = 0;
      size_t begin = 0;  ///< this group's nodes are nodes[begin, end)
      size_t end = 0;
    };
    std::vector<size_t> node_base;  ///< flat index of each plan's root
    size_t total_nodes = 0;
    std::vector<NodeRef> nodes;     ///< grouped, see Group
    std::vector<Group> groups;
    std::vector<size_t> cursor;     ///< Build scratch, per (wave, op) key

    void Build(const std::vector<const EncodedPlan*>& plans);
  };

  /// Reusable state of the batched trainer (defined in qppnet.cc).
  struct TrainWorkspace;

  /// `with_labels=false` is the serving path: it skips the per-node
  /// subtree-latency/label transforms that only training needs.
  EncodedPlan EncodePlan(const PlanNode& plan, int env_id, bool scale_features,
                         bool with_labels = true) const;

  /// Writes the unit inputs of schedule group `g` into `x`, one row per
  /// group node: the node's features, then each child's output row from
  /// `outputs` (indexed by flat node), zeros for absent children.
  void BuildUnitInputs(const std::vector<const EncodedPlan*>& plans,
                       const WaveSchedule& schedule, size_t g,
                       const Matrix& outputs, Matrix* x) const;

  /// Wave-batched serving sweep over requests [begin, end), writing
  /// predictions into the matching slots of `out` (one shard of
  /// PredictBatchMs; the serial path is the single shard [0, n)).
  void PredictShard(const std::vector<PlanSample>& requests, size_t begin,
                    size_t end, std::vector<double>* out) const;

  /// Forward all nodes of one plan; returns per-node outputs (1 x d rows).
  void ForwardPlan(const EncodedPlan& plan,
                   std::vector<Matrix>* node_outputs) const;

  /// One optimizer batch, wave-batched: a taped unit forward per schedule
  /// group, then a delta-recording backward per group in reverse, seeded
  /// with 2 * err * inv_node_count per node. Writes each chunk's summed
  /// squared error (plans cut into `chunk_size`-wide chunks) into
  /// `chunk_losses`. With `reduce`, adds the parameter gradients into the
  /// units' Grads() in (chunk, plan, pre-order node) order — the order a
  /// per-node trainer with one gradient sink per chunk sums them in.
  void RunBatch(const std::vector<const EncodedPlan*>& plans,
                size_t chunk_size, double inv_node_count, bool reduce,
                TrainWorkspace* ws, std::vector<double>* chunk_losses);

  /// Fits feature scalers and the label scaler on first training.
  void FitScalers(const std::vector<PlanSample>& train);

  Matrix UnitInput(const EncodedPlan& plan, size_t node_index,
                   const std::vector<Matrix>& node_outputs) const;

  const OperatorFeaturizer* featurizer_;
  QppNetConfig config_;
  Rng rng_;
  std::array<std::unique_ptr<Mlp>, kNumOpTypes> units_;
  std::array<StandardScaler, kNumOpTypes> feature_scalers_;
  LogTargetScaler label_scaler_;
  bool scalers_fitted_ = false;
  std::unique_ptr<AdamOptimizer> optimizer_;
};

}  // namespace qcfe

#endif  // QCFE_MODELS_QPPNET_H_
