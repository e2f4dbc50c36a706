#ifndef QCFE_MODELS_MSCN_H_
#define QCFE_MODELS_MSCN_H_

/// \file mscn.h
/// MSCN (Kipf et al., "Learned Cardinalities") extended to cost estimation
/// as in the paper's Section V-A: three set modules — joins, predicates, and
/// fine-grained plan operators (the extension; carries cardinalities and,
/// under QCFE, the feature snapshot) — each an MLP applied per element and
/// mean-pooled, concatenated into a final MLP that outputs query cost.

#include <memory>

#include "engine/catalog.h"
#include "models/cost_model.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace qcfe {

/// MSCN hyper-parameters.
struct MscnConfig {
  size_t set_hidden = 32;    ///< hidden width of join/predicate modules
  size_t op_hidden = 64;     ///< hidden width of the operator module
  size_t final_hidden = 64;  ///< hidden width of the output MLP
};

/// Set-based estimator.
class Mscn : public CostModel {
 public:
  /// `catalog` provides the join/predicate vocabularies and literal
  /// normalisation stats; `featurizer` encodes the operator set. The
  /// featurizer must use the same width for every operator type (MSCN's
  /// operator module is a single MLP), which base and uniformly-masked
  /// featurizers satisfy. Both must outlive the model.
  Mscn(const Catalog* catalog, const OperatorFeaturizer* featurizer,
       MscnConfig config, uint64_t seed);

  std::string name() const override { return "MSCN"; }
  /// Batched training: each epoch's query order (drawn from an
  /// epoch-keyed Rng::Split stream) is cut into optimizer batches, and each
  /// batch runs as one pack, one taped forward and one backward over all
  /// of its queries. The parameter gradients are then reduced per chunk
  /// segment (TrainConfig::chunk_size queries, and their set elements):
  /// each chunk's sum starts from zero and the sums are added onto the
  /// optimizer-bound gradients in chunk order. The chunk width only fixes
  /// that summation order. The attached thread pool only encodes queries,
  /// so the fitted model is bit-identical at any thread count.
  Status Train(const std::vector<PlanSample>& train, const TrainConfig& config,
               TrainStats* stats) override;
  Result<double> PredictMs(const PlanNode& plan, int env_id) const override;
  /// Batched inference: every query in the batch is packed into one element
  /// matrix per set module, so each module runs a single matrix-batched
  /// forward over all elements of all queries instead of one tiny forward
  /// per query. With a pool, deduped requests are sharded into contiguous
  /// blocks, one pack + forward per worker with its own scratch; module
  /// forwards and SegmentMean are per-row/per-query, so shard boundaries
  /// never change a prediction.
  using CostModel::PredictBatchMs;
  Result<std::vector<double>> PredictBatchMs(
      const std::vector<PlanSample>& batch, ThreadPool* pool) const override;
  const OperatorFeaturizer* featurizer() const override { return featurizer_; }
  const LogTargetScaler* label_scaler() const override { return &label_scaler_; }
  Result<Mlp> OperatorView(
      OpType op, const std::vector<PlanSample>& context) const override;

  /// Persists the four module networks, set/label scalers, Adam moments,
  /// the RNG stream position and the catalog-derived slot maps — the slot
  /// maps are *validated* on load, so an artifact fit against a different
  /// catalog vocabulary is rejected instead of silently mis-encoding.
  Status SaveState(ByteWriter* w) const override;
  Status LoadState(ByteReader* r) override;

  size_t join_dim() const { return join_dim_; }
  size_t pred_dim() const { return pred_dim_; }
  size_t op_dim() const { return op_dim_; }

  /// Flat trainable-parameter / optimizer-bound gradient lists across the
  /// four modules (join, predicate, operator, final), for autodiff
  /// verification and external optimizers (same layout in both lists).
  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();

  /// Mean squared loss of the scaled-cost regression over `samples`,
  /// treated as one batch. With `accumulate_gradients`, the matching
  /// parameter gradients are added into Grads() (not applied). Fits the
  /// scalers on `samples` if the model is untrained. Exposed so
  /// finite-difference checks can verify the composite set-module backprop.
  Result<double> TrainingLoss(const std::vector<PlanSample>& samples,
                              bool accumulate_gradients);

 private:
  /// Pre-encoded query: the three element sets (each at least one row; empty
  /// sets contribute a single zero row, MSCN's padding convention).
  struct EncodedQuery {
    std::vector<std::vector<double>> joins;
    std::vector<std::vector<double>> preds;
    std::vector<std::vector<double>> ops;
    double label_scaled = 0.0;
  };

  EncodedQuery EncodeQuery(const PlanNode& plan, int env_id,
                           bool scale) const;

  /// Encode + pack + forward for requests [begin, end), writing predictions
  /// into the matching slots of `out` (one shard of PredictBatchMs; the
  /// serial path is the single shard [0, n)).
  void PredictShard(const std::vector<PlanSample>& requests, size_t begin,
                    size_t end, std::vector<double>* out) const;
  std::vector<double> EncodeJoin(const JoinCondition& join) const;
  std::vector<double> EncodePredicate(const Predicate& pred) const;

  /// Packs queries into per-module element matrices with segment offsets.
  struct Packed {
    Matrix joins, preds, ops;
    std::vector<size_t> join_offsets, pred_offsets, op_offsets;  // size nq+1
    std::vector<double> labels;
  };
  Packed Pack(const std::vector<const EncodedQuery*>& batch) const;
  /// Pack into a reusable arena: matrices and offset vectors are reshaped
  /// in place, so repacking chunks of steady size never allocates.
  void PackInto(const std::vector<const EncodedQuery*>& batch,
                Packed* packed) const;

  /// One optimizer batch's reusable scratch arena: the packed element
  /// matrices, the module tapes, every pooled/concat/expand intermediate of
  /// the batched forward/backward and the chunk segment ends, reshaped in
  /// place across batches so steady-state training never touches the
  /// allocator.
  struct BatchScratch {
    std::vector<const EncodedQuery*> refs;
    Packed packed;
    Mlp::Tape join_tape, pred_tape, op_tape, final_tape;
    Matrix pooled_join, pooled_pred, pooled_op, concat;  // forward
    Matrix grad;                                         // dL/d(out)
    Matrix expand;                                       // backward
    /// Per chunk, the end of its rows in each module's input: queries for
    /// the final module, set elements for the three set modules.
    std::vector<size_t> query_ends, join_ends, pred_ends, op_ends;
  };

  /// Forward returns per-query predictions (nq x 1) as a reference into
  /// the scratch's final-module tape, recording module activations on the
  /// scratch's tapes for the backward pass. Const and state-free.
  const Matrix& ForwardPacked(const Packed& packed, BatchScratch* scratch) const;
  Matrix PredictPacked(const Packed& packed) const;

  /// Packs queries order[start, end) and runs them forward as one batch,
  /// cut into `chunk_size`-wide chunks. Each chunk's summed squared error
  /// starts from zero and is added onto `*loss`, in chunk order. With
  /// `reduce`, the batch then runs backward (seeded with 2 * err *
  /// inv_batch per query) and every module's parameter gradients are added
  /// into Grads(), one chunk segment at a time.
  void RunBatch(const std::vector<EncodedQuery>& encoded,
                const std::vector<size_t>& order, size_t start, size_t end,
                size_t chunk_size, double inv_batch, bool reduce,
                BatchScratch* scratch, double* loss);

  void FitScalers(const std::vector<EncodedQuery>& queries,
                  const std::vector<double>& labels_ms);

  const Catalog* catalog_;
  const OperatorFeaturizer* featurizer_;
  MscnConfig config_;
  Rng rng_;
  size_t join_dim_ = 0;
  size_t pred_dim_ = 0;
  size_t op_dim_ = 0;
  std::map<std::string, size_t> table_slots_;
  std::map<std::string, size_t> column_slots_;

  std::unique_ptr<Mlp> join_net_;
  std::unique_ptr<Mlp> pred_net_;
  std::unique_ptr<Mlp> op_net_;
  std::unique_ptr<Mlp> final_net_;
  StandardScaler join_scaler_, pred_scaler_, op_scaler_;
  LogTargetScaler label_scaler_;
  bool scalers_fitted_ = false;
  std::unique_ptr<AdamOptimizer> optimizer_;
};

}  // namespace qcfe

#endif  // QCFE_MODELS_MSCN_H_
