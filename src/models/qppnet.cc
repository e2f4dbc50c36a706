#include "models/qppnet.h"

#include <algorithm>
#include <cmath>

#include "models/registry.h"
#include "util/env_config.h"
#include "util/serialize.h"
#include "util/stats.h"

namespace qcfe {

namespace {
/// Model-section sub-format marker; bump on any layout change so an old
/// binary rejects a new artifact with a clear error instead of misparsing.
constexpr const char kQppNetStateMarker[] = "qppnet-state-v1";
}  // namespace

QppNet::QppNet(const OperatorFeaturizer* featurizer, QppNetConfig config,
               uint64_t seed)
    : featurizer_(featurizer), config_(config), rng_(seed) {
  for (OpType op : AllOpTypes()) {
    size_t in = featurizer_->dim(op) +
                config_.max_children * config_.data_vector_dim;
    units_[static_cast<size_t>(op)] = std::make_unique<Mlp>(
        std::vector<size_t>{in, config_.hidden, config_.hidden,
                            config_.data_vector_dim},
        Activation::kRelu, &rng_);
  }
  std::vector<Matrix*> params, grads;
  for (auto& unit : units_) {
    for (Matrix* p : unit->Params()) params.push_back(p);
    for (Matrix* g : unit->Grads()) grads.push_back(g);
  }
  auto adam = std::make_unique<AdamOptimizer>(params, grads, 1e-3);
  adam->set_clip_norm(5.0);
  optimizer_ = std::move(adam);
}

void QppNet::FitScalers(const std::vector<PlanSample>& train) {
  if (scalers_fitted_) return;
  // Gather raw features and subtree latencies per operator type.
  std::array<std::vector<std::vector<double>>, kNumOpTypes> rows;
  std::vector<double> latencies;
  for (const auto& sample : train) {
    std::function<void(const PlanNode&, size_t)> walk = [&](const PlanNode& n,
                                                            size_t depth) {
      rows[static_cast<size_t>(n.op)].push_back(
          featurizer_->Encode(n, depth, sample.env_id));
      latencies.push_back(SubtreeLatencyMs(n));
      for (const auto& c : n.children) walk(*c, depth + 1);
    };
    walk(*sample.plan, 0);
  }
  for (OpType op : AllOpTypes()) {
    size_t oi = static_cast<size_t>(op);
    size_t dim = featurizer_->dim(op);
    if (rows[oi].empty()) {
      // Never-seen operator: identity scaling.
      Matrix empty(1, dim);
      feature_scalers_[oi].Fit(empty);
      continue;
    }
    Matrix m(rows[oi].size(), dim);
    for (size_t r = 0; r < rows[oi].size(); ++r) m.SetRow(r, rows[oi][r]);
    feature_scalers_[oi].Fit(m);
  }
  label_scaler_.Fit(latencies);
  scalers_fitted_ = true;
}

QppNet::EncodedPlan QppNet::EncodePlan(const PlanNode& plan, int env_id,
                                       bool scale_features,
                                       bool with_labels) const {
  EncodedPlan encoded;
  std::function<size_t(const PlanNode&, size_t)> walk =
      [&](const PlanNode& n, size_t depth) -> size_t {
    size_t index = encoded.nodes.size();
    encoded.nodes.emplace_back();
    encoded.nodes[index].op = n.op;
    encoded.nodes[index].label_scaled =
        with_labels && label_scaler_.fitted()
            ? label_scaler_.TransformOne(SubtreeLatencyMs(n))
            : 0.0;
    std::vector<double> feats = featurizer_->Encode(n, depth, env_id);
    if (scale_features) {
      // Inline standardisation: identical arithmetic to
      // StandardScaler::Transform, without the per-node matrix round-trip.
      const StandardScaler& sc = feature_scalers_[static_cast<size_t>(n.op)];
      if (sc.fitted()) {
        const std::vector<double>& mean = sc.mean();
        const std::vector<double>& std = sc.stddev();
        for (size_t i = 0; i < feats.size(); ++i) {
          feats[i] = (feats[i] - mean[i]) / std[i];
        }
      }
    }
    encoded.nodes[index].feats = std::move(feats);
    for (const auto& c : n.children) {
      size_t child = walk(*c, depth + 1);
      encoded.nodes[index].children.push_back(child);
      encoded.nodes[index].wave = std::max(encoded.nodes[index].wave,
                                           encoded.nodes[child].wave + 1);
    }
    return index;
  };
  walk(plan, 0);
  return encoded;
}

Matrix QppNet::UnitInput(const EncodedPlan& plan, size_t node_index,
                         const std::vector<Matrix>& node_outputs) const {
  const EncodedNode& node = plan.nodes[node_index];
  size_t d = config_.data_vector_dim;
  size_t feat_dim = node.feats.size();
  Matrix x(1, feat_dim + config_.max_children * d);
  for (size_t i = 0; i < feat_dim; ++i) x.At(0, i) = node.feats[i];
  for (size_t c = 0; c < node.children.size() && c < config_.max_children;
       ++c) {
    const Matrix& child_out = node_outputs[node.children[c]];
    for (size_t i = 0; i < d; ++i) {
      x.At(0, feat_dim + c * d + i) = child_out.At(0, i);
    }
  }
  return x;
}

void QppNet::ForwardPlan(const EncodedPlan& plan,
                         std::vector<Matrix>* node_outputs) const {
  node_outputs->assign(plan.nodes.size(), Matrix());
  // Children precede use: walk indices in reverse pre-order so leaves are
  // computed before parents (children always have larger indices).
  for (size_t ii = plan.nodes.size(); ii > 0; --ii) {
    size_t i = ii - 1;
    Matrix x = UnitInput(plan, i, *node_outputs);
    (*node_outputs)[i] =
        units_[static_cast<size_t>(plan.nodes[i].op)]->Predict(x);
  }
}

void QppNet::WaveSchedule::Build(const std::vector<const EncodedPlan*>& plans) {
  constexpr size_t kOps = kNumOpTypes;
  node_base.resize(plans.size());
  total_nodes = 0;
  size_t max_wave = 0;
  for (size_t p = 0; p < plans.size(); ++p) {
    node_base[p] = total_nodes;
    total_nodes += plans[p]->nodes.size();
    for (const EncodedNode& node : plans[p]->nodes) {
      max_wave = std::max(max_wave, node.wave);
    }
  }
  // Counting sort on the (wave, op) key: count, turn counts into group
  // start offsets, then place nodes in (plan, node) order.
  const size_t keys = (max_wave + 1) * kOps;
  cursor.assign(keys, 0);
  for (const EncodedPlan* plan : plans) {
    for (const EncodedNode& node : plan->nodes) {
      ++cursor[node.wave * kOps + static_cast<size_t>(node.op)];
    }
  }
  groups.clear();
  size_t offset = 0;
  for (size_t key = 0; key < keys; ++key) {
    const size_t count = cursor[key];
    if (count == 0) continue;
    groups.push_back({static_cast<OpType>(key % kOps), key / kOps, offset,
                      offset + count});
    cursor[key] = offset;
    offset += count;
  }
  nodes.resize(total_nodes);
  for (size_t p = 0; p < plans.size(); ++p) {
    const auto& plan_nodes = plans[p]->nodes;
    for (size_t i = 0; i < plan_nodes.size(); ++i) {
      const size_t key =
          plan_nodes[i].wave * kOps + static_cast<size_t>(plan_nodes[i].op);
      nodes[cursor[key]++] = {p, i};
    }
  }
}

void QppNet::BuildUnitInputs(const std::vector<const EncodedPlan*>& plans,
                             const WaveSchedule& schedule, size_t g,
                             const Matrix& outputs, Matrix* x) const {
  const WaveSchedule::Group& group = schedule.groups[g];
  const size_t d = config_.data_vector_dim;
  const size_t feat_dim = featurizer_->dim(group.op);
  // ResetShape (zeroing) keeps absent-children slots at exactly 0.0.
  x->ResetShape(group.end - group.begin, feat_dim + config_.max_children * d);
  for (size_t r = 0; r < x->rows(); ++r) {
    const WaveSchedule::NodeRef ref = schedule.nodes[group.begin + r];
    const EncodedNode& node = plans[ref.plan]->nodes[ref.node];
    double* row = x->RowPtr(r);
    std::copy(node.feats.begin(), node.feats.end(), row);
    const size_t base = schedule.node_base[ref.plan];
    for (size_t c = 0; c < node.children.size() && c < config_.max_children;
         ++c) {
      const double* child = outputs.RowPtr(base + node.children[c]);
      std::copy(child, child + d, row + feat_dim + c * d);
    }
  }
}

/// Per-batch scratch of RunBatch, reused across batches so steady-state
/// training does not allocate.
struct QppNet::TrainWorkspace {
  WaveSchedule schedule;
  std::vector<Mlp::Tape> tapes;  ///< one per schedule group
  Matrix x;                      ///< unit-input scratch
  Matrix grad;                   ///< group output-gradient scratch
  Matrix outputs;                ///< per flat node: unit output row
  Matrix node_grads;             ///< per flat node: parent contributions
  std::vector<double> seeds;     ///< per flat node: 2 * err * inv
  std::vector<Mlp::TapeRow> taped;  ///< per flat node: its tape row
  std::array<std::vector<Mlp::TapeRow>, kNumOpTypes> rows;
  std::array<std::vector<size_t>, kNumOpTypes> chunk_ends;
  std::array<std::vector<Matrix*>, kNumOpTypes> grads;
  std::vector<const double*> row_ptrs;
};

void QppNet::RunBatch(const std::vector<const EncodedPlan*>& plans,
                      size_t chunk_size, double inv_node_count, bool reduce,
                      TrainWorkspace* ws, std::vector<double>* chunk_losses) {
  const size_t d = config_.data_vector_dim;
  WaveSchedule& schedule = ws->schedule;
  schedule.Build(plans);
  const size_t num_groups = schedule.groups.size();
  if (ws->tapes.size() < num_groups) ws->tapes.resize(num_groups);
  const auto flat = [&](const WaveSchedule::NodeRef& ref) {
    return schedule.node_base[ref.plan] + ref.node;
  };

  // Forward: one taped unit forward per (wave, op) group. Rows are
  // independent, so each node's output equals its 1-row forward.
  ws->outputs.ResetShapeUninitialized(schedule.total_nodes, d);
  ws->taped.resize(schedule.total_nodes);
  for (size_t g = 0; g < num_groups; ++g) {
    const WaveSchedule::Group& group = schedule.groups[g];
    BuildUnitInputs(plans, schedule, g, ws->outputs, &ws->x);
    const Matrix& y = units_[static_cast<size_t>(group.op)]->Forward(
        ws->x, &ws->tapes[g]);
    for (size_t r = 0; r < y.rows(); ++r) {
      const size_t f = flat(schedule.nodes[group.begin + r]);
      const double* src = y.RowPtr(r);
      std::copy(src, src + d, ws->outputs.RowPtr(f));
      ws->taped[f] = {&ws->tapes[g], r};
    }
  }

  // Loss and per-node seeds, summed in (chunk, plan, pre-order node) order.
  const size_t num_chunks = (plans.size() + chunk_size - 1) / chunk_size;
  chunk_losses->assign(num_chunks, 0.0);
  ws->seeds.resize(schedule.total_nodes);
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t ce = std::min((c + 1) * chunk_size, plans.size());
    double loss = 0.0;
    for (size_t p = c * chunk_size; p < ce; ++p) {
      const auto& nodes = plans[p]->nodes;
      double plan_loss = 0.0;
      for (size_t i = 0; i < nodes.size(); ++i) {
        const size_t f = schedule.node_base[p] + i;
        const double err = ws->outputs.At(f, 0) - nodes[i].label_scaled;
        plan_loss += err * err;
        ws->seeds[f] = 2.0 * err * inv_node_count;
      }
      loss += plan_loss;
    }
    (*chunk_losses)[c] = loss;
  }

  // Backward, top-down: a node's parent sits in a later wave, so its
  // contribution is in node_grads before the node's own group runs. Each
  // output gradient is built as 0 + parent contribution, then + seed.
  ws->node_grads.ResetShape(schedule.total_nodes, d);
  for (size_t g = num_groups; g > 0; --g) {
    const WaveSchedule::Group& group = schedule.groups[g - 1];
    const Mlp& unit = *units_[static_cast<size_t>(group.op)];
    ws->grad.ResetShapeUninitialized(group.end - group.begin, d);
    for (size_t r = 0; r < ws->grad.rows(); ++r) {
      const size_t f = flat(schedule.nodes[group.begin + r]);
      double* dst = ws->grad.RowPtr(r);
      const double* src = ws->node_grads.RowPtr(f);
      std::copy(src, src + d, dst);
      dst[0] += ws->seeds[f];
    }
    // Leaves (wave 0) pass nothing down; other nodes need only the child
    // slots of their input gradient.
    const size_t feat_dim = featurizer_->dim(group.op);
    const Matrix& gx = unit.BackwardDeltas(
        ws->grad, &ws->tapes[g - 1],
        group.wave == 0 ? unit.in_dim() : feat_dim);
    if (group.wave == 0) continue;
    for (size_t r = 0; r < gx.rows(); ++r) {
      const WaveSchedule::NodeRef ref = schedule.nodes[group.begin + r];
      const EncodedNode& node = plans[ref.plan]->nodes[ref.node];
      const double* src = gx.RowPtr(r);
      for (size_t c = 0; c < node.children.size() && c < config_.max_children;
           ++c) {
        double* dst = ws->node_grads.RowPtr(schedule.node_base[ref.plan] +
                                            node.children[c]);
        for (size_t k = 0; k < d; ++k) dst[k] += src[c * d + k];
      }
    }
  }
  if (!reduce) return;

  // Reduction: each unit's rows in (chunk, plan, pre-order node) order,
  // one zero-seeded sum per chunk added onto the bound gradients in chunk
  // order.
  for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
    ws->rows[oi].clear();
    ws->chunk_ends[oi].clear();
    if (ws->grads[oi].empty()) ws->grads[oi] = units_[oi]->Grads();
  }
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t ce = std::min((c + 1) * chunk_size, plans.size());
    for (size_t p = c * chunk_size; p < ce; ++p) {
      const auto& nodes = plans[p]->nodes;
      for (size_t i = 0; i < nodes.size(); ++i) {
        ws->rows[static_cast<size_t>(nodes[i].op)].push_back(
            ws->taped[schedule.node_base[p] + i]);
      }
    }
    for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
      ws->chunk_ends[oi].push_back(ws->rows[oi].size());
    }
  }
  for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
    if (ws->rows[oi].empty()) continue;
    units_[oi]->AccumulateParamGrads(ws->rows[oi], ws->chunk_ends[oi],
                                     ws->grads[oi].data(), &ws->row_ptrs);
  }
}

Status QppNet::Train(const std::vector<PlanSample>& train,
                     const TrainConfig& config, TrainStats* stats) {
  if (train.empty()) return Status::InvalidArgument("empty training set");
  WallTimer timer;
  FitScalers(train);
  static_cast<AdamOptimizer*>(optimizer_.get())->set_lr(config.learning_rate);
  ThreadPool* pool = thread_pool();

  // Pre-encode all plans once (per-plan tasks; gathered in sample order).
  std::vector<EncodedPlan> encoded =
      ParallelMap<EncodedPlan>(pool, train.size(), [&](size_t i) {
        return EncodePlan(*train[i].plan, train[i].env_id,
                          /*scale_features=*/true);
      });

  Rng train_rng(config.seed);
  std::vector<size_t> order(encoded.size());
  // Chunk autotuning (chunk_size == 0): per-chunk overhead is the gradient
  // elements zeroed and merged for the unit types a chunk touches; per-plan
  // compute is proportional to plan nodes x unit parameter elements. Both
  // are exact element counts over the encoded training set — deterministic,
  // so the chunk width, and with it the gradient reduction order, stays
  // run-independent.
  double merge_elems = 0.0;
  double plan_elems = 0.0;
  {
    std::array<double, kNumOpTypes> unit_elems{};
    for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
      for (const Matrix* g : units_[oi]->Grads()) unit_elems[oi] += g->size();
    }
    for (const auto& plan : encoded) {
      std::array<bool, kNumOpTypes> seen{};
      for (const auto& node : plan.nodes) {
        size_t oi = static_cast<size_t>(node.op);
        plan_elems += kTrainFlopsPerParam * unit_elems[oi];
        seen[oi] = true;
      }
      for (size_t oi = 0; oi < kNumOpTypes; ++oi) {
        if (seen[oi]) merge_elems += 2.0 * unit_elems[oi];
      }
    }
    merge_elems /= static_cast<double>(encoded.size());
    plan_elems /= static_cast<double>(encoded.size());
  }
  const size_t chunk_size =
      ResolveTrainChunkSize(config, merge_elems, plan_elems);
  TrainWorkspace ws;
  std::vector<const EncodedPlan*> batch;
  std::vector<double> chunk_losses;

  for (int epoch = 0; epoch < config.epochs; ++epoch) {
    // Per-epoch order from an epoch-keyed Split stream: epoch e's shuffle
    // depends only on (seed, e), not on thread count or prior epochs.
    Rng epoch_rng = train_rng.Split(static_cast<uint64_t>(epoch));
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    epoch_rng.Shuffle(&order);

    double epoch_loss = 0.0;
    size_t epoch_nodes = 0;
    for (size_t start = 0; start < order.size(); start += config.batch_size) {
      size_t end = std::min(start + config.batch_size, order.size());
      optimizer_->ZeroGrad();
      batch.clear();
      size_t batch_nodes = 0;
      for (size_t i = start; i < end; ++i) {
        batch.push_back(&encoded[order[i]]);
        batch_nodes += encoded[order[i]].nodes.size();
      }
      double inv = batch_nodes > 0 ? 1.0 / static_cast<double>(batch_nodes)
                                   : 1.0;
      RunBatch(batch, chunk_size, inv, /*reduce=*/true, &ws, &chunk_losses);
      for (double loss : chunk_losses) epoch_loss += loss;
      epoch_nodes += batch_nodes;
      optimizer_->Step();
    }
    if (stats != nullptr) {
      stats->loss_curve.push_back(
          epoch_nodes > 0 ? epoch_loss / static_cast<double>(epoch_nodes)
                          : 0.0);
      if (config.eval_every > 0 && !config.eval_set.empty() &&
          (epoch + 1) % config.eval_every == 0) {
        stats->eval_curve.emplace_back(
            epoch + 1, EvalMeanQError(*this, config.eval_set, pool));
      }
    }
  }
  if (stats != nullptr) stats->train_seconds = timer.Seconds();
  return Status::OK();
}

std::vector<Matrix*> QppNet::Params() {
  std::vector<Matrix*> out;
  for (auto& unit : units_) {
    for (Matrix* p : unit->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> QppNet::Grads() {
  std::vector<Matrix*> out;
  for (auto& unit : units_) {
    for (Matrix* g : unit->Grads()) out.push_back(g);
  }
  return out;
}

Result<double> QppNet::TrainingLoss(const std::vector<PlanSample>& samples,
                                    bool accumulate_gradients) {
  if (samples.empty()) return Status::InvalidArgument("empty sample set");
  FitScalers(samples);
  std::vector<EncodedPlan> encoded;
  encoded.reserve(samples.size());
  size_t total_nodes = 0;
  for (const auto& s : samples) {
    encoded.push_back(EncodePlan(*s.plan, s.env_id, /*scale_features=*/true));
    total_nodes += encoded.back().nodes.size();
  }
  if (total_nodes == 0) return Status::InvalidArgument("no plan nodes");
  double inv = 1.0 / static_cast<double>(total_nodes);
  std::vector<const EncodedPlan*> plans;
  plans.reserve(encoded.size());
  for (const auto& plan : encoded) plans.push_back(&plan);
  // The whole sample set is one batch and one chunk.
  TrainWorkspace ws;
  std::vector<double> chunk_losses;
  RunBatch(plans, plans.size(), inv, accumulate_gradients, &ws, &chunk_losses);
  return chunk_losses[0] * inv;
}

Result<double> QppNet::PredictMs(const PlanNode& plan, int env_id) const {
  if (!scalers_fitted_) {
    return Status::FailedPrecondition("QPPNet is untrained");
  }
  EncodedPlan encoded = EncodePlan(plan, env_id, /*scale_features=*/true);
  std::vector<Matrix> outs;
  ForwardPlan(encoded, &outs);
  return label_scaler_.InverseTransformOne(
      label_scaler_.ClampTransformed(outs[0].At(0, 0)));
}

void QppNet::PredictShard(const std::vector<PlanSample>& requests,
                          size_t begin, size_t end,
                          std::vector<double>* out) const {
  const size_t d = config_.data_vector_dim;

  // Featurize each distinct plan of this shard once through the lean
  // serving encode.
  std::vector<EncodedPlan> encoded;
  encoded.reserve(end - begin);
  for (size_t s = begin; s < end; ++s) {
    encoded.push_back(EncodePlan(*requests[s].plan, requests[s].env_id,
                                 /*scale_features=*/true,
                                 /*with_labels=*/false));
  }
  std::vector<const EncodedPlan*> plans;
  plans.reserve(encoded.size());
  for (const auto& plan : encoded) plans.push_back(&plan);
  WaveSchedule schedule;
  schedule.Build(plans);

  // One matrix-batched unit forward per (wave, operator type) group: every
  // plan in the shard contributes its wave-w nodes of that type as rows.
  // Unit forwards compute each row independently, so which plans share a
  // shard (and hence a matrix) never changes any output row.
  Matrix outputs(schedule.total_nodes, d);
  Mlp::Scratch scratch;
  Matrix x;
  for (size_t g = 0; g < schedule.groups.size(); ++g) {
    const WaveSchedule::Group& group = schedule.groups[g];
    BuildUnitInputs(plans, schedule, g, outputs, &x);
    const Matrix& y =
        units_[static_cast<size_t>(group.op)]->Predict(x, &scratch);
    for (size_t r = 0; r < y.rows(); ++r) {
      const WaveSchedule::NodeRef ref = schedule.nodes[group.begin + r];
      const double* src = y.RowPtr(r);
      std::copy(src, src + d,
                outputs.RowPtr(schedule.node_base[ref.plan] + ref.node));
    }
  }

  for (size_t p = 0; p < encoded.size(); ++p) {
    (*out)[begin + p] = label_scaler_.InverseTransformOne(
        label_scaler_.ClampTransformed(
            outputs.At(schedule.node_base[p], 0)));
  }
}

Result<std::vector<double>> QppNet::PredictBatchMs(
    const std::vector<PlanSample>& batch, ThreadPool* pool) const {
  if (!scalers_fitted_) {
    return Status::FailedPrecondition("QPPNet is untrained");
  }
  if (batch.empty()) return std::vector<double>{};

  // Deduplicate repeated (plan, environment) requests, then shard the
  // distinct requests into one contiguous block per worker; every shard
  // runs its own wave-batched sweep with its own scratch buffers.
  BatchRequestDedup dedup(batch);
  const std::vector<PlanSample>& requests = dedup.unique;
  for (const auto& s : requests) {
    if (s.plan == nullptr) {
      return Status::InvalidArgument("null plan in prediction batch");
    }
  }
  std::vector<double> result(requests.size());
  std::vector<std::pair<size_t, size_t>> shards = PartitionBlocks(
      requests.size(), pool == nullptr ? 1 : pool->num_workers());
  ParallelFor(pool, shards.size(), [&](size_t b) {
    PredictShard(requests, shards[b].first, shards[b].second, &result);
  });
  return dedup.Expand(result);
}

Result<Mlp> QppNet::OperatorView(
    OpType op, const std::vector<PlanSample>& context) const {
  if (!scalers_fitted_) {
    return Status::FailedPrecondition("QPPNet is untrained");
  }
  size_t oi = static_cast<size_t>(op);
  size_t feat_dim = featurizer_->dim(op);
  size_t d = config_.data_vector_dim;
  size_t child_dims = config_.max_children * d;

  // Average child-output context for this operator type over the context set.
  std::vector<double> child_ctx(child_dims, 0.0);
  size_t ctx_count = 0;
  for (const auto& s : context) {
    EncodedPlan encoded = EncodePlan(*s.plan, s.env_id, true);
    std::vector<Matrix> outs;
    ForwardPlan(encoded, &outs);
    for (size_t i = 0; i < encoded.nodes.size(); ++i) {
      if (encoded.nodes[i].op != op) continue;
      Matrix x = UnitInput(encoded, i, outs);
      for (size_t k = 0; k < child_dims; ++k) {
        child_ctx[k] += x.At(0, feat_dim + k);
      }
      ++ctx_count;
    }
  }
  if (ctx_count > 0) {
    for (double& v : child_ctx) v /= static_cast<double>(ctx_count);
  }

  // View = Embed(raw feat -> [scaled feat, child_ctx]) ∘ unit layers ∘
  // SelectChannel0. Folding the standardisation into the embed layer means
  // the view consumes *raw* featurizer output, so reduction code needs no
  // access to the model's internal scalers.
  Mlp view;
  auto embed = Mlp::MakeZeroLinear(feat_dim, feat_dim + child_dims);
  const StandardScaler& sc = feature_scalers_[oi];
  for (size_t i = 0; i < feat_dim; ++i) {
    double std = sc.fitted() ? sc.stddev()[i] : 1.0;
    double mean = sc.fitted() ? sc.mean()[i] : 0.0;
    embed->weights().At(i, i) = 1.0 / std;
    embed->bias().At(0, i) = -mean / std;
  }
  for (size_t k = 0; k < child_dims; ++k) {
    embed->bias().At(0, feat_dim + k) = child_ctx[k];
  }
  view.AppendLayer(std::move(embed));
  for (const auto& layer : units_[oi]->layers()) {
    view.AppendLayer(Mlp::CloneLayer(*layer));
  }
  auto select = Mlp::MakeZeroLinear(d, 1);
  select->weights().At(0, 0) = 1.0;
  view.AppendLayer(std::move(select));
  return view;
}

Status QppNet::SaveState(ByteWriter* w) const {
  w->PutString(kQppNetStateMarker);
  w->PutU64(config_.hidden);
  w->PutU64(config_.data_vector_dim);
  w->PutU64(config_.max_children);
  w->PutU64(rng_.state());
  w->PutBool(scalers_fitted_);
  for (const StandardScaler& scaler : feature_scalers_) scaler.SaveBinary(w);
  label_scaler_.SaveBinary(w);
  for (const auto& unit : units_) unit->SaveBinary(w);
  optimizer_->SaveState(w);
  return Status::OK();
}

Status QppNet::LoadState(ByteReader* r) {
  std::string marker;
  QCFE_RETURN_IF_ERROR(r->ReadString(&marker));
  if (marker != kQppNetStateMarker) {
    return Status::FailedPrecondition("model state is not " +
                                      std::string(kQppNetStateMarker) +
                                      " (found \"" + marker + "\")");
  }
  uint64_t hidden = 0, dvec = 0, max_children = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU64(&hidden));
  QCFE_RETURN_IF_ERROR(r->ReadU64(&dvec));
  QCFE_RETURN_IF_ERROR(r->ReadU64(&max_children));
  if (hidden != config_.hidden || dvec != config_.data_vector_dim ||
      max_children != config_.max_children) {
    return Status::FailedPrecondition(
        "saved qppnet config (hidden=" + std::to_string(hidden) +
        ", data_vector_dim=" + std::to_string(dvec) +
        ", max_children=" + std::to_string(max_children) +
        ") does not match this model (hidden=" +
        std::to_string(config_.hidden) +
        ", data_vector_dim=" + std::to_string(config_.data_vector_dim) +
        ", max_children=" + std::to_string(config_.max_children) + ")");
  }
  uint64_t rng_state = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU64(&rng_state));
  rng_.set_state(rng_state);
  QCFE_RETURN_IF_ERROR(r->ReadBool(&scalers_fitted_));
  for (size_t i = 0; i < feature_scalers_.size(); ++i) {
    QCFE_RETURN_IF_ERROR(feature_scalers_[i].LoadBinary(r).WithContext(
        "feature scaler for op " + std::to_string(i)));
  }
  QCFE_RETURN_IF_ERROR(label_scaler_.LoadBinary(r).WithContext("label scaler"));
  for (size_t i = 0; i < units_.size(); ++i) {
    QCFE_RETURN_IF_ERROR(units_[i]->LoadBinary(r).WithContext(
        "neural unit for op " + std::to_string(i)));
  }
  QCFE_RETURN_IF_ERROR(optimizer_->LoadState(r).WithContext("optimizer"));
  return Status::OK();
}

namespace {
const EstimatorRegistration kQppNetRegistration{
    {"qppnet", "QPPNet", "qpp", /*learned=*/true,
     /*uniform_feature_width=*/false},
    [](const EstimatorContext& context) -> Result<std::unique_ptr<CostModel>> {
      if (context.featurizer == nullptr) {
        return Status::InvalidArgument("qppnet requires a featurizer");
      }
      return std::unique_ptr<CostModel>(std::make_unique<QppNet>(
          context.featurizer, QppNetConfig{}, context.seed));
    }};
}  // namespace

}  // namespace qcfe
