/// Parity tests for the thread-pool parallelism layer: every parallel path
/// (labeled-query collection, snapshot fitting, feature reduction, pipeline
/// Fit, batched serving) must produce bit-identical results at any thread
/// count. "Bit-identical" is meant literally — EXPECT_EQ on doubles — since
/// all parallel loops partition work statically, reduce in index order and
/// draw per-task Rng::Split streams.
///
/// Wall-clock audit: nothing in this suite depends on real time. The
/// `collection_ms` values compared below are SIMULATED label cost — the sum
/// of the cost simulator's per-query latencies, a deterministic function of
/// (templates, seed, environment) — not measured wall time, which is why
/// exact equality across thread counts is a valid assertion. Timing-derived
/// quantities (TrainStats::train_seconds and friends) are deliberately never
/// asserted on here; elapsed-time behaviour is tested exactly via the
/// injected Clock in util_test (WallTimerFollowsInjectedClock).

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/feature_reduction.h"
#include "core/pipeline.h"
#include "core/qcfe.h"
#include "harness/context.h"
#include "harness/evaluate.h"
#include "models/registry.h"
#include "sql/data_abstract.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qcfe {
namespace {

class ParallelTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
    opt.corpus_size = 160;
    opt.num_envs = 3;
    auto ctx = BenchmarkContext::Create(opt);
    ASSERT_TRUE(ctx.ok()) << ctx.status().ToString();
    ctx_ = ctx.value().release();
    ctx_->Split(160, &train_, &test_);
    pool_ = new ThreadPool(4);
  }

  static void TearDownTestSuite() {
    delete pool_;
    pool_ = nullptr;
    delete ctx_;
    ctx_ = nullptr;
  }

  /// A small estimator trained through the registry (serial), used by the
  /// reduction and serving parity tests.
  static std::unique_ptr<CostModel> TrainedModel(const std::string& name,
                                                 uint64_t seed) {
    BaseFeaturizer* featurizer = new BaseFeaturizer(ctx_->db->catalog());
    featurizers_.emplace_back(featurizer);
    auto model = EstimatorRegistry::Global().Create(
        name, {ctx_->db->catalog(), featurizer, seed});
    EXPECT_TRUE(model.ok());
    TrainConfig cfg;
    cfg.epochs = 4;
    EXPECT_TRUE((*model)->Train(train_, cfg, nullptr).ok());
    return std::move(model.value());
  }

  static BenchmarkContext* ctx_;
  static std::vector<PlanSample> train_, test_;
  static ThreadPool* pool_;
  static std::vector<std::unique_ptr<BaseFeaturizer>> featurizers_;
};

BenchmarkContext* ParallelTest::ctx_ = nullptr;
std::vector<PlanSample> ParallelTest::train_;
std::vector<PlanSample> ParallelTest::test_;
ThreadPool* ParallelTest::pool_ = nullptr;
std::vector<std::unique_ptr<BaseFeaturizer>> ParallelTest::featurizers_;

// ------------------------------------------------------------- collection

TEST_F(ParallelTest, CollectIsBitIdenticalAcrossThreadCounts) {
  QueryCollector collector(ctx_->db.get(), &ctx_->envs);
  auto serial = collector.Collect(ctx_->templates, 60, 991, nullptr);
  auto parallel = collector.Collect(ctx_->templates, 60, 991, pool_);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->queries.size(), parallel->queries.size());
  EXPECT_EQ(serial->collection_ms, parallel->collection_ms);
  for (size_t i = 0; i < serial->queries.size(); ++i) {
    const LabeledQuery& a = serial->queries[i];
    const LabeledQuery& b = parallel->queries[i];
    EXPECT_EQ(a.template_index, b.template_index);
    EXPECT_EQ(a.env_id, b.env_id);
    EXPECT_EQ(a.total_ms, b.total_ms);
    EXPECT_EQ(a.plan->Fingerprint(), b.plan->Fingerprint());
  }
}

TEST_F(ParallelTest, RunSpecsGridMatchesPerEnvironmentRuns) {
  DataAbstract abstract(ctx_->db->catalog());
  Rng rng(17);
  std::vector<QuerySpec> specs;
  for (const auto& t : ctx_->templates) {
    auto spec = t.Instantiate(abstract, &rng);
    ASSERT_TRUE(spec.ok());
    specs.push_back(*spec);
  }
  QueryCollector collector(ctx_->db.get(), &ctx_->envs);
  const uint64_t seed = 733;
  auto grid_serial = collector.RunSpecsGrid(specs, ctx_->envs, seed, nullptr);
  auto grid_parallel = collector.RunSpecsGrid(specs, ctx_->envs, seed, pool_);
  ASSERT_TRUE(grid_serial.ok());
  ASSERT_TRUE(grid_parallel.ok());
  ASSERT_EQ(grid_serial->size(), ctx_->envs.size());
  for (size_t e = 0; e < ctx_->envs.size(); ++e) {
    const Environment& env = ctx_->envs[e];
    // Each grid slice equals the historical single-environment entry point
    // under the derived seed.
    uint64_t env_seed =
        seed ^ (0x9E37ULL * (static_cast<uint64_t>(env.id) + 1));
    auto single = collector.RunSpecsUnderEnv(specs, env, env_seed, nullptr);
    ASSERT_TRUE(single.ok());
    for (const auto* set : {&(*grid_serial)[e], &(*grid_parallel)[e]}) {
      ASSERT_EQ(set->queries.size(), single->queries.size());
      EXPECT_EQ(set->collection_ms, single->collection_ms);
      for (size_t i = 0; i < set->queries.size(); ++i) {
        EXPECT_EQ(set->queries[i].total_ms, single->queries[i].total_ms);
      }
    }
  }
}

// -------------------------------------------------------------- snapshots

TEST_F(ParallelTest, SnapshotsAreBitIdenticalAcrossThreadCounts) {
  SnapshotBuilder builder(ctx_->db.get(), &ctx_->templates);
  SnapshotStore serial_store, parallel_store;
  double serial_ms = 0.0, parallel_ms = 0.0;
  size_t nq = 0;
  ASSERT_TRUE(builder
                  .ComputeSnapshots(ctx_->envs, /*from_templates=*/true,
                                    /*scale=*/1, /*seed=*/5, &serial_store,
                                    &serial_ms, &nq, nullptr,
                                    SnapshotGranularity::kOperator, nullptr)
                  .ok());
  ASSERT_TRUE(builder
                  .ComputeSnapshots(ctx_->envs, /*from_templates=*/true,
                                    /*scale=*/1, /*seed=*/5, &parallel_store,
                                    &parallel_ms, &nq, nullptr,
                                    SnapshotGranularity::kOperator, pool_)
                  .ok());
  EXPECT_EQ(serial_ms, parallel_ms);
  ASSERT_EQ(serial_store.size(), parallel_store.size());
  for (const auto& env : ctx_->envs) {
    const FeatureSnapshot* a = serial_store.Get(env.id);
    const FeatureSnapshot* b = parallel_store.Get(env.id);
    ASSERT_NE(a, nullptr);
    ASSERT_NE(b, nullptr);
    for (OpType op : AllOpTypes()) {
      const OperatorSnapshot& sa = a->Get(op);
      const OperatorSnapshot& sb = b->Get(op);
      EXPECT_EQ(sa.num_observations, sb.num_observations);
      for (size_t c = 0; c < kSnapshotWidth; ++c) {
        EXPECT_EQ(sa.coeffs[c], sb.coeffs[c]);
      }
    }
  }
}

// -------------------------------------------------------------- reduction

TEST_F(ParallelTest, DiffPropReductionIsBitIdenticalAcrossThreadCounts) {
  std::unique_ptr<CostModel> model = TrainedModel("qppnet", 21);
  ReductionConfig cfg;
  cfg.algorithm = ReductionAlgorithm::kDiffProp;
  cfg.num_references = 24;
  auto serial = ReduceFeatures(*model, train_, cfg, nullptr);
  auto parallel = ReduceFeatures(*model, train_, cfg, pool_);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  ASSERT_EQ(serial->per_op.size(), parallel->per_op.size());
  for (const auto& [op, a] : serial->per_op) {
    const OpReductionResult& b = parallel->per_op.at(op);
    EXPECT_EQ(a.kept, b.kept);
    ASSERT_EQ(a.scores.size(), b.scores.size());
    for (size_t k = 0; k < a.scores.size(); ++k) {
      EXPECT_EQ(a.scores[k], b.scores[k]);
    }
  }
}

TEST_F(ParallelTest, GreedyReductionIsBitIdenticalAcrossThreadCounts) {
  std::unique_ptr<CostModel> model = TrainedModel("qppnet", 23);
  ReductionConfig cfg;
  cfg.algorithm = ReductionAlgorithm::kGreedy;
  cfg.greedy_max_rows = 60;
  cfg.max_rows_per_op = 120;
  auto serial = ReduceFeatures(*model, train_, cfg, nullptr);
  auto parallel = ReduceFeatures(*model, train_, cfg, pool_);
  ASSERT_TRUE(serial.ok());
  ASSERT_TRUE(parallel.ok());
  for (const auto& [op, a] : serial->per_op) {
    EXPECT_EQ(a.kept, parallel->per_op.at(op).kept);
  }
}

// --------------------------------------------------------------- training

TEST_F(ParallelTest, TrainingIsBitIdenticalAcrossThreadCounts) {
  // Chunk-parallel gradient training must produce the same model at every
  // worker count: the chunk partition is fixed by (batch_size, chunk_size)
  // and per-chunk sinks merge in chunk index order, so 1, 2 and 4 threads
  // follow the same arithmetic. Loss curves (satellite of the per-epoch
  // Split-keyed shuffles) and predictions are compared bitwise.
  ThreadPool pool2(2);
  for (const char* name : {"qppnet", "mscn"}) {
    ThreadPool* pools[] = {nullptr, &pool2, pool_};
    std::vector<std::unique_ptr<CostModel>> models;
    std::vector<TrainStats> stats(3);
    for (size_t t = 0; t < 3; ++t) {
      BaseFeaturizer* featurizer = new BaseFeaturizer(ctx_->db->catalog());
      featurizers_.emplace_back(featurizer);
      auto model = EstimatorRegistry::Global().Create(
          name, {ctx_->db->catalog(), featurizer, 77});
      ASSERT_TRUE(model.ok()) << name;
      (*model)->set_thread_pool(pools[t]);
      TrainConfig cfg;
      cfg.epochs = 5;
      ASSERT_TRUE((*model)->Train(train_, cfg, &stats[t]).ok()) << name;
      models.push_back(std::move(model.value()));
    }
    for (size_t t = 1; t < 3; ++t) {
      ASSERT_EQ(stats[0].loss_curve.size(), stats[t].loss_curve.size());
      for (size_t e = 0; e < stats[0].loss_curve.size(); ++e) {
        EXPECT_EQ(stats[0].loss_curve[e], stats[t].loss_curve[e])
            << name << " epoch " << e << " at thread config " << t;
      }
    }
    auto serial = models[0]->PredictBatchMs(test_, nullptr);
    ASSERT_TRUE(serial.ok()) << name;
    for (size_t t = 1; t < 3; ++t) {
      auto parallel = models[t]->PredictBatchMs(test_, nullptr);
      ASSERT_TRUE(parallel.ok()) << name;
      ASSERT_EQ(serial->size(), parallel->size());
      for (size_t i = 0; i < serial->size(); ++i) {
        EXPECT_EQ((*serial)[i], (*parallel)[i])
            << name << " sample " << i << " at thread config " << t;
      }
    }
  }
}

TEST_F(ParallelTest, WarmStartRetrainingKeepsThreadCountParity) {
  // Transfer-style retraining (a second Train on the same model) must stay
  // bit-identical too: epoch orders come from Split streams keyed by epoch
  // index within each Train call, not from a generator whose state depends
  // on how much work ran before.
  ThreadPool pool2(2);
  ThreadPool* pools[] = {nullptr, &pool2, pool_};
  std::vector<std::unique_ptr<CostModel>> models;
  for (size_t t = 0; t < 3; ++t) {
    BaseFeaturizer* featurizer = new BaseFeaturizer(ctx_->db->catalog());
    featurizers_.emplace_back(featurizer);
    auto model = EstimatorRegistry::Global().Create(
        "qppnet", {ctx_->db->catalog(), featurizer, 79});
    ASSERT_TRUE(model.ok());
    (*model)->set_thread_pool(pools[t]);
    TrainConfig cfg;
    cfg.epochs = 3;
    ASSERT_TRUE((*model)->Train(train_, cfg, nullptr).ok());
    cfg.seed = 5;
    cfg.epochs = 2;
    ASSERT_TRUE((*model)->Train(train_, cfg, nullptr).ok());
    models.push_back(std::move(model.value()));
  }
  auto serial = models[0]->PredictBatchMs(test_, nullptr);
  ASSERT_TRUE(serial.ok());
  for (size_t t = 1; t < 3; ++t) {
    auto parallel = models[t]->PredictBatchMs(test_, nullptr);
    ASSERT_TRUE(parallel.ok());
    for (size_t i = 0; i < serial->size(); ++i) {
      EXPECT_EQ((*serial)[i], (*parallel)[i]) << " sample " << i;
    }
  }
}

// ---------------------------------------------------------------- serving

TEST_F(ParallelTest, ShardedBatchedServingMatchesScalarLoop) {
  for (const char* name : {"qppnet", "mscn"}) {
    std::unique_ptr<CostModel> model = TrainedModel(name, 31);
    std::vector<PlanSample> batch;
    for (size_t i = 0; i < 3 * test_.size(); ++i) {
      batch.push_back(test_[i % test_.size()]);  // repeats exercise dedup
    }
    auto serial = model->PredictBatchMs(batch, nullptr);
    auto parallel = model->PredictBatchMs(batch, pool_);
    ASSERT_TRUE(serial.ok()) << name;
    ASSERT_TRUE(parallel.ok()) << name;
    ASSERT_EQ(serial->size(), batch.size());
    for (size_t i = 0; i < batch.size(); ++i) {
      EXPECT_EQ((*serial)[i], (*parallel)[i]) << name << " sample " << i;
      auto scalar = model->PredictMs(*batch[i].plan, batch[i].env_id);
      ASSERT_TRUE(scalar.ok());
      EXPECT_EQ((*serial)[i], *scalar) << name << " sample " << i;
    }
  }
}

// --------------------------------------------------------------- pipeline

TEST_F(ParallelTest, PipelineFitIsBitIdenticalAcrossThreadCounts) {
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.train.epochs = 4;
  cfg.pre_reduction_epochs = 3;
  cfg.snapshot_scale = 1;

  PipelineConfig serial_cfg = cfg;
  serial_cfg.parallelism.num_threads = 1;
  auto serial = ctx_->FitPipeline(serial_cfg, train_);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();

  PipelineConfig parallel_cfg = cfg;
  parallel_cfg.parallelism.num_threads = 4;
  auto parallel = ctx_->FitPipeline(parallel_cfg, train_);
  ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

  EXPECT_EQ((*serial)->thread_pool(), nullptr);
  ASSERT_NE((*parallel)->thread_pool(), nullptr);
  EXPECT_EQ((*parallel)->thread_pool()->num_workers(), 4u);

  // Identical snapshots...
  ASSERT_EQ((*serial)->snapshot_store()->size(),
            (*parallel)->snapshot_store()->size());
  EXPECT_EQ((*serial)->snapshot_collection_ms(),
            (*parallel)->snapshot_collection_ms());
  for (const auto& env : ctx_->envs) {
    const FeatureSnapshot* a = (*serial)->snapshot_store()->Get(env.id);
    const FeatureSnapshot* b = (*parallel)->snapshot_store()->Get(env.id);
    for (OpType op : AllOpTypes()) {
      for (size_t c = 0; c < kSnapshotWidth; ++c) {
        EXPECT_EQ(a->Get(op).coeffs[c], b->Get(op).coeffs[c]);
      }
    }
  }
  // ...identical kept-feature sets...
  for (const auto& [op, r] : (*serial)->reduction().per_op) {
    EXPECT_EQ(r.kept, (*parallel)->reduction().per_op.at(op).kept);
  }
  // ...and identical predictions.
  auto pa = (*serial)->PredictBatch(test_);
  auto pb = (*parallel)->PredictBatch(test_);
  ASSERT_TRUE(pa.ok());
  ASSERT_TRUE(pb.ok());
  ASSERT_EQ(pa->size(), pb->size());
  for (size_t i = 0; i < pa->size(); ++i) EXPECT_EQ((*pa)[i], (*pb)[i]);

  // EvaluateModel with an explicit Parallelism reproduces the same metrics.
  EvalResult ea = EvaluateModel(**serial, test_);
  EvalResult eb = EvaluateModel((*parallel)->model(), test_, Parallelism{4});
  EXPECT_EQ(ea.summary.mean_qerror, eb.summary.mean_qerror);
  EXPECT_EQ(ea.summary.pearson, eb.summary.pearson);
}

}  // namespace
}  // namespace qcfe
