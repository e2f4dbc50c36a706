/// Training golden gate: trains a QPPNet and an MSCN on a small sysbench
/// fixture, then warm-start retrains each, and asserts 64-bit FNV-1a hashes
/// of every parameter, the full model state (parameters, scalers, Adam step
/// count and first/second moments, RNG position) and the loss curve against
/// values recorded from a reference trainer. A diff-prop feature reduction
/// over both trained models is hashed too (kept sets and scores), which
/// pins the serving-side forward kernels. Any change to the training
/// arithmetic — reduction order, kernel chains, loss seeding — shows up
/// here as a hash mismatch, so a trainer rewrite that claims bit identity
/// must leave these constants untouched.
///
/// Each case pins one ISA tier and one chunk width (the gradient reduction
/// order; 0 is the autotuned width) and must hash identically at 1, 2 and
/// 4 threads. Width 7 leaves an uneven tail chunk in every 32-plan batch,
/// and each epoch's last partial batch leaves another.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "core/feature_reduction.h"
#include "models/mscn.h"
#include "models/qppnet.h"
#include "nn/kernels.h"
#include "util/serialize.h"
#include "util/thread_pool.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

namespace qcfe {
namespace {

uint64_t Fnv1a(const void* data, size_t n, uint64_t h) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= 1099511628211ULL;
  }
  return h;
}

constexpr uint64_t kFnvBasis = 14695981039346656037ULL;

/// Hashes of one trained-then-retrained model.
struct TrainHashes {
  uint64_t params = 0;  ///< every parameter matrix, logical elements only
  uint64_t state = 0;   ///< SaveState bytes: params, scalers, Adam, RNG
  uint64_t loss = 0;    ///< both loss curves, in order

  bool operator==(const TrainHashes& o) const {
    return params == o.params && state == o.state && loss == o.loss;
  }
};

std::string Describe(const TrainHashes& h) {
  char buf[128];
  std::snprintf(buf, sizeof(buf),
                "{0x%016" PRIx64 "ULL, 0x%016" PRIx64 "ULL, 0x%016" PRIx64
                "ULL}",
                h.params, h.state, h.loss);
  return buf;
}

/// Sysbench at a small scale, two environments, 200 collected plans.
class TrainGoldenTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto bench = MakeBenchmark("sysbench");
    db_ = (*bench)->BuildDatabase(0.05, 211).release();
    envs_ = new std::vector<Environment>(
        EnvironmentSampler::Sample(2, HardwareProfile::H1(), 223));
    QueryCollector collector(db_, envs_);
    auto set = collector.Collect((*bench)->Templates(), 200, 227);
    ASSERT_TRUE(set.ok());
    corpus_ = new LabeledQuerySet(std::move(set.value()));
    featurizer_ = new BaseFeaturizer(db_->catalog());
  }

  /// The first 160 plans (first fit) and the last 80 (an overlapping
  /// window, like an adaptation retrain).
  static void Windows(std::vector<PlanSample>* first,
                      std::vector<PlanSample>* second) {
    const auto& qs = corpus_->queries;
    for (size_t i = 0; i < qs.size(); ++i) {
      PlanSample s{qs[i].plan.get(), qs[i].env_id, qs[i].total_ms};
      if (i < 160) first->push_back(s);
      if (i + 80 >= qs.size()) second->push_back(s);
    }
  }

  /// Trains 5 epochs on the first window, then warm-start retrains 3
  /// epochs on the second, and hashes the result.
  template <typename Model>
  static TrainHashes TrainTwiceAndHash(Model* model, size_t chunk_size) {
    std::vector<PlanSample> first, second;
    Windows(&first, &second);
    TrainConfig cfg;
    cfg.epochs = 5;
    cfg.batch_size = 32;
    cfg.seed = 233;
    cfg.chunk_size = chunk_size;
    TrainStats s1, s2;
    EXPECT_TRUE(model->Train(first, cfg, &s1).ok());
    cfg.epochs = 3;
    cfg.seed = 239;
    EXPECT_TRUE(model->Train(second, cfg, &s2).ok());

    TrainHashes h;
    h.params = kFnvBasis;
    for (Matrix* p : model->Params()) {
      for (size_t r = 0; r < p->rows(); ++r) {
        h.params = Fnv1a(p->RowPtr(r), p->cols() * sizeof(double), h.params);
      }
    }
    ByteWriter w;
    EXPECT_TRUE(model->SaveState(&w).ok());
    h.state = Fnv1a(w.bytes().data(), w.bytes().size(), kFnvBasis);
    h.loss = kFnvBasis;
    for (const TrainStats* s : {&s1, &s2}) {
      h.loss = Fnv1a(s->loss_curve.data(),
                     s->loss_curve.size() * sizeof(double), h.loss);
    }
    return h;
  }

  static TrainHashes TrainQppNetAndHash(size_t chunk_size, ThreadPool* pool) {
    QppNet model(featurizer_, QppNetConfig{}, 229);
    model.set_thread_pool(pool);
    return TrainTwiceAndHash(&model, chunk_size);
  }

  static TrainHashes TrainMscnAndHash(size_t chunk_size, ThreadPool* pool) {
    Mscn model(db_->catalog(), featurizer_, MscnConfig{}, 241);
    model.set_thread_pool(pool);
    return TrainTwiceAndHash(&model, chunk_size);
  }

  /// Folds a diff-prop reduction of `model` over the first window into
  /// `h`: every operator type's kept indices and scores, in OpType order.
  static uint64_t HashReduction(const CostModel& model, ThreadPool* pool,
                                uint64_t h) {
    std::vector<PlanSample> first, second;
    Windows(&first, &second);
    ReductionConfig rcfg;
    rcfg.algorithm = ReductionAlgorithm::kDiffProp;
    rcfg.num_references = 16;
    auto r = ReduceFeatures(model, first, rcfg, pool);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) return h;
    for (const auto& [op, res] : r->per_op) {
      const int op_id = static_cast<int>(op);
      h = Fnv1a(&op_id, sizeof(op_id), h);
      h = Fnv1a(res.kept.data(), res.kept.size() * sizeof(size_t), h);
      h = Fnv1a(res.scores.data(), res.scores.size() * sizeof(double), h);
    }
    return h;
  }

  /// Trains `train` (one of the Train*AndHash functions) under `isa` with
  /// `chunk_size` at 1, 2 and 4 threads; every run must match `expected`.
  static void CheckCase(const char* model,
                        TrainHashes (*train)(size_t, ThreadPool*),
                        kernels::KernelIsa isa, size_t chunk_size,
                        const TrainHashes& expected) {
    kernels::ScopedKernelIsa pin(isa);
    ThreadPool two(2), four(4);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two, &four}) {
      const size_t threads = pool == nullptr ? 1 : pool->num_workers();
      TrainHashes got = train(chunk_size, pool);
      EXPECT_TRUE(got == expected)
          << model << " " << kernels::KernelIsaName(isa)
          << " chunk_size=" << chunk_size << " threads=" << threads
          << ": got " << Describe(got) << ", expected " << Describe(expected);
    }
  }

  static void CheckQppNetCase(kernels::KernelIsa isa, size_t chunk_size,
                              const TrainHashes& expected) {
    CheckCase("qppnet", TrainQppNetAndHash, isa, chunk_size, expected);
  }

  static void CheckMscnCase(kernels::KernelIsa isa, size_t chunk_size,
                            const TrainHashes& expected) {
    CheckCase("mscn", TrainMscnAndHash, isa, chunk_size, expected);
  }

  /// Trains an MSCN under `isa` at 1, 2 and 4 threads, then reduces it and
  /// a QPPNet with the same pool; the MSCN hashes must match `expected` and
  /// the two reductions `expected_reduction`.
  static void CheckMscnAndReductionCase(kernels::KernelIsa isa,
                                        const TrainHashes& expected,
                                        uint64_t expected_reduction) {
    kernels::ScopedKernelIsa pin(isa);
    ThreadPool two(2), four(4);
    for (ThreadPool* pool : {static_cast<ThreadPool*>(nullptr), &two, &four}) {
      const size_t threads = pool == nullptr ? 1 : pool->num_workers();
      Mscn mscn(db_->catalog(), featurizer_, MscnConfig{}, 241);
      mscn.set_thread_pool(pool);
      TrainHashes got = TrainTwiceAndHash(&mscn, 0);
      EXPECT_TRUE(got == expected)
          << "mscn " << kernels::KernelIsaName(isa) << " threads=" << threads
          << ": got " << Describe(got) << ", expected " << Describe(expected);
      QppNet qpp(featurizer_, QppNetConfig{}, 229);
      qpp.set_thread_pool(pool);
      TrainTwiceAndHash(&qpp, 0);
      const uint64_t reduction =
          HashReduction(mscn, pool, HashReduction(qpp, pool, kFnvBasis));
      EXPECT_EQ(reduction, expected_reduction)
          << "reduction " << kernels::KernelIsaName(isa)
          << " threads=" << threads << ": got 0x" << std::hex << reduction
          << "ULL";
    }
  }

  static Database* db_;
  static std::vector<Environment>* envs_;
  static LabeledQuerySet* corpus_;
  static BaseFeaturizer* featurizer_;
};

Database* TrainGoldenTest::db_ = nullptr;
std::vector<Environment>* TrainGoldenTest::envs_ = nullptr;
LabeledQuerySet* TrainGoldenTest::corpus_ = nullptr;
BaseFeaturizer* TrainGoldenTest::featurizer_ = nullptr;

// Recorded from the per-node trainer (one 1-row unit forward/backward per
// plan node, per-chunk gradient sinks merged in chunk order).
constexpr TrainHashes kScalarAuto = {
    0xe8076c8f9552f2c8ULL, 0xd3b1fb7a0b07942aULL, 0xd12a5f895c1ec57eULL};
constexpr TrainHashes kScalarChunk1 = {
    0x447250da247c728eULL, 0xc64ac0f751911240ULL, 0x018e19f67f769ce8ULL};
constexpr TrainHashes kScalarChunk7 = {
    0x4e2ded56f3ed4e81ULL, 0x3df7aa16835ad07aULL, 0x0f58d46c3ca38e43ULL};
constexpr TrainHashes kAvx2Auto = {
    0x263cf9bc5f361aacULL, 0xbdb74ecc1cdbcd84ULL, 0x6117795dc4243186ULL};
constexpr TrainHashes kAvx2Chunk1 = {
    0x4f55b1fe171b69d8ULL, 0xab713bcd5066afd4ULL, 0x8e23eac235b1a182ULL};
constexpr TrainHashes kAvx2Chunk7 = {
    0x9d7b1ff2120a3fbaULL, 0x5d5f772995b899e9ULL, 0xea1d7852939d7477ULL};

// Recorded from the same trainer as above; the reduction hash covers the
// QPPNet (auto chunk width) and the MSCN, in that order.
constexpr TrainHashes kScalarMscn = {
    0xf6547c1a10c5c9beULL, 0x01c3241d93d6028aULL, 0x4182449ca914c537ULL};
constexpr uint64_t kScalarReduction = 0x8d5d9bad37fde6b8ULL;
constexpr TrainHashes kAvx2Mscn = {
    0xe6a310cdea0f827dULL, 0xce902d4e80d0fe83ULL, 0x9e0c15a6d3ede8c6ULL};
constexpr uint64_t kAvx2Reduction = 0xa2c5ec4810c43dd1ULL;

// MSCN at explicit chunk widths, recorded from the chunk-parallel trainer
// (one pack, forward and backward per chunk into a private gradient sink
// per module, the sinks merged in chunk order).
constexpr TrainHashes kScalarMscnChunk1 = {
    0xc8d22b38d2099668ULL, 0xd23f1d31f74ebd9eULL, 0x26c5503f0ee04356ULL};
constexpr TrainHashes kScalarMscnChunk7 = {
    0xffc8da76d57476c2ULL, 0xa618cad790c518e4ULL, 0xb28c7505f9fb7121ULL};
constexpr TrainHashes kAvx2MscnChunk1 = {
    0xf76678d207f1b92dULL, 0xb525c7b94467b627ULL, 0x789327bef08b08a2ULL};
constexpr TrainHashes kAvx2MscnChunk7 = {
    0x3ecf1d1899289606ULL, 0xd44585169b048ba7ULL, 0xc610841c8b7e2dcfULL};

TEST_F(TrainGoldenTest, ScalarTierMatchesRecordedHashes) {
  CheckQppNetCase(kernels::KernelIsa::kScalar, 0, kScalarAuto);
  CheckQppNetCase(kernels::KernelIsa::kScalar, 1, kScalarChunk1);
  CheckQppNetCase(kernels::KernelIsa::kScalar, 7, kScalarChunk7);
}

TEST_F(TrainGoldenTest, Avx2TierMatchesRecordedHashes) {
  if (!kernels::KernelIsaAvailable(kernels::KernelIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not available on this machine";
  }
  CheckQppNetCase(kernels::KernelIsa::kAvx2, 0, kAvx2Auto);
  CheckQppNetCase(kernels::KernelIsa::kAvx2, 1, kAvx2Chunk1);
  CheckQppNetCase(kernels::KernelIsa::kAvx2, 7, kAvx2Chunk7);
}

TEST_F(TrainGoldenTest, ScalarTierMscnAndReductionMatchRecordedHashes) {
  CheckMscnAndReductionCase(kernels::KernelIsa::kScalar, kScalarMscn,
                            kScalarReduction);
  CheckMscnCase(kernels::KernelIsa::kScalar, 1, kScalarMscnChunk1);
  CheckMscnCase(kernels::KernelIsa::kScalar, 7, kScalarMscnChunk7);
}

TEST_F(TrainGoldenTest, Avx2TierMscnAndReductionMatchRecordedHashes) {
  if (!kernels::KernelIsaAvailable(kernels::KernelIsa::kAvx2)) {
    GTEST_SKIP() << "AVX2 tier not available on this machine";
  }
  CheckMscnAndReductionCase(kernels::KernelIsa::kAvx2, kAvx2Mscn,
                            kAvx2Reduction);
  CheckMscnCase(kernels::KernelIsa::kAvx2, 1, kAvx2MscnChunk1);
  CheckMscnCase(kernels::KernelIsa::kAvx2, 7, kAvx2MscnChunk7);
}

}  // namespace
}  // namespace qcfe
