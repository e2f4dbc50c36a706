/// Micro benchmarks (google-benchmark) for the performance-critical pieces:
/// B+-tree operations, query planning/execution, model inference, snapshot
/// fitting and difference-propagation reduction. These back the inference
/// time columns of Table IV and the runtime column of Table VI.
///
/// The *Threads benchmarks sweep the thread-pool parallelism layer
/// (Pipeline::Fit wall-time and batched serving throughput at 1/2/4/8
/// workers), the KernelGemm sweep measures the dispatched kernels against
/// the historical reference loops (before/after in one binary), and the
/// *AsyncThroughput benchmarks measure the micro-batching front end
/// against one-at-a-time PredictMs under 8 concurrent callers. Best observed timings are written to
/// BENCH_parallel.json (machine-readable) when a run includes them, e.g.
///   bench_micro --benchmark_filter='Threads|Kernel|Async'
/// Sections absent from the current run are preserved from an existing
/// BENCH_parallel.json, so partial reruns never erase other sweeps.
///
/// `bench_micro --smoke` skips benchmarking and instead runs the kernel
/// parity sweep end to end, once per ISA tier available on this machine:
/// every table slot and dispatched entry point is checked against the
/// reference loops, bit for bit under the scalar tier and at
/// kSimdRelTolerance under the AVX2 tier (whose max relative error is
/// reported), and the dense and sparse slots of each product must agree
/// bit for bit within the tier. Exits non-zero on any violation — the CI
/// gate for the kernel layer. (The QCFE_KERNEL_ISA pin selects the tier
/// used by ordinary dispatch; the smoke gate still sweeps every tier the
/// hardware and build provide.)
///
/// The *KernelIsa benchmarks measure the scalar tier against the detected
/// SIMD tier (dense GEMM at the real layer shapes, plus whole-model train
/// and batched serving) and are written to the `kernels_simd` section of
/// BENCH_parallel.json together with the autotuned dispatch thresholds.

#include <benchmark/benchmark.h>

#include <atomic>
#include <cmath>
#include <cstring>
#include <fstream>  // qcfe-lint: allow(no-raw-file-io) -- benchmark result recorder, not model-artifact I/O
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "adapt/drift_detector.h"
#include "core/feature_reduction.h"
#include "core/feature_snapshot.h"
#include "engine/btree.h"
#include "harness/evaluate.h"
#include "models/registry.h"
#include "nn/kernels.h"
#include "nn/kernels_internal.h"
#include "nn/matrix.h"
#include "serve/async_server.h"
#include "serve/model_swap.h"
#include "util/check.h"
#include "util/fs.h"
#include "util/rng.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace qcfe {
namespace {

// Shared lazy fixture: a small sysbench context + trained QPPNet/MSCN, both
// instantiated through the estimator registry like any serving deployment.
struct MicroFixture {
  std::unique_ptr<BenchmarkContext> ctx;
  std::vector<PlanSample> train, test;
  std::unique_ptr<BaseFeaturizer> featurizer;
  std::unique_ptr<CostModel> qpp;
  std::unique_ptr<CostModel> mscn;

  static MicroFixture& Get() {
    static MicroFixture* fixture = [] {
      auto* f = new MicroFixture();
      HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
      opt.corpus_size = 400;
      auto ctx = BenchmarkContext::Create(opt);
      f->ctx = std::move(ctx.value());
      f->ctx->Split(400, &f->train, &f->test);
      f->featurizer = std::make_unique<BaseFeaturizer>(f->ctx->db->catalog());
      EstimatorRegistry& registry = EstimatorRegistry::Global();
      f->qpp = std::move(registry
                             .Create("qppnet", {f->ctx->db->catalog(),
                                                f->featurizer.get(), 1})
                             .value());
      f->mscn = std::move(registry
                              .Create("mscn", {f->ctx->db->catalog(),
                                               f->featurizer.get(), 2})
                              .value());
      TrainConfig cfg;
      cfg.epochs = 8;
      QCFE_CHECK_OK(f->qpp->Train(f->train, cfg, nullptr));
      QCFE_CHECK_OK(f->mscn->Train(f->train, cfg, nullptr));
      return f;
    }();
    return *fixture;
  }

  /// `n` serving requests drawn by cycling the test split (80 distinct
  /// queries). Batches up to 80 are fully distinct; larger batches model
  /// templated serving traffic where requests repeat (~3.2x at n=256) and
  /// the batched path's request dedup kicks in on top of matrix batching.
  std::vector<PlanSample> BatchOf(size_t n) const {
    std::vector<PlanSample> batch;
    batch.reserve(n);
    for (size_t i = 0; i < n; ++i) batch.push_back(test[i % test.size()]);
    return batch;
  }
};

void BM_MatMul(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(1);
  Matrix a(n, n), b(n, n);
  a.RandomizeGaussian(&rng, 1.0);
  b.RandomizeGaussian(&rng, 1.0);
  for (auto _ : state) {
    Matrix c = Matrix::MatMul(a, b);
    benchmark::DoNotOptimize(c.data().data());
  }
  state.SetItemsProcessed(state.iterations() * n * n * n);
}
BENCHMARK(BM_MatMul)->Arg(32)->Arg(128);

void BM_BTreeBulkLoad(benchmark::State& state) {
  size_t n = static_cast<size_t>(state.range(0));
  Rng rng(2);
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < n; ++i) {
    entries.emplace_back(rng.Uniform(0, 1e6), i);
  }
  for (auto _ : state) {
    BPlusTree tree;
    tree.BulkLoad(entries);
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_BTreeBulkLoad)->Arg(10000)->Arg(100000);

void BM_BTreeRangeScan(benchmark::State& state) {
  Rng rng(3);
  std::vector<std::pair<double, uint32_t>> entries;
  for (uint32_t i = 0; i < 100000; ++i) {
    entries.emplace_back(static_cast<double>(i), i);
  }
  BPlusTree tree;
  tree.BulkLoad(std::move(entries));
  for (auto _ : state) {
    std::vector<uint32_t> out;
    double lo = rng.Uniform(0, 90000);
    tree.RangeScan(lo, true, lo + 1000, true, &out);
    benchmark::DoNotOptimize(out.data());
  }
}
BENCHMARK(BM_BTreeRangeScan);

void BM_PlanQuery(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  QuerySpec spec;
  spec.tables = {"sbtest1"};
  Predicate p;
  p.column = {"sbtest1", "id"};
  p.op = CompareOp::kBetween;
  p.literals = {Value(int64_t{100}), Value(int64_t{199})};
  spec.filters = {p};
  Knobs knobs;
  for (auto _ : state) {
    auto plan = f.ctx->db->Plan(spec, knobs);
    benchmark::DoNotOptimize(plan.ok());
  }
}
BENCHMARK(BM_PlanQuery);

void BM_ExecuteQueryCached(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  QuerySpec spec;
  spec.tables = {"sbtest1"};
  Predicate p;
  p.column = {"sbtest1", "id"};
  p.op = CompareOp::kBetween;
  p.literals = {Value(int64_t{100}), Value(int64_t{199})};
  spec.filters = {p};
  Environment env;
  env.hardware = HardwareProfile::H1();
  Rng noise(5);
  for (auto _ : state) {
    auto run = f.ctx->db->Run(spec, env, &noise);
    benchmark::DoNotOptimize(run.ok());
  }
}
BENCHMARK(BM_ExecuteQueryCached);

void BM_QppNetInference(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const PlanSample& s = f.test[i++ % f.test.size()];
    auto p = f.qpp->PredictMs(*s.plan, s.env_id);
    benchmark::DoNotOptimize(p.ok());
  }
}
BENCHMARK(BM_QppNetInference);

void BM_MscnInference(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  size_t i = 0;
  for (auto _ : state) {
    const PlanSample& s = f.test[i++ % f.test.size()];
    auto p = f.mscn->PredictMs(*s.plan, s.env_id);
    benchmark::DoNotOptimize(p.ok());
  }
}
BENCHMARK(BM_MscnInference);

// Batched vs per-plan serving throughput. items_per_second is served
// requests/sec: compare BM_*PredictScalar/N against BM_*PredictBatch/N at
// the same batch size. Batch sizes 1 and 32 are fully-distinct plans and
// isolate the matrix-batching/allocation win; 256 exceeds the 80-query
// workload (see BatchOf) and additionally measures request deduplication —
// the dominant effect for template-heavy serving traffic, where it pushes
// the batched path past 3x the per-plan loop.

void BM_QppNetPredictScalar(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  std::vector<PlanSample> batch =
      f.BatchOf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& s : batch) {
      auto p = f.qpp->PredictMs(*s.plan, s.env_id);
      benchmark::DoNotOptimize(p.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_QppNetPredictScalar)->Arg(1)->Arg(32)->Arg(256);

void BM_QppNetPredictBatch(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  std::vector<PlanSample> batch =
      f.BatchOf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto p = f.qpp->PredictBatchMs(batch);
    benchmark::DoNotOptimize(p.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_QppNetPredictBatch)->Arg(1)->Arg(32)->Arg(256);

void BM_MscnPredictScalar(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  std::vector<PlanSample> batch =
      f.BatchOf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    for (const auto& s : batch) {
      auto p = f.mscn->PredictMs(*s.plan, s.env_id);
      benchmark::DoNotOptimize(p.ok());
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_MscnPredictScalar)->Arg(1)->Arg(32)->Arg(256);

void BM_MscnPredictBatch(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  std::vector<PlanSample> batch =
      f.BatchOf(static_cast<size_t>(state.range(0)));
  for (auto _ : state) {
    auto p = f.mscn->PredictBatchMs(batch);
    benchmark::DoNotOptimize(p.ok());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
BENCHMARK(BM_MscnPredictBatch)->Arg(1)->Arg(32)->Arg(256);

// ----------------------------------------------------- thread-pool sweeps

/// Collects the best observed timings of the *Threads benchmarks; the
/// custom main() below dumps them as BENCH_parallel.json after the run.
struct ParallelBenchRecorder {
  static ParallelBenchRecorder& Get() {
    static ParallelBenchRecorder recorder;
    return recorder;
  }

  void RecordFit(int threads, double seconds) {
    MutexLock lock(&mu);
    auto [it, inserted] = fit_seconds.emplace(threads, seconds);
    if (!inserted && seconds < it->second) it->second = seconds;
  }

  void RecordServe(const std::string& model, int threads, size_t batch,
                   double plans_per_sec) {
    MutexLock lock(&mu);
    auto key = std::make_pair(model, threads);
    auto [it, inserted] = serve.emplace(key, plans_per_sec);
    if (!inserted && plans_per_sec > it->second) it->second = plans_per_sec;
    serve_batch = batch;
  }

  void RecordTrain(const std::string& model, int threads, double seconds) {
    MutexLock lock(&mu);
    auto key = std::make_pair(model, threads);
    auto [it, inserted] = train_seconds.emplace(key, seconds);
    if (!inserted && seconds < it->second) it->second = seconds;
  }

  /// Kernel before/after records: mode 0 = the reference loops, 1 = the
  /// dispatched entry point. Single-threaded (the kernel layer's own win).
  void RecordKernelGemm(int shape_index, int mode, double ns) {
    MutexLock lock(&mu);
    auto key = std::make_pair(shape_index, mode);
    auto [it, inserted] = kernel_gemm_ns.emplace(key, ns);
    if (!inserted && ns < it->second) it->second = ns;
  }

  /// SIMD-tier before/after records: tier 0 = scalar ISA pin, 1 = the
  /// detected SIMD tier. All single-threaded, dense dispatch — the
  /// vectorization win in isolation.
  void RecordSimdGemm(int shape_index, int tier, double ns) {
    MutexLock lock(&mu);
    auto key = std::make_pair(shape_index, tier);
    auto [it, inserted] = simd_gemm_ns.emplace(key, ns);
    if (!inserted && ns < it->second) it->second = ns;
  }

  void RecordSimdTrain(const std::string& model, int tier, double seconds) {
    MutexLock lock(&mu);
    auto key = std::make_pair(model, tier);
    auto [it, inserted] = simd_train.emplace(key, seconds);
    if (!inserted && seconds < it->second) it->second = seconds;
  }

  void RecordSimdServe(const std::string& model, int tier,
                       double plans_per_sec) {
    MutexLock lock(&mu);
    auto key = std::make_pair(model, tier);
    auto [it, inserted] = simd_serve.emplace(key, plans_per_sec);
    if (!inserted && plans_per_sec > it->second) it->second = plans_per_sec;
  }

  /// Async serving sweep: mode 0 = 8 callers doing one-at-a-time PredictMs,
  /// mode 1 = the same callers submitting through an AsyncServer.
  void RecordAsync(const std::string& model, int mode, size_t callers,
                   double plans_per_sec) {
    MutexLock lock(&mu);
    auto key = std::make_pair(model, mode);
    auto [it, inserted] = async_pps.emplace(key, plans_per_sec);
    if (!inserted && plans_per_sec > it->second) it->second = plans_per_sec;
    async_callers = callers;
  }

  /// One adaptation cycle under serving load: wall time of the
  /// retrain+save leg and of the LoadAndSwap publish leg, with `callers`
  /// threads hammering the server throughout. Keeps the fastest cycle
  /// (latency: lower is better).
  void RecordAdapt(size_t callers, double retrain_save_seconds,
                   double swap_seconds) {
    MutexLock lock(&mu);
    if (adapt_callers == 0 ||
        retrain_save_seconds + swap_seconds <
            adapt_retrain_save_seconds + adapt_swap_seconds) {
      adapt_retrain_save_seconds = retrain_save_seconds;
      adapt_swap_seconds = swap_seconds;
    }
    adapt_callers = callers;
  }

  bool empty() {
    MutexLock lock(&mu);
    return fit_seconds.empty() && serve.empty() && train_seconds.empty() &&
           kernel_gemm_ns.empty() && async_pps.empty() &&
           simd_gemm_ns.empty() && simd_train.empty() && simd_serve.empty() &&
           adapt_callers == 0;
  }

  /// Extracts the raw text of `"key": <value>` from a previous dump (our
  /// own writer's output), so sections the current run did not exercise
  /// survive a partial rerun. Returns empty when absent.
  static std::string ExtractSection(const std::string& json,
                                    const std::string& key) {
    std::string needle = "\"" + key + "\":";
    size_t at = json.find(needle);
    if (at == std::string::npos) return "";
    size_t start = at + needle.size();
    while (start < json.size() && json[start] == ' ') ++start;
    if (start >= json.size() ||
        (json[start] != '[' && json[start] != '{')) {
      return "";
    }
    int depth = 0;
    for (size_t i = start; i < json.size(); ++i) {
      if (json[i] == '[' || json[i] == '{') ++depth;
      if (json[i] == ']' || json[i] == '}') {
        --depth;
        if (depth == 0) return json.substr(start, i - start + 1);
      }
    }
    return "";
  }

  /// Minimal hand-rolled JSON:
  /// {"fit": [...], "train": [...], "predict_batch": [...], "kernels": {...}}.
  /// Sections with no data in this run are carried over from an existing
  /// file — a partial `--benchmark_filter` rerun updates only what it ran
  /// (historically a Fit/Train-only rerun silently emptied the
  /// predict_batch section).
  void WriteJson(const std::string& path) {
    MutexLock lock(&mu);
    std::string previous;
    {
      // qcfe-lint: allow(no-raw-file-io) -- benchmark result recorder, not model-artifact I/O
      std::ifstream is(path);
      if (is.good()) {
        std::string all((std::istreambuf_iterator<char>(is)),
                        std::istreambuf_iterator<char>());
        previous = std::move(all);
      }
    }
    auto carry = [&](const char* key) {
      return ExtractSection(previous, key);
    };

    // qcfe-lint: allow(no-raw-file-io) -- benchmark result recorder, not model-artifact I/O
    std::ofstream os(path);
    os << "{\n  \"fit\": ";
    if (fit_seconds.empty() && !carry("fit").empty()) {
      os << carry("fit");
    } else {
      os << "[";
      double serial = fit_seconds.count(1) ? fit_seconds.at(1) : 0.0;
      bool first = true;
      for (const auto& [threads, seconds] : fit_seconds) {
        os << (first ? "" : ",") << "\n    {\"threads\": " << threads
           << ", \"seconds\": " << seconds << ", \"speedup\": "
           << (seconds > 0.0 && serial > 0.0 ? serial / seconds : 0.0) << "}";
        first = false;
      }
      os << "\n  ]";
    }
    os << ",\n  \"train\": ";
    if (train_seconds.empty() && !carry("train").empty()) {
      os << carry("train");
    } else {
      os << "[";
      bool first = true;
      for (const auto& [key, seconds] : train_seconds) {
        double serial_train = train_seconds.count({key.first, 1})
                                  ? train_seconds.at({key.first, 1})
                                  : 0.0;
        os << (first ? "" : ",") << "\n    {\"model\": \"" << key.first
           << "\", \"threads\": " << key.second << ", \"seconds\": " << seconds
           << ", \"speedup\": "
           << (seconds > 0.0 && serial_train > 0.0 ? serial_train / seconds
                                                   : 0.0)
           << "}";
        first = false;
      }
      os << "\n  ]";
    }
    os << ",\n  \"predict_batch\": ";
    if (serve.empty() && !carry("predict_batch").empty()) {
      os << carry("predict_batch");
    } else {
      os << "[";
      bool first = true;
      for (const auto& [key, pps] : serve) {
        os << (first ? "" : ",") << "\n    {\"model\": \"" << key.first
           << "\", \"threads\": " << key.second
           << ", \"batch\": " << serve_batch << ", \"plans_per_sec\": " << pps
           << "}";
        first = false;
      }
      os << "\n  ]";
    }
    os << ",\n  \"kernels\": ";
    if (kernel_gemm_ns.empty() && !carry("kernels").empty()) {
      os << carry("kernels");
    } else {
      WriteKernelsSection(&os);
    }
    os << ",\n  \"kernels_simd\": ";
    if (simd_gemm_ns.empty() && simd_train.empty() && simd_serve.empty() &&
        !carry("kernels_simd").empty()) {
      os << carry("kernels_simd");
    } else {
      WriteKernelsSimdSection(&os);
    }
    os << ",\n  \"async\": ";
    // Rows are keyed by the async (mode 1) measurements; a rerun that only
    // recorded the direct baseline (mode 0) must keep the carried section
    // rather than emit an empty array.
    bool have_async_rows = false;
    for (const auto& [key, pps] : async_pps) {
      (void)pps;
      if (key.second == 1) have_async_rows = true;
    }
    if (!have_async_rows && !carry("async").empty()) {
      os << carry("async");
    } else {
      os << "[";
      bool first = true;
      for (const auto& [key, pps] : async_pps) {
        if (key.second != 1) continue;  // one row per model, direct inline
        double direct = async_pps.count({key.first, 0})
                            ? async_pps.at({key.first, 0})
                            : 0.0;
        os << (first ? "" : ",") << "\n    {\"model\": \"" << key.first
           << "\", \"callers\": " << async_callers
           << ", \"direct_plans_per_sec\": " << direct
           << ", \"async_plans_per_sec\": " << pps << ", \"speedup\": "
           << (direct > 0.0 && pps > 0.0 ? pps / direct : 0.0) << "}";
        first = false;
      }
      os << "\n  ]";
    }
    os << ",\n  \"adapt\": ";
    if (adapt_callers == 0 && !carry("adapt").empty()) {
      os << carry("adapt");
    } else {
      os << "{\n    \"callers\": " << adapt_callers
         << ",\n    \"retrain_save_seconds\": " << adapt_retrain_save_seconds
         << ",\n    \"swap_seconds\": " << adapt_swap_seconds << "\n  }";
    }
    os << "\n}\n";
    std::cout << "wrote " << path << "\n";
  }

  // qcfe-lint: allow(no-raw-file-io) -- benchmark result recorder, not model-artifact I/O
  void WriteKernelsSection(std::ofstream* out) QCFE_REQUIRES(mu);
  // qcfe-lint: allow(no-raw-file-io) -- benchmark result recorder, not model-artifact I/O
  void WriteKernelsSimdSection(std::ofstream* out) QCFE_REQUIRES(mu);

  Mutex mu;
  std::map<int, double> fit_seconds QCFE_GUARDED_BY(mu);
  std::map<std::pair<std::string, int>, double> train_seconds
      QCFE_GUARDED_BY(mu);
  std::map<std::pair<std::string, int>, double> serve QCFE_GUARDED_BY(mu);
  size_t serve_batch QCFE_GUARDED_BY(mu) = 0;
  std::map<std::pair<int, int>, double> kernel_gemm_ns QCFE_GUARDED_BY(mu);
  std::map<std::pair<std::string, int>, double> async_pps QCFE_GUARDED_BY(mu);
  size_t async_callers QCFE_GUARDED_BY(mu) = 0;
  std::map<std::pair<int, int>, double> simd_gemm_ns QCFE_GUARDED_BY(mu);
  std::map<std::pair<std::string, int>, double> simd_train
      QCFE_GUARDED_BY(mu);
  std::map<std::pair<std::string, int>, double> simd_serve
      QCFE_GUARDED_BY(mu);
  size_t adapt_callers QCFE_GUARDED_BY(mu) = 0;
  double adapt_retrain_save_seconds QCFE_GUARDED_BY(mu) = 0.0;
  double adapt_swap_seconds QCFE_GUARDED_BY(mu) = 0.0;
};

// ------------------------------------------------------- kernel sweeps

/// GEMM shapes drawn from the real QPPNet/MSCN layer dims this binary
/// trains and serves: per-node training rows, wave-batched serving
/// buckets, packed set-module element matrices — sparse (one-hot/padded)
/// and dense (standardized activations) variants of each.
struct KernelShape {
  const char* variant;  // "nn" (a*b+bias), "bt" (a*b^T), "at" (acc+=a^T*b)
  size_t m, k, n;       // a is (m x k); nn: b (k x n); bt: b (n x k);
                        // at: a is (k x m), b (k x n), acc (m x n)
  double sparsity;      // zero fraction planted in a
};

constexpr KernelShape kKernelShapes[] = {
    {"nn", 1, 66, 48, 0.90},    // QPPNet unit L1, per-node training row
    {"nn", 1, 48, 48, 0.00},    // QPPNet unit L2 row, dense activation
    {"nn", 64, 66, 48, 0.25},   // QPPNet wave bucket (padded child slots)
    {"nn", 256, 58, 32, 0.95},  // MSCN predicate module, one-hot rows
    {"nn", 256, 26, 64, 0.00},  // MSCN operator module, standardized dense
    {"nn", 80, 96, 64, 0.00},   // MSCN final module over the 3h concat
    {"bt", 1, 48, 66, 0.00},    // dX = dY * W^T, per-node backward row
    {"bt", 64, 48, 48, 0.00},   // batched hidden-layer backward
    {"at", 66, 1, 48, 0.90},    // dW += x^T dY, QPPNet rank-1 (k = 1 row)
    {"at", 58, 16, 32, 0.95},   // dW += X^T dY, MSCN chunk (one-hot rows)
    {"at", 48, 64, 48, 0.00},   // dense batched accumulate
};
constexpr int kNumKernelShapes =
    static_cast<int>(sizeof(kKernelShapes) / sizeof(kKernelShapes[0]));

Matrix RandomWithSparsity(size_t rows, size_t cols, double sparsity,
                          Rng* rng) {
  Matrix m(rows, cols);
  // Row-wise on purpose: a flat walk over data() would also fill the
  // alignment pad columns, which must stay exactly zero.
  for (size_t r = 0; r < rows; ++r) {
    double* row = m.RowPtr(r);
    for (size_t c = 0; c < cols; ++c) {
      row[c] = rng->Uniform(0.0, 1.0) < sparsity ? 0.0 : rng->Gaussian(0.0, 1.0);
    }
  }
  return m;
}

// qcfe-lint: allow(no-raw-file-io) -- benchmark result recorder, not model-artifact I/O
void ParallelBenchRecorder::WriteKernelsSection(std::ofstream* out) {
  // qcfe-lint: allow(no-raw-file-io) -- benchmark result recorder, not model-artifact I/O
  std::ofstream& os = *out;
  os << "{\n    \"gemm\": [";
  bool first = true;
  for (int s = 0; s < kNumKernelShapes; ++s) {
    if (!kernel_gemm_ns.count({s, 0}) && !kernel_gemm_ns.count({s, 1})) {
      continue;
    }
    const KernelShape& shape = kKernelShapes[s];
    double ref = kernel_gemm_ns.count({s, 0}) ? kernel_gemm_ns.at({s, 0}) : 0;
    double opt = kernel_gemm_ns.count({s, 1}) ? kernel_gemm_ns.at({s, 1}) : 0;
    os << (first ? "" : ",") << "\n      {\"variant\": \"" << shape.variant
       << "\", \"m\": " << shape.m << ", \"k\": " << shape.k
       << ", \"n\": " << shape.n << ", \"sparsity\": " << shape.sparsity
       << ", \"reference_ns\": " << ref << ", \"optimized_ns\": " << opt
       << ", \"speedup\": " << (ref > 0 && opt > 0 ? ref / opt : 0.0) << "}";
    first = false;
  }
  os << "\n    ]\n  }";
}

// qcfe-lint: allow(no-raw-file-io) -- benchmark result recorder, not model-artifact I/O
void ParallelBenchRecorder::WriteKernelsSimdSection(std::ofstream* out) {
  // qcfe-lint: allow(no-raw-file-io) -- benchmark result recorder, not model-artifact I/O
  std::ofstream& os = *out;
  const kernels::KernelIsa detected = kernels::DetectKernelIsa();
  kernels::KernelTuning tuning;
  {
    // Tuning() reports the active tier's thresholds; read the detected one.
    kernels::ScopedKernelIsa pin(detected);
    tuning = kernels::Tuning();
  }
  os << "{\n    \"isa\": \"" << kernels::KernelIsaName(detected)
     << "\",\n    \"tuning\": {\"dense_min_rows\": "
     << (tuning.dense_min_rows == SIZE_MAX
             ? -1
             : static_cast<long long>(tuning.dense_min_rows))
     << ", \"sparse_dispatch_threshold\": " << tuning.sparse_dispatch_threshold
     << ", \"probed_gemm_speedup\": " << tuning.simd_gemm_speedup
     << ", \"autotuned\": " << (tuning.autotuned ? "true" : "false")
     << "},\n    \"gemm\": [";
  bool first = true;
  for (int s = 0; s < kNumKernelShapes; ++s) {
    if (!simd_gemm_ns.count({s, 0}) && !simd_gemm_ns.count({s, 1})) continue;
    const KernelShape& shape = kKernelShapes[s];
    double ref = simd_gemm_ns.count({s, 0}) ? simd_gemm_ns.at({s, 0}) : 0;
    double opt = simd_gemm_ns.count({s, 1}) ? simd_gemm_ns.at({s, 1}) : 0;
    os << (first ? "" : ",") << "\n      {\"variant\": \"" << shape.variant
       << "\", \"m\": " << shape.m << ", \"k\": " << shape.k
       << ", \"n\": " << shape.n << ", \"sparsity\": " << shape.sparsity
       << ", \"scalar_ns\": " << ref << ", \"simd_ns\": " << opt
       << ", \"speedup\": " << (ref > 0 && opt > 0 ? ref / opt : 0.0) << "}";
    first = false;
  }
  os << "\n    ],\n    \"train\": [";
  first = true;
  for (const auto& [key, seconds] : simd_train) {
    if (key.second != 1) continue;
    double ref =
        simd_train.count({key.first, 0}) ? simd_train.at({key.first, 0}) : 0.0;
    os << (first ? "" : ",") << "\n      {\"model\": \"" << key.first
       << "\", \"scalar_seconds\": " << ref
       << ", \"simd_seconds\": " << seconds << ", \"speedup\": "
       << (ref > 0 && seconds > 0 ? ref / seconds : 0.0) << "}";
    first = false;
  }
  os << "\n    ],\n    \"predict_batch\": [";
  first = true;
  for (const auto& [key, pps] : simd_serve) {
    if (key.second != 1) continue;
    double ref =
        simd_serve.count({key.first, 0}) ? simd_serve.at({key.first, 0}) : 0.0;
    os << (first ? "" : ",") << "\n      {\"model\": \"" << key.first
       << "\", \"batch\": 256, \"scalar_plans_per_sec\": " << ref
       << ", \"simd_plans_per_sec\": " << pps << ", \"speedup\": "
       << (ref > 0 && pps > 0 ? pps / ref : 0.0) << "}";
    first = false;
  }
  os << "\n    ]\n  }";
}

/// One kernel invocation per iteration at the shape table entry
/// state.range(0): the reference loop (range(1) == 0) or the dispatched
/// entry point.
void BM_KernelGemm(benchmark::State& state) {
  const KernelShape& shape = kKernelShapes[state.range(0)];
  const int mode = static_cast<int>(state.range(1));
  Rng rng(41);
  Matrix a, b, bias, out;
  if (std::strcmp(shape.variant, "nn") == 0) {
    a = RandomWithSparsity(shape.m, shape.k, shape.sparsity, &rng);
    b = RandomWithSparsity(shape.k, shape.n, 0.0, &rng);
    bias = RandomWithSparsity(1, shape.n, 0.0, &rng);
  } else if (std::strcmp(shape.variant, "bt") == 0) {
    a = RandomWithSparsity(shape.m, shape.k, shape.sparsity, &rng);
    b = RandomWithSparsity(shape.n, shape.k, 0.0, &rng);
  } else {
    a = RandomWithSparsity(shape.k, shape.m, shape.sparsity, &rng);
    b = RandomWithSparsity(shape.k, shape.n, 0.0, &rng);
    out.ResetShape(shape.m, shape.n);
  }
  kernels::Autotune();  // keep the lazy startup probe out of the timed loop
  WallTimer timer;
  size_t iters = 0;
  for (auto _ : state) {
    if (std::strcmp(shape.variant, "nn") == 0) {
      mode == 0 ? kernels::reference::GemmNNBias(a, b, bias, &out)
                : kernels::GemmNNBias(a, b, bias, &out);
    } else if (std::strcmp(shape.variant, "bt") == 0) {
      mode == 0 ? kernels::reference::GemmBT(a, b, &out)
                : kernels::GemmBT(a, b, &out);
    } else {
      mode == 0 ? kernels::reference::GemmATAccumulate(a, b, &out)
                : kernels::GemmATAccumulate(a, b, &out);
    }
    benchmark::DoNotOptimize(out.data().data());
    ++iters;
  }
  if (iters > 0) {
    ParallelBenchRecorder::Get().RecordKernelGemm(
        static_cast<int>(state.range(0)), mode,
        timer.Seconds() * 1e9 / static_cast<double>(iters));
  }
  state.SetItemsProcessed(static_cast<int64_t>(iters) *
                          static_cast<int64_t>(shape.m * shape.k * shape.n));
}
BENCHMARK(BM_KernelGemm)
    ->ArgsProduct({benchmark::CreateDenseRange(0, kNumKernelShapes - 1, 1),
                   {0, 1}});

/// Scalar tier vs the detected SIMD tier on dense GemmNN at the real layer
/// shapes (the first six table entries are the "nn" variants). The sweep
/// calls the tier's dense slot so it times the panel kernels themselves;
/// on a machine with no SIMD tier both pins resolve to scalar and the
/// recorded speedup is ~1.
void BM_KernelIsaGemm(benchmark::State& state) {
  const KernelShape& shape = kKernelShapes[state.range(0)];
  const int tier = static_cast<int>(state.range(1));
  kernels::ScopedKernelIsa pin_isa(tier == 0 ? kernels::KernelIsa::kScalar
                                             : kernels::DetectKernelIsa());
  const kernels::internal::KernelTable& table =
      kernels::internal::ActiveTable();
  Rng rng(43);
  Matrix a = RandomWithSparsity(shape.m, shape.k, shape.sparsity, &rng);
  Matrix b = RandomWithSparsity(shape.k, shape.n, 0.0, &rng);
  Matrix out;
  WallTimer timer;
  size_t iters = 0;
  for (auto _ : state) {
    table.dense_nn(a, b, nullptr, &out, kernels::internal::Epilogue::kNone);
    benchmark::DoNotOptimize(out.data().data());
    ++iters;
  }
  if (iters > 0) {
    ParallelBenchRecorder::Get().RecordSimdGemm(
        static_cast<int>(state.range(0)), tier,
        timer.Seconds() * 1e9 / static_cast<double>(iters));
  }
  state.SetItemsProcessed(static_cast<int64_t>(iters) *
                          static_cast<int64_t>(shape.m * shape.k * shape.n));
}
BENCHMARK(BM_KernelIsaGemm)
    ->ArgsProduct({benchmark::CreateDenseRange(0, 5, 1), {0, 1}});

/// Whole-model training under the scalar tier (range(0) == 0) vs the
/// detected SIMD tier, production dispatch — the end-to-end vectorization
/// win BENCH_parallel.json records as the kernels_simd train delta.
template <const char* kModel>
void BM_TrainKernelIsa(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  const int tier = static_cast<int>(state.range(0));
  kernels::ScopedKernelIsa pin(tier == 0 ? kernels::KernelIsa::kScalar
                                         : kernels::DetectKernelIsa());
  TrainConfig cfg;
  cfg.epochs = 8;
  for (auto _ : state) {
    state.PauseTiming();
    auto model = EstimatorRegistry::Global()
                     .Create(kModel, {f.ctx->db->catalog(),
                                      f.featurizer.get(), 3})
                     .value();
    state.ResumeTiming();
    WallTimer timer;
    benchmark::DoNotOptimize(model->Train(f.train, cfg, nullptr).ok());
    ParallelBenchRecorder::Get().RecordSimdTrain(kModel, tier,
                                                 timer.Seconds());
  }
}

/// Single-thread batched serving at batch 256 under the scalar tier vs the
/// detected SIMD tier.
template <const char* kModel>
void BM_PredictBatchKernelIsa(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  const int tier = static_cast<int>(state.range(0));
  kernels::ScopedKernelIsa pin(tier == 0 ? kernels::KernelIsa::kScalar
                                         : kernels::DetectKernelIsa());
  const CostModel* model =
      std::string(kModel) == "qppnet" ? f.qpp.get() : f.mscn.get();
  std::vector<PlanSample> batch = f.BatchOf(256);
  for (auto _ : state) {
    WallTimer timer;
    auto p = model->PredictBatchMs(batch, nullptr);
    double seconds = timer.Seconds();
    benchmark::DoNotOptimize(p.ok());
    if (seconds > 0.0) {
      ParallelBenchRecorder::Get().RecordSimdServe(
          kModel, tier, static_cast<double>(batch.size()) / seconds);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}

/// Full QCFE pipeline fit (snapshot + reduction + training) at a given
/// worker count. All thread counts produce bit-identical pipelines, so the
/// sweep isolates pure wall-clock scaling.
void BM_PipelineFitThreads(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  int threads = static_cast<int>(state.range(0));
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.train.epochs = 6;
  cfg.pre_reduction_epochs = 4;
  cfg.parallelism.num_threads = threads;
  for (auto _ : state) {
    WallTimer timer;
    auto pipeline = f.ctx->FitPipeline(cfg, f.train);
    double seconds = timer.Seconds();
    benchmark::DoNotOptimize(pipeline.ok());
    ParallelBenchRecorder::Get().RecordFit(threads, seconds);
  }
}
BENCHMARK(BM_PipelineFitThreads)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();

/// Gradient training at a given worker count: a fresh estimator per
/// iteration, trained for a fixed epoch budget through the attached pool.
/// All thread counts produce bit-identical models (fixed chunk partition +
/// chunk-order reduction), so the sweep isolates pure wall-clock scaling of
/// Train itself. Both batched trainers run each batch inline and use the
/// pool only to encode plans or queries, so these rows are flat by design.
/// The *Threads rows report wall time (UseRealTime):
/// main-thread CPU time would leave out the work done by pool workers.
template <const char* kModel>
void BM_TrainThreads(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  TrainConfig cfg;
  cfg.epochs = 8;
  for (auto _ : state) {
    state.PauseTiming();
    auto model = EstimatorRegistry::Global()
                     .Create(kModel, {f.ctx->db->catalog(),
                                      f.featurizer.get(), 3})
                     .value();
    model->set_thread_pool(pool.get());
    state.ResumeTiming();
    WallTimer timer;
    benchmark::DoNotOptimize(model->Train(f.train, cfg, nullptr).ok());
    ParallelBenchRecorder::Get().RecordTrain(kModel, threads, timer.Seconds());
  }
}

template <const char* kModel>
void BM_PredictBatchThreads(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  int threads = static_cast<int>(state.range(0));
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  const CostModel* model =
      std::string(kModel) == "qppnet" ? f.qpp.get() : f.mscn.get();
  std::vector<PlanSample> batch = f.BatchOf(256);
  for (auto _ : state) {
    WallTimer timer;
    auto p = model->PredictBatchMs(batch, pool.get());
    double seconds = timer.Seconds();
    benchmark::DoNotOptimize(p.ok());
    if (seconds > 0.0) {
      ParallelBenchRecorder::Get().RecordServe(
          kModel, threads, batch.size(),
          static_cast<double>(batch.size()) / seconds);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(batch.size()));
}
constexpr char kQppName[] = "qppnet";
constexpr char kMscnName[] = "mscn";
BENCHMARK_TEMPLATE(BM_TrainThreads, kQppName)
    ->Name("BM_QppNetTrainThreads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_TrainThreads, kMscnName)
    ->Name("BM_MscnTrainThreads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_PredictBatchThreads, kQppName)
    ->Name("BM_QppNetPredictBatchThreads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_PredictBatchThreads, kMscnName)
    ->Name("BM_MscnPredictBatchThreads")
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->UseRealTime();
BENCHMARK_TEMPLATE(BM_TrainKernelIsa, kQppName)
    ->Name("BM_QppNetTrainKernelIsa")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_TrainKernelIsa, kMscnName)
    ->Name("BM_MscnTrainKernelIsa")
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_PredictBatchKernelIsa, kQppName)
    ->Name("BM_QppNetPredictBatchKernelIsa")
    ->Arg(0)
    ->Arg(1);
BENCHMARK_TEMPLATE(BM_PredictBatchKernelIsa, kMscnName)
    ->Name("BM_MscnPredictBatchKernelIsa")
    ->Arg(0)
    ->Arg(1);

// ----------------------------------------------------- async serving sweep

/// Online-serving throughput under concurrent callers: 8 caller threads
/// each issue 256 single-plan requests (cycling the 80-query test split
/// with per-caller offsets, so traffic repeats like templated workloads).
/// Mode 0 is the baseline every caller starts from — one-at-a-time
/// PredictMs, no batching anywhere; mode 1 routes the same traffic through
/// an AsyncServer, which coalesces the callers' singleton submissions into
/// micro-batches for PredictBatchMs. The recorder writes both into the
/// `async` section of BENCH_parallel.json.
template <const char* kModel>
void BM_AsyncThroughput(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  const int mode = static_cast<int>(state.range(0));
  constexpr size_t kCallers = 8;
  constexpr size_t kPerCaller = 256;
  const CostModel* model =
      std::string(kModel) == "qppnet" ? f.qpp.get() : f.mscn.get();
  auto sample = [&](size_t caller, size_t i) -> const PlanSample& {
    return f.test[(caller * 17 + i) % f.test.size()];
  };
  for (auto _ : state) {
    WallTimer timer;
    if (mode == 0) {
      std::vector<std::thread> callers;
      callers.reserve(kCallers);
      for (size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
          for (size_t i = 0; i < kPerCaller; ++i) {
            const PlanSample& s = sample(c, i);
            auto p = model->PredictMs(*s.plan, s.env_id);
            benchmark::DoNotOptimize(p.ok());
          }
        });
      }
      for (std::thread& t : callers) t.join();
    } else {
      AsyncServeConfig cfg;
      cfg.max_batch = 512;
      cfg.max_delay_micros = 2000;
      cfg.max_queue = 0;
      AsyncServer server(model, cfg);
      std::vector<std::vector<std::future<Result<double>>>> futures(kCallers);
      std::vector<std::thread> callers;
      callers.reserve(kCallers);
      for (size_t c = 0; c < kCallers; ++c) {
        callers.emplace_back([&, c] {
          futures[c].reserve(kPerCaller);
          for (size_t i = 0; i < kPerCaller; ++i) {
            const PlanSample& s = sample(c, i);
            futures[c].push_back(server.Submit(*s.plan, s.env_id));
          }
        });
      }
      for (std::thread& t : callers) t.join();
      // Traffic is finite here (closed-loop bench): drain the last partial
      // micro-batch instead of letting it wait out its deadline.
      server.Shutdown(AsyncServer::ShutdownMode::kDrain);
      for (auto& caller_futures : futures) {
        for (auto& fut : caller_futures) {
          auto p = fut.get();
          benchmark::DoNotOptimize(p.ok());
        }
      }
    }
    double seconds = timer.Seconds();
    if (seconds > 0.0) {
      ParallelBenchRecorder::Get().RecordAsync(
          kModel, mode, kCallers,
          static_cast<double>(kCallers * kPerCaller) / seconds);
    }
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<int64_t>(kCallers * kPerCaller));
}
BENCHMARK_TEMPLATE(BM_AsyncThroughput, kQppName)
    ->Name("BM_QppNetAsyncThroughput")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);
BENCHMARK_TEMPLATE(BM_AsyncThroughput, kMscnName)
    ->Name("BM_MscnAsyncThroughput")
    ->Arg(0)
    ->Arg(1)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

// ------------------------------------------------- adaptation cycle cost

/// Latency of one online-adaptation cycle while the server is under load:
/// 4 caller threads hammer a hot-swappable AsyncServer with singleton
/// submissions for the whole iteration; the measured thread meanwhile runs
/// the cycle's two legs — (a) warm-start Retrain + atomic Save, (b)
/// LoadAndSwap publish with a bit-parity probe. The recorder writes both
/// into the `adapt` section of BENCH_parallel.json; swap_seconds is the
/// number that bounds how stale a drifted model can stay once retraining
/// has finished.
void BM_AdaptRetrainSwap(benchmark::State& state) {
  struct AdaptFixture {
    std::unique_ptr<BenchmarkContext> ctx;
    std::vector<PlanSample> train, test, drifted;
    std::unique_ptr<Pipeline> trainer;
    static AdaptFixture& Get() {
      static AdaptFixture* fixture = [] {
        auto* f = new AdaptFixture();
        HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
        opt.corpus_size = 200;
        opt.num_envs = 2;
        f->ctx = std::move(BenchmarkContext::Create(opt).value());
        f->ctx->Split(200, &f->train, &f->test);
        for (size_t i = 0; i < 64; ++i) {
          f->drifted.push_back({f->train[i].plan, f->train[i].env_id,
                                4.0 * f->train[i].label_ms});
        }
        PipelineConfig cfg;
        cfg.estimator = "qppnet";
        cfg.pre_reduction_epochs = 2;
        cfg.train.epochs = 5;
        f->trainer = std::move(f->ctx->FitPipeline(cfg, f->train).value());
        return f;
      }();
      return *fixture;
    }
  };
  AdaptFixture& f = AdaptFixture::Get();
  const std::string path = "/tmp/qcfe_bench_adapt.qcfa";
  QCFE_CHECK_OK(f.trainer->Save(path));

  SwappableModel models;
  AsyncServeConfig scfg;
  scfg.max_batch = 64;
  scfg.max_delay_micros = 200;
  auto server = Pipeline::ServeAsync(&models, scfg);
  QCFE_CHECK(LoadAndSwap(f.ctx->db.get(), &f.ctx->envs, &f.ctx->templates,
                         path, {}, &models, server.get())
                 .ok(),
             "adapt bench initial publish failed");

  constexpr size_t kCallers = 4;
  for (auto _ : state) {
    std::atomic<bool> stop{false};
    std::vector<std::thread> callers;
    for (size_t c = 0; c < kCallers; ++c) {
      callers.emplace_back([&, c] {
        for (size_t i = 0; !stop.load(std::memory_order_relaxed); ++i) {
          const PlanSample& s = f.test[(c * 17 + i) % f.test.size()];
          auto p = server->Submit(*s.plan, s.env_id).get();
          benchmark::DoNotOptimize(p.ok());
        }
      });
    }

    TrainConfig rt;
    rt.epochs = 3;
    WallTimer retrain_timer;
    QCFE_CHECK_OK(f.trainer->Retrain(f.drifted, rt, nullptr));
    QCFE_CHECK_OK(f.trainer->Save(path));
    const double retrain_save_s = retrain_timer.Seconds();

    SwapOptions options;
    options.probe.assign(f.test.begin(), f.test.begin() + 8);
    options.expected = f.trainer->PredictBatch(options.probe).value();
    WallTimer swap_timer;
    QCFE_CHECK(LoadAndSwap(f.ctx->db.get(), &f.ctx->envs, &f.ctx->templates,
                           path, options, &models, server.get())
                   .ok(),
               "adapt bench publish failed");
    const double swap_s = swap_timer.Seconds();

    stop.store(true);
    for (std::thread& t : callers) t.join();
    ParallelBenchRecorder::Get().RecordAdapt(kCallers, retrain_save_s,
                                             swap_s);
  }
  server->Shutdown();
  (void)Fs::Default()->RemoveFile(path);  // best-effort temp cleanup
}
BENCHMARK(BM_AdaptRetrainSwap)->UseRealTime()->Unit(benchmark::kMillisecond);

void BM_SnapshotFit(benchmark::State& state) {
  Rng rng(7);
  std::vector<OperatorObservation> obs;
  for (int i = 0; i < 2000; ++i) {
    OperatorObservation o;
    o.op = static_cast<OpType>(i % kNumOpTypes);
    o.n = rng.Uniform(10, 100000);
    o.n2 = rng.Uniform(10, 1000);
    o.ms = 0.001 * o.n + 0.1;
    obs.push_back(o);
  }
  for (auto _ : state) {
    auto snap = FeatureSnapshot::Fit(obs);
    benchmark::DoNotOptimize(snap.ok());
  }
}
BENCHMARK(BM_SnapshotFit);

void BM_DiffPropReduction(benchmark::State& state) {
  MicroFixture& f = MicroFixture::Get();
  ReductionConfig cfg;
  cfg.algorithm = ReductionAlgorithm::kDiffProp;
  cfg.num_references = static_cast<size_t>(state.range(0));
  for (auto _ : state) {
    auto r = ReduceFeatures(*f.qpp, f.train, cfg);
    benchmark::DoNotOptimize(r.ok());
  }
}
BENCHMARK(BM_DiffPropReduction)->Arg(16)->Arg(64);

// ------------------------------------------------------------ smoke gate

/// End-to-end kernel parity sweep without google-benchmark: every table
/// slot and dispatched entry point of every available tier (the segmented
/// gradient reductions included), over the real-shape table plus edge
/// shapes. Counts every mismatch and returns
/// false if there was one. This is what CI runs as `bench_micro --smoke`.
bool RunKernelSmoke() {
  using kernels::KernelIsa;
  using kernels::internal::Epilogue;
  size_t checks = 0;
  size_t failures = 0;
  auto expect_equal = [&](const Matrix& want, const Matrix& got,
                          const char* what) {
    ++checks;
    if (want.rows() != got.rows() || want.cols() != got.cols()) {
      std::cerr << "smoke: " << what << " shape mismatch\n";
      ++failures;
      return;
    }
    for (size_t i = 0; i < want.data().size(); ++i) {
      if (want.data()[i] != got.data()[i]) {
        std::cerr << "smoke: " << what << " bit mismatch at flat index " << i
                  << "\n";
        ++failures;
        return;
      }
    }
  };
  // The SIMD-tier gate: per-element error relative to max(|want|, 1), at
  // the documented cross-tier tolerance; tracks the tier's worst element.
  auto expect_close = [&](const Matrix& want, const Matrix& got,
                          const char* what, double* worst) {
    ++checks;
    if (want.rows() != got.rows() || want.cols() != got.cols()) {
      std::cerr << "smoke: " << what << " shape mismatch\n";
      ++failures;
      return;
    }
    double rel = 0.0;
    for (size_t r = 0; r < want.rows(); ++r) {
      for (size_t c = 0; c < want.cols(); ++c) {
        const double w = want.At(r, c);
        const double g = got.At(r, c);
        const double denom = std::abs(w) > 1.0 ? std::abs(w) : 1.0;
        const double e = std::abs(g - w) / denom;
        if (e > rel) rel = e;
      }
    }
    if (rel > kernels::kSimdRelTolerance) {
      std::cerr << "smoke: " << what << " relative error " << rel
                << " exceeds tolerance " << kernels::kSimdRelTolerance << "\n";
      ++failures;
      return;
    }
    if (rel > *worst) *worst = rel;
  };

  struct EdgeShape {
    size_t m, k, n;
    double sparsity;
  };
  std::vector<EdgeShape> shapes = {{0, 3, 4, 0.0}, {1, 1, 1, 0.0},
                                   {5, 9, 17, 0.5}, {13, 17, 11, 0.9},
                                   {8, 6, 8, 1.0}};
  for (const KernelShape& s : kKernelShapes) {
    shapes.push_back({s.m, s.k, s.n, s.sparsity});
  }
  // Full slot sweep against the reference loops under the pinned ISA
  // tier: bit gate when `worst` is null (scalar tier), tolerance gate
  // otherwise. The dense and sparse slots of each product must agree bit
  // for bit in every tier.
  auto sweep = [&](double* worst) {
    const kernels::internal::KernelTable& t = kernels::internal::ActiveTable();
    auto gate = [&](const Matrix& want, const Matrix& got, const char* what) {
      worst ? expect_close(want, got, what, worst)
            : expect_equal(want, got, what);
    };
    Rng rng(53);
    for (const EdgeShape& s : shapes) {
      Matrix a = RandomWithSparsity(s.m, s.k, s.sparsity, &rng);
      Matrix b = RandomWithSparsity(s.k, s.n, 0.0, &rng);
      Matrix bias = RandomWithSparsity(1, s.n, 0.0, &rng);
      Matrix at_a = RandomWithSparsity(s.k, s.m, s.sparsity, &rng);
      Matrix bt_b = RandomWithSparsity(s.n, s.k, 0.0, &rng);
      Matrix acc_seed = RandomWithSparsity(s.m, s.n, 0.0, &rng);
      Matrix want_nn, want_relu, want_bt, want_at, dense, sparse, got;
      kernels::reference::GemmNNBias(a, b, bias, &want_nn);
      kernels::reference::GemmNNBiasRelu(a, b, bias, &want_relu);
      kernels::reference::GemmBT(a, bt_b, &want_bt);
      kernels::reference::GemmAT(at_a, b, &want_at);
      Matrix want_acc = acc_seed;
      kernels::reference::GemmATAccumulate(at_a, b, &want_acc);

      t.dense_nn(a, b, &bias, &dense, Epilogue::kBias);
      gate(want_nn, dense, "dense_nn bias");
      t.sparse_nn(a, b, &sparse);
      kernels::internal::BiasPass(bias, &sparse);
      expect_equal(dense, sparse, "dense_nn vs sparse_nn");
      kernels::GemmNNBias(a, b, bias, &got);
      expect_equal(dense, got, "GemmNNBias vs dense_nn");
      t.dense_nn(a, b, &bias, &got, Epilogue::kBiasRelu);
      gate(want_relu, got, "dense_nn bias+relu");
      kernels::GemmNNBiasRelu(a, b, bias, &got);
      gate(want_relu, got, "GemmNNBiasRelu");
      t.bt(a, bt_b, &got);
      gate(want_bt, got, "bt");

      t.at_panel(at_a, b, &dense);
      gate(want_at, dense, "at_panel");
      t.at_stream(at_a, b, &sparse);
      expect_equal(dense, sparse, "at_panel vs at_stream");
      Matrix acc_panel = acc_seed;
      t.at_acc_panel(at_a, b, &acc_panel);
      gate(want_acc, acc_panel, "at_acc_panel");
      Matrix acc = acc_seed;
      t.at_acc_sparse(at_a, b, &acc);
      expect_equal(acc_panel, acc, "at_acc_panel vs at_acc_sparse");
      acc = acc_seed;
      kernels::GemmATAccumulate(at_a, b, &acc);
      expect_equal(acc_panel, acc, "GemmATAccumulate vs at_acc_panel");

      // Segmented reductions over the k contraction rows: a single-row
      // segment, an empty one, then segments of three and a ragged tail.
      std::vector<size_t> ends;
      if (s.k > 0) ends = {1, 1};
      for (size_t e = 4; e < s.k; e += 3) ends.push_back(e);
      ends.push_back(s.k);
      Matrix want_seg = acc_seed;
      kernels::reference::SegmentedATAccumulate(at_a, b, ends, &want_seg);
      Matrix seg = acc_seed;
      t.segmented_at_acc(at_a, b, ends.data(), ends.size(), &seg);
      gate(want_seg, seg, "segmented_at_acc");
      // Within the tier: one zeroed sink per segment, dispatched.
      Matrix sink_chain = acc_seed;
      for (size_t e = 0, begin = 0; e < ends.size(); begin = ends[e++]) {
        std::vector<size_t> rows;
        for (size_t r = begin; r < ends[e]; ++r) rows.push_back(r);
        Matrix sink(s.m, s.n);
        kernels::GemmATAccumulate(at_a.SelectRows(rows), b.SelectRows(rows),
                                  &sink);
        sink_chain.Add(sink);
      }
      expect_equal(sink_chain, seg, "segmented_at_acc vs sink per segment");
      Matrix want_colsum = bias;
      kernels::reference::SegmentedColSumAccumulate(b, ends, &want_colsum);
      Matrix colsum = bias;
      kernels::SegmentedColSumAccumulate(b, ends, &colsum);
      expect_equal(want_colsum, colsum, "SegmentedColSumAccumulate");
      if (s.k == 0) continue;
      // The rank-1 slot takes single rows: the first row of each operand.
      Matrix a1 = at_a.SelectRows({0});
      Matrix b1 = b.SelectRows({0});
      Matrix want_rank1 = acc_seed;
      kernels::reference::GemmATAccumulate(a1, b1, &want_rank1);
      acc = acc_seed;
      t.at_acc_rank1(a1, b1, &acc);
      gate(want_rank1, acc, "at_acc_rank1");
    }
  };

  for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
    if (!kernels::KernelIsaAvailable(isa)) continue;
    kernels::ScopedKernelIsa tier(isa);
    if (isa == KernelIsa::kScalar) {
      sweep(nullptr);
      std::cout << "kernel smoke [scalar]: bit-exact against reference\n";
      continue;
    }
    double worst = 0.0;
    sweep(&worst);
    std::cout << "kernel smoke [" << kernels::KernelIsaName(isa)
              << "]: max relative error " << worst << " (tolerance "
              << kernels::kSimdRelTolerance << ")\n";
  }

  std::cout << "kernel smoke: " << (checks - failures) << "/" << checks
            << " checks passed\n";
  return failures == 0;
}

// ------------------------------------------------------- persistence gate

/// Save -> Load -> PredictBatch bit-parity on a freshly fitted pipeline,
/// plus a typed-corruption rejection check. Runs as the second half of
/// `bench_micro --smoke`, so CI gates the persistence layer in the same
/// binary that gates kernel parity.
bool RunPersistSmoke() {
  HarnessOptions opt = OptionsFor("sysbench", RunScale::kQuick);
  opt.corpus_size = 120;
  opt.num_envs = 2;
  auto ctx = BenchmarkContext::Create(opt);
  if (!ctx.ok()) {
    std::cerr << "persist smoke: " << ctx.status().ToString() << "\n";
    return false;
  }
  std::vector<PlanSample> train, test;
  (*ctx)->Split(120, &train, &test);
  PipelineConfig cfg;
  cfg.estimator = "qppnet";
  cfg.pre_reduction_epochs = 2;
  cfg.train.epochs = 3;
  auto pipeline = (*ctx)->FitPipeline(cfg, train);
  if (!pipeline.ok()) {
    std::cerr << "persist smoke: " << pipeline.status().ToString() << "\n";
    return false;
  }

  Fs* fs = Fs::Default();
  const std::string path = "/tmp/qcfe_bench_smoke.qcfa";
  bool ok = true;
  if (Status s = (*pipeline)->Save(path); !s.ok()) {
    std::cerr << "persist smoke: " << s.ToString() << "\n";
    return false;
  }
  auto loaded = Pipeline::Load((*ctx)->db.get(), &(*ctx)->envs,
                               &(*ctx)->templates, path);
  if (!loaded.ok()) {
    std::cerr << "persist smoke: " << loaded.status().ToString() << "\n";
    ok = false;
  } else {
    auto want = (*pipeline)->PredictBatch(test);
    auto got = (*loaded)->PredictBatch(test);
    if (!want.ok() || !got.ok() || want->size() != got->size() ||
        std::memcmp(want->data(), got->data(),
                    want->size() * sizeof(double)) != 0) {
      std::cerr << "persist smoke: loaded pipeline is not bit-identical\n";
      ok = false;
    }
  }

  // Corruption must be rejected with a typed status, never served.
  if (auto bytes = fs->ReadFile(path); bytes.ok()) {
    std::string damaged = *bytes;
    damaged[damaged.size() / 2] ^= 0x01;
    QCFE_CHECK_OK(AtomicWriteFile(fs, path, damaged));
    auto rejected = Pipeline::Load((*ctx)->db.get(), &(*ctx)->envs,
                                   &(*ctx)->templates, path);
    if (rejected.ok() ||
        rejected.status().code() != StatusCode::kDataLoss) {
      std::cerr << "persist smoke: corrupted artifact not rejected as "
                   "DataLoss\n";
      ok = false;
    }
  } else {
    std::cerr << "persist smoke: " << bytes.status().ToString() << "\n";
    ok = false;
  }
  // Best-effort temp cleanup; the gate result is what matters.
  (void)fs->RemoveFile(path);
  if (ok) {
    std::cout << "persist smoke: save/load round trip bit-exact; corrupted "
                 "artifact rejected (DataLoss)\n";
  }
  return ok;
}

// ---------------------------------------------------- drift-detector gate

/// Sanity gate on the pure drift predicate (adapt/drift_detector.h): a
/// clearly drifted q-error window must trip, a stable one must not, and a
/// window below min_samples must never trip no matter how bad it looks.
/// Runs as the third leg of `bench_micro --smoke` so CI catches a
/// miscalibrated detector before it can flap production retrains.
bool RunAdaptSmoke() {
  adapt::DriftConfig cfg;  // stock thresholds, exactly what servers deploy
  bool ok = true;

  std::vector<double> stable;
  for (size_t i = 0; i < 64; ++i) stable.push_back(i % 2 == 0 ? 1.05 : 1.35);
  if (adapt::DetectDrift(stable, 1.2, cfg).drifted) {
    std::cerr << "adapt smoke: stable window tripped the detector\n";
    ok = false;
  }

  std::vector<double> drifted(64, 4.0);
  adapt::DriftVerdict v = adapt::DetectDrift(drifted, 1.2, cfg);
  if (!v.drifted || !v.mean_trip) {
    std::cerr << "adapt smoke: 4x-degraded window did not trip (mean "
              << v.window_mean_qerror << " vs baseline "
              << v.baseline_mean_qerror << ")\n";
    ok = false;
  }

  std::vector<double> premature(cfg.min_samples - 1, 100.0);
  if (adapt::DetectDrift(premature, 1.0, cfg).drifted) {
    std::cerr << "adapt smoke: tripped below min_samples\n";
    ok = false;
  }

  if (ok) {
    std::cout << "adapt smoke: drift detector trips on degraded windows, "
                 "stays quiet on stable and short ones\n";
  }
  return ok;
}

}  // namespace
}  // namespace qcfe

/// BENCHMARK_MAIN plus a post-run dump of the sweep results: any run that
/// included the *Threads / *Kernel* benchmarks updates BENCH_parallel.json
/// (merging with sections a partial rerun did not touch). `--smoke` runs
/// the kernel parity gate instead of benchmarks.
int main(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      const bool kernels_ok = qcfe::RunKernelSmoke();
      const bool persist_ok = qcfe::RunPersistSmoke();
      const bool adapt_ok = qcfe::RunAdaptSmoke();
      return kernels_ok && persist_ok && adapt_ok ? 0 : 1;
    }
  }
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  auto& recorder = qcfe::ParallelBenchRecorder::Get();
  if (!recorder.empty()) recorder.WriteJson("BENCH_parallel.json");
  return 0;
}
