// The repository benchmark: one workload per run, every end-to-end metric
// (or, with --trace 1, every per-layer metric) printed by name with its unit
// and sample count, and one JSON result object as the last line of stdout.
//
//   perfbench --workload fit-joblight --seed 1 --seconds 10 --trace 0
//             --work-dir .bench_build/perfbench/run
//
// Every workload runs the same production loop on its own benchmark
// database and estimator, so that every metric exists on every workload:
//
//   setup   build the database and collect the labeled corpus (at least 3
//           times; setup_s is the median)
//   fit     one warm-up Pipeline::Fit of the paper's Table IV QCFE cell,
//           whose pipeline is the one served below
//   batch   offline PredictBatch over the distinct corpus plans, in many
//           memory layouts (the plans copied, the model re-loaded, the heap
//           shifted), since the program's speed depends on the layout
//   lo      open-loop Poisson traffic through Pipeline::ServeAsync() at
//           the lo rate
//   fits    at least 4 timed fits on fresh copies of the training plans
//           (fit_s; 1 in traced runs)
//   batch, lo  a second window of each, so that their medians span the
//           timed fits
//   hi      open-loop traffic at the hi rate (traced runs then climb a
//           rate ladder for serve.max_rate_pps)
//   adapt   the model is saved, loaded into a hot-swappable server with an
//           AdaptationController attached, and served at the lo rate with
//           true latencies reported back; in each of at least three
//           independent episodes (more while time allows) the saved model
//           is redeployed, served healthy, then env 0's actuals drift to 4x
//           their labels until the retrained model that causes publishes
//
// The workloads differ in what dominates them: job-light's collection and
// QPPNet fit (fit-joblight), TPC-H's MSCN forward (serve-tpch), and
// sysbench's cheap fit that makes adaptation cycles short (adapt-drift).
//
// Every served reply is checked bit for bit against PredictBatch on the
// same plan, timed fits must reproduce the warm-up fit's predictions bit for
// bit, and adaptation must not fail a retrain, save or swap. Each violation
// counts as a failed attempt and makes the run exit 1.
//
// With --trace 1 the benchmark also calls each layer's public functions
// itself (snapshot, pre-train, reduction, train, engine plan/run,
// featurizer encode, GEMM, retrain/save/swap), records spans around every
// call into the program, and reports per-layer times, self time per layer
// and the tracing overhead. Nothing inside the program is instrumented.

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <future>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "adapt/adaptation_controller.h"
#include "bench_util.h"
#include "core/feature_reduction.h"
#include "core/pipeline.h"
#include "core/qcfe.h"
#include "core/snapshot_featurizer.h"
#include "engine/plan.h"
#include "featurize/featurizer.h"
#include "harness/context.h"
#include "models/registry.h"
#include "nn/kernels.h"
#include "nn/layers.h"
#include "serve/async_server.h"
#include "serve/model_swap.h"
#include "sql/data_abstract.h"
#include "util/rng.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

namespace perfbench {
namespace {

using qcfe::PlanSample;

struct WorkloadSpec {
  const char* name;
  const char* benchmark;
  const char* estimator;
};

constexpr WorkloadSpec kWorkloads[] = {
    {"fit-joblight", "joblight", "qppnet"},
    {"serve-tpch", "tpch", "mscn"},
    {"adapt-drift", "sysbench", "qppnet"},
};

constexpr int kMinSetups = 3;
constexpr int kMinTimedFits = 4;
// Offline batches, in each of two windows: at least kMinBatchDraws memory
// layouts, more while the window is under half of kBatchShare of
// --seconds; kBatchCallsPerDraw calls each.
constexpr int kMinBatchDraws = 16;
constexpr int kBatchCallsPerDraw = 2;
constexpr double kLoRate = 2000.0;   // deadline-bound: a few plans per batch
constexpr double kHiRate = 12000.0;  // fills batches
// Rate ladder: kLadderStart * 2^k up to kLadderTop, then kBisections
// geometric bisection steps between the last passing and first failing
// rate. A rate passes when p90 <= kLadderP90Ms, nothing is rejected or
// fails, and every request completes within kDrainLimitS of the phase end;
// it fails when two attempts in a row do not pass.
constexpr double kLadderStart = 4000.0;
constexpr double kLadderTop = 512000.0;
constexpr int kBisections = 3;
constexpr double kLadderP90Ms = 20.0;
constexpr double kDrainLimitS = 1.0;
constexpr int kDriftEnv = 0;
constexpr double kDriftFactor = 4.0;  // env-0 actual / label after onset
// Drift episodes: at least kMinEpisodes, more while the adapt phase is
// under kEpisodeShare of --seconds (cheap cycles get more samples).
constexpr int kMinEpisodes = 3;
constexpr int kMaxEpisodes = 16;
// Healthy traffic before a later episode's onset, as a multiple of the time
// the lo rate takes to fill the retraining buffer.
constexpr double kRefillMargin = 1.2;
constexpr size_t kRepeatWindow = 64;

// Phase lengths as shares of --seconds.
constexpr double kSetupShare = 0.15;  // cheap setups repeat past kMinSetups
constexpr double kFitShare = 0.25;
constexpr double kBatchShare = 0.3;   // over two windows
constexpr double kLoShare = 0.3;      // over two windows
constexpr double kHiShare = 0.15;
constexpr double kRungShare = 0.03;
constexpr double kHealthyShare = 0.10;
constexpr double kPostPublishShare = 0.05;
constexpr double kEpisodeShare = 0.6;
constexpr double kEpisodeTimeoutS = 30.0;
constexpr double kAdaptTimeoutS = 120.0;

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir = ".";
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (key == "--trace") {
      args->trace = value == "1";
    } else if (key == "--work-dir") {
      args->work_dir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

// ------------------------------------------------------------ reporting

/// One reported metric with its sample count (printed, not in the JSON).
struct Metric {
  double value = 0.0;
  std::string unit;
  size_t samples = 1;
};

class Report {
 public:
  void Set(const std::string& name, double value, const std::string& unit,
           size_t samples = 1) {
    metrics_[name] = {value, unit, samples};
  }
  const std::map<std::string, Metric>& metrics() const { return metrics_; }

 private:
  std::map<std::string, Metric> metrics_;
};

/// Failures counted against attempts, with the first few reasons kept.
struct Tally {
  size_t attempted = 0;
  size_t failed = 0;
  std::vector<std::string> reasons;

  void Attempt(size_t n = 1) { attempted += n; }
  void Fail(const std::string& why, size_t n = 1) {
    failed += n;
    if (reasons.size() < 20) reasons.push_back(why);
  }
};

std::string Fmt(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

// -------------------------------------------------------------- host noise

/// Process CPU seconds (user + system).
double ProcessCpuSeconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double PeakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

/// Aggregate CPU jiffies from /proc/stat: {steal, total}. Zeros when the
/// file is unavailable.
std::pair<double, double> StealAndTotalJiffies() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  if (cpu != "cpu") return {0.0, 0.0};
  double total = 0.0, steal = 0.0;
  for (int i = 0; i < 8; ++i) {
    double v = 0.0;
    if (!(in >> v)) break;
    total += v;
    if (i == 7) steal = v;
  }
  return {steal, total};
}

// -------------------------------------------------------------- the world

/// Everything a workload serves from: database, environments, templates and
/// the labeled corpus with its 80/20 split.
struct World {
  qcfe::HarnessOptions options;
  std::unique_ptr<qcfe::BenchmarkWorkload> workload;
  std::unique_ptr<qcfe::Database> db;
  std::vector<qcfe::Environment> envs;
  std::vector<qcfe::QueryTemplate> templates;
  std::unique_ptr<qcfe::ThreadPool> pool;
  qcfe::LabeledQuerySet corpus;
  std::vector<PlanSample> all, train, test;
  double build_db_s = 0.0, collect_s = 0.0;
};

/// Setup: the Table IV context at quick scale, exactly as the harness
/// builds it (BenchmarkContext::Create and Split), so the fitted cell is the
/// paper cell. The workload seed drives the traffic, not the corpus: q-error
/// is then a property of the code alone, not of which corpus was drawn.
qcfe::Result<std::unique_ptr<World>> BuildWorld(const WorkloadSpec& spec,
                                                int threads, Tracer* tracer) {
  auto w = std::make_unique<World>();
  w->options = qcfe::OptionsFor(spec.benchmark, qcfe::RunScale::kQuick);
  w->options.num_threads = threads;
  auto workload = qcfe::MakeBenchmark(spec.benchmark);
  if (!workload.ok()) return workload.status();
  w->workload = std::move(workload.value());
  double t0 = NowSeconds();
  {
    ScopedSpan span(tracer, "workload.build_db");
    w->db = w->workload->BuildDatabase(w->options.scale_factor,
                                       w->options.seed);
  }
  w->build_db_s = NowSeconds() - t0;
  w->envs = qcfe::EnvironmentSampler::Sample(
      w->options.num_envs, qcfe::HardwareProfile::H1(),
      w->options.seed * 31 + 5);
  w->templates = w->workload->Templates();
  if (threads > 1) w->pool = std::make_unique<qcfe::ThreadPool>(threads);
  t0 = NowSeconds();
  {
    ScopedSpan span(tracer, "workload.collect");
    qcfe::QueryCollector collector(w->db.get(), &w->envs);
    auto corpus = collector.Collect(w->templates, w->options.corpus_size,
                                    w->options.seed * 13 + 3,
                                    w->pool.get());
    if (!corpus.ok()) return corpus.status();
    w->corpus = std::move(corpus.value());
  }
  w->collect_s = NowSeconds() - t0;
  for (const qcfe::LabeledQuery& q : w->corpus.queries) {
    w->all.push_back({q.plan.get(), q.env_id, q.total_ms});
  }
  qcfe::TrainTestSplit split = qcfe::SplitIndices(
      w->all.size(), 0.8, w->options.seed * 7 + 1);
  for (size_t i : split.train) w->train.push_back(w->all[i]);
  for (size_t i : split.test) w->test.push_back(w->all[i]);
  return w;
}

/// The Table IV QCFE cell exactly as harness RunCell configures it.
qcfe::PipelineConfig CellConfig(const WorkloadSpec& spec, const World& w,
                                int threads) {
  const bool mscn = std::string(spec.estimator) == "mscn";
  const int epochs = mscn ? w.options.mscn_epochs : w.options.qpp_epochs;
  qcfe::PipelineConfig cfg;
  cfg.estimator = spec.estimator;
  cfg.use_snapshot = true;
  cfg.use_reduction = true;
  cfg.snapshot_from_templates = true;
  cfg.snapshot_scale = 2;
  cfg.pre_reduction_epochs = std::max(8, epochs / 2);
  cfg.train.epochs = epochs;
  cfg.seed = w.options.seed * 97 + (mscn ? 7 : 0) + 3;
  cfg.parallelism.num_threads = threads;
  return cfg;
}

size_t CountNodes(const qcfe::PlanNode& node) {
  size_t n = 1;
  for (const auto& child : node.children) n += CountNodes(*child);
  return n;
}

uint64_t RequestKey(const PlanSample& s) {
  return Mix(reinterpret_cast<uintptr_t>(s.plan), static_cast<uint64_t>(
                                                      s.env_id));
}

bool SameBits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

// -------------------------------------------------------- open-loop traffic

/// One open-loop request: which corpus plan, when it was due, sent and
/// completed (steady-clock seconds), and its outcome.
struct Slot {
  size_t plan = 0;
  double due = 0.0;
  double sent = 0.0;
  double done = 0.0;
  double submit_us = 0.0;
  std::future<qcfe::Result<double>> reply;
  double value = 0.0;
  enum class Outcome { kPending, kOk, kRejected, kError } outcome =
      Outcome::kPending;
};

struct TrafficResult {
  std::vector<Slot> slots;  // the first `sent` are real requests
  size_t sent = 0;
  double start = 0.0;
  double gen_end = 0.0;    // when the generator stopped sending
  double last_done = 0.0;  // last completion
  qcfe::AsyncServeStats before, after;
};

/// Open-loop Poisson traffic at `rate` over the corpus plans: this thread
/// sends on schedule, one collector thread waits for replies in send order
/// and stamps completions. With `spin` both spin rather than sleep, so
/// neither adds its own wake-up delay to a request's latency, at the cost
/// of a CPU each; without it they sleep and block, leaving the CPUs to
/// background work such as retraining. Runs for `duration` seconds, or —
/// when `stop` is given — until *stop turns true (duration is then the
/// upper bound). `on_reply` runs on the collector thread after each reply.
TrafficResult RunTraffic(qcfe::AsyncServer* server,
                         const std::vector<PlanSample>& plans, double rate,
                         double duration, uint64_t seed,
                         const std::atomic<bool>* stop,
                         const std::function<void(Slot&)>& on_reply,
                         bool spin) {
  TrafficResult res;
  const std::vector<double> due = PoissonSchedule(seed, rate, duration);
  res.slots.resize(due.size());
  Rng pick(Mix(seed, 1));
  std::atomic<size_t> published{0};
  std::atomic<bool> gen_done{false};
  res.before = server->stats();

  std::thread collector([&] {
    for (size_t i = 0;; ++i) {
      while (published.load(std::memory_order_acquire) <= i) {
        if (gen_done.load(std::memory_order_acquire) &&
            published.load(std::memory_order_acquire) <= i) {
          return;
        }
        if (spin) {
          std::this_thread::yield();
        } else {
          std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
      }
      Slot& s = res.slots[i];
      if (spin) {
        while (s.reply.wait_for(std::chrono::seconds(0)) !=
               std::future_status::ready) {
          std::this_thread::yield();
        }
      } else {
        s.reply.wait();
      }
      s.done = NowSeconds();
      qcfe::Result<double> r = s.reply.get();
      if (r.ok()) {
        s.value = *r;
        s.outcome = Slot::Outcome::kOk;
      } else if (r.status().code() == qcfe::StatusCode::kUnavailable) {
        s.outcome = Slot::Outcome::kRejected;
      } else {
        s.outcome = Slot::Outcome::kError;
      }
      res.last_done = std::max(res.last_done, s.done);
      if (on_reply) on_reply(s);
    }
  });

  res.start = NowSeconds() + 1e-3;
  size_t i = 0;
  for (; i < due.size(); ++i) {
    if (stop != nullptr && stop->load(std::memory_order_acquire)) break;
    const double when = res.start + due[i];
    for (double now = NowSeconds(); now < when; now = NowSeconds()) {
      if (spin) {
        std::this_thread::yield();
      } else {
        std::this_thread::sleep_for(std::chrono::duration<double>(when - now));
      }
    }
    Slot& s = res.slots[i];
    s.plan = pick.Below(plans.size());
    s.due = when;
    s.sent = NowSeconds();
    s.reply = server->Submit(*plans[s.plan].plan, plans[s.plan].env_id);
    s.submit_us = 1e6 * (NowSeconds() - s.sent);
    published.store(i + 1, std::memory_order_release);
  }
  res.gen_end = std::max(NowSeconds(), res.start + (stop ? 0.0 : duration));
  gen_done.store(true, std::memory_order_release);
  collector.join();
  res.sent = i;
  res.after = server->stats();
  return res;
}

/// Serving-phase summary used by the lo/hi phases and the ladder.
struct PhaseSummary {
  std::vector<double> lat_ms;
  size_t sent = 0, rejected = 0, errors = 0, wrong = 0;
  double drain_s = 0.0;
  double achieved_rate = 0.0;
  double occupancy = 0.0;
  double deadline_frac = 0.0, full_frac = 0.0;
  std::vector<double> late_ms, submit_us;
};

PhaseSummary Summarize(const TrafficResult& r,
                       const std::vector<double>& reference) {
  PhaseSummary p;
  p.sent = r.sent;
  for (size_t i = 0; i < r.sent; ++i) {
    const Slot& s = r.slots[i];
    p.late_ms.push_back(1e3 * (s.sent - s.due));
    p.submit_us.push_back(s.submit_us);
    p.rejected += s.outcome == Slot::Outcome::kRejected;
    p.errors += s.outcome == Slot::Outcome::kError;
    if (s.outcome != Slot::Outcome::kOk) continue;
    p.lat_ms.push_back(1e3 * (s.done - s.due));
    if (!reference.empty() && !SameBits(s.value, reference[s.plan])) {
      ++p.wrong;
    }
  }
  p.drain_s = r.last_done - r.gen_end;
  if (r.sent > 0 && r.last_done > r.start) {
    p.achieved_rate = static_cast<double>(r.sent) / (r.last_done - r.start);
  }
  const double batches = static_cast<double>(r.after.batches_flushed -
                                             r.before.batches_flushed);
  if (batches > 0) {
    p.occupancy = static_cast<double>(r.after.served - r.before.served) /
                  batches;
    p.deadline_frac = static_cast<double>(r.after.deadline_flushes -
                                          r.before.deadline_flushes) /
                      batches;
    p.full_frac =
        static_cast<double>(r.after.full_flushes - r.before.full_flushes) /
        batches;
  }
  return p;
}

// ------------------------------------------------------------- the script

class Bench {
 public:
  Bench(const Args& args, const WorkloadSpec& spec)
      : args_(args),
        spec_(spec),
        tracer_(args.trace),
        collect_threads_(static_cast<int>(std::min<unsigned>(
            4, std::max(1u, std::thread::hardware_concurrency())))) {}

  int Run();

 private:
  bool Setup();
  /// Fits the Table IV cell on `train`; null (and a counted failure) when
  /// Fit fails.
  std::unique_ptr<qcfe::Pipeline> FitCell(
      const std::vector<PlanSample>& train);
  bool FitPhase();
  void TimedFits();
  void TracedFitParity();
  void TracedLayerSamples();
  /// One window of offline batches, about `seconds` long.
  void BatchPhase(double seconds);
  /// One window of lo-rate traffic drawn from traffic stream `stream`.
  void ServeLo(uint64_t stream);
  /// The hi-rate window; then reports the serving metrics of all windows.
  void ServeHi();
  void Ladder();
  void AdaptPhase();
  void TracedAdaptCalls(qcfe::adapt::AdaptationController* controller,
                        qcfe::SwappableModel* models,
                        qcfe::AsyncServer* server,
                        const qcfe::adapt::AdaptationConfig& acfg);
  /// Counts a serving phase's requests and failures, and its generator
  /// lateness and rejections.
  void Account(const PhaseSummary& p, const char* phase, bool ladder);
  int Finish();

  double S(double share) const { return share * args_.seconds; }

  const Args args_;
  const WorkloadSpec spec_;
  Tracer tracer_;
  // Collection runs across min(4, nproc) workers. The fitted pipeline is
  // serial: on a shared 4-vCPU host its thread-pool paths are slower and
  // their timings spread several times wider, since every parallel step
  // waits for the most delayed worker. Traced runs time one parallel fit
  // (core.fit_parallel_s) to keep those paths in view.
  const int collect_threads_;
  static constexpr int kFitThreads = 1;
  Report e2e_, layer_;
  Tally tally_;
  double run_start_ = 0.0;

  std::unique_ptr<World> world_;
  qcfe::PipelineConfig cfg_;
  std::unique_ptr<qcfe::Pipeline> served_;
  std::vector<double> reference_;  // served_->PredictBatch(world_->all)
  std::vector<double> test_preds_;  // served_->PredictBatch(world_->test)
  // Batch and lo-rate windows accumulate here across the run.
  std::vector<double> batch_rates_;  // per call, for the quartiles
  double batch_plans_ = 0.0, batch_seconds_ = 0.0;
  int batch_draws_ = 0;
  std::vector<PhaseSummary> lo_windows_;
  std::vector<double> setup_s_, build_db_s_, collect_s_;
  double fit_s_ = 0.0;
  double warmup_fit_s_ = 0.0;
  double hi_occupancy_ = 1.0;
  double nodes_per_plan_ = 0.0;
  std::vector<double> late_ms_;
  std::vector<uint64_t> request_keys_;
  size_t rejected_total_ = 0;
};

/// Heap bytes allocated (and touched) to shift where the next allocations
/// land: up to 64 KiB in 16-byte steps, drawn from `rng`.
std::vector<char> HeapShift(Rng* rng) {
  return std::vector<char>(16 * (1 + rng->Below(4096)), 1);
}

/// `samples` on deep copies of their plans, allocated in an order drawn
/// from `rng` so the copies lie in memory unlike the originals; `owner`
/// keeps the copies alive.
std::vector<PlanSample> ShuffledClones(
    const std::vector<PlanSample>& samples, Rng* rng,
    std::vector<std::unique_ptr<qcfe::PlanNode>>* owner) {
  std::vector<size_t> order(samples.size());
  for (size_t i = 0; i < order.size(); ++i) order[i] = i;
  for (size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng->Below(i)]);
  }
  owner->clear();
  owner->resize(samples.size());
  for (size_t i : order) (*owner)[i] = samples[i].plan->Clone();
  std::vector<PlanSample> out = samples;
  for (size_t i = 0; i < out.size(); ++i) out[i].plan = (*owner)[i].get();
  return out;
}

bool Bench::Setup() {
  const double phase_start = NowSeconds();
  while (static_cast<int>(setup_s_.size()) < kMinSetups ||
         NowSeconds() - phase_start < S(kSetupShare)) {
    world_.reset();
    const double t0 = NowSeconds();
    ScopedSpan span(&tracer_, "bench.setup");
    auto world = BuildWorld(spec_, collect_threads_, &tracer_);
    if (!world.ok()) {
      std::cerr << "setup failed: " << world.status().ToString() << "\n";
      return false;
    }
    world_ = std::move(world.value());
    setup_s_.push_back(NowSeconds() - t0);
    build_db_s_.push_back(world_->build_db_s);
    collect_s_.push_back(world_->collect_s);
  }
  size_t nodes = 0;
  for (const PlanSample& s : world_->all) nodes += CountNodes(*s.plan);
  nodes_per_plan_ =
      static_cast<double>(nodes) / static_cast<double>(world_->all.size());
  e2e_.Set("setup_s", Median(setup_s_), "s", setup_s_.size());
  return true;
}

std::unique_ptr<qcfe::Pipeline> Bench::FitCell(
    const std::vector<PlanSample>& train) {
  World& w = *world_;
  ScopedSpan span(&tracer_, "core.fit");
  tally_.Attempt();
  auto p =
      qcfe::Pipeline::Fit(w.db.get(), &w.envs, &w.templates, cfg_, train);
  if (!p.ok()) {
    tally_.Fail("fit: " + p.status().ToString());
    return nullptr;
  }
  return std::move(p.value());
}

bool Bench::FitPhase() {
  cfg_ = CellConfig(spec_, *world_, kFitThreads);
  World& w = *world_;
  const double warmup_start = NowSeconds();
  served_ = FitCell(w.train);  // warm-up; this pipeline is served below
  warmup_fit_s_ = NowSeconds() - warmup_start;
  if (served_ == nullptr) return false;
  auto test_preds = served_->PredictBatch(w.test);
  auto all_preds = served_->PredictBatch(w.all);
  if (!test_preds.ok() || !all_preds.ok()) {
    tally_.Fail("warm-up PredictBatch failed");
    return false;
  }
  reference_ = *all_preds;
  test_preds_ = *test_preds;

  std::vector<double> qerrors, actual;
  for (size_t i = 0; i < w.test.size(); ++i) {
    qerrors.push_back(QErrorOf(w.test[i].label_ms, test_preds_[i]));
    actual.push_back(w.test[i].label_ms);
  }
  e2e_.Set("qerror_mean", MeanOf(qerrors), "ratio", qerrors.size());
  e2e_.Set("qerror_p90", Percentile(qerrors, 0.9), "ratio", qerrors.size());
  e2e_.Set("pearson", PearsonOf(actual, test_preds_), "r", qerrors.size());
  layer_.Set("core.reduction_ratio", served_->reduction().ReductionRatio(),
             "frac");
  layer_.Set("models.pretrain_reported_s",
             served_->pre_train_stats().train_seconds, "s");
  layer_.Set("models.train_reported_s", served_->train_stats().train_seconds,
             "s");
  return true;
}

void Bench::TimedFits() {
  World& w = *world_;
  std::vector<double> fit_times;
  const double phase_start = NowSeconds();
  // Traced runs time one fit: their fit_s only feeds trace.fit_s.
  const int min_fits = tracer_.enabled() ? 1 : kMinTimedFits;
  // Each fit trains on fresh copies of the training plans from a shifted
  // heap, so the fits sample different memory layouts rather than
  // repeating one (see BatchPhase).
  Rng rng(Mix(args_.seed, 0xF17));
  while (static_cast<int>(fit_times.size()) < min_fits ||
         (!tracer_.enabled() && NowSeconds() - phase_start < S(kFitShare))) {
    std::vector<std::unique_ptr<qcfe::PlanNode>> clones;
    const std::vector<PlanSample> train =
        ShuffledClones(w.train, &rng, &clones);
    std::vector<char> shift = HeapShift(&rng);
    const double t0 = NowSeconds();
    std::unique_ptr<qcfe::Pipeline> p = FitCell(train);
    fit_times.push_back(NowSeconds() - t0);
    if (p == nullptr) return;
    auto again = p->PredictBatch(w.test);
    tally_.Attempt();
    bool same = again.ok() && again->size() == test_preds_.size();
    for (size_t i = 0; same && i < again->size(); ++i) {
      same = SameBits((*again)[i], test_preds_[i]);
    }
    if (!same) tally_.Fail("timed fit is not bit-identical to the warm-up fit");
  }
  fit_s_ = Median(fit_times);
  std::cout << "fit: " << fit_times.size() << " timed fits, s:";
  for (double t : fit_times) std::cout << " " << Fmt(t);
  std::cout << "\n";
  e2e_.Set("fit_s", fit_s_, "s", fit_times.size());
}

/// Re-runs Fit's stages through the layers' public functions and checks
/// they reproduce the warm-up fit: the spans then time the same work that
/// fit_s contains.
void Bench::TracedFitParity() {
  World& w = *world_;
  qcfe::ThreadPool* pool = served_->thread_pool();
  qcfe::SnapshotStore store;
  double collection_ms = 0.0;
  size_t snapshot_queries = 0, snapshot_templates = 0;
  const double t_snap = NowSeconds();
  {
    ScopedSpan span(&tracer_, "core.snapshot");
    tally_.Attempt();
    qcfe::SnapshotBuilder builder(w.db.get(), &w.templates);
    qcfe::Status s = builder.ComputeSnapshots(
        w.envs, cfg_.snapshot_from_templates, cfg_.snapshot_scale, cfg_.seed,
        &store, &collection_ms, &snapshot_queries, &snapshot_templates,
        cfg_.snapshot_granularity, pool);
    if (!s.ok()) tally_.Fail("ComputeSnapshots: " + s.ToString());
  }
  const double snapshot_s = NowSeconds() - t_snap;
  bool same_snapshot =
      store.EnvIds() == served_->snapshot_store()->EnvIds();
  for (int env : store.EnvIds()) {
    for (size_t op = 0; same_snapshot && op < qcfe::kNumOpTypes; ++op) {
      const auto& a = store.Get(env)->Get(static_cast<qcfe::OpType>(op));
      const auto& b = served_->snapshot_store()->Get(env)->Get(
          static_cast<qcfe::OpType>(op));
      for (size_t k = 0; k < qcfe::kSnapshotWidth; ++k) {
        same_snapshot &= SameBits(a.coeffs[k], b.coeffs[k]);
      }
    }
  }
  if (!same_snapshot) tally_.Fail("snapshot parity: differs from Fit's");

  qcfe::EstimatorRegistry& registry = qcfe::EstimatorRegistry::Global();
  qcfe::BaseFeaturizer base(w.db->catalog());
  qcfe::SnapshotFeaturizer snap(&base, &store, false);
  auto provisional =
      registry.Create(cfg_.estimator, {w.db->catalog(), &snap, cfg_.seed + 1});
  tally_.Attempt();
  if (!provisional.ok()) {
    tally_.Fail("provisional model: " + provisional.status().ToString());
    return;
  }
  (*provisional)->set_thread_pool(pool);
  qcfe::TrainConfig pre_cfg = cfg_.train;
  pre_cfg.epochs = cfg_.pre_reduction_epochs;
  pre_cfg.eval_every = 0;
  qcfe::TrainStats pre_stats;
  const double t_pre = NowSeconds();
  {
    ScopedSpan span(&tracer_, "models.pretrain");
    qcfe::Status s = (*provisional)->Train(w.train, pre_cfg, &pre_stats);
    if (!s.ok()) tally_.Fail("pretrain: " + s.ToString());
  }
  layer_.Set("models.pretrain_s", NowSeconds() - t_pre, "s");

  const double t_red = NowSeconds();
  qcfe::Result<qcfe::ReductionResult> reduction = qcfe::ReductionResult{};
  {
    ScopedSpan span(&tracer_, "core.reduce");
    reduction = qcfe::ReduceFeatures(**provisional, w.train, cfg_.reduction,
                                     pool);
  }
  const double reduce_s = NowSeconds() - t_red;
  tally_.Attempt();
  if (!reduction.ok()) {
    tally_.Fail("ReduceFeatures: " + reduction.status().ToString());
    return;
  }
  const bool uniform = registry.Info(cfg_.estimator)->uniform_feature_width;
  if (reduction->KeptMap(uniform) != served_->reduction().KeptMap(uniform)) {
    tally_.Fail("reduction parity: kept set differs from Fit's");
  }

  qcfe::MaskedFeaturizer masked(&snap, reduction->KeptMap(uniform));
  auto final_model =
      registry.Create(cfg_.estimator, {w.db->catalog(), &masked,
                                       cfg_.seed + 2});
  tally_.Attempt();
  if (!final_model.ok()) {
    tally_.Fail("final model: " + final_model.status().ToString());
    return;
  }
  (*final_model)->set_thread_pool(pool);
  qcfe::TrainStats train_stats;
  const double t_train = NowSeconds();
  {
    ScopedSpan span(&tracer_, "models.train");
    qcfe::Status s = (*final_model)->Train(w.train, cfg_.train, &train_stats);
    if (!s.ok()) tally_.Fail("train: " + s.ToString());
  }
  layer_.Set("models.train_s", NowSeconds() - t_train, "s");
  auto mine = (*final_model)->PredictBatchMs(w.test);
  auto theirs = served_->PredictBatch(w.test);
  tally_.Attempt();
  bool same_model = mine.ok() && theirs.ok() && mine->size() == theirs->size();
  for (size_t i = 0; same_model && i < mine->size(); ++i) {
    same_model = SameBits((*mine)[i], (*theirs)[i]);
  }
  if (!same_model) tally_.Fail("train parity: predictions differ from Fit's");

  // One fit on the thread-pool paths, for the per-layer view; it must be
  // bit-identical to the serial fit.
  qcfe::PipelineConfig parallel = cfg_;
  parallel.parallelism.num_threads = collect_threads_;
  const double t_par = NowSeconds();
  {
    ScopedSpan span(&tracer_, "core.fit_parallel");
    auto p = qcfe::Pipeline::Fit(w.db.get(), &w.envs, &w.templates, parallel,
                                 w.train);
    tally_.Attempt();
    auto preds = p.ok() ? (*p)->PredictBatch(w.test)
                        : qcfe::Result<std::vector<double>>(p.status());
    bool same = preds.ok() && theirs.ok() && preds->size() == theirs->size();
    for (size_t i = 0; same && i < preds->size(); ++i) {
      same = SameBits((*preds)[i], (*theirs)[i]);
    }
    if (!same) tally_.Fail("parallel fit is not bit-identical to serial");
  }
  layer_.Set("core.fit_parallel_s", NowSeconds() - t_par, "s");
  layer_.Set("core.fit_parallel_threads", collect_threads_, "count");
  layer_.Set("core.snapshot_s", snapshot_s, "s");
  layer_.Set("core.snapshot_queries", static_cast<double>(snapshot_queries),
             "count");
  layer_.Set("core.reduce_s", reduce_s, "s");
  // The warm-up fit's wall time against its own reported train times.
  layer_.Set("core.fit_glue_s",
             warmup_fit_s_ - snapshot_s - reduce_s -
                 served_->pre_train_stats().train_seconds -
                 served_->train_stats().train_seconds,
             "s");
}

/// Engine, featurizer, forward and GEMM samples timed from outside.
void Bench::TracedLayerSamples() {
  World& w = *world_;
  // Engine: plan and run fresh template instantiations under env 0.
  qcfe::DataAbstract abstract(w.db->catalog());
  qcfe::Rng inst(Mix(args_.seed, 11));
  qcfe::Rng noise(Mix(args_.seed, 12));
  std::vector<double> plan_us, run_us;
  for (size_t i = 0; i < 200; ++i) {
    auto spec = w.templates[i % w.templates.size()].Instantiate(abstract,
                                                                &inst);
    tally_.Attempt();
    if (!spec.ok()) {
      tally_.Fail("instantiate: " + spec.status().ToString());
      continue;
    }
    double t0 = NowSeconds();
    {
      ScopedSpan span(&tracer_, "engine.plan");
      auto plan = w.db->Plan(*spec, w.envs[0].knobs);
      if (!plan.ok()) tally_.Fail("plan: " + plan.status().ToString());
    }
    plan_us.push_back(1e6 * (NowSeconds() - t0));
    t0 = NowSeconds();
    {
      ScopedSpan span(&tracer_, "engine.run");
      auto run = w.db->Run(*spec, w.envs[0], &noise);
      if (!run.ok()) tally_.Fail("run: " + run.status().ToString());
    }
    run_us.push_back(1e6 * (NowSeconds() - t0));
  }
  layer_.Set("engine.plan_us", Median(plan_us), "us", plan_us.size());
  layer_.Set("engine.run_us", Median(run_us), "us", run_us.size());

  // Featurizer: encode every node of every corpus plan.
  const qcfe::OperatorFeaturizer* feat = served_->active_featurizer();
  size_t nodes = 0;
  std::function<void(const qcfe::PlanNode&, size_t, int)> encode =
      [&](const qcfe::PlanNode& n, size_t depth, int env) {
        nodes += !feat->Encode(n, depth, env).empty();
        for (const auto& c : n.children) encode(*c, depth + 1, env);
      };
  const double t_enc = NowSeconds();
  {
    ScopedSpan span(&tracer_, "featurize.encode");
    for (const PlanSample& s : w.all) encode(*s.plan, 0, s.env_id);
  }
  layer_.Set("featurize.encode_us_per_node",
             1e6 * (NowSeconds() - t_enc) / static_cast<double>(nodes),
             "us", nodes);

  // Model forward at the hi phase's mean batch occupancy, distinct plans.
  const size_t k = std::max<size_t>(1, std::lround(hi_occupancy_));
  const double t_fwd = NowSeconds();
  size_t forwarded = 0;
  {
    ScopedSpan span(&tracer_, "models.forward");
    for (size_t b = 0; b + k <= w.all.size(); b += k) {
      std::vector<PlanSample> chunk(w.all.begin() + b, w.all.begin() + b + k);
      auto r = served_->model().PredictBatchMs(chunk,
                                               served_->thread_pool());
      tally_.Attempt();
      if (!r.ok()) tally_.Fail("forward: " + r.status().ToString());
      forwarded += k;
    }
  }
  layer_.Set("models.forward_us_per_plan",
             1e6 * (NowSeconds() - t_fwd) / static_cast<double>(forwarded),
             "us", forwarded);

  // GEMM at the first layer of the served model's view of its most common
  // operator type, with as many rows as that operator has per batch.
  std::map<qcfe::OpType, size_t> op_counts;
  std::function<void(const qcfe::PlanNode&)> count =
      [&](const qcfe::PlanNode& n) {
        ++op_counts[n.op];
        for (const auto& c : n.children) count(*c);
      };
  for (const PlanSample& s : w.all) count(*s.plan);
  qcfe::OpType op = op_counts.begin()->first;
  for (const auto& [t, n] : op_counts) {
    if (n > op_counts[op]) op = t;
  }
  std::vector<PlanSample> context(
      w.train.begin(), w.train.begin() + std::min<size_t>(64, w.train.size()));
  auto view = served_->model().OperatorView(op, context);
  size_t in = 16, out = 16;
  if (view.ok() && !view->layers().empty()) {
    if (auto* lin = dynamic_cast<const qcfe::LinearLayer*>(
            view->layers()[0].get())) {
      in = lin->in_dim();
      out = lin->out_dim();
    }
  }
  const double per_plan = static_cast<double>(op_counts[op]) /
                          static_cast<double>(w.all.size());
  const size_t m = std::max<size_t>(1, std::lround(hi_occupancy_ * per_plan));
  std::vector<double> fa(m * in), fb(in * out), fbias(out);
  Rng fill(Mix(args_.seed, 13));
  for (double& v : fa) v = fill.Uniform() - 0.5;
  for (double& v : fb) v = fill.Uniform() - 0.5;
  for (double& v : fbias) v = fill.Uniform() - 0.5;
  qcfe::Matrix a(m, in, fa), bmat(in, out, fb), bias(1, out, fbias), result;
  std::vector<double> call_us;
  {
    ScopedSpan span(&tracer_, "nn.gemm");
    const double until = NowSeconds() + 0.2;
    while (NowSeconds() < until) {
      const double t0 = NowSeconds();
      for (int r = 0; r < 100; ++r) {
        qcfe::kernels::GemmNNBiasRelu(a, bmat, bias, &result);
      }
      call_us.push_back(1e6 * (NowSeconds() - t0) / 100.0);
    }
  }
  const double flops = 2.0 * static_cast<double>(m * in * out);
  const double bytes =
      8.0 * static_cast<double>(m * in + in * out + out + m * out);
  const double gemm_us = Median(call_us);
  layer_.Set("nn.gemm_us", gemm_us, "us", call_us.size());
  layer_.Set("nn.gemm_gflops", flops / (gemm_us * 1e3), "GFLOP/s",
             call_us.size());
  layer_.Set("nn.gemm_flops", flops, "flop");
  layer_.Set("nn.gemm_bytes", bytes, "B");
  layer_.Set("nn.isa_tier",
             static_cast<double>(qcfe::kernels::GetKernelIsa()), "index");
  std::cout << "nn: GemmNNBiasRelu " << m << "x" << in << " * " << in << "x"
            << out << " on the " << qcfe::kernels::KernelIsaName(
                                        qcfe::kernels::GetKernelIsa())
            << " tier; flops and bytes per call are computed from the "
               "shape, not measured\n";
}

void Bench::BatchPhase(double seconds) {
  // PredictBatch's speed on the same plans depends on where the plans, the
  // model's weights and the call's scratch buffers land in memory: one
  // process can read 1.5x another. So each draw lays all three out afresh —
  // the plans cloned in a shuffled order, the model loaded from its
  // artifact, the heap shifted before every call. The host's speed also
  // shifts by as much within seconds, so the median of the calls would
  // flip between its states; the metric is all plans over all call time,
  // which moves smoothly with the share of time spent in each.
  World& w = *world_;
  const std::string artifact = args_.work_dir + "/" + spec_.name + "-" +
                               std::to_string(args_.seed) + "-batch.qcfa";
  {
    qcfe::Status s = served_->Save(artifact);
    tally_.Attempt();
    if (!s.ok()) {
      tally_.Fail("batch save: " + s.ToString());
      return;
    }
  }
  Rng rng(Mix(args_.seed, 0xBA7C + static_cast<uint64_t>(batch_draws_)));
  int draws = 0;
  const double until = NowSeconds() + seconds;
  while (draws < kMinBatchDraws || NowSeconds() < until) {
    ++draws;
    std::vector<char> shift = HeapShift(&rng);
    std::vector<std::unique_ptr<qcfe::PlanNode>> clones;
    const std::vector<PlanSample> plans =
        ShuffledClones(w.all, &rng, &clones);
    std::vector<char> shift_model = HeapShift(&rng);
    auto model = qcfe::Pipeline::Load(w.db.get(), &w.envs, &w.templates,
                                      artifact);
    tally_.Attempt();
    if (!model.ok()) {
      tally_.Fail("batch load: " + model.status().ToString());
      break;
    }
    for (int call = 0; call < kBatchCallsPerDraw; ++call) {
      std::vector<char> shift_call = HeapShift(&rng);
      const double t0 = NowSeconds();
      qcfe::Result<std::vector<double>> r = std::vector<double>{};
      {
        ScopedSpan span(&tracer_, "models.predict_batch");
        r = (*model)->PredictBatch(plans);
      }
      const double dt = NowSeconds() - t0;
      tally_.Attempt(plans.size());
      if (!r.ok()) {
        tally_.Fail("PredictBatch: " + r.status().ToString(), plans.size());
        continue;
      }
      size_t wrong = 0;
      for (size_t i = 0; i < r->size(); ++i) {
        wrong += !SameBits((*r)[i], reference_[i]);
      }
      if (wrong > 0) {
        tally_.Fail("PredictBatch differs from the fitted pipeline", wrong);
      }
      batch_rates_.push_back(static_cast<double>(plans.size()) / dt);
      batch_plans_ += static_cast<double>(plans.size());
      batch_seconds_ += dt;
    }
  }
  std::remove(artifact.c_str());
  batch_draws_ += draws;
  e2e_.Set("batch_plans_per_s", batch_plans_ / batch_seconds_, "plans/s",
           batch_rates_.size());
  std::cout << "batch: " << batch_draws_ << " layouts x "
            << kBatchCallsPerDraw << " calls so far; plans/s p25 "
            << Fmt(Percentile(batch_rates_, 0.25)) << ", p75 "
            << Fmt(Percentile(batch_rates_, 0.75)) << "\n";
}

void Bench::Account(const PhaseSummary& p, const char* phase, bool ladder) {
  tally_.Attempt(p.sent);
  if (p.wrong > 0) {
    tally_.Fail(std::string(phase) + ": replies differ from PredictBatch",
                p.wrong);
  }
  // On the ladder, rejections are the overload signal and lateness is the
  // generator's own limit; neither is a serving failure or host noise.
  if (ladder) return;
  if (p.rejected + p.errors > 0) {
    tally_.Fail(std::string(phase) + ": rejected or failed requests",
                p.rejected + p.errors);
  }
  late_ms_.insert(late_ms_.end(), p.late_ms.begin(), p.late_ms.end());
  rejected_total_ += p.rejected;
}

void Bench::ServeLo(uint64_t stream) {
  std::unique_ptr<qcfe::AsyncServer> server = served_->ServeAsync();
  ScopedSpan span(&tracer_, "serve.lo");
  TrafficResult r = RunTraffic(server.get(), world_->all, kLoRate,
                               S(kLoShare) / 2, Mix(args_.seed, stream),
                               nullptr, nullptr, true);
  for (size_t i = 0; i < r.sent; ++i) {
    request_keys_.push_back(RequestKey(world_->all[r.slots[i].plan]));
  }
  lo_windows_.push_back(Summarize(r, reference_));
  Account(lo_windows_.back(), "lo", false);
}

void Bench::ServeHi() {
  std::unique_ptr<qcfe::AsyncServer> server = served_->ServeAsync();
  PhaseSummary hi;
  {
    ScopedSpan span(&tracer_, "serve.hi");
    hi = Summarize(RunTraffic(server.get(), world_->all, kHiRate,
                              S(kHiShare), Mix(args_.seed, 22), nullptr,
                              nullptr, true),
                   reference_);
  }
  Account(hi, "hi", false);
  hi_occupancy_ = std::max(1.0, hi.occupancy);
  // The lo-rate windows pooled; batching figures weighted by requests.
  std::vector<double> lo_lat_ms, submit = hi.submit_us;
  double lo_sent = 0.0, occupancy = 0.0, deadline = 0.0, full = 0.0;
  for (const PhaseSummary& lo : lo_windows_) {
    lo_lat_ms.insert(lo_lat_ms.end(), lo.lat_ms.begin(), lo.lat_ms.end());
    submit.insert(submit.end(), lo.submit_us.begin(), lo.submit_us.end());
    const double n = static_cast<double>(lo.sent);
    lo_sent += n;
    occupancy += n * lo.occupancy;
    deadline += n * lo.deadline_frac;
    full += n * lo.full_frac;
  }
  lo_sent = std::max(1.0, lo_sent);
  e2e_.Set("lat_p50_ms_lo", Median(lo_lat_ms), "ms", lo_lat_ms.size());
  layer_.Set("serve.p90_ms_lo", Percentile(lo_lat_ms, 0.9), "ms",
             lo_lat_ms.size());
  layer_.Set("serve.p50_ms_hi", Median(hi.lat_ms), "ms", hi.lat_ms.size());
  layer_.Set("serve.p90_ms_hi", Percentile(hi.lat_ms, 0.9), "ms",
             hi.lat_ms.size());
  layer_.Set("serve.p99_ms_lo", Percentile(lo_lat_ms, 0.99), "ms",
             lo_lat_ms.size());
  layer_.Set("serve.p99_ms_hi", Percentile(hi.lat_ms, 0.99), "ms",
             hi.lat_ms.size());
  layer_.Set("serve.occupancy_lo", occupancy / lo_sent, "plans/batch");
  layer_.Set("serve.occupancy_hi", hi.occupancy, "plans/batch");
  layer_.Set("serve.deadline_flush_frac_lo", deadline / lo_sent, "frac");
  layer_.Set("serve.full_flush_frac_lo", full / lo_sent, "frac");
  layer_.Set("serve.submit_us", Median(submit), "us", submit.size());
}

void Bench::Ladder() {
  ScopedSpan span(&tracer_, "serve.ladder");
  std::unique_ptr<qcfe::AsyncServer> server = served_->ServeAsync();
  int rung = 0;
  auto attempt = [&](double rate, double* achieved) {
    PhaseSummary p = Summarize(
        RunTraffic(server.get(), world_->all, rate, S(kRungShare),
                   Mix(args_.seed, 100 + rung++), nullptr, nullptr, true),
        reference_);
    Account(p, "ladder", true);
    *achieved = p.achieved_rate;
    const bool pass = p.rejected == 0 && p.errors == 0 && p.wrong == 0 &&
                      p.drain_s <= kDrainLimitS &&
                      Percentile(p.lat_ms, 0.9) <= kLadderP90Ms;
    std::cout << "ladder: " << Fmt(rate) << " plans/s -> "
              << (pass ? "pass" : "fail") << " (p90 "
              << Fmt(Percentile(p.lat_ms, 0.9)) << " ms, rejected "
              << p.rejected << ", drain " << Fmt(p.drain_s) << " s)\n";
    return pass;
  };
  // A rate fails only when two attempts in a row miss the limits, so that
  // one host stall does not end the ladder.
  auto probe = [&](double rate, double* achieved) {
    return attempt(rate, achieved) || attempt(rate, achieved);
  };
  double pass_rate = 0.0, pass_achieved = 0.0, fail_rate = 0.0;
  for (double rate = kLadderStart; rate <= kLadderTop * 1.0001;
       rate *= 2.0) {
    double achieved = 0.0;
    if (!probe(rate, &achieved)) {
      fail_rate = rate;
      break;
    }
    pass_rate = rate;
    pass_achieved = achieved;
  }
  for (int i = 0; i < kBisections && pass_rate > 0.0 && fail_rate > 0.0;
       ++i) {
    const double mid = std::sqrt(pass_rate * fail_rate);
    double achieved = 0.0;
    if (probe(mid, &achieved)) {
      pass_rate = mid;
      pass_achieved = achieved;
    } else {
      fail_rate = mid;
    }
  }
  layer_.Set("serve.max_rate_pps", pass_achieved, "plans/s",
           static_cast<size_t>(rung));
}

void Bench::AdaptPhase() {
  World& w = *world_;
  const std::string artifact =
      args_.work_dir + "/" + spec_.name + "-" + std::to_string(args_.seed) +
      ".qcfa";
  const std::string cycle_artifact = artifact + ".cycle";
  {
    ScopedSpan span(&tracer_, "persist.save");
    qcfe::Status s = served_->Save(artifact);
    tally_.Attempt();
    if (!s.ok()) {
      tally_.Fail("save: " + s.ToString());
      return;
    }
  }
  qcfe::SwappableModel models;
  std::unique_ptr<qcfe::AsyncServer> server =
      qcfe::Pipeline::ServeAsync(&models, qcfe::AsyncServeConfig{});
  {
    ScopedSpan span(&tracer_, "serve.swap");
    auto v1 = qcfe::LoadAndSwap(w.db.get(), &w.envs, &w.templates, artifact,
                                {}, &models, server.get());
    tally_.Attempt();
    if (!v1.ok()) {
      tally_.Fail("initial LoadAndSwap: " + v1.status().ToString());
      return;
    }
  }

  // Reference predictions of every published version; a reply is correct
  // when it equals PredictBatch of some published version on its plan.
  // Every episode republishes the saved model, whose replies match
  // reference_ (Save -> Load is bit-identical).
  std::mutex pub_mu;
  std::condition_variable pub_cv;
  std::vector<std::vector<double>> version_refs = {reference_};
  struct Publish {
    double at;
    uint64_t cycles_started;
  };
  std::vector<Publish> publishes;  // of the current episode's controller

  // The episode's controller, guarded so the collector never reports to or
  // reads a controller that is being replaced.
  std::mutex ctl_mu;
  qcfe::adapt::AdaptationController* ctl = nullptr;

  qcfe::adapt::AdaptationConfig acfg;
  acfg.retrain.epochs = std::string(spec_.estimator) == "mscn"
                            ? w.options.mscn_epochs
                            : w.options.qpp_epochs;
  acfg.artifact_path = cycle_artifact;
  acfg.on_publish = [&](const std::shared_ptr<const qcfe::Pipeline>& p,
                        uint64_t) {
    const double at = NowSeconds();
    uint64_t started = 0;
    {
      std::lock_guard<std::mutex> lock(ctl_mu);
      if (ctl != nullptr) started = ctl->stats().cycles_started;
    }
    auto refs = p->PredictBatch(w.all);
    std::lock_guard<std::mutex> lock(pub_mu);
    publishes.push_back({at, started});
    if (refs.ok()) version_refs.push_back(*refs);
    pub_cv.notify_all();
  };

  // Episodes are independent: each redeploys the fitted model with a fresh
  // trainer and controller, serves the true world until the retraining
  // buffer is full, then drifts env 0 to kDriftFactor times its labels and
  // waits for the retrained model that drift causes to publish.
  struct Episode {
    double reset_at = 0.0, onset_at = 0.0, trip_at = 0.0, publish_at = 0.0;
    uint64_t trips_at_onset = 0, evals_at_onset = 0, cycles_at_onset = 0;
    size_t trip_obs = 0, evals = 0;
  };
  std::vector<Episode> episodes(kMaxEpisodes);
  std::atomic<int> drift_for{-1};  // the episode whose drift is on, or -1
  std::atomic<int> tripped{-1};    // the last episode seen to trip
  std::atomic<bool> stop{false};
  // Owned by the collector thread.
  int active = -1;
  bool drifting = false;
  size_t since_onset = 0;
  std::vector<double> observe_us;

  auto on_reply = [&](Slot& s) {
    if (s.outcome != Slot::Outcome::kOk) return;
    const PlanSample& sample = w.all[s.plan];
    const bool env0 = sample.env_id == kDriftEnv;
    std::lock_guard<std::mutex> lock(ctl_mu);
    const int want = drift_for.load(std::memory_order_acquire);
    // An onset takes effect at an env-0 reply right after a drift
    // evaluation of env 0 (the controller evaluates every evaluate_every-th
    // observation of an environment), so adapt.trip_obs does not depend on
    // where in that cadence the onset fell.
    if (want < 0) {
      drifting = false;
    } else if (want != active && env0 && ctl != nullptr &&
               ctl->sink()->EnvObservations(kDriftEnv) %
                       acfg.evaluate_every ==
                   0) {
      const qcfe::adapt::AdaptationStats st = ctl->stats();
      Episode& e = episodes[static_cast<size_t>(want)];
      e.onset_at = NowSeconds();
      e.trips_at_onset = st.drift_trips;
      e.evals_at_onset = st.windows_evaluated;
      e.cycles_at_onset = st.cycles_started;
      active = want;
      drifting = true;
      since_onset = 0;
    }
    const double actual =
        sample.label_ms * (drifting && env0 ? kDriftFactor : 1.0);
    const double t0 = NowSeconds();
    server->ReportObserved(*sample.plan, sample.env_id, s.value, actual);
    observe_us.push_back(1e6 * (NowSeconds() - t0));
    if (!drifting || ctl == nullptr ||
        tripped.load(std::memory_order_relaxed) >= active) {
      return;
    }
    since_onset += env0;
    const qcfe::adapt::AdaptationStats st = ctl->stats();
    Episode& e = episodes[static_cast<size_t>(active)];
    if (st.drift_trips > e.trips_at_onset) {
      e.trip_at = NowSeconds();
      e.trip_obs = since_onset;
      e.evals = st.windows_evaluated - e.evals_at_onset;
      tripped.store(active, std::memory_order_release);
      std::lock_guard<std::mutex> pub_lock(pub_mu);
      pub_cv.notify_all();
    }
  };

  std::unique_ptr<qcfe::Pipeline> trainer;
  std::unique_ptr<qcfe::adapt::AdaptationController> controller;
  uint64_t retrain_failures = 0, save_failures = 0, swaps_rejected = 0;
  auto retire = [&] {
    if (controller == nullptr) return;
    server->set_observation_listener(nullptr);
    {
      std::lock_guard<std::mutex> lock(ctl_mu);
      ctl = nullptr;
    }
    controller->Stop();
    const qcfe::adapt::AdaptationStats st = controller->stats();
    retrain_failures += st.retrain_failures;
    save_failures += st.save_failures;
    swaps_rejected += st.swaps_rejected;
    controller.reset();
  };

  qcfe::adapt::AdaptationStats healthy{};
  bool all_published = true;
  int ran = 0;
  TrafficResult traffic;
  {
    ScopedSpan span(&tracer_, "adapt.episodes");
    std::thread traffic_driver([&] {
      // Not spinning: the retrain that adapt_publish_s times shares the
      // CPUs with this traffic.
      traffic = RunTraffic(server.get(), w.all, kLoRate, kAdaptTimeoutS,
                           Mix(args_.seed, 31), &stop, on_reply, false);
    });
    const double episodes_start = NowSeconds();
    for (int k = 0; k < kMaxEpisodes && all_published &&
                    (k < kMinEpisodes ||
                     NowSeconds() - episodes_start < S(kEpisodeShare));
         ++k) {
      ran = k + 1;
      Episode& e = episodes[static_cast<size_t>(k)];
      retire();
      drift_for.store(-1, std::memory_order_release);
      e.reset_at = NowSeconds();
      auto loaded = qcfe::Pipeline::Load(w.db.get(), &w.envs, &w.templates,
                                         artifact);
      auto swapped = qcfe::LoadAndSwap(w.db.get(), &w.envs, &w.templates,
                                       artifact, {}, &models, server.get());
      tally_.Attempt();
      if (!loaded.ok() || !swapped.ok()) {
        tally_.Fail("adapt: redeploying the saved model failed");
        all_published = false;
        break;
      }
      trainer = std::move(loaded.value());
      {
        std::lock_guard<std::mutex> lock(pub_mu);
        publishes.clear();
      }
      controller = std::make_unique<qcfe::adapt::AdaptationController>(
          trainer.get(), &models, acfg, server.get());
      {
        std::lock_guard<std::mutex> lock(ctl_mu);
        ctl = controller.get();
      }
      server->set_observation_listener(controller.get());
      // Healthy traffic until the retraining buffer is full (longer in the
      // first episode, whose healthy-phase counters are reported).
      const double healthy_s =
          k == 0 ? S(kHealthyShare)
                 : kRefillMargin *
                       static_cast<double>(acfg.window.label_capacity) /
                       kLoRate;
      std::this_thread::sleep_for(std::chrono::duration<double>(healthy_s));
      // Quiesce: let any healthy-phase cycle finish, so the first cycle
      // started after the onset is the one the first post-onset trip
      // caused.
      server->set_observation_listener(nullptr);
      controller->WaitForIdle();
      if (k == 0) healthy = controller->stats();
      drift_for.store(k, std::memory_order_release);
      server->set_observation_listener(controller.get());
      std::unique_lock<std::mutex> lock(pub_mu);
      pub_cv.wait_until(
          lock,
          std::chrono::steady_clock::now() +
              std::chrono::duration<double>(kEpisodeTimeoutS),
          [&] {
            if (tripped.load(std::memory_order_acquire) < k) return false;
            for (const Publish& p : publishes) {
              if (p.cycles_started > e.cycles_at_onset) {
                e.publish_at = p.at;
                return true;
              }
            }
            return false;
          });
      lock.unlock();
      all_published = e.publish_at > 0.0;
      // Only the first episode's adapted model is scored afterwards.
      if (all_published && k == 0) {
        std::this_thread::sleep_for(
            std::chrono::duration<double>(S(kPostPublishShare)));
      }
    }
    stop.store(true, std::memory_order_release);
    traffic_driver.join();
    server->set_observation_listener(nullptr);
    if (controller != nullptr) controller->WaitForIdle();
  }

  tally_.Attempt(static_cast<size_t>(ran));
  if (!all_published) tally_.Fail("adapt: no publish after a drift trip");
  // Check every reply against the version it could have come from; the
  // first episode's adapted model is scored on env-0 replies sent after its
  // publish and before the next episode redeployed the fitted model.
  const Episode& first = episodes[0];
  const double post_end =
      ran > 1 ? episodes[1].reset_at : traffic.gen_end;
  size_t wrong = 0;
  std::vector<double> lat, post_q;
  {
    std::lock_guard<std::mutex> lock(pub_mu);
    for (size_t i = 0; i < traffic.sent; ++i) {
      const Slot& s = traffic.slots[i];
      if (s.outcome != Slot::Outcome::kOk) continue;
      bool any = false;
      for (const auto& refs : version_refs) {
        any |= SameBits(refs[s.plan], s.value);
      }
      wrong += !any;
      lat.push_back(1e3 * (s.done - s.due));
      const PlanSample& sample = w.all[s.plan];
      if (first.publish_at > 0.0 && s.sent > first.publish_at &&
          s.sent < post_end && sample.env_id == kDriftEnv) {
        post_q.push_back(QErrorOf(kDriftFactor * sample.label_ms, s.value));
      }
    }
  }
  PhaseSummary p = Summarize(traffic, {});
  p.wrong = wrong;
  Account(p, "adapt", false);

  if (tracer_.enabled() && controller != nullptr) {
    TracedAdaptCalls(controller.get(), &models, server.get(), acfg);
  }
  retire();
  server->Shutdown();
  if (retrain_failures > 0) {
    tally_.Fail("adapt: retrain failures", retrain_failures);
  }
  if (save_failures > 0) tally_.Fail("adapt: save failures", save_failures);
  if (swaps_rejected > 0) tally_.Fail("adapt: swaps rejected", swaps_rejected);

  std::vector<double> publish_s, trip_obs, evals;
  for (const Episode& e : episodes) {
    if (e.publish_at <= 0.0) continue;
    publish_s.push_back(e.publish_at - e.trip_at);
    trip_obs.push_back(static_cast<double>(e.trip_obs));
    evals.push_back(static_cast<double>(e.evals));
    std::cout << "adapt: episode trip after " << e.trip_obs << " env-"
              << kDriftEnv << " observations, publish "
              << Fmt(e.publish_at - e.trip_at) << " s after the trip\n";
  }
  e2e_.Set("adapt_publish_s", Median(publish_s), "s", publish_s.size());
  layer_.Set("adapt.trip_obs", Median(trip_obs), "count", trip_obs.size());
  layer_.Set("adapt.evals", Median(evals), "count", evals.size());
  layer_.Set("adapt.observe_us", Median(observe_us), "us", observe_us.size());
  layer_.Set("adapt.trips_healthy", static_cast<double>(healthy.drift_trips),
             "count");
  layer_.Set("adapt.cycles_healthy",
             static_cast<double>(healthy.cycles_started), "count");
  layer_.Set("adapt.swaps_rejected", static_cast<double>(swaps_rejected),
             "count");
  layer_.Set("adapt.retrain_failures", static_cast<double>(retrain_failures),
             "count");
  layer_.Set("adapt.lat_p50_ms", Median(lat), "ms", lat.size());
  layer_.Set("adapt.lat_p90_ms", Percentile(lat, 0.9), "ms", lat.size());
  layer_.Set("adapt.post_qerror_mean", MeanOf(post_q), "ratio", post_q.size());
  std::remove(artifact.c_str());
  std::remove(cycle_artifact.c_str());
}

/// One adaptation cycle's legs called directly on the sink's corpus.
void Bench::TracedAdaptCalls(qcfe::adapt::AdaptationController* controller,
                             qcfe::SwappableModel* models,
                             qcfe::AsyncServer* server,
                             const qcfe::adapt::AdaptationConfig& acfg) {
  World& w = *world_;
  qcfe::adapt::LabeledCorpus corpus = controller->sink()->LabeledSamples();
  const std::string path = acfg.artifact_path + ".traced";
  double t0 = NowSeconds();
  {
    ScopedSpan span(&tracer_, "adapt.retrain");
    qcfe::Status s = served_->Retrain(corpus.samples, acfg.retrain);
    tally_.Attempt();
    if (!s.ok()) tally_.Fail("traced retrain: " + s.ToString());
  }
  layer_.Set("adapt.retrain_s", NowSeconds() - t0, "s", corpus.samples.size());
  t0 = NowSeconds();
  {
    ScopedSpan span(&tracer_, "persist.save");
    qcfe::Status s = served_->Save(path);
    tally_.Attempt();
    if (!s.ok()) tally_.Fail("traced save: " + s.ToString());
  }
  layer_.Set("adapt.save_s", NowSeconds() - t0, "s");
  t0 = NowSeconds();
  {
    ScopedSpan span(&tracer_, "serve.swap");
    auto r = qcfe::LoadAndSwap(w.db.get(), &w.envs, &w.templates, path, {},
                               models, server);
    tally_.Attempt();
    if (!r.ok()) tally_.Fail("traced swap: " + r.status().ToString());
  }
  layer_.Set("adapt.swap_s", NowSeconds() - t0, "s");
  std::remove(path.c_str());
}

int Bench::Run() {
  run_start_ = NowSeconds();
  const double cpu0 = ProcessCpuSeconds();
  const auto jiffies0 = StealAndTotalJiffies();
  {
    ScopedSpan root(&tracer_, "bench.run");
    // Wall seconds per phase, printed as a diagnostic line.
    std::vector<std::pair<const char*, double>> phases;
    double mark = NowSeconds();
    auto lap = [&](const char* name) {
      const double now = NowSeconds();
      phases.emplace_back(name, now - mark);
      mark = now;
    };
    if (!Setup()) return 2;
    lap("setup");
    if (FitPhase()) {
      // The batch and lo-rate windows come before and after the timed
      // fits, so that their figures span much of the run rather than one
      // moment of a shared host.
      BatchPhase(S(kBatchShare) / 2);
      ServeLo(21);
      lap("warmup+batch+lo");
      TimedFits();
      if (tracer_.enabled()) TracedFitParity();
      lap("fit");
      BatchPhase(S(kBatchShare) / 2);
      ServeLo(23);
      ServeHi();
      lap("batch+serve");
      // Peak memory before the overload ladder, whose request buffers
      // belong to the benchmark and grow with how far it climbs.
      e2e_.Set("peak_rss_mb", PeakRssMb(), "MB");
      if (tracer_.enabled()) {
        Ladder();
        TracedLayerSamples();
        lap("traced");
      }
      AdaptPhase();
      lap("adapt");
    }
    std::cout << "phases (wall s):";
    for (const auto& ph : phases) {
      std::cout << " " << ph.first << " " << Fmt(ph.second);
    }
    std::cout << "\n";
  }
  const auto jiffies1 = StealAndTotalJiffies();
  const double total_j = jiffies1.second - jiffies0.second;
  const double steal = total_j > 0 ? (jiffies1.first - jiffies0.first) / total_j
                                   : 0.0;
  const double cpu_s = ProcessCpuSeconds() - cpu0;

  e2e_.Set("ok_frac",
           tally_.attempted == 0
               ? 0.0
               : 1.0 - static_cast<double>(tally_.failed) /
                           static_cast<double>(tally_.attempted),
           "frac", tally_.attempted);

  // Noise and workload properties: printed on every run.
  const double late_p99 = Percentile(late_ms_, 0.99);
  const double late_max =
      late_ms_.empty() ? 0.0 : *std::max_element(late_ms_.begin(),
                                                 late_ms_.end());
  const double repeat = RepeatShare(request_keys_, kRepeatWindow);
  std::cout << "noise: generator late p99 " << Fmt(late_p99) << " ms, max "
            << Fmt(late_max) << " ms over " << late_ms_.size()
            << " requests; host steal " << Fmt(steal) << " of CPU time; "
            << "process CPU " << Fmt(cpu_s) << " s\n";
  std::cout << "workload: " << Fmt(nodes_per_plan_) << " nodes per plan; "
            << Fmt(repeat) << " of lo-rate requests repeat a (plan, env) "
            << "of the previous " << kRepeatWindow << "; mean batch occupancy "
            << Fmt(hi_occupancy_) << " at " << Fmt(kHiRate) << " plans/s\n";

  layer_.Set("gen.late_p99_ms", late_p99, "ms", late_ms_.size());
  layer_.Set("gen.late_max_ms", late_max, "ms", late_ms_.size());
  layer_.Set("host.steal_frac", steal, "frac");
  layer_.Set("host.cpu_s", cpu_s, "s");
  layer_.Set("featurize.nodes_per_plan", nodes_per_plan_, "nodes");
  layer_.Set("workload.repeat64_frac", repeat, "frac", request_keys_.size());
  layer_.Set("workload.build_db_s", Median(build_db_s_), "s",
             build_db_s_.size());
  layer_.Set("workload.collect_s", Median(collect_s_), "s", collect_s_.size());
  layer_.Set("workload.collect_queries",
             static_cast<double>(world_->corpus.queries.size()), "count");
  layer_.Set("serve.rejected", static_cast<double>(rejected_total_), "count");
  layer_.Set("fail_frac",
             tally_.attempted == 0
                 ? 0.0
                 : static_cast<double>(tally_.failed) /
                       static_cast<double>(tally_.attempted),
             "frac", tally_.attempted);
  return Finish();
}

int Bench::Finish() {
  const double wall = NowSeconds() - run_start_;
  if (tracer_.enabled()) {
    // Cost of one recorded span, measured on a scratch recorder.
    Tracer scratch(true);
    const int n = 20000;
    const double t0 = NowSeconds();
    for (int i = 0; i < n; ++i) ScopedSpan s(&scratch, "bench.probe");
    const double span_s = (NowSeconds() - t0) / n;
    const std::vector<Span> spans = tracer_.spans();
    layer_.Set("trace.spans", static_cast<double>(spans.size()), "count");
    layer_.Set("trace.span_ns", 1e9 * span_s, "ns", n);
    layer_.Set("trace.overhead_frac",
               span_s * static_cast<double>(spans.size()) / wall, "frac");
    layer_.Set("trace.fit_s", e2e_.metrics().at("fit_s").value, "s");
    layer_.Set("trace.lat_p50_ms_lo", e2e_.metrics().at("lat_p50_ms_lo").value,
               "ms");
    std::map<std::string, double> self = SelfTimeByLayer(spans);
    for (const char* layer : {"bench", "workload", "engine", "core", "models",
                              "featurize", "nn", "serve", "adapt",
                              "persist"}) {
      layer_.Set(std::string("self.") + layer + "_s", self[layer], "s");
    }
    const std::string path = args_.work_dir + "/spans-" + spec_.name +
                             "-seed" + std::to_string(args_.seed) + ".json";
    std::ofstream out(path);
    out << "[\n";
    for (size_t i = 0; i < spans.size(); ++i) {
      out << "  {\"name\": \"" << spans[i].name << "\", \"start\": "
          << Fmt(spans[i].start - run_start_) << ", \"end\": "
          << Fmt(spans[i].end - run_start_) << ", \"parent\": "
          << spans[i].parent << "}" << (i + 1 < spans.size() ? ",\n" : "\n");
    }
    out << "]\n";
    std::cout << "trace: " << spans.size() << " spans written to " << path
              << "\n";
  }

  const Report& shown = tracer_.enabled() ? layer_ : e2e_;
  for (const auto& [name, m] : shown.metrics()) {
    std::cout << "metric " << name << " = " << Fmt(m.value) << " " << m.unit
              << " (n=" << m.samples << ")\n";
  }
  for (const std::string& why : tally_.reasons) {
    std::cout << "violation: " << why << "\n";
  }
  const bool correct = tally_.failed == 0;
  std::ostringstream json;
  json << "{\"correct\": " << (correct ? "true" : "false")
       << ", \"attempted\": " << tally_.attempted
       << ", \"failed\": " << tally_.failed << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, m] : shown.metrics()) {
    json << (first ? "" : ", ") << "\"" << name << "\": {\"value\": "
         << Fmt(std::isfinite(m.value) ? m.value : 0.0) << ", \"unit\": \""
         << m.unit << "\"}";
    first = false;
  }
  json << "}}";
  std::cout << json.str() << std::endl;
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!perfbench::ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench --workload <name> --seed <n> --seconds <s> "
                 "--trace <0|1> [--work-dir <dir>]\n";
    return 2;
  }
  for (const perfbench::WorkloadSpec& spec : perfbench::kWorkloads) {
    if (args.workload == spec.name) {
      perfbench::Bench bench(args, spec);
      return bench.Run();
    }
  }
  std::cerr << "unknown workload " << args.workload << "\n";
  return 2;
}
