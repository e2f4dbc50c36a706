#ifndef QCFE_SERVE_ASYNC_SERVER_H_
#define QCFE_SERVE_ASYNC_SERVER_H_

/// \file async_server.h
/// Micro-batching serving front end over CostModel::PredictBatchMs.
///
/// The batched prediction path pays off only when callers hand it whole
/// batches, but online traffic arrives one plan at a time from many
/// concurrent callers. AsyncServer bridges the two: Submit() enqueues a
/// single (plan, environment) request and returns a future; dedicated
/// flusher threads coalesce queued requests into micro-batches and flush on
/// whichever comes first — the batch reaching `max_batch`, or the oldest
/// queued request reaching its `max_delay_micros` deadline — then fulfil
/// every future from one PredictBatchEach call.
///
/// Contracts:
///  * Results are bit-identical to a direct PredictBatchMs / PredictMs call
///    on the same model. Which micro-batch a request lands in is
///    scheduling-dependent, but per-request arithmetic is independent of
///    co-batched requests, so batching is invisible in the output bits.
///  * Per-request status isolation: a request that cannot be served fails
///    its own future only; co-batched requests still succeed (see
///    CostModel::PredictBatchEach).
///  * Admission control: when `max_queue` requests are already waiting,
///    Submit rejects immediately with StatusCode::kUnavailable instead of
///    letting the queue grow without bound.
///  * Clean shutdown: Shutdown(kDrain) serves everything already queued,
///    Shutdown(kCancel) fails queued requests with kUnavailable; both then
///    join the flusher threads. The destructor drains.
///  * Clock-injectable: all waiting goes through a Clock (util/clock.h), so
///    tests drive deadline flushes with FakeClock::Advance instead of
///    sleeps.
///  * Lock discipline is compiler-checked: the queue, shutdown flag and
///    stats are QCFE_GUARDED_BY(mu_), the batch-cut path is a
///    QCFE_REQUIRES(mu_) helper, and mu_ ranks below the clock's waiter
///    registry (see lock_rank in util/sync.h).

#include <cstdint>
#include <deque>
#include <future>
#include <mutex>
#include <thread>
#include <vector>

#include "models/cost_model.h"
#include "util/clock.h"
#include "util/status.h"
#include "util/sync.h"
#include "util/thread_pool.h"

namespace qcfe {

class SwappableModel;

/// Feedback interface for observed executions — the "observe" half of the
/// online adaptation loop (src/adapt). Serving callers that later learn a
/// request's true latency hand the (plan, env, predicted, actual) tuple
/// back through AsyncServer::ReportObserved, which forwards it here.
/// Implementations must be thread-safe: observations arrive from arbitrary
/// caller threads, and must not block for long (the canonical
/// implementation, ObservationSink, does O(1) ring updates).
class ObservationListener {
 public:
  virtual ~ObservationListener() = default;
  /// `plan` is only guaranteed alive for the duration of the call;
  /// implementations that keep it (e.g. as a retraining sample) must know
  /// the caller keeps the plan alive, as all in-repo drivers do.
  virtual void OnObservation(const PlanNode& plan, int env_id,
                             double predicted_ms, double actual_ms) = 0;
};

/// True when an observed (predicted_ms, actual_ms) pair may enter the
/// adaptation state: both latencies finite and strictly positive. A NaN or
/// a zero would turn a q-error window's mean, and with it every later drift
/// verdict, into NaN, and would put a NaN label into the retraining corpus.
bool ValidObservation(double predicted_ms, double actual_ms);

/// Micro-batcher tuning knobs (PipelineConfig::async_serve carries these).
struct AsyncServeConfig {
  /// Flush as soon as this many requests are queued.
  size_t max_batch = 64;
  /// Flush a partial batch once its oldest request has waited this long.
  /// This bounds the latency cost of batching: a request is served at most
  /// max_delay after arrival even at low QPS.
  int64_t max_delay_micros = 2000;
  /// Dedicated flusher threads. More than one lets the next micro-batch cut
  /// while a previous one is still in the model; results are identical
  /// either way.
  size_t num_workers = 1;
  /// Admission control: reject Submit with kUnavailable once this many
  /// requests are queued (not yet cut into a flushing batch). 0 = no limit.
  size_t max_queue = 4096;
};

/// Serving counters, all monotonically increasing except mean_occupancy
/// and model_version (which tracks the published version).
struct AsyncServeStats {
  uint64_t submitted = 0;         ///< requests accepted into the queue
  uint64_t rejected = 0;          ///< refused at admission (or post-shutdown)
  uint64_t cancelled = 0;         ///< queued requests failed by kCancel
  uint64_t served = 0;            ///< requests flushed through the model
  uint64_t failed = 0;            ///< served requests with per-request errors
  uint64_t batches_flushed = 0;
  uint64_t full_flushes = 0;      ///< flush reason: batch reached max_batch
  uint64_t deadline_flushes = 0;  ///< flush reason: max_delay deadline
  uint64_t drain_flushes = 0;     ///< flush reason: shutdown drain
  double mean_occupancy = 0.0;    ///< served / batches_flushed
  // Hot-swap counters (serve/model_swap.h); all zero for fixed-model
  // servers.
  uint64_t swaps_published = 0;   ///< successful LoadAndSwap publishes
  uint64_t swaps_rejected = 0;    ///< LoadAndSwap failures (old model kept)
  uint64_t model_version = 0;     ///< version of the last publish/flush seen
  // Observation counters (the observe half of src/adapt); both zero until
  // callers use ReportObserved.
  uint64_t observations = 0;          ///< observations forwarded to a listener
  /// Observations discarded: no listener set, or rejected by
  /// ValidObservation.
  uint64_t observations_dropped = 0;
};

/// Request-queue front end over one CostModel. Thread-safe: any number of
/// caller threads may Submit concurrently. The model, clock and pool are
/// not owned and must outlive the server (the Pipeline guarantees this for
/// servers built via Pipeline::ServeAsync).
class AsyncServer {
 public:
  /// `clock` null means the process-wide real clock; `pool` (optional)
  /// shards each flushed batch across workers exactly like
  /// PredictBatchMs(batch, pool).
  AsyncServer(const CostModel* model, const AsyncServeConfig& config,
              Clock* clock = nullptr, ThreadPool* pool = nullptr);
  /// Hot-swappable variant: every cut batch is served by the model version
  /// current at flush time, resolved once per batch — a concurrent Publish
  /// never tears a batch across versions, and each request is answered by
  /// exactly one version. `models` must outlive the server. While no
  /// version is published yet, requests fail with kFailedPrecondition.
  /// No worker pool: the pool belongs to a pipeline generation, which a
  /// swap may retire while this server is still running.
  AsyncServer(const SwappableModel* models, const AsyncServeConfig& config,
              Clock* clock = nullptr);
  /// Drains outstanding work, then joins the flusher threads.
  ~AsyncServer();

  AsyncServer(const AsyncServer&) = delete;
  AsyncServer& operator=(const AsyncServer&) = delete;

  /// Submits one prediction request. The returned future becomes ready when
  /// the request's micro-batch flushes (or immediately, with
  /// kUnavailable, when admission control rejects or the server is shut
  /// down). The plan must outlive the future's completion.
  std::future<Result<double>> Submit(const PlanNode& plan, int env_id);

  enum class ShutdownMode {
    kDrain,   ///< serve everything already queued, then stop
    kCancel,  ///< fail queued requests with kUnavailable, then stop
  };

  /// Stops the server and joins its flusher threads. Idempotent; the first
  /// call's mode wins. Submit after shutdown rejects with kUnavailable.
  void Shutdown(ShutdownMode mode = ShutdownMode::kDrain);

  /// Snapshot of the serving counters (consistent: taken under the queue
  /// lock, and flush counters are published before the batch's futures).
  AsyncServeStats stats() const;

  /// Swap accounting, called by LoadAndSwap (serve/model_swap.h). Publishes
  /// bump swaps_published and advance model_version; rejections only bump
  /// swaps_rejected — the old version keeps serving.
  void RecordSwapPublished(uint64_t version);
  void RecordSwapRejected();

  /// Attaches (or detaches, with null) the observation listener that
  /// ReportObserved forwards to. The listener is not owned and must outlive
  /// the server or be detached first.
  void set_observation_listener(ObservationListener* listener);

  /// Reports one observed execution: the caller predicted `predicted_ms`
  /// for (plan, env_id) and later measured `actual_ms`. Forwards to the
  /// attached listener *outside* the queue lock (listeners may do real
  /// work) and bumps `observations`; with no listener attached, or when
  /// ValidObservation rejects the latencies, the tuple is counted in
  /// `observations_dropped` and discarded. Thread-safe.
  void ReportObserved(const PlanNode& plan, int env_id, double predicted_ms,
                      double actual_ms);

  const AsyncServeConfig& config() const { return config_; }

 private:
  enum class FlushReason { kFull, kDeadline, kDrain };

  struct Pending {
    PlanSample sample;
    int64_t enqueued_micros = 0;
    std::promise<Result<double>> promise;
  };

  void WorkerLoop();
  /// Saturating deadline of the queue head: head enqueue time plus the
  /// configured max delay, or kNoDeadline when that addition would
  /// overflow (a huge max_delay_micros is a caller's way of asking for
  /// batch-full-only flushing).
  int64_t HeadFlushDeadlineLocked() const QCFE_REQUIRES(mu_);
  /// Cuts up to max_batch requests off the queue head and hands leftover
  /// work to a sibling flusher. The queue must be non-empty.
  std::vector<Pending> CutBatchLocked() QCFE_REQUIRES(mu_);
  /// Serves one cut batch outside the queue lock and fulfils its promises.
  void FlushBatch(std::vector<Pending>* batch, FlushReason reason)
      QCFE_EXCLUDES(mu_);

  void StartWorkers();

  /// Exactly one of model_/swappable_ is set: a fixed model for classic
  /// servers, a publication point for hot-swappable ones.
  const CostModel* model_;
  const SwappableModel* swappable_;
  const AsyncServeConfig config_;
  Clock* clock_;
  ThreadPool* pool_;

  /// Ranked below the clock's waiter registry: WorkerLoop holds mu_ while
  /// WaitUntil registers with a FakeClock.
  mutable Mutex mu_{lock_rank::kAsyncServerQueue};
  CondVar cv_;
  std::deque<Pending> queue_ QCFE_GUARDED_BY(mu_);
  bool shutdown_ QCFE_GUARDED_BY(mu_) = false;
  AsyncServeStats stats_ QCFE_GUARDED_BY(mu_);
  ObservationListener* listener_ QCFE_GUARDED_BY(mu_) = nullptr;

  std::once_flag join_once_;
  std::vector<std::thread> workers_;
};

}  // namespace qcfe

#endif  // QCFE_SERVE_ASYNC_SERVER_H_
