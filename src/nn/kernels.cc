#include "nn/kernels.h"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <cstdlib>
#include <cstring>

#include "nn/kernels_internal.h"
#include "util/check.h"
#include "util/env_config.h"
#include "util/rng.h"

namespace qcfe {
namespace kernels {

namespace {

using internal::Epilogue;
using internal::KernelTable;

/// True when the running CPU executes `isa` (compile-in is checked
/// separately via the tier table pointers).
bool CpuSupportsIsa(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
#if defined(__x86_64__) || defined(__i386__)
      return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
      return false;
#endif
  }
  return false;
}

/// Initial ISA honours QCFE_KERNEL_ISA (scalar|avx2|auto), clamping
/// unavailable pins to the scalar tier; unset/auto takes the best detected.
int InitialIsa() {
  // Read once at static init, before any config exists: the tier is
  // process-wide, not a per-pipeline setting.
  // qcfe-lint: allow(no-raw-getenv)
  const char* env = std::getenv("QCFE_KERNEL_ISA");
  KernelIsa isa;
  if (env == nullptr || std::strcmp(env, "auto") == 0) {
    isa = DetectKernelIsa();
  } else if (std::strcmp(env, "scalar") == 0) {
    isa = KernelIsa::kScalar;
  } else if (std::strcmp(env, "avx2") == 0) {
    isa = KernelIsa::kAvx2;
  } else {
    isa = DetectKernelIsa();
  }
  if (!KernelIsaAvailable(isa)) isa = KernelIsa::kScalar;
  return static_cast<int>(isa);
}

std::atomic<int> g_isa{InitialIsa()};

/// The dispatch table for a tier (the tier must be available).
const KernelTable& TableFor(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kAvx2: {
      const KernelTable* t = internal::Avx2Table();
      QCFE_DCHECK(t != nullptr, "AVX2 tier selected but not compiled in");
      return *t;
    }
    case KernelIsa::kScalar:
      break;
  }
  return internal::ScalarTable();
}

/// Compiled-default minimum row count before the NN dispatch considers the
/// blocked kernel (the pre-autotuner measured value).
constexpr size_t kDefaultDenseMinRows = 32;

KernelTuning DefaultTuning(KernelIsa isa) {
  KernelTuning t;
  t.isa = isa;
  t.dense_min_rows = kDefaultDenseMinRows;
  t.sparse_dispatch_threshold = kSparseDispatchThreshold;
  t.simd_gemm_speedup = 1.0;
  t.autotuned = false;
  return t;
}

/// Deterministic probe input: Gaussian entries with an (approximately)
/// fixed fraction zeroed. Timing inputs only steer thresholds — dispatch
/// is bit-safe within a tier — so the Bernoulli approximation is fine.
Matrix ProbeMatrix(Rng* rng, size_t rows, size_t cols, double zero_fraction) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    double* dst = m.RowPtr(r);
    for (size_t c = 0; c < cols; ++c) {
      const double v = rng->Gaussian(0.0, 1.0);
      dst[c] = rng->Bernoulli(zero_fraction) ? 0.0 : v;
    }
  }
  return m;
}

/// Best-of-three nanoseconds per call (min filters scheduler noise).
template <typename Fn>
double BestNsPerCall(size_t iters, Fn&& fn) {
  double best_ns = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    WallTimer timer;
    for (size_t i = 0; i < iters; ++i) fn();
    const double ns = timer.Seconds() * 1e9 / static_cast<double>(iters);
    if (rep == 0 || ns < best_ns) best_ns = ns;
  }
  // Probe timings must stay strictly positive for SelectTuning's validity
  // checks; clamp pathological zero readings (coarse clocks).
  return best_ns > 0.0 ? best_ns : 1e-3;
}

/// Per-tier tunings, computed once per process on first use. Probing calls
/// the tier tables directly (never the dispatched entry points), so the
/// lazy initialisation cannot recurse into itself.
const std::array<KernelTuning, 2>& AllTunings() {
  static const std::array<KernelTuning, 2> tunings = [] {
    std::array<KernelTuning, 2> out{};
    for (KernelIsa isa : {KernelIsa::kScalar, KernelIsa::kAvx2}) {
      KernelTuning t = DefaultTuning(isa);
      if (KernelIsaAvailable(isa)) {
        t = SelectTuning(isa, MeasureProbes(isa));
      }
      out[static_cast<size_t>(isa)] = t;
    }
    return out;
  }();
  return tunings;
}

/// Picks the sparse row-skip path for the NN family: skinny batches go to
/// the streaming loop, and real batches by the left operand's sampled
/// density, against the autotuned thresholds.
bool DispatchSparseNN(const Matrix& a) {
  const KernelTuning& t = Tuning();
  return a.rows() < t.dense_min_rows ||
         ZeroFraction(a) >= t.sparse_dispatch_threshold;
}

}  // namespace

namespace internal {
const KernelTable& ActiveTable() { return TableFor(GetKernelIsa()); }
}  // namespace internal

using internal::ActiveTable;

bool KernelIsaAvailable(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return true;
    case KernelIsa::kAvx2:
      return internal::Avx2Table() != nullptr && CpuSupportsIsa(isa);
  }
  return false;
}

KernelIsa DetectKernelIsa() {
  if (KernelIsaAvailable(KernelIsa::kAvx2)) return KernelIsa::kAvx2;
  return KernelIsa::kScalar;
}

void SetKernelIsa(KernelIsa isa) {
  if (!KernelIsaAvailable(isa)) isa = KernelIsa::kScalar;
  g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

KernelIsa GetKernelIsa() {
  return static_cast<KernelIsa>(g_isa.load(std::memory_order_relaxed));
}

const char* KernelIsaName(KernelIsa isa) {
  switch (isa) {
    case KernelIsa::kScalar:
      return "scalar";
    case KernelIsa::kAvx2:
      return "avx2";
  }
  return "unknown";
}

double ZeroFraction(const Matrix& m) {
  const size_t cols = m.cols();
  const size_t n = m.rows() * cols;
  if (n == 0) return 0.0;
  // A small strided sample keeps the dispatch decision far cheaper than
  // the product it steers while staying deterministic for a given matrix.
  // Sampling walks logical indices (row, col), never the row padding —
  // the always-zero pad columns would otherwise inflate the fraction.
  constexpr size_t kMaxProbes = 256;
  const size_t stride = n > kMaxProbes ? n / kMaxProbes : 1;
  // Probe k sits at logical index k * stride, i.e. (row, col) = (k * stride
  // / cols, k * stride % cols). Stepping (row, col) by the stride's row and
  // column parts visits exactly those positions with one division in all.
  const size_t row_step = stride / cols;
  const size_t col_step = stride % cols;
  const size_t rows = m.rows();
  size_t zeros = 0;
  size_t probes = 0;
  size_t col = 0;
  for (size_t row = 0; row < rows; row += row_step) {
    zeros += m.RowPtr(row)[col] == 0.0 ? 1 : 0;
    ++probes;
    col += col_step;
    if (col >= cols) {
      col -= cols;
      ++row;
    }
  }
  return static_cast<double>(zeros) / static_cast<double>(probes);
}

// ------------------------------------------------------------ autotuning

ProbeMeasurements MeasureProbes(KernelIsa isa) {
  QCFE_CHECK(KernelIsaAvailable(isa),
             "MeasureProbes: ISA tier is not available on this machine");
  const KernelTable& table = TableFor(isa);
  const KernelTable& scalar = internal::ScalarTable();
  ProbeMeasurements pm;
  Rng rng(0x9CFE5EEDULL);
  // Shapes mirror the deployed layer geometry: 48-wide hidden layers and
  // 66-wide plan-feature inputs (the bench_micro kernel shapes).
  constexpr size_t kHidden = 48;
  constexpr size_t kFeat = 66;
  Matrix out;

  // Dense-vs-streaming NN crossover over batch row counts, fully dense
  // input (the activation case the row threshold exists for).
  const Matrix bh = ProbeMatrix(&rng, kHidden, kHidden, 0.0);
  for (size_t rows : {1u, 2u, 4u, 8u, 16u, 24u, 32u, 48u, 64u}) {
    const Matrix a = ProbeMatrix(&rng, rows, kHidden, 0.0);
    const size_t iters = std::max<size_t>(2, 512 / rows);
    pm.rows.push_back(rows);
    pm.sparse_ns.push_back(
        BestNsPerCall(iters, [&] { table.sparse_nn(a, bh, &out); }));
    pm.dense_ns.push_back(BestNsPerCall(
        iters, [&] { table.dense_nn(a, bh, nullptr, &out, Epilogue::kNone); }));
  }

  // Sparse-vs-dense crossover over zero fractions at the plan-feature
  // shape (batched feature rows entering the first layer).
  const Matrix bf = ProbeMatrix(&rng, kFeat, kHidden, 0.0);
  for (double zf : {0.0, 0.1, 0.2, 0.3, 0.5, 0.7, 0.9}) {
    const Matrix a = ProbeMatrix(&rng, 64, kFeat, zf);
    pm.zero_fractions.push_back(zf);
    pm.sparse_zf_ns.push_back(
        BestNsPerCall(8, [&] { table.sparse_nn(a, bf, &out); }));
    pm.dense_zf_ns.push_back(BestNsPerCall(
        8, [&] { table.dense_nn(a, bf, nullptr, &out, Epilogue::kNone); }));
  }

  // Scalar-vs-tier dense GEMM on a real training batch shape. The scalar
  // tier's "speedup" over itself is 1.0 by definition, not something to
  // measure (two timings of the same loop only report noise).
  if (isa != KernelIsa::kScalar) {
    const Matrix ag = ProbeMatrix(&rng, 64, kHidden, 0.0);
    pm.scalar_gemm_ns = BestNsPerCall(
        8, [&] { scalar.dense_nn(ag, bh, nullptr, &out, Epilogue::kNone); });
    pm.simd_gemm_ns = BestNsPerCall(
        8, [&] { table.dense_nn(ag, bh, nullptr, &out, Epilogue::kNone); });
  }
  return pm;
}

KernelTuning SelectTuning(KernelIsa isa, const ProbeMeasurements& probes) {
  KernelTuning t = DefaultTuning(isa);
  const size_t nr = probes.rows.size();
  const size_t nz = probes.zero_fractions.size();
  const auto all_positive = [](const std::vector<double>& v) {
    for (double x : v) {
      if (!(x > 0.0)) return false;
    }
    return true;
  };
  bool ok = nr > 0 && probes.sparse_ns.size() == nr &&
            probes.dense_ns.size() == nr && nz > 0 &&
            probes.sparse_zf_ns.size() == nz && probes.dense_zf_ns.size() == nz;
  ok = ok && all_positive(probes.sparse_ns) && all_positive(probes.dense_ns) &&
       all_positive(probes.sparse_zf_ns) && all_positive(probes.dense_zf_ns);
  for (size_t i = 1; ok && i < nr; ++i) ok = probes.rows[i - 1] < probes.rows[i];
  for (size_t i = 1; ok && i < nz; ++i) {
    ok = probes.zero_fractions[i - 1] < probes.zero_fractions[i];
  }
  if (!ok) return t;  // compiled defaults, autotuned stays false

  // dense_min_rows: the smallest grid row count from which the dense panel
  // wins for the entire remaining suffix (suffix-wide so one noisy interior
  // point cannot open a dense window the neighbouring sizes contradict).
  size_t start = nr;
  while (start > 0 && probes.dense_ns[start - 1] <= probes.sparse_ns[start - 1]) {
    --start;
  }
  t.dense_min_rows = start == nr ? SIZE_MAX : probes.rows[start];

  // sparse_dispatch_threshold: midpoint between the last dense-winning and
  // the first suffix-wide sparse-winning zero fraction.
  size_t zstart = nz;
  while (zstart > 0 &&
         probes.sparse_zf_ns[zstart - 1] <= probes.dense_zf_ns[zstart - 1]) {
    --zstart;
  }
  if (zstart == nz) {
    t.sparse_dispatch_threshold = 1.5;  // sparse never won: disable
  } else if (zstart == 0) {
    t.sparse_dispatch_threshold = 0.0;  // sparse always won
  } else {
    t.sparse_dispatch_threshold = 0.5 * (probes.zero_fractions[zstart - 1] +
                                         probes.zero_fractions[zstart]);
  }

  if (probes.scalar_gemm_ns > 0.0 && probes.simd_gemm_ns > 0.0) {
    t.simd_gemm_speedup = probes.scalar_gemm_ns / probes.simd_gemm_ns;
  }
  t.autotuned = true;
  return t;
}

const KernelTuning& Tuning() {
  return AllTunings()[static_cast<size_t>(GetKernelIsa())];
}

void Autotune() {
  // Not a discarded status: AllTunings() returns the tuning array, and the
  // cast only forces its lazy magic-static micro-probe to run now.
  (void)AllTunings();
}

// ------------------------------------------------------------- products

void GemmNN(const Matrix& a, const Matrix& b, Matrix* out) {
  const KernelTable& t = ActiveTable();
  if (DispatchSparseNN(a)) {
    t.sparse_nn(a, b, out);
    return;
  }
  t.dense_nn(a, b, nullptr, out, Epilogue::kNone);
}

void GemmNNBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out) {
  const KernelTable& t = ActiveTable();
  if (DispatchSparseNN(a)) {
    t.sparse_nn(a, b, out);
    internal::BiasPass(bias, out);
    return;
  }
  t.dense_nn(a, b, &bias, out, Epilogue::kBias);
}

void GemmNNBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* out) {
  const KernelTable& t = ActiveTable();
  if (DispatchSparseNN(a)) {
    t.sparse_nn(a, b, out);
    internal::BiasPass(bias, out);
    internal::ReluPass(out);
    return;
  }
  t.dense_nn(a, b, &bias, out, Epilogue::kBiasRelu);
}

void GemmBT(const Matrix& a, const Matrix& b, Matrix* out) {
  // The streamed multi-chain kernel beats the one-dot-at-a-time reference
  // at every row count (the chains hide FMA latency even for a single
  // a-row), so BT never dispatches by shape.
  ActiveTable().bt(a, b, out);
}

void GemmAT(const Matrix& a, const Matrix& b, Matrix* out) {
  const KernelTable& t = ActiveTable();
  // The panel only pays once it amortises operand loads across >= kMr rows.
  if (a.rows() < internal::kMr) {
    t.at_stream(a, b, out);
    return;
  }
  t.at_panel(a, b, out);
}

void GemmATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmATAccumulate: row-count mismatch");
  QCFE_CHECK(acc->rows() == a.cols() && acc->cols() == b.cols(),
             "GemmATAccumulate: acc must be pre-shaped to a.cols x b.cols");
  const KernelTable& t = ActiveTable();
  // Rank-1 contractions (single-row batches) have a single term per
  // output element, so they accumulate straight into the sink row-sparsely.
  // Wider contractions keep the full-sum-then-add chains either through the
  // register panel (dense inputs) or through a thread-local temporary whose
  // zero-skip walk wins on one-hot feature inputs.
  if (a.rows() == 1) {
    t.at_acc_rank1(a, b, acc);
    return;
  }
  if (ZeroFraction(a) >= Tuning().sparse_dispatch_threshold) {
    t.at_acc_sparse(a, b, acc);
    return;
  }
  t.at_acc_panel(a, b, acc);
}

void ColSumAccumulate(const Matrix& a, Matrix* acc) {
  QCFE_CHECK(acc->rows() == 1 && acc->cols() == a.cols(),
             "ColSumAccumulate: acc must be a pre-shaped 1 x a.cols row");
  ActiveTable().colsum_acc(a, acc);
}

// --------------------------------------------------- in-order reductions

namespace {

void CheckChunkEnds(size_t rows, const std::vector<size_t>& chunk_ends) {
  size_t prev = 0;
  for (size_t end : chunk_ends) {
    QCFE_CHECK(end >= prev, "gradient reduction: chunk ends must ascend");
    prev = end;
  }
  QCFE_CHECK(prev == rows,
             "gradient reduction: the last chunk end must equal the rows");
}

}  // namespace

void InOrderATAccumulate(const RowRefs& a, const RowRefs& b,
                         const std::vector<size_t>& chunk_ends, Matrix* acc) {
  QCFE_CHECK(a.count == b.count, "InOrderATAccumulate: row-count mismatch");
  QCFE_CHECK(acc->rows() == a.cols && acc->cols() == b.cols,
             "InOrderATAccumulate: acc must be pre-shaped to a.cols x b.cols");
  CheckChunkEnds(a.count, chunk_ends);
  ActiveTable().in_order_at_acc(a, b, chunk_ends.data(), chunk_ends.size(),
                                acc);
}

void InOrderColSumAccumulate(const RowRefs& a,
                             const std::vector<size_t>& chunk_ends,
                             Matrix* acc) {
  QCFE_CHECK(acc->rows() == 1 && acc->cols() == a.cols,
             "InOrderColSumAccumulate: acc must be a pre-shaped 1 x a.cols row");
  CheckChunkEnds(a.count, chunk_ends);
  ActiveTable().in_order_colsum_acc(a, chunk_ends.data(), chunk_ends.size(),
                                    acc);
}

// ------------------------------------------------- segmented reductions

void SegmentedATAccumulate(const Matrix& a, const Matrix& b,
                           const std::vector<size_t>& row_ends, Matrix* acc) {
  QCFE_CHECK(a.rows() == b.rows(), "SegmentedATAccumulate: row-count mismatch");
  QCFE_CHECK(acc->rows() == a.cols() && acc->cols() == b.cols(),
             "SegmentedATAccumulate: acc must be pre-shaped to a.cols x b.cols");
  CheckChunkEnds(a.rows(), row_ends);
  ActiveTable().segmented_at_acc(a, b, row_ends.data(), row_ends.size(), acc);
}

void SegmentedColSumAccumulate(const Matrix& a,
                               const std::vector<size_t>& row_ends,
                               Matrix* acc) {
  QCFE_CHECK(acc->rows() == 1 && acc->cols() == a.cols(),
             "SegmentedColSumAccumulate: acc must be a pre-shaped 1 x a.cols "
             "row");
  CheckChunkEnds(a.rows(), row_ends);
  ActiveTable().segmented_colsum_acc(a, row_ends.data(), row_ends.size(), acc);
}

// ------------------------------------------------------------ epilogues

void ReluForward(const Matrix& in, Matrix* out) {
  if (out != &in) out->ResetShapeUninitialized(in.rows(), in.cols());
  // Flat over the physical buffer: relu(0) == 0 preserves the pad zeros.
  const double* src = in.data().data();
  double* dst = out->data().data();
  for (size_t i = 0; i < in.size(); ++i) dst[i] = src[i] > 0.0 ? src[i] : 0.0;
}

void ReluMaskBackward(const Matrix& grad_out, const Matrix& pre_activation,
                      Matrix* grad_in) {
  QCFE_CHECK(grad_out.rows() == pre_activation.rows() &&
                 grad_out.cols() == pre_activation.cols(),
             "ReluMaskBackward: gradient and pre-activation shapes differ");
  if (grad_in != &grad_out) {
    grad_in->ResetShapeUninitialized(grad_out.rows(), grad_out.cols());
  }
  // Flat: pad pre-activations are 0 (<= 0), so pad gradients stay 0.
  const double* src = grad_out.data().data();
  const double* pre = pre_activation.data().data();
  double* dst = grad_in->data().data();
  for (size_t i = 0; i < grad_out.size(); ++i) {
    dst[i] = pre[i] <= 0.0 ? 0.0 : src[i];
  }
}

// ------------------------------------------------------- optimizer steps

void AdamStep(Matrix* p, const Matrix& g, Matrix* m, Matrix* v, double lr,
              double beta1, double beta2, double eps, double bc1, double bc2) {
  QCFE_CHECK(p->rows() == g.rows() && p->cols() == g.cols() &&
                 m->rows() == g.rows() && m->cols() == g.cols() &&
                 v->rows() == g.rows() && v->cols() == g.cols(),
             "AdamStep: parameter/gradient/state shapes must match");
  // Flat over the physical buffer: every operand's pad columns are zero
  // and an Adam update of all-zero state/gradient is exactly zero, so the
  // layout invariant survives.
  ActiveTable().adam_step(p->data().data(), g.data().data(), m->data().data(),
                          v->data().data(), p->size(), lr, beta1, beta2, eps,
                          bc1, bc2);
}

void SgdStep(Matrix* p, const Matrix& g, Matrix* v, double lr,
             double momentum) {
  QCFE_CHECK(p->rows() == g.rows() && p->cols() == g.cols() &&
                 v->rows() == g.rows() && v->cols() == g.cols(),
             "SgdStep: parameter/gradient/velocity shapes must match");
  ActiveTable().sgd_step(p->data().data(), g.data().data(), v->data().data(),
                         p->size(), lr, momentum);
}

}  // namespace kernels
}  // namespace qcfe
