#ifndef QCFE_NN_KERNELS_H_
#define QCFE_NN_KERNELS_H_

/// \file kernels.h
/// The dedicated NN kernel layer: every forward/backward matrix product in
/// the training and serving hot paths routes through these entry points.
///
/// One axis selects the implementation: the **KernelIsa** instruction
/// tier, either the bit-exact scalar tier or the AVX2+FMA tier, picked once
/// per process by runtime CPU detection (overridable via QCFE_KERNEL_ISA).
/// Builds for other targets (AArch64 included) run the scalar tier. Within
/// a tier, each entry point picks a table slot from the operand's shape and
/// density: the register-blocked dense panel or the sparse row-skip loop.
///
/// Determinism contract. Within one ISA tier, every kernel accumulates each
/// output element's contraction terms in ascending-k order into a single
/// accumulator seeded with +0.0 (a fused-multiply-add chain on the AVX2
/// tier, a plain multiply-add chain on the scalar tier). Skipping an
/// exactly-zero product term cannot change the accumulator bits, so the
/// dense slot (which includes zero terms) and the sparse slot (which skips
/// them) are bit-identical for finite inputs, at any shape, batch size and
/// dispatch decision — *within a tier*. The `*Accumulate` forms compute the
/// full contraction first and add it to the destination with one unfused
/// store. Across tiers, FMA's single rounding makes contraction results
/// differ from the scalar tier by a bounded relative error (gated at
/// kSimdRelTolerance by the parity machinery in tests/kernels_test.cc and
/// `bench_micro --smoke`); ColSumAccumulate, the in-order reductions,
/// AdamStep and SgdStep use no FMA and no cross-lane reductions, so they
/// are bit-identical across every tier.
///
/// Autotuning. The dispatch thresholds (dense-vs-streaming row crossover,
/// sparse-vs-dense zero-fraction crossover) are measured once per process
/// by a lazy startup micro-probe over real layer shapes (see Autotune());
/// the compiled defaults are only the fallback for malformed probe data.
/// Because dispatch is bit-safe within a tier, a different tuning never
/// changes results — only speed.
///
/// The `reference` loops below are the bit-exact baseline: the parity
/// tests and `bench_micro --smoke` compare every tier's table slots
/// against them, and the before/after GEMM benchmark times them.

#include <cstddef>
#include <vector>

#include "nn/matrix.h"

namespace qcfe {
namespace kernels {

// ------------------------------------------------------------- ISA tiers

/// Instruction-set tier backing the kernel implementations. kScalar is the
/// bit-exact reference arithmetic, always available; kAvx2 is available
/// when both compiled in and supported by the running CPU.
enum class KernelIsa {
  kScalar,
  kAvx2,
};

/// True when `isa` is both compiled into this binary and supported by the
/// running CPU (runtime CPUID detection).
bool KernelIsaAvailable(KernelIsa isa);

/// The best available tier on this machine (kAvx2 > kScalar).
KernelIsa DetectKernelIsa();

/// Sets/reads the process-wide kernel ISA tier (atomic; safe to flip
/// between parallel regions, not during one). Setting an unavailable tier
/// clamps to kScalar. The initial value honours QCFE_KERNEL_ISA
/// (scalar|avx2|auto; unavailable pins clamp, auto = detection).
void SetKernelIsa(KernelIsa isa);
KernelIsa GetKernelIsa();

/// Lower-case tier name ("scalar", "avx2") for logs and JSON.
const char* KernelIsaName(KernelIsa isa);

/// RAII ISA pin for tests and benchmarks.
class ScopedKernelIsa {
 public:
  explicit ScopedKernelIsa(KernelIsa isa) : saved_(GetKernelIsa()) {
    SetKernelIsa(isa);
  }
  ~ScopedKernelIsa() { SetKernelIsa(saved_); }
  ScopedKernelIsa(const ScopedKernelIsa&) = delete;
  ScopedKernelIsa& operator=(const ScopedKernelIsa&) = delete;

 private:
  KernelIsa saved_;
};

/// Documented cross-tier tolerance: AVX2 contraction kernels (FMA chains,
/// and GemmBT's lane-split reduction) may differ from the scalar tier by
/// this relative error per element. The parity gates in
/// tests/kernels_test.cc and `bench_micro --smoke` enforce it.
constexpr double kSimdRelTolerance = 1e-12;

// ------------------------------------------------------------ autotuning

/// The dispatch thresholds one ISA tier runs with. Published into
/// BENCH_parallel.json by bench_micro so tuned values are visible.
struct KernelTuning {
  KernelIsa isa = KernelIsa::kScalar;
  /// Minimum a.rows() before the NN dispatch considers the blocked
  /// dense kernel; below it the streaming row-skip loop wins. SIZE_MAX
  /// means the probe never saw the panel win (always stream by row count).
  size_t dense_min_rows = 0;
  /// Zero-fraction threshold at/above which dispatch prefers the
  /// sparse row-skip path. 0.0 = always sparse; > 1.0 = never sparse.
  double sparse_dispatch_threshold = 0.0;
  /// Probe-measured dense GemmNN speedup of this tier over the scalar tier
  /// on a real layer shape (scalar_ns / tier_ns); 1.0 for the scalar tier.
  double simd_gemm_speedup = 1.0;
  /// True when the thresholds came from the startup micro-probe; false for
  /// the compiled defaults (unavailable tier or malformed probe data).
  bool autotuned = false;
};

/// Raw micro-probe timings feeding SelectTuning(). Exposed (and
/// injectable) so tests can assert threshold selection deterministically
/// without depending on wall-clock behaviour.
struct ProbeMeasurements {
  /// Row-count grid for the dense-vs-streaming NN crossover (ascending),
  /// with per-point best-of timings for each path on fully dense input.
  std::vector<size_t> rows;
  std::vector<double> sparse_ns;
  std::vector<double> dense_ns;
  /// Zero-fraction grid for the sparse-vs-dense crossover (ascending),
  /// with per-point timings at a fixed plan-feature-like shape.
  std::vector<double> zero_fractions;
  std::vector<double> sparse_zf_ns;
  std::vector<double> dense_zf_ns;
  /// Dense GemmNN on a real layer shape: scalar tier vs the probed tier.
  double scalar_gemm_ns = 0.0;
  double simd_gemm_ns = 0.0;
};

/// Runs the startup micro-probe for `isa` (which must be available):
/// times the tier's kernels directly over real layer shapes with
/// deterministic inputs. Timing noise only moves thresholds — dispatch is
/// bit-safe within a tier, so results never change.
ProbeMeasurements MeasureProbes(KernelIsa isa);

/// Pure threshold selection from probe data — deterministic and monotone
/// in the timings (unit-tested with injected measurements):
///  * dense_min_rows = the smallest grid row count from which the dense
///    panel wins for the entire remaining suffix (SIZE_MAX when none);
///  * sparse_dispatch_threshold = the midpoint between the last
///    dense-winning and first suffix-wide sparse-winning zero fraction
///    (0.0 when sparse wins everywhere, > 1.0 when nowhere);
///  * simd_gemm_speedup = scalar_gemm_ns / simd_gemm_ns.
/// Malformed measurements (empty/mismatched grids, non-positive timings)
/// yield the compiled defaults with autotuned=false.
KernelTuning SelectTuning(KernelIsa isa, const ProbeMeasurements& probes);

/// The active tier's tuning. Lazily runs the micro-probe for every
/// available tier on first use; the result is fixed for the process.
const KernelTuning& Tuning();

/// Forces the lazy micro-probe to run now (e.g. before entering a timed
/// region). Idempotent.
void Autotune();

/// Fraction of exactly-zero entries in a deterministic strided sample of
/// `m`'s logical elements (a few hundred probes; the row padding is never
/// sampled). Exposed for tests; the dispatch heuristic.
double ZeroFraction(const Matrix& m);

/// Compiled-default zero-fraction threshold above which dispatch prefers
/// the sparse row-skip path (used when the probe data is malformed).
/// The row-skip's saving scales linearly with the zero fraction while the
/// blocked panel's register-reuse win on fully dense inputs is bounded, so
/// the crossover sits well below half: plan-feature and one-hot set inputs
/// (>=50% zeros) go sparse, standardized activations (exactly 0% zeros) go
/// dense, and mildly padded inputs like wave-batched unit rows (~25%
/// zeros) still favour the skip.
constexpr double kSparseDispatchThreshold = 0.2;

// ------------------------------------------------------------- products
// All Into-forms reshape `out` reusing its allocation; `out` must not alias
// an input. Accumulate-forms require `acc` pre-shaped to the result shape.

/// out = a * b. (m x k) * (k x n) -> (m x n).
void GemmNN(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a * b + bias (1 x n row broadcast): the fused linear-layer
/// forward epilogue.
void GemmNNBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out);

/// out = relu(a * b + bias): fused linear+ReLU forward for serving, where
/// the pre-activation never needs to be materialised.
void GemmNNBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* out);

/// out = a * b^T. (m x k) * (n x k) -> (m x n). The dX = dY * W^T backward
/// product, without materialising the transpose.
void GemmBT(const Matrix& a, const Matrix& b, Matrix* out);

/// out = a^T * b. (k x m) * (k x n) -> (m x n).
void GemmAT(const Matrix& a, const Matrix& b, Matrix* out);

/// acc += a^T * b with each output element's contraction summed in a
/// register before the single add: the dW += X^T * dY backward product,
/// matching `acc->Add(MatMulAT(a, b))` without the temporary.
void GemmATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc);

/// acc (1 x n) += column sums of a: the db += colsum(dY) backward product,
/// bit-identical to `acc->Add(a.ColSum())` without the temporary (in every
/// tier — column sums are vertical and never reduce across lanes).
void ColSumAccumulate(const Matrix& a, Matrix* acc);

// --------------------------------------------------- in-order reductions
// Parameter-gradient reductions over an explicit row order. Batched
// training computes every row's activations and deltas in a few large
// matrices, but must sum the per-row gradient contributions in one fixed
// order, cut into fixed chunks, for the fitted model to stay bit-identical
// to one that was trained a row at a time. These kernels replay exactly
// that chain. Each chunk's sum is zero-seeded and built row by row in
// ascending order, then added onto `acc`, in chunk order. Chunk c covers
// rows [chunk_ends[c-1], chunk_ends[c]), with chunk_ends[-1] = 0. The last
// entry must equal the row count, and an empty chunk adds nothing. The
// chains use only single-rounding multiplies and adds, never an FMA or a
// cross-lane reduction, so every tier gives the same bits.

/// Row-ordered operand of the in-order kernels: logical row r is the
/// `cols` doubles at rows[r]. The rows may live in any number of matrices,
/// so a caller can replay an order across batches without gathering them.
struct RowRefs {
  const double* const* rows = nullptr;
  size_t count = 0;
  size_t cols = 0;
};

/// acc += the chunked in-order sum of a_r^T * b_r. Each row adds with
/// GemmATAccumulate's single-row arithmetic: per element one multiply, then
/// one add, and nothing at all where the a entry is zero. Bit-identical to
/// zeroing a scratch per chunk, calling GemmATAccumulate on each 1-row
/// pair, and adding the scratch onto acc. acc must be a.cols x b.cols.
void InOrderATAccumulate(const RowRefs& a, const RowRefs& b,
                         const std::vector<size_t>& chunk_ends, Matrix* acc);

/// acc (1 x n) += the chunked in-order sum of the rows of a, each row
/// added as a 1-row ColSumAccumulate would add it (0.0 + a_r). Bit-identical
/// to zeroing a scratch row per chunk, calling ColSumAccumulate on each
/// 1-row matrix, and adding the scratch onto acc.
void InOrderColSumAccumulate(const RowRefs& a,
                             const std::vector<size_t>& chunk_ends,
                             Matrix* acc);

// ------------------------------------------------- segmented reductions
// Parameter-gradient reductions over contiguous row segments of one batch.
// A batched forward/backward leaves every row's activations and deltas in
// a few large matrices; these kernels reduce them as if each segment had
// been a separate backward pass into its own zeroed gradient sink, with
// the sinks added onto `acc` in segment order. Segment s covers rows
// [row_ends[s-1], row_ends[s]), with row_ends[-1] = 0; the last entry must
// equal the row count. Unlike the in-order kernels, every segment adds its
// sink, so an empty segment adds +0.0.

/// acc += the segment-ordered sum of a_s^T * b_s. Each segment's
/// contraction uses the active tier's GemmATAccumulate arithmetic (an FMA
/// chain on the AVX2 tier), seeded with +0.0 and summed in ascending row
/// order. Bit-identical, within a tier and for finite inputs, to zeroing a
/// sink per segment, calling GemmATAccumulate on that segment's rows, and
/// adding the sink onto acc. acc must be a.cols x b.cols.
void SegmentedATAccumulate(const Matrix& a, const Matrix& b,
                           const std::vector<size_t>& row_ends, Matrix* acc);

/// acc (1 x n) += the segment-ordered sum of each segment's column sums.
/// Bit-identical to zeroing a sink row per segment, calling
/// ColSumAccumulate on that segment's rows, and adding the sink onto acc,
/// in every tier.
void SegmentedColSumAccumulate(const Matrix& a,
                               const std::vector<size_t>& row_ends,
                               Matrix* acc);

// ------------------------------------------------------------ epilogues

/// out = relu(in), elementwise; `out` may alias `in`.
void ReluForward(const Matrix& in, Matrix* out);

/// grad_in = grad_out with entries zeroed where pre_activation <= 0: the
/// fused ReLU-mask backward. `grad_in` may alias `grad_out` (the in-place
/// form the tape-scratch backward uses).
void ReluMaskBackward(const Matrix& grad_out, const Matrix& pre_activation,
                      Matrix* grad_in);

// ------------------------------------------------------- optimizer steps

/// One Adam update of `p` (with first/second-moment state `m`/`v`) from
/// gradient `g`; bc1/bc2 are the precomputed bias corrections 1 - beta^t.
/// All four matrices must share one shape. Vectorized on the AVX2 tier
/// with single-rounding lane ops only, so the update is bit-identical
/// across every tier.
void AdamStep(Matrix* p, const Matrix& g, Matrix* m, Matrix* v, double lr,
              double beta1, double beta2, double eps, double bc1, double bc2);

/// One SGD+momentum update of `p` (velocity `v`) from gradient `g`.
/// Bit-identical across tiers for the same reason.
void SgdStep(Matrix* p, const Matrix& g, Matrix* v, double lr,
             double momentum);

// ------------------------------------------------------------- reference
// The historical unblocked loops, self-contained (no dispatch, scalar
// arithmetic). Parity tests compare every table slot against these bit for
// bit under the scalar tier, and within kSimdRelTolerance under the AVX2
// tier.
namespace reference {
void GemmNN(const Matrix& a, const Matrix& b, Matrix* out);
void GemmNNBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out);
void GemmNNBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* out);
void GemmBT(const Matrix& a, const Matrix& b, Matrix* out);
void GemmAT(const Matrix& a, const Matrix& b, Matrix* out);
void GemmATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc);
void ColSumAccumulate(const Matrix& a, Matrix* acc);
/// The in-order reductions as the per-row loop they replace: one zeroed
/// scratch per chunk, one 1-row GemmATAccumulate / ColSumAccumulate per row
/// (row copies and temporaries included), then one Add per chunk.
void InOrderATAccumulate(const RowRefs& a, const RowRefs& b,
                         const std::vector<size_t>& chunk_ends, Matrix* acc);
void InOrderColSumAccumulate(const RowRefs& a,
                             const std::vector<size_t>& chunk_ends,
                             Matrix* acc);
/// The segmented reductions as the loop they replace: per segment, the
/// rows copied out, one zeroed sink, one GemmATAccumulate /
/// ColSumAccumulate, then one Add.
void SegmentedATAccumulate(const Matrix& a, const Matrix& b,
                           const std::vector<size_t>& row_ends, Matrix* acc);
void SegmentedColSumAccumulate(const Matrix& a,
                               const std::vector<size_t>& row_ends,
                               Matrix* acc);
}  // namespace reference

}  // namespace kernels
}  // namespace qcfe

#endif  // QCFE_NN_KERNELS_H_
