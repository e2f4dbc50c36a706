#ifndef QCFE_NN_KERNELS_INTERNAL_H_
#define QCFE_NN_KERNELS_INTERNAL_H_

/// \file kernels_internal.h
/// The tier dispatch table shared between the public kernel front end
/// (kernels.cc) and the per-ISA implementation translation units
/// (kernels_scalar.cc, kernels_simd_avx2.cc). Not a public header: include
/// kernels.h instead; tests and bench_micro include it to reach one table
/// slot directly.
///
/// Every tier fills one KernelTable with the same set of operations; the
/// front end picks a table once per call from the process-wide active ISA.
/// The within-tier determinism contract (kernels.h "Determinism contract")
/// binds every implementation slot: each output element's value may depend
/// only on its own mathematical inputs and the tier — never on batch size,
/// panel position, dispatch path, or which table slot computed it.

#include <cstddef>

#include "nn/kernels.h"
#include "nn/matrix.h"

namespace qcfe {
namespace kernels {
namespace internal {

/// Epilogue selector for the NN-family kernels.
enum class Epilogue { kNone, kBias, kBiasRelu };

/// Register-panel geometry shared by every tier: a kMr x kNr output tile is
/// held in registers while the contraction dimension streams past. These
/// are structural constants (the register budget), not tuned thresholds.
constexpr size_t kMr = 4;
constexpr size_t kNr = 8;

/// One ISA tier's implementation of every kernel operation.
struct KernelTable {
  /// Register-blocked dense a*b with optional fused bias / bias+ReLU.
  /// bias may be null iff e == Epilogue::kNone.
  void (*dense_nn)(const Matrix& a, const Matrix& b, const Matrix* bias,
                   Matrix* out, Epilogue e);
  /// Sparse row-skip a*b (product only; callers add bias/ReLU passes).
  void (*sparse_nn)(const Matrix& a, const Matrix& b, Matrix* out);
  /// a * b^T.
  void (*bt)(const Matrix& a, const Matrix& b, Matrix* out);
  /// a^T * b, register-panel form (overwrite).
  void (*at_panel)(const Matrix& a, const Matrix& b, Matrix* out);
  /// a^T * b, streaming zero-skip form (overwrite; wins on few rows).
  void (*at_stream)(const Matrix& a, const Matrix& b, Matrix* out);
  /// acc += a^T * b, register-panel contraction then one add.
  void (*at_acc_panel)(const Matrix& a, const Matrix& b, Matrix* acc);
  /// acc += a^T * b via a thread-local zero-skip temporary then one Add.
  void (*at_acc_sparse)(const Matrix& a, const Matrix& b, Matrix* acc);
  /// acc += a^T * b for single-row a/b (rank-1, row-sparse).
  void (*at_acc_rank1)(const Matrix& a, const Matrix& b, Matrix* acc);
  /// acc (1 x n) += column sums of a.
  void (*colsum_acc)(const Matrix& a, Matrix* acc);
  /// In-order chunked a^T * b / column-sum reductions (kernels.h); the
  /// front end has validated shapes and chunk bounds.
  void (*in_order_at_acc)(const RowRefs& a, const RowRefs& b,
                          const size_t* chunk_ends, size_t num_chunks,
                          Matrix* acc);
  void (*in_order_colsum_acc)(const RowRefs& a, const size_t* chunk_ends,
                              size_t num_chunks, Matrix* acc);
  /// Segmented a^T * b / column-sum reductions (kernels.h); the front end
  /// has validated shapes and segment bounds.
  void (*segmented_at_acc)(const Matrix& a, const Matrix& b,
                           const size_t* row_ends, size_t num_segments,
                           Matrix* acc);
  void (*segmented_colsum_acc)(const Matrix& a, const size_t* row_ends,
                               size_t num_segments, Matrix* acc);
  /// One Adam update over flat arrays of length n (bc1/bc2 are the
  /// precomputed bias corrections 1-beta^t). Bit-identical across tiers:
  /// every lane operation (mul/add/div/sqrt) is a single IEEE rounding.
  void (*adam_step)(double* p, const double* g, double* m, double* v,
                    size_t n, double lr, double beta1, double beta2,
                    double eps, double bc1, double bc2);
  /// One SGD+momentum update over flat arrays of length n. Bit-identical
  /// across tiers for the same reason.
  void (*sgd_step)(double* p, const double* g, double* v, size_t n,
                   double lr, double momentum);
};

/// The bit-exact scalar tier (always available; the same arithmetic as the
/// reference loops).
const KernelTable& ScalarTable();

/// The AVX2+FMA tier; null when the build does not compile it in
/// (QCFE_ENABLE_AVX2=OFF or a non-x86 target).
const KernelTable* Avx2Table();

/// The active ISA tier's table (kernels.h SetKernelIsa). The dispatched
/// entry points go through it; tests and benchmarks call its slots to
/// reach one specific path, such as the dense or the sparse product.
const KernelTable& ActiveTable();

/// The scalar tier's in-order reductions. Their chains are single-rounding
/// multiplies and adds, so any tier may reuse them as they are (the AVX2
/// tier reuses the column sums).
void ScalarInOrderATAccumulate(const RowRefs& a, const RowRefs& b,
                               const size_t* chunk_ends, size_t num_chunks,
                               Matrix* acc);
void ScalarInOrderColSumAccumulate(const RowRefs& a, const size_t* chunk_ends,
                                   size_t num_chunks, Matrix* acc);

/// The scalar tier's segmented column sums: plain adds only, so the AVX2
/// tier reuses them as they are.
void ScalarSegmentedColSumAccumulate(const Matrix& a, const size_t* row_ends,
                                     size_t num_segments, Matrix* acc);

/// Separate bias / ReLU passes for paths that accumulate in memory (the
/// sparse product and the reference loops): identical per-element
/// arithmetic to the fused epilogues in every tier (one IEEE add / one
/// compare-select per element).
void BiasPass(const Matrix& bias, Matrix* out);
void ReluPass(Matrix* out);

}  // namespace internal
}  // namespace kernels
}  // namespace qcfe

#endif  // QCFE_NN_KERNELS_INTERNAL_H_
