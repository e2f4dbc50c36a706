/// \file kernels_scalar.cc
/// The bit-exact scalar kernel tier, plus the historical reference loops.
/// Every accumulation here is a plain mul-then-add chain in ascending
/// contraction order (the determinism contract in kernels.h); this
/// translation unit is compiled with -ffp-contract=off so the compiler can
/// never fuse those chains into FMAs behind the contract's back. The AVX2
/// tier (kernels_simd_avx2.cc) is gated against this tier at a documented
/// tolerance; the scalar tier itself is gated against `reference` bit for
/// bit.

#include <algorithm>
#include <cmath>

#include "nn/kernels.h"
#include "nn/kernels_internal.h"
#include "util/check.h"

namespace qcfe {
namespace kernels {
namespace internal {

namespace {

/// The historical sparse row-skip product: i-k-j order, streaming over
/// contiguous rows of b, skipping zero entries of a. Accumulates in the
/// output memory (zero-seeded, ascending k per element). Cost is
/// proportional to the non-zeros of a, which wins on plan feature rows.
void SparseNN(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.rows(), "GemmNN: a.cols() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmNN: out must not alias an input");
  out->ResetShape(a.rows(), b.cols());
  const size_t m = a.rows();
  const size_t kk = a.cols();
  const size_t n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    const double* arow = a.RowPtr(i);
    double* __restrict orow = out->RowPtr(i);
    for (size_t k = 0; k < kk; ++k) {
      double av = arow[k];
      if (av == 0.0) continue;
      const double* __restrict brow = b.RowPtr(k);
      for (size_t j = 0; j < n; ++j) orow[j] += av * brow[j];
    }
  }
}

/// Register-blocked dense product with optional fused bias / bias+ReLU
/// epilogue. Every output element owns one accumulator, zero-seeded,
/// streaming k in ascending order — the same addition chain as the sparse
/// path (zero products cannot change the accumulator bits), so dispatch
/// never changes results. The fixed-trip full-panel inner loop is what the
/// compiler vectorises; ragged edges take the bounded generic loop.
template <Epilogue kEpilogue>
void DenseNN(const Matrix& a, const Matrix& b, const Matrix* bias,
             Matrix* out) {
  QCFE_CHECK(a.cols() == b.rows(), "GemmNN: a.cols() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmNN: out must not alias an input");
  QCFE_DCHECK(kEpilogue == Epilogue::kNone ||
                  (bias != nullptr && bias->rows() == 1 &&
                   bias->cols() == b.cols()),
              "fused epilogue requires a 1 x n bias row");
  out->ResetShapeUninitialized(a.rows(), b.cols());
  const size_t m = a.rows();
  const size_t kk = a.cols();
  const size_t n = b.cols();
  const size_t lda = a.ld();
  const size_t ldb = b.ld();
  const double* __restrict ap = a.data().data();
  const double* __restrict bp = b.data().data();
  const double* biasp =
      kEpilogue == Epilogue::kNone ? nullptr : bias->RowPtr(0);
  for (size_t i0 = 0; i0 < m; i0 += kMr) {
    const size_t mr = std::min(kMr, m - i0);
    for (size_t j0 = 0; j0 < n; j0 += kNr) {
      const size_t nr = std::min(kNr, n - j0);
      double acc[kMr][kNr] = {{0.0}};
      if (mr == kMr && nr == kNr) {
        for (size_t k = 0; k < kk; ++k) {
          const double* __restrict brow = bp + k * ldb + j0;
          for (size_t ii = 0; ii < kMr; ++ii) {
            const double av = ap[(i0 + ii) * lda + k];
            for (size_t jj = 0; jj < kNr; ++jj) acc[ii][jj] += av * brow[jj];
          }
        }
      } else {
        for (size_t k = 0; k < kk; ++k) {
          const double* __restrict brow = bp + k * ldb + j0;
          for (size_t ii = 0; ii < mr; ++ii) {
            const double av = ap[(i0 + ii) * lda + k];
            for (size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * brow[jj];
          }
        }
      }
      for (size_t ii = 0; ii < mr; ++ii) {
        double* dst = out->RowPtr(i0 + ii) + j0;
        for (size_t jj = 0; jj < nr; ++jj) {
          double v = acc[ii][jj];
          if (kEpilogue != Epilogue::kNone) v += biasp[j0 + jj];
          if (kEpilogue == Epilogue::kBiasRelu) v = v > 0.0 ? v : 0.0;
          dst[jj] = v;
        }
      }
    }
  }
}

void DenseNNDispatch(const Matrix& a, const Matrix& b, const Matrix* bias,
                     Matrix* out, Epilogue e) {
  switch (e) {
    case Epilogue::kNone:
      DenseNN<Epilogue::kNone>(a, b, bias, out);
      return;
    case Epilogue::kBias:
      DenseNN<Epilogue::kBias>(a, b, bias, out);
      return;
    case Epilogue::kBiasRelu:
      DenseNN<Epilogue::kBiasRelu>(a, b, bias, out);
      return;
  }
}

/// Register-blocked a^T * b: an (a.cols x b.cols) output panel accumulates
/// while the shared row dimension streams past; rows whose a-panel entries
/// are all exactly zero are skipped (their products are ±0.0 and cannot
/// change the accumulators). With accumulate=true the finished panel is
/// added onto the destination in one pass — the register-resident
/// replacement for "materialise a^T * b, then Add()".
template <bool kAccumulate>
void DenseAT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmAT: a.rows() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmAT: out must not alias an input");
  if (!kAccumulate) {
    out->ResetShapeUninitialized(a.cols(), b.cols());
  } else {
    QCFE_CHECK(out->rows() == a.cols() && out->cols() == b.cols(),
               "GemmATAccumulate: acc must be pre-shaped to a.cols x b.cols");
  }
  const size_t rows = a.rows();
  const size_t m = a.cols();
  const size_t n = b.cols();
  for (size_t i0 = 0; i0 < m; i0 += kMr) {
    const size_t mr = std::min(kMr, m - i0);
    for (size_t j0 = 0; j0 < n; j0 += kNr) {
      const size_t nr = std::min(kNr, n - j0);
      double acc[kMr][kNr] = {{0.0}};
      if (mr == kMr && nr == kNr) {
        // Fixed trip counts keep the accumulator panel in registers.
        for (size_t r = 0; r < rows; ++r) {
          const double* __restrict arow = a.RowPtr(r) + i0;
          const double* __restrict brow = b.RowPtr(r) + j0;
          double av[kMr];
          bool any = false;
          for (size_t ii = 0; ii < kMr; ++ii) {
            av[ii] = arow[ii];
            any = any || av[ii] != 0.0;
          }
          if (!any) continue;
          for (size_t ii = 0; ii < kMr; ++ii) {
            for (size_t jj = 0; jj < kNr; ++jj) {
              acc[ii][jj] += av[ii] * brow[jj];
            }
          }
        }
      } else {
        for (size_t r = 0; r < rows; ++r) {
          const double* __restrict arow = a.RowPtr(r) + i0;
          const double* __restrict brow = b.RowPtr(r) + j0;
          for (size_t ii = 0; ii < mr; ++ii) {
            const double av = arow[ii];
            if (av == 0.0) continue;
            for (size_t jj = 0; jj < nr; ++jj) acc[ii][jj] += av * brow[jj];
          }
        }
      }
      for (size_t ii = 0; ii < mr; ++ii) {
        double* dst = out->RowPtr(i0 + ii) + j0;
        for (size_t jj = 0; jj < nr; ++jj) {
          if (kAccumulate) {
            dst[jj] += acc[ii][jj];
          } else {
            dst[jj] = acc[ii][jj];
          }
        }
      }
    }
  }
}

void DenseATOverwrite(const Matrix& a, const Matrix& b, Matrix* out) {
  DenseAT<false>(a, b, out);
}

void DenseATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  DenseAT<true>(a, b, acc);
}

/// Streaming zero-skip a^T * b (overwrite): the historical i-k-j loop,
/// accumulating in the output memory. Per-element chains are identical to
/// the register panel's (ascending row order, zero terms skipped), so the
/// small-row dispatch between them never changes bits.
void StreamAT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmAT: a.rows() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmAT: out must not alias an input");
  out->ResetShape(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.RowPtr(r);
    const double* brow = b.RowPtr(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out->RowPtr(i);
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
}

/// Sparse-aware a^T * b accumulate for multi-row contractions: replays the
/// historical "zero-skip product into a temporary, then Add()" chains with
/// a thread-local temporary, so warm steady-state calls never allocate.
/// The zero-skip makes cost proportional to a's non-zeros — the winning
/// shape for one-hot feature inputs — while the full-sum-then-add order
/// keeps results bit-identical to the reference.
void SparseTempATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  thread_local Matrix tmp;
  tmp.ResetShape(a.cols(), b.cols());
  const size_t rows = a.rows();
  const size_t n = b.cols();
  for (size_t r = 0; r < rows; ++r) {
    const double* arow = a.RowPtr(r);
    const double* __restrict brow = b.RowPtr(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* __restrict trow = tmp.RowPtr(i);
      for (size_t j = 0; j < n; ++j) trow[j] += av * brow[j];
    }
  }
  acc->Add(tmp);
}

/// Register-blocked a * b^T: for each row of a, kNr dot products build
/// concurrently — kNr independent ascending-k accumulator chains (the
/// reference loop's exact chains, but with the FMA-latency serialisation of
/// a lone dot product hidden behind kNr-way ILP, and each a-row's streamed
/// read amortised over kNr b-rows).
void DenseBT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.cols(), "GemmBT: a.cols() must equal b.cols()");
  QCFE_CHECK(out != &a && out != &b, "GemmBT: out must not alias an input");
  out->ResetShapeUninitialized(a.rows(), b.rows());
  const size_t m = a.rows();
  const size_t n = b.rows();
  const size_t kk = a.cols();
  for (size_t i = 0; i < m; ++i) {
    const double* __restrict arow = a.RowPtr(i);
    double* __restrict orow = out->RowPtr(i);
    size_t j0 = 0;
    for (; j0 + kNr <= n; j0 += kNr) {
      const double* __restrict bp[kNr];
      for (size_t jj = 0; jj < kNr; ++jj) bp[jj] = b.RowPtr(j0 + jj);
      double acc[kNr] = {0.0};
      for (size_t k = 0; k < kk; ++k) {
        const double av = arow[k];
        for (size_t jj = 0; jj < kNr; ++jj) acc[jj] += av * bp[jj][k];
      }
      for (size_t jj = 0; jj < kNr; ++jj) orow[j0 + jj] = acc[jj];
    }
    for (; j0 < n; ++j0) {
      const double* __restrict brow = b.RowPtr(j0);
      double acc = 0.0;
      for (size_t k = 0; k < kk; ++k) acc += arow[k] * brow[k];
      orow[j0] = acc;
    }
  }
}

/// Rank-1 a^T * b accumulate (a and b both single rows): dst(i, :) +=
/// a(0, i) * b(0, :), skipping zero a entries. With one contraction term
/// per element, "sum in a register, then add" and "add the product" are
/// the same single addition, so this stays bit-identical to the reference
/// temporary+Add — while touching only the rows a actually activates.
/// Its per-row chain is the one the in-order reductions replay.
void Rank1ATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  const double* arow = a.RowPtr(0);
  const double* __restrict brow = b.RowPtr(0);
  const size_t m = a.cols();
  const size_t n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    const double av = arow[i];
    if (av == 0.0) continue;
    double* __restrict dst = acc->RowPtr(i);
    for (size_t j = 0; j < n; ++j) dst[j] += av * brow[j];
  }
}

/// Column-blocked stack buffer: each column's sum is built zero-seeded in
/// ascending row order, then added to the destination once — the exact
/// "ColSum() then Add()" chains without the temporary matrix. The vertical
/// (no cross-lane) reductions make this op bit-identical in every tier.
void ColSumAccumulateImpl(const Matrix& a, Matrix* acc) {
  constexpr size_t kCb = 256;
  const size_t n = a.cols();
  double buf[kCb];
  for (size_t c0 = 0; c0 < n; c0 += kCb) {
    const size_t cb = std::min(kCb, n - c0);
    std::fill(buf, buf + cb, 0.0);
    for (size_t r = 0; r < a.rows(); ++r) {
      const double* __restrict src = a.RowPtr(r) + c0;
      for (size_t c = 0; c < cb; ++c) buf[c] += src[c];
    }
    double* dst = acc->RowPtr(0) + c0;
    for (size_t c = 0; c < cb; ++c) dst[c] += buf[c];
  }
}

/// Segmented a^T * b accumulate: DenseAT's register panel with one
/// zero-seeded sum per segment, added onto the destination when the
/// segment's rows are in. Per element that is the chain GemmATAccumulate
/// runs on the segment's rows alone (ascending rows, zero terms skipped).
/// Its single add onto a zeroed sink is exact here, since a zero-seeded
/// mul-then-add chain never ends at -0.0, so the sink step is implicit.
void SegmentedATAccumulateImpl(const Matrix& a, const Matrix& b,
                               const size_t* row_ends, size_t num_segments,
                               Matrix* acc) {
  const size_t m = a.cols();
  const size_t n = b.cols();
  for (size_t i0 = 0; i0 < m; i0 += kMr) {
    const size_t mr = std::min(kMr, m - i0);
    for (size_t j0 = 0; j0 < n; j0 += kNr) {
      const size_t nr = std::min(kNr, n - j0);
      size_t begin = 0;
      for (size_t s = 0; s < num_segments; ++s) {
        const size_t end = row_ends[s];
        double sum[kMr][kNr] = {{0.0}};
        if (mr == kMr && nr == kNr) {
          for (size_t r = begin; r < end; ++r) {
            const double* __restrict arow = a.RowPtr(r) + i0;
            const double* __restrict brow = b.RowPtr(r) + j0;
            double av[kMr];
            bool any = false;
            for (size_t ii = 0; ii < kMr; ++ii) {
              av[ii] = arow[ii];
              any = any || av[ii] != 0.0;
            }
            if (!any) continue;
            for (size_t ii = 0; ii < kMr; ++ii) {
              for (size_t jj = 0; jj < kNr; ++jj) {
                sum[ii][jj] += av[ii] * brow[jj];
              }
            }
          }
        } else {
          for (size_t r = begin; r < end; ++r) {
            const double* __restrict arow = a.RowPtr(r) + i0;
            const double* __restrict brow = b.RowPtr(r) + j0;
            for (size_t ii = 0; ii < mr; ++ii) {
              const double av = arow[ii];
              if (av == 0.0) continue;
              for (size_t jj = 0; jj < nr; ++jj) sum[ii][jj] += av * brow[jj];
            }
          }
        }
        for (size_t ii = 0; ii < mr; ++ii) {
          double* dst = acc->RowPtr(i0 + ii) + j0;
          for (size_t jj = 0; jj < nr; ++jj) dst[jj] += sum[ii][jj];
        }
        begin = end;
      }
    }
  }
}

/// Scalar Adam update: two muls + one add per moment, IEEE sqrt/div. The
/// AVX2 tier replays exactly these operations lane-wise (each a single
/// rounding), so the optimizer step is bit-identical across tiers.
void AdamStepImpl(double* __restrict p, const double* __restrict g,
                  double* __restrict m, double* __restrict v, size_t n,
                  double lr, double beta1, double beta2, double eps,
                  double bc1, double bc2) {
  for (size_t k = 0; k < n; ++k) {
    double gk = g[k];
    m[k] = beta1 * m[k] + (1.0 - beta1) * gk;
    v[k] = beta2 * v[k] + (1.0 - beta2) * gk * gk;
    double mhat = m[k] / bc1;
    double vhat = v[k] / bc2;
    p[k] -= lr * mhat / (std::sqrt(vhat) + eps);
  }
}

void SgdStepImpl(double* __restrict p, const double* __restrict g,
                 double* __restrict v, size_t n, double lr, double momentum) {
  for (size_t k = 0; k < n; ++k) {
    v[k] = momentum * v[k] - lr * g[k];
    p[k] += v[k];
  }
}

}  // namespace

void ScalarInOrderATAccumulate(const RowRefs& a, const RowRefs& b,
                               const size_t* chunk_ends, size_t num_chunks,
                               Matrix* acc) {
  // One kMr x kNr chunk sum per output panel, zero-seeded per chunk and
  // added onto acc once the chunk's rows are in: per element exactly the
  // chain a zeroed sink takes under one Rank1ATAccumulate per row.
  const size_t m = a.cols;
  const size_t n = b.cols;
  for (size_t i0 = 0; i0 < m; i0 += kMr) {
    const size_t mr = std::min(kMr, m - i0);
    for (size_t j0 = 0; j0 < n; j0 += kNr) {
      const size_t nr = std::min(kNr, n - j0);
      size_t begin = 0;
      for (size_t c = 0; c < num_chunks; ++c) {
        const size_t end = chunk_ends[c];
        if (end == begin) continue;
        double sum[kMr][kNr] = {{0.0}};
        for (size_t r = begin; r < end; ++r) {
          const double* arow = a.rows[r] + i0;
          const double* __restrict brow = b.rows[r] + j0;
          for (size_t ii = 0; ii < mr; ++ii) {
            const double av = arow[ii];
            if (av == 0.0) continue;
            if (nr == kNr) {
              for (size_t jj = 0; jj < kNr; ++jj) sum[ii][jj] += av * brow[jj];
            } else {
              for (size_t jj = 0; jj < nr; ++jj) sum[ii][jj] += av * brow[jj];
            }
          }
        }
        for (size_t ii = 0; ii < mr; ++ii) {
          double* dst = acc->RowPtr(i0 + ii) + j0;
          for (size_t jj = 0; jj < nr; ++jj) dst[jj] += sum[ii][jj];
        }
        begin = end;
      }
    }
  }
}

void ScalarInOrderColSumAccumulate(const RowRefs& a, const size_t* chunk_ends,
                                   size_t num_chunks, Matrix* acc) {
  constexpr size_t kCb = 256;
  const size_t n = a.cols;
  double buf[kCb];
  for (size_t c0 = 0; c0 < n; c0 += kCb) {
    const size_t cb = std::min(kCb, n - c0);
    double* dst = acc->RowPtr(0) + c0;
    size_t begin = 0;
    for (size_t c = 0; c < num_chunks; ++c) {
      const size_t end = chunk_ends[c];
      if (end == begin) continue;
      std::fill(buf, buf + cb, 0.0);
      for (size_t r = begin; r < end; ++r) {
        const double* __restrict src = a.rows[r] + c0;
        // (0.0 + x) is a 1-row ColSumAccumulate's column sum.
        for (size_t k = 0; k < cb; ++k) buf[k] += 0.0 + src[k];
      }
      for (size_t k = 0; k < cb; ++k) dst[k] += buf[k];
      begin = end;
    }
  }
}

void ScalarSegmentedColSumAccumulate(const Matrix& a, const size_t* row_ends,
                                     size_t num_segments, Matrix* acc) {
  // Per segment, ColSumAccumulateImpl's chain: a zero-seeded vertical sum
  // in ascending row order, added onto the destination once. Such a sum is
  // never -0.0, so adding it equals adding a zeroed sink that holds it.
  constexpr size_t kCb = 256;
  const size_t n = a.cols();
  double buf[kCb];
  for (size_t c0 = 0; c0 < n; c0 += kCb) {
    const size_t cb = std::min(kCb, n - c0);
    double* dst = acc->RowPtr(0) + c0;
    size_t begin = 0;
    for (size_t s = 0; s < num_segments; ++s) {
      const size_t end = row_ends[s];
      std::fill(buf, buf + cb, 0.0);
      for (size_t r = begin; r < end; ++r) {
        const double* __restrict src = a.RowPtr(r) + c0;
        for (size_t k = 0; k < cb; ++k) buf[k] += src[k];
      }
      for (size_t k = 0; k < cb; ++k) dst[k] += buf[k];
      begin = end;
    }
  }
}

void BiasPass(const Matrix& bias, Matrix* out) {
  QCFE_CHECK(bias.rows() == 1 && bias.cols() == out->cols(),
             "bias must be a 1 x out-cols row vector");
  const double* src = bias.RowPtr(0);
  for (size_t r = 0; r < out->rows(); ++r) {
    double* dst = out->RowPtr(r);
    for (size_t c = 0; c < out->cols(); ++c) dst[c] += src[c];
  }
}

void ReluPass(Matrix* out) {
  // Flat walk is pad-safe: relu(0) == 0.
  for (double& x : out->data()) x = x > 0.0 ? x : 0.0;
}

const KernelTable& ScalarTable() {
  static const KernelTable table = {
      DenseNNDispatch,       // dense_nn
      SparseNN,              // sparse_nn
      DenseBT,               // bt
      DenseATOverwrite,      // at_panel
      StreamAT,              // at_stream
      DenseATAccumulate,     // at_acc_panel
      SparseTempATAccumulate,  // at_acc_sparse
      Rank1ATAccumulate,     // at_acc_rank1
      ColSumAccumulateImpl,  // colsum_acc
      ScalarInOrderATAccumulate,      // in_order_at_acc
      ScalarInOrderColSumAccumulate,  // in_order_colsum_acc
      SegmentedATAccumulateImpl,        // segmented_at_acc
      ScalarSegmentedColSumAccumulate,  // segmented_colsum_acc
      AdamStepImpl,          // adam_step
      SgdStepImpl,           // sgd_step
  };
  return table;
}

}  // namespace internal

// ------------------------------------------------------------- reference
// The historical unblocked loops, self-contained (no dispatch, no tiers).
// Parity tests compare the whole scalar tier against these bit for bit.

namespace reference {

namespace {

void RefSparseNN(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.rows(), "GemmNN: a.cols() must equal b.rows()");
  out->ResetShape(a.rows(), b.cols());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out->RowPtr(i);
    for (size_t k = 0; k < a.cols(); ++k) {
      double av = arow[k];
      if (av == 0.0) continue;
      const double* brow = b.RowPtr(k);
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
}

}  // namespace

void GemmNN(const Matrix& a, const Matrix& b, Matrix* out) {
  RefSparseNN(a, b, out);
}

void GemmNNBias(const Matrix& a, const Matrix& b, const Matrix& bias,
                Matrix* out) {
  RefSparseNN(a, b, out);
  internal::BiasPass(bias, out);
}

void GemmNNBiasRelu(const Matrix& a, const Matrix& b, const Matrix& bias,
                    Matrix* out) {
  RefSparseNN(a, b, out);
  internal::BiasPass(bias, out);
  internal::ReluPass(out);
}

void GemmBT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.cols(), "GemmBT: a.cols() must equal b.cols()");
  out->ResetShape(a.rows(), b.rows());
  for (size_t i = 0; i < a.rows(); ++i) {
    const double* arow = a.RowPtr(i);
    double* orow = out->RowPtr(i);
    for (size_t j = 0; j < b.rows(); ++j) {
      const double* brow = b.RowPtr(j);
      double acc = 0.0;
      for (size_t k = 0; k < a.cols(); ++k) acc += arow[k] * brow[k];
      orow[j] = acc;
    }
  }
}

void GemmAT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmAT: a.rows() must equal b.rows()");
  out->ResetShape(a.cols(), b.cols());
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.RowPtr(r);
    const double* brow = b.RowPtr(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      double av = arow[i];
      if (av == 0.0) continue;
      double* orow = out->RowPtr(i);
      for (size_t j = 0; j < b.cols(); ++j) orow[j] += av * brow[j];
    }
  }
}

void GemmATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  // The historical path, temporary included: parity tests and the
  // before/after benchmark both rely on replaying it exactly.
  Matrix tmp;
  GemmAT(a, b, &tmp);
  acc->Add(tmp);
}

void ColSumAccumulate(const Matrix& a, Matrix* acc) {
  acc->Add(a.ColSum());
}

void InOrderATAccumulate(const RowRefs& a, const RowRefs& b,
                         const std::vector<size_t>& chunk_ends, Matrix* acc) {
  Matrix sink(acc->rows(), acc->cols());
  Matrix arow(1, a.cols);
  Matrix brow(1, b.cols);
  size_t begin = 0;
  for (size_t end : chunk_ends) {
    if (end == begin) continue;
    sink.Fill(0.0);
    for (size_t r = begin; r < end; ++r) {
      std::copy(a.rows[r], a.rows[r] + a.cols, arow.RowPtr(0));
      std::copy(b.rows[r], b.rows[r] + b.cols, brow.RowPtr(0));
      GemmATAccumulate(arow, brow, &sink);
    }
    acc->Add(sink);
    begin = end;
  }
}

void InOrderColSumAccumulate(const RowRefs& a,
                             const std::vector<size_t>& chunk_ends,
                             Matrix* acc) {
  Matrix sink(1, a.cols);
  Matrix row(1, a.cols);
  size_t begin = 0;
  for (size_t end : chunk_ends) {
    if (end == begin) continue;
    sink.Fill(0.0);
    for (size_t r = begin; r < end; ++r) {
      std::copy(a.rows[r], a.rows[r] + a.cols, row.RowPtr(0));
      ColSumAccumulate(row, &sink);
    }
    acc->Add(sink);
    begin = end;
  }
}

namespace {

/// Rows [begin, end) of `m` as a fresh matrix.
Matrix RowRange(const Matrix& m, size_t begin, size_t end) {
  Matrix out(end - begin, m.cols());
  for (size_t r = begin; r < end; ++r) {
    std::copy(m.RowPtr(r), m.RowPtr(r) + m.cols(), out.RowPtr(r - begin));
  }
  return out;
}

}  // namespace

void SegmentedATAccumulate(const Matrix& a, const Matrix& b,
                           const std::vector<size_t>& row_ends, Matrix* acc) {
  Matrix sink(acc->rows(), acc->cols());
  size_t begin = 0;
  for (size_t end : row_ends) {
    sink.Fill(0.0);
    GemmATAccumulate(RowRange(a, begin, end), RowRange(b, begin, end), &sink);
    acc->Add(sink);
    begin = end;
  }
}

void SegmentedColSumAccumulate(const Matrix& a,
                               const std::vector<size_t>& row_ends,
                               Matrix* acc) {
  Matrix sink(1, a.cols());
  size_t begin = 0;
  for (size_t end : row_ends) {
    sink.Fill(0.0);
    ColSumAccumulate(RowRange(a, begin, end), &sink);
    acc->Add(sink);
    begin = end;
  }
}

}  // namespace reference

}  // namespace kernels
}  // namespace qcfe
