/// \file kernels_simd_avx2.cc
/// The AVX2+FMA kernel tier. Compiled with -mavx2 -mfma -ffp-contract=off
/// (see CMakeLists.txt): only the explicit intrinsics and std::fma below
/// ever fuse, so the arithmetic is exactly what this file spells out.
///
/// Within-tier determinism contract. Every contraction element is built as
/// one zero-seeded fused-multiply-add chain in ascending contraction order:
///   acc = fma(a_k, b_k, acc)   for k = 0, 1, ...
/// whether the chain runs in a vector lane (broadcast-a x vector-b), in a
/// scalar std::fma tail, or in the sparse row-skip path (skipping a zero
/// term leaves the accumulator bits unchanged: fma(0, b, acc) == acc for
/// finite acc). An element's bits therefore depend only on its own inputs —
/// never on batch size, panel position, or dispatch path — which is what
/// keeps batched-vs-single, sharded-vs-serial and async-vs-direct serving
/// bit-identical under a pinned ISA. The *Accumulate kernels finish the
/// full chain first and then apply exactly one *unfused* add to the
/// destination (fma(a, b, 0) rounds identically to a*b, so the rank-1 path
/// composes with the panel path). GemmBT reduces its chain across four
/// lanes with a fixed-shape horizontal sum — reordered relative to the
/// scalar tier (hence the cross-tier tolerance gate) but per-element
/// deterministic. ColSumAccumulate and the optimizer steps use no FMA and
/// no cross-lane reductions at all, so they are bit-identical to the
/// scalar tier.

#include "nn/kernels_internal.h"

#if defined(__AVX2__) && defined(__FMA__)

#include <immintrin.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "nn/kernels.h"
#include "util/check.h"

namespace qcfe {
namespace kernels {
namespace internal {
namespace {

/// out = relu(v) with scalar semantics: NaN and -0.0 map to +0.0 (vmaxpd
/// returns the second operand on unordered/equal compares).
inline __m256d Relu(__m256d v) { return _mm256_max_pd(v, _mm256_setzero_pd()); }

// ------------------------------------------------------------- GemmNN

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
    size_t j0 = 0;
    // Full 8-column panels: kMr x 2 vector accumulators held in registers.
    for (; j0 + kNr <= n; j0 += kNr) {
      __m256d acc0[kMr];
      __m256d acc1[kMr];
      for (size_t ii = 0; ii < kMr; ++ii) {
        acc0[ii] = _mm256_setzero_pd();
        acc1[ii] = _mm256_setzero_pd();
      }
      if (mr == kMr) {
        for (size_t k = 0; k < kk; ++k) {
          const double* __restrict brow = bp + k * ldb + j0;
          const __m256d bv0 = _mm256_loadu_pd(brow);
          const __m256d bv1 = _mm256_loadu_pd(brow + 4);
          for (size_t ii = 0; ii < kMr; ++ii) {
            const __m256d av = _mm256_set1_pd(ap[(i0 + ii) * lda + k]);
            acc0[ii] = _mm256_fmadd_pd(av, bv0, acc0[ii]);
            acc1[ii] = _mm256_fmadd_pd(av, bv1, acc1[ii]);
          }
        }
      } else {
        for (size_t k = 0; k < kk; ++k) {
          const double* __restrict brow = bp + k * ldb + j0;
          const __m256d bv0 = _mm256_loadu_pd(brow);
          const __m256d bv1 = _mm256_loadu_pd(brow + 4);
          for (size_t ii = 0; ii < mr; ++ii) {
            const __m256d av = _mm256_set1_pd(ap[(i0 + ii) * lda + k]);
            acc0[ii] = _mm256_fmadd_pd(av, bv0, acc0[ii]);
            acc1[ii] = _mm256_fmadd_pd(av, bv1, acc1[ii]);
          }
        }
      }
      for (size_t ii = 0; ii < mr; ++ii) {
        __m256d v0 = acc0[ii];
        __m256d v1 = acc1[ii];
        if (kEpilogue != Epilogue::kNone) {
          v0 = _mm256_add_pd(v0, _mm256_loadu_pd(biasp + j0));
          v1 = _mm256_add_pd(v1, _mm256_loadu_pd(biasp + j0 + 4));
        }
        if (kEpilogue == Epilogue::kBiasRelu) {
          v0 = Relu(v0);
          v1 = Relu(v1);
        }
        double* dst = out->RowPtr(i0 + ii) + j0;
        _mm256_storeu_pd(dst, v0);
        _mm256_storeu_pd(dst + 4, v1);
      }
    }
    // 4-column panel.
    for (; j0 + 4 <= n; j0 += 4) {
      __m256d acc[kMr];
      for (size_t ii = 0; ii < kMr; ++ii) acc[ii] = _mm256_setzero_pd();
      for (size_t k = 0; k < kk; ++k) {
        const __m256d bv = _mm256_loadu_pd(bp + k * ldb + j0);
        for (size_t ii = 0; ii < mr; ++ii) {
          const __m256d av = _mm256_set1_pd(ap[(i0 + ii) * lda + k]);
          acc[ii] = _mm256_fmadd_pd(av, bv, acc[ii]);
        }
      }
      for (size_t ii = 0; ii < mr; ++ii) {
        __m256d v = acc[ii];
        if (kEpilogue != Epilogue::kNone) {
          v = _mm256_add_pd(v, _mm256_loadu_pd(biasp + j0));
        }
        if (kEpilogue == Epilogue::kBiasRelu) v = Relu(v);
        _mm256_storeu_pd(out->RowPtr(i0 + ii) + j0, v);
      }
    }
    // Scalar tail columns: the same per-element fma chain, one lane wide.
    for (; j0 < n; ++j0) {
      for (size_t ii = 0; ii < mr; ++ii) {
        const double* __restrict arow = ap + (i0 + ii) * lda;
        double acc = 0.0;
        for (size_t k = 0; k < kk; ++k) {
          acc = std::fma(arow[k], bp[k * ldb + j0], acc);
        }
        if (kEpilogue != Epilogue::kNone) acc += biasp[j0];
        if (kEpilogue == Epilogue::kBiasRelu) acc = acc > 0.0 ? acc : 0.0;
        out->RowPtr(i0 + ii)[j0] = acc;
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

/// Sparse row-skip a*b: the same ascending-k fma chains as the dense panel
/// (accumulated in the output memory instead of registers), skipping
/// exactly-zero a entries — so the sparse/dense dispatch flip never
/// changes bits within this tier either.
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
      const double av = arow[k];
      if (av == 0.0) continue;
      const double* __restrict brow = b.RowPtr(k);
      const __m256d avv = _mm256_set1_pd(av);
      size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const __m256d ov = _mm256_loadu_pd(orow + j);
        _mm256_storeu_pd(orow + j,
                         _mm256_fmadd_pd(avv, _mm256_loadu_pd(brow + j), ov));
      }
      for (; j < n; ++j) orow[j] = std::fma(av, brow[j], orow[j]);
    }
  }
}

// ------------------------------------------------------------- GemmBT

/// Finishes one BT dot product: fixed-shape horizontal sum of the 4-lane
/// chain, then the scalar k-tail appended with std::fma. Every BT element
/// uses exactly this algorithm regardless of panel position, so its bits
/// depend only on (a-row, b-row, k).
inline double HsumTail(__m256d acc, const double* __restrict x,
                       const double* __restrict y, size_t k0, size_t kk) {
  alignas(32) double lanes[4];
  _mm256_store_pd(lanes, acc);
  double s = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
  for (size_t k = k0; k < kk; ++k) s = std::fma(x[k], y[k], s);
  return s;
}

void DenseBT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.cols() == b.cols(), "GemmBT: a.cols() must equal b.cols()");
  QCFE_CHECK(out != &a && out != &b, "GemmBT: out must not alias an input");
  out->ResetShapeUninitialized(a.rows(), b.rows());
  const size_t m = a.rows();
  const size_t n = b.rows();
  const size_t kk = a.cols();
  const size_t kv = kk - kk % 4;
  for (size_t i = 0; i < m; ++i) {
    const double* __restrict arow = a.RowPtr(i);
    double* __restrict orow = out->RowPtr(i);
    size_t j0 = 0;
    // Four dot products at a time share each streamed a-row load.
    for (; j0 + 4 <= n; j0 += 4) {
      const double* __restrict b0 = b.RowPtr(j0);
      const double* __restrict b1 = b.RowPtr(j0 + 1);
      const double* __restrict b2 = b.RowPtr(j0 + 2);
      const double* __restrict b3 = b.RowPtr(j0 + 3);
      __m256d acc0 = _mm256_setzero_pd();
      __m256d acc1 = _mm256_setzero_pd();
      __m256d acc2 = _mm256_setzero_pd();
      __m256d acc3 = _mm256_setzero_pd();
      for (size_t k = 0; k < kv; k += 4) {
        const __m256d xv = _mm256_loadu_pd(arow + k);
        acc0 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(b0 + k), acc0);
        acc1 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(b1 + k), acc1);
        acc2 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(b2 + k), acc2);
        acc3 = _mm256_fmadd_pd(xv, _mm256_loadu_pd(b3 + k), acc3);
      }
      orow[j0] = HsumTail(acc0, arow, b0, kv, kk);
      orow[j0 + 1] = HsumTail(acc1, arow, b1, kv, kk);
      orow[j0 + 2] = HsumTail(acc2, arow, b2, kv, kk);
      orow[j0 + 3] = HsumTail(acc3, arow, b3, kv, kk);
    }
    for (; j0 < n; ++j0) {
      const double* __restrict brow = b.RowPtr(j0);
      __m256d acc = _mm256_setzero_pd();
      for (size_t k = 0; k < kv; k += 4) {
        acc = _mm256_fmadd_pd(_mm256_loadu_pd(arow + k),
                              _mm256_loadu_pd(brow + k), acc);
      }
      orow[j0] = HsumTail(acc, arow, brow, kv, kk);
    }
  }
}

// ------------------------------------------------------------- GemmAT

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
    size_t j0 = 0;
    for (; j0 + kNr <= n; j0 += kNr) {
      __m256d acc0[kMr];
      __m256d acc1[kMr];
      for (size_t ii = 0; ii < kMr; ++ii) {
        acc0[ii] = _mm256_setzero_pd();
        acc1[ii] = _mm256_setzero_pd();
      }
      for (size_t r = 0; r < rows; ++r) {
        const double* __restrict arow = a.RowPtr(r) + i0;
        const double* __restrict brow = b.RowPtr(r) + j0;
        bool any = false;
        for (size_t ii = 0; ii < mr; ++ii) any = any || arow[ii] != 0.0;
        if (!any) continue;  // fma(0, b, acc) == acc: skipping is bit-safe
        const __m256d bv0 = _mm256_loadu_pd(brow);
        const __m256d bv1 = _mm256_loadu_pd(brow + 4);
        for (size_t ii = 0; ii < mr; ++ii) {
          const __m256d av = _mm256_set1_pd(arow[ii]);
          acc0[ii] = _mm256_fmadd_pd(av, bv0, acc0[ii]);
          acc1[ii] = _mm256_fmadd_pd(av, bv1, acc1[ii]);
        }
      }
      for (size_t ii = 0; ii < mr; ++ii) {
        double* dst = out->RowPtr(i0 + ii) + j0;
        if (kAccumulate) {
          // One unfused add onto the destination after the full chain.
          _mm256_storeu_pd(dst,
                           _mm256_add_pd(_mm256_loadu_pd(dst), acc0[ii]));
          _mm256_storeu_pd(
              dst + 4, _mm256_add_pd(_mm256_loadu_pd(dst + 4), acc1[ii]));
        } else {
          _mm256_storeu_pd(dst, acc0[ii]);
          _mm256_storeu_pd(dst + 4, acc1[ii]);
        }
      }
    }
    for (; j0 + 4 <= n; j0 += 4) {
      __m256d acc[kMr];
      for (size_t ii = 0; ii < kMr; ++ii) acc[ii] = _mm256_setzero_pd();
      for (size_t r = 0; r < rows; ++r) {
        const double* __restrict arow = a.RowPtr(r) + i0;
        bool any = false;
        for (size_t ii = 0; ii < mr; ++ii) any = any || arow[ii] != 0.0;
        if (!any) continue;
        const __m256d bv = _mm256_loadu_pd(b.RowPtr(r) + j0);
        for (size_t ii = 0; ii < mr; ++ii) {
          acc[ii] = _mm256_fmadd_pd(_mm256_set1_pd(arow[ii]), bv, acc[ii]);
        }
      }
      for (size_t ii = 0; ii < mr; ++ii) {
        double* dst = out->RowPtr(i0 + ii) + j0;
        if (kAccumulate) {
          _mm256_storeu_pd(dst, _mm256_add_pd(_mm256_loadu_pd(dst), acc[ii]));
        } else {
          _mm256_storeu_pd(dst, acc[ii]);
        }
      }
    }
    for (; j0 < n; ++j0) {
      for (size_t ii = 0; ii < mr; ++ii) {
        double acc = 0.0;
        for (size_t r = 0; r < rows; ++r) {
          acc = std::fma(a.At(r, i0 + ii), b.At(r, j0), acc);
        }
        double* dst = &out->RowPtr(i0 + ii)[j0];
        if (kAccumulate) {
          *dst += acc;
        } else {
          *dst = acc;
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

/// Streaming zero-skip a^T * b (overwrite): identical per-element fma
/// chains to the panel form, accumulated in the output memory.
void StreamAT(const Matrix& a, const Matrix& b, Matrix* out) {
  QCFE_CHECK(a.rows() == b.rows(), "GemmAT: a.rows() must equal b.rows()");
  QCFE_CHECK(out != &a && out != &b, "GemmAT: out must not alias an input");
  out->ResetShape(a.cols(), b.cols());
  const size_t n = b.cols();
  for (size_t r = 0; r < a.rows(); ++r) {
    const double* arow = a.RowPtr(r);
    const double* __restrict brow = b.RowPtr(r);
    for (size_t i = 0; i < a.cols(); ++i) {
      const double av = arow[i];
      if (av == 0.0) continue;
      double* __restrict orow = out->RowPtr(i);
      const __m256d avv = _mm256_set1_pd(av);
      size_t j = 0;
      for (; j + 4 <= n; j += 4) {
        const __m256d ov = _mm256_loadu_pd(orow + j);
        _mm256_storeu_pd(orow + j,
                         _mm256_fmadd_pd(avv, _mm256_loadu_pd(brow + j), ov));
      }
      for (; j < n; ++j) orow[j] = std::fma(av, brow[j], orow[j]);
    }
  }
}

void SparseTempATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  thread_local Matrix tmp;
  StreamAT(a, b, &tmp);
  acc->Add(tmp);
}

void Rank1ATAccumulate(const Matrix& a, const Matrix& b, Matrix* acc) {
  const double* arow = a.RowPtr(0);
  const double* __restrict brow = b.RowPtr(0);
  const size_t m = a.cols();
  const size_t n = b.cols();
  for (size_t i = 0; i < m; ++i) {
    const double av = arow[i];
    if (av == 0.0) continue;
    double* __restrict dst = acc->RowPtr(i);
    const __m256d avv = _mm256_set1_pd(av);
    size_t j = 0;
    for (; j + 4 <= n; j += 4) {
      // mul then unfused add: a single-term chain rounds like fma(a, b, 0),
      // and the destination add stays a separate rounding — exactly the
      // panel-accumulate semantics.
      const __m256d t = _mm256_mul_pd(avv, _mm256_loadu_pd(brow + j));
      _mm256_storeu_pd(dst + j, _mm256_add_pd(_mm256_loadu_pd(dst + j), t));
    }
    for (; j < n; ++j) dst[j] += av * brow[j];
  }
}

// --------------------------------------------------------- reductions

/// One kRows x 8 output panel of the in-order a^T * b: a chunk sum per
/// panel row held in registers, each row adding mul(a, b) with separate
/// roundings. Skipping a zero a entry, as Rank1ATAccumulate does, equals
/// adding its product whenever that product is ±0.0, i.e. whenever the b
/// row is finite: a zero-seeded sum is never -0.0, so adding ±0.0 leaves it
/// unchanged. Rows with a non-finite b entry take the masked form instead,
/// which replaces the zero-a products (NaN for 0 * inf) with +0.0.
template <size_t kRows>
void InOrderATPanel(const RowRefs& a, const RowRefs& b,
                    const unsigned char* finite, const size_t* chunk_ends,
                    size_t num_chunks, size_t i0, size_t j0, Matrix* acc) {
  const __m256d zero = _mm256_setzero_pd();
  // The destination panel stays in registers across chunks: each chunk sum
  // is added onto it exactly as a store-and-reload would.
  __m256d dst0[kRows];
  __m256d dst1[kRows];
  for (size_t ii = 0; ii < kRows; ++ii) {
    const double* dst = acc->RowPtr(i0 + ii) + j0;
    dst0[ii] = _mm256_loadu_pd(dst);
    dst1[ii] = _mm256_loadu_pd(dst + 4);
  }
  size_t begin = 0;
  for (size_t c = 0; c < num_chunks; ++c) {
    const size_t end = chunk_ends[c];
    if (end == begin) continue;
    __m256d sum0[kRows];
    __m256d sum1[kRows];
    for (size_t ii = 0; ii < kRows; ++ii) {
      sum0[ii] = zero;
      sum1[ii] = zero;
    }
    for (size_t r = begin; r < end; ++r) {
      const double* arow = a.rows[r] + i0;
      const double* __restrict brow = b.rows[r] + j0;
      const __m256d bv0 = _mm256_loadu_pd(brow);
      const __m256d bv1 = _mm256_loadu_pd(brow + 4);
      if (finite[r] != 0) {
        for (size_t ii = 0; ii < kRows; ++ii) {
          const __m256d av = _mm256_set1_pd(arow[ii]);
          sum0[ii] = _mm256_add_pd(sum0[ii], _mm256_mul_pd(av, bv0));
          sum1[ii] = _mm256_add_pd(sum1[ii], _mm256_mul_pd(av, bv1));
        }
      } else {
        for (size_t ii = 0; ii < kRows; ++ii) {
          const __m256d av = _mm256_set1_pd(arow[ii]);
          const __m256d keep = _mm256_cmp_pd(av, zero, _CMP_NEQ_UQ);
          sum0[ii] = _mm256_add_pd(
              sum0[ii], _mm256_and_pd(_mm256_mul_pd(av, bv0), keep));
          sum1[ii] = _mm256_add_pd(
              sum1[ii], _mm256_and_pd(_mm256_mul_pd(av, bv1), keep));
        }
      }
    }
    for (size_t ii = 0; ii < kRows; ++ii) {
      dst0[ii] = _mm256_add_pd(dst0[ii], sum0[ii]);
      dst1[ii] = _mm256_add_pd(dst1[ii], sum1[ii]);
    }
    begin = end;
  }
  for (size_t ii = 0; ii < kRows; ++ii) {
    double* dst = acc->RowPtr(i0 + ii) + j0;
    _mm256_storeu_pd(dst, dst0[ii]);
    _mm256_storeu_pd(dst + 4, dst1[ii]);
  }
}

void InOrderATAccumulateImpl(const RowRefs& a, const RowRefs& b,
                             const size_t* chunk_ends, size_t num_chunks,
                             Matrix* acc) {
  const size_t m = a.cols;
  const size_t n = b.cols;
  thread_local std::vector<unsigned char> finite;
  finite.resize(b.count);
  for (size_t r = 0; r < b.count; ++r) {
    bool ok = true;
    for (size_t j = 0; j < n; ++j) ok &= std::isfinite(b.rows[r][j]);
    finite[r] = ok ? 1 : 0;
  }
  // Panels of kInOrderRows x 8: the destination and the chunk sums both
  // fit in the 16 ymm registers.
  constexpr size_t kInOrderRows = 3;
  for (size_t i0 = 0; i0 < m; i0 += kInOrderRows) {
    const size_t mr = std::min(kInOrderRows, m - i0);
    size_t j0 = 0;
    for (; j0 + kNr <= n; j0 += kNr) {
      switch (mr) {
        case 3:
          InOrderATPanel<3>(a, b, finite.data(), chunk_ends, num_chunks, i0,
                            j0, acc);
          break;
        case 2:
          InOrderATPanel<2>(a, b, finite.data(), chunk_ends, num_chunks, i0,
                            j0, acc);
          break;
        default:
          InOrderATPanel<1>(a, b, finite.data(), chunk_ends, num_chunks, i0,
                            j0, acc);
          break;
      }
    }
    // Tail columns: the same chain, one element at a time.
    for (; j0 < n; ++j0) {
      for (size_t ii = 0; ii < mr; ++ii) {
        double* dst = acc->RowPtr(i0 + ii) + j0;
        size_t begin = 0;
        for (size_t c = 0; c < num_chunks; ++c) {
          const size_t end = chunk_ends[c];
          if (end == begin) continue;
          double sum = 0.0;
          for (size_t r = begin; r < end; ++r) {
            const double av = a.rows[r][i0 + ii];
            if (av == 0.0) continue;
            sum += av * b.rows[r][j0];
          }
          *dst += sum;
          begin = end;
        }
      }
    }
  }
}

/// One kRows x 8 output panel of the segmented a^T * b: the destination
/// panel stays in registers across segments, and each segment's sum is
/// DenseAT's zero-seeded FMA chain over the segment's rows (rows whose
/// panel a entries are all zero skipped, which is bit-safe). The sum goes
/// onto the destination as the reference does it: first into a zeroed sink
/// (0.0 + sum, which turns an underflowed -0.0 into +0.0), then the sink
/// onto the destination, each a separate rounding.
template <size_t kRows>
void SegmentedATPanel(const Matrix& a, const Matrix& b, const size_t* row_ends,
                      size_t num_segments, size_t i0, size_t j0, Matrix* acc) {
  const __m256d zero = _mm256_setzero_pd();
  __m256d dst0[kRows];
  __m256d dst1[kRows];
  for (size_t ii = 0; ii < kRows; ++ii) {
    const double* dst = acc->RowPtr(i0 + ii) + j0;
    dst0[ii] = _mm256_loadu_pd(dst);
    dst1[ii] = _mm256_loadu_pd(dst + 4);
  }
  size_t begin = 0;
  for (size_t s = 0; s < num_segments; ++s) {
    const size_t end = row_ends[s];
    __m256d sum0[kRows];
    __m256d sum1[kRows];
    for (size_t ii = 0; ii < kRows; ++ii) {
      sum0[ii] = zero;
      sum1[ii] = zero;
    }
    for (size_t r = begin; r < end; ++r) {
      const double* arow = a.RowPtr(r) + i0;
      bool any = false;
      for (size_t ii = 0; ii < kRows; ++ii) any = any || arow[ii] != 0.0;
      if (!any) continue;
      const double* __restrict brow = b.RowPtr(r) + j0;
      const __m256d bv0 = _mm256_loadu_pd(brow);
      const __m256d bv1 = _mm256_loadu_pd(brow + 4);
      for (size_t ii = 0; ii < kRows; ++ii) {
        const __m256d av = _mm256_set1_pd(arow[ii]);
        sum0[ii] = _mm256_fmadd_pd(av, bv0, sum0[ii]);
        sum1[ii] = _mm256_fmadd_pd(av, bv1, sum1[ii]);
      }
    }
    for (size_t ii = 0; ii < kRows; ++ii) {
      dst0[ii] = _mm256_add_pd(dst0[ii], _mm256_add_pd(zero, sum0[ii]));
      dst1[ii] = _mm256_add_pd(dst1[ii], _mm256_add_pd(zero, sum1[ii]));
    }
    begin = end;
  }
  for (size_t ii = 0; ii < kRows; ++ii) {
    double* dst = acc->RowPtr(i0 + ii) + j0;
    _mm256_storeu_pd(dst, dst0[ii]);
    _mm256_storeu_pd(dst + 4, dst1[ii]);
  }
}

void SegmentedATAccumulateImpl(const Matrix& a, const Matrix& b,
                               const size_t* row_ends, size_t num_segments,
                               Matrix* acc) {
  const size_t m = a.cols();
  const size_t n = b.cols();
  // Panels of kSegRows x 8: the destination and the segment sums both fit
  // in the 16 ymm registers.
  constexpr size_t kSegRows = 3;
  for (size_t i0 = 0; i0 < m; i0 += kSegRows) {
    const size_t mr = std::min(kSegRows, m - i0);
    size_t j0 = 0;
    for (; j0 + kNr <= n; j0 += kNr) {
      switch (mr) {
        case 3:
          SegmentedATPanel<3>(a, b, row_ends, num_segments, i0, j0, acc);
          break;
        case 2:
          SegmentedATPanel<2>(a, b, row_ends, num_segments, i0, j0, acc);
          break;
        default:
          SegmentedATPanel<1>(a, b, row_ends, num_segments, i0, j0, acc);
          break;
      }
    }
    // Tail columns: the same chain, one element at a time.
    for (; j0 < n; ++j0) {
      for (size_t ii = 0; ii < mr; ++ii) {
        double* dst = acc->RowPtr(i0 + ii) + j0;
        size_t begin = 0;
        for (size_t s = 0; s < num_segments; ++s) {
          const size_t end = row_ends[s];
          double sum = 0.0;
          for (size_t r = begin; r < end; ++r) {
            const double av = a.RowPtr(r)[i0 + ii];
            if (av == 0.0) continue;
            sum = std::fma(av, b.RowPtr(r)[j0], sum);
          }
          *dst += 0.0 + sum;
          begin = end;
        }
      }
    }
  }
}

void ColSumAccumulateImpl(const Matrix& a, Matrix* acc) {
  const size_t n = a.cols();
  double* dst = acc->RowPtr(0);
  size_t c0 = 0;
  // Vertical (per-column) chains only — no cross-lane reduction, so this
  // is bit-identical to the scalar tier.
  for (; c0 + 4 <= n; c0 += 4) {
    __m256d sum = _mm256_setzero_pd();
    for (size_t r = 0; r < a.rows(); ++r) {
      sum = _mm256_add_pd(sum, _mm256_loadu_pd(a.RowPtr(r) + c0));
    }
    _mm256_storeu_pd(dst + c0, _mm256_add_pd(_mm256_loadu_pd(dst + c0), sum));
  }
  for (; c0 < n; ++c0) {
    double sum = 0.0;
    for (size_t r = 0; r < a.rows(); ++r) sum += a.RowPtr(r)[c0];
    dst[c0] += sum;
  }
}

// ---------------------------------------------------- optimizer steps

/// Elementwise Adam with explicit mul/add (never fma) and IEEE sqrt/div:
/// every lane operation is a single rounding, so the update is
/// bit-identical to the scalar tier's loop.
void AdamStepImpl(double* __restrict p, const double* __restrict g,
                  double* __restrict m, double* __restrict v, size_t n,
                  double lr, double beta1, double beta2, double eps,
                  double bc1, double bc2) {
  const __m256d b1 = _mm256_set1_pd(beta1);
  const __m256d omb1 = _mm256_set1_pd(1.0 - beta1);
  const __m256d b2 = _mm256_set1_pd(beta2);
  const __m256d omb2 = _mm256_set1_pd(1.0 - beta2);
  const __m256d vbc1 = _mm256_set1_pd(bc1);
  const __m256d vbc2 = _mm256_set1_pd(bc2);
  const __m256d vlr = _mm256_set1_pd(lr);
  const __m256d veps = _mm256_set1_pd(eps);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d gv = _mm256_loadu_pd(g + k);
    const __m256d mv =
        _mm256_add_pd(_mm256_mul_pd(b1, _mm256_loadu_pd(m + k)),
                      _mm256_mul_pd(omb1, gv));
    // Match the scalar association: ((1-beta2)*g)*g, not (1-beta2)*(g*g).
    const __m256d vv =
        _mm256_add_pd(_mm256_mul_pd(b2, _mm256_loadu_pd(v + k)),
                      _mm256_mul_pd(_mm256_mul_pd(omb2, gv), gv));
    _mm256_storeu_pd(m + k, mv);
    _mm256_storeu_pd(v + k, vv);
    const __m256d mhat = _mm256_div_pd(mv, vbc1);
    const __m256d vhat = _mm256_div_pd(vv, vbc2);
    const __m256d den = _mm256_add_pd(_mm256_sqrt_pd(vhat), veps);
    const __m256d q = _mm256_div_pd(_mm256_mul_pd(vlr, mhat), den);
    _mm256_storeu_pd(p + k, _mm256_sub_pd(_mm256_loadu_pd(p + k), q));
  }
  for (; k < n; ++k) {
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
  const __m256d vmo = _mm256_set1_pd(momentum);
  const __m256d vlr = _mm256_set1_pd(lr);
  size_t k = 0;
  for (; k + 4 <= n; k += 4) {
    const __m256d vv =
        _mm256_sub_pd(_mm256_mul_pd(vmo, _mm256_loadu_pd(v + k)),
                      _mm256_mul_pd(vlr, _mm256_loadu_pd(g + k)));
    _mm256_storeu_pd(v + k, vv);
    _mm256_storeu_pd(p + k, _mm256_add_pd(_mm256_loadu_pd(p + k), vv));
  }
  for (; k < n; ++k) {
    v[k] = momentum * v[k] - lr * g[k];
    p[k] += v[k];
  }
}

}  // namespace

const KernelTable* Avx2Table() {
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
      InOrderATAccumulateImpl,      // in_order_at_acc
      ScalarInOrderColSumAccumulate,  // in_order_colsum_acc
      SegmentedATAccumulateImpl,        // segmented_at_acc
      ScalarSegmentedColSumAccumulate,  // segmented_colsum_acc
      AdamStepImpl,          // adam_step
      SgdStepImpl,           // sgd_step
  };
  return &table;
}

}  // namespace internal
}  // namespace kernels
}  // namespace qcfe

#else  // !(__AVX2__ && __FMA__)

namespace qcfe {
namespace kernels {
namespace internal {

const KernelTable* Avx2Table() { return nullptr; }

}  // namespace internal
}  // namespace kernels
}  // namespace qcfe

#endif  // __AVX2__ && __FMA__
