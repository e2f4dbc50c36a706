/// Parity suite for the NN kernel layer (nn/kernels.h).
///
/// Every tier's table slots (kernels_internal.h) are checked against the
/// reference loops across edge shapes (0-row, 1-row, odd and prime dims,
/// all-zero rows, fully dense): the scalar tier bit for bit, the AVX2 tier
/// (when available) at kSimdRelTolerance, since FMA's single rounding
/// legally changes contraction bits. Each tier must also be bit-consistent
/// within itself: the dense and sparse slots of one product agree, as do
/// batched and row-by-row execution, and the optimizer/colsum kernels
/// (which use no FMA) give the scalar bits on every tier. The dispatched
/// entry points are checked on top of the slots, and the autotuner's pure
/// threshold selection (SelectTuning) is unit-tested with injected timings.
/// Whole-model training bits are pinned by train_golden_test.

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "models/cost_model.h"
#include "nn/kernels.h"
#include "nn/kernels_internal.h"
#include "nn/layers.h"
#include "nn/matrix.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "util/rng.h"

namespace qcfe {
namespace {

using kernels::KernelIsa;
using kernels::ScopedKernelIsa;
using kernels::internal::ActiveTable;
using kernels::internal::Epilogue;

/// (rows, cols) of the left operand x inner/right dims, plus the zero
/// fraction to plant. Shapes cover register-panel edges: sub-panel, exact
/// panels, ragged tails, prime dims, degenerate empties.
struct GemmCase {
  size_t m, k, n;
  double sparsity;
};

const GemmCase kCases[] = {
    {0, 3, 4, 0.0},    // 0-row
    {3, 0, 4, 0.0},    // empty contraction
    {1, 1, 1, 0.0},    // scalars
    {1, 48, 8, 0.0},   // training row, exact j-panel
    {2, 7, 5, 0.3},    // sub-panel ragged
    {4, 8, 8, 0.0},    // exact register panel
    {5, 9, 17, 0.5},   // ragged everything
    {13, 17, 11, 0.9}, // primes, mostly zero
    {8, 6, 8, 1.0},    // all-zero left operand
    {64, 48, 48, 0.0}, // real hidden-layer shape, fully dense
    {33, 66, 48, 0.9}, // real feature shape, plan-row sparsity
};

Matrix RandomMatrix(size_t rows, size_t cols, double sparsity, Rng* rng) {
  Matrix m(rows, cols);
  // Row-wise: the padded storage's pad columns must stay zero, and the
  // draw sequence must cover exactly the logical elements.
  for (size_t r = 0; r < rows; ++r) {
    double* dst = m.RowPtr(r);
    for (size_t c = 0; c < cols; ++c) {
      dst[c] = rng->Uniform(0.0, 1.0) < sparsity ? 0.0 : rng->Gaussian(0.0, 1.0);
    }
  }
  return m;
}

void ExpectBitEqual(const Matrix& a, const Matrix& b, const char* what) {
  ASSERT_EQ(a.rows(), b.rows()) << what;
  ASSERT_EQ(a.cols(), b.cols()) << what;
  for (size_t i = 0; i < a.data().size(); ++i) {
    EXPECT_EQ(a.data()[i], b.data()[i]) << what << " flat index " << i;
  }
}

/// Every tier this build can run: scalar first, then AVX2 when available.
std::vector<KernelIsa> AllAvailableTiers() {
  std::vector<KernelIsa> tiers = {KernelIsa::kScalar};
  if (kernels::KernelIsaAvailable(KernelIsa::kAvx2)) {
    tiers.push_back(KernelIsa::kAvx2);
  }
  return tiers;
}

// The bit-exact gates below pin the scalar tier; the AVX2 tier is gated
// at kSimdRelTolerance by SimdTierTest.

TEST(KernelParityTest, GemmNNSlotsMatchReferenceAcrossShapes) {
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(11);
  for (const GemmCase& c : kCases) {
    Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
    Matrix want, got;
    kernels::reference::GemmNN(a, b, &want);
    ActiveTable().dense_nn(a, b, nullptr, &got, Epilogue::kNone);
    ExpectBitEqual(want, got, "dense_nn");
    ActiveTable().sparse_nn(a, b, &got);
    ExpectBitEqual(want, got, "sparse_nn");
    kernels::GemmNN(a, b, &got);
    ExpectBitEqual(want, got, "GemmNN");
  }
}

TEST(KernelParityTest, FusedBiasAndReluEpiloguesMatchSeparatePasses) {
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(12);
  for (const GemmCase& c : kCases) {
    Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
    Matrix bias = RandomMatrix(1, c.n, 0.0, &rng);
    Matrix want_bias, want_relu, got;
    kernels::reference::GemmNNBias(a, b, bias, &want_bias);
    kernels::reference::GemmNNBiasRelu(a, b, bias, &want_relu);
    ActiveTable().dense_nn(a, b, &bias, &got, Epilogue::kBias);
    ExpectBitEqual(want_bias, got, "dense_nn bias");
    ActiveTable().dense_nn(a, b, &bias, &got, Epilogue::kBiasRelu);
    ExpectBitEqual(want_relu, got, "dense_nn bias+relu");
    kernels::GemmNNBias(a, b, bias, &got);
    ExpectBitEqual(want_bias, got, "GemmNNBias");
    kernels::GemmNNBiasRelu(a, b, bias, &got);
    ExpectBitEqual(want_relu, got, "GemmNNBiasRelu");
  }
}

TEST(KernelParityTest, GemmBTMatchesReferenceAcrossShapes) {
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(13);
  for (const GemmCase& c : kCases) {
    // BT contracts over columns: a is (m x k), b is (n x k).
    Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.n, c.k, 0.0, &rng);
    Matrix want, got;
    kernels::reference::GemmBT(a, b, &want);
    kernels::GemmBT(a, b, &got);
    ExpectBitEqual(want, got, "GemmBT");
  }
}

TEST(KernelParityTest, GemmATSlotsMatchReferenceAcrossShapes) {
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(14);
  for (const GemmCase& c : kCases) {
    // AT contracts over rows: a is (k x m), b is (k x n).
    Matrix a = RandomMatrix(c.k, c.m, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
    Matrix want, got;
    kernels::reference::GemmAT(a, b, &want);
    ActiveTable().at_panel(a, b, &got);
    ExpectBitEqual(want, got, "at_panel");
    ActiveTable().at_stream(a, b, &got);
    ExpectBitEqual(want, got, "at_stream");
    kernels::GemmAT(a, b, &got);
    ExpectBitEqual(want, got, "GemmAT");
  }
}

TEST(KernelParityTest, GemmATAccumulateSlotsMatchTemporaryPlusAdd) {
  ScopedKernelIsa tier(KernelIsa::kScalar);
  Rng rng(15);
  for (const GemmCase& c : kCases) {
    Matrix a = RandomMatrix(c.k, c.m, c.sparsity, &rng);
    Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
    // Accumulate onto a warm, non-zero sink: the contract is
    // full-contraction-sum first, then one add per element.
    Matrix seed = RandomMatrix(c.m, c.n, 0.0, &rng);
    Matrix want = seed;
    kernels::reference::GemmATAccumulate(a, b, &want);
    Matrix got = seed;
    ActiveTable().at_acc_panel(a, b, &got);
    ExpectBitEqual(want, got, "at_acc_panel");
    got = seed;
    ActiveTable().at_acc_sparse(a, b, &got);
    ExpectBitEqual(want, got, "at_acc_sparse");
    got = seed;
    kernels::GemmATAccumulate(a, b, &got);
    ExpectBitEqual(want, got, "GemmATAccumulate");
    // The rank-1 slot takes single rows: the first row of each operand.
    if (c.k == 0) continue;
    Matrix a1 = a.SelectRows({0});
    Matrix b1 = b.SelectRows({0});
    want = seed;
    kernels::reference::GemmATAccumulate(a1, b1, &want);
    got = seed;
    ActiveTable().at_acc_rank1(a1, b1, &got);
    ExpectBitEqual(want, got, "at_acc_rank1");
  }
}

TEST(KernelParityTest, ColSumAccumulateMatchesColSumPlusAdd) {
  // Column sums are vertical (no FMA, no lane reductions), so every ISA
  // tier must reproduce the reference bits exactly.
  Rng rng(16);
  for (const GemmCase& c : kCases) {
    Matrix a = RandomMatrix(c.m, c.n, c.sparsity, &rng);
    Matrix seed = RandomMatrix(1, c.n, 0.0, &rng);
    Matrix want = seed;
    kernels::reference::ColSumAccumulate(a, &want);
    for (KernelIsa isa : AllAvailableTiers()) {
      ScopedKernelIsa tier(isa);
      Matrix got = seed;
      kernels::ColSumAccumulate(a, &got);
      ExpectBitEqual(want, got, "ColSumAccumulate");
    }
  }
}

TEST(KernelParityTest, ReluMaskBackwardMatchesCopyThenMaskAndAliases) {
  Rng rng(17);
  Matrix pre = RandomMatrix(9, 13, 0.3, &rng);
  Matrix grad = RandomMatrix(9, 13, 0.0, &rng);
  Matrix want = grad;
  for (size_t i = 0; i < want.data().size(); ++i) {
    if (pre.data()[i] <= 0.0) want.data()[i] = 0.0;
  }
  Matrix got;
  kernels::ReluMaskBackward(grad, pre, &got);
  ExpectBitEqual(want, got, "ReluMaskBackward");
  // In-place form (grad_in aliases grad_out).
  Matrix inplace = grad;
  kernels::ReluMaskBackward(inplace, pre, &inplace);
  ExpectBitEqual(want, inplace, "ReluMaskBackward in-place");
}

// ------------------------------------------------------------ matrix API

TEST(MatrixKernelTest, ResetShapeKeepsCapacityOnSteadyShapes) {
  Matrix m(8, 16);
  const double* buf = m.data().data();
  m.ResetShape(8, 16);
  EXPECT_EQ(m.data().data(), buf);
  for (double v : m.data()) EXPECT_EQ(v, 0.0);
  // Shrinking reuses the buffer too.
  m.ResetShape(4, 8);
  EXPECT_EQ(m.data().data(), buf);
  m.ResetShapeUninitialized(8, 16);
  EXPECT_EQ(m.data().data(), buf);
}

TEST(MatrixKernelTest, ColMeanMatchesColSumScaled) {
  Rng rng(18);
  Matrix m = RandomMatrix(7, 5, 0.2, &rng);
  Matrix want = m.ColSum();
  want.Scale(1.0 / 7.0);
  Matrix got = m.ColMean();
  ExpectBitEqual(want, got, "ColMean");
  // Empty matrix: a 0 x n mean is all zeros, no division.
  Matrix empty(0, 3);
  Matrix mean = empty.ColMean();
  for (double v : mean.data()) EXPECT_EQ(v, 0.0);
}

// ------------------------------------------------------- whole-model parity

TEST(MlpKernelParityTest, FusedServingForwardMatchesLayerwisePredict) {
  Rng rng(79);
  Mlp net({7, 12, 12, 2}, Activation::kRelu, &rng);
  Matrix x = RandomMatrix(17, 7, 0.4, &rng);
  for (KernelIsa isa : AllAvailableTiers()) {
    ScopedKernelIsa tier(isa);
    Matrix rowwise = net.Predict(x);  // layer-by-layer, allocating
    Mlp::Scratch scratch;
    const Matrix& fused = net.Predict(x, &scratch);
    ASSERT_EQ(rowwise.rows(), fused.rows());
    for (size_t i = 0; i < rowwise.data().size(); ++i) {
      EXPECT_EQ(rowwise.data()[i], fused.data()[i])
          << "tier " << kernels::KernelIsaName(isa);
    }
  }
}

TEST(MlpKernelParityTest, TapeReuseDoesNotChangeForwardBackward) {
  // One tape serving many different batches (the training arena pattern)
  // must give the same bits as a fresh tape each time.
  Rng rng(81);
  Mlp net({6, 10, 1}, Activation::kTanh, &rng);
  Mlp::Tape reused;
  for (int round = 0; round < 4; ++round) {
    Matrix x = RandomMatrix(3 + round * 5, 6, 0.3, &rng);
    Mlp::Tape fresh;
    const Matrix& out_reused = net.Forward(x, &reused);
    Matrix out_snapshot = out_reused;
    const Matrix& out_fresh = net.Forward(x, &fresh);
    for (size_t i = 0; i < out_fresh.data().size(); ++i) {
      EXPECT_EQ(out_fresh.data()[i], out_snapshot.data()[i]);
    }
    Matrix grad(out_snapshot.rows(), 1);
    for (size_t r = 0; r < grad.rows(); ++r) grad.At(r, 0) = 1.0;
    Matrix gin_reused = net.Backward(grad, &reused, nullptr);
    Matrix gin_fresh = net.Backward(grad, &fresh, nullptr);
    for (size_t i = 0; i < gin_fresh.data().size(); ++i) {
      EXPECT_EQ(gin_fresh.data()[i], gin_reused.data()[i]);
    }
  }
}

// ---------------------------------------------------------- SIMD tiers

/// The SIMD tiers available on this machine/build (empty on plain builds:
/// the tier tests then validate nothing, and the scalar suite above is the
/// whole contract).
std::vector<KernelIsa> AvailableSimdTiers() {
  std::vector<KernelIsa> tiers = AllAvailableTiers();
  tiers.erase(tiers.begin());
  return tiers;
}

/// Per-element gate at the documented cross-tier tolerance, relative to
/// max(|want|, 1) so near-cancelled elements don't demand absurd absolute
/// precision.
void ExpectWithinRelTol(const Matrix& want, const Matrix& got,
                        const char* what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  for (size_t r = 0; r < want.rows(); ++r) {
    for (size_t c = 0; c < want.cols(); ++c) {
      const double w = want.At(r, c);
      const double g = got.At(r, c);
      const double denom = std::abs(w) > 1.0 ? std::abs(w) : 1.0;
      EXPECT_LE(std::abs(g - w), kernels::kSimdRelTolerance * denom)
          << what << " at (" << r << ", " << c << "): want " << w << " got "
          << g;
    }
  }
}

TEST(SimdTierTest, SlotsMatchReferenceWithinToleranceOnEdgeShapes) {
  // The edge-shape sweep: 0-row, 1x1, prime dims, all-zero left operands
  // and tail columns not divisible by the vector width all live in kCases.
  // Every table slot must stay inside the documented tolerance on every
  // available SIMD tier.
  for (KernelIsa isa : AvailableSimdTiers()) {
    ScopedKernelIsa tier(isa);
    const kernels::internal::KernelTable& t = ActiveTable();
    Rng rng(21);
    for (const GemmCase& c : kCases) {
      Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
      Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
      Matrix bias = RandomMatrix(1, c.n, 0.0, &rng);
      Matrix want, got;
      kernels::reference::GemmNN(a, b, &want);
      t.dense_nn(a, b, nullptr, &got, Epilogue::kNone);
      ExpectWithinRelTol(want, got, "simd dense_nn");
      t.sparse_nn(a, b, &got);
      ExpectWithinRelTol(want, got, "simd sparse_nn");
      kernels::reference::GemmNNBiasRelu(a, b, bias, &want);
      t.dense_nn(a, b, &bias, &got, Epilogue::kBiasRelu);
      ExpectWithinRelTol(want, got, "simd dense_nn bias+relu");
      Matrix bt = RandomMatrix(c.n, c.k, 0.0, &rng);
      kernels::reference::GemmBT(a, bt, &want);
      t.bt(a, bt, &got);
      ExpectWithinRelTol(want, got, "simd bt");
      Matrix at_a = RandomMatrix(c.k, c.m, c.sparsity, &rng);
      Matrix at_b = RandomMatrix(c.k, c.n, 0.0, &rng);
      kernels::reference::GemmAT(at_a, at_b, &want);
      t.at_panel(at_a, at_b, &got);
      ExpectWithinRelTol(want, got, "simd at_panel");
      t.at_stream(at_a, at_b, &got);
      ExpectWithinRelTol(want, got, "simd at_stream");
      Matrix seed = RandomMatrix(c.m, c.n, 0.0, &rng);
      want = seed;
      kernels::reference::GemmATAccumulate(at_a, at_b, &want);
      got = seed;
      t.at_acc_panel(at_a, at_b, &got);
      ExpectWithinRelTol(want, got, "simd at_acc_panel");
      got = seed;
      t.at_acc_sparse(at_a, at_b, &got);
      ExpectWithinRelTol(want, got, "simd at_acc_sparse");
      if (c.k == 0) continue;
      Matrix a1 = at_a.SelectRows({0});
      Matrix b1 = at_b.SelectRows({0});
      want = seed;
      kernels::reference::GemmATAccumulate(a1, b1, &want);
      got = seed;
      t.at_acc_rank1(a1, b1, &got);
      ExpectWithinRelTol(want, got, "simd at_acc_rank1");
    }
  }
}

TEST(SimdTierTest, SlotsAreBitIdenticalWithinEachTier) {
  // The within-tier determinism contract: under one pinned tier, the dense
  // and sparse slots of each product, the dispatched entry point, and
  // batched vs row-by-row execution agree bit for bit (per-element chains
  // depend only on the element's own inputs).
  for (KernelIsa isa : AllAvailableTiers()) {
    ScopedKernelIsa tier(isa);
    const kernels::internal::KernelTable& t = ActiveTable();
    const char* name = kernels::KernelIsaName(isa);
    Rng rng(23);
    for (const GemmCase& c : kCases) {
      Matrix a = RandomMatrix(c.m, c.k, c.sparsity, &rng);
      Matrix b = RandomMatrix(c.k, c.n, 0.0, &rng);
      Matrix dense, sparse, dispatched;
      t.dense_nn(a, b, nullptr, &dense, Epilogue::kNone);
      t.sparse_nn(a, b, &sparse);
      ExpectBitEqual(dense, sparse, "dense_nn vs sparse_nn");
      kernels::GemmNN(a, b, &dispatched);
      ExpectBitEqual(dense, dispatched, "dense_nn vs GemmNN");
      // Batched product vs each row alone through the same slot.
      for (size_t r = 0; r < c.m; ++r) {
        Matrix row = a.SelectRows({r});
        Matrix row_out;
        t.dense_nn(row, b, nullptr, &row_out, Epilogue::kNone);
        for (size_t j = 0; j < c.n; ++j) {
          ASSERT_EQ(row_out.At(0, j), dense.At(r, j))
              << "batched vs row-wise, tier " << name << " row " << r
              << " col " << j;
        }
      }
      // a^T * b: the register panel vs the streaming loop, overwrite and
      // accumulate forms, and the rank-1 slot on single rows.
      Matrix at_a = RandomMatrix(c.k, c.m, c.sparsity, &rng);
      Matrix at_b = RandomMatrix(c.k, c.n, 0.0, &rng);
      Matrix panel, stream;
      t.at_panel(at_a, at_b, &panel);
      t.at_stream(at_a, at_b, &stream);
      ExpectBitEqual(panel, stream, "at_panel vs at_stream");
      Matrix seed = RandomMatrix(c.m, c.n, 0.0, &rng);
      Matrix acc_panel = seed, acc_sparse = seed;
      t.at_acc_panel(at_a, at_b, &acc_panel);
      t.at_acc_sparse(at_a, at_b, &acc_sparse);
      ExpectBitEqual(acc_panel, acc_sparse, "at_acc_panel vs at_acc_sparse");
      if (c.k == 0) continue;
      Matrix a1 = at_a.SelectRows({0});
      Matrix b1 = at_b.SelectRows({0});
      Matrix acc_rank1 = seed;
      acc_panel = seed;
      t.at_acc_rank1(a1, b1, &acc_rank1);
      t.at_acc_panel(a1, b1, &acc_panel);
      ExpectBitEqual(acc_panel, acc_rank1, "at_acc_panel vs at_acc_rank1");
    }
  }
}

TEST(SimdTierTest, OptimizerAndColSumAreBitIdenticalAcrossTiers) {
  // AdamStep/SgdStep/ColSumAccumulate use single-rounding lane arithmetic
  // only (no FMA, no reductions): every tier must produce the scalar bits.
  for (KernelIsa isa : AvailableSimdTiers()) {
    Rng rng(25);
    Matrix p0 = RandomMatrix(13, 11, 0.0, &rng);
    Matrix g = RandomMatrix(13, 11, 0.3, &rng);
    Matrix m0 = RandomMatrix(13, 11, 0.0, &rng);
    Matrix v0 = RandomMatrix(13, 11, 0.0, &rng);
    v0.Hadamard(v0);  // second moments must be non-negative for sqrt
    Matrix ps = p0, ms = m0, vs = v0;
    {
      ScopedKernelIsa tier(KernelIsa::kScalar);
      kernels::AdamStep(&ps, g, &ms, &vs, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.01);
    }
    Matrix pv = p0, mv = m0, vv = v0;
    {
      ScopedKernelIsa tier(isa);
      kernels::AdamStep(&pv, g, &mv, &vv, 1e-3, 0.9, 0.999, 1e-8, 0.1, 0.01);
    }
    ExpectBitEqual(ps, pv, "AdamStep params");
    ExpectBitEqual(ms, mv, "AdamStep first moment");
    ExpectBitEqual(vs, vv, "AdamStep second moment");

    Matrix sp = p0, sv = m0;
    {
      ScopedKernelIsa tier(KernelIsa::kScalar);
      kernels::SgdStep(&sp, g, &sv, 1e-2, 0.9);
    }
    Matrix xp = p0, xv = m0;
    {
      ScopedKernelIsa tier(isa);
      kernels::SgdStep(&xp, g, &xv, 1e-2, 0.9);
    }
    ExpectBitEqual(sp, xp, "SgdStep params");
    ExpectBitEqual(sv, xv, "SgdStep velocity");

    Matrix acc_s = RandomMatrix(1, 11, 0.0, &rng);
    Matrix acc_v = acc_s;
    {
      ScopedKernelIsa tier(KernelIsa::kScalar);
      kernels::ColSumAccumulate(g, &acc_s);
    }
    {
      ScopedKernelIsa tier(isa);
      kernels::ColSumAccumulate(g, &acc_v);
    }
    ExpectBitEqual(acc_s, acc_v, "ColSumAccumulate");
  }
}

TEST(SimdTierTest, IsaStateClampsAndReportsNames) {
  // An unavailable pin clamps to the scalar tier instead of crashing in a
  // missing table.
  const KernelIsa saved = kernels::GetKernelIsa();
  kernels::SetKernelIsa(KernelIsa::kAvx2);
  if (!kernels::KernelIsaAvailable(KernelIsa::kAvx2)) {
    EXPECT_EQ(kernels::GetKernelIsa(), KernelIsa::kScalar);
  } else {
    EXPECT_EQ(kernels::GetKernelIsa(), KernelIsa::kAvx2);
  }
  kernels::SetKernelIsa(saved);
  EXPECT_TRUE(kernels::KernelIsaAvailable(KernelIsa::kScalar));
  EXPECT_TRUE(kernels::KernelIsaAvailable(kernels::DetectKernelIsa()));
  EXPECT_STREQ(kernels::KernelIsaName(KernelIsa::kScalar), "scalar");
  EXPECT_STREQ(kernels::KernelIsaName(KernelIsa::kAvx2), "avx2");
}

// ------------------------------------------------------ matrix alignment

TEST(MatrixLayoutTest, RowsAre64ByteAlignedWithZeroPadColumns) {
  Rng rng(27);
  for (size_t cols : {1u, 5u, 8u, 11u, 17u, 48u, 66u}) {
    Matrix m = RandomMatrix(7, cols, 0.2, &rng);
    EXPECT_EQ(m.ld() % 8, 0u);
    EXPECT_GE(m.ld(), cols);
    EXPECT_LT(m.ld() - cols, 8u);
    for (size_t r = 0; r < m.rows(); ++r) {
      EXPECT_EQ(reinterpret_cast<uintptr_t>(m.RowPtr(r)) % 64, 0u)
          << "row " << r << " cols " << cols;
      for (size_t pad = cols; pad < m.ld(); ++pad) {
        EXPECT_EQ(m.data()[r * m.ld() + pad], 0.0)
            << "pad column " << pad << " row " << r;
      }
    }
    // Mutators that rewrite whole matrices keep the pads zero.
    m.Fill(3.5);
    Matrix t = m.Transposed();
    for (size_t r = 0; r < m.rows(); ++r) {
      for (size_t pad = cols; pad < m.ld(); ++pad) {
        EXPECT_EQ(m.data()[r * m.ld() + pad], 0.0);
      }
    }
    for (size_t r = 0; r < t.rows(); ++r) {
      for (size_t pad = t.cols(); pad < t.ld(); ++pad) {
        EXPECT_EQ(t.data()[r * t.ld() + pad], 0.0);
      }
    }
  }
}

// ------------------------------------------------- startup autotuning

kernels::ProbeMeasurements FakeProbes() {
  kernels::ProbeMeasurements pm;
  pm.rows = {1, 2, 4, 8, 16};
  // Streaming wins up to 4 rows, the panel wins from 8 on.
  pm.sparse_ns = {10.0, 20.0, 40.0, 100.0, 220.0};
  pm.dense_ns = {30.0, 35.0, 45.0, 90.0, 150.0};
  pm.zero_fractions = {0.0, 0.25, 0.5, 0.75};
  // Dense wins at zf 0 and 0.25, sparse from 0.5 on.
  pm.sparse_zf_ns = {120.0, 100.0, 60.0, 30.0};
  pm.dense_zf_ns = {80.0, 80.0, 80.0, 80.0};
  pm.scalar_gemm_ns = 300.0;
  pm.simd_gemm_ns = 100.0;
  return pm;
}

TEST(KernelAutotuneTest, SelectTuningIsDeterministicOnInjectedTimings) {
  const kernels::ProbeMeasurements pm = FakeProbes();
  const kernels::KernelTuning a = kernels::SelectTuning(KernelIsa::kAvx2, pm);
  const kernels::KernelTuning b = kernels::SelectTuning(KernelIsa::kAvx2, pm);
  EXPECT_TRUE(a.autotuned);
  EXPECT_EQ(a.isa, KernelIsa::kAvx2);
  EXPECT_EQ(a.dense_min_rows, b.dense_min_rows);
  EXPECT_EQ(a.sparse_dispatch_threshold, b.sparse_dispatch_threshold);
  EXPECT_EQ(a.simd_gemm_speedup, b.simd_gemm_speedup);
  // The suffix-win rules on the injected grid: dense wins from 8 rows on;
  // sparse wins from zf 0.5, midpoint with the last dense-winning 0.25.
  EXPECT_EQ(a.dense_min_rows, 8u);
  EXPECT_DOUBLE_EQ(a.sparse_dispatch_threshold, 0.375);
  EXPECT_DOUBLE_EQ(a.simd_gemm_speedup, 3.0);
}

TEST(KernelAutotuneTest, SelectTuningIsMonotoneInTheCrossover) {
  // Making the streaming path slower can only move the dense threshold
  // down (never up), and vice versa.
  kernels::ProbeMeasurements slow_stream = FakeProbes();
  for (double& ns : slow_stream.sparse_ns) ns *= 4.0;
  kernels::ProbeMeasurements fast_stream = FakeProbes();
  for (double& ns : fast_stream.sparse_ns) ns *= 0.25;
  const size_t base =
      kernels::SelectTuning(KernelIsa::kScalar, FakeProbes()).dense_min_rows;
  const size_t lo =
      kernels::SelectTuning(KernelIsa::kScalar, slow_stream).dense_min_rows;
  const size_t hi =
      kernels::SelectTuning(KernelIsa::kScalar, fast_stream).dense_min_rows;
  EXPECT_LE(lo, base);
  EXPECT_GE(hi, base);
  // Extremes: dense winning everywhere selects the smallest grid row;
  // dense winning nowhere disables the panel (and a sparse path that never
  // wins disables the zero-fraction dispatch with a > 1 threshold).
  kernels::ProbeMeasurements always = FakeProbes();
  for (double& ns : always.sparse_ns) ns = 1e9;
  for (double& ns : always.sparse_zf_ns) ns = 1e9;
  const kernels::KernelTuning all_dense =
      kernels::SelectTuning(KernelIsa::kScalar, always);
  EXPECT_EQ(all_dense.dense_min_rows, 1u);
  EXPECT_GT(all_dense.sparse_dispatch_threshold, 1.0);
  kernels::ProbeMeasurements never = FakeProbes();
  for (double& ns : never.dense_ns) ns = 1e9;
  for (double& ns : never.dense_zf_ns) ns = 1e9;
  const kernels::KernelTuning no_dense =
      kernels::SelectTuning(KernelIsa::kScalar, never);
  EXPECT_EQ(no_dense.dense_min_rows, SIZE_MAX);
  EXPECT_DOUBLE_EQ(no_dense.sparse_dispatch_threshold, 0.0);
}

TEST(KernelAutotuneTest, MalformedProbesFallBackToCompiledDefaults) {
  kernels::ProbeMeasurements empty;
  const kernels::KernelTuning t =
      kernels::SelectTuning(KernelIsa::kScalar, empty);
  EXPECT_FALSE(t.autotuned);
  EXPECT_EQ(t.dense_min_rows, 32u);
  EXPECT_DOUBLE_EQ(t.sparse_dispatch_threshold,
                   kernels::kSparseDispatchThreshold);
  kernels::ProbeMeasurements bad = FakeProbes();
  bad.dense_ns[2] = 0.0;  // non-positive timing
  EXPECT_FALSE(kernels::SelectTuning(KernelIsa::kScalar, bad).autotuned);
  kernels::ProbeMeasurements ragged = FakeProbes();
  ragged.sparse_ns.pop_back();  // mismatched grid
  EXPECT_FALSE(kernels::SelectTuning(KernelIsa::kScalar, ragged).autotuned);
}

TEST(KernelAutotuneTest, ProcessTuningIsLazyFixedAndIsaTagged) {
  kernels::Autotune();
  const kernels::KernelTuning& t = kernels::Tuning();
  EXPECT_EQ(t.isa, kernels::GetKernelIsa());
  // Fixed for the process: a second read returns the same thresholds.
  const kernels::KernelTuning& again = kernels::Tuning();
  EXPECT_EQ(t.dense_min_rows, again.dense_min_rows);
  EXPECT_EQ(t.sparse_dispatch_threshold, again.sparse_dispatch_threshold);
  // The scalar tier always reports itself under a scalar pin.
  ScopedKernelIsa tier(KernelIsa::kScalar);
  EXPECT_EQ(kernels::Tuning().isa, KernelIsa::kScalar);
  EXPECT_DOUBLE_EQ(kernels::Tuning().simd_gemm_speedup, 1.0);
}

// ---------------------------------------------------- in-order reductions

/// Random entries with the values an in-order chain must not mishandle:
/// exact zeros, negative zeros and subnormals beside ordinary values.
Matrix EdgeMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const double u = rng->Uniform(0.0, 1.0);
      double v = rng->Gaussian(0.0, 1.0);
      if (u < 0.25) {
        v = 0.0;
      } else if (u < 0.35) {
        v = -0.0;
      } else if (u < 0.45) {
        v = (v < 0.0 ? -1.0 : 1.0) * 1e-310 * rng->Uniform(1.0, 4.0);
      }
      m.At(r, c) = v;
    }
  }
  return m;
}

std::vector<const double*> RowPtrs(const Matrix& m) {
  std::vector<const double*> rows;
  for (size_t r = 0; r < m.rows(); ++r) rows.push_back(m.RowPtr(r));
  return rows;
}

/// Same bits, or NaN on both sides (NaN payloads are not part of the
/// contract).
void ExpectSameBits(const Matrix& want, const Matrix& got, const char* what) {
  ASSERT_EQ(want.rows(), got.rows()) << what;
  ASSERT_EQ(want.cols(), got.cols()) << what;
  for (size_t r = 0; r < want.rows(); ++r) {
    for (size_t c = 0; c < want.cols(); ++c) {
      const double w = want.At(r, c);
      const double g = got.At(r, c);
      if (std::isnan(w) && std::isnan(g)) continue;
      EXPECT_EQ(std::signbit(w), std::signbit(g)) << what << " (" << r
                                                  << ", " << c << ")";
      EXPECT_EQ(w, g) << what << " (" << r << ", " << c << ")";
    }
  }
}

Matrix RowOf(const Matrix& m, size_t r) {
  Matrix row(1, m.cols());
  for (size_t c = 0; c < m.cols(); ++c) row.At(0, c) = m.At(r, c);
  return row;
}

/// The per-row loop the in-order AT kernel replaces: a zeroed scratch per
/// chunk, one 1-row GemmATAccumulate per row, one Add per non-empty chunk.
Matrix RowLoopAT(const Matrix& a, const Matrix& b,
                 const std::vector<size_t>& ends, Matrix acc) {
  size_t begin = 0;
  for (size_t end : ends) {
    if (end == begin) continue;
    Matrix scratch(a.cols(), b.cols());
    for (size_t r = begin; r < end; ++r) {
      kernels::GemmATAccumulate(RowOf(a, r), RowOf(b, r), &scratch);
    }
    acc.Add(scratch);
    begin = end;
  }
  return acc;
}

Matrix RowLoopColSum(const Matrix& a, const std::vector<size_t>& ends,
                     Matrix acc) {
  size_t begin = 0;
  for (size_t end : ends) {
    if (end == begin) continue;
    Matrix scratch(1, a.cols());
    for (size_t r = begin; r < end; ++r) {
      kernels::ColSumAccumulate(RowOf(a, r), &scratch);
    }
    acc.Add(scratch);
    begin = end;
  }
  return acc;
}

struct InOrderCase {
  size_t rows, m, n;
  std::vector<size_t> chunk_ends;
};

const InOrderCase kInOrderCases[] = {
    {0, 3, 4, {}},                       // no rows at all
    {0, 3, 4, {0, 0}},                   // only empty chunks
    {1, 5, 8, {1}},                      // one training row
    {7, 13, 17, {2, 2, 5, 7}},           // ragged panels, an empty chunk
    {9, 3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9}},  // one row per chunk
    {20, 48, 8, {3, 6, 9, 12, 15, 18, 20}},  // last layer shape
    {34, 80, 48, {34}},                  // first layer shape, one chunk
    {34, 81, 50, {3, 6, 9, 9, 12, 20, 34}},  // row and column tails
};

TEST(InOrderReductionTest, ATMatchesRowLoopInEveryTier) {
  Rng rng(401);
  for (const InOrderCase& c : kInOrderCases) {
    Matrix a = EdgeMatrix(c.rows, c.m, &rng);
    Matrix b = EdgeMatrix(c.rows, c.n, &rng);
    Matrix acc0 = EdgeMatrix(c.m, c.n, &rng);
    std::vector<const double*> ar = RowPtrs(a), br = RowPtrs(b);
    const kernels::RowRefs ra{ar.data(), c.rows, c.m};
    const kernels::RowRefs rb{br.data(), c.rows, c.n};
    // The chain uses no FMA, so the scalar row loop fixes the bits for
    // every tier and for the reference loop.
    Matrix want;
    {
      ScopedKernelIsa tier(KernelIsa::kScalar);
      want = RowLoopAT(a, b, c.chunk_ends, acc0);
    }
    Matrix ref = acc0;
    kernels::reference::InOrderATAccumulate(ra, rb, c.chunk_ends, &ref);
    ExpectSameBits(want, ref, "reference::InOrderATAccumulate");
    for (KernelIsa isa : AllAvailableTiers()) {
      ScopedKernelIsa tier(isa);
      ExpectSameBits(want, RowLoopAT(a, b, c.chunk_ends, acc0),
                     "1-row GemmATAccumulate loop");
      Matrix got = acc0;
      kernels::InOrderATAccumulate(ra, rb, c.chunk_ends, &got);
      ExpectSameBits(want, got, "InOrderATAccumulate");
    }
  }
}

TEST(InOrderReductionTest, ColSumMatchesRowLoopInEveryTier) {
  Rng rng(409);
  for (const InOrderCase& c : kInOrderCases) {
    Matrix a = EdgeMatrix(c.rows, c.n, &rng);
    Matrix acc0 = EdgeMatrix(1, c.n, &rng);
    std::vector<const double*> ar = RowPtrs(a);
    const kernels::RowRefs ra{ar.data(), c.rows, c.n};
    Matrix want;
    {
      ScopedKernelIsa tier(KernelIsa::kScalar);
      want = RowLoopColSum(a, c.chunk_ends, acc0);
    }
    Matrix ref = acc0;
    kernels::reference::InOrderColSumAccumulate(ra, c.chunk_ends, &ref);
    ExpectSameBits(want, ref, "reference::InOrderColSumAccumulate");
    for (KernelIsa isa : AllAvailableTiers()) {
      ScopedKernelIsa tier(isa);
      Matrix got = acc0;
      kernels::InOrderColSumAccumulate(ra, c.chunk_ends, &got);
      ExpectSameBits(want, got, "InOrderColSumAccumulate");
    }
  }
}

TEST(InOrderReductionTest, ZeroEntriesSkipNonFiniteProducts) {
  // A zero a entry contributes nothing, as in Rank1ATAccumulate, even
  // where the b row holds an infinity (0 * inf would be NaN).
  Rng rng(419);
  Matrix a = EdgeMatrix(6, 9, &rng);
  Matrix b = EdgeMatrix(6, 16, &rng);
  b.At(1, 3) = std::numeric_limits<double>::infinity();
  b.At(4, 12) = -std::numeric_limits<double>::infinity();
  a.At(1, 0) = 0.0;
  a.At(4, 2) = -0.0;
  const std::vector<size_t> ends = {2, 6};
  std::vector<const double*> ar = RowPtrs(a), br = RowPtrs(b);
  const kernels::RowRefs ra{ar.data(), 6, 9};
  const kernels::RowRefs rb{br.data(), 6, 16};
  Matrix acc0(9, 16);
  Matrix want;
  {
    ScopedKernelIsa tier(KernelIsa::kScalar);
    want = RowLoopAT(a, b, ends, acc0);  // 1-row: the Rank1ATAccumulate loop
  }
  EXPECT_FALSE(std::isnan(want.At(0, 3)));
  for (KernelIsa isa : AllAvailableTiers()) {
    ScopedKernelIsa tier(isa);
    Matrix got = acc0;
    kernels::InOrderATAccumulate(ra, rb, ends, &got);
    ExpectSameBits(want, got, "InOrderATAccumulate with infinities");
  }
}

/// The batched-training contract of Mlp: an N-row taped forward and a
/// delta-recording backward agree with N 1-row passes row for row, and
/// AccumulateParamGrads equals per-row Backward into a zeroed GradSink per
/// chunk added in chunk order.
TEST(InOrderReductionTest, BatchedTapeMatchesOneRowPassesRowForRow) {
  Rng rng(421);
  Mlp net({13, 16, 16, 4}, Activation::kRelu, &rng);
  const size_t n = 9;
  Matrix x = EdgeMatrix(n, 13, &rng);
  Matrix g = EdgeMatrix(n, 4, &rng);
  const std::vector<size_t> ends = {2, 2, 5, 9};
  for (KernelIsa isa : AllAvailableTiers()) {
    ScopedKernelIsa tier(isa);
    Mlp::Tape batch;
    net.Forward(x, &batch);
    Matrix gx_full = net.BackwardDeltas(g, &batch, 0);
    Matrix gx_tail = net.BackwardDeltas(g, &batch, 5);
    ASSERT_EQ(gx_tail.cols(), 13u - 5u);
    EXPECT_EQ(net.BackwardDeltas(g, &batch, 13).cols(), 0u);

    std::vector<GradSink> sinks(ends.size());
    std::vector<Mlp::Tape> singles(n);
    size_t chunk = 0;
    for (size_t r = 0; r < n; ++r) {
      while (ends[chunk] <= r) ++chunk;
      if (sinks[chunk].size() == 0) sinks[chunk].InitLike(net.Grads());
      const Matrix& y = net.Forward(RowOf(x, r), &singles[r]);
      for (size_t c = 0; c < y.cols(); ++c) {
        EXPECT_EQ(y.At(0, c), batch.activations.back().At(r, c));
      }
      Matrix gx1 = net.Backward(RowOf(g, r), &singles[r], &sinks[chunk]);
      for (size_t c = 0; c < 13; ++c) {
        EXPECT_EQ(gx1.At(0, c), gx_full.At(r, c)) << "row " << r;
        if (c >= 5) {
          EXPECT_EQ(gx1.At(0, c), gx_tail.At(r, c - 5));
        }
      }
      net.BackwardDeltas(RowOf(g, r), &singles[r], 0);
      for (size_t i = 0; i < net.num_layers(); ++i) {
        const Matrix& delta = singles[r].deltas[i];
        for (size_t c = 0; c < delta.cols(); ++c) {
          EXPECT_EQ(delta.At(0, c), batch.deltas[i].At(r, c))
              << "layer " << i << " row " << r;
        }
      }
    }
    std::vector<Matrix> want;
    for (Matrix* gm : net.Grads()) want.emplace_back(gm->rows(), gm->cols());
    std::vector<Matrix*> want_ptrs;
    for (Matrix& m : want) want_ptrs.push_back(&m);
    for (const GradSink& sink : sinks) {
      if (sink.size() > 0) sink.AddTo(want_ptrs);
    }

    std::vector<Mlp::TapeRow> rows;
    for (size_t r = 0; r < n; ++r) rows.push_back({&batch, r});
    std::vector<Matrix> got;
    for (Matrix* gm : net.Grads()) got.emplace_back(gm->rows(), gm->cols());
    std::vector<Matrix*> got_ptrs;
    for (Matrix& m : got) got_ptrs.push_back(&m);
    std::vector<const double*> scratch;
    net.AccumulateParamGrads(rows, ends, got_ptrs.data(), &scratch);
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectSameBits(want[i], got[i], "AccumulateParamGrads");
    }
  }
}

// -------------------------------------------------- segmented reductions

/// Random entries with exact zeros and negative zeros beside ordinary
/// values. Subnormals are left out: an FMA chain whose product underflows
/// to -0.0 is outside the within-tier dense-vs-sparse contract.
Matrix SignedZeroMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      const double u = rng->Uniform(0.0, 1.0);
      double v = rng->Gaussian(0.0, 1.0);
      if (u < 0.25) {
        v = 0.0;
      } else if (u < 0.4) {
        v = -0.0;
      }
      m.At(r, c) = v;
    }
  }
  return m;
}

/// One-hot rows (a single 1.0 per row, every other entry +0.0 or -0.0):
/// the set-module input shape that makes GemmATAccumulate dispatch sparse.
Matrix OneHotMatrix(size_t rows, size_t cols, Rng* rng) {
  Matrix m(rows, cols);
  for (size_t r = 0; r < rows; ++r) {
    for (size_t c = 0; c < cols; ++c) {
      m.At(r, c) = rng->Uniform(0.0, 1.0) < 0.3 ? -0.0 : 0.0;
    }
    if (cols > 0) m.At(r, static_cast<size_t>(rng->UniformInt(0, cols - 1))) = 1.0;
  }
  return m;
}

Matrix RowRangeOf(const Matrix& m, size_t begin, size_t end) {
  Matrix out(end - begin, m.cols());
  for (size_t r = begin; r < end; ++r) {
    for (size_t c = 0; c < m.cols(); ++c) out.At(r - begin, c) = m.At(r, c);
  }
  return out;
}

using AccumulateFn = void (*)(const Matrix&, const Matrix&, Matrix*);

/// The chain the segmented AT kernel replaces, under the active tier: a
/// zeroed sink per segment, one GemmATAccumulate (or the given table slot)
/// over the segment's rows, the sink added onto acc.
Matrix SinkPerSegmentAT(const Matrix& a, const Matrix& b,
                        const std::vector<size_t>& ends, Matrix acc,
                        AccumulateFn accumulate = kernels::GemmATAccumulate) {
  size_t begin = 0;
  for (size_t end : ends) {
    Matrix sink(a.cols(), b.cols());
    accumulate(RowRangeOf(a, begin, end), RowRangeOf(b, begin, end), &sink);
    acc.Add(sink);
    begin = end;
  }
  return acc;
}

Matrix SinkPerSegmentColSum(const Matrix& a, const std::vector<size_t>& ends,
                            Matrix acc) {
  size_t begin = 0;
  for (size_t end : ends) {
    Matrix sink(1, a.cols());
    kernels::ColSumAccumulate(RowRangeOf(a, begin, end), &sink);
    acc.Add(sink);
    begin = end;
  }
  return acc;
}

enum class SegmentOperand { kSignedZeros, kOneHot, kDense };

struct SegmentCase {
  size_t rows, m, n;
  std::vector<size_t> row_ends;
  SegmentOperand a_kind;
};

const SegmentCase kSegmentCases[] = {
    {0, 3, 4, {}, SegmentOperand::kDense},         // no rows, no segments
    {0, 3, 4, {0, 0}, SegmentOperand::kDense},     // only empty segments
    {1, 5, 8, {1}, SegmentOperand::kSignedZeros},  // one single-row segment
    {9, 3, 3, {1, 2, 3, 4, 5, 6, 7, 8, 9}, SegmentOperand::kDense},
    {7, 13, 17, {2, 2, 5, 7}, SegmentOperand::kSignedZeros},  // empty inside
    {20, 48, 32, {3, 3, 4, 9, 16, 20}, SegmentOperand::kOneHot},  // join-like
    {40, 64, 1, {2, 4, 6, 13, 40}, SegmentOperand::kDense},  // final output
    {34, 81, 50, {1, 6, 9, 9, 12, 20, 34}, SegmentOperand::kSignedZeros},
    {64, 48, 64, {16, 32, 48, 64}, SegmentOperand::kDense},  // op-like dense
    {33, 66, 48, {33}, SegmentOperand::kOneHot},  // one segment, sparse
};

Matrix SegmentOperandMatrix(SegmentOperand kind, size_t rows, size_t cols,
                            Rng* rng) {
  switch (kind) {
    case SegmentOperand::kSignedZeros:
      return SignedZeroMatrix(rows, cols, rng);
    case SegmentOperand::kOneHot:
      return OneHotMatrix(rows, cols, rng);
    case SegmentOperand::kDense:
      break;
  }
  return RandomMatrix(rows, cols, 0.0, rng);
}

TEST(SegmentedReductionTest, ATMatchesSinkPerSegmentInEveryTier) {
  Rng rng(431);
  for (const SegmentCase& c : kSegmentCases) {
    Matrix a = SegmentOperandMatrix(c.a_kind, c.rows, c.m, &rng);
    Matrix b = SignedZeroMatrix(c.rows, c.n, &rng);
    Matrix acc0 = SignedZeroMatrix(c.m, c.n, &rng);
    for (KernelIsa isa : AllAvailableTiers()) {
      ScopedKernelIsa tier(isa);
      const Matrix want = SinkPerSegmentAT(a, b, c.row_ends, acc0);
      Matrix got = acc0;
      kernels::SegmentedATAccumulate(a, b, c.row_ends, &got);
      ExpectSameBits(want, got, "SegmentedATAccumulate");
      Matrix slot = acc0;
      ActiveTable().segmented_at_acc(a, b, c.row_ends.data(),
                                     c.row_ends.size(), &slot);
      ExpectSameBits(want, slot, "segmented_at_acc slot");
      // Whichever way GemmATAccumulate dispatches a segment, the panel and
      // the sparse slot give the same chain.
      ExpectSameBits(want,
                     SinkPerSegmentAT(a, b, c.row_ends, acc0,
                                      ActiveTable().at_acc_panel),
                     "at_acc_panel per segment");
      ExpectSameBits(want,
                     SinkPerSegmentAT(a, b, c.row_ends, acc0,
                                      ActiveTable().at_acc_sparse),
                     "at_acc_sparse per segment");
      if (isa == KernelIsa::kScalar) {
        Matrix ref = acc0;
        kernels::reference::SegmentedATAccumulate(a, b, c.row_ends, &ref);
        ExpectSameBits(want, ref, "reference::SegmentedATAccumulate");
      }
    }
  }
}

TEST(SegmentedReductionTest, ColSumMatchesSinkPerSegmentInEveryTier) {
  Rng rng(433);
  for (const SegmentCase& c : kSegmentCases) {
    Matrix a = SegmentOperandMatrix(c.a_kind, c.rows, c.n, &rng);
    Matrix acc0 = SignedZeroMatrix(1, c.n, &rng);
    // Plain adds only: the scalar chain fixes the bits for every tier.
    Matrix want;
    {
      ScopedKernelIsa tier(KernelIsa::kScalar);
      want = SinkPerSegmentColSum(a, c.row_ends, acc0);
    }
    Matrix ref = acc0;
    kernels::reference::SegmentedColSumAccumulate(a, c.row_ends, &ref);
    ExpectSameBits(want, ref, "reference::SegmentedColSumAccumulate");
    for (KernelIsa isa : AllAvailableTiers()) {
      ScopedKernelIsa tier(isa);
      ExpectSameBits(want, SinkPerSegmentColSum(a, c.row_ends, acc0),
                     "ColSumAccumulate per segment");
      Matrix got = acc0;
      kernels::SegmentedColSumAccumulate(a, c.row_ends, &got);
      ExpectSameBits(want, got, "SegmentedColSumAccumulate");
    }
  }
}

TEST(SegmentedReductionTest, EmptySegmentAddsPositiveZero) {
  // A zeroed sink added onto -0.0 gives +0.0, so an empty segment is not a
  // no-op: it must match the sink-per-segment chain exactly.
  for (KernelIsa isa : AllAvailableTiers()) {
    ScopedKernelIsa tier(isa);
    Matrix a(0, 2), b(0, 9);
    Matrix acc(2, 9);
    acc.At(1, 8) = -0.0;
    kernels::SegmentedATAccumulate(a, b, {0}, &acc);
    EXPECT_FALSE(std::signbit(acc.At(1, 8)));
    Matrix row(1, 9);
    row.At(0, 3) = -0.0;
    kernels::SegmentedColSumAccumulate(b, {0, 0}, &row);
    EXPECT_FALSE(std::signbit(row.At(0, 3)));
  }
}

/// The batched-training contract MSCN relies on: one N-row taped forward
/// and BackwardDeltas, reduced by AccumulateSegmentedParamGrads, equals a
/// Backward over each segment's rows alone into a zeroed GradSink, the
/// sinks added in segment order.
TEST(SegmentedReductionTest, BatchedTapeMatchesBackwardPerSegment) {
  Rng rng(439);
  Mlp net({13, 16, 16, 4}, Activation::kRelu, &rng);
  const size_t n = 11;
  Matrix x = SignedZeroMatrix(n, 13, &rng);
  Matrix g = SignedZeroMatrix(n, 4, &rng);
  const std::vector<size_t> ends = {1, 3, 3, 7, 11};
  for (KernelIsa isa : AllAvailableTiers()) {
    ScopedKernelIsa tier(isa);
    std::vector<Matrix> want;
    for (Matrix* gm : net.Grads()) want.emplace_back(gm->rows(), gm->cols());
    std::vector<Matrix*> want_ptrs;
    for (Matrix& m : want) want_ptrs.push_back(&m);
    size_t begin = 0;
    for (size_t end : ends) {
      GradSink sink;
      sink.InitLike(net.Grads());
      Mlp::Tape tape;
      net.Forward(RowRangeOf(x, begin, end), &tape);
      net.Backward(RowRangeOf(g, begin, end), &tape, &sink);
      sink.AddTo(want_ptrs);
      begin = end;
    }

    Mlp::Tape batch;
    net.Forward(x, &batch);
    EXPECT_EQ(net.BackwardDeltas(g, &batch, net.in_dim()).cols(), 0u);
    std::vector<Matrix> got;
    for (Matrix* gm : net.Grads()) got.emplace_back(gm->rows(), gm->cols());
    std::vector<Matrix*> got_ptrs;
    for (Matrix& m : got) got_ptrs.push_back(&m);
    net.AccumulateSegmentedParamGrads(batch, ends, got_ptrs.data());
    for (size_t i = 0; i < want.size(); ++i) {
      ExpectSameBits(want[i], got[i], "AccumulateSegmentedParamGrads");
    }
  }
}

// ------------------------------------------------------ dispatch sampling

/// ZeroFraction's historical sampler: one division and one modulo per
/// probe. The incremental walk must visit exactly the same positions.
double ZeroFractionByDivision(const Matrix& m) {
  const size_t cols = m.cols();
  const size_t n = m.rows() * cols;
  if (n == 0) return 0.0;
  const size_t stride = n > 256 ? n / 256 : 1;
  size_t zeros = 0;
  size_t probes = 0;
  for (size_t i = 0; i < n; i += stride) {
    zeros += m.At(i / cols, i % cols) == 0.0 ? 1 : 0;
    ++probes;
  }
  return static_cast<double>(zeros) / static_cast<double>(probes);
}

TEST(ZeroFractionTest, IncrementalWalkMatchesDivisionSampler) {
  Rng rng(443);
  const size_t dims[] = {1, 2, 3, 7, 8, 16, 33, 48, 58, 66, 255, 256, 257, 1000};
  for (size_t rows : dims) {
    for (size_t cols : dims) {
      if (rows * cols > 70000) continue;
      const double sparsity = rng.Uniform(0.0, 1.0);
      Matrix m = RandomMatrix(rows, cols, sparsity, &rng);
      EXPECT_EQ(kernels::ZeroFraction(m), ZeroFractionByDivision(m))
          << rows << " x " << cols;
    }
  }
  EXPECT_EQ(kernels::ZeroFraction(Matrix(0, 5)), 0.0);
  EXPECT_EQ(kernels::ZeroFraction(Matrix(5, 0)), 0.0);
}

// ------------------------------------------------------- chunk autotuning

TEST(ChunkAutotuneTest, ExplicitChunkSizePassesThrough) {
  TrainConfig cfg;
  cfg.chunk_size = 7;
  EXPECT_EQ(ResolveTrainChunkSize(cfg, 1e6, 1.0), 7u);
}

TEST(ChunkAutotuneTest, AutoWidthGrowsWithMergeCostAndClampsToBatch) {
  TrainConfig cfg;
  cfg.chunk_size = 0;
  cfg.batch_size = 32;
  // Cheap merges relative to per-sample compute: fine-grained chunks.
  size_t fine = ResolveTrainChunkSize(cfg, 100.0, 10000.0);
  // Expensive merges (a small model): wider chunks.
  size_t coarse = ResolveTrainChunkSize(cfg, 10000.0, 10000.0);
  EXPECT_LT(fine, coarse);
  EXPECT_GE(fine, 1u);
  // Never wider than a batch.
  EXPECT_EQ(ResolveTrainChunkSize(cfg, 1e9, 1.0), 32u);
  // Degenerate measurements fall back to single-sample chunks.
  EXPECT_EQ(ResolveTrainChunkSize(cfg, 0.0, 0.0), 1u);
}

}  // namespace
}  // namespace qcfe
