/// Finite-difference verification of the tape-based autodiff stack, bottom
/// up: every layer type's Backward against central differences through the
/// raw Layer API, then both estimators' composite training losses (QPPNet's
/// plan-structured per-node loss, MSCN's pooled set-module loss) against
/// central differences of TrainingLoss over real workload corpora. These
/// suites pin the contract batched training rests on: backprop reads only
/// the caller's tape and writes only the caller's sink. QPPNet's
/// TrainingLoss runs the wave-batched trainer (one batched unit forward and
/// delta backward per plan wave, then the in-order gradient reduction), and
/// MSCN's runs the batched trainer as a single chunk (one packed forward
/// and delta backward, then the segmented gradient reduction), so both
/// checks cover those paths end to end.

#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <vector>

#include "models/cost_model.h"
#include "models/mscn.h"
#include "models/qppnet.h"
#include "nn/layers.h"
#include "nn/mlp.h"
#include "nn/optimizer.h"
#include "util/rng.h"
#include "workload/benchmark.h"
#include "workload/collector.h"

namespace qcfe {
namespace {

constexpr double kEps = 1e-5;

/// Scalar probe loss L = sum_ij weight_ij * out_ij with fixed random
/// weights, so grad_output = weight and dL/d(anything) is checkable by
/// central differences.
Matrix ProbeWeights(size_t rows, size_t cols, uint64_t seed) {
  Rng rng(seed);
  Matrix w(rows, cols);
  w.RandomizeGaussian(&rng, 1.0);
  return w;
}

double ProbeLoss(const Layer& layer, const Matrix& input,
                 const Matrix& probe) {
  Matrix out = layer.Forward(input);
  double loss = 0.0;
  for (size_t i = 0; i < out.data().size(); ++i) {
    loss += probe.data()[i] * out.data()[i];
  }
  return loss;
}

/// Checks dL/d(input) and, for parameterised layers, dL/d(param) against
/// central differences. `layer` may be mutated transiently (parameter
/// perturbation) but is restored.
void CheckLayerGradients(Layer* layer, Matrix input, double tol) {
  Matrix probe = ProbeWeights(input.rows(),
                              layer->Forward(input).cols(), 99);
  Matrix output = layer->Forward(input);

  // Sink slots shaped like the layer's grads (empty for activations).
  std::vector<Matrix> sink_storage;
  std::vector<Matrix*> sink;
  for (Matrix* g : layer->Grads()) {
    sink_storage.emplace_back(g->rows(), g->cols());
  }
  for (Matrix& m : sink_storage) sink.push_back(&m);

  Matrix gin = layer->Backward(probe, input, output,
                               sink.empty() ? nullptr : sink.data());

  // Input gradient.
  for (size_t r = 0; r < input.rows(); ++r) {
    for (size_t c = 0; c < input.cols(); ++c) {
      Matrix xp = input, xm = input;
      xp.At(r, c) += kEps;
      xm.At(r, c) -= kEps;
      double numeric =
          (ProbeLoss(*layer, xp, probe) - ProbeLoss(*layer, xm, probe)) /
          (2 * kEps);
      EXPECT_NEAR(gin.At(r, c), numeric, tol)
          << "d(input) at (" << r << "," << c << ")";
    }
  }

  // Parameter gradients (Linear only).
  std::vector<Matrix*> params = layer->Params();
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t k = 0; k < params[p]->data().size(); ++k) {
      double save = params[p]->data()[k];
      params[p]->data()[k] = save + kEps;
      double lp = ProbeLoss(*layer, input, probe);
      params[p]->data()[k] = save - kEps;
      double lm = ProbeLoss(*layer, input, probe);
      params[p]->data()[k] = save;
      EXPECT_NEAR(sink[p]->data()[k], (lp - lm) / (2 * kEps), tol)
          << "d(param " << p << ") entry " << k;
    }
  }
}

TEST(LayerAutodiffTest, LinearBackwardMatchesFiniteDifferences) {
  Rng rng(7);
  LinearLayer layer(4, 3, &rng);
  Matrix x(5, 4);
  x.RandomizeGaussian(&rng, 1.0);
  CheckLayerGradients(&layer, x, 1e-6);
}

TEST(LayerAutodiffTest, ReluBackwardMatchesFiniteDifferences) {
  ReluLayer layer;
  Rng rng(8);
  Matrix x(4, 6);
  x.RandomizeGaussian(&rng, 1.0);
  // Keep inputs away from the kink so central differences are clean.
  for (double& v : x.data()) {
    if (std::fabs(v) < 0.05) v = v < 0.0 ? v - 0.1 : v + 0.1;
  }
  CheckLayerGradients(&layer, x, 1e-6);
}

TEST(LayerAutodiffTest, SigmoidBackwardMatchesFiniteDifferences) {
  SigmoidLayer layer;
  Rng rng(9);
  Matrix x(4, 6);
  x.RandomizeGaussian(&rng, 1.5);
  CheckLayerGradients(&layer, x, 1e-6);
}

TEST(LayerAutodiffTest, TanhBackwardMatchesFiniteDifferences) {
  TanhLayer layer;
  Rng rng(10);
  Matrix x(4, 6);
  x.RandomizeGaussian(&rng, 1.5);
  CheckLayerGradients(&layer, x, 1e-6);
}

TEST(LayerAutodiffTest, FusedEpilogueGradientsMatchFiniteDifferences) {
  // End-to-end through Mlp::Forward/Backward, whose linear layers run the
  // fused bias-epilogue kernels and whose ReLU backward masks in place on
  // the tape scratch: dL/d(input) and dL/d(params) of a Linear+ReLU+Linear
  // stack must still match central differences.
  Rng rng(21);
  Mlp net({5, 7, 1}, Activation::kRelu, &rng);
  Matrix x(6, 5);
  x.RandomizeGaussian(&rng, 1.0);
  // Keep pre-activations away from the ReLU kink.
  Mlp::Tape probe_tape;
  net.Forward(x, &probe_tape);
  for (double& v : probe_tape.activations[1].data()) {
    ASSERT_TRUE(std::isfinite(v));
  }

  Mlp::Tape tape;
  Matrix out = net.Forward(x, &tape);
  Matrix grad(out.rows(), out.cols());
  grad.Fill(1.0);  // L = sum(out)
  GradSink sink;
  sink.InitLike(net.Grads());
  Matrix gin = net.Backward(grad, &tape, &sink);

  auto loss = [&]() {
    Matrix o = net.Predict(x);
    double acc = 0.0;
    for (double v : o.data()) acc += v;
    return acc;
  };
  // Input gradient, every entry.
  for (size_t r = 0; r < x.rows(); ++r) {
    for (size_t c = 0; c < x.cols(); ++c) {
      double save = x.At(r, c);
      x.At(r, c) = save + kEps;
      double lp = loss();
      x.At(r, c) = save - kEps;
      double lm = loss();
      x.At(r, c) = save;
      EXPECT_NEAR(gin.At(r, c), (lp - lm) / (2 * kEps), 1e-5)
          << "d(input) at (" << r << "," << c << ")";
    }
  }
  // Parameter gradients, spot checks per matrix.
  std::vector<Matrix*> params = net.Params();
  for (size_t p = 0; p < params.size(); ++p) {
    for (size_t k = 0; k < std::min<size_t>(params[p]->data().size(), 4);
         ++k) {
      double save = params[p]->data()[k];
      params[p]->data()[k] = save + kEps;
      double lp = loss();
      params[p]->data()[k] = save - kEps;
      double lm = loss();
      params[p]->data()[k] = save;
      EXPECT_NEAR(sink.slot(p).data()[k], (lp - lm) / (2 * kEps), 1e-5)
          << "d(param " << p << ") entry " << k;
    }
  }
}

TEST(LayerAutodiffTest, NullSinkSkipsParameterAccumulation) {
  Rng rng(11);
  LinearLayer layer(3, 2, &rng);
  Matrix x(2, 3);
  x.RandomizeGaussian(&rng, 1.0);
  Matrix out = layer.Forward(x);
  Matrix probe = ProbeWeights(2, 2, 12);
  // Null param_grads must still produce the input gradient and must not
  // touch the optimizer-bound accumulators.
  layer.ZeroGrad();
  Matrix gin = layer.Backward(probe, x, out, nullptr);
  EXPECT_GT(gin.Norm(), 0.0);
  for (Matrix* g : layer.Grads()) EXPECT_EQ(g->Norm(), 0.0);
}

// ------------------------------------------------- composite estimator loss

/// Shared corpus for the estimator-level checks: a small sysbench workload,
/// two environments.
class EstimatorAutodiffTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    auto bench = MakeBenchmark("sysbench");
    db_ = (*bench)->BuildDatabase(0.05, 131).release();
    envs_ = new std::vector<Environment>(
        EnvironmentSampler::Sample(2, HardwareProfile::H1(), 141));
    QueryCollector collector(db_, envs_);
    auto set = collector.Collect((*bench)->Templates(), 80, 151);
    ASSERT_TRUE(set.ok());
    corpus_ = new LabeledQuerySet(std::move(set.value()));
    featurizer_ = new BaseFeaturizer(db_->catalog());
    samples_ = new std::vector<PlanSample>();
    for (size_t i = 0; i < 16; ++i) {
      const LabeledQuery& q = corpus_->queries[i];
      samples_->push_back(PlanSample{q.plan.get(), q.env_id, q.total_ms});
    }
  }

  /// FD-checks `model.TrainingLoss` gradients for a trained estimator:
  /// zeroes the gradient list, accumulates analytically once, then probes a
  /// few entries of every parameter matrix with central differences.
  template <typename Model>
  static void CheckCompositeLoss(Model* model) {
    // Nudge every parameter off exact zero first. Zero-initialised biases
    // fed by all-zero padded set rows (e.g. MSCN's join module on a no-join
    // workload) leave ReLU preactivations at exactly 0 — the kink — where
    // the analytic subgradient (0) and a central difference (one-sided
    // slope) legitimately disagree.
    Rng noise(777);
    for (Matrix* p : model->Params()) {
      for (double& v : p->data()) v += noise.Gaussian(0.0, 0.01);
    }
    for (Matrix* g : model->Grads()) g->Fill(0.0);
    auto analytic = model->TrainingLoss(*samples_, /*accumulate=*/true);
    ASSERT_TRUE(analytic.ok()) << analytic.status().ToString();

    std::vector<Matrix*> params = model->Params();
    std::vector<Matrix*> grads = model->Grads();
    ASSERT_EQ(params.size(), grads.size());
    size_t checked = 0;
    for (size_t p = 0; p < params.size(); ++p) {
      for (size_t k = 0; k < std::min<size_t>(params[p]->data().size(), 3);
           ++k) {
        double save = params[p]->data()[k];
        params[p]->data()[k] = save + kEps;
        auto lp = model->TrainingLoss(*samples_, /*accumulate=*/false);
        params[p]->data()[k] = save - kEps;
        auto lm = model->TrainingLoss(*samples_, /*accumulate=*/false);
        params[p]->data()[k] = save;
        ASSERT_TRUE(lp.ok() && lm.ok());
        double numeric = (*lp - *lm) / (2 * kEps);
        double g = grads[p]->data()[k];
        EXPECT_NEAR(g, numeric, 1e-4 + 5e-3 * std::fabs(g))
            << "param matrix " << p << " entry " << k;
        ++checked;
      }
    }
    EXPECT_GT(checked, 0u);

    // TrainingLoss without accumulation must be grad-neutral: the analytic
    // gradients from above survive the FD probing byte-for-byte.
    // (Every probe above called TrainingLoss(accumulate=false) twice.)
    std::vector<double> snapshot;
    for (Matrix* g : grads) {
      for (double v : g->data()) snapshot.push_back(v);
    }
    auto again = model->TrainingLoss(*samples_, /*accumulate=*/false);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(*analytic, *again);
    size_t i = 0;
    for (Matrix* g : grads) {
      for (double v : g->data()) EXPECT_EQ(v, snapshot[i++]);
    }
  }

  static Database* db_;
  static std::vector<Environment>* envs_;
  static LabeledQuerySet* corpus_;
  static BaseFeaturizer* featurizer_;
  static std::vector<PlanSample>* samples_;
};

Database* EstimatorAutodiffTest::db_ = nullptr;
std::vector<Environment>* EstimatorAutodiffTest::envs_ = nullptr;
LabeledQuerySet* EstimatorAutodiffTest::corpus_ = nullptr;
BaseFeaturizer* EstimatorAutodiffTest::featurizer_ = nullptr;
std::vector<PlanSample>* EstimatorAutodiffTest::samples_ = nullptr;

// Through the wave-batched path: the 16 plans form one batch whose waves
// each run as a few matrix-batched unit passes.
TEST_F(EstimatorAutodiffTest, QppNetCompositeLossMatchesFiniteDifferences) {
  QppNet model(featurizer_, QppNetConfig{}, 161);
  TrainConfig cfg;
  cfg.epochs = 2;
  ASSERT_TRUE(model.Train(*samples_, cfg, nullptr).ok());
  CheckCompositeLoss(&model);
}

TEST_F(EstimatorAutodiffTest, MscnCompositeLossMatchesFiniteDifferences) {
  Mscn model(db_->catalog(), featurizer_, MscnConfig{}, 171);
  TrainConfig cfg;
  cfg.epochs = 2;
  ASSERT_TRUE(model.Train(*samples_, cfg, nullptr).ok());
  CheckCompositeLoss(&model);
}

}  // namespace
}  // namespace qcfe
