#ifndef QCFE_NN_OPTIMIZER_H_
#define QCFE_NN_OPTIMIZER_H_

/// \file optimizer.h
/// First-order optimizers over (param, grad) pairs, plus the caller-owned
/// gradient accumulator (GradSink) that tape-based backprop writes into.
/// Adam is the default for both estimators, matching the reference
/// QPPNet/MSCN implementations.

#include <memory>
#include <vector>

#include "nn/matrix.h"
#include "util/status.h"

namespace qcfe {

class ByteReader;
class ByteWriter;

/// A caller-owned set of parameter-gradient accumulators, shaped like some
/// network's Grads() list. Tape-based Mlp::Backward adds into a sink
/// instead of mutating shared state. A zeroed sink per chunk, added onto
/// the optimizer-bound gradients in chunk order, is the reduction the
/// batched trainers' kernels (Mlp::AccumulateParamGrads,
/// Mlp::AccumulateSegmentedParamGrads) are defined against and tested
/// with.
class GradSink {
 public:
  /// Shapes one zeroed accumulator per entry of `grads` (typically
  /// Mlp::Grads()). Reuses existing allocations whenever the shapes fit,
  /// so per-batch reinitialisation of a warm sink is a pure zeroing pass —
  /// the sink-backed half of the allocation-free backward (the register-
  /// resident accumulate kernels in nn/kernels.h add straight into these
  /// slots).
  void InitLike(const std::vector<Matrix*>& grads);

  /// Adds the accumulators into `grads` (same layout as InitLike). This is
  /// the chunk-order reduction into the optimizer-bound gradients.
  void AddTo(const std::vector<Matrix*>& grads) const;

  size_t size() const { return grads_.size(); }
  Matrix& slot(size_t i) { return grads_[i]; }
  const Matrix& slot(size_t i) const { return grads_[i]; }
  /// Contiguous accumulator pointers (size() entries), rebuilt by
  /// InitLike; lets backprop slice per-layer views without allocating.
  Matrix* const* slots() { return slot_ptrs_.data(); }

 private:
  std::vector<Matrix> grads_;
  std::vector<Matrix*> slot_ptrs_;
};

/// Base optimizer bound to a fixed set of parameter/gradient pairs.
class Optimizer {
 public:
  Optimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads)
      : params_(std::move(params)), grads_(std::move(grads)) {}
  virtual ~Optimizer() = default;

  /// Applies one update using the currently accumulated gradients.
  virtual void Step() = 0;

  /// Zeroes all bound gradients.
  void ZeroGrad() {
    for (Matrix* g : grads_) g->Fill(0.0);
  }

 protected:
  std::vector<Matrix*> params_;
  std::vector<Matrix*> grads_;
};

/// Stochastic gradient descent with classical momentum.
class SgdOptimizer : public Optimizer {
 public:
  SgdOptimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads,
               double lr, double momentum = 0.0);
  void Step() override;

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

 private:
  double lr_;
  double momentum_;
  std::vector<Matrix> velocity_;
};

/// Adam (Kingma & Ba) with bias correction.
class AdamOptimizer : public Optimizer {
 public:
  AdamOptimizer(std::vector<Matrix*> params, std::vector<Matrix*> grads,
                double lr, double beta1 = 0.9, double beta2 = 0.999,
                double eps = 1e-8);
  void Step() override;

  void set_lr(double lr) { lr_ = lr; }
  double lr() const { return lr_; }

  /// Global-norm gradient clipping (0 disables). Stabilises the
  /// plan-structured training where rare deep plans can spike gradients.
  void set_clip_norm(double clip) { clip_norm_ = clip; }

  /// Serializes hyperparameters, step count and first/second-moment slots
  /// for model artifacts (core/artifact.h), so a loaded model's next Step()
  /// is bit-identical to the never-persisted original's (warm-start
  /// retraining resumes mid-schedule, not from scratch).
  void SaveState(ByteWriter* w) const;
  /// Restores state saved by SaveState into an optimizer bound to the same
  /// parameter shapes. Slot-count or shape mismatch is kFailedPrecondition;
  /// truncated bytes are kDataLoss.
  Status LoadState(ByteReader* r);

 private:
  double lr_;
  double beta1_;
  double beta2_;
  double eps_;
  double clip_norm_ = 0.0;
  int64_t t_ = 0;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
};

}  // namespace qcfe

#endif  // QCFE_NN_OPTIMIZER_H_
