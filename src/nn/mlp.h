#ifndef QCFE_NN_MLP_H_
#define QCFE_NN_MLP_H_

/// \file mlp.h
/// Multi-layer perceptron built from the layers in layers.h. This is the
/// building block for both estimators: QPPNet instantiates one Mlp "neural
/// unit" per physical operator type; MSCN uses Mlps as set modules and as the
/// final regressor.

#include <iosfwd>
#include <memory>
#include <string>
#include <vector>

#include "nn/layers.h"
#include "nn/matrix.h"
#include "util/status.h"

namespace qcfe {

class ByteReader;
class ByteWriter;
class GradSink;
class Rng;

/// Activation used between hidden layers.
enum class Activation {
  kRelu,
  kSigmoid,
  kTanh,
};

/// Feed-forward network: Linear(+act) x hidden, final Linear (no activation).
class Mlp {
 public:
  /// Builds [in, h1, h2, ..., out] with the given hidden activation. The
  /// paper's models use ReLU; Sigmoid/Tanh exist for ablation tests.
  Mlp(const std::vector<size_t>& layer_dims, Activation act, Rng* rng);

  /// Deserialization constructor (empty net; use Load()).
  Mlp() = default;

  /// Caller-owned activation record of one forward pass: activations[0] is
  /// the network input, activations[i] the input of layer i, and
  /// activations[num_layers] the output. A tape is what Backward() reads
  /// instead of per-layer caches, so forward/backward is reentrant: any
  /// number of threads may run Forward/Backward through the same Mlp
  /// concurrently as long as each owns its tape (and gradient sink). The
  /// difference-propagation walker in src/core consumes the same record.
  ///
  /// A tape doubles as the backward scratch arena: the activation matrices
  /// and the gradient ping-pong buffers are reused across Forward/Backward
  /// calls (reshaped in place), so steady-state training steps on a reused
  /// tape never touch the allocator.
  struct Tape {
    std::vector<Matrix> activations;
    /// BackwardDeltas' record: deltas[i] = dL/d(activations[i + 1]), the
    /// gradient at layer i's output, one row per tape row.
    std::vector<Matrix> deltas;
    /// Backward/seed scratch (not part of the activation record).
    Matrix grad_ping, grad_pong, seed;
  };

  /// Forward pass recording every layer input plus the final output on
  /// `tape` for a subsequent Backward(); returns the output (a reference
  /// into the tape, invalidated by the next Forward on it). Tape matrices
  /// are reused across calls. Thread-safe: the network is read-only, all
  /// state lands on the caller's tape.
  const Matrix& Forward(const Matrix& input, Tape* tape) const;

  /// Inference-only forward (no tape recorded).
  Matrix Predict(const Matrix& input) const;

  /// Reusable ping-pong buffers for allocation-free batched inference. One
  /// scratch may be shared across any number of Predict calls (and across
  /// different Mlps), as long as the previous result has been consumed.
  struct Scratch {
    Matrix ping, pong;
  };

  /// Matrix-batched inference forward for the serving hot path: rows are
  /// samples, layer outputs are written through the caller-owned scratch so
  /// steady-state prediction does not allocate, and Linear+ReLU pairs run
  /// as one fused kernel (the pre-activation is never materialised). The
  /// returned reference points into `scratch` and is invalidated by the
  /// next call. Numerically identical to Predict() row for row.
  const Matrix& Predict(const Matrix& input, Scratch* scratch) const;

  /// Backprop from dL/d(output) through the activations recorded on `tape`
  /// (which must come from a Forward() on this network with the matching
  /// input). Parameter gradients are added into `sink` (layout = Grads();
  /// shape it with GradSink::InitLike); a null sink skips parameter
  /// accumulation entirely, which is how gradient probes stay side-effect
  /// free. Returns dL/d(input) as a reference into the tape's scratch
  /// buffers (invalidated by the next Backward on it). The running
  /// gradient ping-pongs between two tape-owned buffers — activation masks
  /// apply in place, linear layers write the opposite buffer — so a reused
  /// tape makes the whole backward pass allocation-free.
  const Matrix& Backward(const Matrix& grad_output, Tape* tape,
                         GradSink* sink) const;

  /// Backward for batched training: propagates dL/d(output) (one row per
  /// tape row) down through every layer and records each layer's output
  /// gradient on tape->deltas, reducing no parameter gradient. The caller
  /// reduces them later with AccumulateParamGrads, in whatever row order it
  /// must keep. Every layer's backward is row-independent, so each row's
  /// deltas equal those of a 1-row Backward of that row alone. Returns
  /// dL/d(input) for the input columns [input_grad_begin, in_dim) only (a
  /// reference into the tape's scratch; no product at all when the range
  /// is empty). A non-zero begin requires a Linear first layer.
  const Matrix& BackwardDeltas(const Matrix& grad_output, Tape* tape,
                               size_t input_grad_begin) const;

  /// One row of a Forward() + BackwardDeltas() record.
  struct TapeRow {
    const Tape* tape = nullptr;
    size_t row = 0;
  };

  /// Adds the parameter gradients of `rows` into `grads` (Grads() layout).
  /// Rows are summed in the given order, cut into chunks at `chunk_ends`
  /// (kernels::InOrderATAccumulate), so the result is bit-identical to
  /// running Backward() on each row alone into a zeroed GradSink per chunk
  /// and adding the sinks onto `grads` in chunk order. `scratch` holds the
  /// row pointers between calls.
  void AccumulateParamGrads(const std::vector<TapeRow>& rows,
                            const std::vector<size_t>& chunk_ends,
                            Matrix* const* grads,
                            std::vector<const double*>* scratch) const;

  /// Adds the parameter gradients of one Forward() + BackwardDeltas()
  /// record into `grads` (Grads() layout), one segment of tape rows at a
  /// time (kernels::SegmentedATAccumulate): bit-identical to running
  /// Backward() on each segment's rows alone into a zeroed GradSink and
  /// adding the sinks onto `grads` in segment order. Segment s covers tape
  /// rows [row_ends[s-1], row_ends[s]); the last end must be the row count.
  void AccumulateSegmentedParamGrads(const Tape& tape,
                                     const std::vector<size_t>& row_ends,
                                     Matrix* const* grads) const;

  /// d(output_0)/d(input) for each sample: runs Forward+Backward with a
  /// one-hot output gradient on a private tape and a null sink, so
  /// optimizer-bound parameter grads are untouched (byte-for-byte).
  /// Returns a (batch x in_dim) matrix.
  Matrix InputGradient(const Matrix& input) const;

  /// InputGradient through a caller-owned tape, so repeated probes (e.g.
  /// the gradient-importance sweep in feature reduction) reuse one scratch
  /// arena instead of allocating per call.
  Matrix InputGradient(const Matrix& input, Tape* tape) const;

  void ZeroGrad();

  std::vector<Matrix*> Params();
  std::vector<Matrix*> Grads();

  size_t in_dim() const { return in_dim_; }
  size_t out_dim() const { return out_dim_; }
  size_t num_layers() const { return layers_.size(); }
  const std::vector<std::unique_ptr<Layer>>& layers() const { return layers_; }

  /// Serializes architecture + weights to a text stream.
  Status Save(std::ostream& os) const;
  /// Restores a network saved with Save().
  Status Load(std::istream& is);

  /// Appends architecture + weights to `w` in the exact little-endian binary
  /// form used by model artifacts (core/artifact.h) — doubles as bit
  /// patterns, so a round trip is bit-identical.
  void SaveBinary(ByteWriter* w) const;
  /// Restores weights saved with SaveBinary **in place**: the saved
  /// architecture (layer count, kinds, dims, activation) must match this
  /// already-constructed network exactly — weights are overwritten but no
  /// layer is reallocated, so parameter pointers handed to an optimizer at
  /// construction stay bound. Architecture mismatch is kFailedPrecondition;
  /// truncated bytes are kDataLoss.
  Status LoadBinary(ByteReader* r);

  /// Deep copy (fresh caches, same weights).
  Mlp Clone() const;

  /// Appends a layer (composite-view construction: feature reduction builds
  /// "embed -> unit -> select" stacks from trained layers). Updates
  /// in_dim/out_dim bookkeeping for Linear layers.
  void AppendLayer(std::unique_ptr<Layer> layer);

  /// Deep-copies a single layer.
  static std::unique_ptr<Layer> CloneLayer(const Layer& layer);

  /// A zero-initialised Linear layer (weights and bias all 0) for callers
  /// that assemble affine embeddings by hand.
  static std::unique_ptr<LinearLayer> MakeZeroLinear(size_t in, size_t out);

  /// Rebuilds the first linear layer keeping only the given input columns.
  /// This is how feature reduction physically shrinks a trained model.
  Status ShrinkInputs(const std::vector<size_t>& kept_columns);

 private:
  size_t in_dim_ = 0;
  size_t out_dim_ = 0;
  Activation act_ = Activation::kRelu;
  std::vector<std::unique_ptr<Layer>> layers_;
};

}  // namespace qcfe

#endif  // QCFE_NN_MLP_H_
