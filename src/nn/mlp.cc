#include "nn/mlp.h"

#include <iomanip>
#include <istream>
#include <ostream>

#include "nn/kernels.h"
#include "nn/matrix_io.h"
#include "nn/optimizer.h"
#include "util/check.h"
#include "util/rng.h"
#include "util/serialize.h"

namespace qcfe {

namespace {
std::unique_ptr<Layer> MakeActivation(Activation act) {
  switch (act) {
    case Activation::kRelu:
      return std::make_unique<ReluLayer>();
    case Activation::kSigmoid:
      return std::make_unique<SigmoidLayer>();
    case Activation::kTanh:
      return std::make_unique<TanhLayer>();
  }
  return std::make_unique<ReluLayer>();
}
}  // namespace

Mlp::Mlp(const std::vector<size_t>& layer_dims, Activation act, Rng* rng)
    : act_(act) {
  if (layer_dims.size() < 2) return;
  in_dim_ = layer_dims.front();
  out_dim_ = layer_dims.back();
  for (size_t i = 0; i + 1 < layer_dims.size(); ++i) {
    layers_.push_back(
        std::make_unique<LinearLayer>(layer_dims[i], layer_dims[i + 1], rng));
    bool is_last = (i + 2 == layer_dims.size());
    if (!is_last) layers_.push_back(MakeActivation(act));
  }
}

const Matrix& Mlp::Forward(const Matrix& input, Tape* tape) const {
  QCFE_CHECK(tape != nullptr, "Mlp::Forward requires a caller-owned tape");
  QCFE_CHECK(layers_.empty() || in_dim_ == 0 || input.cols() == in_dim_,
             "Mlp::Forward input width does not match the network's in_dim");
  // Reuse the tape's activation matrices across calls (reshaped in place),
  // so a steady-shape training loop never allocates on the forward pass.
  auto& acts = tape->activations;
  if (acts.size() != layers_.size() + 1) acts.resize(layers_.size() + 1);
  acts[0] = input;
  for (size_t i = 0; i < layers_.size(); ++i) {
    layers_[i]->ForwardInto(acts[i], &acts[i + 1]);
  }
  return acts.back();
}

Matrix Mlp::Predict(const Matrix& input) const {
  Matrix x = input;
  for (const auto& layer : layers_) x = layer->Forward(x);
  return x;
}

const Matrix& Mlp::Predict(const Matrix& input, Scratch* scratch) const {
  if (layers_.empty()) {
    scratch->ping = input;
    return scratch->ping;
  }
  const Matrix* src = &input;
  Matrix* dst = &scratch->ping;
  size_t i = 0;
  while (i < layers_.size()) {
    const Layer& layer = *layers_[i];
    // Serving never needs the pre-activation, so a Linear feeding a ReLU
    // collapses into one fused kernel: the ReLU applies while the output
    // panel is still in registers and one whole intermediate write+read
    // pass disappears.
    if (layer.kind() == LayerKind::kLinear &&
        i + 1 < layers_.size() &&
        layers_[i + 1]->kind() == LayerKind::kRelu) {
      static_cast<const LinearLayer&>(layer).ForwardReluInto(*src, dst);
      i += 2;
    } else {
      layer.ForwardInto(*src, dst);
      ++i;
    }
    src = dst;
    dst = (dst == &scratch->ping) ? &scratch->pong : &scratch->ping;
  }
  return *src;
}

const Matrix& Mlp::Backward(const Matrix& grad_output, Tape* tape,
                            GradSink* sink) const {
  // Tape-reuse contract: Backward consumes the activation record of a
  // Forward() on this same network. A stale or foreign tape would read
  // mismatched activations and silently corrupt every gradient.
  QCFE_CHECK(tape != nullptr &&
                 tape->activations.size() == layers_.size() + 1,
             "Mlp::Backward tape does not match a Forward() on this network");
  QCFE_DCHECK(grad_output.rows() == tape->activations.back().rows() &&
                  grad_output.cols() == tape->activations.back().cols(),
              "Mlp::Backward gradient shape does not match the taped output");
  // Sink slots are laid out in Grads() order (layer by layer); walk layers
  // in reverse while keeping the running offset past the current layer.
  size_t offset = sink == nullptr ? 0 : sink->size();
  Matrix* const* slots = sink == nullptr ? nullptr : sink->slots();
  // The running gradient lives in the tape's ping-pong scratch: elementwise
  // layers mask it in place, linear layers write the opposite buffer.
  // Values are identical to the allocating walk — only the storage moved.
  Matrix* cur = nullptr;  // null: still reading the caller's grad_output
  for (size_t i = layers_.size(); i > 0; --i) {
    const Layer& layer = *layers_[i - 1];
    Matrix* const* param_grads = nullptr;
    if (sink != nullptr) {
      offset -= layer.num_param_grads();
      if (layer.num_param_grads() > 0) param_grads = slots + offset;
    }
    const Matrix& src = cur == nullptr ? grad_output : *cur;
    if (layer.kind() == LayerKind::kLinear) {
      Matrix* dst =
          (cur == &tape->grad_ping) ? &tape->grad_pong : &tape->grad_ping;
      layer.BackwardInto(src, tape->activations[i - 1], tape->activations[i],
                         param_grads, dst);
      cur = dst;
    } else if (cur == nullptr) {
      layer.BackwardInto(src, tape->activations[i - 1], tape->activations[i],
                         param_grads, &tape->grad_ping);
      cur = &tape->grad_ping;
    } else {
      layer.BackwardInto(src, tape->activations[i - 1], tape->activations[i],
                         param_grads, cur);
    }
  }
  if (cur == nullptr) {
    tape->grad_ping = grad_output;
    cur = &tape->grad_ping;
  }
  return *cur;
}

const Matrix& Mlp::BackwardDeltas(const Matrix& grad_output, Tape* tape,
                                  size_t input_grad_begin) const {
  QCFE_CHECK(tape != nullptr &&
                 tape->activations.size() == layers_.size() + 1,
             "Mlp::BackwardDeltas tape does not match a Forward() on this "
             "network");
  QCFE_CHECK(!layers_.empty(), "Mlp::BackwardDeltas on an empty network");
  QCFE_DCHECK(grad_output.rows() == tape->activations.back().rows() &&
                  grad_output.cols() == tape->activations.back().cols(),
              "Mlp::BackwardDeltas gradient shape does not match the taped "
              "output");
  const auto& acts = tape->activations;
  auto& deltas = tape->deltas;
  const size_t n = layers_.size();
  if (deltas.size() != n) deltas.resize(n);
  deltas[n - 1] = grad_output;
  for (size_t i = n - 1; i > 0; --i) {
    layers_[i]->BackwardInto(deltas[i], acts[i], acts[i + 1], nullptr,
                             &deltas[i - 1]);
  }
  Matrix* gx = &tape->grad_ping;
  if (input_grad_begin == 0) {
    layers_[0]->BackwardInto(deltas[0], acts[0], acts[1], nullptr, gx);
  } else if (input_grad_begin >= in_dim_) {
    gx->ResetShapeUninitialized(grad_output.rows(), 0);
  } else {
    QCFE_CHECK(layers_[0]->kind() == LayerKind::kLinear,
               "Mlp::BackwardDeltas: a partial input gradient needs a Linear "
               "first layer");
    static_cast<const LinearLayer&>(*layers_[0])
        .InputGradTailInto(deltas[0], input_grad_begin, &tape->grad_pong, gx);
  }
  return *gx;
}

void Mlp::AccumulateParamGrads(const std::vector<TapeRow>& rows,
                               const std::vector<size_t>& chunk_ends,
                               Matrix* const* grads,
                               std::vector<const double*>* scratch) const {
  const size_t count = rows.size();
  scratch->resize(2 * count);
  const double** a_rows = scratch->data();
  const double** b_rows = scratch->data() + count;
  size_t slot = 0;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Layer& layer = *layers_[i];
    if (layer.num_param_grads() == 0) continue;
    QCFE_CHECK(layer.kind() == LayerKind::kLinear,
               "Mlp::AccumulateParamGrads: only Linear layers carry params");
    for (size_t r = 0; r < count; ++r) {
      const Tape& tape = *rows[r].tape;
      QCFE_DCHECK(tape.deltas.size() == layers_.size(),
                  "Mlp::AccumulateParamGrads: tape has no BackwardDeltas");
      a_rows[r] = tape.activations[i].RowPtr(rows[r].row);
      b_rows[r] = tape.deltas[i].RowPtr(rows[r].row);
    }
    const auto& lin = static_cast<const LinearLayer&>(layer);
    const kernels::RowRefs a{a_rows, count, lin.in_dim()};
    const kernels::RowRefs b{b_rows, count, lin.out_dim()};
    kernels::InOrderATAccumulate(a, b, chunk_ends, grads[slot]);
    kernels::InOrderColSumAccumulate(b, chunk_ends, grads[slot + 1]);
    slot += layer.num_param_grads();
  }
}

void Mlp::AccumulateSegmentedParamGrads(const Tape& tape,
                                        const std::vector<size_t>& row_ends,
                                        Matrix* const* grads) const {
  QCFE_CHECK(tape.activations.size() == layers_.size() + 1 &&
                 tape.deltas.size() == layers_.size(),
             "Mlp::AccumulateSegmentedParamGrads: tape has no Forward() + "
             "BackwardDeltas() record on this network");
  size_t slot = 0;
  for (size_t i = 0; i < layers_.size(); ++i) {
    const Layer& layer = *layers_[i];
    if (layer.num_param_grads() == 0) continue;
    QCFE_CHECK(layer.kind() == LayerKind::kLinear,
               "Mlp::AccumulateSegmentedParamGrads: only Linear layers carry "
               "params");
    kernels::SegmentedATAccumulate(tape.activations[i], tape.deltas[i],
                                   row_ends, grads[slot]);
    kernels::SegmentedColSumAccumulate(tape.deltas[i], row_ends,
                                       grads[slot + 1]);
    slot += layer.num_param_grads();
  }
}

Matrix Mlp::InputGradient(const Matrix& input) const {
  Tape tape;
  return InputGradient(input, &tape);
}

Matrix Mlp::InputGradient(const Matrix& input, Tape* tape) const {
  const Matrix& out = Forward(input, tape);
  tape->seed.ResetShape(out.rows(), out.cols());
  for (size_t r = 0; r < tape->seed.rows(); ++r) tape->seed.At(r, 0) = 1.0;
  return Backward(tape->seed, tape, /*sink=*/nullptr);
}

void Mlp::ZeroGrad() {
  for (auto& layer : layers_) layer->ZeroGrad();
}

std::vector<Matrix*> Mlp::Params() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* p : layer->Params()) out.push_back(p);
  }
  return out;
}

std::vector<Matrix*> Mlp::Grads() {
  std::vector<Matrix*> out;
  for (auto& layer : layers_) {
    for (Matrix* g : layer->Grads()) out.push_back(g);
  }
  return out;
}

Status Mlp::Save(std::ostream& os) const {
  os << std::setprecision(17);
  os << "mlp " << in_dim_ << " " << out_dim_ << " "
     << static_cast<int>(act_) << " " << layers_.size() << "\n";
  for (const auto& layer : layers_) {
    os << static_cast<int>(layer->kind());
    if (layer->kind() == LayerKind::kLinear) {
      const auto* lin = static_cast<const LinearLayer*>(layer.get());
      os << " " << lin->in_dim() << " " << lin->out_dim() << "\n";
      // Logical elements only, row by row: the serialized format is exactly
      // rows*cols values, independent of the padded storage layout.
      const Matrix& w = lin->weights();
      for (size_t r = 0; r < w.rows(); ++r) {
        const double* row = w.RowPtr(r);
        for (size_t c = 0; c < w.cols(); ++c) os << row[c] << " ";
      }
      os << "\n";
      const Matrix& b = lin->bias();
      for (size_t r = 0; r < b.rows(); ++r) {
        const double* row = b.RowPtr(r);
        for (size_t c = 0; c < b.cols(); ++c) os << row[c] << " ";
      }
    }
    os << "\n";
  }
  if (!os.good()) return Status::Internal("stream write failed");
  return Status::OK();
}

Status Mlp::Load(std::istream& is) {
  std::string magic;
  size_t n_layers = 0;
  int act = 0;
  is >> magic >> in_dim_ >> out_dim_ >> act >> n_layers;
  if (magic != "mlp" || !is.good()) {
    return Status::ParseError("bad mlp header");
  }
  act_ = static_cast<Activation>(act);
  layers_.clear();
  Rng dummy(0);
  for (size_t i = 0; i < n_layers; ++i) {
    int kind = 0;
    is >> kind;
    switch (static_cast<LayerKind>(kind)) {
      case LayerKind::kLinear: {
        size_t in = 0, out = 0;
        is >> in >> out;
        auto lin = std::make_unique<LinearLayer>(in, out, &dummy);
        // Mirror of Save: read exactly rows*cols logical values per matrix,
        // leaving the storage pad columns untouched (zero).
        Matrix& w = lin->weights();
        for (size_t r = 0; r < w.rows(); ++r) {
          double* row = w.RowPtr(r);
          for (size_t c = 0; c < w.cols(); ++c) is >> row[c];
        }
        Matrix& b = lin->bias();
        for (size_t r = 0; r < b.rows(); ++r) {
          double* row = b.RowPtr(r);
          for (size_t c = 0; c < b.cols(); ++c) is >> row[c];
        }
        layers_.push_back(std::move(lin));
        break;
      }
      case LayerKind::kRelu:
        layers_.push_back(std::make_unique<ReluLayer>());
        break;
      case LayerKind::kSigmoid:
        layers_.push_back(std::make_unique<SigmoidLayer>());
        break;
      case LayerKind::kTanh:
        layers_.push_back(std::make_unique<TanhLayer>());
        break;
      default:
        return Status::ParseError("unknown layer kind");
    }
    if (!is.good() && !is.eof()) return Status::ParseError("truncated mlp");
  }
  return Status::OK();
}

void Mlp::SaveBinary(ByteWriter* w) const {
  w->PutU32(static_cast<uint32_t>(in_dim_));
  w->PutU32(static_cast<uint32_t>(out_dim_));
  w->PutU8(static_cast<uint8_t>(act_));
  w->PutU32(static_cast<uint32_t>(layers_.size()));
  for (const auto& layer : layers_) {
    w->PutU8(static_cast<uint8_t>(layer->kind()));
    if (layer->kind() == LayerKind::kLinear) {
      const auto* lin = static_cast<const LinearLayer*>(layer.get());
      WriteMatrix(lin->weights(), w);
      WriteMatrix(lin->bias(), w);
    }
  }
}

Status Mlp::LoadBinary(ByteReader* r) {
  uint32_t in = 0, out = 0, n_layers = 0;
  uint8_t act = 0;
  QCFE_RETURN_IF_ERROR(r->ReadU32(&in));
  QCFE_RETURN_IF_ERROR(r->ReadU32(&out));
  QCFE_RETURN_IF_ERROR(r->ReadU8(&act));
  QCFE_RETURN_IF_ERROR(r->ReadU32(&n_layers));
  if (in != in_dim_ || out != out_dim_ ||
      act != static_cast<uint8_t>(act_) || n_layers != layers_.size()) {
    return Status::FailedPrecondition(
        "mlp architecture mismatch: saved " + std::to_string(in) + "->" +
        std::to_string(out) + " (" + std::to_string(n_layers) +
        " layers), this network is " + std::to_string(in_dim_) + "->" +
        std::to_string(out_dim_) + " (" + std::to_string(layers_.size()) +
        " layers)");
  }
  for (size_t i = 0; i < layers_.size(); ++i) {
    uint8_t kind = 0;
    QCFE_RETURN_IF_ERROR(r->ReadU8(&kind));
    if (kind != static_cast<uint8_t>(layers_[i]->kind())) {
      return Status::FailedPrecondition(
          "mlp layer " + std::to_string(i) + " kind mismatch: saved kind " +
          std::to_string(kind) + ", this network has kind " +
          std::to_string(static_cast<int>(layers_[i]->kind())));
    }
    if (layers_[i]->kind() == LayerKind::kLinear) {
      auto* lin = static_cast<LinearLayer*>(layers_[i].get());
      QCFE_RETURN_IF_ERROR(
          ReadMatrixInto(r, &lin->weights())
              .WithContext("layer " + std::to_string(i) + " weights"));
      QCFE_RETURN_IF_ERROR(
          ReadMatrixInto(r, &lin->bias())
              .WithContext("layer " + std::to_string(i) + " bias"));
    }
  }
  return Status::OK();
}

std::unique_ptr<Layer> Mlp::CloneLayer(const Layer& layer) {
  Rng dummy(0);
  switch (layer.kind()) {
    case LayerKind::kLinear: {
      const auto& lin = static_cast<const LinearLayer&>(layer);
      auto nl =
          std::make_unique<LinearLayer>(lin.in_dim(), lin.out_dim(), &dummy);
      nl->weights() = lin.weights();
      nl->bias() = lin.bias();
      return nl;
    }
    case LayerKind::kRelu:
      return std::make_unique<ReluLayer>();
    case LayerKind::kSigmoid:
      return std::make_unique<SigmoidLayer>();
    case LayerKind::kTanh:
      return std::make_unique<TanhLayer>();
  }
  return std::make_unique<ReluLayer>();
}

std::unique_ptr<LinearLayer> Mlp::MakeZeroLinear(size_t in, size_t out) {
  Rng dummy(0);
  auto layer = std::make_unique<LinearLayer>(in, out, &dummy);
  layer->weights().Fill(0.0);
  layer->bias().Fill(0.0);
  return layer;
}

void Mlp::AppendLayer(std::unique_ptr<Layer> layer) {
  if (layer->kind() == LayerKind::kLinear) {
    const auto* lin = static_cast<const LinearLayer*>(layer.get());
    if (layers_.empty()) in_dim_ = lin->in_dim();
    out_dim_ = lin->out_dim();
  } else if (layers_.empty()) {
    in_dim_ = 0;
  }
  layers_.push_back(std::move(layer));
}

Mlp Mlp::Clone() const {
  Mlp copy;
  copy.in_dim_ = in_dim_;
  copy.out_dim_ = out_dim_;
  copy.act_ = act_;
  for (const auto& layer : layers_) {
    copy.layers_.push_back(CloneLayer(*layer));
  }
  return copy;
}

Status Mlp::ShrinkInputs(const std::vector<size_t>& kept_columns) {
  if (layers_.empty() || layers_[0]->kind() != LayerKind::kLinear) {
    return Status::FailedPrecondition("first layer is not linear");
  }
  auto* lin = static_cast<LinearLayer*>(layers_[0].get());
  for (size_t c : kept_columns) {
    if (c >= lin->in_dim()) return Status::OutOfRange("kept column out of range");
  }
  Rng dummy(0);
  auto shrunk = std::make_unique<LinearLayer>(kept_columns.size(),
                                              lin->out_dim(), &dummy);
  // Keep the trained rows of W for surviving inputs (W is in_dim x out_dim).
  for (size_t i = 0; i < kept_columns.size(); ++i) {
    for (size_t j = 0; j < lin->out_dim(); ++j) {
      shrunk->weights().At(i, j) = lin->weights().At(kept_columns[i], j);
    }
  }
  shrunk->bias() = lin->bias();
  layers_[0] = std::move(shrunk);
  in_dim_ = kept_columns.size();
  return Status::OK();
}

}  // namespace qcfe
