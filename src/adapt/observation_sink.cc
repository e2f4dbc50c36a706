#include "adapt/observation_sink.h"

#include <algorithm>
#include <memory>
#include <utility>

#include "util/stats.h"

namespace qcfe {
namespace adapt {

namespace {

ObservationWindowConfig Normalize(const ObservationWindowConfig& config) {
  ObservationWindowConfig c = config;
  if (c.window_capacity == 0) c.window_capacity = 1;
  if (c.label_capacity == 0) c.label_capacity = 1;
  return c;
}

}  // namespace

ObservationSink::ObservationSink(const ObservationWindowConfig& config)
    : config_(Normalize(config)) {}

void ObservationSink::OnObservation(const PlanNode& plan, int env_id,
                                    double predicted_ms, double actual_ms) {
  if (!ValidObservation(predicted_ms, actual_ms)) {
    MutexLock lock(&mu_);
    ++dropped_;
    return;
  }
  const double q = QError(actual_ms, predicted_ms);
  // Materialize the training view of this observation before taking the
  // lock: a deep clone with every node latency rescaled so the subtree
  // targets sum to the *observed* time. Only the end-to-end latency is
  // observed, so the slowdown is attributed proportionally across nodes —
  // the cost models train on per-node subtree targets, and without the
  // rescale a retrain keeps fitting the fit-time world regardless of what
  // was measured. A plan with no recorded latency cannot be attributed and
  // is buffered as-is.
  std::unique_ptr<PlanNode> clone = plan.Clone();
  const double recorded_ms = SubtreeLatencyMs(plan);
  if (recorded_ms > 0.0 && actual_ms > 0.0) {
    const double scale = actual_ms / recorded_ms;
    clone->Visit([scale](PlanNode* node) { node->actual_ms *= scale; });
  }
  LabeledEntry entry{std::shared_ptr<const PlanNode>(std::move(clone)),
                     env_id, actual_ms};

  MutexLock lock(&mu_);
  EnvWindow& window = windows_[env_id];
  if (window.qerrors.size() < config_.window_capacity) {
    window.qerrors.push_back(q);
  } else {
    window.qerrors[window.next] = q;
  }
  window.next = (window.next + 1) % config_.window_capacity;
  ++window.total;

  if (labels_.size() < config_.label_capacity) {
    labels_.push_back(std::move(entry));
  } else {
    labels_[label_next_] = std::move(entry);
  }
  label_next_ = (label_next_ + 1) % config_.label_capacity;
  ++label_total_;
}

std::vector<double> ObservationSink::WindowQErrors(int env_id) const {
  MutexLock lock(&mu_);
  auto it = windows_.find(env_id);
  if (it == windows_.end()) return {};
  const EnvWindow& window = it->second;
  // Unroll the ring into arrival order: once the ring has wrapped, `next`
  // points at the oldest entry.
  std::vector<double> out;
  out.reserve(window.qerrors.size());
  const size_t n = window.qerrors.size();
  const size_t start = n < config_.window_capacity ? 0 : window.next;
  for (size_t i = 0; i < n; ++i) {
    out.push_back(window.qerrors[(start + i) % n]);
  }
  return out;
}

void ObservationSink::ClearWindows() {
  MutexLock lock(&mu_);
  for (auto& [env_id, window] : windows_) {
    window.qerrors.clear();
    window.next = 0;
  }
}

LabeledCorpus ObservationSink::LabeledSamples() const {
  MutexLock lock(&mu_);
  LabeledCorpus out;
  out.samples.reserve(labels_.size());
  out.owners.reserve(labels_.size());
  const size_t n = labels_.size();
  const size_t start = n < config_.label_capacity ? 0 : label_next_;
  for (size_t i = 0; i < n; ++i) {
    const LabeledEntry& entry = labels_[(start + i) % n];
    out.samples.push_back({entry.plan.get(), entry.env_id, entry.label_ms});
    out.owners.push_back(entry.plan);
  }
  return out;
}

uint64_t ObservationSink::TotalObservations() const {
  MutexLock lock(&mu_);
  return label_total_;
}

uint64_t ObservationSink::EnvObservations(int env_id) const {
  MutexLock lock(&mu_);
  auto it = windows_.find(env_id);
  return it == windows_.end() ? 0 : it->second.total;
}

uint64_t ObservationSink::DroppedObservations() const {
  MutexLock lock(&mu_);
  return dropped_;
}

std::vector<int> ObservationSink::EnvIds() const {
  MutexLock lock(&mu_);
  std::vector<int> ids;
  ids.reserve(windows_.size());
  for (const auto& [env_id, window] : windows_) ids.push_back(env_id);
  return ids;
}

}  // namespace adapt
}  // namespace qcfe
