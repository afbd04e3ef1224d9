#include "train/trainer.h"

#include <algorithm>

#include "obs/trace.h"
#include "support/parallel.h"

namespace gnnhls {

namespace {

/// splitmix64 finalizer: decorrelates the per-(epoch, batch) dropout seeds
/// derived from one base seed.
std::uint64_t mix_seed(std::uint64_t z) {
  z += 0x9E3779B97F4A7C15ULL;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

}  // namespace

float lr_at_epoch(float base_lr, int epoch, int total_epochs) {
  const double progress =
      static_cast<double>(epoch) / std::max(total_epochs, 1);
  if (progress < 0.6) return base_lr;
  if (progress < 0.85) return base_lr * 0.3F;
  return base_lr * 0.1F;
}

Trainer::Trainer(Module& model, TrainConfig cfg, Hooks hooks,
                 std::uint64_t dropout_seed)
    : model_(model),
      cfg_(cfg),
      hooks_(std::move(hooks)),
      dropout_seed_(dropout_seed),
      opt_(model, AdamConfig{.lr = cfg.lr,
                             .weight_decay = cfg.weight_decay,
                             .grad_clip = cfg.grad_clip}) {
  GNNHLS_CHECK(hooks_.forward && hooks_.loss, "Trainer: missing hooks");
  param_leaves_.reserve(model_.parameters().size());
  for (const Parameter* p : model_.parameters()) {
    param_leaves_.push_back(p->var());
  }
}

FitReport Trainer::fit(BatchPlan& plan, const FitOptions& opts,
                       std::optional<AdamState>* checkpoint) {
  FitReport report;
  if (checkpoint != nullptr && checkpoint->has_value()) {
    opt_.import_state(**checkpoint);
  }
  const int epochs = opts.epochs >= 0 ? opts.epochs : cfg_.epochs;
  // The selected epoch's weights and moments, kept together: a later
  // resume must start from the SELECTED model.
  std::vector<Matrix> best_params;
  AdamState best_opt;
  // A resume keeps the moments but restarts the lr schedule over THIS
  // call's budget: a refit is its own short anneal, not a continuation of
  // the original schedule (whose decay points were sized for the full
  // budget).
  const long steps_before = opt_.step_count();
  for (int epoch = 0; epoch < epochs; ++epoch) {
    const ObsSpan epoch_span(cfg_.obs.trace, "epoch", "train");
    opt_.set_lr(lr_at_epoch(cfg_.lr, epoch, epochs));
    run_epoch(plan, epoch);
    if (!hooks_.validate) continue;
    const double val = hooks_.validate();
    report.val_curve.push_back(val);
    const bool better = hooks_.higher_is_better ? val > report.best_val
                                                : val < report.best_val;
    if (report.best_epoch < 0 || better) {
      report.best_val = val;
      report.best_epoch = epoch;
      best_params = snapshot_parameters(model_);
      if (checkpoint != nullptr) best_opt = opt_.export_state();
    }
  }
  report.epochs_run = epochs;
  report.steps = opt_.step_count() - steps_before;
  const bool restore = !best_params.empty();
  if (restore) restore_parameters(model_, best_params);
  if (checkpoint != nullptr) {
    *checkpoint = restore ? std::move(best_opt) : opt_.export_state();
  }
  return report;
}

void Trainer::run_epoch(BatchPlan& plan, int epoch) {
  const std::vector<int>& order = plan.next_epoch_batch_order();
  const std::size_t span = static_cast<std::size_t>(
      std::max(cfg_.batch_size <= 1 ? cfg_.batch_graphs : cfg_.grad_accum, 1));
  for (std::size_t pos = 0; pos < order.size(); pos += span) {
    const int n = static_cast<int>(std::min(span, order.size() - pos));
    const int shards = std::clamp(cfg_.shards, 1, n);
    // Contiguous shard partition of the step's batches; shard 0 owns
    // [0, lead). Every batch gets an isolated gradient buffer and an rng
    // stream keyed by its *global* position, so the partition shape (and
    // thread scheduling) cannot leak into the numbers — only into the wall
    // clock. Grow-only: tail steps keep the parked pool at full size.
    const int lead = n / shards;
    if (parked_grads_.size() < static_cast<std::size_t>(n - lead)) {
      parked_grads_.resize(static_cast<std::size_t>(n - lead));
    }
    parallel_shards(shards, [&](int s) {
      const ObsSpan shard_span(cfg_.obs.trace, "shard", "train");
      const int lo = s * n / shards;
      const int hi = (s + 1) * n / shards;
      for (int b = lo; b < hi; ++b) {
        std::vector<Matrix>& grads =
            s == 0 ? lead_grads_
                   : parked_grads_[static_cast<std::size_t>(b - lead)];
        {
          const BatchPlan::Item& item =
              plan.item(order[pos + static_cast<std::size_t>(b)]);
          LeafGradRedirect redirect(param_leaves_, grads);
          const std::uint64_t global_batch =
              static_cast<std::uint64_t>(pos) + static_cast<std::uint64_t>(b);
          Rng drop(mix_seed(dropout_seed_ ^
                            ((static_cast<std::uint64_t>(epoch) + 1) << 32) ^
                            global_batch));
          Tape tape;
          const Var out =
              hooks_.forward(tape, item.tensors(), item.features(), drop);
          tape.backward(hooks_.loss(tape, out, item.labels));
        }
        // Only shard 0 touches the parameter grads before the barrier, and
        // its batches come first in visit order.
        if (s == 0) opt_.accumulate(grads);
      }
    });
    for (int b = lead; b < n; ++b) {
      opt_.accumulate(parked_grads_[static_cast<std::size_t>(b - lead)]);
    }
    opt_.step();
  }
}

std::vector<Matrix> snapshot_parameters(const Module& m) {
  std::vector<Matrix> snap;
  snap.reserve(m.parameters().size());
  for (const Parameter* p : m.parameters()) snap.push_back(p->value());
  return snap;
}

void restore_parameters(Module& m, const std::vector<Matrix>& snap) {
  GNNHLS_CHECK_EQ(snap.size(), m.parameters().size(),
                  "restore_parameters: snapshot / parameter count mismatch");
  for (std::size_t i = 0; i < snap.size(); ++i) {
    GNNHLS_CHECK(snap[i].same_shape(m.parameters()[i]->value()),
                 "restore_parameters: parameter shape mismatch");
  }
  for (std::size_t i = 0; i < snap.size(); ++i) {
    m.parameters()[i]->mutable_value() = snap[i];
  }
}

}  // namespace gnnhls
