// The training-loop engine implementing the paper's recipe (§5.1): Adam, a
// fixed epoch budget, minibatch gradient accumulation, step learning-rate
// decay, per-epoch validation and best-validation-epoch selection.
//
// One Trainer serves every fit loop in the library (QoR regressor, the
// hierarchical approach's node classifier, the standalone NodeTypePredictor)
// through its hooks: forward (model tape construction over a graph view),
// loss, and an optional validation score. It runs the epoch budget,
// resumes Adam from an optimizer checkpoint when handed one, keeps the best
// validation epoch when a validation hook is set (the last epoch when not),
// and fills the whole FitReport. Data comes from a
// BatchPlan, whose batches hold batch_size graphs (a one-graph batch is the
// sample itself). There is one epoch loop, and it is *sharded*:
//
//   * each optimizer step spans batch_graphs (at batch_size 1) or
//     grad_accum (above) consecutive batches of the epoch's visit order;
//   * the step's batches are partitioned contiguously across `shards`
//     workers on the global ThreadPool; every batch runs its own tape with
//     gradients accumulated into a batch-local buffer (LeafGradRedirect), so
//     concurrent tapes never touch the shared parameter grads;
//   * batch gradients are summed into the parameter grads in visit order
//     (Adam::accumulate) as soon as that order allows: shard 0 owns the
//     step's first batches, so it folds each one the moment its backward
//     finishes and keeps one buffer live; the other shards park one
//     buffer per batch until the step barrier, where they are folded in
//     order before one Adam step.
//
// Because the summation order, the batch membership/visit order, and every
// per-batch dropout stream are functions of (config, epoch, batch index)
// only — never of thread scheduling — training with shards=N is
// bit-identical to shards=1. `shards` is purely an execution-width knob.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <vector>

#include "nn/adam.h"
#include "obs/obs_config.h"
#include "train/batch_plan.h"
#include "train/fit_options.h"

namespace gnnhls {

struct TrainConfig {
  int epochs = 30;
  float lr = 3e-3F;
  float weight_decay = 1e-5F;
  float grad_clip = 5.0F;
  /// Graphs per forward/backward pass: each mini-batch disjoint-unions
  /// this many graphs into one tape (segment readout, one loss over the
  /// batch). 1 runs every graph on its own tape, straight from the sample's
  /// tensors. The regressor loss is the per-batch mean MSE; the classifier
  /// BCE averages over all *nodes* in the batch (standard node-level
  /// batching), so larger graphs carry proportionally more gradient weight.
  int batch_size = 1;
  /// Mini-batches per optimizer step when batch_size == 1 (the paper's
  /// minibatch gradient accumulation over single-graph tapes).
  int batch_graphs = 8;
  /// Mini-batches per optimizer step when batch_size > 1. In both cases
  /// the step's batch gradients are summed in visit order before one Adam
  /// update, so a window > 1 enlarges the effective batch — and is what
  /// gives `shards` parallel work between optimizer barriers.
  /// Semantics-affecting, unlike `shards`.
  int grad_accum = 1;
  /// Data-parallel worker shards computing a step's batch gradients
  /// concurrently on the global ThreadPool. Execution-only: any value
  /// reproduces shards=1 bit-for-bit (see the file comment); values are
  /// clamped to the step's batch count.
  int shards = 1;
  std::uint64_t seed = 1;
  /// Observability knobs (obs/obs_config.h): obs.trace emits epoch/shard
  /// spans into the process-wide TraceCollector when it is active.
  /// Execution-only — the training trajectory is bit-identical either way.
  ObsConfig obs;
};

/// Step learning-rate decay: full rate for the first 60% of epochs, then
/// 0.3x, then 0.1x for the last 15% (stabilizes the best-epoch selection).
float lr_at_epoch(float base_lr, int epoch, int total_epochs);

/// Runs the fixed-epoch training loop for one model over one BatchPlan.
/// One Trainer per fit: construct, call fit() once, discard. fit() is not
/// reentrant and must not run concurrently with anything that reads the
/// model's parameters (the serving path takes the predictor AFTER fit has
/// returned — see serve/scheduler.h). Epoch work may fan out over the
/// global ThreadPool, but the determinism contract above makes the result
/// independent of that pool's width.
class Trainer {
 public:
  /// Model-specific callbacks. forward and loss may be invoked concurrently
  /// from shard workers (one tape per batch), so they must be pure with
  /// respect to shared state: read the model, build onto the passed tape,
  /// touch nothing else. Each invocation's rng is an independent per-(epoch,
  /// batch) stream owned by the caller of the hook.
  struct Hooks {
    /// Builds the model's tape output over a batch's graph view (a single
    /// sample's tensors or a GraphBatch::merged union) with training-mode
    /// regularization driven by rng.
    std::function<Var(Tape&, const GraphTensors&, const Matrix& features,
                      Rng& rng)>
        forward;
    /// Builds the scalar loss for the view's stacked labels.
    std::function<Var(Tape&, const Var& out, const Matrix& labels)> loss;
    /// Optional validation score of the model's current weights, called on
    /// the fit() thread after each epoch's last optimizer step; fit() keeps
    /// the best-scoring epoch. Unset: no validation, FitReport's validation
    /// fields stay empty, and fit() keeps the final epoch.
    std::function<double()> validate;
    /// Direction of validate's score: false for lower-is-better (MAPE),
    /// true for higher-is-better (accuracy).
    bool higher_is_better = false;
  };

  /// dropout_seed derives the independent per-(epoch, batch) dropout
  /// streams.
  Trainer(Module& model, TrainConfig cfg, Hooks hooks,
          std::uint64_t dropout_seed);

  /// Runs the epoch budget (opts.epochs when >= 0, else TrainConfig::epochs)
  /// over the plan. With hooks.validate set, every epoch is scored and the
  /// parameters and Adam moments of the best-scoring epoch are restored at
  /// the end; without it the last epoch's are kept. `checkpoint` carries
  /// the optimizer moments in and out: when it holds a state on entry, Adam
  /// resumes from it (the model must already hold the weights that state
  /// was taken with); on return it holds the moments of the epoch fit()
  /// kept. nullptr starts Adam fresh and hands nothing back. Model init,
  /// plan construction and dropout_seed were resolved by the owner from
  /// opts.seed before this call.
  FitReport fit(BatchPlan& plan, const FitOptions& opts,
                std::optional<AdamState>* checkpoint = nullptr);

 private:
  void run_epoch(BatchPlan& plan, int epoch);

  Module& model_;
  TrainConfig cfg_;
  Hooks hooks_;
  std::uint64_t dropout_seed_;
  std::vector<Var> param_leaves_;
  Adam opt_;
  /// Gradient buffers, one sink per parameter: shard 0's single
  /// fold-as-you-go buffer, and one parked buffer per batch of the later
  /// shards. Each LeafGradRedirect scope empties its buffer's sinks and
  /// the backward moves each parameter's first contribution in, so a
  /// parameter the batch never reaches keeps an empty sink, which
  /// Adam::accumulate skips.
  std::vector<Matrix> lead_grads_;
  std::vector<std::vector<Matrix>> parked_grads_;
};

/// Copies out a model's parameter values (the best-epoch snapshot; tests and
/// benches use it to compare or reset weights).
std::vector<Matrix> snapshot_parameters(const Module& m);
/// Writes a snapshot_parameters() result back into the same model. Checks
/// the count and every shape before writing anything: a snapshot of another
/// architecture throws and leaves the model as it was.
void restore_parameters(Module& m, const std::vector<Matrix>& snap);

}  // namespace gnnhls
