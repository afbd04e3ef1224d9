// FitOptions / FitReport — the training entry-point contract of every fit
// loop in the library (QorPredictor, NodeTypePredictor, Trainer).
//
// FitOptions carries warm starts (continue from the current weights and
// Adam moments instead of re-initializing), per-call epoch budgets (a refit
// round is a handful of epochs, not a full training run), a seed override,
// and a validation policy (best-epoch selection is right for a from-scratch
// fit; a warm refit on feedback data usually wants the final weights,
// because the original validation split no longer represents the
// distribution being refit on). FitReport returns the full validation
// curve, the selected epoch, and how much work actually ran. The owner
// resolves the seed and fresh-vs-warm init; Trainer::fit runs the rest.
//
// Determinism: a fit's trajectory is a pure function of (model init or
// warm-start weights, data plan, TrainConfig, FitOptions) — nothing here
// depends on thread counts, so warm-started refits inherit the Trainer's
// bit-identity contract unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace gnnhls {

struct FitOptions {
  /// Continue from the model's current parameters and optimizer moments
  /// (both captured at the previously selected epoch) instead of a fresh
  /// seeded init. Ignored — with a fresh init — when the model has never
  /// been fitted.
  bool warm_start = false;

  /// Epoch budget for this call; < 0 keeps TrainConfig::epochs. Refit
  /// rounds typically run a small budget (see QorPredictor::refit_defaults).
  int epochs = -1;

  /// Seed override for this call; 0 keeps TrainConfig::seed. Drives model
  /// init (fresh fits), batch-membership shuffles and dropout streams —
  /// the knob deep ensembles vary between members.
  std::uint64_t seed = 0;

  /// What the fit keeps when the epoch budget is exhausted.
  enum class Validation {
    /// Restore the parameters (and optimizer moments) of the epoch with the
    /// best validation score — the paper's model-selection recipe.
    kBestEpoch,
    /// Keep the final epoch's parameters; validation is still evaluated and
    /// reported per epoch, but never drives a restore. The default for
    /// feedback refits, whose validation split is out-of-distribution.
    kFinalEpoch,
  };
  Validation validation = Validation::kBestEpoch;
};

struct FitReport {
  /// Best validation score seen (MAPE for regressors — lower is better;
  /// mean accuracy for classifiers — higher is better).
  double best_val = std::numeric_limits<double>::quiet_NaN();
  /// Epoch index of best_val (0-based); -1 when no epoch ran.
  int best_epoch = -1;
  /// Epochs actually executed (the FitOptions/TrainConfig budget).
  int epochs_run = 0;
  /// Optimizer steps taken over all epochs.
  long steps = 0;
  /// True when this call continued from previous weights + Adam moments.
  bool warm_started = false;
  /// Per-epoch validation trajectory, entry e = score after epoch e.
  std::vector<double> val_curve;
};

}  // namespace gnnhls
