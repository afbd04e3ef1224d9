// FitOptions / FitReport — the training entry-point contract of every fit
// loop in the library (QorPredictor, NodeTypePredictor, Trainer).
//
// The entry point decides how a call starts and what it keeps, and no
// option does: a fit starts from a fresh seeded init and keeps its best
// validation epoch; QorPredictor::refit resumes the kept weights and Adam
// moments and keeps its last epoch, because the original validation split
// no longer represents the feedback distribution being refit on. FitOptions
// carries only the per-call epoch budget (a refit round is a handful of
// epochs, not a full training run) and a seed override. FitReport returns
// the validation curve, the selected epoch, and how much work actually ran.
//
// Determinism: a fit's trajectory is a pure function of (model init or
// resumed weights and moments, data plan, TrainConfig, FitOptions) —
// nothing here depends on thread counts, so refits inherit the Trainer's
// bit-identity contract unchanged.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

namespace gnnhls {

struct FitOptions {
  /// Epoch budget for this call; < 0 keeps TrainConfig::epochs. Refit
  /// rounds typically run a small budget (see QorPredictor::refit_defaults).
  int epochs = -1;

  /// Seed override for this call; 0 keeps TrainConfig::seed. Drives model
  /// init (fits), batch-membership shuffles and dropout streams — the knob
  /// deep ensembles vary between members.
  std::uint64_t seed = 0;
};

struct FitReport {
  /// Best validation score seen (MAPE for regressors — lower is better;
  /// mean accuracy for classifiers — higher is better). NaN when the call
  /// ran no validation (a refit, or a fit without a validation split).
  double best_val = std::numeric_limits<double>::quiet_NaN();
  /// Epoch index of best_val (0-based); -1 when no epoch was validated.
  int best_epoch = -1;
  /// Epochs actually executed (the FitOptions/TrainConfig budget).
  int epochs_run = 0;
  /// Optimizer steps taken over all epochs.
  long steps = 0;
  /// Per-epoch validation trajectory, entry e = score after epoch e; empty
  /// when the call ran no validation.
  std::vector<double> val_curve;
};

}  // namespace gnnhls
