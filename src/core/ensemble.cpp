#include "core/ensemble.h"

namespace gnnhls {

QorEnsemble::QorEnsemble(Approach approach, ModelConfig model_cfg,
                         TrainConfig train_cfg, int members,
                         InfusedInference infused)
    : base_seed_(train_cfg.seed) {
  GNNHLS_CHECK(members >= 1, "QorEnsemble: needs at least one member");
  members_.reserve(static_cast<std::size_t>(members));
  for (int k = 0; k < members; ++k) {
    members_.push_back(std::make_unique<QorPredictor>(approach, model_cfg,
                                                      train_cfg, infused));
  }
}

FitReport QorEnsemble::fit(const std::vector<Sample>& samples,
                           const SplitIndices& split, Metric metric,
                           const FitOptions& opts) {
  FitReport first;
  for (std::size_t k = 0; k < members_.size(); ++k) {
    FitOptions member_opts = opts;
    // Member 0 keeps the base seed exactly (0 = "inherit TrainConfig::seed"
    // inside fit), so an ensemble of one reproduces the single model
    // bitwise; members k > 0 offset it — the only thing that differs.
    if (k > 0) {
      const std::uint64_t base = opts.seed != 0 ? opts.seed : base_seed_;
      member_opts.seed = base + static_cast<std::uint64_t>(k);
    }
    FitReport report = members_[k]->fit(samples, split, metric, member_opts);
    if (k == 0) first = std::move(report);
  }
  return first;
}

FitReport QorEnsemble::refit(const std::vector<Sample>& new_samples,
                             const FitOptions& opts) {
  FitReport first;
  for (std::size_t k = 0; k < members_.size(); ++k) {
    // opts.seed == 0 resumes each member's own (already offset) fit seed,
    // keeping the members decorrelated through every feedback round.
    FitReport report = members_[k]->refit(new_samples, opts);
    if (k == 0) first = std::move(report);
  }
  return first;
}

}  // namespace gnnhls
