// Adam optimizer (Kingma & Ba), the optimizer used by the paper (§5.1).
#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/matrix.h"
#include "tensor/matrix_kernels.h"

namespace gnnhls {

struct AdamConfig {
  float lr = 1e-3F;
  float beta1 = 0.9F;
  float beta2 = 0.999F;
  float eps = 1e-8F;
  float weight_decay = 0.0F;  // decoupled (AdamW-style)
  float grad_clip = 0.0F;     // 0 disables; otherwise global-norm clip
};

/// A resumable snapshot of the optimizer: first/second moments and the
/// bias-correction step counter. Exported/imported by warm-started refits
/// (train/fit_options.h) so continuing training reproduces the trajectory
/// an uninterrupted run would have taken — moments carry the gradient
/// history a fresh Adam would have to re-estimate.
struct AdamState {
  std::vector<Matrix> m;
  std::vector<Matrix> v;
  long t = 0;
};

class Adam {
 public:
  Adam(std::vector<Parameter*> params, AdamConfig config);
  explicit Adam(const Module& module, AdamConfig config = {})
      : Adam(module.parameters(), config) {}

  /// Applies one update from accumulated gradients, then zeroes them. The
  /// per-element update runs the variant selected_kernel_isa() picks.
  void step() { step_isa(selected_kernel_isa()); }
  /// step() with the update's variant pinned (`isa` must be available).
  /// Every variant writes the same bits.
  void step_isa(KernelIsa isa);

  /// Adds one gradient buffer (parameter-ordered, as filled by
  /// LeafGradRedirect) into the parameters' grad accumulators; empty
  /// entries are skipped: leaves without requires_grad, and parameters no
  /// gradient reached (an RGCN relation absent from the batch, say). The
  /// one reduction routine of data-parallel training: the trainer folds its
  /// per-batch buffers in a fixed order, so the summed gradient is
  /// bit-identical for any assignment of batches to threads.
  void accumulate(const std::vector<Matrix>& grads);

  void zero_grad();

  /// Copies out the current moments + step counter (see AdamState).
  AdamState export_state() const;

  /// Resumes from a snapshot taken by export_state() on an optimizer over
  /// the same parameter list. Shape-checked: a mismatched snapshot (different
  /// model architecture) is a caller bug, not a soft reset.
  void import_state(const AdamState& state);

  const AdamConfig& config() const { return config_; }
  void set_lr(float lr) { config_.lr = lr; }
  long step_count() const { return t_; }

 private:
  std::vector<Parameter*> params_;
  AdamConfig config_;
  std::vector<Matrix> m_;
  std::vector<Matrix> v_;
  long t_ = 0;
};

}  // namespace gnnhls
