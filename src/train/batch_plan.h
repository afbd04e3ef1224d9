// Per-fit training data loader: a rotation of fixed mini-batches.
//
// A BatchPlan fixes batch *membership* once per fit (from one shuffle of the
// training indices, chunked to batch_size) and pre-builds every multi-graph
// batch's disjoint union with its stacked feature and label matrices;
// epochs then reshuffle only the *order* in which the fixed batches are
// visited. Randomized visit order preserves SGD's decorrelation benefit
// while amortizing assembly entirely.
//
// A one-graph batch is its member: its Item points straight at the
// sample's GraphTensors and its own feature matrix — no union, no copy.
// With batch_size 1 every batch is one graph, and because a shuffle's
// permutation depends only on the Rng draws, epoch e visits the samples in
// exactly the order e+1 in-place reshuffles of the training indices give:
// the order a sample-at-a-time loop would draw from the same Rng.
//
// Ownership: a multi-graph batch's expensive half — the GraphBatch union
// plus the stacked feature matrix — is a pure function of its membership
// and the feature variant. That immutable half lives in a BatchCore, held
// by the plan's Items, so a plain build() frees its cores with the plan.
// Segment::cores keeps them across plans (see build_segments): QorPredictor
// owns its refit segments, so each refit assembles only its new segment.
// There is no process-wide core cache. Evaluation builds no plan: it scores
// QorPredictor::predict_many chunks. Cores never point at sample storage
// (the one-graph pointers live on the per-plan Item). Labels stay per-plan
// (they encode the fitted metric).
#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "dataset/dataset.h"
#include "gnn/graph_batch.h"
#include "support/rng.h"
#include "tensor/matrix.h"

namespace gnnhls {

/// The immutable, shareable half of one multi-graph mini-batch: fixed
/// membership, the members' disjoint union, and their stacked input
/// features.
struct BatchCore {
  std::vector<int> members;  // sample indices, fixed for the fit
  GraphBatch batch;          // disjoint union of the members
  Matrix features;           // stacked per-node input features
};

using BatchCorePtr = std::shared_ptr<const BatchCore>;

/// No-op stand-in for the retired process-wide core cache: cores now belong
/// to their plan and to the QorPredictor that refits on them, so there is
/// nothing to clear. It stays only because perfbench/perfbench.cpp calls
/// BatchCoreCache::global().clear(); release it with the other
/// perfbench-pinned names (ROADMAP item 8).
class BatchCoreCache {
 public:
  static BatchCoreCache& global() {
    static BatchCoreCache stub;
    return stub;
  }
  void clear() {}
};

class BatchPlan {
 public:
  /// One mini-batch of the rotation. tensors()/features() are the graph
  /// view a forward runs on: the member sample's own tensors and feature
  /// matrix for a one-graph batch, the shared core's union and stacked
  /// features otherwise. Valid while the plan's samples live.
  class Item {
   public:
    Matrix labels;  // stacked labels ([k,1] targets / [n,3] bits)

    const std::vector<int>& members() const { return members_; }
    const GraphTensors& tensors() const { return *tensors_; }
    const Matrix& features() const { return *features_; }

   private:
    friend class BatchPlan;
    std::vector<int> members_;  // sample indices, fixed for the fit
    BatchCorePtr core_;         // null for a one-graph batch
    const GraphTensors* tensors_ = nullptr;
    const Matrix* features_ = nullptr;
  };

  /// Returns a stable reference to sample s's input features (typically
  /// Sample::features; the plan never copies them per epoch). Called on
  /// the building thread only, as is LabelFn.
  using FeatureFn = std::function<const Matrix&(const Sample&)>;
  /// Returns sample s's label rows: a [1,1] encoded regression target or a
  /// [num_nodes, k] node-label matrix.
  using LabelFn = std::function<Matrix(const Sample&)>;

  /// Builds the rotation over samples[train_idx] (batch_size >= 1).
  /// order_rng drives both the membership-fixing shuffle and the per-epoch
  /// reshuffles. Union assembly fans out on the global thread pool.
  static BatchPlan build(const std::vector<Sample>& samples,
                         const std::vector<int>& train_idx, int batch_size,
                         const FeatureFn& feature_of, const LabelFn& label_of,
                         Rng order_rng);

  /// One independently-shuffled slice of a segmented plan (see
  /// build_segments). A refit models its corpus as segments — [original
  /// training set, feedback round 1, feedback round 2, ...] — and keeps
  /// each segment's cores, so growing the corpus assembles only the new
  /// segment's unions.
  struct Segment {
    std::vector<int> idx;          // sample indices into `samples`
    std::uint64_t order_seed = 0;  // membership-shuffle seed (this segment)
    /// One entry per batch in build order, null for a one-graph batch;
    /// empty until assembled. Valid only for the (samples, idx, order_seed,
    /// batch_size, feature variant) it was built from.
    std::vector<BatchCorePtr> cores;
  };

  /// Builds a rotation whose batches are the concatenation of each segment's
  /// independently chunked membership: segment s's idx is shuffled with
  /// Rng(s.order_seed) and chunked to batch_size — the batches
  /// build(s.idx, Rng(s.order_seed)) gives — and a segment whose cores are
  /// still empty gets them assembled and stored, while a segment that
  /// carries cores reuses them. Epoch 0 visits the concatenated build
  /// order; later epochs reshuffle the visit order with rotation_rng
  /// (membership never changes). Labels are rebuilt per plan. Batch
  /// boundaries never span segments, so trailing partial batches per
  /// segment are kept as-is.
  static BatchPlan build_segments(const std::vector<Sample>& samples,
                                  std::vector<Segment>& segments,
                                  int batch_size, const FeatureFn& feature_of,
                                  const LabelFn& label_of, Rng rotation_rng);

  int batch_size() const { return batch_size_; }
  int num_batches() const { return static_cast<int>(items_.size()); }
  const Item& item(int b) const {
    return items_[static_cast<std::size_t>(b)];
  }

  /// The batches' cores in build order (null for a one-graph batch): a
  /// build() plan's cores as the Segment::cores of its (idx, order seed).
  std::vector<BatchCorePtr> cores() const;

  /// Advances to the next epoch and returns its batch visit order (a
  /// permutation of [0, num_batches)). The first call returns the build
  /// order; later calls reshuffle order only — membership never changes.
  const std::vector<int>& next_epoch_batch_order();

 private:
  explicit BatchPlan(Rng order_rng) : order_rng_(order_rng) {}

  /// Fills items_ (and the identity visit order) from fixed membership
  /// chunks and their cores (null for one-graph chunks).
  void set_items(const std::vector<Sample>& samples,
                 const std::vector<std::vector<int>>& chunks,
                 const std::vector<BatchCorePtr>& cores,
                 const FeatureFn& feature_of, const LabelFn& label_of);

  int batch_size_ = 1;
  Rng order_rng_;
  std::vector<Item> items_;
  std::vector<int> batch_order_;
  bool first_epoch_served_ = false;
};

}  // namespace gnnhls
