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
// sample's GraphTensors and its FeatureCache matrix — no union, no copy.
// With batch_size 1 every batch is one graph, and because a shuffle's
// permutation depends only on the Rng draws, epoch e visits the samples in
// exactly the order e+1 in-place reshuffles of the training indices give:
// the order a sample-at-a-time loop would draw from the same Rng.
//
// Cross-fit sharing: membership is a pure function of (ordered sample uids,
// batch_size, order seed), and a multi-graph batch's expensive half — the
// GraphBatch union plus the stacked feature matrix — is additionally a pure
// function of the feature variant. That immutable half lives in a
// BatchCore; plans built with a non-empty share_key route their cores
// through the process-wide BatchCoreCache, so fits over the same split (the
// same corpus fitted per metric, a refit's prior segments, or the -I
// hierarchy's classifier fit and a standalone one) reuse one assembly
// instead of rebuilding identical unions. Evaluation builds no plan: it
// scores QorPredictor::predict_many chunks. Cores never point at sample
// storage (the one-graph pointers live on the per-plan Item), and a plan
// made only of one-graph batches makes no cache entry. Labels stay per-plan
// (they encode the fitted metric). Cache hits change nothing numerically:
// the membership shuffle still runs (same Rng draw stream), only the
// assembly is skipped.
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
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

/// Process-wide cache of BatchCore sequences keyed by BatchPlan::share_key
/// strings. Thread-safe; the builder runs under the cache lock, so
/// concurrent lookups of the same key build once.
class BatchCoreCache {
 public:
  static BatchCoreCache& global();

  using BuildFn = std::function<std::vector<BatchCorePtr>()>;
  /// Returns the core sequence for `key`, invoking `build` on first use.
  std::vector<BatchCorePtr> lookup(const std::string& key,
                                   const BuildFn& build);

  std::uint64_t hits() const;
  std::uint64_t misses() const;
  void clear();

 private:
  mutable std::mutex mu_;
  std::unordered_map<std::string, std::vector<BatchCorePtr>> map_;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

class BatchPlan {
 public:
  /// One mini-batch of the rotation. tensors()/features() are the graph
  /// view a forward runs on: the member sample's own tensors and
  /// FeatureCache matrix for a one-graph batch, the shared core's union and
  /// stacked features otherwise. Valid while the plan's samples and the
  /// FeatureCache entries live.
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

  /// Returns a stable reference to sample s's input features (the
  /// FeatureCache hands these out; the plan never copies them per epoch).
  using FeatureFn = std::function<const Matrix&(const Sample&)>;
  /// Returns sample s's label rows: a [1,1] encoded regression target or a
  /// [num_nodes, k] node-label matrix.
  using LabelFn = std::function<Matrix(const Sample&)>;

  /// Builds the rotation over samples[train_idx] (batch_size >= 1).
  /// order_rng drives both the membership-fixing shuffle and the per-epoch
  /// reshuffles. Union assembly fans out on the global thread pool.
  /// A non-empty share_key (see the share_key helper) routes the cores
  /// through the BatchCoreCache: the key must pin every input the cores
  /// depend on — uid sequence, batch size, order seed, feature variant.
  static BatchPlan build(const std::vector<Sample>& samples,
                         const std::vector<int>& train_idx, int batch_size,
                         const FeatureFn& feature_of, const LabelFn& label_of,
                         Rng order_rng, const std::string& share_key = {});

  /// One independently-shuffled, independently-cached slice of a segmented
  /// plan (see build_segments). A refit models its corpus as segments —
  /// [original training set, feedback round 1, feedback round 2, ...] —
  /// where every previously-fitted segment keys the exact cores its own fit
  /// built, so growing the corpus re-assembles only the new segment's
  /// unions.
  struct Segment {
    std::vector<int> idx;            // sample indices into `samples`
    std::uint64_t order_seed = 0;    // membership-shuffle seed (this segment)
    std::string share_key;           // BatchCoreCache key; "" = don't share
  };

  /// Builds a rotation whose batches are the concatenation of each segment's
  /// independently chunked membership: segment s's idx is shuffled with
  /// Rng(s.order_seed), chunked to batch_size, and its cores resolved
  /// through s.share_key — a segment whose (idx, order_seed, batch_size,
  /// feature variant) match a prior build()/build_segments() call is a pure
  /// cache hit, which is what makes refit deltas cheap. Epoch 0 visits the
  /// concatenated build order; later epochs reshuffle the visit order with
  /// rotation_rng (membership never changes). Labels are rebuilt per plan.
  /// Batch boundaries never span segments, so trailing partial batches per
  /// segment are kept as-is.
  static BatchPlan build_segments(const std::vector<Sample>& samples,
                                  const std::vector<Segment>& segments,
                                  int batch_size, const FeatureFn& feature_of,
                                  const LabelFn& label_of, Rng rotation_rng);

  /// Composes a BatchCoreCache key. `tag` must encode the feature variant
  /// (and the model the plan trains), order_seed the membership shuffle
  /// seed, and idx the sample subset; the samples' uids pin corpus
  /// identity.
  static std::string share_key(const std::string& tag,
                               std::uint64_t order_seed, int batch_size,
                               const std::vector<Sample>& samples,
                               const std::vector<int>& idx);

  int batch_size() const { return batch_size_; }
  int num_batches() const { return static_cast<int>(items_.size()); }
  const Item& item(int b) const {
    return items_[static_cast<std::size_t>(b)];
  }

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
