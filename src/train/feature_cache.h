// Process-wide memoization of deterministic per-sample training tensors.
//
// InputFeatureBuilder::build and node_type_labels are pure functions of
// (sample, approach) for the ground-truth feature variants, yet the fit
// loops, per-epoch validation MAPE and every bench table used to rebuild
// them from scratch — O(epochs * samples) redundant feature construction per
// fit and once more per evaluation call. The FeatureCache builds each tensor
// once and hands out stable references for the lifetime of the process.
//
// Identity is Sample::uid (minted per constructed sample, preserved by
// copies/moves), so a second bench run over a freshly generated dataset with
// the same origin strings can never alias a stale entry. The classifier-
// inferred feature variant of the knowledge-infused approach depends on
// model parameters and is deliberately NOT cacheable here — only its
// off-the-shelf base features are (see QorPredictor::predict_many).
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <unordered_map>

#include "dataset/dataset.h"
#include "gnn/feature_encoder.h"
#include "tensor/matrix.h"

namespace gnnhls {

class FeatureCache {
 public:
  /// Shared process-wide instance (thread-safe; run_parallel bench jobs and
  /// trainer shards hit it concurrently).
  static FeatureCache& global();

  /// Memoized InputFeatureBuilder::build(s.graph(), a) — the ground-truth
  /// variant only. The reference stays valid until clear() and is shared
  /// read-only data: training, evaluation and the serving scheduler's
  /// workers all read the same entry concurrently (entries are
  /// unique_ptr-backed, so references survive rehashes and concurrent
  /// inserts).
  const Matrix& features(const Sample& s, Approach a);

  /// Memoized InputFeatureBuilder::node_type_labels(s.graph()).
  const Matrix& node_type_labels(const Sample& s);

  /// Bulk prefetch: builds and caches features(s, a) for every sample, in
  /// input order (a deterministic fill order keeps hit/miss accounting
  /// reproducible). Lets a caller pay feature construction up front, off a
  /// timed path.
  void warm(const std::vector<Sample>& samples, Approach a);

  /// Drops every entry (tests; long-lived processes discarding a dataset).
  /// Invalidates every outstanding reference: must not race with fits,
  /// evaluations or a live ServingScheduler that could still read them.
  void clear();

  /// Drops every variant cached for one sample uid. Invalidates references
  /// to those entries only. Owners of short-lived uids call this: the TCP
  /// endpoint after a decoded request's response is written (each wire
  /// sample mints a fresh uid), and an Explorer's destructor for its
  /// candidates (lowered under fresh uids per Explorer). Without eviction a
  /// long-running process grows the cache per request or exploration.
  void evict(std::uint64_t uid);

  std::uint64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  std::uint64_t misses() const {
    return misses_.load(std::memory_order_relaxed);
  }
  std::size_t entries() const;

 private:
  struct Key {
    std::uint64_t uid = 0;
    // Approach as int; -1 = node-type labels. evict() erases exactly the
    // range [-1, Approach::kKnowledgeRich], the last Approach value.
    int variant = 0;
    bool operator==(const Key& o) const {
      return uid == o.uid && variant == o.variant;
    }
  };
  struct KeyHash {
    std::size_t operator()(const Key& k) const {
      return std::hash<std::uint64_t>{}(k.uid * 31U +
                                        static_cast<std::uint64_t>(
                                            k.variant + 1));
    }
  };

  template <typename BuildFn>
  const Matrix& lookup(const Key& key, BuildFn&& build);

  mutable std::mutex mu_;
  // unique_ptr values give returned references node stability across
  // rehashes and concurrent inserts.
  std::unordered_map<Key, std::unique_ptr<const Matrix>, KeyHash> entries_;
  std::atomic<std::uint64_t> hits_{0};
  std::atomic<std::uint64_t> misses_{0};
};

}  // namespace gnnhls
