#include "train/batch_plan.h"

#include <algorithm>
#include <numeric>
#include <utility>

#include "support/parallel.h"

namespace gnnhls {

namespace {

bool is_union(const std::vector<int>& chunk) { return chunk.size() > 1; }

/// Assembles one core sequence for the given membership chunks; one-graph
/// chunks get no core (their Item points at the member itself).
std::vector<BatchCorePtr> assemble_cores(
    const std::vector<Sample>& samples,
    const std::vector<std::vector<int>>& chunks,
    const BatchPlan::FeatureFn& feature_of) {
  // Prefetch features serially: feature_of typically fills the shared
  // FeatureCache, and a deterministic fill order keeps hit/miss accounting
  // reproducible for tests regardless of pool width.
  std::vector<const Matrix*> feats(samples.size(), nullptr);
  std::vector<std::shared_ptr<BatchCore>> cores(chunks.size());
  for (std::size_t b = 0; b < chunks.size(); ++b) {
    if (!is_union(chunks[b])) continue;
    for (int i : chunks[b]) {
      if (feats[static_cast<std::size_t>(i)] == nullptr) {
        feats[static_cast<std::size_t>(i)] =
            &feature_of(samples[static_cast<std::size_t>(i)]);
      }
    }
    cores[b] = std::make_shared<BatchCore>();
    cores[b]->members = chunks[b];
  }
  // The pure union/stack assembly fans out across batches; each shard fills
  // its own pre-built core, so the result is pool-width independent.
  parallel_shards(static_cast<int>(chunks.size()), [&](int b) {
    if (cores[static_cast<std::size_t>(b)] == nullptr) return;
    BatchCore& core = *cores[static_cast<std::size_t>(b)];
    std::vector<const GraphTensors*> parts;
    std::vector<const Matrix*> fparts;
    parts.reserve(core.members.size());
    fparts.reserve(core.members.size());
    for (int i : core.members) {
      parts.push_back(&samples[static_cast<std::size_t>(i)].tensors);
      fparts.push_back(feats[static_cast<std::size_t>(i)]);
    }
    core.batch = GraphBatch::build(parts);
    core.features = GraphBatch::stack_features(fparts);
  });
  return {cores.begin(), cores.end()};
}

/// Consecutive chunks of `order`, batch_size per chunk (last one shorter).
std::vector<std::vector<int>> chunk_membership(const std::vector<int>& order,
                                               int batch_size) {
  GNNHLS_CHECK(batch_size >= 1, "BatchPlan: batch_size must be >= 1");
  const std::size_t bs = static_cast<std::size_t>(batch_size);
  std::vector<std::vector<int>> chunks((order.size() + bs - 1) / bs);
  for (std::size_t pos = 0, b = 0; pos < order.size(); pos += bs, ++b) {
    const std::size_t end = std::min(pos + bs, order.size());
    chunks[b].assign(order.begin() + static_cast<long>(pos),
                     order.begin() + static_cast<long>(end));
  }
  return chunks;
}

std::vector<BatchCorePtr> cores_for(
    const std::vector<Sample>& samples,
    const std::vector<std::vector<int>>& chunks,
    const BatchPlan::FeatureFn& feature_of, const std::string& share_key) {
  // Nothing to assemble or share: a plan of one-graph batches makes no
  // cache entry.
  if (std::none_of(chunks.begin(), chunks.end(), is_union)) {
    return std::vector<BatchCorePtr>(chunks.size());
  }
  if (share_key.empty()) return assemble_cores(samples, chunks, feature_of);
  std::vector<BatchCorePtr> cores =
      BatchCoreCache::global().lookup(share_key, [&] {
        return assemble_cores(samples, chunks, feature_of);
      });
  GNNHLS_CHECK_EQ(cores.size(), chunks.size(), "BatchPlan: core count");
#ifndef NDEBUG
  // A stale share_key (wrong seed / uid set) would silently train on the
  // wrong unions; membership is cheap to verify.
  for (std::size_t b = 0; b < chunks.size(); ++b) {
    GNNHLS_CHECK(cores[b] == nullptr ? !is_union(chunks[b])
                                     : cores[b]->members == chunks[b],
                 "BatchPlan: cached core membership mismatch (bad share_key)");
  }
#endif
  return cores;
}

}  // namespace

// ----- BatchCoreCache -----

BatchCoreCache& BatchCoreCache::global() {
  static BatchCoreCache* cache = new BatchCoreCache();  // leaked on purpose
  return *cache;
}

std::vector<BatchCorePtr> BatchCoreCache::lookup(const std::string& key,
                                                 const BuildFn& build) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = map_.find(key);
  if (it != map_.end()) {
    ++hits_;
    return it->second;
  }
  ++misses_;
  std::vector<BatchCorePtr> cores = build();
  map_.emplace(key, cores);
  return cores;
}

std::uint64_t BatchCoreCache::hits() const {
  std::lock_guard<std::mutex> lock(mu_);
  return hits_;
}

std::uint64_t BatchCoreCache::misses() const {
  std::lock_guard<std::mutex> lock(mu_);
  return misses_;
}

void BatchCoreCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  map_.clear();
}

// ----- BatchPlan -----

std::string BatchPlan::share_key(const std::string& tag,
                                 std::uint64_t order_seed, int batch_size,
                                 const std::vector<Sample>& samples,
                                 const std::vector<int>& idx) {
  std::string key = tag;
  key += '|';
  key += std::to_string(order_seed);
  key += '|';
  key += std::to_string(batch_size);
  for (int i : idx) {
    key += '|';
    key += std::to_string(samples[static_cast<std::size_t>(i)].uid);
  }
  return key;
}

void BatchPlan::set_items(const std::vector<Sample>& samples,
                          const std::vector<std::vector<int>>& chunks,
                          const std::vector<BatchCorePtr>& cores,
                          const FeatureFn& feature_of,
                          const LabelFn& label_of) {
  // Per-plan labels: built serially (label_of may hit shared caches).
  std::vector<Matrix> labels(samples.size());
  items_.resize(chunks.size());
  for (std::size_t b = 0; b < chunks.size(); ++b) {
    Item& item = items_[b];
    item.members_ = chunks[b];
    if (cores[b] != nullptr) {
      item.core_ = cores[b];
      item.tensors_ = &cores[b]->batch.merged;
      item.features_ = &cores[b]->features;
    } else {
      const Sample& s = samples[static_cast<std::size_t>(chunks[b].front())];
      item.tensors_ = &s.tensors;
      item.features_ = &feature_of(s);
    }
    std::vector<const Matrix*> lparts;
    lparts.reserve(chunks[b].size());
    for (int i : chunks[b]) {
      Matrix& l = labels[static_cast<std::size_t>(i)];
      if (l.empty()) l = label_of(samples[static_cast<std::size_t>(i)]);
      lparts.push_back(&l);
    }
    item.labels = GraphBatch::stack_features(lparts);
  }
  batch_order_.resize(items_.size());
  std::iota(batch_order_.begin(), batch_order_.end(), 0);
}

BatchPlan BatchPlan::build(const std::vector<Sample>& samples,
                           const std::vector<int>& train_idx, int batch_size,
                           const FeatureFn& feature_of, const LabelFn& label_of,
                           Rng order_rng, const std::string& share_key) {
  GNNHLS_CHECK(!train_idx.empty(), "BatchPlan: empty training set");
  BatchPlan plan(order_rng);
  plan.batch_size_ = batch_size;
  // Fix membership from one shuffle. The shuffle always runs (also on a
  // core-cache hit) so the plan's Rng stream is independent of cache state.
  std::vector<int> order = train_idx;
  plan.order_rng_.shuffle(order);
  const std::vector<std::vector<int>> chunks =
      chunk_membership(order, batch_size);
  plan.set_items(samples, chunks,
                 cores_for(samples, chunks, feature_of, share_key), feature_of,
                 label_of);
  return plan;
}

BatchPlan BatchPlan::build_segments(const std::vector<Sample>& samples,
                                    const std::vector<Segment>& segments,
                                    int batch_size,
                                    const FeatureFn& feature_of,
                                    const LabelFn& label_of, Rng rotation_rng) {
  GNNHLS_CHECK(!segments.empty(), "build_segments: no segments");
  BatchPlan plan(rotation_rng);
  plan.batch_size_ = batch_size;
  // Resolve each segment's cores independently: same shuffle + chunking a
  // plain build() over (idx, order_seed) would produce, so a segment that
  // was previously fitted under the same share_key is a cache hit and only
  // genuinely new segments pay assembly.
  std::vector<std::vector<int>> all_chunks;
  std::vector<BatchCorePtr> all_cores;
  for (const Segment& seg : segments) {
    GNNHLS_CHECK(!seg.idx.empty(), "build_segments: empty segment");
    std::vector<int> order = seg.idx;
    Rng seg_rng(seg.order_seed);
    seg_rng.shuffle(order);
    const std::vector<std::vector<int>> chunks =
        chunk_membership(order, batch_size);
    const std::vector<BatchCorePtr> cores =
        cores_for(samples, chunks, feature_of, seg.share_key);
    all_chunks.insert(all_chunks.end(), chunks.begin(), chunks.end());
    all_cores.insert(all_cores.end(), cores.begin(), cores.end());
  }
  plan.set_items(samples, all_chunks, all_cores, feature_of, label_of);
  return plan;
}

const std::vector<int>& BatchPlan::next_epoch_batch_order() {
  if (!first_epoch_served_) {
    // Epoch 0 visits the build order: the membership shuffle's order.
    first_epoch_served_ = true;
    return batch_order_;
  }
  order_rng_.shuffle(batch_order_);
  return batch_order_;
}

}  // namespace gnnhls
