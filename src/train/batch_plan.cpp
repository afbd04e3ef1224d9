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
  if (std::none_of(chunks.begin(), chunks.end(), is_union)) {
    return std::vector<BatchCorePtr>(chunks.size());
  }
  // Read features serially, on the calling thread: the plan's callbacks need
  // not be thread-safe (set_items reads labels the same way).
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

}  // namespace

void BatchPlan::set_items(const std::vector<Sample>& samples,
                          const std::vector<std::vector<int>>& chunks,
                          const std::vector<BatchCorePtr>& cores,
                          const FeatureFn& feature_of,
                          const LabelFn& label_of) {
  // Per-plan labels: built serially, on the calling thread.
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
                           Rng order_rng) {
  GNNHLS_CHECK(!train_idx.empty(), "BatchPlan: empty training set");
  BatchPlan plan(order_rng);
  plan.batch_size_ = batch_size;
  // Fix membership from one shuffle of the plan's own Rng stream.
  std::vector<int> order = train_idx;
  plan.order_rng_.shuffle(order);
  const std::vector<std::vector<int>> chunks =
      chunk_membership(order, batch_size);
  plan.set_items(samples, chunks,
                 assemble_cores(samples, chunks, feature_of), feature_of,
                 label_of);
  return plan;
}

BatchPlan BatchPlan::build_segments(const std::vector<Sample>& samples,
                                    std::vector<Segment>& segments,
                                    int batch_size,
                                    const FeatureFn& feature_of,
                                    const LabelFn& label_of, Rng rotation_rng) {
  GNNHLS_CHECK(!segments.empty(), "build_segments: no segments");
  BatchPlan plan(rotation_rng);
  plan.batch_size_ = batch_size;
  // Each segment's membership is the shuffle + chunking a plain build()
  // over (idx, order_seed) produces; only segments without cores yet pay
  // assembly, and they keep what they assembled.
  std::vector<std::vector<int>> all_chunks;
  std::vector<BatchCorePtr> all_cores;
  for (Segment& seg : segments) {
    GNNHLS_CHECK(!seg.idx.empty(), "build_segments: empty segment");
    std::vector<int> order = seg.idx;
    Rng seg_rng(seg.order_seed);
    seg_rng.shuffle(order);
    const std::vector<std::vector<int>> chunks =
        chunk_membership(order, batch_size);
    if (seg.cores.empty()) {
      seg.cores = assemble_cores(samples, chunks, feature_of);
    }
    // Carried cores must be this membership's: cores from another seed or
    // index set would silently train on the wrong unions.
    GNNHLS_CHECK_EQ(seg.cores.size(), chunks.size(),
                    "build_segments: segment core count");
    for (std::size_t b = 0; b < chunks.size(); ++b) {
      const BatchCorePtr& core = seg.cores[b];
      GNNHLS_CHECK(core == nullptr ? !is_union(chunks[b])
                                   : core->members == chunks[b],
                   "build_segments: segment cores do not match its batches");
    }
    all_chunks.insert(all_chunks.end(), chunks.begin(), chunks.end());
    all_cores.insert(all_cores.end(), seg.cores.begin(), seg.cores.end());
  }
  plan.set_items(samples, all_chunks, all_cores, feature_of, label_of);
  return plan;
}

std::vector<BatchCorePtr> BatchPlan::cores() const {
  std::vector<BatchCorePtr> cores;
  cores.reserve(items_.size());
  for (const Item& item : items_) cores.push_back(item.core_);
  return cores;
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
