#include "train/feature_cache.h"

namespace gnnhls {

FeatureCache& FeatureCache::global() {
  static FeatureCache* cache = new FeatureCache();  // never destroyed
  return *cache;
}

template <typename BuildFn>
const Matrix& FeatureCache::lookup(const Key& key, BuildFn&& build) {
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = entries_.find(key);
    if (it != entries_.end()) {
      hits_.fetch_add(1, std::memory_order_relaxed);
      return *it->second;
    }
  }
  // Build outside the lock so concurrent misses on *different* samples never
  // serialize on feature construction. Two threads missing the same key both
  // build the (identical, deterministic) tensor and the first insert wins.
  auto built = std::make_unique<const Matrix>(build());
  std::lock_guard<std::mutex> lock(mu_);
  const auto [it, inserted] = entries_.emplace(key, std::move(built));
  if (inserted) misses_.fetch_add(1, std::memory_order_relaxed);
  return *it->second;
}

const Matrix& FeatureCache::features(const Sample& s, Approach a) {
  return lookup(Key{s.uid, static_cast<int>(a)}, [&] {
    return InputFeatureBuilder::build(s.graph(), a);
  });
}

const Matrix& FeatureCache::node_type_labels(const Sample& s) {
  return lookup(Key{s.uid, -1}, [&] {
    return InputFeatureBuilder::node_type_labels(s.graph());
  });
}

void FeatureCache::warm(const std::vector<Sample>& samples, Approach a) {
  for (const Sample& s : samples) features(s, a);
}

void FeatureCache::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  entries_.clear();
}

void FeatureCache::evict(std::uint64_t uid) {
  // Erase the uid's keys directly — node-type labels (-1) plus one per
  // Approach — rather than scanning the map: this runs under the same
  // mutex as every training shard's and scheduler worker's lookups.
  std::lock_guard<std::mutex> lock(mu_);
  for (int v = -1; v <= static_cast<int>(Approach::kKnowledgeRich); ++v) {
    entries_.erase(Key{uid, v});
  }
}

std::size_t FeatureCache::entries() const {
  std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

}  // namespace gnnhls
