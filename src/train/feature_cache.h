// Stateless stand-in for the retired process-wide feature cache.
//
// A sample holds its own input features and node-type labels
// (Sample::features, Sample::node_type_labels): built on first read,
// shared by copies, freed with the last copy. This facade only forwards
// reads to the sample; warm() reads every sample, clear() and evict() have
// nothing to drop, and hits() and misses() count nothing. It stays only
// because perfbench/perfbench.cpp calls it; release it with the other
// perfbench-pinned names (ROADMAP item 8).
#pragma once

#include <cstdint>
#include <vector>

#include "dataset/dataset.h"

namespace gnnhls {

class FeatureCache {
 public:
  static FeatureCache& global() {
    static FeatureCache facade;
    return facade;
  }

  const Matrix& features(const Sample& s, Approach a) const {
    return s.features(a);
  }
  const Matrix& node_type_labels(const Sample& s) const {
    return s.node_type_labels();
  }
  void warm(const std::vector<Sample>& samples, Approach a) const {
    for (const Sample& s : samples) s.features(a);
  }
  void clear() const {}
  void evict(std::uint64_t /*uid*/) const {}
  std::uint64_t hits() const { return 0; }
  std::uint64_t misses() const { return 0; }
};

}  // namespace gnnhls
