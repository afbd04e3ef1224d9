#include "gnn/graph_tensors.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace gnnhls {

GraphTensors GraphTensors::build(const IrGraph& graph) {
  GNNHLS_CHECK(graph.finalized(), "GraphTensors: graph not finalized");
  GraphTensors gt;
  const int n = graph.num_nodes();
  gt.num_nodes = n;
  gt.src = SegmentIndex(graph.edge_src(), n);
  gt.dst = SegmentIndex(graph.edge_dst(), n);

  std::vector<int> src_self = graph.edge_src();
  std::vector<int> dst_self = graph.edge_dst();
  src_self.reserve(src_self.size() + static_cast<std::size_t>(n));
  dst_self.reserve(dst_self.size() + static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    src_self.push_back(i);
    dst_self.push_back(i);
  }
  gt.src_self = SegmentIndex(std::move(src_self), n);
  gt.dst_self = SegmentIndex(std::move(dst_self), n);

  const auto& in_deg = graph.in_degree();
  gt.gcn_coeff.reserve(gt.src.ids().size());
  for (std::size_t e = 0; e < gt.src.ids().size(); ++e) {
    const float ds = std::sqrt(
        static_cast<float>(in_deg[static_cast<std::size_t>(gt.src[e])] + 1));
    const float dd = std::sqrt(
        static_cast<float>(in_deg[static_cast<std::size_t>(gt.dst[e])] + 1));
    gt.gcn_coeff.push_back(1.0F / (ds * dd));
  }
  gt.gcn_self_coeff.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) {
    gt.gcn_self_coeff.push_back(
        1.0F / static_cast<float>(in_deg[static_cast<std::size_t>(i)] + 1));
  }

  gt.group_relations(graph.edge_relation());

  gt.log_deg.reserve(static_cast<std::size_t>(n));
  float sum = 0.0F;
  for (int i = 0; i < n; ++i) {
    const float l = std::log1p(
        static_cast<float>(in_deg[static_cast<std::size_t>(i)]));
    gt.log_deg.push_back(l);
    sum += l;
  }
  gt.num_graphs = 1;
  gt.graph_id = SegmentIndex(std::vector<int>(static_cast<std::size_t>(n), 0),
                             1);
  gt.graph_avg_log_deg = {
      n > 0 ? std::max(sum / static_cast<float>(n), 0.1F) : 1.0F};
  return gt;
}

void GraphTensors::group_relations(const std::vector<int>& edge_relation) {
  GNNHLS_CHECK_EQ(static_cast<int>(edge_relation.size()), src.size(),
                  "group_relations: one relation id per edge required");
  std::vector<std::vector<int>> rel_src(kNumEdgeRelations);
  std::vector<std::vector<int>> rel_dst(kNumEdgeRelations);
  for (std::size_t e = 0; e < edge_relation.size(); ++e) {
    const int r = edge_relation[e];
    GNNHLS_CHECK(r >= 0 && r < kNumEdgeRelations,
                 "group_relations: bad relation id");
    rel_src[static_cast<std::size_t>(r)].push_back(src[e]);
    rel_dst[static_cast<std::size_t>(r)].push_back(dst[e]);
  }
  relations.clear();
  relations.reserve(kNumEdgeRelations);
  for (int r = 0; r < kNumEdgeRelations; ++r) {
    relations.push_back(
        {SegmentIndex(std::move(rel_src[static_cast<std::size_t>(r)]),
                      num_nodes),
         SegmentIndex(std::move(rel_dst[static_cast<std::size_t>(r)]),
                      num_nodes)});
  }
}

}  // namespace gnnhls
