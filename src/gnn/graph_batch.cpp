#include "gnn/graph_batch.h"

#include <cstring>
#include <utility>

#include "support/parallel.h"

namespace gnnhls {

namespace {

/// Appends src with every element shifted by offset.
void append_offset(std::vector<int>& out, const std::vector<int>& src,
                   int offset) {
  out.reserve(out.size() + src.size());
  for (int v : src) out.push_back(v + offset);
}

}  // namespace

GraphBatch GraphBatch::build(const std::vector<const GraphTensors*>& parts) {
  GNNHLS_CHECK(!parts.empty(), "GraphBatch: empty batch");
  GraphBatch batch;
  GraphTensors& m = batch.merged;
  m.num_graphs = static_cast<int>(parts.size());

  std::size_t total_nodes = 0, total_edges = 0;
  for (const GraphTensors* p : parts) {
    GNNHLS_CHECK(p != nullptr, "GraphBatch: null member");
    GNNHLS_CHECK_EQ(p->num_graphs, 1,
                    "GraphBatch: members must be single graphs");
    total_nodes += static_cast<std::size_t>(p->num_nodes);
    total_edges += static_cast<std::size_t>(p->src.size());
  }
  // The union's index arrays: plain edges, then (for the self-loop-augmented
  // views) one self loop per node, following the single-graph convention.
  std::vector<int> src, dst, graph_id;
  src.reserve(total_edges + total_nodes);
  dst.reserve(total_edges + total_nodes);
  graph_id.reserve(total_nodes);
  std::vector<std::vector<int>> rel_src(kNumEdgeRelations);
  std::vector<std::vector<int>> rel_dst(kNumEdgeRelations);
  m.gcn_coeff.reserve(total_edges);
  m.gcn_self_coeff.reserve(total_nodes);
  m.log_deg.reserve(total_nodes);
  m.graph_avg_log_deg.reserve(parts.size());
  batch.node_offset.reserve(parts.size() + 1);
  batch.node_offset.push_back(0);

  int node_offset = 0;
  for (std::size_t g = 0; g < parts.size(); ++g) {
    const GraphTensors& p = *parts[g];
    append_offset(src, p.src.ids(), node_offset);
    append_offset(dst, p.dst.ids(), node_offset);
    m.gcn_coeff.insert(m.gcn_coeff.end(), p.gcn_coeff.begin(),
                       p.gcn_coeff.end());
    m.gcn_self_coeff.insert(m.gcn_self_coeff.end(), p.gcn_self_coeff.begin(),
                            p.gcn_self_coeff.end());
    m.log_deg.insert(m.log_deg.end(), p.log_deg.begin(), p.log_deg.end());
    m.graph_avg_log_deg.push_back(p.graph_avg_log_deg[0]);
    graph_id.insert(graph_id.end(), static_cast<std::size_t>(p.num_nodes),
                    static_cast<int>(g));
    // Concatenating the members' relation views in member order gives each
    // relation's edges in ascending union edge order.
    for (std::size_t r = 0; r < rel_src.size(); ++r) {
      append_offset(rel_src[r], p.relations[r].src.ids(), node_offset);
      append_offset(rel_dst[r], p.relations[r].dst.ids(), node_offset);
    }
    node_offset += p.num_nodes;
    batch.node_offset.push_back(node_offset);
  }
  const int n = node_offset;
  m.num_nodes = n;

  // Union-wide partitions (members' partitions index member-local rows, so
  // they cannot be spliced — the merged indices get their own plans,
  // amortized across every layer/epoch that reuses this batch).
  m.src = SegmentIndex({src.begin(), src.end()}, n);
  m.dst = SegmentIndex({dst.begin(), dst.end()}, n);
  for (int i = 0; i < n; ++i) {
    src.push_back(i);
    dst.push_back(i);
  }
  m.src_self = SegmentIndex(std::move(src), n);
  m.dst_self = SegmentIndex(std::move(dst), n);
  m.graph_id = SegmentIndex(std::move(graph_id), m.num_graphs);
  m.relations.reserve(rel_src.size());
  for (std::size_t r = 0; r < rel_src.size(); ++r) {
    m.relations.push_back({SegmentIndex(std::move(rel_src[r]), n),
                           SegmentIndex(std::move(rel_dst[r]), n)});
  }
  return batch;
}

Matrix GraphBatch::stack_features(const std::vector<const Matrix*>& parts) {
  GNNHLS_CHECK(!parts.empty(), "stack_features: empty batch");
  const int cols = parts.front()->cols();
  std::vector<int> offsets;
  offsets.reserve(parts.size() + 1);
  offsets.push_back(0);
  for (const Matrix* p : parts) {
    GNNHLS_CHECK(p != nullptr, "stack_features: null member");
    GNNHLS_CHECK_EQ(p->cols(), cols, "stack_features: column mismatch");
    offsets.push_back(offsets.back() + p->rows());
  }
  Matrix out(offsets.back(), cols);
  parallel_for(0, static_cast<int>(parts.size()), 1, [&](int lo, int hi) {
    for (int g = lo; g < hi; ++g) {
      const Matrix& p = *parts[static_cast<std::size_t>(g)];
      if (p.rows() == 0) continue;
      std::memcpy(out.row_ptr(offsets[static_cast<std::size_t>(g)]),
                  p.data(),
                  p.size() * sizeof(float));
    }
  });
  return out;
}

Matrix GraphBatch::member_rows(const Matrix& merged_rows, int g) const {
  GNNHLS_CHECK(g >= 0 && g < num_graphs(), "member_rows: bad graph index");
  GNNHLS_CHECK_EQ(merged_rows.rows(), num_nodes(),
                  "member_rows: row count does not match batch");
  const int lo = node_offset[static_cast<std::size_t>(g)];
  const int hi = node_offset[static_cast<std::size_t>(g) + 1];
  Matrix out(hi - lo, merged_rows.cols());
  if (out.rows() > 0) {
    std::memcpy(out.data(), merged_rows.row_ptr(lo),
                out.size() * sizeof(float));
  }
  return out;
}

}  // namespace gnnhls
