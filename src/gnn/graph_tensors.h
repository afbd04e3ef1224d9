// Precomputed message-passing views of a finalized IrGraph.
//
// Built once per graph and shared by all encoders: edge indices, edge
// indices augmented with self loops (GAT/GCN-style layers), symmetric GCN
// normalization coefficients, per-relation edge views (RGCN / GGNN / FiLM)
// and the degree scalers used by PNA. Every index is a SegmentIndex
// (tensor/segment_ops.h), so its partition for the parallel segment
// kernels is built here once and reused by every encoder layer, epoch and
// serving forward. Shared const state — safe to read from concurrent tapes.
#pragma once

#include <vector>

#include "graph/ir_graph.h"
#include "tensor/segment_ops.h"

namespace gnnhls {

struct GraphTensors {
  int num_nodes = 0;

  // plain directed edges (over num_nodes)
  SegmentIndex src, dst;

  // edges + one self loop per node (for attention/convolution layers that
  // need a node to see itself)
  SegmentIndex src_self, dst_self;

  // GCN symmetric normalization: coeff per plain edge, self-loop coeff per
  // node, using deg(v) = in_degree(v) + 1.
  std::vector<float> gcn_coeff;
  std::vector<float> gcn_self_coeff;

  // The edges of one relation (edge type x back-edge flag), in ascending
  // edge order: relations[r].src[i] is the source of the i-th such edge.
  struct Relation {
    SegmentIndex src, dst;
  };
  std::vector<Relation> relations;  // kNumEdgeRelations entries

  // PNA degree scaler: log(in_degree + 1) per node.
  std::vector<float> log_deg;

  // Batch segments. A GraphTensors may describe the disjoint union of
  // several member graphs (see gnn/graph_batch.h): graph_id maps every node
  // to its member graph and graph_avg_log_deg holds each member's PNA
  // average so batched degree scalers stay segment-correct. A single graph
  // is the 1-member special case (graph_id all zero), so every encoder runs
  // the same code path batched and unbatched.
  int num_graphs = 1;
  SegmentIndex graph_id;                   // per node, over num_graphs
  std::vector<float> graph_avg_log_deg;    // per member graph, size num_graphs

  /// Regroups src/dst into `relations` by a per-edge relation id in
  /// [0, kNumEdgeRelations).
  void group_relations(const std::vector<int>& edge_relation);

  static GraphTensors build(const IrGraph& graph);
};

}  // namespace gnnhls
