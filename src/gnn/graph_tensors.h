// Precomputed message-passing views of a finalized IrGraph.
//
// Built once per graph and shared by all encoders: flat edge arrays, edge
// arrays augmented with self loops (GAT/GCN-style layers), symmetric GCN
// normalization coefficients, per-relation edge partitions (RGCN / GGNN /
// FiLM) and the degree scalers used by PNA.
#pragma once

#include <vector>

#include "graph/ir_graph.h"
#include "tensor/segment_ops.h"

namespace gnnhls {

struct GraphTensors {
  int num_nodes = 0;

  // plain directed edges
  std::vector<int> src, dst;

  // edges + one self loop per node (for attention/convolution layers that
  // need a node to see itself)
  std::vector<int> src_self, dst_self;

  // GCN symmetric normalization: coeff per plain edge, self-loop coeff per
  // node, using deg(v) = in_degree(v) + 1.
  std::vector<float> gcn_coeff;
  std::vector<float> gcn_self_coeff;

  // edge ids grouped by relation (edge type x back-edge flag)
  std::vector<std::vector<int>> relation_edges;

  // Per-relation endpoint views of relation_edges —
  // relation_src[r][i] == src[relation_edges[r][i]] — plus their cached
  // partitions (by src and by dst, over num_nodes). Built by
  // build_partitions() so the RGCN/GGNN/FiLM relation loops reuse one plan
  // per relation instead of rebuilding endpoint arrays and scatter plans
  // every layer of every forward. Empty relations get empty views and null
  // partitions.
  std::vector<std::vector<int>> relation_src, relation_dst;
  std::vector<SegmentPartitionPtr> relation_src_part, relation_dst_part;

  // PNA degree scalers: log(in_degree + 1) per node and its graph average.
  std::vector<float> log_deg;
  float avg_log_deg = 1.0F;

  // Batch segments. A GraphTensors may describe the disjoint union of
  // several member graphs (see gnn/graph_batch.h): graph_id maps every node
  // to its member graph and graph_avg_log_deg holds each member's PNA
  // average so batched degree scalers stay segment-correct. A single graph
  // is the 1-member special case (graph_id all zero), so every encoder runs
  // the same code path batched and unbatched.
  int num_graphs = 1;
  std::vector<int> graph_id;               // per node, size num_nodes
  std::vector<float> graph_avg_log_deg;    // per member graph, size num_graphs

  // Cached destination partitions for the parallel segment kernels
  // (tensor/segment_ops.h): stable groupings of the edge arrays by endpoint
  // and of nodes by member graph, built once per graph/batch and reused by
  // every encoder layer, epoch and serving forward. Shared const state —
  // safe to read from concurrent tapes. Null on hand-assembled tensors
  // (the autograd ops then fall back to build-on-demand; results are
  // bit-identical either way).
  SegmentPartitionPtr src_part;       // edges by src        (over num_nodes)
  SegmentPartitionPtr dst_part;       // edges by dst        (over num_nodes)
  SegmentPartitionPtr src_self_part;  // self-loop-augmented edges by src
  SegmentPartitionPtr dst_self_part;  // self-loop-augmented edges by dst
  SegmentPartitionPtr graph_part;     // nodes by graph_id   (over num_graphs)

  /// Fills the cached partitions from the current edge/graph_id arrays.
  /// Called by build() and GraphBatch::build(); call it yourself after
  /// assembling a GraphTensors by hand if you want the cached plans.
  void build_partitions();

  static GraphTensors build(const IrGraph& graph);
};

}  // namespace gnnhls
