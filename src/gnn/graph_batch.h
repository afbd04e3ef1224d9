// Mini-batching over graphs by disjoint union.
//
// A GraphBatch stitches N GraphTensors into one larger GraphTensors whose
// edge list is the concatenation of the members' edge lists with node
// indices offset into a shared row space, plus a per-node graph_id segment
// vector. Because no edge crosses member boundaries, every message-passing
// encoder runs unchanged on the merged view and produces, per member graph,
// the same embeddings it would produce on that graph alone; graph-level
// readout and virtual-node pooling use the graph_id segments (see the
// segment_* ops in tensor/autograd.h) instead of whole-matrix reductions.
//
// This is the same trick PyTorch Geometric's Batch/DataLoader uses, and is
// what lets one SGD step amortize tape construction and matmul launches
// over `batch_size` graphs.
//
// Determinism contract: the union is a pure function of the member list —
// member order in `parts` IS row/segment order in the merged view, and the
// segment ops reduce each member's contiguous rows in the same order as the
// solo forward, so per-member results of a batched forward are bit-identical
// to running that member alone (asserted for all 14 encoder kinds in
// batch_test and serve_test). Readout row g always belongs to parts[g] —
// the serving scheduler relies on this to scatter predictions back to the
// right caller.
//
// Threading: build()/stack_features() are safe to call concurrently from
// any number of threads (they only read their inputs; stack_features may
// fan copies out over the global ThreadPool, which is itself
// deterministic). A built GraphBatch is immutable-after-build shared data.
#pragma once

#include <vector>

#include "gnn/graph_tensors.h"
#include "tensor/matrix.h"

namespace gnnhls {

struct GraphBatch {
  /// The disjoint-union view: usable anywhere a GraphTensors is expected.
  GraphTensors merged;

  /// Row range of member g in the merged node space:
  /// [node_offset[g], node_offset[g+1]). Size num_graphs()+1.
  std::vector<int> node_offset;

  int num_graphs() const { return merged.num_graphs; }
  int num_nodes() const { return merged.num_nodes; }

  /// Builds the union. Member pointers must stay valid only for the call.
  static GraphBatch build(const std::vector<const GraphTensors*>& parts);

  /// Stacks per-member node-feature matrices [n_g, d] into [sum n_g, d]
  /// following the same member order as build(). Copies run on the global
  /// thread pool for large batches.
  static Matrix stack_features(const std::vector<const Matrix*>& parts);

  /// Extracts member g's rows from a merged [num_nodes, d] matrix
  /// (round-trip testing and per-graph result scatter).
  Matrix member_rows(const Matrix& merged_rows, int g) const;
};

}  // namespace gnnhls
