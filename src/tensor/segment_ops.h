// Deterministic parallel segment kernels: the gather/scatter primitives
// behind every message-passing op (autograd.h structure ops).
//
// Parallelization rule — the "fixed-order partition reduction" contract
// (see ARCHITECTURE.md): work is partitioned by *destination* row, every
// destination row is owned by exactly one task, and each task accumulates
// its rows' contributions in ascending source-index order — the same order
// the serial loop uses. Floating-point sums therefore associate identically
// at any thread-pool width, making the parallel kernels bit-identical to
// the serial path (and to each other across thread counts).
//
// A SegmentPartition is the reusable half of that plan: a stable CSR
// grouping of source rows by destination segment. Building one costs
// O(rows + segments) — negligible next to the O(rows * cols) accumulation
// it organizes. A SegmentIndex pairs an id array with its partition, so
// every gather/scatter carries its plan: graph containers (GraphTensors)
// build theirs once and training reuses them across layers and epochs.
#pragma once

#include <memory>
#include <vector>

#include "tensor/matrix.h"

namespace gnnhls {

struct SegmentPartition {
  int segments = 0;
  /// Source-row ids grouped by destination segment, ascending within each
  /// segment (stable counting sort), concatenated.
  std::vector<int> order;
  /// offsets[s]..offsets[s+1] delimits segment s's slice of `order`; also
  /// the cumulative edge-count profile balanced_boundaries chunks by.
  std::vector<int> offsets;

  int count(int s) const {
    return offsets[static_cast<std::size_t>(s) + 1] -
           offsets[static_cast<std::size_t>(s)];
  }

  /// Groups row ids [0, seg.size()) by their segment id. Every seg[i] must
  /// lie in [0, segments).
  static SegmentPartition build(const std::vector<int>& seg, int segments);
};

/// An immutable id array over [0, segments) paired with its partition —
/// the one index type of the structure ops (autograd.h). The constructor
/// validates every id and builds the partition once; copies share storage,
/// so a copy costs one reference-count bump and the ids and the partition
/// can never disagree. Safe to read from concurrent tapes.
class SegmentIndex {
 public:
  /// No ids over no segments.
  SegmentIndex() : SegmentIndex({}, 0) {}
  /// Throws std::invalid_argument unless every id lies in [0, segments).
  SegmentIndex(std::vector<int> ids, int segments);

  const std::vector<int>& ids() const { return data_->ids; }
  int size() const { return static_cast<int>(data_->ids.size()); }
  bool empty() const { return data_->ids.empty(); }
  int segments() const { return data_->part.segments; }
  /// The ids grouped by segment (SegmentPartition::build of ids()).
  const SegmentPartition& partition() const { return data_->part; }
  int operator[](std::size_t i) const { return data_->ids[i]; }

 private:
  struct Data {
    std::vector<int> ids;
    SegmentPartition part;
  };
  std::shared_ptr<const Data> data_;
};

// ----- kernels -----
// All kernels run on the global thread pool and honor the fixed-order
// partition reduction rule; each falls back to the serial loop inline when
// the matrix is too small to amortize a worker wakeup. `out` must be
// pre-shaped by the caller; the *_add_* kernels add into it.

/// out[i, :] = src[idx[i], :] (overwrite). Row-parallel: each output row is
/// written by exactly one task.
void gather_rows_into(const Matrix& src, const std::vector<int>& idx,
                      Matrix& out);

/// out[s, :] += sum_{i : seg[i] == s} src[i, :], accumulated in ascending i
/// per segment (the backward of gather_rows_into). Destination-partitioned
/// over `part` with edge-count-balanced ranges, so power-law in-degree
/// distributions do not serialize on one task. Bit-identical to the
/// ascending-i serial loop.
void scatter_add_rows_into(const Matrix& src, const SegmentPartition& part,
                           Matrix& out);

/// One input of segment_reduce_into: the rows of `src`, grouped by
/// destination segment by `part`.
struct SegmentSource {
  const Matrix* src;
  const SegmentPartition* part;
};

/// out[s, :] = sum over parts k, in part order, of part k's reduction at s:
/// its rows of segment s summed from +0 in ascending source order, times
/// 1/count when `mean` is set (overwrite). The first part is assigned and
/// every later one added, an empty segment's +0 included, so each row
/// equals a chain of one scatter_add_rows_into into zeros (and, for a mean,
/// one row scale) per part joined by elementwise adds, bit for bit. Every
/// part must cover out.rows() segments. Destination-partitioned with ranges
/// balanced over the parts' summed edge counts.
void segment_reduce_into(const std::vector<SegmentSource>& parts, bool mean,
                         Matrix& out);

/// out[i, :] += src[idx[i], :] * w, with w = 1/count(idx[i]) when `mean` is
/// set and 1 otherwise: a rounded product, then a rounded add (the backward
/// of one segment_reduce_into part). Row-parallel: each output row reads
/// one source row.
void gather_add_rows_into(const Matrix& src, const SegmentIndex& idx,
                          bool mean, Matrix& out);

/// Reference serial scatter-add (the historical loop: ascending i,
/// out[seg[i]] += src[i]). Exists so tests and benches can hard-assert the
/// partitioned kernel's bit-identity against it.
void scatter_add_rows_serial(const Matrix& src, const std::vector<int>& seg,
                             Matrix& out);

}  // namespace gnnhls
