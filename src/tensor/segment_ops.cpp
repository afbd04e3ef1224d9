#include "tensor/segment_ops.h"

#include <algorithm>
#include <utility>

#include "support/check.h"
#include "support/parallel.h"

namespace gnnhls {

namespace {

/// Below this many output elements a kernel runs its serial loop inline:
/// the arithmetic is cheaper than one pool wakeup. Thresholds only steer
/// scheduling — every path produces bit-identical results.
constexpr std::size_t kMinParallelElems = 1U << 13;

/// Row grain so each gather chunk moves at least ~kMinParallelElems floats.
int gather_grain(int cols) {
  return static_cast<int>(kMinParallelElems /
                          static_cast<std::size_t>(std::max(cols, 1))) +
         1;
}

}  // namespace

SegmentPartition SegmentPartition::build(const std::vector<int>& seg,
                                         int segments) {
  GNNHLS_CHECK(segments >= 0, "SegmentPartition: negative segment count");
  SegmentPartition part;
  part.segments = segments;
  part.offsets.assign(static_cast<std::size_t>(segments) + 1, 0);
  for (int s : seg) {
    GNNHLS_CHECK(s >= 0 && s < segments, "SegmentPartition: bad segment id");
    part.offsets[static_cast<std::size_t>(s) + 1]++;
  }
  for (int s = 0; s < segments; ++s) {
    part.offsets[static_cast<std::size_t>(s) + 1] +=
        part.offsets[static_cast<std::size_t>(s)];
  }
  part.order.resize(seg.size());
  std::vector<int> cursor(part.offsets.begin(), part.offsets.end() - 1);
  // Ascending i keeps each segment's slice in ascending source order — the
  // stability the fixed-order reduction rule relies on.
  for (std::size_t i = 0; i < seg.size(); ++i) {
    part.order[static_cast<std::size_t>(
        cursor[static_cast<std::size_t>(seg[i])]++)] = static_cast<int>(i);
  }
  return part;
}

SegmentIndex::SegmentIndex(std::vector<int> ids, int segments) {
  SegmentPartition part = SegmentPartition::build(ids, segments);
  data_ = std::make_shared<const Data>(Data{std::move(ids), std::move(part)});
}

void gather_rows_into(const Matrix& src, const std::vector<int>& idx,
                      Matrix& out) {
  GNNHLS_CHECK_EQ(out.rows(), static_cast<int>(idx.size()),
                  "gather_rows_into: output row count mismatch");
  GNNHLS_CHECK_EQ(out.cols(), src.cols(),
                  "gather_rows_into: column mismatch");
  const int cols = src.cols();
  parallel_for(0, static_cast<int>(idx.size()), gather_grain(cols),
               [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      const int r = idx[static_cast<std::size_t>(i)];
      GNNHLS_CHECK(r >= 0 && r < src.rows(), "gather_rows_into: bad index");
      std::copy(src.row_ptr(r), src.row_ptr(r) + cols, out.row_ptr(i));
    }
  });
}

void gather_add_rows_into(const Matrix& src, const std::vector<int>& idx,
                          Matrix& out) {
  GNNHLS_CHECK_EQ(out.rows(), static_cast<int>(idx.size()),
                  "gather_add_rows_into: output row count mismatch");
  GNNHLS_CHECK_EQ(out.cols(), src.cols(),
                  "gather_add_rows_into: column mismatch");
  const int cols = src.cols();
  parallel_for(0, static_cast<int>(idx.size()), gather_grain(cols),
               [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      const int r = idx[static_cast<std::size_t>(i)];
      GNNHLS_CHECK(r >= 0 && r < src.rows(),
                   "gather_add_rows_into: bad index");
      const float* s = src.row_ptr(r);
      float* o = out.row_ptr(i);
      for (int j = 0; j < cols; ++j) o[j] += s[j];
    }
  });
}

void scatter_add_rows_into(const Matrix& src, const SegmentPartition& part,
                           Matrix& out) {
  GNNHLS_CHECK_EQ(static_cast<int>(part.order.size()), src.rows(),
                  "scatter_add_rows_into: partition covers different rows");
  GNNHLS_CHECK_EQ(out.rows(), part.segments,
                  "scatter_add_rows_into: output row count mismatch");
  GNNHLS_CHECK_EQ(out.cols(), src.cols(),
                  "scatter_add_rows_into: column mismatch");
  const int cols = src.cols();
  const auto run = [&](int seg_lo, int seg_hi) {
    for (int s = seg_lo; s < seg_hi; ++s) {
      const int lo = part.offsets[static_cast<std::size_t>(s)];
      const int hi = part.offsets[static_cast<std::size_t>(s) + 1];
      float* o = out.row_ptr(s);
      for (int e = lo; e < hi; ++e) {
        const float* row =
            src.row_ptr(part.order[static_cast<std::size_t>(e)]);
        for (int j = 0; j < cols; ++j) o[j] += row[j];
      }
    }
  };
  const std::size_t work =
      src.size() + static_cast<std::size_t>(part.segments);
  if (ThreadPool::global().num_workers() == 0 || work < kMinParallelElems) {
    run(0, part.segments);
    return;
  }
  // Edge-count-balanced destination ranges: min_cost keeps each range worth
  // a wakeup, max_ranges bounds scheduling overhead. Boundaries never
  // change results — only which task owns which destination rows.
  const int min_cost = static_cast<int>(
      kMinParallelElems / static_cast<std::size_t>(std::max(cols, 1)) + 1);
  const std::vector<int> bounds = balanced_boundaries(
      part.offsets, ThreadPool::global().num_threads() * 4, min_cost);
  parallel_over_ranges(bounds, run);
}

void scatter_add_rows_serial(const Matrix& src, const std::vector<int>& seg,
                             Matrix& out) {
  GNNHLS_CHECK_EQ(static_cast<int>(seg.size()), src.rows(),
                  "scatter_add_rows_serial: one segment id per row required");
  GNNHLS_CHECK_EQ(out.cols(), src.cols(),
                  "scatter_add_rows_serial: column mismatch");
  for (std::size_t i = 0; i < seg.size(); ++i) {
    GNNHLS_CHECK(seg[i] >= 0 && seg[i] < out.rows(),
                 "scatter_add_rows_serial: bad index");
    const float* s = src.row_ptr(static_cast<int>(i));
    float* o = out.row_ptr(seg[i]);
    for (int j = 0; j < src.cols(); ++j) o[j] += s[j];
  }
}

}  // namespace gnnhls
