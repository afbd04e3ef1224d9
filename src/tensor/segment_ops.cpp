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

/// Runs run(seg_lo, seg_hi) over destination rows [0, segments): inline
/// when `work` output-and-input elements are too few to amortize a wakeup,
/// else over ranges balanced by the cumulative cost profile cum() (size
/// segments + 1, in rows of `cols` floats). Boundaries never change
/// results, only which task owns which destination rows.
template <typename Cum, typename Run>
void over_destination_ranges(int segments, std::size_t work, int cols,
                             Cum&& cum, Run&& run) {
  if (ThreadPool::global().num_workers() == 0 || work < kMinParallelElems) {
    run(0, segments);
    return;
  }
  // min_cost keeps each range worth a wakeup, max_ranges bounds scheduling
  // overhead.
  const int min_cost = static_cast<int>(
      kMinParallelElems / static_cast<std::size_t>(std::max(cols, 1)) + 1);
  parallel_over_ranges(
      balanced_boundaries(cum(), ThreadPool::global().num_threads() * 4,
                          min_cost),
      run);
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
  // Edge-count-balanced destination ranges, so a power-law hub does not
  // serialize on one task.
  over_destination_ranges(
      part.segments, src.size() + static_cast<std::size_t>(part.segments),
      cols, [&part]() -> const std::vector<int>& { return part.offsets; },
      run);
}

void segment_reduce_into(const std::vector<SegmentSource>& parts, bool mean,
                         Matrix& out) {
  const int segments = out.rows();
  const int cols = out.cols();
  std::size_t work = parts.size() * out.size();
  for (const SegmentSource& p : parts) {
    GNNHLS_CHECK_EQ(static_cast<int>(p.part->order.size()), p.src->rows(),
                    "segment_reduce_into: partition covers different rows");
    GNNHLS_CHECK_EQ(p.part->segments, segments,
                    "segment_reduce_into: output row count mismatch");
    GNNHLS_CHECK_EQ(p.src->cols(), cols,
                    "segment_reduce_into: column mismatch");
    work += p.src->size();
  }
  // Reduces part k's rows of segment s from +0 into acc[0, cols) and
  // returns the factor its sum is scaled by.
  const auto reduce = [&](std::size_t k, int s, float* __restrict acc) {
    const SegmentPartition& part = *parts[k].part;
    const Matrix& src = *parts[k].src;
    const int lo = part.offsets[static_cast<std::size_t>(s)];
    const int hi = part.offsets[static_cast<std::size_t>(s) + 1];
    std::fill(acc, acc + cols, 0.0F);
    for (int e = lo; e < hi; ++e) {
      const float* row = src.row_ptr(part.order[static_cast<std::size_t>(e)]);
      float* a = acc;
      // Pointer walking, as in the matmul tile loop, keeps GCC's
      // unroll-and-jam off this nest.
      // vectorize: segment_reduce_sum
      for (const float* end = row + cols; row != end; ++row, ++a) *a += *row;
    }
    return mean && hi > lo ? 1.0F / static_cast<float>(hi - lo) : 1.0F;
  };
  const auto run = [&](int seg_lo, int seg_hi) {
    std::vector<float> part_sum(parts.size() > 1 ? cols : 0);
    float* __restrict sum = part_sum.data();
    for (int s = seg_lo; s < seg_hi; ++s) {
      float* __restrict o = out.row_ptr(s);
      // The first part reduces straight into the output row.
      const float w0 = reduce(0, s, o);
      if (w0 != 1.0F) {
        // vectorize: segment_reduce_scale
        for (int j = 0; j < cols; ++j) o[j] *= w0;
      }
      // A later part reduces into a scratch row and is then added, empty
      // or not: the chained add's o + +0 turns a -0 into +0.
      for (std::size_t k = 1; k < parts.size(); ++k) {
        const float w = reduce(k, s, sum);
        // vectorize: segment_reduce_add
        for (int j = 0; j < cols; ++j) o[j] += sum[j] * w;
      }
    }
  };
  over_destination_ranges(
      segments, work, cols,
      [&]() {
        // Per destination row: its edges in every part plus one row write
        // per part.
        std::vector<int> cum(static_cast<std::size_t>(segments) + 1, 0);
        for (std::size_t s = 0; s < cum.size(); ++s) {
          for (const SegmentSource& p : parts) {
            cum[s] += p.part->offsets[s] + static_cast<int>(s);
          }
        }
        return cum;
      },
      run);
}

void gather_add_rows_into(const Matrix& src, const SegmentIndex& idx,
                          bool mean, Matrix& out) {
  GNNHLS_CHECK_EQ(out.rows(), idx.size(),
                  "gather_add_rows_into: output row count mismatch");
  GNNHLS_CHECK_EQ(src.rows(), idx.segments(),
                  "gather_add_rows_into: one source row per segment");
  GNNHLS_CHECK_EQ(out.cols(), src.cols(),
                  "gather_add_rows_into: column mismatch");
  const int cols = src.cols();
  const SegmentPartition& part = idx.partition();
  parallel_for(0, idx.size(), gather_grain(cols), [&](int lo, int hi) {
    for (int i = lo; i < hi; ++i) {
      const int r = idx[static_cast<std::size_t>(i)];
      const float w =
          mean ? 1.0F / static_cast<float>(part.count(r)) : 1.0F;
      const float* __restrict s = src.row_ptr(r);
      float* __restrict o = out.row_ptr(i);
      // vectorize: gather_add_rows
      for (int j = 0; j < cols; ++j) o[j] += s[j] * w;
    }
  });
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
