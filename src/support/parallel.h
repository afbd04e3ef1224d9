// Fine-grained data parallelism for tensor kernels and batch assembly.
//
// A ThreadPool keeps its workers parked on a condition variable between
// parallel regions, so a parallel_for over matrix rows costs a wakeup, not a
// thread spawn. Work is split into contiguous index chunks and each chunk is
// computed by exactly one worker with a sequential inner loop, so results
// are bitwise identical to the serial execution regardless of scheduling
// (the library's reproducibility contract, see support/rng.h).
//
// This pool is for *kernel*-level parallelism (matmul tiles, batched graph
// assembly); coarse job-level parallelism across experiments stays with
// core/experiment.h run_parallel.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <thread>
#include <utility>
#include <vector>

namespace gnnhls {

class ThreadPool {
 public:
  /// threads <= 0 selects hardware_concurrency.
  explicit ThreadPool(int threads = 0);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return num_threads_; }
  /// Parked worker threads (num_threads - 1; 0 means parallel_for is inline).
  int num_workers() const { return static_cast<int>(workers_.size()); }

  /// Runs body(begin, end) over disjoint contiguous chunks of [begin, end).
  /// The calling thread participates; returns when every chunk completed.
  /// Falls back to a single inline call when the range is smaller than
  /// min_chunk or the pool has no workers. Exceptions from body propagate to
  /// the caller (first one wins).
  void parallel_for(int begin, int end, int min_chunk,
                    const std::function<void(int, int)>& body);

  /// Process-wide pool, lazily constructed with hardware_concurrency.
  /// Lock-free after first construction (hot kernels call this per matmul).
  static ThreadPool& global();
  /// Rebuilds the global pool with `threads` workers (bench --threads knob).
  /// Must not race with kernels running on the old pool.
  static void set_global_threads(int threads);

 private:
  struct Region;  // one parallel_for invocation

  void worker_loop();

  int num_threads_ = 1;
  std::vector<std::thread> workers_;
  std::mutex mu_;
  std::condition_variable work_cv_;
  std::shared_ptr<Region> region_;  // active region, guarded by mu_
  std::uint64_t next_region_id_ = 0;
  bool shutdown_ = false;
};

/// Convenience wrapper over the global pool. Template so the common serial
/// fallback (small range or single-thread pool) invokes the lambda directly
/// without ever materializing a std::function — kernels call this per
/// matmul, so the fallback must not allocate.
template <typename Body>
inline void parallel_for(int begin, int end, int min_chunk, Body&& body) {
  ThreadPool& pool = ThreadPool::global();
  if (pool.num_workers() == 0 || end - begin <= std::max(min_chunk, 1)) {
    if (begin < end) body(begin, end);
    return;
  }
  pool.parallel_for(begin, end, min_chunk,
                    std::function<void(int, int)>(std::forward<Body>(body)));
}

/// Runs body(shard) for every shard in [0, count) on the global pool, one
/// index per invocation (coarse-grained data parallelism: each shard is a
/// whole unit of work — e.g. one mini-batch tape — not a slice of an index
/// range). Which thread runs which shard is unspecified; callers that need
/// reproducible results must make each shard's computation independent and
/// reduce shard outputs in a fixed order afterwards (see Adam::accumulate).
/// With count <= 1 or a single-thread pool the shards run inline, serially,
/// in index order.
template <typename Body>
inline void parallel_shards(int count, Body&& body) {
  parallel_for(0, count, 1, [&body](int lo, int hi) {
    for (int s = lo; s < hi; ++s) body(s);
  });
}

/// Splits [0, n) into contiguous ranges of roughly equal cumulative cost,
/// where cum[i] is the total cost of indices [0, i) (cum has size n+1,
/// cum[0] == 0, non-decreasing). Returns range boundaries b_0=0 < b_1 < ...
/// < b_k=n such that every range carries at least min_cost (except possibly
/// the last) and k is at most max_ranges. The boundaries depend only on the
/// cost profile and the requested fan-out — never on scheduling — so a
/// kernel that gives each range to one task and accumulates within the
/// range in index order is deterministic at any pool width.
///
/// This is the load balancer for destination-partitioned segment kernels:
/// equal-*row* chunks starve under power-law in-degree (one hub node can
/// own most of the edges), equal-*cost* chunks do not.
std::vector<int> balanced_boundaries(const std::vector<int>& cum,
                                     int max_ranges, int min_cost);

/// Runs body(lo, hi) for every consecutive boundary pair of `bounds` (as
/// produced by balanced_boundaries) on the global pool, one range per task.
/// Ranges are disjoint and contiguous, so a body that owns all writes for
/// its range needs no synchronization.
template <typename Body>
inline void parallel_over_ranges(const std::vector<int>& bounds, Body&& body) {
  const int ranges = static_cast<int>(bounds.size()) - 1;
  parallel_shards(ranges, [&bounds, &body](int r) {
    body(bounds[static_cast<std::size_t>(r)],
         bounds[static_cast<std::size_t>(r) + 1]);
  });
}

}  // namespace gnnhls
