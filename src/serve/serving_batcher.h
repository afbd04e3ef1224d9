// Asynchronous micro-batching inference front-end (the ROADMAP's "serving
// batcher") — since the shared-queue scheduler landed, a thin single-model
// facade over ServingScheduler (serve/scheduler.h).
//
// DSE loops score thousands of candidate designs per search step, usually
// from several concurrent searcher threads, each holding one graph at a
// time. Running a full forward per graph wastes the batched engine: the
// GraphBatch segment readout already produces [N_graphs, 1] predictions in
// member order for the cost of roughly one tape. The ServingBatcher turns
// that into a serving primitive: callers submit single samples and get a
// future; a worker thread collects requests for a bounded window (max_batch
// requests or batch_window_us microseconds, whichever closes first), runs
// ONE QorPredictor::predict_many forward over the disjoint union, and
// scatters the per-member predictions back to each caller's promise.
//
// The facade pins the scheduler to one model, one worker, and a static
// (non-adaptive) window, which reproduces the historical batcher behavior
// exactly: same window-close reasons, same drain-on-shutdown guarantee,
// same submit-after-shutdown error. Callers that want multi-model sharing,
// deadlines, priorities, adaptive windows or admission control use the
// scheduler directly.
//
// Determinism contract: a served prediction is bit-identical to
// QorPredictor::predict on the same sample and trained model, regardless of
// which requests happened to share its micro-batch (the union adds no
// cross-graph edges and segment ops reduce each member's rows in solo
// order). Batching changes latency, never values — asserted by
// tests/serve_test.cpp.
//
// Threading: submit()/predict_many()/stats()/shutdown() are safe from any
// number of threads. The model is shared read-only — the batcher takes the
// predictor by const reference and requires that nobody re-fits it while
// serving. Destruction (or shutdown()) drains: every accepted request is
// answered before the worker exits.
#pragma once

#include <cstdint>
#include <future>
#include <memory>
#include <vector>

#include "core/predictor.h"
#include "serve/scheduler.h"
#include "serve/serve_stats.h"

namespace gnnhls {

/// The latency-vs-throughput knobs. Both bound every micro-batch: a window
/// closes as soon as max_batch requests are queued, and no later than
/// batch_window_us microseconds after its oldest request arrived.
struct ServeConfig {
  /// Graphs per forward pass (>= 1). 1 disables batching: every request
  /// pays its own forward (the baseline bench_serving compares against).
  int max_batch = 8;
  /// Longest time a queued request may wait for co-batchable traffic, in
  /// microseconds (>= 0). 0 means "never wait": the worker serves whatever
  /// is queued the moment it looks — lowest latency, batches form only when
  /// requests arrive faster than forwards complete.
  std::int64_t batch_window_us = 200;
  /// Record per-request submit->answer latency for take_latencies_us()
  /// (bench_serving's open-loop mode only; the raw-sample buffer is
  /// bounded by SchedulerConfig::latency_cap).
  bool record_latencies = false;
  /// Observability knobs, forwarded to the underlying scheduler
  /// (obs/obs_config.h). Execution-only.
  ObsConfig obs;
};

class ServingBatcher {
 public:
  /// Spawns the worker thread. `predictor` must be fitted already, must
  /// outlive the batcher, and must not be re-fit while serving (the worker
  /// reads it concurrently with callers).
  explicit ServingBatcher(const QorPredictor& predictor, ServeConfig cfg = {});

  /// Drains and joins (equivalent to shutdown()).
  ~ServingBatcher() = default;

  ServingBatcher(const ServingBatcher&) = delete;
  ServingBatcher& operator=(const ServingBatcher&) = delete;

  /// Enqueues one sample and returns the future for its decoded QoR
  /// prediction. The const& overload borrows: `sample` must stay alive
  /// until the future is ready. The shared_ptr overload hands off
  /// ownership, and the rvalue overload moves the sample into shared
  /// ownership — neither deep-copies the node/edge tensors. After
  /// shutdown() the returned future holds a std::runtime_error instead of
  /// blocking forever.
  std::future<double> submit(const Sample& sample);
  std::future<double> submit(std::shared_ptr<const Sample> sample);
  std::future<double> submit(Sample&& sample);

  /// Blocking convenience: submits every sample, waits for all futures and
  /// returns the predictions in input order. Safe from many threads at
  /// once; the requests micro-batch with any other concurrent traffic.
  std::vector<double> predict_many(const std::vector<const Sample*>& samples);

  /// Stops accepting new requests, serves everything already queued, then
  /// joins the worker. Idempotent and safe to call concurrently with
  /// submitters (they observe either acceptance or the shutdown error).
  void shutdown();

  /// Consistent snapshot of the serving counters (see serve_stats.h).
  ServeStats stats() const;

  /// Drains the recorded latencies (cfg.record_latencies only).
  std::vector<double> take_latencies_us();

  const ServeConfig& config() const { return cfg_; }

 private:
  static SchedulerConfig to_scheduler_config(const ServeConfig& cfg);

  const ServeConfig cfg_;
  ServingScheduler sched_;
};

}  // namespace gnnhls
