#include "serve/serving_batcher.h"

#include <utility>

namespace gnnhls {

SchedulerConfig ServingBatcher::to_scheduler_config(const ServeConfig& cfg) {
  SchedulerConfig sc;
  sc.workers = 1;
  sc.max_batch = cfg.max_batch;
  sc.batch_window_us = cfg.batch_window_us;
  // The historical batcher window is static: pin the adaptive rule off so
  // a lone request still waits the full configured window (serve_test
  // asserts the exact flush-reason sequence).
  sc.adaptive_window = false;
  sc.record_latencies = cfg.record_latencies;
  sc.obs = cfg.obs;
  return sc;
}

ServingBatcher::ServingBatcher(const QorPredictor& predictor, ServeConfig cfg)
    : cfg_(cfg), sched_({&predictor}, to_scheduler_config(cfg)) {}

std::future<double> ServingBatcher::submit(const Sample& sample) {
  return sched_.submit(0, sample).future;
}

std::future<double> ServingBatcher::submit(
    std::shared_ptr<const Sample> sample) {
  return sched_.submit(0, std::move(sample)).future;
}

std::future<double> ServingBatcher::submit(Sample&& sample) {
  return sched_.submit(0, std::move(sample)).future;
}

std::vector<double> ServingBatcher::predict_many(
    const std::vector<const Sample*>& samples) {
  return sched_.predict_many(0, samples);
}

void ServingBatcher::shutdown() { sched_.shutdown(); }

ServeStats ServingBatcher::stats() const {
  const SchedStats s = sched_.stats();
  ServeStats out;
  out.submitted = s.submitted;
  out.completed = s.completed;
  out.batches = s.batches;
  out.flush_full = s.flush_full;
  out.flush_timeout = s.flush_timeout;
  out.flush_drain = s.flush_drain;
  out.max_batch_seen = s.max_batch_seen;
  return out;
}

std::vector<double> ServingBatcher::take_latencies_us() {
  return sched_.take_latencies_us();
}

}  // namespace gnnhls
