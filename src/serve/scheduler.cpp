#include "serve/scheduler.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "obs/trace.h"
#include "serve/status_names.h"
#include "support/check.h"

namespace gnnhls {

std::string admit_status_name(AdmitStatus s) {
  // Shared table with the wire results (serve/status_names.h); kAccepted
  // keeps its historical "accepted" spelling (wire code 0 is "ok").
  if (s == AdmitStatus::kAccepted) return "accepted";
  return status_name(static_cast<std::uint32_t>(s));
}

ServingScheduler::ServingScheduler(std::vector<const QorPredictor*> models,
                                   SchedulerConfig cfg)
    : models_(std::move(models)),
      cfg_(cfg),
      epoch_(std::chrono::steady_clock::now()),
      window_(cfg.batch_window_us, cfg.adaptive_window) {
  GNNHLS_CHECK(!models_.empty(), "SchedulerConfig: at least one model");
  for (const QorPredictor* m : models_) {
    GNNHLS_CHECK(m != nullptr, "SchedulerConfig: null model");
  }
  GNNHLS_CHECK(cfg_.workers >= 1, "SchedulerConfig: workers must be >= 1");
  GNNHLS_CHECK(cfg_.max_batch >= 1, "SchedulerConfig: max_batch must be >= 1");
  GNNHLS_CHECK(cfg_.batch_window_us >= 0,
               "SchedulerConfig: batch_window_us must be >= 0");

  // now_us() reads 0 right here, so the collector's clock IS the offset
  // between the two timebases.
  trace_offset_us_ = TraceCollector::global().now_us();

  if (cfg_.obs.metrics) {
    registry_ = &MetricsRegistry::global();
  } else {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = own_registry_.get();
  }
  const std::string inst =
      "sched=\"" + std::to_string(MetricsRegistry::next_instance_id()) + "\"";
  m_.submitted = registry_->counter("gnnhls_sched_submitted_total", inst);
  m_.completed = registry_->counter("gnnhls_sched_completed_total", inst);
  m_.completed_in_deadline =
      registry_->counter("gnnhls_sched_completed_in_deadline_total", inst);
  m_.shed_expired = registry_->counter("gnnhls_sched_shed_expired_total", inst);
  m_.shed_capacity =
      registry_->counter("gnnhls_sched_shed_capacity_total", inst);
  m_.rejected_shutdown =
      registry_->counter("gnnhls_sched_rejected_shutdown_total", inst);
  m_.shed_in_queue =
      registry_->counter("gnnhls_sched_shed_in_queue_total", inst);
  m_.batches = registry_->counter("gnnhls_sched_batches_total", inst);
  m_.flush_full = registry_->counter("gnnhls_sched_flush_full_total", inst);
  m_.flush_timeout =
      registry_->counter("gnnhls_sched_flush_timeout_total", inst);
  m_.flush_drain = registry_->counter("gnnhls_sched_flush_drain_total", inst);
  m_.latencies_dropped =
      registry_->counter("gnnhls_sched_latencies_dropped_total", inst);
  m_.max_batch_seen = registry_->gauge("gnnhls_sched_max_batch_seen", inst);
  m_.queue_depth = registry_->gauge("gnnhls_sched_queue_depth", inst);
  m_.window_us = registry_->gauge("gnnhls_sched_window_us", inst);
  m_.window_us->set(window_.current_us());
  m_.latency_us = registry_->histogram("gnnhls_sched_latency_us", inst);
  m_.queue_wait_us = registry_->histogram("gnnhls_sched_queue_wait_us", inst);
  m_.per_model_completed.reserve(models_.size());
  for (std::size_t i = 0; i < models_.size(); ++i) {
    m_.per_model_completed.push_back(registry_->counter(
        "gnnhls_sched_per_model_completed_total",
        inst + ",model=\"" + std::to_string(i) + "\""));
  }

  if (!cfg_.virtual_time) {
    workers_.reserve(static_cast<std::size_t>(cfg_.workers));
    for (int i = 0; i < cfg_.workers; ++i) {
      workers_.emplace_back(&ServingScheduler::worker_loop, this);
    }
  }
}

ServingScheduler::~ServingScheduler() { shutdown(); }

std::int64_t ServingScheduler::now_us() const {
  if (cfg_.virtual_time) return virtual_now_;  // caller holds mu_ or is test
  return std::chrono::duration_cast<std::chrono::microseconds>(
             std::chrono::steady_clock::now() - epoch_)
      .count();
}

bool ServingScheduler::urgent_before(const Entry& a, const Entry& b) {
  if (a.priority != b.priority) return a.priority > b.priority;
  if (a.deadline_us != b.deadline_us) return a.deadline_us < b.deadline_us;
  return a.seq < b.seq;
}

ServingScheduler::Ticket ServingScheduler::submit(int model,
                                                  const Sample& sample,
                                                  SubmitOptions opts) {
  return submit_ref(model, SampleRef(sample), opts);
}

ServingScheduler::Ticket ServingScheduler::submit(
    int model, std::shared_ptr<const Sample> sample, SubmitOptions opts) {
  GNNHLS_CHECK(sample != nullptr, "submit: null sample");
  return submit_ref(model, SampleRef(std::move(sample)), opts);
}

ServingScheduler::Ticket ServingScheduler::submit(int model, Sample&& sample,
                                                  SubmitOptions opts) {
  return submit_ref(
      model, SampleRef(std::make_shared<const Sample>(std::move(sample))),
      opts);
}

ServingScheduler::Ticket ServingScheduler::submit_ref(int model,
                                                      SampleRef sample,
                                                      SubmitOptions opts) {
  GNNHLS_CHECK(model >= 0 && model < num_models(), "submit: bad model id");
  Ticket ticket;
  std::promise<double> promise;
  ticket.future = promise.get_future();

  auto reject = [&](AdmitStatus status, const char* what) {
    ticket.status = status;
    promise.set_exception(
        std::make_exception_ptr(SchedReject(status, what)));
  };

  bool notify = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stop_) {
      m_.rejected_shutdown->add();
      reject(AdmitStatus::kShutdown, "ServingScheduler: submit after shutdown");
      return ticket;
    }
    if (opts.deadline_us < 0) {
      m_.shed_expired->add();
      reject(AdmitStatus::kExpired,
             "ServingScheduler: deadline expired before submit");
      return ticket;
    }
    if (cfg_.max_queue != 0 && queue_.size() >= cfg_.max_queue) {
      m_.shed_capacity->add();
      reject(AdmitStatus::kOverCapacity,
             "ServingScheduler: queue over capacity");
      return ticket;
    }
    const std::int64_t now = now_us();
    Entry e{model,
            std::move(sample),
            std::move(promise),
            now,
            opts.deadline_us == 0 ? kNoDeadline : now + opts.deadline_us,
            opts.priority,
            next_seq_++};
    // Ordered insert keeps the queue in urgency order, so the head is
    // always the next request to serve and batch extraction is a scan.
    auto pos = std::upper_bound(
        queue_.begin(), queue_.end(), e,
        [](const Entry& a, const Entry& b) { return urgent_before(a, b); });
    queue_.insert(pos, std::move(e));
    m_.submitted->add();
    m_.queue_depth->set(static_cast<std::int64_t>(queue_.size()));
    notify = true;
  }
  if (notify) queue_cv_.notify_one();
  return ticket;
}

std::vector<double> ServingScheduler::predict_many(
    int model, const std::vector<const Sample*>& samples) {
  std::vector<std::future<double>> futures;
  futures.reserve(samples.size());
  for (const Sample* s : samples) {
    GNNHLS_CHECK(s != nullptr, "predict_many: null sample");
    futures.push_back(submit(model, *s).future);
  }
  std::vector<double> out;
  out.reserve(futures.size());
  for (std::future<double>& f : futures) out.push_back(f.get());
  return out;
}

void ServingScheduler::shutdown() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  std::lock_guard<std::mutex> join_lock(join_mu_);
  for (std::thread& w : workers_) {
    if (w.joinable()) w.join();
  }
  if (cfg_.virtual_time) {
    // No workers: drain inline so "every accepted request is answered"
    // holds in virtual mode too (expired entries are shed, live ones
    // served — window rules are waived under stop_).
    std::unique_lock<std::mutex> lock(mu_);
    while (!queue_.empty()) {
      if (!step(lock, /*drain_everything=*/true)) break;
    }
  }
}

SchedStats ServingScheduler::stats() const {
  // Assembled from the registry counters under mu_ — every counter update
  // also happens under mu_, so the snapshot invariants (flush_full +
  // flush_timeout + flush_drain == batches, completed <= submitted) still
  // hold within one snapshot.
  std::lock_guard<std::mutex> lock(mu_);
  SchedStats out;
  out.submitted = m_.submitted->value();
  out.completed = m_.completed->value();
  out.completed_in_deadline = m_.completed_in_deadline->value();
  out.shed_expired = m_.shed_expired->value();
  out.shed_capacity = m_.shed_capacity->value();
  out.rejected_shutdown = m_.rejected_shutdown->value();
  out.shed_in_queue = m_.shed_in_queue->value();
  out.batches = m_.batches->value();
  out.flush_full = m_.flush_full->value();
  out.flush_timeout = m_.flush_timeout->value();
  out.flush_drain = m_.flush_drain->value();
  out.max_batch_seen = static_cast<int>(m_.max_batch_seen->value());
  out.window_us = window_.current_us();
  out.window_grows = window_.grows();
  out.window_shrinks = window_.shrinks();
  out.per_model_completed.reserve(m_.per_model_completed.size());
  for (const Counter* c : m_.per_model_completed) {
    out.per_model_completed.push_back(c->value());
  }
  return out;
}

std::vector<double> ServingScheduler::take_latencies_us() {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> out;
  out.swap(latencies_us_);
  return out;
}

void ServingScheduler::advance_virtual_time(std::int64_t us) {
  GNNHLS_CHECK(cfg_.virtual_time,
               "advance_virtual_time: not in virtual_time mode");
  GNNHLS_CHECK(us >= 0, "advance_virtual_time: negative step");
  std::lock_guard<std::mutex> lock(mu_);
  virtual_now_ += us;
}

std::int64_t ServingScheduler::virtual_now_us() const {
  std::lock_guard<std::mutex> lock(mu_);
  return virtual_now_;
}

bool ServingScheduler::pump() {
  GNNHLS_CHECK(cfg_.virtual_time, "pump: not in virtual_time mode");
  std::unique_lock<std::mutex> lock(mu_);
  return step(lock, stop_);
}

void ServingScheduler::sweep_expired(std::int64_t now,
                                     std::vector<Entry>& expired) {
  for (auto it = queue_.begin(); it != queue_.end();) {
    if (it->deadline_us != kNoDeadline && it->deadline_us <= now) {
      expired.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  if (!expired.empty()) m_.shed_in_queue->add(expired.size());
}

void ServingScheduler::fail_expired(std::vector<Entry>& expired) {
  for (Entry& e : expired) {
    e.promise.set_exception(std::make_exception_ptr(SchedReject(
        AdmitStatus::kExpired, "ServingScheduler: deadline expired in queue")));
  }
  expired.clear();
}

int ServingScheduler::count_for_model(int model) const {
  int n = 0;
  for (const Entry& e : queue_) {
    if (e.model == model && ++n >= cfg_.max_batch) break;
  }
  return n;
}

std::vector<ServingScheduler::Entry> ServingScheduler::extract_batch(
    int model) {
  std::vector<Entry> batch;
  batch.reserve(static_cast<std::size_t>(cfg_.max_batch));
  for (auto it = queue_.begin();
       it != queue_.end() && static_cast<int>(batch.size()) < cfg_.max_batch;) {
    if (it->model == model) {
      batch.push_back(std::move(*it));
      it = queue_.erase(it);
    } else {
      ++it;
    }
  }
  return batch;
}

bool ServingScheduler::step(std::unique_lock<std::mutex>& lock,
                            bool drain_everything) {
  std::vector<Entry> expired;
  sweep_expired(now_us(), expired);
  if (!expired.empty()) {
    lock.unlock();
    fail_expired(expired);
    lock.lock();
  }
  if (queue_.empty()) return false;

  // The head (most urgent request) picks the model; the batch is every
  // queued request for that model, in queue order, up to max_batch.
  const Entry& head = queue_.front();
  const int model = head.model;
  const bool full = count_for_model(model) >= cfg_.max_batch;
  const bool timed_out =
      now_us() >= head.arrival_us + window_.current_us();
  if (!drain_everything && !full && !timed_out) return false;

  std::vector<Entry> batch;
  {
    const ObsSpan span(trace_on(), "batch_assembly", "serve");
    batch = extract_batch(model);
  }
  const FlushReason reason =
      static_cast<int>(batch.size()) >= cfg_.max_batch
          ? FlushReason::kFull
          : (drain_everything ? FlushReason::kDrain : FlushReason::kTimeout);
  // Adaptive-window observation: depth left behind after this extraction.
  // Backlog means arrivals outpace service -> grow toward the cap; a
  // drained queue means the window is only adding latency -> shrink.
  window_.observe(queue_.size());
  m_.window_us->set(window_.current_us());
  m_.queue_depth->set(static_cast<std::int64_t>(queue_.size()));

  lock.unlock();
  run_batch(batch, reason);
  lock.lock();
  return true;
}

void ServingScheduler::run_batch(std::vector<Entry>& batch,
                                 FlushReason reason) {
  std::vector<const Sample*> parts;
  parts.reserve(batch.size());
  for (const Entry& e : batch) parts.push_back(e.sample.get());
  const int model = batch.front().model;

  // One queue_wait span per request, arrival -> extraction, stamped in the
  // collector's timebase via trace_offset_us_.
  const std::int64_t forward_start = now_us();
  if (trace_on()) {
    for (const Entry& e : batch) {
      obs_complete_event(true, "queue_wait", "serve",
                         e.arrival_us + trace_offset_us_,
                         forward_start - e.arrival_us);
    }
  }

  std::vector<double> pred;
  std::exception_ptr error;
  try {
    const ObsSpan forward_span(trace_on(), "forward", "serve");
    pred = models_[static_cast<std::size_t>(model)]->predict_many(parts);
  } catch (...) {
    error = std::current_exception();
  }

  const std::int64_t done = now_us();
  // Count the whole batch — flush reason included — in ONE locked update,
  // BEFORE fulfilling the promises: snapshots keep the invariant
  // flush_full + flush_timeout + flush_drain == batches even mid-forward,
  // and a caller whose future.get() has returned always observes its own
  // request in stats().
  {
    std::lock_guard<std::mutex> lock(mu_);
    m_.batches->add();
    switch (reason) {
      case FlushReason::kFull: m_.flush_full->add(); break;
      case FlushReason::kTimeout: m_.flush_timeout->add(); break;
      case FlushReason::kDrain: m_.flush_drain->add(); break;
    }
    m_.completed->add(batch.size());
    m_.per_model_completed[static_cast<std::size_t>(model)]->add(batch.size());
    if (static_cast<int>(batch.size()) >
        static_cast<int>(m_.max_batch_seen->value())) {
      m_.max_batch_seen->set(static_cast<std::int64_t>(batch.size()));
    }
    for (const Entry& e : batch) {
      if (e.deadline_us == kNoDeadline || done <= e.deadline_us) {
        m_.completed_in_deadline->add();
      }
      const std::int64_t wait = forward_start - e.arrival_us;
      m_.queue_wait_us->record(
          static_cast<std::uint64_t>(wait > 0 ? wait : 0));
      const std::int64_t lat = done - e.arrival_us;
      m_.latency_us->record(static_cast<std::uint64_t>(lat > 0 ? lat : 0));
      if (cfg_.record_latencies) {
        if (latencies_us_.size() < cfg_.latency_cap) {
          latencies_us_.push_back(static_cast<double>(lat));
        } else {
          m_.latencies_dropped->add();
        }
      }
    }
  }
  const ObsSpan scatter_span(trace_on(), "scatter", "serve");
  if (error) {
    // predict_many throws before computing anything, so failing the whole
    // micro-batch with the same exception is consistent.
    for (Entry& e : batch) e.promise.set_exception(error);
  } else {
    for (std::size_t i = 0; i < batch.size(); ++i) {
      batch[i].promise.set_value(pred[i]);
    }
  }
}

void ServingScheduler::worker_loop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty() && stop_) return;  // drained: everything answered

    if (stop_) {
      // Draining: serve (or shed) everything queued, window rules waived.
      step(lock, /*drain_everything=*/true);
      continue;
    }

    if (step(lock, /*drain_everything=*/false)) continue;
    if (queue_.empty()) continue;  // everything was shed — wait again

    // Not ready yet: sleep until the head's window closes (or a new
    // request / shutdown wakes us). wait_until re-checks under the lock,
    // so a stale deadline just loops back around.
    const auto ready_at =
        epoch_ + std::chrono::microseconds(queue_.front().arrival_us +
                                           window_.current_us());
    queue_cv_.wait_until(lock, ready_at);
  }
}

}  // namespace gnnhls
