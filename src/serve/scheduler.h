// Shared-queue multi-model serving scheduler — the core of the serving
// tier.
//
// One scheduler serves every model: instead of a worker thread, queue and
// batch window per served model (4-metric DSE scoring would pay 4 threads
// and 4 independently-idling windows), there is ONE deadline/priority-
// ordered request queue carrying (model_id, sample, deadline, priority)
// entries, drained by a small worker pool that forms per-model
// micro-batches greedily from whatever is queued: a worker takes the
// highest-urgency request, collects up to max_batch queued requests for
// the *same model* (skipping none — queue order within the model is
// preserved), and runs ONE QorPredictor::predict_many forward.
// It is the only in-process serving API: the DSE ServingScorer and the TCP
// endpoint both submit to it. A single-model micro-batcher is a scheduler
// with one model, workers = 1 (the default) and adaptive_window = false.
//
// Queue ordering: priority descending, then deadline ascending (EDF), then
// submission order. Requests without a deadline sort after same-priority
// deadlined ones. The order decides *which model is served next and with
// which requests* — never the values (see determinism below).
//
// Adaptive batch window: instead of a static batch_window_us, the window
// tracks load with a deterministic rule (AdaptiveWindow below): after each
// batch, if requests are still queued (backlog — arrivals outpace service)
// the window doubles toward the configured cap so batches fill further;
// if the batch drained the queue the window halves toward zero so light
// traffic stops paying the latency tax. The rule is a pure function of the
// observation sequence, so virtual-time tests replay it deterministically.
//
// Admission control / shedding: submit() fails fast — returning a Ticket
// with a non-accepted status and an already-failed future — when the
// deadline is already expired on arrival or the queue is at max_queue
// capacity. Accepted requests whose deadline expires while queued are
// failed with SchedReject(kExpired) at batch-formation time instead of
// wasting a forward. Under overload this sheds exactly the requests that
// could no longer be answered in time, keeping goodput near capacity where
// a shed-nothing queue would answer everything late.
//
// Graceful drain: shutdown() stops admission, serves every queued request
// (window rules waived), then joins the workers — every accepted request
// is answered, with its prediction or with a SchedReject.
//
// Determinism contract (inherited from predict_many): a scheduled
// prediction is bit-identical to sequential QorPredictor::predict on the
// same sample and model, regardless of batch composition, worker count,
// window state, priorities or shedding around it. Scheduling changes
// latency and which requests get served under overload — never values
// (asserted by tests/scheduler_test.cpp across batch compositions for all
// 14 encoder kinds).
//
// Virtual-time mode (cfg.virtual_time): no worker threads; the test owns
// the clock (advance_virtual_time) and the service loop (pump() runs one
// batch-formation step inline). Expiry, shedding, ordering and the
// adaptive window all read the virtual clock, so every edge case is
// reproducible without sleeps or races.
//
// Threading (real mode): submit()/predict_many()/stats()/shutdown() are
// safe from any number of threads. Models are shared read-only — the
// scheduler borrows fitted predictors and requires that nobody re-fits
// them while a request is in flight. Quiescent refits ARE safe: once
// every submitted future has resolved, the workers are parked outside
// model code, and the promise/future + queue-mutex pairs give the
// happens-before edges that make refit-between-calls race-free. That is
// the contract Explorer::active_halving leans on when it refits between
// scoring rounds on the ServingScorer path.
#pragma once

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <limits>
#include <memory>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/predictor.h"
#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "serve/serve_stats.h"

namespace gnnhls {

/// Outcome of admission control, also carried by SchedReject when a future
/// fails. kAccepted is the only status under which the request queues.
enum class AdmitStatus {
  kAccepted = 0,
  /// Deadline already expired — on arrival (fail-fast at submit) or while
  /// queued (shed at batch formation).
  kExpired,
  /// Queue at max_queue capacity (admission control under overload).
  kOverCapacity,
  /// Scheduler already shut down.
  kShutdown,
};

std::string admit_status_name(AdmitStatus s);

/// The exception a shed/rejected request's future carries. Derives from
/// std::runtime_error so status-blind callers can catch that alone ("after
/// shutdown the future holds a std::runtime_error").
class SchedReject : public std::runtime_error {
 public:
  SchedReject(AdmitStatus status, const std::string& what)
      : std::runtime_error(what), status_(status) {}
  AdmitStatus status() const { return status_; }

 private:
  AdmitStatus status_;
};

/// A sample reference that is either borrowed (caller guarantees lifetime
/// until the future resolves — the zero-copy DSE path) or owned via
/// shared_ptr (network-facing callers hand off ownership; the tensors are
/// never deep-copied either way).
class SampleRef {
 public:
  /// Borrow: `s` must outlive the request's future.
  SampleRef(const Sample& s) : ptr_(&s) {}  // NOLINT(runtime/explicit)
  /// Own: the scheduler keeps the sample alive until the request resolves.
  SampleRef(std::shared_ptr<const Sample> s)  // NOLINT(runtime/explicit)
      : owned_(std::move(s)), ptr_(owned_.get()) {}

  const Sample* get() const { return ptr_; }

 private:
  std::shared_ptr<const Sample> owned_;  // null when borrowed
  const Sample* ptr_;
};

/// Per-request submit knobs.
struct SubmitOptions {
  /// Deadline relative to submit time, in microseconds. 0 = no deadline.
  /// Negative = already expired (an upstream SLA minus elapsed time can go
  /// negative by arrival) — fails fast with AdmitStatus::kExpired.
  std::int64_t deadline_us = 0;
  /// Higher values are served first (before any lower-priority request,
  /// regardless of deadlines). Default 0.
  int priority = 0;
};

/// The deterministic adaptive-window rule, separated out so tests can
/// replay it without a scheduler. One observation per completed batch:
/// `backlog` is the queue depth left after the batch was extracted.
/// backlog > 0 (arrivals outpacing service) doubles the window toward the
/// cap; backlog == 0 (the batch drained the queue) halves it toward zero.
/// With `adaptive` false the window is pinned to the cap — a static
/// window: a lone request always waits the full configured window.
class AdaptiveWindow {
 public:
  AdaptiveWindow(std::int64_t cap_us, bool adaptive)
      : cap_us_(cap_us), cur_us_(cap_us), adaptive_(adaptive) {}

  std::int64_t current_us() const { return cur_us_; }
  std::uint64_t grows() const { return grows_; }
  std::uint64_t shrinks() const { return shrinks_; }

  void observe(std::size_t backlog) {
    if (!adaptive_ || cap_us_ == 0) return;
    if (backlog > 0) {
      const std::int64_t next =
          std::min(cap_us_, cur_us_ > 0 ? cur_us_ * 2 : std::int64_t{1});
      if (next != cur_us_) ++grows_;
      cur_us_ = next;
    } else {
      const std::int64_t next = cur_us_ / 2;
      if (next != cur_us_) ++shrinks_;
      cur_us_ = next;
    }
  }

 private:
  std::int64_t cap_us_;
  std::int64_t cur_us_;
  bool adaptive_;
  std::uint64_t grows_ = 0;
  std::uint64_t shrinks_ = 0;
};

struct SchedulerConfig {
  /// Worker threads draining the shared queue (>= 1; ignored in
  /// virtual_time mode, where the test pumps inline). All models share
  /// this pool — the whole point vs one thread per model.
  int workers = 1;
  /// Graphs per micro-batch forward (>= 1), per model.
  int max_batch = 8;
  /// Cap of the (adaptive) batch window in microseconds (>= 0): the
  /// longest a queued request waits for co-batchable traffic. With
  /// adaptive_window false this is the static window. 0 means "never
  /// wait": a worker serves whatever is queued the moment it looks.
  std::int64_t batch_window_us = 200;
  /// Adapt the window to load (see AdaptiveWindow). Execution-only: served
  /// values are unchanged.
  bool adaptive_window = true;
  /// Queue capacity for admission control; 0 = unbounded. When the queue
  /// holds max_queue requests, further submits fail fast with
  /// kOverCapacity.
  std::size_t max_queue = 0;
  /// Record per-request submit->answer latency (microseconds) for every
  /// completed request; drained with take_latencies_us(). The raw-sample
  /// vector is bounded by latency_cap (overflow is counted, not stored);
  /// the registry's latency histogram records every completion regardless.
  bool record_latencies = false;
  /// Cap on buffered raw latency samples between take_latencies_us() calls
  /// (record_latencies only). Past it samples still land in the histogram
  /// but the vector stops growing — bounded memory under unbounded traffic.
  std::size_t latency_cap = 1u << 20;
  /// Deterministic test mode: no worker threads, no real clock. The test
  /// drives time with advance_virtual_time() and service with pump().
  bool virtual_time = false;
  /// Observability knobs (obs/obs_config.h). Execution-only: metrics and
  /// trace spans read the clock and count events, never touch served
  /// values. Trace spans are suppressed in virtual_time mode (virtual
  /// timestamps would not share the collector's timebase).
  ObsConfig obs;
};

class ServingScheduler {
 public:
  /// What submit() hands back: the admission outcome plus the future. A
  /// non-accepted Ticket's future is already failed with a SchedReject
  /// carrying the same status, so status-blind callers can just .get().
  struct Ticket {
    std::future<double> future;
    AdmitStatus status = AdmitStatus::kAccepted;
    bool accepted() const { return status == AdmitStatus::kAccepted; }
  };

  /// Borrows fitted predictors (one model id per entry, in order); they
  /// must outlive the scheduler and must not be re-fit while a request is
  /// in flight (refitting while the scheduler is quiescent — every issued
  /// future resolved — is fine; see the threading note above).
  /// Spawns cfg.workers threads unless cfg.virtual_time.
  ServingScheduler(std::vector<const QorPredictor*> models,
                   SchedulerConfig cfg = {});

  /// Drains and joins (equivalent to shutdown()).
  ~ServingScheduler();

  ServingScheduler(const ServingScheduler&) = delete;
  ServingScheduler& operator=(const ServingScheduler&) = delete;

  int num_models() const { return static_cast<int>(models_.size()); }

  /// Enqueues one request for `model`. The borrowed overload requires
  /// `sample` to stay alive until the future resolves; the shared_ptr
  /// overload hands off ownership; the rvalue overload moves the sample
  /// into shared ownership (one move, no tensor deep-copy).
  Ticket submit(int model, const Sample& sample, SubmitOptions opts = {});
  Ticket submit(int model, std::shared_ptr<const Sample> sample,
                SubmitOptions opts = {});
  Ticket submit(int model, Sample&& sample, SubmitOptions opts = {});

  /// Blocking convenience: submits every sample for `model` (no deadline,
  /// default priority) and returns the predictions in input order. Safe
  /// from many threads; requests micro-batch with any concurrent traffic.
  std::vector<double> predict_many(int model,
                                   const std::vector<const Sample*>& samples);

  /// Stops accepting requests, answers everything already queued (window
  /// rules waived; still-live requests get served, expired ones shed),
  /// then joins the workers. Idempotent and safe to call concurrently with
  /// submitters.
  void shutdown();

  /// Consistent snapshot of the scheduling counters (serve_stats.h). Since
  /// PR 9 this is a facade over the metrics registry: the counters live in
  /// obs/metrics.h Counter/Gauge objects (updated under the queue lock, so
  /// the snapshot invariants still hold) and this assembles the same struct
  /// from them.
  SchedStats stats() const;

  /// Drains the recorded latencies (cfg.record_latencies only; at most
  /// cfg.latency_cap samples buffer between drains).
  std::vector<double> take_latencies_us();

  /// The registry holding this scheduler's metrics:
  /// MetricsRegistry::global() when cfg.obs.metrics, else a private
  /// per-instance registry. Series carry a `sched="<instance>"` label.
  MetricsRegistry& metrics_registry() const { return *registry_; }

  const SchedulerConfig& config() const { return cfg_; }

  // ----- virtual-time mode (cfg.virtual_time only; throws otherwise) -----

  /// Advances the virtual clock by `us` (>= 0).
  void advance_virtual_time(std::int64_t us);
  /// Runs one scheduling step inline: sheds expired queued requests, and
  /// if a micro-batch is ready (full, window elapsed at the virtual now,
  /// or draining after shutdown) forms and serves it. Returns true if a
  /// batch was served.
  bool pump();
  /// Current virtual time in microseconds since construction.
  std::int64_t virtual_now_us() const;

 private:
  struct Entry {
    int model;
    SampleRef sample;
    std::promise<double> promise;
    std::int64_t arrival_us;
    std::int64_t deadline_us;  // absolute; kNoDeadline when unset
    int priority;
    std::uint64_t seq;
  };

  enum class FlushReason { kFull, kTimeout, kDrain };

  static constexpr std::int64_t kNoDeadline =
      std::numeric_limits<std::int64_t>::max();

  /// Urgency order: priority desc, deadline asc, submission order asc.
  static bool urgent_before(const Entry& a, const Entry& b);

  Ticket submit_ref(int model, SampleRef sample, SubmitOptions opts);
  std::int64_t now_us() const;  // virtual or steady_clock, in us

  /// Removes every queued entry whose deadline passed (lock held); the
  /// entries are moved into `expired` for out-of-lock failure.
  void sweep_expired(std::int64_t now, std::vector<Entry>& expired);
  /// Fails `expired` promises with SchedReject(kExpired) (lock NOT held).
  static void fail_expired(std::vector<Entry>& expired);
  /// Queued requests for `model`, capped at max_batch (lock held).
  int count_for_model(int model) const;
  /// Removes up to max_batch entries of `model` in queue order (lock held).
  std::vector<Entry> extract_batch(int model);
  /// One scheduling step; assumes `lock` is held on mu_ and may release/
  /// reacquire it around the forward. Returns true if a batch was served.
  bool step(std::unique_lock<std::mutex>& lock, bool drain_everything);
  /// Runs one micro-batch outside the lock, records it in the registry
  /// counters in ONE locked update before fulfilling the promises.
  void run_batch(std::vector<Entry>& batch, FlushReason reason);
  void worker_loop();

  /// True when this scheduler emits trace spans (cfg.obs.trace, real-time
  /// mode, collector state checked per span).
  bool trace_on() const { return cfg_.obs.trace && !cfg_.virtual_time; }

  /// The registry-backed counters behind the SchedStats facade. All
  /// updates happen under mu_ (preserving snapshot consistency); the
  /// striped cells make reads safe from any thread regardless.
  struct Metrics {
    Counter* submitted;
    Counter* completed;
    Counter* completed_in_deadline;
    Counter* shed_expired;
    Counter* shed_capacity;
    Counter* rejected_shutdown;
    Counter* shed_in_queue;
    Counter* batches;
    Counter* flush_full;
    Counter* flush_timeout;
    Counter* flush_drain;
    Counter* latencies_dropped;
    Gauge* max_batch_seen;
    Gauge* queue_depth;
    Gauge* window_us;
    Histogram* latency_us;
    Histogram* queue_wait_us;
    std::vector<Counter*> per_model_completed;
  };

  const std::vector<const QorPredictor*> models_;
  const SchedulerConfig cfg_;
  const std::chrono::steady_clock::time_point epoch_;
  /// Shift from this scheduler's now_us() timebase to the trace
  /// collector's (event ts = now_us() + trace_offset_us_).
  std::int64_t trace_offset_us_ = 0;

  std::unique_ptr<MetricsRegistry> own_registry_;  // !cfg.obs.metrics
  MetricsRegistry* registry_ = nullptr;
  Metrics m_{};

  mutable std::mutex mu_;
  std::condition_variable queue_cv_;  // worker wakeup: request / shutdown
  std::deque<Entry> queue_;           // kept in urgency order
  AdaptiveWindow window_;
  std::vector<double> latencies_us_;  // cfg.record_latencies only
  std::uint64_t next_seq_ = 0;
  std::int64_t virtual_now_ = 0;  // cfg.virtual_time only
  bool stop_ = false;

  std::mutex join_mu_;  // serializes concurrent shutdown() calls
  std::vector<std::thread> workers_;
};

}  // namespace gnnhls
