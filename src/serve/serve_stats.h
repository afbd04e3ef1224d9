// Counters published by the serving tier: SchedStats by the shared-queue
// ServingScheduler (see serve/scheduler.h), WireStats by the TCP endpoint
// in front of it (see serve/tcp_endpoint.h).
//
// A SchedStats value is a consistent snapshot: every field was read under the
// scheduler's queue lock in one critical section, so invariants like
// `completed <= submitted` and `flush_full + flush_timeout + flush_drain ==
// batches` hold within a single snapshot. Snapshots are plain values —
// copy, diff and print them freely (bench_serving diffs two snapshots to
// report per-phase batch-size distributions).
#pragma once

#include <cstdint>
#include <vector>

namespace gnnhls {

/// Snapshot of the shared-queue multi-model scheduler.
struct SchedStats {
  /// Requests accepted into the queue (excludes every rejection below).
  std::uint64_t submitted = 0;
  /// Requests whose micro-batch forward has run. Counted just before the
  /// promises are fulfilled, so a caller whose future.get() has returned
  /// always observes its own request here.
  std::uint64_t completed = 0;
  /// Completed requests that were answered by their deadline (requests
  /// without a deadline always count). completed - completed_in_deadline
  /// is the "served but late" tail; goodput uses this field.
  std::uint64_t completed_in_deadline = 0;
  /// Rejections at submit(): deadline already expired on arrival, ...
  std::uint64_t shed_expired = 0;
  /// ... queue at max_queue capacity (admission control), ...
  std::uint64_t shed_capacity = 0;
  /// ... or scheduler already shut down.
  std::uint64_t rejected_shutdown = 0;
  /// Accepted requests whose deadline expired while queued; failed fast
  /// with SchedReject(kExpired) instead of wasting a forward (load
  /// shedding under overload).
  std::uint64_t shed_in_queue = 0;
  /// Forward passes run (each serves one micro-batch of 1..max_batch).
  std::uint64_t batches = 0;
  /// Window-close reasons, one increment per batch:
  /// the queue reached max_batch before the window timer expired, ...
  std::uint64_t flush_full = 0;
  /// ... the batch window elapsed with 1..max_batch-1 requests waiting, ...
  std::uint64_t flush_timeout = 0;
  /// ... or shutdown() drained the remaining queue.
  std::uint64_t flush_drain = 0;
  /// Largest micro-batch served so far (<= configured max_batch).
  int max_batch_seen = 0;
  /// Adaptive batch window at snapshot time, and how often the rule moved
  /// it (grow under backlog, shrink when the queue drains; see
  /// serve/scheduler.h AdaptiveWindow).
  std::int64_t window_us = 0;
  std::uint64_t window_grows = 0;
  std::uint64_t window_shrinks = 0;
  /// Requests completed per registered model, in model-id order (the
  /// multi-model fairness observable).
  std::vector<std::uint64_t> per_model_completed;

  /// Mean graphs per forward pass — the amortization micro-batching exists
  /// to create (1.0 means every request paid a full forward on its own).
  double avg_batch() const {
    return batches == 0
               ? 0.0
               : static_cast<double>(completed) / static_cast<double>(batches);
  }
  /// Everything dropped instead of served (expired at submit, over
  /// capacity, expired in queue). Excludes rejected_shutdown: those are
  /// caller errors, not load shedding.
  std::uint64_t shed_total() const {
    return shed_expired + shed_capacity + shed_in_queue;
  }
};

/// Snapshot of the TCP endpoint's wire-level counters (serve/tcp_endpoint.h).
/// Since PR 9 the counters live in lock-free striped registry atomics
/// (obs/metrics.h), so a mid-flight snapshot is monotonically fresh rather
/// than a single critical section; once the endpoint's threads are
/// quiescent (connections drained, or after stop()) every field is exact
/// and the invariants `responses_ok + rejects_* + write_failures <=
/// frames_in` and `frames_out + write_failures == answered frames` hold.
struct WireStats {
  /// Connections the accept loop handed to a reader thread / reader threads
  /// that have fully torn down (close waits for the writer to drain, so
  /// `closed == accepted` once the endpoint is quiesced).
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_closed = 0;
  /// Complete request frames decoded off sockets / response frames whose
  /// bytes were fully written back.
  std::uint64_t frames_in = 0;
  std::uint64_t frames_out = 0;
  /// Payload bytes received/sent (headers + bodies, successful writes only).
  std::uint64_t bytes_in = 0;
  std::uint64_t bytes_out = 0;
  /// Connections closed because the wire stream lost framing (bad magic,
  /// unsupported major version, oversized length prefix, short body). One
  /// increment per poisoned connection — after the first malformed byte the
  /// stream is unrecoverable, so there is nothing more to count.
  std::uint64_t decode_errors = 0;
  /// Requests answered with kOverConnectionLimit (per-connection in-flight
  /// cap; never submitted to the scheduler).
  std::uint64_t rejects_backpressure = 0;
  /// Requests answered with kBadPayload / kBadModel (decoded frame was
  /// well-framed but unusable; never submitted to the scheduler).
  std::uint64_t rejects_payload = 0;
  /// Requests the scheduler rejected or shed (kExpired / kOverCapacity /
  /// kShutdown relayed from AdmitStatus, plus in-queue expiry).
  std::uint64_t rejects_sched = 0;
  /// Requests answered with result kOk and a prediction.
  std::uint64_t responses_ok = 0;
  /// STATS scrape frames answered (wire type 3). Protocol surface, not
  /// observability: served regardless of ObsConfig.
  std::uint64_t stats_requests = 0;
  /// Responses that could not be written (peer hung up mid-answer). The
  /// request was still fully served; only the answer was undeliverable.
  std::uint64_t write_failures = 0;
};

}  // namespace gnnhls
