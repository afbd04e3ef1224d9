// TCP serving front-end over ServingScheduler — the network half of the
// ROADMAP's multi-tenant serving tier.
//
// A TcpEndpoint owns a listening socket and serves the wire protocol of
// serve/wire.h with plain POSIX sockets (no dependencies): one accept-loop
// thread, and per accepted connection a reader thread plus a writer thread.
//
//   reader: recv -> WireDecoder -> decode_sample_payload (ONE decode; the
//           sample travels as shared_ptr<const Sample>, never deep-copied)
//           -> ServingScheduler::submit -> pending response queue
//   writer: waits on the pending futures IN ARRIVAL ORDER-ish (any ready
//           future is answered as soon as it resolves; responses may
//           therefore be reordered relative to requests — clients match on
//           the echoed request id) -> encode_response_frame -> send
//
// Backpressure: a connection may have at most cfg.max_inflight requests
// submitted-but-unanswered. The reader rejects request number
// max_inflight+1 immediately with kOverConnectionLimit WITHOUT submitting
// it to the scheduler, so one greedy client cannot monopolize the shared
// queue. Wire-level rejections (bad payload, bad model, over-limit) are
// answered inline in wire order; only scheduler-admitted requests occupy
// in-flight slots.
//
// Fault containment: any malformed input (garbage header, oversized length
// prefix, short body, or a stream that just stops mid-frame) poisons that
// connection's decoder — the endpoint counts a decode error, drains what it
// already accepted and closes that connection. Other connections and the
// scheduler are untouched. Mid-request disconnects are absorbed: the
// scheduler still serves the request, the writer's send fails, the counter
// write_failures records it, nothing crashes or leaks.
//
// Graceful drain: stop() (or the destructor) closes the listener, shuts
// down each connection's read side, then JOINS writers — every frame that
// was accepted and submitted gets its future resolved (the scheduler's own
// drain guarantees resolution) and its response written (or a counted
// write failure if the peer is gone). Stop the endpoint BEFORE the
// scheduler to drain with predictions; stopping the scheduler first is
// also safe — pending futures fail with SchedReject and drain as reject
// frames.
//
// Determinism: the endpoint never touches values. A prediction served over
// a loopback socket is bit-identical to sequential QorPredictor::predict —
// the payload codec round-trips tensors bitwise and the scheduler's own
// contract does the rest (gated for all 14 encoder kinds by
// tests/tcp_endpoint_test.cpp and bench_serving's socket arm).
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "obs/metrics.h"
#include "obs/obs_config.h"
#include "serve/scheduler.h"
#include "serve/serve_stats.h"
#include "serve/status_names.h"
#include "serve/wire.h"

namespace gnnhls {

struct TcpEndpointConfig {
  /// Port to bind on 127.0.0.1. 0 = ephemeral (kernel-assigned; read it
  /// back with port() — tests and the loopback bench use this).
  int port = 0;
  /// listen() backlog.
  int backlog = 64;
  /// Per-connection cap on submitted-but-unanswered requests; requests
  /// beyond it are rejected with kOverConnectionLimit. >= 1.
  int max_inflight = 64;
  /// Largest accepted frame body; bigger length prefixes poison the
  /// connection with kOversized.
  std::size_t max_frame_bytes = kWireDefaultMaxBody;
  /// Observability knobs (obs/obs_config.h). Note the STATS wire frame is
  /// part of the protocol, not of observability: it is always answered,
  /// rendering whatever registries back this endpoint and its scheduler
  /// (the global one when obs.metrics, the private ones otherwise).
  ObsConfig obs;
};

class TcpEndpoint {
 public:
  /// Binds, listens and starts the accept loop. The scheduler is borrowed
  /// and must outlive stop(). Throws std::runtime_error if the socket
  /// cannot be bound.
  TcpEndpoint(ServingScheduler& sched, TcpEndpointConfig cfg = {});

  /// stop()s if still running.
  ~TcpEndpoint();

  TcpEndpoint(const TcpEndpoint&) = delete;
  TcpEndpoint& operator=(const TcpEndpoint&) = delete;

  /// The bound port (the kernel's pick when cfg.port == 0).
  int port() const { return port_; }

  /// Graceful drain: stop accepting, close every connection's read side,
  /// answer everything already accepted, join all threads. Idempotent.
  void stop();

  /// Snapshot of the wire counters. Since PR 9 the counters are striped
  /// registry atomics (obs/metrics.h) updated lock-free on the hot paths;
  /// the snapshot is exact whenever the endpoint's threads are quiescent
  /// (connections drained, or after stop()) and monotonically fresh
  /// mid-flight.
  WireStats stats() const;

  /// The registry holding this endpoint's wire metrics:
  /// MetricsRegistry::global() when cfg.obs.metrics, else a private
  /// per-instance registry. Series carry an `ep="<instance>"` label.
  MetricsRegistry& metrics_registry() const { return *registry_; }

  /// What a STATS wire frame answers: this endpoint's registry rendered as
  /// text, plus the scheduler's registry when it is a different one.
  std::string render_stats_text() const;

  const TcpEndpointConfig& config() const { return cfg_; }

 private:
  struct Connection;

  /// Registry-backed counters behind the WireStats facade. Incremented
  /// without any lock (striped relaxed atomics).
  struct Metrics {
    Counter* connections_accepted;
    Counter* connections_closed;
    Counter* frames_in;
    Counter* frames_out;
    Counter* bytes_in;
    Counter* bytes_out;
    Counter* decode_errors;
    Counter* rejects_backpressure;
    Counter* rejects_payload;
    Counter* rejects_sched;
    Counter* responses_ok;
    Counter* write_failures;
    Counter* stats_requests;
    /// Responses by result code, one series per WireResult value
    /// (labels from serve/status_names.h).
    Counter* responses_by_result[kNumStatusNames];
  };

  void accept_loop();
  void reader_loop(std::shared_ptr<Connection> conn);
  void writer_loop(std::shared_ptr<Connection> conn);
  /// Handles one decoded request frame on the reader thread: decode the
  /// payload, enforce backpressure, submit, enqueue the pending response.
  void handle_request(Connection& conn, RequestFrame&& req);
  /// Handles one STATS request frame on the reader thread: renders the
  /// registries and enqueues the pre-encoded response.
  void handle_stats_request(Connection& conn, const StatsFrame& req);
  /// Encodes + sends one response on the writer thread, updating stats.
  void write_response(Connection& conn, const ResponseFrame& resp);
  /// Sends pre-encoded frame bytes on the writer thread, updating stats.
  void write_raw_frame(Connection& conn, const std::string& bytes);

  ServingScheduler& sched_;
  const TcpEndpointConfig cfg_;
  int listen_fd_ = -1;
  int port_ = 0;

  std::unique_ptr<MetricsRegistry> own_registry_;  // !cfg.obs.metrics
  MetricsRegistry* registry_ = nullptr;
  Metrics m_{};

  std::mutex conns_mu_;  // guards conns_ and stopping_
  std::vector<std::shared_ptr<Connection>> conns_;
  bool stopping_ = false;

  std::mutex stop_mu_;  // serializes concurrent stop() calls
  std::thread accept_thread_;
};

/// Minimal blocking client for the wire protocol — what the loopback tests,
/// the bench's socket arm and the serve_tcp example speak. One socket, not
/// thread-safe; NOT part of the serving surface (a real client just needs
/// the ~40 lines of framing in wire.h).
class TcpClient {
 public:
  /// Connects to 127.0.0.1:port. Throws std::runtime_error on failure.
  explicit TcpClient(int port);
  ~TcpClient();

  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Sends one request frame. Returns false if the connection is gone.
  bool send_request(const RequestFrame& req);
  /// Sends one STATS request frame (the metrics scrape).
  bool send_stats_request(std::uint64_t request_id);
  /// Sends raw bytes verbatim (fault-injection tests tear frames apart).
  bool send_raw(const std::string& bytes);
  /// Blocks for the next response frame. Returns false on EOF/poison.
  bool recv_response(ResponseFrame& out);
  /// Blocks for the next STATS response frame (skipping other frame
  /// types). Returns false on EOF/poison.
  bool recv_stats_response(StatsFrame& out);
  /// Half-close the write side (tells the server no more requests).
  void shutdown_write();
  /// Hard close (mid-request disconnect in fault tests).
  void close();

  int fd() const { return fd_; }

 private:
  int fd_ = -1;
  WireDecoder decoder_;
};

}  // namespace gnnhls
