#include "serve/tcp_endpoint.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <condition_variable>
#include <cstring>
#include <deque>
#include <stdexcept>
#include <utility>

#include "dataset/serialize.h"
#include "obs/trace.h"
#include "serve/status_names.h"
#include "train/feature_cache.h"

namespace gnnhls {

namespace {

[[noreturn]] void throw_errno(const std::string& what) {
  throw std::runtime_error(what + ": " + std::strerror(errno));
}

/// Writes all n bytes or reports failure (peer gone). EINTR-safe;
/// MSG_NOSIGNAL so a dead peer surfaces as EPIPE, not a signal.
bool send_all(int fd, const char* p, std::size_t n) {
  while (n > 0) {
    const ssize_t w = ::send(fd, p, n, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    p += w;
    n -= static_cast<std::size_t>(w);
  }
  return true;
}

void set_nodelay(int fd) {
  int one = 1;
  // Best-effort: Nagle only costs latency, never correctness.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

/// Per-connection state. The reader thread is the only producer of
/// `pending` (push_back under mu), the writer thread the only consumer
/// (erase under mu) — so a reference to an element taken under the lock
/// stays valid across an unlock as long as the writer itself doesn't erase.
struct TcpEndpoint::Connection {
  int fd = -1;

  std::mutex mu;
  std::condition_variable cv;  // writer wakeup: new pending / reader done

  struct Pending {
    std::uint64_t request_id = 0;
    /// Wire-level reject decided on the reader thread: `resp` is final and
    /// `future` was never created.
    bool immediate = false;
    ResponseFrame resp;
    /// Pre-encoded frame bytes (STATS responses); when non-empty the
    /// writer sends these verbatim instead of encoding `resp`.
    std::string raw;
    std::future<double> future;     // scheduler-backed entries only
    std::uint64_t uid = 0;          // decoded sample uid (feature eviction)
    bool counts_inflight = false;   // accepted by the scheduler
  };
  std::deque<Pending> pending;
  int inflight = 0;  // scheduler-accepted, not yet answered
  bool reader_done = false;

  /// Both threads exited; the accept loop may reap (join + close).
  bool finished = false;

  std::thread reader;
  std::thread writer;
};

TcpEndpoint::TcpEndpoint(ServingScheduler& sched, TcpEndpointConfig cfg)
    : sched_(sched), cfg_(cfg) {
  if (cfg_.max_inflight < 1) {
    throw std::runtime_error("TcpEndpointConfig.max_inflight must be >= 1");
  }

  if (cfg_.obs.metrics) {
    registry_ = &MetricsRegistry::global();
  } else {
    own_registry_ = std::make_unique<MetricsRegistry>();
    registry_ = own_registry_.get();
  }
  const std::string inst =
      "ep=\"" + std::to_string(MetricsRegistry::next_instance_id()) + "\"";
  m_.connections_accepted =
      registry_->counter("gnnhls_wire_connections_accepted_total", inst);
  m_.connections_closed =
      registry_->counter("gnnhls_wire_connections_closed_total", inst);
  m_.frames_in = registry_->counter("gnnhls_wire_frames_in_total", inst);
  m_.frames_out = registry_->counter("gnnhls_wire_frames_out_total", inst);
  m_.bytes_in = registry_->counter("gnnhls_wire_bytes_in_total", inst);
  m_.bytes_out = registry_->counter("gnnhls_wire_bytes_out_total", inst);
  m_.decode_errors =
      registry_->counter("gnnhls_wire_decode_errors_total", inst);
  m_.rejects_backpressure =
      registry_->counter("gnnhls_wire_rejects_backpressure_total", inst);
  m_.rejects_payload =
      registry_->counter("gnnhls_wire_rejects_payload_total", inst);
  m_.rejects_sched =
      registry_->counter("gnnhls_wire_rejects_sched_total", inst);
  m_.responses_ok = registry_->counter("gnnhls_wire_responses_ok_total", inst);
  m_.write_failures =
      registry_->counter("gnnhls_wire_write_failures_total", inst);
  m_.stats_requests =
      registry_->counter("gnnhls_wire_stats_requests_total", inst);
  for (std::uint32_t i = 0; i < kNumStatusNames; ++i) {
    m_.responses_by_result[i] = registry_->counter(
        "gnnhls_wire_responses_total",
        inst + ",result=\"" + status_name(i) + "\"");
  }

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) throw_errno("socket");
  int one = 1;
  (void)::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(cfg_.port));
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("bind 127.0.0.1:" + std::to_string(cfg_.port));
  }
  if (::listen(listen_fd_, cfg_.backlog) < 0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("listen");
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len) <
      0) {
    const int saved = errno;
    ::close(listen_fd_);
    errno = saved;
    throw_errno("getsockname");
  }
  port_ = ntohs(bound.sin_port);

  accept_thread_ = std::thread([this] { accept_loop(); });
}

TcpEndpoint::~TcpEndpoint() { stop(); }

void TcpEndpoint::accept_loop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      // stop() shut the listener down (or it died) — either way, exit.
      return;
    }

    // Reap connections that finished naturally (client disconnected) so a
    // long-running server doesn't accumulate dead threads until stop().
    std::vector<std::shared_ptr<Connection>> dead;
    {
      std::lock_guard<std::mutex> lock(conns_mu_);
      if (stopping_) {
        ::close(fd);
        return;
      }
      for (auto it = conns_.begin(); it != conns_.end();) {
        bool finished;
        {
          std::lock_guard<std::mutex> clock((*it)->mu);
          finished = (*it)->finished;
        }
        if (finished) {
          dead.push_back(std::move(*it));
          it = conns_.erase(it);
        } else {
          ++it;
        }
      }

      set_nodelay(fd);
      auto conn = std::make_shared<Connection>();
      conn->fd = fd;
      conn->reader = std::thread([this, conn] { reader_loop(conn); });
      conn->writer = std::thread([this, conn] { writer_loop(conn); });
      conns_.push_back(std::move(conn));
    }
    m_.connections_accepted->add();
    for (auto& c : dead) {
      c->reader.join();
      c->writer.join();
      ::close(c->fd);
    }
  }
}

void TcpEndpoint::reader_loop(std::shared_ptr<Connection> conn) {
  WireDecoder decoder(cfg_.max_frame_bytes);
  char buf[4096];
  bool poisoned = false;
  for (;;) {
    ssize_t n;
    {
      const ObsSpan span(cfg_.obs.trace, "tcp_read", "net");
      do {
        n = ::recv(conn->fd, buf, sizeof(buf), 0);
      } while (n < 0 && errno == EINTR);
    }
    if (n <= 0) break;  // EOF, error, or stop()'s shutdown(SHUT_RD)
    m_.bytes_in->add(static_cast<std::uint64_t>(n));
    decoder.feed(buf, static_cast<std::size_t>(n));

    for (;;) {
      DecodedFrame frame;
      WireStatus st;
      {
        const ObsSpan span(cfg_.obs.trace, "frame_decode", "net");
        st = decoder.next(frame);
      }
      if (st != WireStatus::kFrame) {
        if (wire_status_is_error(st)) poisoned = true;
        break;
      }
      m_.frames_in->add();
      if (frame.type == kWireTypeRequest) {
        handle_request(*conn, std::move(frame.request));
      } else if (frame.type == kWireTypeStatsRequest) {
        handle_stats_request(*conn, frame.stats);
      }
      // A response-type frame from a client carries nothing we can act on;
      // it decodes (framing intact) and is dropped.
    }
    if (poisoned) break;
  }
  if (poisoned) m_.decode_errors->add();
  {
    std::lock_guard<std::mutex> lock(conn->mu);
    conn->reader_done = true;
  }
  conn->cv.notify_all();
}

void TcpEndpoint::handle_request(Connection& conn, RequestFrame&& req) {
  const ObsSpan span(cfg_.obs.trace, "admission", "net");
  Connection::Pending p;
  p.request_id = req.request_id;

  DecodedSample decoded = decode_sample_payload(req.payload);
  if (!decoded.ok()) {
    p.immediate = true;
    p.resp = ResponseFrame{req.request_id, WireResult::kBadPayload, 0.0};
    m_.rejects_payload->add();
  } else if (req.model >= static_cast<std::uint32_t>(sched_.num_models())) {
    p.immediate = true;
    p.resp = ResponseFrame{req.request_id, WireResult::kBadModel, 0.0};
    m_.rejects_payload->add();
  }

  {
    std::lock_guard<std::mutex> lock(conn.mu);
    if (!p.immediate) {
      if (conn.inflight >= cfg_.max_inflight) {
        p.immediate = true;
        p.resp = ResponseFrame{req.request_id,
                               WireResult::kOverConnectionLimit, 0.0};
        m_.rejects_backpressure->add();
      } else {
        // Decoded once; from here the sample travels by shared_ptr only.
        p.uid = decoded.sample->uid;
        SubmitOptions opts;
        opts.deadline_us = req.deadline_us;
        opts.priority = req.priority;
        ServingScheduler::Ticket ticket =
            sched_.submit(static_cast<int>(req.model),
                          std::shared_ptr<const Sample>(decoded.sample),
                          opts);
        p.future = std::move(ticket.future);
        if (ticket.accepted()) {
          p.counts_inflight = true;
          ++conn.inflight;
        }
      }
    }
    conn.pending.push_back(std::move(p));
  }
  conn.cv.notify_all();
}

void TcpEndpoint::handle_stats_request(Connection& conn,
                                       const StatsFrame& req) {
  // Rendered on the reader thread (the writer only moves bytes) and
  // enqueued like any immediate response, so a scrape never jumps the
  // queue ahead of answers already pending.
  m_.stats_requests->add();
  StatsFrame resp;
  resp.request_id = req.request_id;
  resp.text = render_stats_text();
  Connection::Pending p;
  p.request_id = req.request_id;
  p.immediate = true;
  p.raw = encode_stats_response_frame(resp);
  {
    std::lock_guard<std::mutex> lock(conn.mu);
    conn.pending.push_back(std::move(p));
  }
  conn.cv.notify_all();
}

std::string TcpEndpoint::render_stats_text() const {
  std::string text = registry_->render_text();
  // The scheduler may publish to a different registry (e.g. endpoint
  // private, scheduler global or vice versa) — render both, once.
  if (&sched_.metrics_registry() != registry_) {
    text += sched_.metrics_registry().render_text();
  }
  return text;
}

void TcpEndpoint::write_response(Connection& conn, const ResponseFrame& resp) {
  const ObsSpan span(cfg_.obs.trace, "write_back", "net");
  const std::string bytes = encode_response_frame(resp);
  const bool ok = send_all(conn.fd, bytes.data(), bytes.size());
  if (ok) {
    m_.frames_out->add();
    m_.bytes_out->add(bytes.size());
    m_.responses_by_result[static_cast<std::uint32_t>(resp.result)]->add();
  } else {
    m_.write_failures->add();
  }
}

void TcpEndpoint::write_raw_frame(Connection& conn, const std::string& bytes) {
  const ObsSpan span(cfg_.obs.trace, "write_back", "net");
  const bool ok = send_all(conn.fd, bytes.data(), bytes.size());
  if (ok) {
    m_.frames_out->add();
    m_.bytes_out->add(bytes.size());
  } else {
    m_.write_failures->add();
  }
}

void TcpEndpoint::writer_loop(std::shared_ptr<Connection> conn) {
  constexpr std::size_t kNone = static_cast<std::size_t>(-1);
  std::unique_lock<std::mutex> lock(conn->mu);
  for (;;) {
    if (conn->pending.empty()) {
      if (conn->reader_done) break;
      conn->cv.wait(lock);
      continue;
    }
    // Answer ANY pending entry whose result is ready — responses go out as
    // futures resolve, not in strict request order.
    std::size_t idx = kNone;
    for (std::size_t i = 0; i < conn->pending.size(); ++i) {
      Connection::Pending& p = conn->pending[i];
      if (p.immediate || p.future.wait_for(std::chrono::seconds(0)) ==
                             std::future_status::ready) {
        idx = i;
        break;
      }
    }
    if (idx == kNone) {
      // Nothing ready: block (bounded) on the oldest future, outside the
      // lock so the reader keeps accepting. The reference stays valid —
      // the reader only push_backs and this thread is the only eraser.
      Connection::Pending& head = conn->pending.front();
      lock.unlock();
      head.future.wait_for(std::chrono::milliseconds(1));
      lock.lock();
      continue;
    }
    Connection::Pending p = std::move(conn->pending[idx]);
    conn->pending.erase(conn->pending.begin() +
                        static_cast<std::ptrdiff_t>(idx));
    lock.unlock();

    ResponseFrame resp;
    if (p.immediate) {
      resp = p.resp;
    } else {
      resp.request_id = p.request_id;
      try {
        resp.prediction = p.future.get();
        resp.result = WireResult::kOk;
      } catch (const SchedReject& e) {
        resp.result = wire_result_from_admit(e.status());
      } catch (const std::exception&) {
        resp.result = WireResult::kInternalError;
      }
      if (resp.result == WireResult::kOk) {
        m_.responses_ok->add();
      } else {
        m_.rejects_sched->add();
      }
      // The future resolved, so no forward can still be reading this
      // sample's cached features — safe to drop them.
      if (p.uid != 0) {
        FeatureCache::global().evict(p.uid);
      }
    }
    // Free the admission slot BEFORE the response bytes go out: a client
    // that reacts to the response immediately (send-one-wait-one) must
    // never race the decrement into a spurious over-limit reject.
    if (p.counts_inflight) {
      lock.lock();
      --conn->inflight;
      lock.unlock();
    }
    if (!p.raw.empty()) {
      write_raw_frame(*conn, p.raw);
    } else {
      write_response(*conn, resp);
    }
    lock.lock();
  }
  // Drained: tell the peer no more responses are coming (FIN), keep the fd
  // open for the reap/stop path to close. The connection counts as closed
  // here — both threads are done with it; reap/stop only reclaims the fd.
  ::shutdown(conn->fd, SHUT_WR);
  conn->finished = true;
  lock.unlock();
  m_.connections_closed->add();
}

void TcpEndpoint::stop() {
  // Serializes concurrent stop() calls; a second call finds the listener
  // closed and the connection list empty and is a no-op.
  std::lock_guard<std::mutex> stop_lock(stop_mu_);
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    stopping_ = true;
  }
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }

  std::vector<std::shared_ptr<Connection>> conns;
  {
    std::lock_guard<std::mutex> lock(conns_mu_);
    conns.swap(conns_);
  }
  // Unblock every reader; readers mark done, writers drain every pending
  // entry (each future resolves with a value or a SchedReject), then exit.
  for (auto& c : conns) ::shutdown(c->fd, SHUT_RD);
  for (auto& c : conns) {
    c->reader.join();
    c->writer.join();
    ::close(c->fd);
  }
}

WireStats TcpEndpoint::stats() const {
  WireStats out;
  out.connections_accepted = m_.connections_accepted->value();
  out.connections_closed = m_.connections_closed->value();
  out.frames_in = m_.frames_in->value();
  out.frames_out = m_.frames_out->value();
  out.bytes_in = m_.bytes_in->value();
  out.bytes_out = m_.bytes_out->value();
  out.decode_errors = m_.decode_errors->value();
  out.rejects_backpressure = m_.rejects_backpressure->value();
  out.rejects_payload = m_.rejects_payload->value();
  out.rejects_sched = m_.rejects_sched->value();
  out.responses_ok = m_.responses_ok->value();
  out.stats_requests = m_.stats_requests->value();
  out.write_failures = m_.write_failures->value();
  return out;
}

// ----- TcpClient -----

TcpClient::TcpClient(int port) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) throw_errno("socket");
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const int saved = errno;
    ::close(fd_);
    fd_ = -1;
    errno = saved;
    throw_errno("connect 127.0.0.1:" + std::to_string(port));
  }
  set_nodelay(fd_);
}

TcpClient::~TcpClient() { close(); }

bool TcpClient::send_request(const RequestFrame& req) {
  return send_raw(encode_request_frame(req));
}

bool TcpClient::send_stats_request(std::uint64_t request_id) {
  StatsFrame f;
  f.request_id = request_id;
  return send_raw(encode_stats_request_frame(f));
}

bool TcpClient::send_raw(const std::string& bytes) {
  if (fd_ < 0) return false;
  return send_all(fd_, bytes.data(), bytes.size());
}

bool TcpClient::recv_response(ResponseFrame& out) {
  if (fd_ < 0) return false;
  char buf[4096];
  for (;;) {
    DecodedFrame frame;
    const WireStatus st = decoder_.next(frame);
    if (st == WireStatus::kFrame) {
      if (frame.type == kWireTypeResponse) {
        out = frame.response;
        return true;
      }
      continue;  // not a response; keep reading
    }
    if (st != WireStatus::kNeedMore) return false;  // poisoned stream
    ssize_t n;
    do {
      n = ::recv(fd_, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;  // EOF before a full response
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

bool TcpClient::recv_stats_response(StatsFrame& out) {
  if (fd_ < 0) return false;
  char buf[4096];
  for (;;) {
    DecodedFrame frame;
    const WireStatus st = decoder_.next(frame);
    if (st == WireStatus::kFrame) {
      if (frame.type == kWireTypeStatsResponse) {
        out = std::move(frame.stats);
        return true;
      }
      continue;  // not a stats response; keep reading
    }
    if (st != WireStatus::kNeedMore) return false;  // poisoned stream
    ssize_t n;
    do {
      n = ::recv(fd_, buf, sizeof(buf), 0);
    } while (n < 0 && errno == EINTR);
    if (n <= 0) return false;  // EOF before a full response
    decoder_.feed(buf, static_cast<std::size_t>(n));
  }
}

void TcpClient::shutdown_write() {
  if (fd_ >= 0) ::shutdown(fd_, SHUT_WR);
}

void TcpClient::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

}  // namespace gnnhls
