// Serving bench: closed-loop latency/throughput across the micro-batching
// knobs, plus an open-loop saturation sweep of the shared-queue scheduler.
//
// Part 1 (closed loop): fits one off-the-shelf RGCN predictor, then drives
// a one-model ServingScheduler (one worker, static window) with --clients
// submitter threads, each submitting --requests samples one at a time and
// blocking on the future (the DSE searcher pattern: every thread holds
// exactly one in-flight candidate).
// Expected shape: micro-batching (max-batch > 1) wins graphs/sec over the
// unbatched baseline because one GraphBatch forward amortizes tape
// construction over the whole batch, at the price of the queueing delay the
// window introduces.
//
// Part 2 (open loop): seeded Poisson arrivals sweep offered load at
// 0.5x/1x/2x/4x of a base rate (--arrival-rate, default the measured
// sequential capacity), scoring all four metrics round-robin with a
// per-request deadline (--deadline-us). Two arms at equal thread budget:
// the "batcher" arm, one single-worker static-window scheduler per metric
// (4 worker threads, no deadlines — every request is answered,
// eventually), vs ONE shared-queue ServingScheduler carrying all 4 models
// (same number of workers, deadline-aware shedding, adaptive windows).
// Reports p50/p99/p999 latency, goodput (answers within deadline per
// second) and shed rate per rate point. The expected shape — and the
// reason the shared queue exists — is that past saturation the batcher
// arm's goodput collapses (unbounded queueing answers everything late)
// while the scheduler sheds expired requests and keeps serving fresh ones
// inside their deadline.
//
// Part 2.5 (socket arm): the same open-loop Poisson traffic replayed over
// a real loopback TCP connection through serve/tcp_endpoint.h — every
// request is text-encoded, framed, sent, decoded server-side and submitted
// to the shared scheduler; responses return over the same socket. Reports
// socket-path goodput and client-observed RTT percentiles next to the
// in-process arms (the delta IS the wire tax), plus the endpoint's
// wire-level counters. Served values must stay bit-identical through the
// whole encode/frame/decode/schedule path — gated like every other
// bit-identity check.
//
// Part 3 (hard gate): scheduled predictions must be bit-identical to
// sequential QorPredictor::predict across batch compositions for all 14
// encoder kinds. Like the closed-loop bit-identity check, main() exits 1 on
// any divergence (CI runs this as a smoke gate). All throughput/shape
// checks stay report-only — they are load-dependent and must not flake CI.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <exception>
#include <future>
#include <thread>

#include "bench_common.h"
#include "dataset/serialize.h"
#include "gnn/encoders.h"
#include "serve/scheduler.h"
#include "serve/tcp_endpoint.h"
#include "serve/wire.h"

namespace gnnhls::bench {
namespace {

struct LoadResult {
  double wall_s = 0.0;
  double graphs_per_s = 0.0;
  double p50_us = 0.0;
  double p99_us = 0.0;
  SchedStats stats;
  bool bit_identical = true;
};

double percentile(std::vector<double>& v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t i = static_cast<std::size_t>(
      p * static_cast<double>(v.size() - 1) + 0.5);
  return v[std::min(i, v.size() - 1)];
}

/// Closed-loop load on a one-model scheduler: `clients` threads, one
/// outstanding request each. `expected[i]` is the sequential predict()
/// value for samples[idx[i]].
LoadResult run_load(const QorPredictor& predictor,
                    const std::vector<Sample>& samples,
                    const std::vector<int>& idx,
                    const std::vector<double>& expected, SchedulerConfig sc,
                    int clients, int requests) {
  ServingScheduler sched({&predictor}, sc);
  std::vector<std::vector<double>> latencies(
      static_cast<std::size_t>(clients));
  std::atomic<int> mismatches{0};
  Timer wall;
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(clients));
  for (int c = 0; c < clients; ++c) {
    threads.emplace_back([&, c] {
      auto& lat = latencies[static_cast<std::size_t>(c)];
      lat.reserve(static_cast<std::size_t>(requests));
      for (int r = 0; r < requests; ++r) {
        const std::size_t pick =
            static_cast<std::size_t>(c * 131 + r * 7) % idx.size();
        const Sample& s = samples[static_cast<std::size_t>(idx[pick])];
        Timer t;
        const double served = sched.submit(0, s).future.get();
        lat.push_back(t.seconds() * 1e6);
        if (served != expected[pick]) ++mismatches;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  LoadResult res;
  res.wall_s = wall.seconds();
  res.stats = sched.stats();
  res.bit_identical = mismatches.load() == 0;
  const double total =
      static_cast<double>(clients) * static_cast<double>(requests);
  res.graphs_per_s = res.wall_s > 0.0 ? total / res.wall_s : 0.0;
  std::vector<double> all;
  all.reserve(static_cast<std::size_t>(total));
  for (auto& lat : latencies) all.insert(all.end(), lat.begin(), lat.end());
  res.p50_us = percentile(all, 0.50);
  res.p99_us = percentile(all, 0.99);
  return res;
}

// ----- open-loop saturation sweep -----

/// One precomputed open-loop request: fires at `at_us` (relative to the
/// phase start), scores `metric` on idx[pick].
struct Arrival {
  std::int64_t at_us;
  int metric;
  std::size_t pick;
};

/// Seeded Poisson schedule: exponential inter-arrival gaps at `rate_per_s`,
/// metrics round-robin, sample picks deterministic. The same (seed, rate,
/// n) always produces the same offered load, so both arms and repeat runs
/// replay identical traffic.
std::vector<Arrival> poisson_schedule(std::uint64_t seed, double rate_per_s,
                                      int n, std::size_t num_picks) {
  Rng rng(seed);
  std::vector<Arrival> arrivals;
  arrivals.reserve(static_cast<std::size_t>(n));
  double t_us = 0.0;
  const double rate_per_us = rate_per_s / 1e6;
  for (int i = 0; i < n; ++i) {
    // Inverse-CDF exponential sample; uniform() is in [0, 1) so 1-u > 0.
    t_us += -std::log(1.0 - rng.uniform()) / rate_per_us;
    arrivals.push_back(Arrival{static_cast<std::int64_t>(t_us),
                               i % kNumMetrics,
                               static_cast<std::size_t>(i * 7) % num_picks});
  }
  return arrivals;
}

struct OpenLoopResult {
  double wall_s = 0.0;
  double goodput_per_s = 0.0;  // answers within deadline / sec
  double p50_us = 0.0;
  double p99_us = 0.0;
  double p999_us = 0.0;
  double shed_rate = 0.0;  // shed / offered
  bool bit_identical = true;
};

void fill_percentiles(std::vector<double>& lat, OpenLoopResult& r) {
  r.p50_us = percentile(lat, 0.50);
  r.p99_us = percentile(lat, 0.99);
  r.p999_us = percentile(lat, 0.999);
}

/// Replays `arrivals` against per-metric predictors through `submit`, which
/// hides which arm is serving. Pacing: one submitter thread sleeps until
/// each arrival time — open loop, so it never waits for answers.
template <typename SubmitFn>
double replay_arrivals(const std::vector<Arrival>& arrivals,
                       SubmitFn&& submit) {
  Timer wall;
  const auto start = std::chrono::steady_clock::now();
  for (const Arrival& a : arrivals) {
    std::this_thread::sleep_until(start + std::chrono::microseconds(a.at_us));
    submit(a);
  }
  return wall.seconds();  // submission time only; callers add drain time
}

/// Arm A ("batcher"): one single-worker static-window scheduler per
/// metric, no deadlines — the design before the shared queue. Every
/// request is served; goodput counts the ones that happened to finish
/// within `deadline_us`.
OpenLoopResult run_open_loop_batchers(
    const std::vector<const QorPredictor*>& models,
    const std::vector<Sample>& samples, const std::vector<int>& idx,
    const std::vector<std::vector<double>>& expected,
    const std::vector<Arrival>& arrivals, SchedulerConfig sc,
    std::int64_t deadline_us) {
  sc.record_latencies = true;
  std::vector<std::unique_ptr<ServingScheduler>> batchers;
  for (const QorPredictor* m : models) {
    batchers.push_back(
        std::make_unique<ServingScheduler>(std::vector{m}, sc));
  }
  std::vector<std::pair<const Arrival*, std::future<double>>> futures;
  futures.reserve(arrivals.size());
  Timer wall;
  replay_arrivals(arrivals, [&](const Arrival& a) {
    const Sample& s = samples[static_cast<std::size_t>(idx[a.pick])];
    ServingScheduler& b = *batchers[static_cast<std::size_t>(a.metric)];
    futures.emplace_back(&a, b.submit(0, s).future);
  });
  for (auto& b : batchers) b->shutdown();  // drain: everything answered
  OpenLoopResult r;
  r.wall_s = wall.seconds();
  std::vector<double> lat;
  std::uint64_t in_deadline = 0;
  for (auto& [a, f] : futures) {
    const double served = f.get();
    if (served !=
        expected[static_cast<std::size_t>(a->metric)][a->pick]) {
      r.bit_identical = false;
    }
  }
  for (auto& b : batchers) {
    for (double l : b->take_latencies_us()) {
      lat.push_back(l);
      if (static_cast<std::int64_t>(l) <= deadline_us) ++in_deadline;
    }
  }
  fill_percentiles(lat, r);
  r.goodput_per_s =
      r.wall_s > 0.0 ? static_cast<double>(in_deadline) / r.wall_s : 0.0;
  r.shed_rate = 0.0;  // the batcher arm never sheds — it only answers late
  return r;
}

/// Arm B: ONE shared-queue scheduler carrying every metric's model, same
/// worker-thread budget, per-request deadlines. Expired requests are shed;
/// goodput counts answers within deadline.
OpenLoopResult run_open_loop_scheduler(
    const std::vector<const QorPredictor*>& models,
    const std::vector<Sample>& samples, const std::vector<int>& idx,
    const std::vector<std::vector<double>>& expected,
    const std::vector<Arrival>& arrivals, SchedulerConfig sc,
    std::int64_t deadline_us, int priority) {
  sc.record_latencies = true;
  ServingScheduler sched(models, sc);
  SubmitOptions opts;
  opts.deadline_us = deadline_us;
  opts.priority = priority;
  std::vector<std::pair<const Arrival*, std::future<double>>> futures;
  futures.reserve(arrivals.size());
  Timer wall;
  replay_arrivals(arrivals, [&](const Arrival& a) {
    const Sample& s = samples[static_cast<std::size_t>(idx[a.pick])];
    futures.emplace_back(&a, sched.submit(a.metric, s, opts).future);
  });
  sched.shutdown();  // drain: serves what is still live, sheds the expired
  OpenLoopResult r;
  r.wall_s = wall.seconds();
  for (auto& [a, f] : futures) {
    try {
      const double served = f.get();
      if (served !=
          expected[static_cast<std::size_t>(a->metric)][a->pick]) {
        r.bit_identical = false;
      }
    } catch (const SchedReject&) {
      // Shed under load — counted below from the scheduler's stats.
    }
  }
  const SchedStats st = sched.stats();
  std::vector<double> lat = sched.take_latencies_us();
  fill_percentiles(lat, r);
  r.goodput_per_s =
      r.wall_s > 0.0
          ? static_cast<double>(st.completed_in_deadline) / r.wall_s
          : 0.0;
  r.shed_rate = arrivals.empty()
                    ? 0.0
                    : static_cast<double>(st.shed_total()) /
                          static_cast<double>(arrivals.size());
  return r;
}

/// Arm C (socket): the same offered load replayed over a loopback TCP
/// connection — one paced sender thread (open loop, never waits for
/// answers) and one receiver thread collecting response frames until the
/// endpoint's drain closes the stream. request_id indexes the arrival, so
/// every response maps back to its (metric, pick) for the bit-identity
/// check and its client-observed RTT.
struct SocketResult {
  OpenLoopResult ol;
  WireStats wire;
};

SocketResult run_open_loop_socket(
    const std::vector<const QorPredictor*>& models,
    const std::vector<Sample>& samples, const std::vector<int>& idx,
    const std::vector<std::vector<double>>& expected,
    const std::vector<Arrival>& arrivals, SchedulerConfig sc,
    std::int64_t deadline_us, int priority, int port, int max_inflight) {
  ServingScheduler sched(models, sc);
  TcpEndpointConfig ecfg;
  ecfg.port = port;
  ecfg.max_inflight = max_inflight;
  ecfg.obs = sc.obs;  // same knobs as the scheduler it fronts
  TcpEndpoint ep(sched, ecfg);

  // Payload encoding is per-sample, not per-request — encode each test
  // sample once and reuse (the server still decodes every frame).
  std::vector<std::string> payloads;
  payloads.reserve(idx.size());
  for (int i : idx) {
    payloads.push_back(
        encode_sample_payload(samples[static_cast<std::size_t>(i)]));
  }

  TcpClient client(ep.port());
  const auto epoch = std::chrono::steady_clock::now();
  const auto us_since_epoch = [&epoch] {
    return std::chrono::duration_cast<std::chrono::microseconds>(
               std::chrono::steady_clock::now() - epoch)
        .count();
  };
  std::vector<std::int64_t> sent_us(arrivals.size(), 0);
  std::vector<ResponseFrame> responses;
  std::vector<std::int64_t> recv_us;
  responses.reserve(arrivals.size());
  recv_us.reserve(arrivals.size());
  std::thread receiver([&] {
    ResponseFrame resp;
    while (client.recv_response(resp)) {
      responses.push_back(resp);
      recv_us.push_back(us_since_epoch());
    }
  });

  Timer wall;
  std::size_t next_id = 0;
  replay_arrivals(arrivals, [&](const Arrival& a) {
    RequestFrame req;
    req.request_id = next_id;
    req.model = static_cast<std::uint32_t>(a.metric);
    req.priority = priority;
    req.deadline_us = deadline_us;
    req.payload = payloads[a.pick];
    sent_us[next_id] = us_since_epoch();
    ++next_id;
    (void)client.send_request(req);
  });
  // Half-close: the endpoint drains everything it accepted, answers, then
  // FINs — the receiver exits on that EOF with every response in hand.
  client.shutdown_write();
  receiver.join();
  SocketResult res;
  res.ol.wall_s = wall.seconds();
  ep.stop();
  res.wire = ep.stats();
  sched.shutdown();

  std::vector<double> lat;
  lat.reserve(responses.size());
  std::uint64_t served_ok = 0;
  std::uint64_t shed = 0;
  for (std::size_t i = 0; i < responses.size(); ++i) {
    const ResponseFrame& r = responses[i];
    const Arrival& a = arrivals[static_cast<std::size_t>(r.request_id)];
    if (r.result == WireResult::kOk) {
      ++served_ok;
      lat.push_back(static_cast<double>(
          recv_us[i] - sent_us[static_cast<std::size_t>(r.request_id)]));
      if (r.prediction != expected[static_cast<std::size_t>(a.metric)][a.pick]) {
        res.ol.bit_identical = false;
      }
    } else {
      ++shed;  // expired/over-capacity/over-limit: rejected on the wire
    }
  }
  fill_percentiles(lat, res.ol);
  // Goodput uses the server-side deadline accounting (same definition as
  // the in-process scheduler arm, so the delta is purely the wire path).
  const SchedStats st = sched.stats();
  res.ol.goodput_per_s =
      res.ol.wall_s > 0.0
          ? static_cast<double>(st.completed_in_deadline) / res.ol.wall_s
          : 0.0;
  res.ol.shed_rate = arrivals.empty()
                         ? 0.0
                         : static_cast<double>(shed) /
                               static_cast<double>(arrivals.size());
  (void)served_ok;
  return res;
}

/// Part 3: the determinism gate over the whole encoder zoo. A small fixed
/// corpus per kind (independent of --scale so the gate cost is constant),
/// scheduled through virtual-time mode across three batch compositions —
/// solo forwards, uneven splits, one full union. Returns false on any
/// value divergence from sequential predict().
bool scheduled_bit_identity_all_kinds() {
  SyntheticDatasetConfig dcfg;
  dcfg.kind = GraphKind::kDfg;
  dcfg.num_graphs = 18;
  dcfg.seed = 4242;
  dcfg.progen.min_ops = 8;
  dcfg.progen.max_ops = 24;
  const std::vector<Sample> samples = build_synthetic_dataset(dcfg);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);
  bool all_ok = true;
  for (GnnKind kind : all_gnn_kinds()) {
    ModelConfig mc;
    mc.kind = kind;
    mc.hidden = 16;
    mc.layers = 2;
    TrainConfig tc;
    tc.epochs = 2;
    tc.batch_size = 4;
    tc.seed = 5;
    QorPredictor predictor(Approach::kOffTheShelf, mc, tc);
    predictor.fit(samples, split, Metric::kLut, FitOptions{});
    std::vector<double> expected;
    for (const Sample& s : samples) expected.push_back(predictor.predict(s));
    bool kind_ok = true;
    for (const int max_batch : {1, 5, 18}) {
      SchedulerConfig sc;
      sc.virtual_time = true;
      sc.max_batch = max_batch;
      sc.batch_window_us = 0;
      ServingScheduler sched({&predictor}, sc);
      std::vector<std::future<double>> futures;
      for (const Sample& s : samples) {
        futures.push_back(sched.submit(0, s).future);
      }
      while (sched.pump()) {
      }
      for (std::size_t i = 0; i < samples.size(); ++i) {
        if (futures[i].get() != expected[i]) kind_ok = false;
      }
    }
    std::cout << "  " << (kind_ok ? "[PASS] " : "[FAIL] ")
              << gnn_kind_name(kind) << "\n";
    all_ok &= kind_ok;
  }
  return all_ok;
}

int run(int argc, const char* const* argv) {
  const BenchConfig cfg = parse_bench_config(argc, argv);
  print_header("Serving — closed-loop batching + open-loop saturation", cfg);
  // --trace-out captures the open-loop phases as Chrome trace spans
  // (tcp_read/frame_decode/queue_wait/batch_assembly/forward/scatter).
  maybe_start_trace(cfg);
  std::cout << "load: " << cfg.clients << " closed-loop clients x "
            << cfg.requests << " requests, max-batch=" << cfg.max_batch
            << ", batch-window-us=" << cfg.batch_window_us << "\n";

  const std::vector<Sample> samples = build_dfg(cfg);
  print_dataset_line("DFG", samples);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), cfg.seed);

  QorPredictor predictor(Approach::kOffTheShelf, model_config(cfg),
                         train_config(cfg));
  Timer fit_timer;
  const double val =
      predictor.fit(samples, split, Metric::kLut, FitOptions{}).best_val;
  std::cout << "fit: val MAPE " << TextTable::pct(val) << " in "
            << TextTable::num(fit_timer.seconds(), 1) << "s\n\n";

  // Sequential baseline values (also the bit-identity reference).
  const std::vector<int>& idx = split.test;
  std::vector<double> expected;
  expected.reserve(idx.size());
  for (int i : idx) {
    expected.push_back(predictor.predict(samples[static_cast<std::size_t>(i)]));
  }
  // Timed separately from the expected-value pass (which doubles as
  // warmup), over several passes: this number seeds the open-loop base
  // rate and deadline, so a noisy one-pass measurement would shift every
  // rate point between runs.
  constexpr int kSeqPasses = 3;
  Timer seq_timer;
  for (int pass = 0; pass < kSeqPasses; ++pass) {
    for (int i : idx) {
      (void)predictor.predict(samples[static_cast<std::size_t>(i)]);
    }
  }
  const double seq_per_graph_us =
      seq_timer.seconds() * 1e6 /
      static_cast<double>(idx.size() * kSeqPasses);
  std::cout << "sequential predict(): "
            << TextTable::num(seq_per_graph_us, 1) << " us/graph\n\n";

  struct Row {
    std::string name;
    int max_batch;
    std::int64_t window_us;
  };
  const std::int64_t w = cfg.batch_window_us;
  const std::vector<Row> rows = {
      {"max-batch=1 (no batching)", 1, 0},
      {"max-batch=N, window=0", cfg.max_batch, 0},
      {"max-batch=N, window=W", cfg.max_batch, w},
      {"max-batch=N, window=5W", cfg.max_batch, 5 * w},
  };

  TextTable table({"serving config", "graphs/s", "avg batch", "p50 us",
                   "p99 us", "full/timeout/drain"});
  BenchJsonLog json_log;
  json_log.add("sequential predict us/graph", seq_per_graph_us, "us");
  std::vector<LoadResult> results;
  for (const Row& row : rows) {
    SchedulerConfig sc;  // one worker, static window
    sc.max_batch = row.max_batch;
    sc.batch_window_us = row.window_us;
    sc.adaptive_window = false;
    // One warmup pass keeps first-touch allocator noise out of the table.
    run_load(predictor, samples, idx, expected, sc, cfg.clients,
             std::max(cfg.requests / 8, 1));
    const LoadResult res = run_load(predictor, samples, idx, expected, sc,
                                    cfg.clients, cfg.requests);
    results.push_back(res);
    table.add_row(
        {row.name, TextTable::num(res.graphs_per_s, 1),
         TextTable::num(res.stats.avg_batch(), 2),
         TextTable::num(res.p50_us, 0), TextTable::num(res.p99_us, 0),
         std::to_string(res.stats.flush_full) + "/" +
             std::to_string(res.stats.flush_timeout) + "/" +
             std::to_string(res.stats.flush_drain)});
    json_log.add(row.name, res.graphs_per_s, "graphs/s");
    json_log.add(row.name + " p99", res.p99_us, "us");
  }
  std::cout << table.to_string() << "\n";

  // ----- open-loop saturation sweep: per-metric batchers vs shared
  // scheduler at equal thread budget, all four metrics round-robin -----
  std::cout << "-- open-loop Poisson sweep (4-metric scoring) --\n";
  std::vector<std::unique_ptr<QorPredictor>> extra_models;
  std::vector<const QorPredictor*> models;  // model id == Metric index
  std::vector<std::vector<double>> metric_expected;
  for (int m = 0; m < kNumMetrics; ++m) {
    const Metric metric = static_cast<Metric>(m);
    const QorPredictor* p;
    if (metric == Metric::kLut) {
      p = &predictor;  // reuse the closed-loop fit
    } else {
      extra_models.push_back(std::make_unique<QorPredictor>(
          Approach::kOffTheShelf, model_config(cfg), train_config(cfg)));
      extra_models.back()->fit(samples, split, metric, FitOptions{});
      p = extra_models.back().get();
    }
    models.push_back(p);
    std::vector<double> exp_m;
    exp_m.reserve(idx.size());
    for (int i : idx) {
      exp_m.push_back(p->predict(samples[static_cast<std::size_t>(i)]));
    }
    metric_expected.push_back(std::move(exp_m));
  }

  const double base_rate = cfg.arrival_rate > 0.0
                               ? cfg.arrival_rate
                               : 1e6 / seq_per_graph_us;
  // Default deadline: 25x the sequential service time — loose enough that
  // a lightly-loaded batch window plus one forward fits comfortably, tight
  // enough that unbounded FIFO queueing under overload blows it fast (the
  // failure mode the sweep exists to expose).
  const std::int64_t deadline_us =
      cfg.deadline_us > 0
          ? cfg.deadline_us
          : static_cast<std::int64_t>(25.0 * seq_per_graph_us);
  const int open_requests = cfg.clients * cfg.requests;
  const int sched_workers = cfg.workers > 0 ? cfg.workers : kNumMetrics;
  std::cout << "base rate " << TextTable::num(base_rate, 0)
            << " req/s, deadline " << deadline_us << " us, "
            << open_requests << " requests/point; batcher arm: "
            << kNumMetrics << " per-metric workers, scheduler arm: "
            << sched_workers << " shared workers\n";

  SchedulerConfig batcher_sc;  // per metric: one worker, static window
  batcher_sc.max_batch = cfg.max_batch;
  batcher_sc.batch_window_us = cfg.batch_window_us;
  batcher_sc.adaptive_window = false;
  batcher_sc.obs = obs_config(cfg);
  SchedulerConfig shared_sc;
  shared_sc.workers = sched_workers;
  shared_sc.max_batch = cfg.max_batch;
  shared_sc.batch_window_us = cfg.batch_window_us;
  shared_sc.adaptive_window = true;
  shared_sc.obs = obs_config(cfg);
  // Admission control is what makes goodput survive saturation: bound the
  // queue at roughly one in-flight batch per worker so an ACCEPTED request
  // waits a bounded time and can still meet its deadline. Overload then
  // sheds at submit (cheap) instead of queueing requests that would only
  // be served late — the unbounded-FIFO failure mode of the batcher arm.
  shared_sc.max_queue =
      static_cast<std::size_t>(sched_workers) *
      static_cast<std::size_t>(cfg.max_batch);

  const std::vector<std::pair<std::string, double>> rate_points = {
      {"0.5x", 0.5}, {"1x", 1.0}, {"2x", 2.0}, {"4x", 4.0}};
  TextTable ol_table({"offered", "arm", "goodput/s", "p50 us", "p99 us",
                      "p999 us", "shed %"});
  bool open_loop_exact = true;
  bool socket_exact = true;
  WireStats socket_wire;  // wire counters from the 1x socket run
  std::vector<std::pair<OpenLoopResult, OpenLoopResult>> ol_results;
  for (std::size_t pi = 0; pi < rate_points.size(); ++pi) {
    const auto& [label, mult] = rate_points[pi];
    const std::vector<Arrival> arrivals =
        poisson_schedule(cfg.seed * 7919 + pi, base_rate * mult,
                         open_requests, idx.size());
    const OpenLoopResult batcher_r = run_open_loop_batchers(
        models, samples, idx, metric_expected, arrivals, batcher_sc,
        deadline_us);
    const OpenLoopResult sched_r = run_open_loop_scheduler(
        models, samples, idx, metric_expected, arrivals, shared_sc,
        deadline_us, cfg.priority);
    open_loop_exact &= batcher_r.bit_identical && sched_r.bit_identical;
    ol_results.emplace_back(batcher_r, sched_r);
    const auto add_rows = [&](const char* arm, const OpenLoopResult& r) {
      ol_table.add_row({label + (" (" + TextTable::num(base_rate * mult, 0) +
                                 "/s)"),
                        arm, TextTable::num(r.goodput_per_s, 1),
                        TextTable::num(r.p50_us, 0),
                        TextTable::num(r.p99_us, 0),
                        TextTable::num(r.p999_us, 0),
                        TextTable::num(r.shed_rate * 100.0, 1)});
      json_log.add("open-loop " + std::string(label) + " " + arm +
                       " goodput",
                   r.goodput_per_s, "graphs/s");
      json_log.add("open-loop " + std::string(label) + " " + arm + " p99",
                   r.p99_us, "us");
      json_log.add("open-loop " + std::string(label) + " " + arm +
                       " shed rate",
                   r.shed_rate, "ratio");
    };
    add_rows("batcher", batcher_r);
    add_rows("shared", sched_r);
    // Socket arm at 1x (the gated goodput row) and 4x (overload behavior
    // through the wire) — identical traffic, real loopback TCP.
    if (label == "1x" || label == "4x") {
      const SocketResult sock = run_open_loop_socket(
          models, samples, idx, metric_expected, arrivals, shared_sc,
          deadline_us, cfg.priority, cfg.port, cfg.max_inflight);
      socket_exact &= sock.ol.bit_identical;
      if (label == "1x") socket_wire = sock.wire;
      add_rows("socket", sock.ol);
    }
  }
  std::cout << ol_table.to_string() << "\n";
  std::cout << "socket wire @1x: " << socket_wire.frames_in << " frames in / "
            << socket_wire.frames_out << " out, "
            << socket_wire.bytes_in << " B in / " << socket_wire.bytes_out
            << " B out, " << socket_wire.decode_errors << " decode errors, "
            << socket_wire.rejects_backpressure << "+"
            << socket_wire.rejects_payload << "+"
            << socket_wire.rejects_sched
            << " rejects (backpressure/payload/sched), "
            << socket_wire.write_failures << " write failures\n\n";
  write_bench_json(cfg, json_log, "serving");

  // ----- 14-kind scheduled bit-identity (hard gate) -----
  std::cout << "-- scheduled == sequential across batch compositions, all "
               "encoder kinds --\n";
  const bool kinds_exact = scheduled_bit_identity_all_kinds();
  std::cout << "\n";

  ShapeChecks checks;
  bool all_exact = true;
  for (const LoadResult& r : results) all_exact &= r.bit_identical;
  checks.check("every served prediction bit-identical to predict()",
               all_exact);
  checks.check("open-loop served predictions bit-identical to predict()",
               open_loop_exact);
  checks.check("socket-served predictions bit-identical to predict()",
               socket_exact);
  checks.check("scheduled == sequential for all 14 encoder kinds",
               kinds_exact);
  if (cfg.max_batch > 1) {
    // Throughput/batch-formation shape: reported like the table benches
    // (timing-dependent, and meaningless when --max-batch=1 collapses the
    // sweep), never gated on.
    double batched_best = 0.0;
    for (std::size_t i = 1; i < results.size(); ++i) {
      batched_best = std::max(batched_best, results[i].graphs_per_s);
    }
    checks.check("micro-batching beats max-batch=1 on graphs/sec",
                 batched_best > results[0].graphs_per_s);
    checks.check("windowed micro-batches actually form (avg batch > 1)",
                 results[2].stats.avg_batch() > 1.0);
    checks.check("longer window -> larger average batch",
                 results[3].stats.avg_batch() >=
                     results[2].stats.avg_batch());
  } else {
    std::cout << "  (perf shape checks skipped: --max-batch=1 degenerates "
                 "the sweep)\n";
  }
  // The saturation story: past the knee (2x/4x offered load) the shared
  // scheduler should hold >= 1.5x the per-metric batchers' goodput by
  // shedding expired requests instead of answering everything late.
  // Load-dependent, so report-only.
  for (std::size_t pi = 2; pi < ol_results.size(); ++pi) {
    const auto& [batcher_r, sched_r] = ol_results[pi];
    checks.check("shared scheduler goodput >= 1.5x per-metric batchers at " +
                     rate_points[pi].first + " load",
                 sched_r.goodput_per_s >= 1.5 * batcher_r.goodput_per_s);
  }
  checks.summary();
  maybe_write_trace(cfg);
  // Only bit-identity is a hard invariant (the serving contract); the perf
  // checks above are load-dependent and stay report-only, so the CI smoke
  // gate cannot flake on scheduling noise.
  return (all_exact && open_loop_exact && socket_exact && kinds_exact) ? 0
                                                                       : 1;
}

}  // namespace
}  // namespace gnnhls::bench

int main(int argc, char** argv) { return gnnhls::bench::run(argc, argv); }
