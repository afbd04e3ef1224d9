// Workload runner of the repository benchmark.
//
// run.py builds this binary, generates the seeded traffic schedule, and
// reduces the raw measurements this program writes (--out, JSON) to the
// benchmark's metrics. Two workloads:
//
//   fit    the paper's hierarchical model as every table bench trains it:
//          knowledge-infused (-I) RGCN, per-graph tapes, one fit per QoR
//          metric as four run_parallel jobs on a one-thread kernel pool,
//          repeated until --seconds elapse;
//   dse    Explorer::active_halving with a deep-ensemble rank model and
//          uncertainty-bonus acquisition through the in-process
//          ServingScorer, over several kernels.
//
// The serving layers (payload codec, framing, scheduler queueing and
// micro-batching) are measured by the layer probes of the traced run, which
// replay the seeded open-loop schedule through a ServingScheduler the way the
// TCP endpoint serves it: every request decodes its payload into a fresh
// sample and its features are evicted once it is answered.
//
// Set-up (corpus build, model fits that are not the timed work, the DSE
// reference sweep) runs from cold caches before the timed loop and again
// before every timed repetition, each time for at least kSetupBurstSeconds;
// every set-up is timed. Their mean (run.py) thus samples host speed over the
// whole run, as the timed metrics do. Every set-up builds the same content, and
// the workload continues on the newest one.
//
// The model and workload shapes are constants below. run.py passes only the
// traffic and seed settings of perfbench/workloads.json; each of those flags
// is required.
//
// With --trace-out the run also records spans around its own calls into
// each layer (the library itself is not instrumented), runs the layer
// probes on the workload's inputs, and writes every span as Chrome
// trace_event JSON (loadable in Perfetto; summarized by summarize.py).
//
// Correctness is checked in-process: probe-served answers against
// sequential predict(), the DSE synthesis budget, serving-path scores against
// PredictorScorer scores, and repeat-run determinism of every quality
// number. Failed checks are listed in the output; run.py turns them into a
// non-zero exit.
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/ensemble.h"
#include "core/experiment.h"
#include "core/metrics.h"
#include "dataset/dataset.h"
#include "dataset/serialize.h"
#include "dse/explorer.h"
#include "dse/pareto.h"
#include "frontend/lower.h"
#include "gnn/feature_encoder.h"
#include "gnn/models.h"
#include "hls/hls_flow.h"
#include "nn/adam.h"
#include "progen/progen.h"
#include "serve/scheduler.h"
#include "serve/wire.h"
#include "support/flags.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/timer.h"
#include "train/batch_plan.h"
#include "train/feature_cache.h"

namespace gnnhls::perfbench {
namespace {

using Clock = std::chrono::steady_clock;

double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

// ----- spans (kept in memory, written once at exit) -----

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

class Tracer {
 public:
  static Tracer& get() {
    static Tracer tracer;
    return tracer;
  }

  bool on() const { return on_; }
  void enable() {
    epoch_ = Clock::now();
    on_ = true;
  }
  double now_us() const { return us_between(epoch_, Clock::now()); }

  void add(const char* name, double ts_us, double dur_us, long n) {
    const int tid = thread_index();
    const std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(Record{name, ts_us, dur_us, tid, n});
  }

  /// Chrome trace_event JSON: one complete ("X") event per span; `n` (the
  /// number of items the call processed) rides in args.
  bool write(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
    const std::lock_guard<std::mutex> lock(mu_);
    char buf[256];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Record& r = spans_[i];
      std::snprintf(buf, sizeof(buf),
                    "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
                    "\"X\", \"pid\": 1, \"tid\": %d, \"ts\": %.3f, \"dur\": "
                    "%.3f, \"args\": {\"n\": %ld}}",
                    i ? "," : "", r.name, r.tid, r.ts_us, r.dur_us, r.n);
      out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
  }

 private:
  struct Record {
    const char* name;  // string literal
    double ts_us;
    double dur_us;
    int tid;
    long n;
  };
  bool on_ = false;
  Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Record> spans_;
};

/// Records one span when tracing is on; `name` must be a string literal.
class Span {
 public:
  explicit Span(const char* name, long n = 1)
      : name_(name), n_(n), on_(Tracer::get().on()) {
    if (on_) start_ = Tracer::get().now_us();
  }
  ~Span() {
    if (on_) {
      Tracer::get().add(name_, start_, Tracer::get().now_us() - start_, n_);
    }
  }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  const char* name_;
  long n_;
  bool on_;
  double start_ = 0.0;
};

// ----- raw result document -----

std::string json_num(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string json_str(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (c == '\n') {
      out += "\\n";
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_arr(const std::vector<double>& v) {
  std::string out = "[";
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ", ";
    out += json_num(v[i]);
  }
  return out + "]";
}

/// An ordered JSON object assembled from pre-rendered values.
class JsonObject {
 public:
  void set(const std::string& key, const std::string& rendered) {
    fields_.emplace_back(key, rendered);
  }
  void num(const std::string& key, double v) { set(key, json_num(v)); }
  void arr(const std::string& key, const std::vector<double>& v) {
    set(key, json_arr(v));
  }
  std::string render() const {
    std::string out = "{";
    for (std::size_t i = 0; i < fields_.size(); ++i) {
      if (i) out += ",\n ";
      out += json_str(fields_[i].first) + ": " + fields_[i].second;
    }
    return out + "}";
  }

 private:
  std::vector<std::pair<std::string, std::string>> fields_;
};

/// What one workload run measured, before run.py reduces it.
struct Result {
  std::vector<double> setup_s;  // one entry per set-up repetition
  std::vector<double> unit_ms;  // fit: per fit job; dse: per exploration
  std::vector<double> rate_per_s;  // throughput samples
  double quality = std::nan("");
  long attempted = 0;
  long failed = 0;
  std::vector<std::pair<std::string, bool>> checks;
  JsonObject raw;                        // workload-specific measurements
  std::map<std::string, double> layers;  // non-span per-layer values

  void check(const std::string& what, bool ok) { checks.emplace_back(what, ok); }
};

double median_of(std::vector<double> v) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// CPU time of the calling thread: wall time less blocking, sleeping and
/// time the hypervisor withheld the CPU (steal). Reported as a note only.
double thread_cpu_s() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// Lines of one histogram family from a metrics text exposition.
std::vector<std::string> histogram_lines(const std::string& text,
                                         const std::string& family) {
  std::vector<std::string> lines;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family + "_bucket", 0) == 0) lines.push_back(line);
  }
  return lines;
}

std::string json_lines(const std::vector<std::string>& lines) {
  std::string out = "[";
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i) out += ", ";
    out += json_str(lines[i]);
  }
  return out + "]";
}

// ----- fixed workload settings -----

constexpr double kSetupBurstSeconds = 0.1;
constexpr std::uint64_t kSplitSeed = 1;
constexpr std::uint64_t kTrainSeed = 1;
constexpr float kLr = 1e-2F;
constexpr int kBatchGraphs = 8;  // gradient accumulation (batch_size 1)

// fit: -I RGCN, hidden 64, 3 layers, per-graph tapes, four jobs at once.
constexpr int kFitGraphs = 160;
constexpr int kFitHidden = 64;
constexpr int kFitLayers = 3;
constexpr int kFitEpochs = 3;
constexpr int kFitJobThreads = 4;
constexpr int kFitMinReps = 3;  // the first is warm-up

// dse: active halving with a K=2 ensemble trained with batch_size 8.
constexpr int kDseGraphs = 64;
constexpr int kDseHidden = 32;
constexpr int kDseLayers = 2;
constexpr int kDseEpochs = 6;
constexpr int kDseBatchSize = 8;
constexpr int kDsePoints = 240;
constexpr int kDseTopK = 24;
constexpr int kDseEnsemble = 2;
constexpr int kDseFeedbackRounds = 1;
constexpr int kDseMinReps = 2;
const std::vector<std::string> kDseKernels = {"gemm", "fir", "stencil"};

// The serving scheduler of the probes and of the DSE ServingScorer.
constexpr int kSchedWorkers = 2;
constexpr int kSchedMaxBatch = 8;
constexpr int kSchedBatchWindowUs = 200;
constexpr std::size_t kSchedMaxQueue = 64;

// Layer probes: training-path probes run on this many corpus graphs, the
// program-path probes (progen, frontend, hls, tensors) on this many pool
// programs.
constexpr int kProbeGraphs = 64;
constexpr int kProgramProbes = 16;

// ----- settings passed by run.py (required) -----

void require(const Flags& f, const std::string& name) {
  if (!f.has(name)) throw std::invalid_argument("--" + name + " is required");
}
int need_int(const Flags& f, const std::string& name) {
  require(f, name);
  return f.get_int(name, 0);
}
double need_double(const Flags& f, const std::string& name) {
  require(f, name);
  return f.get_double(name, 0.0);
}
std::string need_string(const Flags& f, const std::string& name) {
  require(f, name);
  return f.get_string(name, "");
}

// ----- shared building blocks -----

std::vector<Sample> cdfg_corpus(std::uint64_t seed, int n) {
  SyntheticDatasetConfig cfg;
  cfg.kind = GraphKind::kCdfg;
  cfg.num_graphs = n;
  cfg.seed = seed;
  return build_synthetic_dataset(cfg);
}

/// Drops `ctx`, then runs `build` from cold caches for at least
/// kSetupBurstSeconds (once at minimum), timing each run; returns the last
/// context.
template <typename Ctx, typename Build>
std::unique_ptr<Ctx> timed_setup(std::unique_ptr<Ctx> ctx, const Build& build,
                                 Result& res) {
  const Timer burst;
  do {
    ctx.reset();
    FeatureCache::global().clear();
    BatchCoreCache::global().clear();
    Timer t;
    {
      const Span s("setup");
      ctx = build();
    }
    res.setup_s.push_back(t.seconds());
  } while (burst.seconds() < kSetupBurstSeconds);
  return ctx;
}

/// FeatureCache hit ratio over the phases between begin() and end().
class CacheWindow {
 public:
  void begin() {
    hits0_ = FeatureCache::global().hits();
    misses0_ = FeatureCache::global().misses();
  }
  void end() {
    hits_ += FeatureCache::global().hits() - hits0_;
    misses_ += FeatureCache::global().misses() - misses0_;
  }
  double hit_ratio() const {
    const double h = static_cast<double>(hits_);
    const double m = static_cast<double>(misses_);
    return h + m > 0.0 ? h / (h + m) : 0.0;
  }

 private:
  std::uint64_t hits0_ = 0;
  std::uint64_t misses0_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

ModelConfig model_config(int hidden, int layers) {
  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = hidden;
  mc.layers = layers;
  return mc;
}

TrainConfig train_config(int epochs, int batch_size) {
  TrainConfig tc;
  tc.epochs = epochs;
  tc.lr = kLr;
  tc.batch_size = batch_size;
  tc.batch_graphs = kBatchGraphs;
  tc.seed = kTrainSeed;
  return tc;
}

SchedulerConfig sched_config() {
  SchedulerConfig sc;
  sc.workers = kSchedWorkers;
  sc.max_batch = kSchedMaxBatch;
  sc.batch_window_us = kSchedBatchWindowUs;
  sc.adaptive_window = true;
  sc.max_queue = kSchedMaxQueue;
  return sc;
}

struct Arrival {
  std::int64_t due_us;
  int model;
  int pick;
};

/// The seeded open-loop schedule run.py writes: "nominal N" and N lines of
/// "due_us model pick".
std::vector<Arrival> read_schedule(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read schedule " + path);
  std::string tag;
  std::size_t count = 0;
  if (!(in >> tag >> count)) throw std::runtime_error("bad schedule header");
  std::vector<Arrival> arrivals(count);
  for (Arrival& a : arrivals) {
    if (!(in >> a.due_us >> a.model >> a.pick)) {
      throw std::runtime_error("truncated schedule " + path);
    }
  }
  return arrivals;
}

/// A decoded request sample: fresh uid, features not cached yet.
std::shared_ptr<Sample> decode_request(const std::string& payload) {
  DecodedSample d = decode_sample_payload(payload);
  if (!d.ok()) throw std::runtime_error("probe: payload did not decode");
  return d.sample;
}

/// Open-loop in-process replay, served as the TCP endpoint serves it: one
/// paced submitter decodes each request's payload into a fresh sample right
/// before submitting it, and evicts the sample's features once answered.
/// Returns the scheduler's submit-to-answer latencies.
std::vector<double> inproc_replay(const QorPredictor& model,
                                  const std::vector<Arrival>& arrivals,
                                  const std::vector<std::string>& payloads,
                                  const std::vector<double>& expected,
                                  std::int64_t limit_us, Result& res) {
  SchedulerConfig sc = sched_config();
  sc.record_latencies = true;
  ServingScheduler sched({&model}, sc);
  SubmitOptions opts;
  opts.deadline_us = limit_us;
  struct Request {
    std::future<double> future;
    std::uint64_t uid;
    int pick;
  };
  std::vector<Request> reqs;
  reqs.reserve(arrivals.size());
  long mismatches = 0;
  const auto settle = [&](Request& r) {
    try {
      if (r.future.get() != expected[static_cast<std::size_t>(r.pick)]) {
        ++mismatches;
      }
    } catch (const SchedReject&) {
      // Shed under load: counted by serve.shed_ratio.
    }
    FeatureCache::global().evict(r.uid);
  };
  CacheWindow cache;
  cache.begin();
  {
    const Span s("serve.inproc", static_cast<long>(arrivals.size()));
    const Clock::time_point start = Clock::now();
    std::size_t head = 0;
    for (const Arrival& a : arrivals) {
      std::this_thread::sleep_until(start + std::chrono::microseconds(a.due_us));
      std::shared_ptr<Sample> sample =
          decode_request(payloads[static_cast<std::size_t>(a.pick)]);
      const std::uint64_t uid = sample->uid;
      reqs.push_back(Request{
          sched.submit(0, std::shared_ptr<const Sample>(std::move(sample)), opts)
              .future,
          uid, a.pick});
      while (head < reqs.size() &&
             reqs[head].future.wait_for(std::chrono::seconds(0)) ==
                 std::future_status::ready) {
        settle(reqs[head++]);
      }
    }
    while (head < reqs.size()) settle(reqs[head++]);
  }
  cache.end();
  res.check("every served answer bit-identical to sequential predict()",
            mismatches == 0);
  res.raw.num("serve_cache_hit_ratio", cache.hit_ratio());
  const SchedStats st = sched.stats();
  res.layers["serve.avg_batch"] = st.avg_batch();
  res.layers["serve.shed_ratio"] =
      arrivals.empty() ? 0.0
                       : static_cast<double>(st.shed_total()) /
                             static_cast<double>(arrivals.size());
  res.raw.set("queue_wait_after",
              json_lines(histogram_lines(sched.metrics_registry().render_text(),
                                         "gnnhls_sched_queue_wait_us")));
  res.raw.set("queue_wait_before", "[]");
  std::vector<double> lat = sched.take_latencies_us();
  sched.shutdown();
  return lat;
}

// ----- layer probes (traced runs only) -----

/// The serving traffic: the seeded schedule over a pool of programs whose
/// seeds are disjoint from every training corpus.
struct Traffic {
  std::vector<Arrival> arrivals;
  std::int64_t limit_us = 0;
  int pool_size = 0;
  std::uint64_t pool_seed = 0;
};

struct ProbeInputs {
  const std::vector<Sample>* corpus = nullptr;
  const SplitIndices* split = nullptr;
  ModelConfig mc;
  TrainConfig tc;
  Approach approach = Approach::kOffTheShelf;
  QorPredictor* model = nullptr;  // fitted; refit by the DSE probe
  const QorPredictor* serving_model = nullptr;  // off-the-shelf, fitted
  bool dse_probe = true;          // off where the workload explores for real
  const Traffic* traffic = nullptr;
  std::uint64_t seed = 1;
};

/// One call per layer on the program path, for a few pool programs.
void probe_program_path(const Traffic& t, double& sink) {
  for (int i = 0; i < kProgramProbes; ++i) {
    const std::uint64_t seed = t.pool_seed + static_cast<std::uint64_t>(i);
    Function f;
    {
      const Span s("progen.program");
      f = generate_cdfg_program(seed);
    }
    LoweredProgram prog = [&] {
      const Span s("frontend.lower");
      return lower_to_cdfg(f);
    }();
    {
      const Span s("hls.flow");
      sink += run_hls_flow(prog, HlsConfig{}).implemented.lut;
    }
    const Span s("gnn.tensors");
    sink += GraphTensors::build(prog.graph).num_nodes;
  }
}

/// Payload codec, framing and inference on decoded one-shot samples, then
/// the seeded open-loop replay.
void probe_serving(const ProbeInputs& in, Result& res, double& sink) {
  const Traffic& t = *in.traffic;
  const QorPredictor& model = *in.serving_model;
  const std::vector<Sample> pool = cdfg_corpus(t.pool_seed, t.pool_size);
  std::vector<std::string> payloads;
  double frame_bytes = 0.0;
  for (std::size_t i = 0; i < pool.size(); ++i) {
    std::string payload;
    {
      const Span s("dataset.payload_encode");
      payload = encode_sample_payload(pool[i]);
    }
    RequestFrame req;
    req.request_id = static_cast<std::uint64_t>(i);
    req.payload = payload;
    {
      const Span s("serve.frame");
      const std::string bytes = encode_request_frame(req);
      frame_bytes += static_cast<double>(bytes.size());
      WireDecoder dec;
      dec.feed(bytes.data(), bytes.size());
      DecodedFrame frame;
      if (dec.next(frame) != WireStatus::kFrame) {
        throw std::runtime_error("probe: frame did not round-trip");
      }
    }
    {
      const Span s("dataset.payload_decode");
      sink += decode_request(payload)->graph().num_nodes();
    }
    payloads.push_back(std::move(payload));
  }
  res.layers["serve.frame_bytes"] = frame_bytes / static_cast<double>(pool.size());

  // Sequential reference answers on the original pool samples.
  std::vector<double> expected;
  for (const Sample& s : pool) expected.push_back(model.predict(s));
  for (const Sample& s : pool) FeatureCache::global().evict(s.uid);

  // One-shot samples: each prediction builds its features; evicted after.
  for (const std::string& payload : payloads) {
    const std::shared_ptr<Sample> s = decode_request(payload);
    {
      const Span sp("core.predict_b1");
      sink += model.predict_many({s.get()})[0];
    }
    FeatureCache::global().evict(s->uid);
  }
  for (std::size_t i = 0; i + 8 <= payloads.size(); i += 8) {
    std::vector<std::shared_ptr<Sample>> owned;
    std::vector<const Sample*> batch;
    for (std::size_t j = i; j < i + 8; ++j) {
      owned.push_back(decode_request(payloads[j]));
      batch.push_back(owned.back().get());
    }
    {
      const Span sp("core.predict_b8", 8);
      sink += model.predict_many(batch)[0];
    }
    for (const Sample* s : batch) FeatureCache::global().evict(s->uid);
  }

  const std::vector<double> lat =
      inproc_replay(model, t.arrivals, payloads, expected, t.limit_us, res);
  res.layers["serve.inproc_rtt_p50_us"] = median_of(lat);
}

void run_probes(const ProbeInputs& in, Result& res) {
  const Span all("probe");
  const std::vector<Sample>& corpus = *in.corpus;
  const int n = std::min<int>(kProbeGraphs, static_cast<int>(corpus.size()));
  double sink = 0.0;  // keeps probe results observable

  probe_program_path(*in.traffic, sink);

  for (int i = 0; i < n; ++i) {
    const Span s("gnn.features");
    sink += InputFeatureBuilder::build(corpus[i].graph(), in.approach).rows();
  }

  // One training-mode step per graph, outside any fit loop.
  Rng rng(in.seed);
  GraphRegressor reg(in.mc, InputFeatureBuilder::feature_dim(in.approach), rng);
  NodeClassifier cls(in.mc,
                     InputFeatureBuilder::feature_dim(Approach::kOffTheShelf),
                     rng);
  AdamConfig ac;
  ac.lr = in.tc.lr;
  Adam adam(reg, ac);
  const Metric metric = in.model->metric();
  for (int i = 0; i < n; ++i) {
    const Sample& s = corpus[static_cast<std::size_t>(i)];
    const Matrix& feats = FeatureCache::global().features(s, in.approach);
    Tape tape;
    Var out;
    {
      const Span sp("gnn.regressor_fwd");
      out = reg.forward(tape, s.tensors, feats, rng, true);
    }
    const Var loss = tape.mse_loss(
        out, Matrix(1, 1, encode_target(metric_of(s.truth, metric), metric)));
    {
      const Span sp("tensor.backward");
      tape.backward(loss);
    }
    {
      const Span sp("nn.adam_step");
      adam.step();
    }
    Tape ctape;
    const Span sp("gnn.classifier_fwd");
    sink += cls.forward(ctape, s.tensors,
                        FeatureCache::global().features(
                            s, Approach::kOffTheShelf),
                        rng, true)
                .rows();
  }

  for (int r = 0; r < 3; ++r) {
    const Span s("core.evaluate", static_cast<long>(in.split->val.size()));
    sink += in.model->evaluate_mape(corpus, in.split->val);
  }
  for (int r = 0; r < 3; ++r) {
    const Span s("train.plan_build", static_cast<long>(in.split->train.size()));
    const BatchPlan plan = BatchPlan::build(
        corpus, in.split->train, in.tc.batch_size,
        [&in](const Sample& x) -> const Matrix& {
          return FeatureCache::global().features(x, in.approach);
        },
        [metric](const Sample& x) {
          return Matrix(1, 1, encode_target(metric_of(x.truth, metric), metric));
        },
        Rng(in.tc.seed + static_cast<std::uint64_t>(r)));
    sink += plan.num_batches();
  }

  probe_serving(in, res, sink);

  if (in.dse_probe) {
    const DesignSpace space = make_kernel_design_space(
        kDseKernels.front(), grid_with_at_least(kDsePoints));
    std::vector<Sample> cands;
    {
      const Span s("dse.lower", static_cast<long>(space.size()));
      cands = space.lower_candidates();
    }
    std::vector<const Sample*> ptrs;
    for (const Sample& c : cands) ptrs.push_back(&c);
    {
      ModelTable table;
      table.add(metric, in.model);
      SchedulerConfig sc;
      sc.max_batch = kSchedMaxBatch;
      const ServingScorer scorer(std::move(table), sc);
      {
        const Span s("dse.score", static_cast<long>(ptrs.size()));
        sink += scorer.score(metric, ptrs)[0].mean;
      }
      res.layers["dse.sched_avg_batch"] = scorer.serving_stats().avg_batch();
    }
    const std::vector<DesignPoint> points = space.enumerate();
    std::vector<Sample> delta;
    for (std::size_t i = 0; i < 8 && i < cands.size(); ++i) {
      const Span s("hls.flow");
      const HlsOutcome o = run_hls_flow(cands[i].prog, points[i].hls);
      cands[i].truth = o.implemented;
      delta.push_back(cands[i]);
    }
    {
      const Span s("train.refit", static_cast<long>(delta.size()));
      in.model->refit(delta);
    }
    for (const Sample& c : cands) FeatureCache::global().evict(c.uid);
  }
  res.raw.num("probe_sink", sink);
}

// ----- fit -----

struct FitCtx {
  std::vector<Sample> corpus;
  SplitIndices split;
};

void run_fit(std::uint64_t corpus_seed, double seconds, std::uint64_t seed,
             const ProbeInputs* probe, Result& res) {
  const ModelConfig mc = model_config(kFitHidden, kFitLayers);
  const TrainConfig tc = train_config(kFitEpochs, 1);
  ThreadPool::set_global_threads(1);

  const auto build = [&] {
    auto c = std::make_unique<FitCtx>();
    c->corpus = cdfg_corpus(corpus_seed, kFitGraphs);
    c->split = split_80_10_10(kFitGraphs, kSplitSeed);
    // Lazy feature construction belongs to set-up, not the timed fits.
    FeatureCache::global().warm(c->corpus, Approach::kKnowledgeInfused);
    FeatureCache::global().warm(c->corpus, Approach::kOffTheShelf);
    for (const Sample& s : c->corpus) {
      FeatureCache::global().node_type_labels(s);
    }
    return c;
  };
  std::unique_ptr<FitCtx> ctx = timed_setup<FitCtx>(nullptr, build, res);
  const double n_train = static_cast<double>(ctx->split.train.size());

  // The workload seed permutes job submission order; the corpus and model
  // seeds are fixed so val MAPE is comparable across runs.
  std::vector<int> order = {0, 1, 2, 3};
  Rng(seed).shuffle(order);

  std::array<double, kNumMetrics> first_val{};
  std::array<std::unique_ptr<QorPredictor>, kNumMetrics> last;
  std::vector<double> job_cpu_ms;
  CacheWindow cache;
  Timer total;
  int reps = 0;
  double last_rep_s = 0.0;
  while (reps < kFitMinReps || total.seconds() + last_rep_s <= seconds) {
    if (reps > 0) ctx = timed_setup(std::move(ctx), build, res);
    std::array<double, kNumMetrics> val{};
    std::array<double, kNumMetrics> wall{};
    std::array<double, kNumMetrics> cpu{};
    std::array<bool, kNumMetrics> ok{};
    std::vector<std::function<void()>> jobs;
    for (int m : order) {
      jobs.push_back([&, m] {
        const Span s("fit.job");
        Timer t;
        const double cpu0 = thread_cpu_s();
        auto p = std::make_unique<QorPredictor>(Approach::kKnowledgeInfused, mc,
                                                tc);
        try {
          val[m] = p->fit(ctx->corpus, ctx->split, static_cast<Metric>(m),
                          FitOptions{})
                       .best_val;
          ok[m] = std::isfinite(val[m]);
        } catch (const std::exception& e) {
          std::cerr << "fit job " << m << " failed: " << e.what() << "\n";
        }
        cpu[m] = thread_cpu_s() - cpu0;
        wall[m] = t.seconds();
        last[static_cast<std::size_t>(m)] = std::move(p);
      });
    }
    Timer rep;
    cache.begin();
    run_parallel(std::move(jobs), kFitJobThreads);
    cache.end();
    last_rep_s = rep.seconds();
    if (reps == 0) total.reset();  // the first repetition is warm-up
    for (int m = 0; m < kNumMetrics; ++m) {
      ++res.attempted;
      const bool same = reps == 0 || val[m] == first_val[m];
      if (!ok[m] || !same) ++res.failed;
      if (reps > 0) {
        // Rate: the job's graph-epochs over both hierarchy stages
        // (classifier, regressor) per wall second, while all jobs run
        // concurrently. The job's thread CPU time is kept as a note.
        res.unit_ms.push_back(wall[m] * 1e3);
        res.rate_per_s.push_back(2.0 * n_train * tc.epochs / wall[m]);
        job_cpu_ms.push_back(cpu[m] * 1e3);
      }
    }
    if (reps == 0) first_val = val;
    ++reps;
  }
  res.layers["train.cache_hit_ratio"] = cache.hit_ratio();

  double sum = 0.0;
  for (double v : first_val) sum += v;
  res.quality = sum / kNumMetrics;
  res.check("every fit returned a finite val MAPE", res.failed == 0);
  res.raw.arr("val_mape", std::vector<double>(first_val.begin(), first_val.end()));
  res.raw.arr("job_cpu_ms", job_cpu_ms);
  res.raw.num("reps", reps);
  res.raw.num("n_train", n_train);
  res.raw.num("epochs", tc.epochs);
  res.raw.num("batch_graphs", tc.batch_graphs);

  if (probe != nullptr) {
    ProbeInputs in = *probe;
    in.corpus = &ctx->corpus;
    in.split = &ctx->split;
    in.mc = mc;
    in.tc = tc;
    in.approach = Approach::kKnowledgeInfused;
    in.model = last[static_cast<std::size_t>(Metric::kLut)].get();
    // Served models are off-the-shelf: -I inference runs the node
    // classifier per request.
    QorPredictor serving(Approach::kOffTheShelf, mc, tc);
    serving.fit(ctx->corpus, ctx->split, Metric::kLut, FitOptions{});
    in.serving_model = &serving;
    run_probes(in, res);
  }
}

// ----- dse -----

struct DseKernel {
  std::string name;
  std::unique_ptr<DesignSpace> space;
  std::vector<std::vector<double>> exact_front;  // (LUT, FF) truth
};

struct DseCtx {
  std::vector<Sample> corpus;
  SplitIndices split;
  std::unique_ptr<QorPredictor> ff;  // the static non-rank front model
  std::vector<DseKernel> kernels;
};

std::string coords_json(const std::vector<std::vector<double>>& pts) {
  std::string out = "[";
  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (i) out += ", ";
    out += json_arr(pts[i]);
  }
  return out + "]";
}

/// Scorer wrapper that spans every batched scoring call.
class SpannedScorer : public Scorer {
 public:
  explicit SpannedScorer(const Scorer& inner) : inner_(inner) {}
  std::vector<ScoreResult> score(
      Metric metric, const std::vector<const Sample*>& samples) const override {
    const Span s("dse.score", static_cast<long>(samples.size()));
    return inner_.score(metric, samples);
  }
  std::vector<Metric> metrics() const override { return inner_.metrics(); }

 private:
  const Scorer& inner_;
};

void run_dse(std::uint64_t corpus_seed, double seconds, std::uint64_t seed,
             const ProbeInputs* probe, Result& res) {
  ThreadPool::set_global_threads(1);
  const ModelConfig mc = model_config(kDseHidden, kDseLayers);
  const TrainConfig tc = train_config(kDseEpochs, kDseBatchSize);

  const auto build = [&] {
    auto c = std::make_unique<DseCtx>();
    c->corpus = cdfg_corpus(corpus_seed, kDseGraphs);
    c->split = split_80_10_10(kDseGraphs, kSplitSeed);
    c->ff = std::make_unique<QorPredictor>(Approach::kOffTheShelf, mc, tc);
    c->ff->fit(c->corpus, c->split, Metric::kFf, FitOptions{});
    // Reference sweep: ground truth of every point, exact front.
    for (const std::string& name : kDseKernels) {
      DseKernel k;
      k.name = name;
      k.space = std::make_unique<DesignSpace>(
          make_kernel_design_space(name, grid_with_at_least(kDsePoints)));
      std::vector<std::vector<double>> truth;
      for (const DesignPoint& p : k.space->enumerate()) {
        Sample s = k.space->lower_candidate(p);
        const Span sp("hls.flow");
        const HlsOutcome o = run_hls_flow(s.prog, p.hls);
        truth.push_back({o.implemented.lut, o.implemented.ff});
      }
      for (int i : pareto_front(truth)) {
        k.exact_front.push_back(truth[static_cast<std::size_t>(i)]);
      }
      c->kernels.push_back(std::move(k));
    }
    return c;
  };
  std::unique_ptr<DseCtx> ctx = timed_setup<DseCtx>(nullptr, build, res);

  DseConfig dc;
  dc.front_metrics = {Metric::kLut, Metric::kFf};
  dc.rank_metric = Metric::kLut;
  dc.top_k = kDseTopK;
  dc.active.feedback_rounds = kDseFeedbackRounds;
  dc.active.acquisition = Acquisition::kUncertaintyBonus;
  SchedulerConfig sc;
  sc.max_batch = kSchedMaxBatch;

  // The workload seed permutes kernel order within each repetition.
  std::vector<std::size_t> order(ctx->kernels.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  Rng(seed).shuffle(order);

  std::vector<std::vector<int>> first_front(ctx->kernels.size());
  std::vector<std::vector<double>> kernel_ms(ctx->kernels.size());
  std::vector<std::string> approx_json(ctx->kernels.size());
  double hls_runs = 0.0, refits = 0.0, scorer_calls = 0.0, avg_batch = 0.0;
  long explorations = 0;
  bool budget_ok = true;
  bool scores_equal = true;
  CacheWindow cache;
  Timer total;
  int reps = 0;
  double last_rep_s = 0.0;
  while (reps < kDseMinReps || total.seconds() + last_rep_s <= seconds) {
    if (reps > 0) ctx = timed_setup(std::move(ctx), build, res);
    Timer rep;
    cache.begin();
    for (std::size_t k : order) {
      const DseKernel& kernel = ctx->kernels[k];
      // Untimed: every exploration refits its rank model in place, so each
      // starts from a fresh (bitwise identical) ensemble fit.
      QorEnsemble ens(Approach::kOffTheShelf, mc, tc, kDseEnsemble);
      ens.fit(ctx->corpus, ctx->split, Metric::kLut, FitOptions{});
      const auto table = [&] {
        ModelTable t;
        t.add(Metric::kLut, &ens);
        t.add(Metric::kFf, ctx->ff.get());
        return t;
      };
      const ServingScorer serving(table(), sc);
      const SpannedScorer scorer(serving);
      ++res.attempted;
      DseResult r;
      Timer t;
      {
        const Span s("dse.explore", static_cast<long>(kernel.space->size()));
        std::unique_ptr<Explorer> ex;
        {
          const Span l("dse.lower", static_cast<long>(kernel.space->size()));
          ex = std::make_unique<Explorer>(*kernel.space, scorer, dc);
        }
        r = ex->active_halving([&](const std::vector<Sample>& delta) {
          const Span sp("train.refit", static_cast<long>(delta.size()));
          return ens.refit(delta, dc.active.refit);
        });
      }
      const double wall = t.seconds();
      res.unit_ms.push_back(wall * 1e3);
      kernel_ms[k].push_back(wall * 1e3);

      const int n = static_cast<int>(kernel.space->size());
      bool ok = r.hls_runs == std::min(n, kDseTopK);
      budget_ok = budget_ok && ok;
      if (reps == 0) {
        first_front[k] = r.front;
        std::vector<std::vector<double>> approx;
        for (int i : r.front) {
          const Sample& s = r.candidates[static_cast<std::size_t>(i)].sample;
          approx.push_back({s.truth.lut, s.truth.ff});
        }
        approx_json[k] = coords_json(approx);
        // Serving-path scores must equal PredictorScorer scores bitwise.
        std::vector<const Sample*> ptrs;
        for (const DseCandidate& c : r.candidates) ptrs.push_back(&c.sample);
        const PredictorScorer direct(table());
        for (Metric m : dc.front_metrics) {
          const std::vector<ScoreResult> a = serving.score(m, ptrs);
          const std::vector<ScoreResult> b = direct.score(m, ptrs);
          for (std::size_t i = 0; i < a.size(); ++i) {
            if (a[i].mean != b[i].mean || a[i].uncertainty != b[i].uncertainty) {
              scores_equal = false;
              ok = false;
            }
          }
        }
      } else if (r.front != first_front[k]) {
        ok = false;  // determinism: same commit, same front
      }
      if (!ok) ++res.failed;
      hls_runs += r.hls_runs;
      refits += r.refits;
      scorer_calls += r.scorer_calls;
      avg_batch += serving.serving_stats().avg_batch();
      ++explorations;
      // Candidate uids are fresh per exploration: drop their features.
      for (const DseCandidate& c : r.candidates) {
        FeatureCache::global().evict(c.sample.uid);
      }
      BatchCoreCache::global().clear();
    }
    cache.end();
    last_rep_s = rep.seconds();
    ++reps;
  }
  res.layers["train.cache_hit_ratio"] = cache.hit_ratio();
  res.layers["dse.sched_avg_batch"] = avg_batch / explorations;
  res.check("hls_runs == min(n, top_k) for every exploration", budget_ok);
  res.check("serving-path scores equal PredictorScorer scores bitwise",
            scores_equal);

  // Per kernel: reference and explored fronts, points, exploration times.
  std::string fronts = "[";
  for (std::size_t k = 0; k < ctx->kernels.size(); ++k) {
    if (k) fronts += ", ";
    fronts += "{\"kernel\": " + json_str(ctx->kernels[k].name) +
              ", \"points\": " +
              json_num(static_cast<double>(ctx->kernels[k].space->size())) +
              ", \"explore_ms\": " + json_arr(kernel_ms[k]) +
              ", \"exact\": " + coords_json(ctx->kernels[k].exact_front) +
              ", \"approx\": " + approx_json[k] + "}";
  }
  res.raw.set("fronts", fronts + "]");
  res.raw.num("reps", reps);
  res.raw.num("hls_runs_per_exploration", hls_runs / explorations);
  res.raw.num("refits_per_exploration", refits / explorations);
  res.raw.num("scorer_calls_per_exploration", scorer_calls / explorations);

  if (probe != nullptr) {
    ProbeInputs in = *probe;
    in.corpus = &ctx->corpus;
    in.split = &ctx->split;
    in.mc = mc;
    in.tc = tc;
    in.model = ctx->ff.get();
    in.serving_model = ctx->ff.get();
    in.dse_probe = false;
    run_probes(in, res);
  }
}

int run(int argc, const char* const* argv) {
  const Flags f(argc, argv);
  const std::string workload = need_string(f, "workload");
  const std::string out_path = need_string(f, "out");
  const std::string trace_path = f.get_string("trace-out", "");
  const double seconds = need_double(f, "seconds");
  const auto seed = static_cast<std::uint64_t>(need_int(f, "seed"));
  const auto corpus_seed =
      static_cast<std::uint64_t>(need_int(f, "corpus-seed"));
  Traffic traffic;
  traffic.arrivals = read_schedule(need_string(f, "schedule"));
  traffic.limit_us =
      static_cast<std::int64_t>(need_double(f, "limit-ms") * 1e3);
  traffic.pool_size = need_int(f, "pool-size");
  traffic.pool_seed = static_cast<std::uint64_t>(need_int(f, "pool-seed"));
  f.check_all_consumed();
  for (const Arrival& a : traffic.arrivals) {
    if (a.model != 0 || a.pick < 0 || a.pick >= traffic.pool_size) {
      throw std::invalid_argument("schedule names a model or pool entry the "
                                  "probe does not have");
    }
  }

  const bool traced = !trace_path.empty();
  if (traced) Tracer::get().enable();
  tune_malloc_for_tensor_workloads();
  ProbeInputs base;
  base.traffic = &traffic;
  base.seed = seed;
  const ProbeInputs* probe = traced ? &base : nullptr;
  Result res;
  Timer wall;
  if (workload == "fit") {
    run_fit(corpus_seed, seconds, seed, probe, res);
  } else if (workload == "dse") {
    run_dse(corpus_seed, seconds, seed, probe, res);
  } else {
    throw std::invalid_argument("unknown --workload '" + workload + "'");
  }

  JsonObject doc;
  doc.set("workload", json_str(workload));
  doc.num("seed", static_cast<double>(seed));
  doc.num("wall_s", wall.seconds());
  doc.arr("setup_s", res.setup_s);
  doc.num("peak_rss_mb", peak_rss_mb());
  doc.arr("unit_ms", res.unit_ms);
  doc.arr("rate_per_s", res.rate_per_s);
  doc.num("quality", res.quality);
  doc.num("attempted", static_cast<double>(res.attempted));
  doc.num("failed", static_cast<double>(res.failed));
  std::string checks = "[";
  for (std::size_t i = 0; i < res.checks.size(); ++i) {
    if (i) checks += ", ";
    checks += "{\"name\": " + json_str(res.checks[i].first) +
              ", \"ok\": " + (res.checks[i].second ? "true" : "false") + "}";
  }
  doc.set("checks", checks + "]");
  JsonObject layers;
  for (const auto& [name, v] : res.layers) layers.num(name, v);
  doc.set("layers", layers.render());
  doc.set("raw", res.raw.render());

  if (traced && !Tracer::get().write(trace_path)) {
    throw std::runtime_error("cannot write trace " + trace_path);
  }
  std::ofstream out(out_path);
  out << doc.render() << "\n";
  if (!out) throw std::runtime_error("cannot write " + out_path);
  return 0;
}

}  // namespace
}  // namespace gnnhls::perfbench

int main(int argc, char** argv) {
  try {
    return gnnhls::perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
