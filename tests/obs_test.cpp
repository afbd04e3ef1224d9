// src/obs/ tests: histogram bucket boundaries, snapshot-merge determinism
// across thread counts, exact concurrent counter increments, render_text
// format, Chrome trace JSON well-formedness, the shared status-name table's
// exhaustiveness against the serving enums, the bounded latency buffer, the
// STATS wire frame round-trip, and the determinism contract — predictions
// served with obs fully enabled (metrics + armed trace collector) are
// bit-identical to obs-off serving and to sequential predict() for all 14
// encoder kinds.
#include <cstdint>
#include <future>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "gnn/encoders.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "serve/scheduler.h"
#include "serve/status_names.h"
#include "serve/wire.h"

namespace gnnhls {
namespace {

// ----- histogram buckets -----

TEST(ObsHistogramTest, BucketBoundaries) {
  // Bucket i counts v <= 2^i; the smallest matching i wins.
  EXPECT_EQ(Histogram::bucket_index(0), 0);
  EXPECT_EQ(Histogram::bucket_index(1), 0);
  EXPECT_EQ(Histogram::bucket_index(2), 1);
  EXPECT_EQ(Histogram::bucket_index(3), 2);
  EXPECT_EQ(Histogram::bucket_index(4), 2);
  EXPECT_EQ(Histogram::bucket_index(5), 3);
  EXPECT_EQ(Histogram::bucket_index(1024), 10);
  EXPECT_EQ(Histogram::bucket_index(1025), 11);
  const std::uint64_t last = Histogram::bucket_upper_bound(
      kHistogramBuckets - 1);  // 2^30
  EXPECT_EQ(Histogram::bucket_index(last), kHistogramBuckets - 1);
  EXPECT_EQ(Histogram::bucket_index(last + 1), kHistogramBuckets);  // +Inf
  EXPECT_EQ(Histogram::bucket_upper_bound(0), 1U);
  EXPECT_EQ(Histogram::bucket_upper_bound(10), 1024U);
}

TEST(ObsHistogramTest, RecordCountsAndSums) {
  MetricsRegistry reg;
  Histogram* h = reg.histogram("h_us");
  const std::uint64_t big = (std::uint64_t{1} << 30) + 5;
  for (std::uint64_t v : {std::uint64_t{1}, std::uint64_t{2},
                          std::uint64_t{3}, big}) {
    h->record(v);
  }
  EXPECT_EQ(h->bucket_count(0), 1U);
  EXPECT_EQ(h->bucket_count(1), 1U);
  EXPECT_EQ(h->bucket_count(2), 1U);
  EXPECT_EQ(h->bucket_count(kHistogramBuckets), 1U);  // +Inf overflow
  EXPECT_EQ(h->count(), 4U);
  EXPECT_EQ(h->sum(), 6U + big);
}

// ----- merge determinism and concurrency -----

/// Records the fixed multiset {0..kTotal-1} (plus kTotal counter bumps)
/// into `reg`, split contiguously over `threads` threads — every thread
/// count records the same events overall, only their stripes differ.
void record_workload(MetricsRegistry& reg, int threads) {
  Counter* c = reg.counter("obs_test_events_total", R"(k="x")");
  Histogram* h = reg.histogram("obs_test_lat_us", R"(k="x")");
  constexpr int kTotal = 8000;
  const int per = kTotal / threads;
  std::vector<std::thread> pool;
  for (int t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (int i = t * per; i < (t + 1) * per; ++i) {
        c->add();
        h->record(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (std::thread& t : pool) t.join();
}

TEST(ObsMetricsTest, SnapshotIdenticalAcrossThreadCounts) {
  // The registry merge must be a pure function of the recorded multiset:
  // byte-identical render_text regardless of which threads (stripes) the
  // events landed on.
  MetricsRegistry one;
  MetricsRegistry four;
  record_workload(one, 1);
  record_workload(four, 4);
  EXPECT_EQ(one.render_text(), four.render_text());
}

TEST(ObsMetricsTest, ConcurrentCounterIncrementsAreExact) {
  MetricsRegistry reg;
  Counter* c = reg.counter("concurrent_total");
  constexpr int kThreads = 8;
  constexpr int kAdds = 50000;
  std::vector<std::thread> pool;
  for (int t = 0; t < kThreads; ++t) {
    pool.emplace_back([&] {
      for (int i = 0; i < kAdds; ++i) c->add();
    });
  }
  for (std::thread& t : pool) t.join();
  EXPECT_EQ(c->value(), static_cast<std::uint64_t>(kThreads) * kAdds);
}

TEST(ObsMetricsTest, RenderTextFormat) {
  MetricsRegistry reg;
  reg.counter("zz_total", R"(m="b")")->add(7);
  reg.counter("zz_total", R"(m="a")")->add(3);
  reg.gauge("depth")->set(-2);
  Histogram* h = reg.histogram("lat_us");
  h->record(1);
  h->record(3);
  const std::string text = reg.render_text();
  // One TYPE line per family; series sorted by (name, labels).
  EXPECT_NE(text.find("# TYPE zz_total counter\n"), std::string::npos);
  const std::size_t a = text.find("zz_total{m=\"a\"} 3\n");
  const std::size_t b = text.find("zz_total{m=\"b\"} 7\n");
  ASSERT_NE(a, std::string::npos);
  ASSERT_NE(b, std::string::npos);
  EXPECT_LT(a, b);
  EXPECT_NE(text.find("depth -2\n"), std::string::npos);
  // Histogram buckets render cumulatively.
  EXPECT_NE(text.find("lat_us_bucket{le=\"1\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"2\"} 1\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"4\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_bucket{le=\"+Inf\"} 2\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_sum 4\n"), std::string::npos);
  EXPECT_NE(text.find("lat_us_count 2\n"), std::string::npos);
}

TEST(ObsMetricsTest, KindConflictThrows) {
  MetricsRegistry reg;
  reg.counter("same_name");
  EXPECT_THROW(reg.gauge("same_name"), std::logic_error);
  EXPECT_THROW(reg.histogram("same_name"), std::logic_error);
  // Same (name, labels, kind) is a find, not a conflict.
  EXPECT_EQ(reg.counter("same_name"), reg.counter("same_name"));
}

// ----- trace spans and JSON export -----

TEST(ObsTraceTest, SpansRecordAndJsonIsWellFormed) {
  TraceCollector& tc = TraceCollector::global();
  tc.clear();

  // Gate closed, or collector stopped: nothing records.
  tc.stop();
  { const ObsSpan off(true, "never", "test"); }
  tc.start();
  { const ObsSpan gated(false, "never", "test"); }
  obs_complete_event(false, "never", "test", 0, 1);
  EXPECT_EQ(tc.event_count(), 0U);

  { const ObsSpan a(true, "span_a", "test"); }
  obs_complete_event(true, "span_b", "test", 10, 5);
  std::thread other([&] { const ObsSpan c(true, "span_c", "test"); });
  other.join();
  tc.stop();
  EXPECT_EQ(tc.event_count(), 3U);
  EXPECT_EQ(tc.dropped(), 0U);

  const std::string json = tc.render_json();
  EXPECT_EQ(tc.render_json(), json);  // deterministic render
  EXPECT_EQ(json.rfind("{\"traceEvents\":[", 0), 0U);
  EXPECT_EQ(json.substr(json.size() - 2), "]}");
  for (const char* name : {"span_a", "span_b", "span_c"}) {
    EXPECT_NE(json.find("\"name\":\"" + std::string(name) + "\""),
              std::string::npos);
  }
  // Every event is a complete event with the fields Perfetto needs.
  std::size_t ph = 0;
  std::size_t count = 0;
  while ((ph = json.find("\"ph\":\"X\"", ph)) != std::string::npos) {
    ++count;
    ++ph;
  }
  EXPECT_EQ(count, 3U);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  EXPECT_NE(json.find("\"ts\":"), std::string::npos);
  EXPECT_NE(json.find("\"dur\":"), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  tc.clear();
}

// ----- shared status-name table -----

TEST(ObsStatusNamesTest, TableIsExhaustiveAndUnified) {
  std::vector<std::string> seen;
  for (std::uint32_t code = 0; code < kNumStatusNames; ++code) {
    const std::string name = status_name(code);
    EXPECT_NE(name, "unknown") << "code " << code;
    EXPECT_FALSE(name.empty());
    for (const std::string& prior : seen) EXPECT_NE(name, prior);
    seen.push_back(name);
    // Wire naming IS the table.
    EXPECT_EQ(wire_result_name(static_cast<WireResult>(code)), name);
  }
  EXPECT_STREQ(status_name(kNumStatusNames), "unknown");
  // AdmitStatus shares the table, except the historical kAccepted
  // spelling ("accepted" as an admission outcome vs "ok" on the wire).
  EXPECT_EQ(admit_status_name(AdmitStatus::kAccepted), "accepted");
  for (AdmitStatus s : {AdmitStatus::kExpired, AdmitStatus::kOverCapacity,
                        AdmitStatus::kShutdown}) {
    EXPECT_EQ(admit_status_name(s),
              status_name(static_cast<std::uint32_t>(s)));
  }
}

// ----- serving fixtures (mirrors scheduler_test.cpp) -----

std::vector<Sample> small_corpus(int n, std::uint64_t seed) {
  SyntheticDatasetConfig dcfg;
  dcfg.kind = GraphKind::kDfg;
  dcfg.num_graphs = n;
  dcfg.seed = seed;
  dcfg.progen.min_ops = 8;
  dcfg.progen.max_ops = 24;
  return build_synthetic_dataset(dcfg);
}

ModelConfig model_cfg(GnnKind kind) {
  ModelConfig mc;
  mc.kind = kind;
  mc.hidden = 16;
  mc.layers = 2;
  return mc;
}

TrainConfig train_cfg() {
  TrainConfig tc;
  tc.epochs = 2;
  tc.lr = 1e-2F;
  tc.batch_size = 4;
  tc.seed = 5;
  return tc;
}

/// Value of the first series of `family` in render_text output; -1 if
/// absent (family name match tolerates any labels).
long long series_value(const std::string& text, const std::string& family) {
  std::size_t pos = 0;
  while ((pos = text.find(family, pos)) != std::string::npos) {
    if (pos > 0 && text[pos - 1] != '\n') {  // mid-line or TYPE comment
      ++pos;
      continue;
    }
    const char next = text[pos + family.size()];
    if (next != '{' && next != ' ') {
      ++pos;
      continue;
    }
    const std::size_t eol = text.find('\n', pos);
    const std::size_t sp = text.rfind(' ', eol);
    return std::stoll(text.substr(sp + 1, eol - sp - 1));
  }
  return -1;
}

// ----- bounded latency recording -----

TEST(ObsSchedulerTest, LatencyCapBoundsBufferButNotHistogram) {
  const auto samples = small_corpus(12, 99);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);
  QorPredictor predictor(Approach::kOffTheShelf, model_cfg(GnnKind::kGcn),
                         train_cfg());
  predictor.fit(samples, split, Metric::kLut, FitOptions{});

  SchedulerConfig cfg;
  cfg.virtual_time = true;
  cfg.max_batch = 4;
  cfg.batch_window_us = 0;
  cfg.record_latencies = true;
  cfg.latency_cap = 4;
  ServingScheduler sched({&predictor}, cfg);
  std::vector<std::future<double>> futures;
  for (const Sample& s : samples) {
    futures.push_back(sched.submit(0, s).future);
  }
  while (sched.pump()) {
  }
  for (auto& f : futures) (void)f.get();

  // The raw buffer stops at the cap; the histogram records everything.
  EXPECT_EQ(sched.take_latencies_us().size(), 4U);
  EXPECT_TRUE(sched.take_latencies_us().empty());  // drained
  EXPECT_EQ(sched.stats().completed, samples.size());
  const std::string text = sched.metrics_registry().render_text();
  EXPECT_EQ(series_value(text, "gnnhls_sched_latencies_dropped_total"),
            static_cast<long long>(samples.size()) - 4);
  EXPECT_EQ(series_value(text, "gnnhls_sched_latency_us_count"),
            static_cast<long long>(samples.size()));
}

// ----- STATS wire frames -----

TEST(ObsWireTest, StatsFramesRoundTripUnderTearing) {
  StatsFrame req;
  req.request_id = 77;
  StatsFrame resp;
  resp.request_id = 77;
  resp.text = "# TYPE x counter\nx 1\n";
  std::string bytes = encode_stats_request_frame(req);
  append_stats_response_frame(bytes, resp);

  WireDecoder dec;
  for (char ch : bytes) dec.feed(&ch, 1);  // worst-case tearing
  DecodedFrame f;
  ASSERT_EQ(dec.next(f), WireStatus::kFrame);
  EXPECT_EQ(f.type, kWireTypeStatsRequest);
  EXPECT_EQ(f.stats.request_id, 77U);
  EXPECT_TRUE(f.stats.text.empty());
  ASSERT_EQ(dec.next(f), WireStatus::kFrame);
  EXPECT_EQ(f.type, kWireTypeStatsResponse);
  EXPECT_EQ(f.stats.request_id, 77U);
  EXPECT_EQ(f.stats.text, resp.text);
  EXPECT_EQ(dec.next(f), WireStatus::kNeedMore);
}

TEST(ObsWireTest, ShortStatsBodyPoisons) {
  // Hand-built header: magic, v1.1, type 3, 4-byte body (< the 8-byte
  // fixed request id) — must poison with kBadBody, not mis-decode.
  std::string bytes;
  const std::uint32_t magic = kWireMagic;
  for (int i = 0; i < 4; ++i) {
    bytes.push_back(static_cast<char>((magic >> (8 * i)) & 0xFF));
  }
  bytes.push_back(static_cast<char>(kWireMajor));
  bytes.push_back(static_cast<char>(kWireMinor));
  bytes.push_back(static_cast<char>(kWireTypeStatsRequest));
  bytes.push_back(0);  // reserved
  bytes.push_back(4);  // body length 4, little-endian
  bytes.push_back(0);
  bytes.push_back(0);
  bytes.push_back(0);
  bytes += "abcd";
  WireDecoder dec;
  dec.feed(bytes.data(), bytes.size());
  DecodedFrame f;
  EXPECT_EQ(dec.next(f), WireStatus::kBadBody);
  EXPECT_EQ(dec.next(f), WireStatus::kBadBody);  // latched
}

// ----- obs on == obs off bit-identity, all 14 encoder kinds -----

class ObsKindTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(ObsKindTest, ServedValuesBitIdenticalWithObsEnabled) {
  const auto samples = small_corpus(18, 147);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);
  QorPredictor predictor(Approach::kOffTheShelf, model_cfg(GetParam()),
                         train_cfg());
  predictor.fit(samples, split, Metric::kLut, FitOptions{});

  std::vector<const Sample*> ptrs;
  std::vector<double> expect;
  for (const Sample& s : samples) {
    ptrs.push_back(&s);
    expect.push_back(predictor.predict(s));
  }

  SchedulerConfig base;
  base.workers = 2;
  base.max_batch = 5;
  base.batch_window_us = 0;

  std::vector<double> off_vals;
  {
    ServingScheduler off({&predictor}, base);
    off_vals = off.predict_many(0, ptrs);
  }

  // Full observability: global-registry metrics, trace spans with the
  // collector armed — the maximum-instrumentation configuration.
  TraceCollector::global().clear();
  TraceCollector::global().start();
  std::vector<double> on_vals;
  {
    SchedulerConfig cfg = base;
    cfg.obs.metrics = true;
    cfg.obs.trace = true;
    ServingScheduler on({&predictor}, cfg);
    on_vals = on.predict_many(0, ptrs);
  }
  TraceCollector::global().stop();
  EXPECT_GT(TraceCollector::global().event_count(), 0U);
  TraceCollector::global().clear();

  ASSERT_EQ(off_vals.size(), expect.size());
  ASSERT_EQ(on_vals.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    // Exact == : obs reads time, never values.
    EXPECT_EQ(off_vals[i], expect[i])
        << gnn_kind_name(GetParam()) << " obs-off sample " << i;
    EXPECT_EQ(on_vals[i], expect[i])
        << gnn_kind_name(GetParam()) << " obs-on sample " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, ObsKindTest, ::testing::ValuesIn(all_gnn_kinds()),
    [](const ::testing::TestParamInfo<GnnKind>& info) {
      std::string name = gnn_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gnnhls
