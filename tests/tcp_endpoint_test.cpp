// serve/tcp_endpoint.h tests: loopback end-to-end serving (bit-identity
// with sequential predict() — including the all-14-encoder-kinds gate),
// exact per-connection backpressure accounting, drain-answers-all on
// stop(), feature-cache eviction, and the wire-protocol fault-injection
// battery: garbage headers, oversized length prefixes, truncated frames,
// torn writes split at every byte boundary of the header, and mid-request
// client disconnects. After every fault the endpoint must still serve a
// fresh connection — no crash, no wedge, no leaked future (ASan/TSan run
// this whole binary in CI).
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "dataset/serialize.h"
#include "gnn/encoders.h"
#include "serve/scheduler.h"
#include "serve/tcp_endpoint.h"
#include "serve/wire.h"
#include "train/feature_cache.h"

namespace gnnhls {
namespace {

std::vector<Sample> small_corpus(int n, std::uint64_t seed) {
  SyntheticDatasetConfig dcfg;
  dcfg.kind = GraphKind::kDfg;
  dcfg.num_graphs = n;
  dcfg.seed = seed;
  dcfg.progen.min_ops = 6;
  dcfg.progen.max_ops = 20;
  return build_synthetic_dataset(dcfg);
}

ModelConfig model_cfg(GnnKind kind = GnnKind::kRgcn) {
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

/// One quickly-fitted predictor + corpus shared by every endpoint test.
struct EndpointFixture {
  std::vector<Sample> samples = small_corpus(24, 808);
  SplitIndices split = split_80_10_10(static_cast<int>(samples.size()), 3);
  QorPredictor lut;

  EndpointFixture() : lut(Approach::kOffTheShelf, model_cfg(), train_cfg()) {
    lut.fit(samples, split, Metric::kLut, FitOptions{});
  }
};

EndpointFixture& fixture() {
  static EndpointFixture* f = new EndpointFixture();  // fit once per binary
  return *f;
}

SchedulerConfig serving_cfg() {
  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 4;
  cfg.batch_window_us = 100;
  return cfg;
}

RequestFrame make_request(std::uint64_t id, const Sample& s,
                          std::uint32_t model = 0) {
  RequestFrame req;
  req.request_id = id;
  req.model = model;
  req.payload = encode_sample_payload(s);
  return req;
}

/// Spin-polls an endpoint stat until `pred` holds (sanitizer-friendly: no
/// fixed sleeps long enough to matter, bounded by the 5s cap).
template <typename Pred>
bool poll_stats(const TcpEndpoint& ep, Pred pred) {
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (std::chrono::steady_clock::now() < deadline) {
    if (pred(ep.stats())) return true;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// One round-trip on a fresh connection — the "endpoint is not wedged"
/// probe run after every fault injection.
void expect_still_serving(const TcpEndpoint& ep, const Sample& s,
                          double expect) {
  TcpClient probe(ep.port());
  ASSERT_TRUE(probe.send_request(make_request(0xBEEF, s)));
  ResponseFrame resp;
  ASSERT_TRUE(probe.recv_response(resp));
  EXPECT_EQ(resp.request_id, 0xBEEFU);
  EXPECT_EQ(resp.result, WireResult::kOk);
  EXPECT_EQ(resp.prediction, expect);
}

// ----- loopback end-to-end -----

TEST(TcpEndpointTest, LoopbackRoundTripBitIdentical) {
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpoint ep(sched);
  ASSERT_GT(ep.port(), 0);

  TcpClient client(ep.port());
  for (std::uint64_t i = 0; i < 6; ++i) {
    ASSERT_TRUE(client.send_request(make_request(i, fx.samples[i])));
  }
  std::map<std::uint64_t, double> got;
  for (int i = 0; i < 6; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(resp));
    EXPECT_EQ(resp.result, WireResult::kOk);
    got[resp.request_id] = resp.prediction;
  }
  for (std::uint64_t i = 0; i < 6; ++i) {
    // THE gate: a socket-served prediction is bit-identical to sequential
    // predict() on the same sample.
    EXPECT_EQ(got.at(i), fx.lut.predict(fx.samples[i])) << i;
  }
  client.close();
  ep.stop();
  const WireStats st = ep.stats();
  EXPECT_EQ(st.frames_in, 6U);
  EXPECT_EQ(st.frames_out, 6U);
  EXPECT_EQ(st.responses_ok, 6U);
  EXPECT_EQ(st.decode_errors, 0U);
  EXPECT_EQ(st.connections_accepted, 1U);
  EXPECT_EQ(st.connections_closed, 1U);
  EXPECT_GT(st.bytes_in, 0U);
  EXPECT_GT(st.bytes_out, 0U);
}

TEST(TcpEndpointTest, StatsScrapeOverSocket) {
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpoint ep(sched);
  TcpClient client(ep.port());
  // Serve a couple of requests first so the scraped counters are nonzero.
  for (std::uint64_t i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.send_request(make_request(i, fx.samples[i])));
  }
  for (int i = 0; i < 2; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(resp));
    EXPECT_EQ(resp.result, WireResult::kOk);
  }
  ASSERT_TRUE(client.send_stats_request(42));
  StatsFrame sf;
  ASSERT_TRUE(client.recv_stats_response(sf));
  EXPECT_EQ(sf.request_id, 42U);
  // The scrape renders the endpoint's registry AND its scheduler's — with
  // obs off these are private per-instance registries, still scrapeable
  // (the STATS frame is protocol surface, not observability).
  for (const char* family :
       {"gnnhls_wire_frames_in_total", "gnnhls_wire_responses_ok_total",
        "gnnhls_wire_stats_requests_total", "gnnhls_sched_submitted_total",
        "gnnhls_sched_completed_total", "gnnhls_sched_latency_us_bucket"}) {
    EXPECT_NE(sf.text.find(family), std::string::npos) << family;
  }
  // The per-result response family uses the shared status-name labels.
  EXPECT_NE(sf.text.find("result=\"ok\""), std::string::npos);
  client.close();
  ep.stop();
  EXPECT_EQ(ep.stats().responses_ok, 2U);
  EXPECT_EQ(ep.stats().stats_requests, 1U);
}

TEST(TcpEndpointTest, ConcurrentClientsBitIdentical) {
  // N concurrent client sockets x M requests each, all answered
  // bit-identically while micro-batches mix traffic from every connection.
  EndpointFixture& fx = fixture();
  SchedulerConfig cfg = serving_cfg();
  cfg.max_batch = 6;
  ServingScheduler sched({&fx.lut}, cfg);
  TcpEndpoint ep(sched);

  constexpr int kClients = 4;
  constexpr int kRequests = 8;
  std::vector<double> expect;
  for (const Sample& s : fx.samples) expect.push_back(fx.lut.predict(s));

  std::vector<std::thread> clients;
  std::vector<int> failures(kClients, 0);
  for (int c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      TcpClient client(ep.port());
      for (int r = 0; r < kRequests; ++r) {
        const std::size_t idx =
            static_cast<std::size_t>((c * kRequests + r) % 24);
        const std::uint64_t id = static_cast<std::uint64_t>(idx) << 8 |
                                 static_cast<std::uint64_t>(r);
        if (!client.send_request(make_request(id, fx.samples[idx]))) {
          ++failures[static_cast<std::size_t>(c)];
          return;
        }
      }
      for (int r = 0; r < kRequests; ++r) {
        ResponseFrame resp;
        if (!client.recv_response(resp) ||
            resp.result != WireResult::kOk ||
            resp.prediction != expect[resp.request_id >> 8]) {
          ++failures[static_cast<std::size_t>(c)];
        }
      }
    });
  }
  for (auto& t : clients) t.join();
  for (int c = 0; c < kClients; ++c) EXPECT_EQ(failures[c], 0) << c;

  ep.stop();
  const WireStats st = ep.stats();
  EXPECT_EQ(st.frames_in, kClients * kRequests);
  EXPECT_EQ(st.responses_ok, kClients * kRequests);
  EXPECT_EQ(st.connections_accepted, kClients);
  EXPECT_EQ(st.connections_closed, kClients);
  EXPECT_EQ(st.decode_errors, 0U);
  EXPECT_EQ(st.write_failures, 0U);
}

TEST(TcpEndpointTest, DrainAnswersEverythingOnStop) {
  // stop() while requests are still in flight: every accepted frame gets a
  // response before the connection closes (then EOF).
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpoint ep(sched);
  TcpClient client(ep.port());
  constexpr std::uint64_t kBurst = 10;
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    ASSERT_TRUE(
        client.send_request(make_request(i, fx.samples[i % 24])));
  }
  // Wait until every frame has been read off the socket — bytes still in
  // the kernel buffer when stop() closes the read side were never accepted
  // and owe no response. Then stop with responses still in flight.
  ASSERT_TRUE(poll_stats(
      ep, [](const WireStats& st) { return st.frames_in == kBurst; }));
  std::thread stopper([&] { ep.stop(); });
  std::map<std::uint64_t, double> got;
  ResponseFrame resp;
  while (client.recv_response(resp)) {
    EXPECT_EQ(resp.result, WireResult::kOk);
    got[resp.request_id] = resp.prediction;
  }
  stopper.join();
  ASSERT_EQ(got.size(), kBurst);  // drain answered every accepted frame
  for (std::uint64_t i = 0; i < kBurst; ++i) {
    EXPECT_EQ(got.at(i), fx.lut.predict(fx.samples[i % 24])) << i;
  }
}

TEST(TcpEndpointTest, BackpressureRejectsCountedExactly) {
  // A scheduler whose window is far longer than the test keeps accepted
  // requests queued, so the connection's in-flight count can only grow:
  // with max_inflight=4 and 10 requests, exactly 6 must be rejected with
  // kOverConnectionLimit (and never reach the scheduler).
  EndpointFixture& fx = fixture();
  SchedulerConfig cfg;
  cfg.workers = 1;
  cfg.max_batch = 16;
  cfg.batch_window_us = 30'000'000;  // 30s: nothing served until shutdown
  ServingScheduler sched({&fx.lut}, cfg);
  TcpEndpointConfig ecfg;
  ecfg.max_inflight = 4;
  TcpEndpoint ep(sched, ecfg);

  TcpClient client(ep.port());
  for (std::uint64_t i = 0; i < 10; ++i) {
    ASSERT_TRUE(client.send_request(make_request(i, fx.samples[i])));
  }
  ASSERT_TRUE(poll_stats(ep, [](const WireStats& st) {
    return st.rejects_backpressure == 6;
  }));
  EXPECT_EQ(sched.stats().submitted, 4U);  // over-limit never submitted

  sched.shutdown();  // drain serves the 4 queued requests with predictions
  int ok = 0, over = 0;
  for (int i = 0; i < 10; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(resp)) << i;
    if (resp.result == WireResult::kOk) {
      ++ok;
      EXPECT_EQ(resp.prediction, fx.lut.predict(fx.samples[resp.request_id]));
    } else {
      EXPECT_EQ(resp.result, WireResult::kOverConnectionLimit);
      ++over;
    }
  }
  EXPECT_EQ(ok, 4);
  EXPECT_EQ(over, 6);
  client.close();
  ep.stop();
  EXPECT_EQ(ep.stats().rejects_backpressure, 6U);
  EXPECT_EQ(ep.stats().responses_ok, 4U);
}

TEST(TcpEndpointTest, EvictsDecodedFeaturesOnceAnswered) {
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpoint ep(sched);

  // Warm the cache with the fixture corpus so the baseline is stable, then
  // count: wire samples mint fresh uids, so without eviction each request
  // would grow the cache by one entry forever.
  for (const Sample& s : fx.samples) (void)fx.lut.predict(s);
  const std::size_t baseline = FeatureCache::global().entries();

  TcpClient client(ep.port());
  for (std::uint64_t i = 0; i < 5; ++i) {
    ASSERT_TRUE(client.send_request(make_request(i, fx.samples[i])));
  }
  for (int i = 0; i < 5; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(resp));
    EXPECT_EQ(resp.result, WireResult::kOk);
  }
  // Eviction happens on the writer thread before each response is sent, so
  // once all responses are read the cache is back to the baseline.
  EXPECT_EQ(FeatureCache::global().entries(), baseline);
  client.close();
  ep.stop();
}

// ----- well-framed rejects (connection survives) -----

TEST(TcpEndpointTest, BadPayloadAndBadModelRejectPerRequest) {
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpoint ep(sched);
  TcpClient client(ep.port());

  RequestFrame bad_payload;
  bad_payload.request_id = 1;
  bad_payload.payload = "this is not a benchmark payload";
  ASSERT_TRUE(client.send_request(bad_payload));

  RequestFrame bad_model = make_request(2, fx.samples[0], /*model=*/7);
  ASSERT_TRUE(client.send_request(bad_model));

  ASSERT_TRUE(client.send_request(make_request(3, fx.samples[0])));

  std::map<std::uint64_t, WireResult> results;
  for (int i = 0; i < 3; ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(resp));
    results[resp.request_id] = resp.result;
    if (resp.request_id == 3) {
      EXPECT_EQ(resp.prediction, fx.lut.predict(fx.samples[0]));
    }
  }
  EXPECT_EQ(results.at(1), WireResult::kBadPayload);
  EXPECT_EQ(results.at(2), WireResult::kBadModel);
  EXPECT_EQ(results.at(3), WireResult::kOk);  // same connection still live
  client.close();
  ep.stop();
  EXPECT_EQ(ep.stats().rejects_payload, 2U);
  EXPECT_EQ(ep.stats().decode_errors, 0U);  // framing was never broken
}

// ----- fault injection: the endpoint must reject/close, never wedge -----

TEST(TcpEndpointFaultTest, GarbageHeaderClosesConnectionOnly) {
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpoint ep(sched);
  const double expect = fx.lut.predict(fx.samples[0]);

  TcpClient evil(ep.port());
  ASSERT_TRUE(evil.send_raw("GET / HTTP/1.1\r\nHost: nope\r\n\r\n"));
  ResponseFrame resp;
  EXPECT_FALSE(evil.recv_response(resp));  // server closed, no response
  ASSERT_TRUE(poll_stats(
      ep, [](const WireStats& st) { return st.decode_errors == 1; }));

  expect_still_serving(ep, fx.samples[0], expect);
  ep.stop();
  EXPECT_EQ(ep.stats().decode_errors, 1U);
  EXPECT_EQ(ep.stats().connections_closed, 2U);
}

TEST(TcpEndpointFaultTest, OversizedLengthPrefixRejectedBeforeAllocation) {
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpointConfig ecfg;
  ecfg.max_frame_bytes = 64 * 1024;
  TcpEndpoint ep(sched, ecfg);
  const double expect = fx.lut.predict(fx.samples[0]);

  // A valid header advertising a 4 GiB body — the endpoint must poison the
  // connection off the length prefix alone.
  RequestFrame huge = make_request(1, fx.samples[0]);
  std::string frame = encode_request_frame(huge);
  frame[8] = '\xF0';  // body_len bytes (little-endian)
  frame[9] = '\xFF';
  frame[10] = '\xFF';
  frame[11] = '\xFF';
  TcpClient evil(ep.port());
  ASSERT_TRUE(evil.send_raw(frame));
  ResponseFrame resp;
  EXPECT_FALSE(evil.recv_response(resp));
  ASSERT_TRUE(poll_stats(
      ep, [](const WireStats& st) { return st.decode_errors == 1; }));

  expect_still_serving(ep, fx.samples[0], expect);
  ep.stop();
}

TEST(TcpEndpointFaultTest, TruncatedFrameThenDisconnectIsNotAnError) {
  // Half a frame then EOF: the stream just ended — close without counting
  // a decode error and without wedging anything.
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpoint ep(sched);
  const double expect = fx.lut.predict(fx.samples[0]);

  const std::string frame = encode_request_frame(make_request(1, fx.samples[0]));
  {
    TcpClient quitter(ep.port());
    ASSERT_TRUE(quitter.send_raw(frame.substr(0, frame.size() / 2)));
    quitter.close();  // mid-frame disconnect
  }
  ASSERT_TRUE(poll_stats(
      ep, [](const WireStats& st) { return st.connections_closed >= 1; }));
  EXPECT_EQ(ep.stats().decode_errors, 0U);
  EXPECT_EQ(ep.stats().frames_in, 0U);

  expect_still_serving(ep, fx.samples[0], expect);
  ep.stop();
}

TEST(TcpEndpointFaultTest, MidRequestDisconnectAfterSubmitIsAbsorbed) {
  // Full request, then the client vanishes before reading its answer. The
  // scheduler still serves it; the undeliverable response is counted, not
  // fatal.
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpoint ep(sched);
  const double expect = fx.lut.predict(fx.samples[0]);

  {
    TcpClient quitter(ep.port());
    ASSERT_TRUE(quitter.send_request(make_request(1, fx.samples[0])));
    quitter.close();  // gone before the response lands
  }
  // The request is always answered: either the write succeeded into the
  // doomed socket's buffer or it failed — both count as "answered".
  ASSERT_TRUE(poll_stats(ep, [](const WireStats& st) {
    return st.frames_out + st.write_failures == 1;
  }));
  EXPECT_EQ(ep.stats().frames_in, 1U);
  EXPECT_EQ(ep.stats().responses_ok, 1U);  // served despite the disconnect

  expect_still_serving(ep, fx.samples[0], expect);
  ep.stop();
}

TEST(TcpEndpointFaultTest, TornWritesAtEveryHeaderByteBoundary) {
  // Split one valid frame at every byte boundary of the 12-byte header
  // (two separate sends with a pause between): the decoder must reassemble
  // every tearing into the same served prediction.
  EndpointFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, serving_cfg());
  TcpEndpoint ep(sched);
  const double expect = fx.lut.predict(fx.samples[2]);

  TcpClient client(ep.port());
  std::uint64_t id = 0;
  for (std::size_t cut = 1; cut <= kWireHeaderBytes; ++cut) {
    const std::string frame =
        encode_request_frame(make_request(++id, fx.samples[2]));
    ASSERT_TRUE(client.send_raw(frame.substr(0, cut)));
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
    ASSERT_TRUE(client.send_raw(frame.substr(cut)));
    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(resp)) << "cut=" << cut;
    EXPECT_EQ(resp.request_id, id);
    EXPECT_EQ(resp.result, WireResult::kOk) << "cut=" << cut;
    EXPECT_EQ(resp.prediction, expect) << "cut=" << cut;
  }
  client.close();
  ep.stop();
  EXPECT_EQ(ep.stats().frames_in, kWireHeaderBytes);
  EXPECT_EQ(ep.stats().decode_errors, 0U);
}

// ----- determinism gate: all 14 encoder kinds over a live socket -----

class TcpEndpointKindTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(TcpEndpointKindTest, LoopbackBitIdenticalToSequentialPredict) {
  const auto samples = small_corpus(10, 271);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);
  QorPredictor predictor(Approach::kOffTheShelf, model_cfg(GetParam()),
                         train_cfg());
  predictor.fit(samples, split, Metric::kLut, FitOptions{});

  std::vector<double> expect;
  for (const Sample& s : samples) expect.push_back(predictor.predict(s));

  ServingScheduler sched({&predictor}, serving_cfg());
  TcpEndpoint ep(sched);
  TcpClient client(ep.port());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ASSERT_TRUE(client.send_request(
        make_request(static_cast<std::uint64_t>(i), samples[i])));
  }
  for (std::size_t i = 0; i < samples.size(); ++i) {
    ResponseFrame resp;
    ASSERT_TRUE(client.recv_response(resp));
    ASSERT_EQ(resp.result, WireResult::kOk);
    EXPECT_EQ(resp.prediction, expect[resp.request_id])
        << gnn_kind_name(GetParam()) << " sample " << resp.request_id;
  }
  client.close();
  ep.stop();
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, TcpEndpointKindTest, ::testing::ValuesIn(all_gnn_kinds()),
    [](const ::testing::TestParamInfo<GnnKind>& info) {
      std::string name = gnn_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gnnhls
