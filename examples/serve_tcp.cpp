// TCP serving quickstart: QoR inference over a real socket.
//
//   1. Train two off-the-shelf predictors (LUT + CP) on a synthetic corpus.
//   2. Stand up a ServingScheduler and expose it on 127.0.0.1 through
//      TcpEndpoint — length-prefixed binary frames, see serve/wire.h.
//   3. Connect a loopback TcpClient, send a burst of candidate designs
//      (model id picks LUT vs CP), and read the responses back.
//   4. Scrape the live server with a STATS wire frame (wire.h type 3) and
//      check the Prometheus-style text it returns agrees with the
//      WireStats/SchedStats facade snapshots.
//   5. Show that every socket-served prediction is bit-identical to a
//      sequential QorPredictor::predict call, plus the wire-level counters.
//
// Exit code 1 if any served prediction diverges from the sequential path,
// or if the STATS scrape is missing/contradicts the facade counters — CI
// runs this binary as a Release-configuration loopback smoke test.
//
// Build & run:  ./build/serve_tcp [--port=N] [--max-inflight=N]
//   --port=N          listen port (default 0 = OS-assigned ephemeral port)
//   --max-inflight=N  per-connection admission cap before the endpoint
//                     answers kOverConnectionLimit (default 64)
#include <cstring>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "dataset/serialize.h"
#include "serve/scheduler.h"
#include "serve/tcp_endpoint.h"
#include "serve/wire.h"
#include "support/flags.h"
#include "support/table.h"
#include "support/timer.h"

using namespace gnnhls;

namespace {

/// Value of the first series of `family` in Prometheus-style `text`
/// (a line "family 42" or "family{labels} 42"); -1 if absent.
long long scrape_value(const std::string& text, const std::string& family) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind(family, 0) != 0) continue;
    const char next =
        line.size() > family.size() ? line[family.size()] : '\0';
    if (next != '{' && next != ' ') continue;  // longer family name
    const std::size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    return std::stoll(line.substr(sp + 1));
  }
  return -1;
}

}  // namespace

int main(int argc, char** argv) {
  Flags flags(argc, argv);
  TcpEndpointConfig ecfg;
  ecfg.port = flags.get_int("port", 0);
  ecfg.max_inflight = flags.get_int("max-inflight", 64);
  flags.check_all_consumed();

  // ----- 1. train LUT + CP predictors -----
  std::cout << "== 1. training off-the-shelf RGCN (LUT + CP heads) on 96 "
               "synthetic DFGs ==\n";
  SyntheticDatasetConfig dc;
  dc.kind = GraphKind::kDfg;
  dc.num_graphs = 96;
  dc.seed = 20260808;
  const std::vector<Sample> corpus = build_synthetic_dataset(dc);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(corpus.size()), 7);

  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = 32;
  mc.layers = 3;
  TrainConfig tc;
  tc.epochs = 8;
  tc.lr = 1e-2F;
  tc.batch_size = 8;
  QorPredictor lut(Approach::kOffTheShelf, mc, tc);
  QorPredictor cp(Approach::kOffTheShelf, mc, tc);
  Timer fit_timer;
  const double lut_val =
      lut.fit(corpus, split, Metric::kLut, FitOptions{}).best_val;
  const double cp_val =
      cp.fit(corpus, split, Metric::kCp, FitOptions{}).best_val;
  std::cout << "  val MAPE lut " << TextTable::pct(lut_val) << " / cp "
            << TextTable::pct(cp_val) << " in "
            << TextTable::num(fit_timer.seconds(), 1) << "s\n\n";

  // ----- 2. scheduler + TCP endpoint -----
  SchedulerConfig sc;
  sc.workers = 1;
  sc.max_batch = 8;
  sc.batch_window_us = 200;
  ServingScheduler sched({&lut, &cp}, sc);
  TcpEndpoint ep(sched, ecfg);
  std::cout << "== 2. listening on 127.0.0.1:" << ep.port()
            << " (max-inflight=" << ecfg.max_inflight << ") ==\n\n";

  // ----- 3. loopback client burst -----
  constexpr int kRequests = 32;
  std::cout << "== 3. loopback client: " << kRequests
            << " requests, alternating LUT/CP ==\n";
  // Sequential reference values, computed before the timed window. The
  // endpoint decodes every request into a fresh sample, which builds its
  // own features.
  std::vector<double> expected_lut, expected_cp;
  for (const Sample& s : corpus) {
    expected_lut.push_back(lut.predict(s));
    expected_cp.push_back(cp.predict(s));
  }
  TcpClient client(ep.port());
  Timer serve_timer;
  int mismatches = 0;
  int answered = 0;
  int outstanding = 0;
  const auto take_response = [&] {
    ResponseFrame resp;
    if (!client.recv_response(resp)) return false;
    ++answered;
    --outstanding;
    if (resp.result != WireResult::kOk) {
      std::cout << "  request " << resp.request_id
                << " rejected: " << wire_result_name(resp.result) << "\n";
      ++mismatches;
      return true;
    }
    const auto id = static_cast<int>(resp.request_id);
    const std::size_t pick =
        static_cast<std::size_t>((id * 37 + 11) % corpus.size());
    const double want =
        (id % 2 == 0) ? expected_lut[pick] : expected_cp[pick];
    // The serving contract: encode -> frame -> decode -> schedule must
    // never change a prediction, bit for bit.
    if (std::memcmp(&resp.prediction, &want, sizeof want) != 0) {
      ++mismatches;
    }
    return true;
  };
  for (int r = 0; r < kRequests; ++r) {
    // Respect the endpoint's per-connection admission cap: a request sent
    // while max_inflight are already unanswered would be rejected with
    // kOverConnectionLimit, so drain one response first.
    while (outstanding >= ecfg.max_inflight && take_response()) {
    }
    const std::size_t pick =
        static_cast<std::size_t>((r * 37 + 11) % corpus.size());
    RequestFrame req;
    req.request_id = static_cast<std::uint64_t>(r);
    req.model = static_cast<std::uint32_t>(r % 2);  // 0 = LUT, 1 = CP
    req.payload = encode_sample_payload(corpus[pick]);
    client.send_request(req);
    ++outstanding;
  }
  while (answered < kRequests && take_response()) {
  }
  const double wall = serve_timer.seconds();
  std::cout << "  " << answered << "/" << kRequests << " answered in "
            << TextTable::num(wall * 1e3, 0) << "ms ("
            << TextTable::num(static_cast<double>(answered) / wall, 0)
            << " graphs/s over loopback)\n\n";

  // ----- 4. STATS scrape over the same connection -----
  std::cout << "== 4. STATS scrape (wire frame type 3) ==\n";
  StatsFrame scrape;
  bool scrape_ok = client.send_stats_request(9999);
  scrape_ok = scrape_ok && client.recv_stats_response(scrape) &&
              scrape.request_id == 9999 && !scrape.text.empty();
  client.close();
  ep.stop();
  sched.shutdown();
  // All burst responses were drained before the scrape, so every counter
  // below was final when the server rendered the text — it must agree
  // exactly with the facade snapshots. (frames_out/bytes_out are excluded:
  // the stats response itself bumps them after rendering.)
  const WireStats ws = ep.stats();
  const SchedStats ss = sched.stats();
  const std::vector<std::pair<std::string, long long>> scrape_expect = {
      {"gnnhls_wire_connections_accepted_total",
       static_cast<long long>(ws.connections_accepted)},
      {"gnnhls_wire_frames_in_total", static_cast<long long>(ws.frames_in)},
      {"gnnhls_wire_responses_ok_total",
       static_cast<long long>(ws.responses_ok)},
      {"gnnhls_wire_rejects_backpressure_total",
       static_cast<long long>(ws.rejects_backpressure)},
      {"gnnhls_wire_rejects_payload_total",
       static_cast<long long>(ws.rejects_payload)},
      {"gnnhls_wire_rejects_sched_total",
       static_cast<long long>(ws.rejects_sched)},
      {"gnnhls_wire_decode_errors_total",
       static_cast<long long>(ws.decode_errors)},
      {"gnnhls_sched_submitted_total", static_cast<long long>(ss.submitted)},
      {"gnnhls_sched_completed_total", static_cast<long long>(ss.completed)},
      {"gnnhls_sched_batches_total", static_cast<long long>(ss.batches)},
  };
  int scrape_mismatches = 0;
  for (const auto& [family, want] : scrape_expect) {
    const long long got = scrape_value(scrape.text, family);
    if (got != want) {
      std::cout << "  MISMATCH " << family << ": scraped " << got
                << ", facade " << want << "\n";
      ++scrape_mismatches;
    }
  }
  if (scrape_ok && scrape_mismatches == 0) {
    std::cout << "  scraped " << scrape.text.size() << " bytes; "
              << scrape_expect.size()
              << " counters match the facade snapshots exactly\n\n";
  } else {
    std::cout << "  FAIL: scrape_ok=" << scrape_ok << ", "
              << scrape_mismatches << " counter mismatches\n\n";
  }

  // ----- 5. wire stats -----
  std::cout << "== 5. wire stats ==\n";
  TextTable stats({"counter", "value"});
  stats.add_row({"connections accepted/closed",
                 std::to_string(ws.connections_accepted) + "/" +
                     std::to_string(ws.connections_closed)});
  stats.add_row({"frames in/out", std::to_string(ws.frames_in) + "/" +
                                      std::to_string(ws.frames_out)});
  stats.add_row({"bytes in/out", std::to_string(ws.bytes_in) + "/" +
                                     std::to_string(ws.bytes_out)});
  stats.add_row({"responses ok", std::to_string(ws.responses_ok)});
  stats.add_row({"rejects backpressure/payload/sched",
                 std::to_string(ws.rejects_backpressure) + "/" +
                     std::to_string(ws.rejects_payload) + "/" +
                     std::to_string(ws.rejects_sched)});
  stats.add_row({"decode errors", std::to_string(ws.decode_errors)});
  stats.add_row({"write failures", std::to_string(ws.write_failures)});
  std::cout << stats.to_string() << "\n";

  if (mismatches != 0 || answered != kRequests || !scrape_ok ||
      scrape_mismatches != 0) {
    std::cout << "FAIL: " << mismatches << " mismatches, " << answered << "/"
              << kRequests << " answered, scrape_ok=" << scrape_ok << ", "
              << scrape_mismatches << " scrape mismatches\n";
    return 1;
  }
  std::cout << "every socket-served prediction bit-identical to sequential "
               "predict() — the wire changes latency, never values.\n";
  return 0;
}
