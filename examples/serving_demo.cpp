// Serving demo: QoR inference as a service for a DSE loop.
//
//   1. Train an off-the-shelf RGCN predictor on a small synthetic corpus.
//   2. Stand up a ServingScheduler over the trained predictor (one model,
//      one worker, static batch window).
//   3. Simulate a design-space exploration: several searcher threads submit
//      candidate designs concurrently and block on their future (one
//      in-flight candidate per searcher).
//   4. Show that every served prediction is bit-identical to a sequential
//      QorPredictor::predict call, and how the worker micro-batched the
//      concurrent traffic.
//
// Exit code 1 if any served prediction diverges from the sequential path —
// CI runs this binary as a Release-configuration serving smoke test.
//
// Build & run:  ./build/serving_demo
#include <atomic>
#include <iostream>
#include <thread>

#include "serve/scheduler.h"
#include "support/table.h"
#include "support/timer.h"

using namespace gnnhls;

int main() {
  // ----- 1. train a predictor -----
  std::cout << "== 1. training off-the-shelf RGCN on 120 synthetic DFGs ==\n";
  SyntheticDatasetConfig dc;
  dc.kind = GraphKind::kDfg;
  dc.num_graphs = 120;
  dc.seed = 20260730;
  const std::vector<Sample> corpus = build_synthetic_dataset(dc);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(corpus.size()), 7);

  ModelConfig mc;
  mc.kind = GnnKind::kRgcn;
  mc.hidden = 32;
  mc.layers = 3;
  TrainConfig tc;
  tc.epochs = 10;
  tc.lr = 1e-2F;
  tc.batch_size = 8;
  QorPredictor predictor(Approach::kOffTheShelf, mc, tc);
  Timer fit_timer;
  const double val =
      predictor.fit(corpus, split, Metric::kLut, FitOptions{}).best_val;
  std::cout << "  val MAPE " << TextTable::pct(val) << " in "
            << TextTable::num(fit_timer.seconds(), 1) << "s\n\n";

  // ----- 2. stand up the serving scheduler -----
  SchedulerConfig sc;  // workers = 1 by default
  sc.max_batch = 8;
  sc.batch_window_us = 500;
  sc.adaptive_window = false;  // every batch waits the full window
  ServingScheduler sched({&predictor}, sc);
  std::cout << "== 2. serving scheduler up (max-batch=" << sc.max_batch
            << ", batch-window-us=" << sc.batch_window_us << ") ==\n\n";

  // ----- 3. concurrent searcher threads submit candidates -----
  constexpr int kSearchers = 6;
  constexpr int kCandidatesPerSearcher = 20;
  std::cout << "== 3. DSE load: " << kSearchers << " searcher threads x "
            << kCandidatesPerSearcher << " candidates ==\n";
  // Sequential reference values, computed BEFORE the timed window so the
  // throughput number measures the scheduler alone (this also builds the
  // corpus samples' features, which the submitted copies share).
  std::vector<double> expected;
  expected.reserve(corpus.size());
  for (const Sample& s : corpus) expected.push_back(predictor.predict(s));
  std::atomic<int> mismatches{0};
  Timer serve_timer;
  std::vector<std::thread> searchers;
  for (int t = 0; t < kSearchers; ++t) {
    searchers.emplace_back([&, t] {
      for (int r = 0; r < kCandidatesPerSearcher; ++r) {
        const std::size_t pick =
            static_cast<std::size_t>((t * 37 + r * 11) % corpus.size());
        const double served = sched.submit(0, corpus[pick]).future.get();
        // The serving contract: batching must never change a prediction.
        if (served != expected[pick]) ++mismatches;
      }
    });
  }
  for (std::thread& s : searchers) s.join();
  const double wall = serve_timer.seconds();
  sched.shutdown();

  // ----- 4. what the scheduler did -----
  const SchedStats st = sched.stats();
  constexpr int kTotal = kSearchers * kCandidatesPerSearcher;
  std::cout << "  served " << st.completed << " candidates in "
            << TextTable::num(wall * 1e3, 0) << "ms ("
            << TextTable::num(static_cast<double>(kTotal) / wall, 0)
            << " graphs/s)\n\n== 4. serving stats ==\n";
  TextTable stats({"counter", "value"});
  stats.add_row({"requests served", std::to_string(st.completed)});
  stats.add_row({"forward passes", std::to_string(st.batches)});
  stats.add_row({"avg graphs/forward", TextTable::num(st.avg_batch(), 2)});
  stats.add_row({"largest micro-batch", std::to_string(st.max_batch_seen)});
  stats.add_row({"flushes full/timeout/drain",
                 std::to_string(st.flush_full) + "/" +
                     std::to_string(st.flush_timeout) + "/" +
                     std::to_string(st.flush_drain)});
  std::cout << stats.to_string() << "\n";

  if (mismatches.load() != 0 || st.completed != kTotal) {
    std::cout << "FAIL: " << mismatches.load()
              << " served predictions diverged from sequential predict()\n";
    return 1;
  }
  std::cout << "every served prediction bit-identical to sequential "
               "predict() — batching changes latency, never values.\n";
  return 0;
}
