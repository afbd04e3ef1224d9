// serve/scheduler.h tests: the shared-queue multi-model scheduler's
// admission control (expired-at-submit, over-capacity), in-queue load
// shedding, priority/EDF ordering, adaptive-window rule, drain-on-shutdown
// answering every accepted future, multi-model fairness under one-hot load,
// the single-worker static-window mode on real threads (timeout flush, zero
// window, idle shutdown, concurrent submitters), the blocking predict_many,
// and the determinism contract — scheduled predictions bit-identical to
// sequential QorPredictor::predict across batch compositions for all 14
// encoder kinds. Edge-case tests run in virtual-time mode (no worker
// threads, no real clock) so expiry and window behavior are exact, not
// sleep-and-hope.
#include <atomic>
#include <future>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "gnn/encoders.h"
#include "serve/scheduler.h"

namespace gnnhls {
namespace {

std::vector<Sample> small_corpus(int n, std::uint64_t seed) {
  SyntheticDatasetConfig dcfg;
  dcfg.kind = GraphKind::kDfg;
  dcfg.num_graphs = n;
  dcfg.seed = seed;
  dcfg.progen.min_ops = 8;
  dcfg.progen.max_ops = 24;
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
  tc.epochs = 3;
  tc.lr = 1e-2F;
  tc.batch_size = 4;
  tc.seed = 5;
  return tc;
}

/// Two quickly-fitted predictors (distinct metrics, so their predictions
/// differ) shared by every multi-model test.
struct SchedFixture {
  std::vector<Sample> samples = small_corpus(36, 515);
  SplitIndices split = split_80_10_10(static_cast<int>(samples.size()), 3);
  QorPredictor lut;
  QorPredictor ff;

  SchedFixture()
      : lut(Approach::kOffTheShelf, model_cfg(), train_cfg()),
        ff(Approach::kOffTheShelf, model_cfg(), train_cfg()) {
    lut.fit(samples, split, Metric::kLut, FitOptions{});
    ff.fit(samples, split, Metric::kFf, FitOptions{});
  }
};

SchedFixture& fixture() {
  static SchedFixture* f = new SchedFixture();  // fit once per test binary
  return *f;
}

SchedulerConfig virtual_cfg(int max_batch = 4, std::int64_t window = 200) {
  SchedulerConfig cfg;
  cfg.virtual_time = true;
  cfg.max_batch = max_batch;
  cfg.batch_window_us = window;
  return cfg;
}

/// .get() on a shed future, returning the SchedReject status (fails the
/// test if the future holds a value or a different exception).
AdmitStatus reject_status(std::future<double>& f) {
  try {
    f.get();
  } catch (const SchedReject& e) {
    return e.status();
  }
  ADD_FAILURE() << "future did not hold a SchedReject";
  return AdmitStatus::kAccepted;
}

// ----- admission control and shedding (virtual time) -----

TEST(SchedulerAdmissionTest, ExpiredAtSubmitFailsFast) {
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, virtual_cfg());
  SubmitOptions opts;
  opts.deadline_us = -1;  // upstream SLA already blown on arrival
  auto t = sched.submit(0, fx.samples[0], opts);
  EXPECT_EQ(t.status, AdmitStatus::kExpired);
  EXPECT_FALSE(t.accepted());
  EXPECT_EQ(reject_status(t.future), AdmitStatus::kExpired);
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.submitted, 0U);  // never queued
  EXPECT_EQ(st.shed_expired, 1U);
  EXPECT_EQ(st.batches, 0U);
}

TEST(SchedulerAdmissionTest, OverCapacitySubmitsShedNotQueued) {
  SchedFixture& fx = fixture();
  SchedulerConfig cfg = virtual_cfg();
  cfg.max_queue = 2;
  ServingScheduler sched({&fx.lut}, cfg);
  auto a = sched.submit(0, fx.samples[0]);
  auto b = sched.submit(0, fx.samples[1]);
  auto c = sched.submit(0, fx.samples[2]);  // queue full: admission rejects
  EXPECT_TRUE(a.accepted());
  EXPECT_TRUE(b.accepted());
  EXPECT_EQ(c.status, AdmitStatus::kOverCapacity);
  EXPECT_EQ(reject_status(c.future), AdmitStatus::kOverCapacity);
  sched.shutdown();  // drains the two accepted requests
  EXPECT_EQ(a.future.get(), fx.lut.predict(fx.samples[0]));
  EXPECT_EQ(b.future.get(), fx.lut.predict(fx.samples[1]));
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.submitted, 2U);
  EXPECT_EQ(st.shed_capacity, 1U);
  EXPECT_EQ(st.completed, 2U);
}

TEST(SchedulerAdmissionTest, DeadlineExpiryInQueueShedsWithoutForward) {
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, virtual_cfg());
  SubmitOptions tight;
  tight.deadline_us = 100;
  auto doomed = sched.submit(0, fx.samples[0], tight);
  auto fresh = sched.submit(0, fx.samples[1]);  // no deadline
  ASSERT_TRUE(doomed.accepted());
  sched.advance_virtual_time(150);  // past doomed's deadline, window still
                                    // open for fresh? no — window is 200
                                    // from ITS arrival; advance past it
  sched.advance_virtual_time(100);
  EXPECT_TRUE(sched.pump());  // sheds doomed, serves fresh in one batch
  EXPECT_EQ(reject_status(doomed.future), AdmitStatus::kExpired);
  EXPECT_EQ(fresh.future.get(), fx.lut.predict(fx.samples[1]));
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.shed_in_queue, 1U);
  EXPECT_EQ(st.completed, 1U);
  EXPECT_EQ(st.batches, 1U);  // the expired request never cost a forward
  EXPECT_EQ(st.completed_in_deadline, 1U);  // no-deadline always counts
  EXPECT_EQ(st.shed_total(), 1U);
}

TEST(SchedulerAdmissionTest, SubmitAfterShutdownRejectsWithStatus) {
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, virtual_cfg());
  sched.shutdown();
  sched.shutdown();  // idempotent
  auto t = sched.submit(0, fx.samples[0]);
  EXPECT_EQ(t.status, AdmitStatus::kShutdown);
  EXPECT_THROW(t.future.get(), std::runtime_error);  // SchedReject is-a
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.submitted, 0U);
  EXPECT_EQ(st.rejected_shutdown, 1U);
  EXPECT_EQ(st.shed_total(), 0U);  // caller error, not load shedding
}

TEST(SchedulerAdmissionTest, RejectsBadConfig) {
  SchedFixture& fx = fixture();
  SchedulerConfig cfg = virtual_cfg();
  cfg.max_batch = 0;
  EXPECT_THROW(ServingScheduler({&fx.lut}, cfg), std::invalid_argument);
  cfg = virtual_cfg();
  cfg.batch_window_us = -1;
  EXPECT_THROW(ServingScheduler({&fx.lut}, cfg), std::invalid_argument);
  cfg = virtual_cfg();
  cfg.workers = 0;
  EXPECT_THROW(ServingScheduler({&fx.lut}, cfg), std::invalid_argument);
  EXPECT_THROW(ServingScheduler({}, virtual_cfg()), std::invalid_argument);
  ServingScheduler ok({&fx.lut}, virtual_cfg());
  EXPECT_THROW(ok.submit(1, fx.samples[0]), std::invalid_argument);
  EXPECT_THROW(ok.submit(-1, fx.samples[0]), std::invalid_argument);
}

// ----- queue ordering (virtual time, max_batch=1 serves one at a time) ---

TEST(SchedulerOrderingTest, HigherPriorityServedFirst) {
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, virtual_cfg(/*max_batch=*/1,
                                                /*window=*/0));
  auto low = sched.submit(0, fx.samples[0]);  // submitted first...
  SubmitOptions hi;
  hi.priority = 5;
  auto high = sched.submit(0, fx.samples[1], hi);  // ...but outranked
  EXPECT_TRUE(sched.pump());
  EXPECT_EQ(high.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(low.future.wait_for(std::chrono::seconds(0)),
            std::future_status::timeout);
  EXPECT_TRUE(sched.pump());
  EXPECT_EQ(high.future.get(), fx.lut.predict(fx.samples[1]));
  EXPECT_EQ(low.future.get(), fx.lut.predict(fx.samples[0]));
}

TEST(SchedulerOrderingTest, EarliestDeadlineFirstWithinPriority) {
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, virtual_cfg(/*max_batch=*/1,
                                                /*window=*/0));
  SubmitOptions late;
  late.deadline_us = 10'000;
  SubmitOptions soon;
  soon.deadline_us = 500;
  auto relaxed = sched.submit(0, fx.samples[0], late);
  auto urgent = sched.submit(0, fx.samples[1], soon);  // EDF: jumps ahead
  auto none = sched.submit(0, fx.samples[2]);  // no deadline: sorts last
  EXPECT_TRUE(sched.pump());
  EXPECT_EQ(urgent.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(sched.pump());
  EXPECT_EQ(relaxed.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_TRUE(sched.pump());
  EXPECT_EQ(urgent.future.get(), fx.lut.predict(fx.samples[1]));
  EXPECT_EQ(relaxed.future.get(), fx.lut.predict(fx.samples[0]));
  EXPECT_EQ(none.future.get(), fx.lut.predict(fx.samples[2]));
}

// ----- adaptive window -----

TEST(AdaptiveWindowTest, RuleIsDeterministicGivenObservations) {
  AdaptiveWindow w(/*cap_us=*/200, /*adaptive=*/true);
  EXPECT_EQ(w.current_us(), 200);  // starts at the cap
  w.observe(3);  // backlog at the cap: stays pinned, no counted move
  EXPECT_EQ(w.current_us(), 200);
  EXPECT_EQ(w.grows(), 0U);
  w.observe(0);
  EXPECT_EQ(w.current_us(), 100);  // drained: halve
  w.observe(0);
  EXPECT_EQ(w.current_us(), 50);
  w.observe(7);
  EXPECT_EQ(w.current_us(), 100);  // backlog: double toward the cap
  w.observe(7);
  w.observe(7);
  EXPECT_EQ(w.current_us(), 200);  // clamped at the cap (no counted move)
  EXPECT_EQ(w.grows(), 2U);
  EXPECT_EQ(w.shrinks(), 2U);
  // Shrink all the way to zero and grow back from it.
  for (int i = 0; i < 10; ++i) w.observe(0);
  EXPECT_EQ(w.current_us(), 0);
  w.observe(1);
  EXPECT_EQ(w.current_us(), 1);  // 0 doubles to the minimum nonzero step

  AdaptiveWindow pinned(/*cap_us=*/200, /*adaptive=*/false);
  pinned.observe(0);
  pinned.observe(9);
  EXPECT_EQ(pinned.current_us(), 200);  // static: pinned at the cap
  EXPECT_EQ(pinned.grows() + pinned.shrinks(), 0U);
}

TEST(AdaptiveWindowTest, SchedulerShrinksWindowWhenQueueDrains) {
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, virtual_cfg(/*max_batch=*/4,
                                                /*window=*/200));
  // 6 queued: first batch of 4 leaves backlog 2 (window pinned at cap),
  // second batch drains (window halves).
  std::vector<std::future<double>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(sched.submit(0, fx.samples[static_cast<size_t>(i)])
                          .future);
  }
  EXPECT_TRUE(sched.pump());  // full batch, backlog 2
  EXPECT_EQ(sched.stats().window_us, 200);
  sched.advance_virtual_time(250);  // past the leftover pair's window
  EXPECT_TRUE(sched.pump());  // drains, window halves
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.window_us, 100);
  EXPECT_EQ(st.window_shrinks, 1U);
  EXPECT_EQ(st.flush_full, 1U);
  EXPECT_EQ(st.flush_timeout, 1U);
  for (int i = 0; i < 6; ++i) {
    EXPECT_EQ(futures[static_cast<size_t>(i)].get(),
              fx.lut.predict(fx.samples[static_cast<size_t>(i)]));
  }
}

// ----- multi-model scheduling -----

TEST(SchedulerMultiModelTest, FairnessUnderOneHotLoad) {
  // One-hot load: a burst of model-0 traffic ahead of two model-1
  // requests. The shared queue still serves model 1 — with a deadline, EDF
  // even bumps it ahead of the no-deadline burst — and per-model counters
  // attribute every completion.
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut, &fx.ff}, virtual_cfg(/*max_batch=*/4,
                                                        /*window=*/0));
  std::vector<std::future<double>> burst;
  for (int i = 0; i < 8; ++i) {
    burst.push_back(sched.submit(0, fx.samples[static_cast<size_t>(i)])
                        .future);
  }
  SubmitOptions sla;
  sla.deadline_us = 1'000'000;  // far away, but sorts before "none"
  auto minority0 = sched.submit(1, fx.samples[8], sla);
  auto minority1 = sched.submit(1, fx.samples[9], sla);

  // First pump: the deadlined model-1 pair is most urgent, so the head
  // picks model 1 even though model 0 dominates the queue.
  EXPECT_TRUE(sched.pump());
  EXPECT_EQ(minority0.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  EXPECT_EQ(minority1.future.wait_for(std::chrono::seconds(0)),
            std::future_status::ready);
  while (sched.pump()) {
  }
  EXPECT_EQ(minority0.future.get(), fx.ff.predict(fx.samples[8]));
  EXPECT_EQ(minority1.future.get(), fx.ff.predict(fx.samples[9]));
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(burst[static_cast<size_t>(i)].get(),
              fx.lut.predict(fx.samples[static_cast<size_t>(i)]));
  }
  const SchedStats st = sched.stats();
  ASSERT_EQ(st.per_model_completed.size(), 2U);
  EXPECT_EQ(st.per_model_completed[0], 8U);
  EXPECT_EQ(st.per_model_completed[1], 2U);
  EXPECT_EQ(st.flush_full + st.flush_timeout + st.flush_drain, st.batches);
}

TEST(SchedulerMultiModelTest, BatchesNeverMixModels) {
  // Interleaved two-model traffic: every batch serves one model (asserted
  // indirectly — each future must carry ITS model's sequential value).
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut, &fx.ff}, virtual_cfg(/*max_batch=*/3,
                                                        /*window=*/0));
  std::vector<std::pair<int, std::future<double>>> futures;
  for (int i = 0; i < 12; ++i) {
    const int model = i % 2;
    futures.emplace_back(
        model, sched.submit(model, fx.samples[static_cast<size_t>(i)])
                   .future);
  }
  while (sched.pump()) {
  }
  for (int i = 0; i < 12; ++i) {
    const Sample& s = fx.samples[static_cast<size_t>(i)];
    const double expect =
        futures[static_cast<size_t>(i)].first == 0 ? fx.lut.predict(s)
                                                   : fx.ff.predict(s);
    EXPECT_EQ(futures[static_cast<size_t>(i)].second.get(), expect) << i;
  }
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.completed, 12U);
  EXPECT_LE(st.max_batch_seen, 3);
}

// ----- drain and real-threaded paths -----

TEST(SchedulerDrainTest, ShutdownAnswersEveryAcceptedFuture) {
  SchedFixture& fx = fixture();
  SchedulerConfig cfg;
  cfg.workers = 2;
  cfg.max_batch = 4;
  cfg.batch_window_us = 50'000;  // long window: requests are queued when
                                 // shutdown lands, not yet served
  ServingScheduler sched({&fx.lut, &fx.ff}, cfg);
  std::vector<std::pair<int, std::future<double>>> futures;
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    const int model = static_cast<int>(i % 2);
    futures.emplace_back(model,
                         sched.submit(model, fx.samples[i]).future);
  }
  sched.shutdown();
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    // Every accepted request is answered, and with the exact sequential
    // value — drain changes scheduling, never predictions.
    const double expect = futures[i].first == 0 ? fx.lut.predict(fx.samples[i])
                                                : fx.ff.predict(fx.samples[i]);
    EXPECT_EQ(futures[i].second.get(), expect) << i;
  }
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.completed, fx.samples.size());
  EXPECT_EQ(st.submitted, st.completed);
  EXPECT_EQ(st.flush_full + st.flush_timeout + st.flush_drain, st.batches);
}

TEST(SchedulerDrainTest, WorkerPoolServesBitIdentical) {
  SchedFixture& fx = fixture();
  SchedulerConfig cfg;
  cfg.workers = 4;
  cfg.max_batch = 3;
  cfg.batch_window_us = 100;
  ServingScheduler sched({&fx.lut, &fx.ff}, cfg);
  std::vector<std::pair<int, std::future<double>>> futures;
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    const int model = static_cast<int>(i % 2);
    futures.emplace_back(model,
                         sched.submit(model, fx.samples[i]).future);
  }
  for (std::size_t i = 0; i < fx.samples.size(); ++i) {
    const double expect = futures[i].first == 0 ? fx.lut.predict(fx.samples[i])
                                                : fx.ff.predict(fx.samples[i]);
    EXPECT_EQ(futures[i].second.get(), expect) << i;
  }
}

// ----- single worker, static window (real threads) -----

/// One worker (the default) and a window that never adapts: every batch
/// waits the full configured window unless it fills first.
SchedulerConfig static_cfg(int max_batch, std::int64_t window) {
  SchedulerConfig cfg;
  cfg.max_batch = max_batch;
  cfg.batch_window_us = window;
  cfg.adaptive_window = false;
  return cfg;
}

TEST(SchedulerStaticWindowTest, SingleRequestFlushesOnWindowTimeout) {
  SchedFixture& fx = fixture();
  // max_batch far above the traffic: only the real-clock timer can flush.
  ServingScheduler sched({&fx.lut}, static_cfg(/*max_batch=*/64,
                                               /*window=*/100));
  std::future<double> f = sched.submit(0, fx.samples[0]).future;
  EXPECT_EQ(f.get(), fx.lut.predict(fx.samples[0]));
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.batches, 1U);
  EXPECT_EQ(st.flush_timeout, 1U);
  EXPECT_EQ(st.max_batch_seen, 1);
  EXPECT_EQ(st.window_us, 100);  // static: the timeout did not shrink it
}

TEST(SchedulerStaticWindowTest, ZeroWindowServesImmediately) {
  SchedFixture& fx = fixture();
  // "Never wait": the worker serves whatever is queued the moment it looks.
  ServingScheduler sched({&fx.lut}, static_cfg(/*max_batch=*/8,
                                               /*window=*/0));
  for (int round = 0; round < 3; ++round) {
    std::future<double> f = sched.submit(0, fx.samples[0]).future;
    EXPECT_EQ(f.get(), fx.lut.predict(fx.samples[0]));
  }
  EXPECT_EQ(sched.stats().completed, 3U);
}

TEST(SchedulerStaticWindowTest, IdleShutdownServesNothing) {
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, static_cfg(/*max_batch=*/8,
                                               /*window=*/200));
  sched.shutdown();  // no traffic: the worker must exit without a forward
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.submitted, 0U);
  EXPECT_EQ(st.batches, 0U);
  EXPECT_EQ(st.avg_batch(), 0.0);
}

TEST(SchedulerStaticWindowTest, ConcurrentSubmittersAllBitIdentical) {
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut}, static_cfg(/*max_batch=*/8,
                                               /*window=*/300));
  constexpr int kThreads = 4;
  constexpr int kPerThread = 12;
  std::atomic<int> mismatches{0};
  std::vector<std::thread> clients;
  for (int t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (int r = 0; r < kPerThread; ++r) {
        const Sample& s =
            fx.samples[static_cast<std::size_t>((t * 7 + r * 3) %
                                                fx.samples.size())];
        if (sched.submit(0, s).future.get() != fx.lut.predict(s)) {
          ++mismatches;
        }
      }
    });
  }
  for (std::thread& c : clients) c.join();
  EXPECT_EQ(mismatches.load(), 0);
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.submitted, static_cast<std::uint64_t>(kThreads * kPerThread));
  EXPECT_EQ(st.completed, st.submitted);
}

TEST(SchedulerPredictManyTest, MatchesSequentialPerModel) {
  SchedFixture& fx = fixture();
  ServingScheduler sched({&fx.lut, &fx.ff}, static_cfg(/*max_batch=*/4,
                                                       /*window=*/200));
  std::vector<const Sample*> parts;
  for (int i : fx.split.test) {
    parts.push_back(&fx.samples[static_cast<std::size_t>(i)]);
  }
  const std::vector<double> lut = sched.predict_many(0, parts);
  const std::vector<double> ff = sched.predict_many(1, parts);
  ASSERT_EQ(lut.size(), parts.size());
  ASSERT_EQ(ff.size(), parts.size());
  for (std::size_t i = 0; i < parts.size(); ++i) {
    EXPECT_EQ(lut[i], fx.lut.predict(*parts[i])) << i;
    EXPECT_EQ(ff[i], fx.ff.predict(*parts[i])) << i;
  }
  EXPECT_TRUE(sched.predict_many(0, {}).empty());
  const SchedStats st = sched.stats();
  EXPECT_EQ(st.completed, 2 * parts.size());  // the empty call queues none
  EXPECT_EQ(st.per_model_completed[1], parts.size());
}

// ----- ownership paths (satellite: no per-request deep copies) -----

TEST(SchedulerOwnershipTest, SharedPtrAndRvalueSubmitOutliveCaller) {
  SchedFixture& fx = fixture();
  const double expect0 = fx.lut.predict(fx.samples[0]);
  const double expect1 = fx.lut.predict(fx.samples[1]);
  ServingScheduler sched({&fx.lut}, virtual_cfg(/*max_batch=*/4,
                                                /*window=*/0));
  ServingScheduler::Ticket shared_t;
  ServingScheduler::Ticket moved_t;
  {
    // Both caller-side handles die before the requests are served; the
    // scheduler must keep the samples alive via shared ownership.
    auto owned = std::make_shared<const Sample>(fx.samples[0]);
    shared_t = sched.submit(0, owned);
    Sample tmp = fx.samples[1];
    moved_t = sched.submit(0, std::move(tmp));
  }
  EXPECT_TRUE(sched.pump());
  EXPECT_EQ(shared_t.future.get(), expect0);
  EXPECT_EQ(moved_t.future.get(), expect1);
}

// ----- determinism across batch compositions, all 14 encoder kinds -----

class SchedulerKindTest : public ::testing::TestWithParam<GnnKind> {};

TEST_P(SchedulerKindTest, ScheduledBitIdenticalAcrossBatchCompositions) {
  // A fresh small predictor per kind (independent of the shared fixture).
  const auto samples = small_corpus(18, 147);
  const SplitIndices split =
      split_80_10_10(static_cast<int>(samples.size()), 3);
  TrainConfig tc = train_cfg();
  tc.epochs = 2;
  QorPredictor predictor(Approach::kOffTheShelf, model_cfg(GetParam()), tc);
  predictor.fit(samples, split, Metric::kLut, FitOptions{});

  std::vector<double> expect;
  for (const Sample& s : samples) expect.push_back(predictor.predict(s));

  // Sweep batch compositions: solo forwards, uneven 18/5 splits, and one
  // max-size union. The prediction must not depend on who shares a batch.
  for (const int max_batch : {1, 5, 18}) {
    ServingScheduler sched({&predictor},
                           virtual_cfg(max_batch, /*window=*/0));
    std::vector<std::future<double>> futures;
    for (const Sample& s : samples) {
      futures.push_back(sched.submit(0, s).future);
    }
    while (sched.pump()) {
    }
    for (std::size_t i = 0; i < samples.size(); ++i) {
      EXPECT_EQ(futures[i].get(), expect[i])
          << gnn_kind_name(GetParam()) << " max_batch=" << max_batch
          << " sample " << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllKinds, SchedulerKindTest, ::testing::ValuesIn(all_gnn_kinds()),
    [](const ::testing::TestParamInfo<GnnKind>& info) {
      std::string name = gnn_kind_name(info.param);
      for (char& c : name) {
        if (c == '-') c = '_';
      }
      return name;
    });

}  // namespace
}  // namespace gnnhls
