#include "core/experiment.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <mutex>
#include <thread>

namespace gnnhls {

namespace {

struct ScoredRun {
  double val = 0.0;
  double test = 0.0;
  double transfer = 0.0;
};

/// Average of the keep_best runs with lowest validation error.
template <typename Getter>
double protocol_average(std::vector<ScoredRun> runs, int keep_best,
                        Getter get) {
  GNNHLS_CHECK(!runs.empty(), "no runs");
  const int keep = std::min<int>(keep_best, static_cast<int>(runs.size()));
  std::partial_sort(runs.begin(), runs.begin() + keep, runs.end(),
                    [](const ScoredRun& a, const ScoredRun& b) {
                      return a.val < b.val;
                    });
  double total = 0.0;
  for (int i = 0; i < keep; ++i) total += get(runs[static_cast<std::size_t>(i)]);
  return total / keep;
}

}  // namespace

ExperimentResult run_regression_experiment(
    const ExperimentSpec& spec, const std::vector<Sample>& samples,
    const SplitIndices& split, const std::vector<Sample>* transfer_set) {
  std::vector<ScoredRun> runs;
  runs.reserve(static_cast<std::size_t>(spec.protocol.runs));
  for (int r = 0; r < spec.protocol.runs; ++r) {
    ModelConfig mc = spec.model;
    mc.kind = spec.kind;
    TrainConfig tc = spec.train;
    tc.seed = spec.train.seed + static_cast<std::uint64_t>(r) * 1000003;
    QorPredictor predictor(spec.approach, mc, tc);
    ScoredRun run;
    run.val = predictor.fit(samples, split, spec.metric, FitOptions{}).best_val;
    run.test = predictor.evaluate_mape(samples, split.test);
    if (transfer_set != nullptr) {
      run.transfer = predictor.evaluate_mape(
          *transfer_set, all_indices(static_cast<int>(transfer_set->size())));
    }
    runs.push_back(run);
  }
  ExperimentResult result;
  result.test_mape = protocol_average(runs, spec.protocol.keep_best,
                                      [](const ScoredRun& r) { return r.test; });
  if (transfer_set != nullptr) {
    result.transfer_mape = protocol_average(
        runs, spec.protocol.keep_best,
        [](const ScoredRun& r) { return r.transfer; });
  }
  return result;
}

NodeExperimentResult run_node_experiment(
    GnnKind kind, const ModelConfig& model, const TrainConfig& train,
    const RunProtocol& protocol, const std::vector<Sample>& samples,
    const SplitIndices& split, const std::vector<Sample>* transfer_set) {
  struct NodeRun {
    double val;
    NodeClassifierScores test;
    NodeClassifierScores transfer;
  };
  std::vector<NodeRun> runs;
  for (int r = 0; r < protocol.runs; ++r) {
    ModelConfig mc = model;
    mc.kind = kind;
    TrainConfig tc = train;
    tc.seed = train.seed + static_cast<std::uint64_t>(r) * 1000003;
    NodeTypePredictor predictor(mc, tc);
    NodeRun run;
    run.val = predictor.fit(samples, split, FitOptions{}).best_val;
    run.test = predictor.evaluate(samples, split.test);
    if (transfer_set != nullptr) {
      run.transfer = predictor.evaluate(
          *transfer_set, all_indices(static_cast<int>(transfer_set->size())));
    }
    runs.push_back(run);
  }
  // Keep the best runs by validation accuracy (higher is better).
  const int keep = std::min<int>(protocol.keep_best,
                                 static_cast<int>(runs.size()));
  std::partial_sort(
      runs.begin(), runs.begin() + keep, runs.end(),
      [](const NodeRun& a, const NodeRun& b) { return a.val > b.val; });
  NodeExperimentResult out;
  for (int i = 0; i < keep; ++i) {
    out.test.dsp += runs[static_cast<std::size_t>(i)].test.dsp / keep;
    out.test.lut += runs[static_cast<std::size_t>(i)].test.lut / keep;
    out.test.ff += runs[static_cast<std::size_t>(i)].test.ff / keep;
    out.transfer.dsp += runs[static_cast<std::size_t>(i)].transfer.dsp / keep;
    out.transfer.lut += runs[static_cast<std::size_t>(i)].transfer.lut / keep;
    out.transfer.ff += runs[static_cast<std::size_t>(i)].transfer.ff / keep;
  }
  return out;
}

void run_parallel(std::vector<std::function<void()>> jobs, int threads) {
  GNNHLS_CHECK(threads > 0, "run_parallel: need at least one thread");
  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;

  const auto worker = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1);
      if (i >= jobs.size()) return;
      try {
        jobs[i]();
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
      }
    }
  };

  std::vector<std::thread> pool;
  const int n = std::min<int>(threads, static_cast<int>(jobs.size()));
  pool.reserve(static_cast<std::size_t>(n));
  for (int i = 0; i < n; ++i) pool.emplace_back(worker);
  for (auto& t : pool) t.join();
  if (first_error) std::rethrow_exception(first_error);
}

}  // namespace gnnhls
