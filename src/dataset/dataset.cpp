#include "dataset/dataset.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "support/rng.h"

namespace gnnhls {

const Matrix& Sample::features(Approach a) const {
  return slot(static_cast<int>(a));
}

const Matrix& Sample::node_type_labels() const { return slot(kLabelSlot); }

const Matrix& Sample::slot(int i) const {
  Slot& s = (*slots_)[static_cast<std::size_t>(i)];
  std::call_once(s.built, [&] {
    s.value = i == kLabelSlot ? InputFeatureBuilder::node_type_labels(graph())
                              : InputFeatureBuilder::build(
                                    graph(), static_cast<Approach>(i));
  });
  return s.value;
}

std::string metric_name(Metric m) {
  switch (m) {
    case Metric::kDsp: return "DSP";
    case Metric::kLut: return "LUT";
    case Metric::kFf: return "FF";
    case Metric::kCp: return "CP";
  }
  return {};
}

double metric_of(const QualityOfResult& qor, Metric m) {
  switch (m) {
    case Metric::kDsp: return qor.dsp;
    case Metric::kLut: return qor.lut;
    case Metric::kFf: return qor.ff;
    case Metric::kCp: return qor.cp_ns;
  }
  return 0.0;
}

namespace {
constexpr double kCpScaleNs = 10.0;  // default clock period
}

float encode_target(double value, Metric m) {
  GNNHLS_CHECK(value >= 0.0, "negative QoR value");
  if (m == Metric::kCp) return static_cast<float>(value / kCpScaleNs);
  return static_cast<float>(std::log1p(value));
}

double decode_target(float encoded, Metric m) {
  if (m == Metric::kCp) return static_cast<double>(encoded) * kCpScaleNs;
  return std::expm1(std::max(static_cast<double>(encoded), 0.0));
}

Sample make_sample(const Function& f, GraphKind kind, const HlsConfig& hls,
                   std::string origin) {
  Sample s(kind == GraphKind::kDfg ? lower_to_dfg(f) : lower_to_cdfg(f));
  const HlsOutcome outcome = run_hls_flow(s.prog, hls);
  s.tensors = GraphTensors::build(s.prog.graph);
  s.truth = outcome.implemented;
  s.hls_report = outcome.reported;
  s.origin = std::move(origin);
  return s;
}

std::vector<Sample> build_synthetic_dataset(const SyntheticDatasetConfig& cfg) {
  GNNHLS_CHECK(cfg.num_graphs > 0, "empty dataset requested");
  std::vector<Sample> samples;
  samples.reserve(static_cast<std::size_t>(cfg.num_graphs));
  const std::string prefix =
      cfg.kind == GraphKind::kDfg ? "synthetic-dfg/" : "synthetic-cdfg/";
  for (int i = 0; i < cfg.num_graphs; ++i) {
    const std::uint64_t seed = cfg.seed + static_cast<std::uint64_t>(i);
    const Function f = cfg.kind == GraphKind::kDfg
                           ? generate_dfg_program(seed, cfg.progen)
                           : generate_cdfg_program(seed, cfg.progen);
    samples.push_back(
        make_sample(f, cfg.kind, cfg.hls, prefix + std::to_string(i)));
  }
  return samples;
}

SplitIndices split_80_10_10(int n, std::uint64_t seed) {
  GNNHLS_CHECK(n >= 10, "dataset too small to split 80/10/10");
  std::vector<int> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  Rng rng(seed);
  rng.shuffle(idx);
  const int n_test = std::max(n / 10, 1);
  const int n_val = std::max(n / 10, 1);
  SplitIndices split;
  split.test.assign(idx.begin(), idx.begin() + n_test);
  split.val.assign(idx.begin() + n_test, idx.begin() + n_test + n_val);
  split.train.assign(idx.begin() + n_test + n_val, idx.end());
  return split;
}

std::vector<int> all_indices(int n) {
  std::vector<int> idx(static_cast<std::size_t>(n));
  std::iota(idx.begin(), idx.end(), 0);
  return idx;
}

DatasetStats compute_stats(const std::vector<Sample>& samples) {
  DatasetStats st;
  st.graphs = static_cast<int>(samples.size());
  if (samples.empty()) return st;
  for (const Sample& s : samples) {
    st.avg_nodes += s.graph().num_nodes();
    st.avg_edges += s.graph().num_edges();
    st.max_nodes = std::max(st.max_nodes, s.graph().num_nodes());
    st.total_nodes += s.graph().num_nodes();
    for (int m = 0; m < kNumMetrics; ++m) {
      st.avg_metric[static_cast<std::size_t>(m)] +=
          metric_of(s.truth, static_cast<Metric>(m));
    }
  }
  const double inv = 1.0 / static_cast<double>(samples.size());
  st.avg_nodes *= inv;
  st.avg_edges *= inv;
  for (auto& v : st.avg_metric) v *= inv;
  return st;
}

}  // namespace gnnhls
