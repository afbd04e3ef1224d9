// Dataset assembly (paper §3): synthetic DFG/CDFG corpora generated by
// progen and pushed through the HLS simulator for ground truth, plus the
// real-application suites for generalization evaluation.
//
// Every sample owns its annotated IR graph, precomputed message-passing
// tensors, the implemented (ground-truth) QoR and the HLS-report QoR (the
// Table 5 baseline).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "frontend/lower.h"
#include "gnn/feature_encoder.h"
#include "gnn/graph_tensors.h"
#include "hls/hls_flow.h"
#include "progen/progen.h"

namespace gnnhls {

// ----- regression metrics (paper §3.1: DSP, LUT, FF, CP) -----

enum class Metric : int { kDsp = 0, kLut, kFf, kCp };
inline constexpr int kNumMetrics = 4;
inline constexpr std::array<Metric, 4> kAllMetrics = {
    Metric::kDsp, Metric::kLut, Metric::kFf, Metric::kCp};

std::string metric_name(Metric m);
double metric_of(const QualityOfResult& qor, Metric m);

/// Regression-target transform: resource counts span orders of magnitude,
/// so models regress log1p(count); CP is regressed in units of the clock
/// period. decode inverts encode exactly.
float encode_target(double value, Metric m);
double decode_target(float encoded, Metric m);

// ----- samples -----

/// One design: its annotated IR graph, message-passing tensors, labels and
/// input features.
///
/// The features (InputFeatureBuilder::build per Approach, with ground-truth
/// type bits for -I) and the node-type labels are pure functions of the
/// graph, so the sample holds them in one block of slots, one per Approach
/// plus one for the labels. A slot is built on its first read, once, and
/// later reads take no lock. Copies share the block, so a corpus, the
/// copies a fit keeps and a DSE candidate's copies build each slot once; a
/// freshly constructed or decoded sample starts with every slot empty. The
/// block goes with the last copy: nothing has to evict it. A slot reflects
/// the graph at its first read, so finish annotating prog before reading.
struct Sample {
  LoweredProgram prog;
  GraphTensors tensors;
  QualityOfResult truth;       // post-implementation (labels)
  QualityOfResult hls_report;  // synthesis-report estimate (baseline)
  std::string origin;          // e.g. "synthetic-dfg/17", "machsuite/gemm"
  /// Unused by the library: nothing here mints or reads it. It stays only
  /// because perfbench/perfbench.cpp reads it; release it with the other
  /// perfbench-pinned names (ROADMAP item 8).
  std::uint64_t uid = 0;

  explicit Sample(LoweredProgram p) : prog(std::move(p)) {}
  const IrGraph& graph() const { return prog.graph; }

  /// InputFeatureBuilder::build(graph(), a), built on first read. The
  /// reference is valid while any copy of this sample lives; concurrent
  /// first reads build it once.
  const Matrix& features(Approach a) const;
  /// InputFeatureBuilder::node_type_labels(graph()), built on first read.
  const Matrix& node_type_labels() const;

 private:
  struct Slot {
    std::once_flag built;
    Matrix value;
  };
  // Slot i < kLabelSlot holds Approach i's features.
  static constexpr int kLabelSlot =
      static_cast<int>(Approach::kKnowledgeRich) + 1;
  using Slots = std::array<Slot, kLabelSlot + 1>;

  const Matrix& slot(int i) const;

  std::shared_ptr<Slots> slots_ = std::make_shared<Slots>();
};

/// Lowers, runs the HLS flow (annotating node resources) and builds tensors.
Sample make_sample(const Function& f, GraphKind kind, const HlsConfig& hls,
                   std::string origin);

struct SyntheticDatasetConfig {
  GraphKind kind = GraphKind::kDfg;
  int num_graphs = 200;
  std::uint64_t seed = 1;
  ProgenConfig progen;
  HlsConfig hls;
};

/// Deterministic synthetic corpus: graph i is generated from seed+i.
std::vector<Sample> build_synthetic_dataset(const SyntheticDatasetConfig& cfg);

// ----- splits -----

struct SplitIndices {
  std::vector<int> train, val, test;
};

/// The paper's split: "randomly split into 80% train, 10% validation and
/// 10% test" (§5.1), seeded for reproducibility.
SplitIndices split_80_10_10(int n, std::uint64_t seed);

/// Indices 0..n-1 (for evaluating whole suites).
std::vector<int> all_indices(int n);

// ----- summary statistics (benchmark reporting) -----

struct DatasetStats {
  int graphs = 0;
  double avg_nodes = 0.0;
  double avg_edges = 0.0;
  int max_nodes = 0;
  long total_nodes = 0;
  std::array<double, 4> avg_metric = {0, 0, 0, 0};
};

DatasetStats compute_stats(const std::vector<Sample>& samples);

}  // namespace gnnhls
