// Task models over the encoders.
//
// GraphRegressor — graph-level regression (paper §3.1): encoder, sum/mean
// pooling, then the paper's feed-forward head (hidden - 2*hidden - hidden -
// 1).
//
// NodeClassifier — node-level classification: encoder plus a 3-logit head
// (three binary tasks: does the node use DSP / LUT / FF).
#pragma once

#include <memory>
#include <vector>

#include "gnn/encoders.h"
#include "gnn/feature_encoder.h"
#include "gnn/graph_batch.h"

namespace gnnhls {

enum class Pooling { kSum, kMean };

struct ModelConfig {
  GnnKind kind = GnnKind::kRgcn;
  int hidden = 64;
  int layers = 3;       // paper: 5
  float dropout = 0.0F;
  Pooling pooling = Pooling::kSum;
};

class GraphRegressor : public Module {
 public:
  GraphRegressor(ModelConfig cfg, int in_dim, Rng& rng);

  /// Predictions [gt.num_graphs, 1] in *encoded target space* (see dataset
  /// target_transform): the trainer decodes them back to QoR values. For a
  /// plain single-graph GraphTensors this is the scalar [1,1] case; for a
  /// GraphBatch's merged view, row g is the prediction for member graph g
  /// (readout pools node embeddings per graph_id segment).
  Var forward(Tape& tape, const GraphTensors& gt, const Matrix& features,
              Rng& rng, bool training) const;

  /// Inference (a throwaway tape, no dropout): one encoded prediction per
  /// member graph of a merged batch view, in member order; a plain
  /// single-graph GraphTensors gives one.
  std::vector<float> predict_batch(const GraphTensors& gt,
                                   const Matrix& features) const;

  const ModelConfig& model_config() const { return cfg_; }

 private:
  ModelConfig cfg_;
  std::unique_ptr<GnnEncoder> encoder_;
  std::unique_ptr<Mlp> head_;
};

class NodeClassifier : public Module {
 public:
  NodeClassifier(ModelConfig cfg, int in_dim, Rng& rng);

  /// Logits [N,3] in the order DSP, LUT, FF.
  Var forward(Tape& tape, const GraphTensors& gt, const Matrix& features,
              Rng& rng, bool training) const;

  /// Hard type predictions used as self-inferred knowledge (threshold 0.5).
  std::vector<InferredTypes> infer_types(const GraphTensors& gt,
                                         const Matrix& features) const;

 private:
  ModelConfig cfg_;
  std::unique_ptr<GnnEncoder> encoder_;
  std::unique_ptr<Linear> head_;
};

}  // namespace gnnhls
