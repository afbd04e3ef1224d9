#include "gnn/models.h"

namespace gnnhls {

GraphRegressor::GraphRegressor(ModelConfig cfg, int in_dim, Rng& rng)
    : cfg_(cfg) {
  EncoderConfig ec;
  ec.in_dim = in_dim;
  ec.hidden = cfg.hidden;
  ec.layers = cfg.layers;
  ec.dropout = cfg.dropout;
  encoder_ = make_encoder(cfg.kind, ec, rng);
  register_module(*encoder_);
  // Paper §5.1: "a feed-forward network with the structure 300-600-300-1".
  head_ = std::make_unique<Mlp>(
      std::vector<int>{cfg.hidden, 2 * cfg.hidden, cfg.hidden, 1}, rng,
      "regressor.head");
  register_module(*head_);
}

Var GraphRegressor::forward(Tape& tape, const GraphTensors& gt,
                            const Matrix& features, Rng& rng,
                            bool training) const {
  const Var x = tape.leaf(features);
  const Var h = encoder_->encode(tape, gt, x, rng, training);
  // Per-graph readout over the batch segments; [num_graphs, hidden].
  const Var pooled = cfg_.pooling == Pooling::kSum
                         ? tape.scatter_add_rows(h, gt.graph_id)
                         : tape.segment_mean(h, gt.graph_id);
  return head_->forward(tape, pooled);
}

std::vector<float> GraphRegressor::predict_batch(
    const GraphTensors& gt, const Matrix& features) const {
  Tape tape;
  Rng rng(0);  // dropout disabled when training=false, value unused
  const Var pred = forward(tape, gt, features, rng, /*training=*/false);
  std::vector<float> out(static_cast<std::size_t>(pred.rows()));
  for (int g = 0; g < pred.rows(); ++g) {
    out[static_cast<std::size_t>(g)] = pred.value()(g, 0);
  }
  return out;
}

NodeClassifier::NodeClassifier(ModelConfig cfg, int in_dim, Rng& rng)
    : cfg_(cfg) {
  EncoderConfig ec;
  ec.in_dim = in_dim;
  ec.hidden = cfg.hidden;
  ec.layers = cfg.layers;
  ec.dropout = cfg.dropout;
  encoder_ = make_encoder(cfg.kind, ec, rng);
  register_module(*encoder_);
  head_ = std::make_unique<Linear>(cfg.hidden, 3, rng, true,
                                   "classifier.head");
  register_module(*head_);
}

Var NodeClassifier::forward(Tape& tape, const GraphTensors& gt,
                            const Matrix& features, Rng& rng,
                            bool training) const {
  const Var x = tape.leaf(features);
  const Var h = encoder_->encode(tape, gt, x, rng, training);
  return head_->forward(tape, h);
}

std::vector<InferredTypes> NodeClassifier::infer_types(
    const GraphTensors& gt, const Matrix& features) const {
  Tape tape;
  Rng rng(0);
  const Var logits = forward(tape, gt, features, rng, /*training=*/false);
  std::vector<InferredTypes> out(static_cast<std::size_t>(logits.rows()));
  for (int i = 0; i < logits.rows(); ++i) {
    // Hard bits at threshold 0.5 (logit 0), like the labels they replace.
    out[static_cast<std::size_t>(i)].dsp =
        logits.value()(i, 0) > 0.0F ? 1.0F : 0.0F;
    out[static_cast<std::size_t>(i)].lut =
        logits.value()(i, 1) > 0.0F ? 1.0F : 0.0F;
    out[static_cast<std::size_t>(i)].ff =
        logits.value()(i, 2) > 0.0F ? 1.0F : 0.0F;
  }
  return out;
}

}  // namespace gnnhls
