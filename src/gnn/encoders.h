// The GNN zoo: the 14 architectures screened by the paper (§4.1).
//
//   GCN family ....... GCN, GCN+virtual-node, SGC, GraphSAGE, ARMA, PAN
//   GIN family ....... GIN, GIN+virtual-node, PNA
//   relational ....... GAT, GGNN, RGCN
//   vision-inspired .. Graph-U-Net, GNN-FiLM
//
// Every encoder maps input node features [N, in_dim] to embeddings
// [N, hidden] with the same macro-structure the paper fixes for fairness
// ("the same GNN structure but with different types of GNN layers"): input
// projection, `layers` message-passing layers with ReLU + dropout, output
// embeddings. Architecture-specific machinery (virtual nodes, K-hop
// pre-propagation, pooling/unpooling, relations, attention) lives inside
// the encoder.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "gnn/graph_tensors.h"
#include "nn/layers.h"

namespace gnnhls {

enum class GnnKind : int {
  kGcn = 0,
  kGcnVirtual,
  kSgc,
  kSage,
  kArma,
  kPan,
  kGin,
  kGinVirtual,
  kPna,
  kGat,
  kGgnn,
  kRgcn,
  kUnet,
  kFilm,
  kCount
};

inline constexpr int kNumGnnKinds = static_cast<int>(GnnKind::kCount);

/// Paper-table row label ("GCN-V", "SAGE", ...).
std::string gnn_kind_name(GnnKind kind);
/// Parses a row label back to the kind; throws on unknown names.
GnnKind gnn_kind_from_name(const std::string& name);
std::vector<GnnKind> all_gnn_kinds();

struct EncoderConfig {
  int in_dim = 0;
  int hidden = 64;
  int layers = 3;       // paper default: 5
  float dropout = 0.0F;
};

class GnnEncoder : public Module {
 public:
  explicit GnnEncoder(EncoderConfig cfg) : cfg_(cfg) {}

  /// Node embeddings [N, hidden] from input features [N, in_dim].
  virtual Var encode(Tape& tape, const GraphTensors& gt, const Var& x,
                     Rng& rng, bool training) const = 0;

  int hidden_dim() const { return cfg_.hidden; }
  const EncoderConfig& config() const { return cfg_; }

 protected:
  EncoderConfig cfg_;
};

/// Factory over the zoo. `rng` seeds weight initialization.
std::unique_ptr<GnnEncoder> make_encoder(GnnKind kind, EncoderConfig cfg,
                                         Rng& rng);

}  // namespace gnnhls
