#include "gnn/encoders.h"

#include <algorithm>
#include <cmath>
#include <utility>

namespace gnnhls {

std::string gnn_kind_name(GnnKind kind) {
  switch (kind) {
    case GnnKind::kGcn: return "GCN";
    case GnnKind::kGcnVirtual: return "GCN-V";
    case GnnKind::kSgc: return "SGC";
    case GnnKind::kSage: return "SAGE";
    case GnnKind::kArma: return "ARMA";
    case GnnKind::kPan: return "PAN";
    case GnnKind::kGin: return "GIN";
    case GnnKind::kGinVirtual: return "GIN-V";
    case GnnKind::kPna: return "PNA";
    case GnnKind::kGat: return "GAT";
    case GnnKind::kGgnn: return "GGNN";
    case GnnKind::kRgcn: return "RGCN";
    case GnnKind::kUnet: return "UNet";
    case GnnKind::kFilm: return "FiLM";
    case GnnKind::kCount: break;
  }
  GNNHLS_CHECK(false, "bad GnnKind");
  return {};
}

GnnKind gnn_kind_from_name(const std::string& name) {
  for (GnnKind k : all_gnn_kinds()) {
    if (gnn_kind_name(k) == name) return k;
  }
  GNNHLS_CHECK(false, "unknown GNN kind: " + name);
  return GnnKind::kGcn;
}

std::vector<GnnKind> all_gnn_kinds() {
  std::vector<GnnKind> kinds;
  kinds.reserve(kNumGnnKinds);
  for (int i = 0; i < kNumGnnKinds; ++i) {
    kinds.push_back(static_cast<GnnKind>(i));
  }
  return kinds;
}

namespace {

// ----- shared message-passing helpers -----

// Encoders must stay segment-correct: a GraphTensors may be the disjoint
// union of several member graphs (GraphBatch), so any whole-matrix
// reduction (virtual-node pooling, PNA degree averages, top-k pooling)
// has to respect gt.graph_id / gt.num_graphs. Per-node and per-edge ops
// are batch-oblivious since union edges never cross member graphs.
//
// Aggregations are compositions of the primitive tape ops over the
// SegmentIndexes GraphTensors holds, so every partition is built once per
// graph.

/// out_v = sum_{(u,v) in E} x_u; an empty edge set yields zeros.
Var aggregate_sum(Tape& t, const GraphTensors& gt, const Var& x) {
  if (gt.src.empty()) return t.affine(x, 0.0F, 0.0F);
  return t.scatter_add_rows(t.gather_rows(x, gt.src), gt.dst);
}

/// out_v = mean_{(u,v) in E} x_u; nodes without in-edges yield zeros.
Var aggregate_mean(Tape& t, const GraphTensors& gt, const Var& x) {
  if (gt.src.empty()) return t.affine(x, 0.0F, 0.0F);
  return t.segment_mean(t.gather_rows(x, gt.src), gt.dst);
}

/// GCN propagation D^-1/2 (A+I) D^-1/2 x with the precomputed gcn_coeff /
/// gcn_self_coeff.
Var gcn_propagate(Tape& t, const GraphTensors& gt, const Var& x) {
  const Var self = t.scale_rows(x, gt.gcn_self_coeff);
  if (gt.src.empty()) return self;
  const Var msgs = t.scale_rows(t.gather_rows(x, gt.src), gt.gcn_coeff);
  return t.add(t.scatter_add_rows(msgs, gt.dst), self);
}

/// Calls fn(r, relation) for every non-empty relation in relation order.
template <typename Fn>
void for_each_relation(const GraphTensors& gt, Fn&& fn) {
  for (std::size_t r = 0; r < gt.relations.size(); ++r) {
    if (!gt.relations[r].src.empty()) fn(r, gt.relations[r]);
  }
}

/// Per-relation transformed aggregation (RGCN mean_normalize=true, GGNN
/// false): out_v = sum_r reduce_{(u,v) in E_r} W_r x_u over the non-empty
/// relations, all reduced in one segment_reduce node; zeros when there is
/// none.
Var relational_aggregate(Tape& t, const GraphTensors& gt, const Var& h,
                         const std::vector<std::unique_ptr<Linear>>& rel_lins,
                         bool mean_normalize) {
  std::vector<SegmentPart> parts;
  for_each_relation(gt, [&](std::size_t r, const GraphTensors::Relation& rel) {
    parts.push_back(
        {rel_lins[r]->forward(t, t.gather_rows(h, rel.src)), rel.dst});
  });
  return parts.empty() ? t.affine(h, 0.0F, 0.0F)
                       : t.segment_reduce(std::move(parts), mean_normalize);
}

// ----- GCN -----

class GcnEncoder : public GnnEncoder {
 public:
  GcnEncoder(EncoderConfig cfg, Rng& rng, bool with_virtual)
      : GnnEncoder(cfg),
        with_virtual_(with_virtual),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "gcn.in")) {
    register_module(*input_);
    for (int l = 0; l < cfg.layers; ++l) {
      convs_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, true, "gcn.conv" + std::to_string(l)));
      register_module(*convs_.back());
      if (with_virtual_) {
        virtual_mlps_.push_back(std::make_unique<Linear>(
            cfg.hidden, cfg.hidden, rng, true,
            "gcn.virt" + std::to_string(l)));
        register_module(*virtual_mlps_.back());
      }
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = input_->forward(t, x);
    // One virtual-node embedding per member graph.
    Var virt = t.leaf(Matrix(gt.num_graphs, cfg_.hidden));
    for (std::size_t l = 0; l < convs_.size(); ++l) {
      if (with_virtual_) {
        h = t.add(h, t.gather_rows(virt, gt.graph_id));
      }
      h = t.relu(convs_[l]->forward(t, gcn_propagate(t, gt, h)));
      h = t.dropout(h, cfg_.dropout, rng, training);
      if (with_virtual_) {
        virt = t.relu(virtual_mlps_[l]->forward(
            t, t.add(virt, t.segment_mean(h, gt.graph_id))));
      }
    }
    return h;
  }

 private:
  bool with_virtual_;
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Linear>> convs_;
  std::vector<std::unique_ptr<Linear>> virtual_mlps_;
};

// ----- SGC: K-hop propagation, then a single linear map -----

class SgcEncoder : public GnnEncoder {
 public:
  SgcEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        linear_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                         "sgc.lin")) {
    register_module(*linear_);
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = x;
    for (int k = 0; k < cfg_.layers; ++k) {
      h = gcn_propagate(t, gt, h);
    }
    h = linear_->forward(t, h);
    return t.dropout(h, cfg_.dropout, rng, training);
  }

 private:
  std::unique_ptr<Linear> linear_;
};

// ----- GraphSAGE -----

class SageEncoder : public GnnEncoder {
 public:
  SageEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "sage.in")) {
    register_module(*input_);
    for (int l = 0; l < cfg.layers; ++l) {
      self_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, true, "sage.self" + std::to_string(l)));
      neigh_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, false,
          "sage.neigh" + std::to_string(l)));
      register_module(*self_.back());
      register_module(*neigh_.back());
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = input_->forward(t, x);
    for (std::size_t l = 0; l < self_.size(); ++l) {
      const Var neighbors = aggregate_mean(t, gt, h);
      h = t.relu(t.add(self_[l]->forward(t, h),
                       neigh_[l]->forward(t, neighbors)));
      h = t.dropout(h, cfg_.dropout, rng, training);
    }
    return h;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Linear>> self_, neigh_;
};

// ----- ARMA: auto-regressive moving-average filters -----

class ArmaEncoder : public GnnEncoder {
 public:
  ArmaEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "arma.in")) {
    register_module(*input_);
    for (int l = 0; l < cfg.layers; ++l) {
      prop_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, true, "arma.w" + std::to_string(l)));
      skip_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, false, "arma.v" + std::to_string(l)));
      register_module(*prop_.back());
      register_module(*skip_.back());
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    const Var x0 = input_->forward(t, x);  // root of the recursion
    Var h = x0;
    for (std::size_t l = 0; l < prop_.size(); ++l) {
      // X^{t+1} = relu(L~ X^t W + X^0 V)
      h = t.relu(
          t.add(prop_[l]->forward(t, gcn_propagate(t, gt, h)),
                skip_[l]->forward(t, x0)));
      h = t.dropout(h, cfg_.dropout, rng, training);
    }
    return h;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Linear>> prop_, skip_;
};

// ----- PAN: path-integral convolution (trainable per-path-length weights) --

class PanEncoder : public GnnEncoder {
 public:
  static constexpr int kMaxPathLen = 3;

  PanEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "pan.in")) {
    register_module(*input_);
    // register_parameter stores raw pointers; reserve so emplace_back never
    // reallocates under them.
    path_weights_.reserve(static_cast<std::size_t>(cfg.layers) *
                          (kMaxPathLen + 1));
    for (int l = 0; l < cfg.layers; ++l) {
      mix_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, true, "pan.mix" + std::to_string(l)));
      register_module(*mix_.back());
      // Path weights e^{-E l}: one trainable scalar per path length.
      for (int p = 0; p <= kMaxPathLen; ++p) {
        path_weights_.emplace_back(
            "pan.w" + std::to_string(l) + "_" + std::to_string(p),
            Matrix(1, 1, p == 0 ? 1.0F : 0.5F / static_cast<float>(p)));
        register_parameter(path_weights_.back());
      }
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = input_->forward(t, x);
    for (std::size_t l = 0; l < mix_.size(); ++l) {
      Var power = h;
      Var met;  // maximal-entropy-transition accumulation
      for (int p = 0; p <= kMaxPathLen; ++p) {
        const Parameter& w =
            path_weights_[l * (kMaxPathLen + 1) + static_cast<std::size_t>(p)];
        const Var scale_col = t.repeat_row(w.var(), gt.num_nodes);
        const Var term = t.mul_col_broadcast(power, scale_col);
        met = p == 0 ? term : t.add(met, term);
        if (p < kMaxPathLen) {
          power = aggregate_mean(t, gt, power);
        }
      }
      h = t.relu(mix_[l]->forward(t, met));
      h = t.dropout(h, cfg_.dropout, rng, training);
    }
    return h;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Linear>> mix_;
  std::vector<Parameter> path_weights_;
};

// ----- GIN -----

class GinEncoder : public GnnEncoder {
 public:
  GinEncoder(EncoderConfig cfg, Rng& rng, bool with_virtual)
      : GnnEncoder(cfg),
        with_virtual_(with_virtual),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "gin.in")) {
    register_module(*input_);
    eps_.reserve(static_cast<std::size_t>(cfg.layers));  // stable addresses
    for (int l = 0; l < cfg.layers; ++l) {
      mlps_.push_back(std::make_unique<Mlp>(
          std::vector<int>{cfg.hidden, 2 * cfg.hidden, cfg.hidden}, rng,
          "gin.mlp" + std::to_string(l)));
      register_module(*mlps_.back());
      eps_.emplace_back("gin.eps" + std::to_string(l), Matrix(1, 1, 0.0F));
      register_parameter(eps_.back());
      if (with_virtual_) {
        virtual_mlps_.push_back(std::make_unique<Linear>(
            cfg.hidden, cfg.hidden, rng, true,
            "gin.virt" + std::to_string(l)));
        register_module(*virtual_mlps_.back());
      }
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = input_->forward(t, x);
    Var virt = t.leaf(Matrix(gt.num_graphs, cfg_.hidden));
    for (std::size_t l = 0; l < mlps_.size(); ++l) {
      if (with_virtual_) {
        h = t.add(h, t.gather_rows(virt, gt.graph_id));
      }
      // (1 + eps) * h + sum_{u in N(v)} h_u
      const Var one_eps =
          t.affine(t.repeat_row(eps_[l].var(), gt.num_nodes), 1.0F, 1.0F);
      const Var mixed = t.add(t.mul_col_broadcast(h, one_eps),
                              aggregate_sum(t, gt, h));
      h = t.relu(mlps_[l]->forward(t, mixed));
      h = t.dropout(h, cfg_.dropout, rng, training);
      if (with_virtual_) {
        virt = t.relu(virtual_mlps_[l]->forward(
            t, t.add(virt, t.segment_mean(h, gt.graph_id))));
      }
    }
    return h;
  }

 private:
  bool with_virtual_;
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Mlp>> mlps_;
  std::vector<Parameter> eps_;
  std::vector<std::unique_ptr<Linear>> virtual_mlps_;
};

// ----- PNA: principal neighbourhood aggregation -----

class PnaEncoder : public GnnEncoder {
 public:
  PnaEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "pna.in")) {
    register_module(*input_);
    // 4 aggregators x 3 scalers + self = 13 blocks.
    for (int l = 0; l < cfg.layers; ++l) {
      post_.push_back(std::make_unique<Linear>(
          13 * cfg.hidden, cfg.hidden, rng, true,
          "pna.post" + std::to_string(l)));
      register_module(*post_.back());
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    // Scaler coefficient vectors (constants per graph). Each node is scaled
    // against the average log-degree of *its own* member graph so batched
    // PNA matches per-graph PNA.
    std::vector<float> amplify(static_cast<std::size_t>(gt.num_nodes));
    std::vector<float> attenuate(static_cast<std::size_t>(gt.num_nodes));
    for (int i = 0; i < gt.num_nodes; ++i) {
      const float avg = gt.graph_avg_log_deg[static_cast<std::size_t>(
          gt.graph_id[static_cast<std::size_t>(i)])];
      const float d = std::max(gt.log_deg[static_cast<std::size_t>(i)], 0.1F);
      amplify[static_cast<std::size_t>(i)] = d / avg;
      attenuate[static_cast<std::size_t>(i)] = avg / d;
    }

    Var h = input_->forward(t, x);
    for (std::size_t l = 0; l < post_.size(); ++l) {
      Var mean, mx, mn, stddev;
      if (gt.src.empty()) {
        mean = mx = mn = stddev = t.affine(h, 0.0F, 0.0F);
      } else {
        const Var msgs = t.gather_rows(h, gt.src);
        mean = t.segment_mean(msgs, gt.dst);
        mx = t.segment_max(msgs, gt.dst);
        mn = t.segment_min(msgs, gt.dst);
        // std = sqrt(relu(E[x^2] - E[x]^2))
        const Var mean_sq = t.segment_mean(t.mul(msgs, msgs), gt.dst);
        stddev = t.sqrt_eps(t.sub(mean_sq, t.mul(mean, mean)), 1e-5F);
      }
      std::vector<Var> blocks{h};
      for (const Var& agg : {mean, mx, mn, stddev}) {
        blocks.push_back(agg);
        blocks.push_back(t.scale_rows(agg, amplify));
        blocks.push_back(t.scale_rows(agg, attenuate));
      }
      h = t.relu(post_[l]->forward(t, t.concat_cols(blocks)));
      h = t.dropout(h, cfg_.dropout, rng, training);
    }
    return h;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Linear>> post_;
};

// ----- GAT -----

class GatEncoder : public GnnEncoder {
 public:
  GatEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "gat.in")) {
    register_module(*input_);
    for (int l = 0; l < cfg.layers; ++l) {
      proj_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, false, "gat.w" + std::to_string(l)));
      att_src_.push_back(std::make_unique<Linear>(
          cfg.hidden, 1, rng, false, "gat.asrc" + std::to_string(l)));
      att_dst_.push_back(std::make_unique<Linear>(
          cfg.hidden, 1, rng, true, "gat.adst" + std::to_string(l)));
      register_module(*proj_.back());
      register_module(*att_src_.back());
      register_module(*att_dst_.back());
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = input_->forward(t, x);
    for (std::size_t l = 0; l < proj_.size(); ++l) {
      const Var hw = proj_[l]->forward(t, h);
      // Attention over edges incl. self loops: e = lrelu(a_s.h_u + a_d.h_v)
      const Var alpha_src = att_src_[l]->forward(t, hw);  // [N,1]
      const Var alpha_dst = att_dst_[l]->forward(t, hw);  // [N,1]
      const Var scores = t.leaky_relu(
          t.add(t.gather_rows(alpha_src, gt.src_self),
                t.gather_rows(alpha_dst, gt.dst_self)),
          0.2F);
      const Var alpha = t.segment_softmax(scores, gt.dst_self);
      const Var weighted =
          t.mul_col_broadcast(t.gather_rows(hw, gt.src_self), alpha);
      h = t.relu(t.scatter_add_rows(weighted, gt.dst_self));
      h = t.dropout(h, cfg_.dropout, rng, training);
    }
    return h;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Linear>> proj_, att_src_, att_dst_;
};

// ----- GGNN -----

class GgnnEncoder : public GnnEncoder {
 public:
  GgnnEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "ggnn.in")),
        gru_(std::make_unique<GruCell>(cfg.hidden, rng, "ggnn.gru")) {
    register_module(*input_);
    register_module(*gru_);
    for (int r = 0; r < kNumEdgeRelations; ++r) {
      rel_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, false, "ggnn.rel" + std::to_string(r)));
      register_module(*rel_.back());
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = input_->forward(t, x);
    for (int l = 0; l < cfg_.layers; ++l) {
      const Var msg = relational_aggregate(t, gt, h, rel_, false);
      h = gru_->forward(t, msg, h);
      h = t.dropout(h, cfg_.dropout, rng, training);
    }
    return h;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::unique_ptr<GruCell> gru_;
  std::vector<std::unique_ptr<Linear>> rel_;
};

// ----- RGCN -----

class RgcnEncoder : public GnnEncoder {
 public:
  RgcnEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "rgcn.in")) {
    register_module(*input_);
    for (int l = 0; l < cfg.layers; ++l) {
      self_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, true, "rgcn.self" + std::to_string(l)));
      register_module(*self_.back());
      std::vector<std::unique_ptr<Linear>> rels;
      for (int r = 0; r < kNumEdgeRelations; ++r) {
        rels.push_back(std::make_unique<Linear>(
            cfg.hidden, cfg.hidden, rng, false,
            "rgcn.l" + std::to_string(l) + ".r" + std::to_string(r)));
        register_module(*rels.back());
      }
      rel_.push_back(std::move(rels));
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = input_->forward(t, x);
    for (std::size_t l = 0; l < self_.size(); ++l) {
      const Var agg = relational_aggregate(t, gt, h, rel_[l], true);
      h = t.relu(t.add(self_[l]->forward(t, h), agg));
      h = t.dropout(h, cfg_.dropout, rng, training);
    }
    return h;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Linear>> self_;
  std::vector<std::vector<std::unique_ptr<Linear>>> rel_;
};

// ----- Graph U-Net (gPool / gUnpool with skip connections) -----

class UnetEncoder : public GnnEncoder {
 public:
  UnetEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "unet.in")),
        down_(std::make_unique<Linear>(cfg.hidden, cfg.hidden, rng, true,
                                       "unet.down")),
        bottom_(std::make_unique<Linear>(cfg.hidden, cfg.hidden, rng, true,
                                         "unet.bottom")),
        up_(std::make_unique<Linear>(cfg.hidden, cfg.hidden, rng, true,
                                     "unet.up")),
        score_("unet.score", Matrix::randn(cfg.hidden, 1, rng, 0.1F)) {
    register_module(*input_);
    register_module(*down_);
    register_module(*bottom_);
    register_module(*up_);
    register_parameter(score_);
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = input_->forward(t, x);
    h = t.relu(down_->forward(t, gcn_propagate(t, gt, h)));
    const Var skip = h;

    // gPool: keep the top-k nodes by projection score, gate by sigmoid.
    // Selection runs per member graph (top half of each member, at least
    // one node) so batched pooling selects exactly what per-graph pooling
    // would. Member node ranges are contiguous, so the concatenated
    // ascending per-member kept lists are globally ascending.
    const Var scores = t.matmul(h, score_.var());  // [N,1]
    std::vector<int> kept;
    kept.reserve(static_cast<std::size_t>(gt.num_nodes / 2 + gt.num_graphs));
    for (int lo = 0; lo < gt.num_nodes;) {
      int hi = lo;
      const int g = gt.graph_id[static_cast<std::size_t>(lo)];
      while (hi < gt.num_nodes &&
             gt.graph_id[static_cast<std::size_t>(hi)] == g) {
        ++hi;
      }
      const int keep_g = std::max((hi - lo) / 2, 1);
      std::vector<int> order(static_cast<std::size_t>(hi - lo));
      for (int i = lo; i < hi; ++i) {
        order[static_cast<std::size_t>(i - lo)] = i;
      }
      std::stable_sort(order.begin(), order.end(), [&](int a, int b) {
        return scores.value()(a, 0) > scores.value()(b, 0);
      });
      order.resize(static_cast<std::size_t>(keep_g));
      std::sort(order.begin(), order.end());
      kept.insert(kept.end(), order.begin(), order.end());
      lo = hi;
    }
    const int keep = static_cast<int>(kept.size());

    // Pooled-level indices are per-forward: the kept set depends on the
    // current score weights, so they cannot live on GraphTensors like the
    // full-graph ones. One kept index serves both gathers and the unpool
    // scatter (all three index the same [num_nodes] row space).
    const SegmentIndex kept_idx(std::move(kept), gt.num_nodes);

    const Var gated =
        t.mul_col_broadcast(t.gather_rows(h, kept_idx),
                            t.sigmoid(t.gather_rows(scores, kept_idx)));

    // Induced subgraph propagation at the bottom level.
    std::vector<int> remap(static_cast<std::size_t>(gt.num_nodes), -1);
    for (std::size_t i = 0; i < kept_idx.ids().size(); ++i) {
      remap[static_cast<std::size_t>(kept_idx[i])] = static_cast<int>(i);
    }
    std::vector<int> sub_src, sub_dst;
    for (std::size_t e = 0; e < gt.src.ids().size(); ++e) {
      const int s = remap[static_cast<std::size_t>(gt.src[e])];
      const int d = remap[static_cast<std::size_t>(gt.dst[e])];
      if (s >= 0 && d >= 0) {
        sub_src.push_back(s);
        sub_dst.push_back(d);
      }
    }
    Var bottom = gated;
    if (!sub_src.empty()) {
      bottom = t.add(
          t.segment_mean(
              t.gather_rows(gated, SegmentIndex(std::move(sub_src), keep)),
              SegmentIndex(std::move(sub_dst), keep)),
          gated);
    }
    bottom = t.relu(bottom_->forward(t, bottom));
    bottom = t.dropout(bottom, cfg_.dropout, rng, training);

    // gUnpool: scatter back into the full node set, add skip.
    const Var restored = t.scatter_add_rows(bottom, kept_idx);
    Var out = t.add(restored, skip);
    out = t.relu(up_->forward(t, gcn_propagate(t, gt, out)));
    return out;
  }

 private:
  std::unique_ptr<Linear> input_, down_, bottom_, up_;
  Parameter score_;
};

// ----- GNN-FiLM -----

class FilmEncoder : public GnnEncoder {
 public:
  FilmEncoder(EncoderConfig cfg, Rng& rng)
      : GnnEncoder(cfg),
        input_(std::make_unique<Linear>(cfg.in_dim, cfg.hidden, rng, true,
                                        "film.in")) {
    register_module(*input_);
    for (int l = 0; l < cfg.layers; ++l) {
      self_.push_back(std::make_unique<Linear>(
          cfg.hidden, cfg.hidden, rng, true, "film.self" + std::to_string(l)));
      register_module(*self_.back());
      std::vector<std::unique_ptr<Linear>> rels, films;
      for (int r = 0; r < kNumEdgeRelations; ++r) {
        rels.push_back(std::make_unique<Linear>(
            cfg.hidden, cfg.hidden, rng, false,
            "film.l" + std::to_string(l) + ".w" + std::to_string(r)));
        register_module(*rels.back());
        // FiLM generator: h_dst -> [gamma ; beta]
        films.push_back(std::make_unique<Linear>(
            cfg.hidden, 2 * cfg.hidden, rng, true,
            "film.l" + std::to_string(l) + ".g" + std::to_string(r)));
        register_module(*films.back());
      }
      rel_.push_back(std::move(rels));
      film_.push_back(std::move(films));
    }
  }

  Var encode(Tape& t, const GraphTensors& gt, const Var& x, Rng& rng,
             bool training) const override {
    Var h = input_->forward(t, x);
    for (std::size_t l = 0; l < self_.size(); ++l) {
      // Every relation's modulated messages sum in one segment_reduce
      // node, added once onto the self term.
      const Var self = self_[l]->forward(t, h);
      std::vector<SegmentPart> parts;
      for_each_relation(gt, [&](std::size_t r,
                                const GraphTensors::Relation& rel) {
        const Var msg = rel_[l][r]->forward(t, t.gather_rows(h, rel.src));
        const Var film_params =
            film_[l][r]->forward(t, t.gather_rows(h, rel.dst));
        const Var gamma = t.slice_cols(film_params, 0, cfg_.hidden);
        const Var beta =
            t.slice_cols(film_params, cfg_.hidden, 2 * cfg_.hidden);
        parts.push_back({t.relu(t.add(t.mul(gamma, msg), beta)), rel.dst});
      });
      h = t.relu(parts.empty()
                     ? self
                     : t.add(self, t.segment_reduce(std::move(parts), false)));
      h = t.dropout(h, cfg_.dropout, rng, training);
    }
    return h;
  }

 private:
  std::unique_ptr<Linear> input_;
  std::vector<std::unique_ptr<Linear>> self_;
  std::vector<std::vector<std::unique_ptr<Linear>>> rel_, film_;
};

}  // namespace

std::unique_ptr<GnnEncoder> make_encoder(GnnKind kind, EncoderConfig cfg,
                                         Rng& rng) {
  GNNHLS_CHECK(cfg.in_dim > 0 && cfg.hidden > 0 && cfg.layers > 0,
               "make_encoder: bad config");
  switch (kind) {
    case GnnKind::kGcn:
      return std::make_unique<GcnEncoder>(cfg, rng, false);
    case GnnKind::kGcnVirtual:
      return std::make_unique<GcnEncoder>(cfg, rng, true);
    case GnnKind::kSgc:
      return std::make_unique<SgcEncoder>(cfg, rng);
    case GnnKind::kSage:
      return std::make_unique<SageEncoder>(cfg, rng);
    case GnnKind::kArma:
      return std::make_unique<ArmaEncoder>(cfg, rng);
    case GnnKind::kPan:
      return std::make_unique<PanEncoder>(cfg, rng);
    case GnnKind::kGin:
      return std::make_unique<GinEncoder>(cfg, rng, false);
    case GnnKind::kGinVirtual:
      return std::make_unique<GinEncoder>(cfg, rng, true);
    case GnnKind::kPna:
      return std::make_unique<PnaEncoder>(cfg, rng);
    case GnnKind::kGat:
      return std::make_unique<GatEncoder>(cfg, rng);
    case GnnKind::kGgnn:
      return std::make_unique<GgnnEncoder>(cfg, rng);
    case GnnKind::kRgcn:
      return std::make_unique<RgcnEncoder>(cfg, rng);
    case GnnKind::kUnet:
      return std::make_unique<UnetEncoder>(cfg, rng);
    case GnnKind::kFilm:
      return std::make_unique<FilmEncoder>(cfg, rng);
    case GnnKind::kCount:
      break;
  }
  GNNHLS_CHECK(false, "bad GnnKind");
  return nullptr;
}

}  // namespace gnnhls
