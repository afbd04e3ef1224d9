// Parameter containers and the Module base class.
//
// A Parameter is a persistent autograd leaf: it owns its VarNode, which
// survives across tapes, so gradients from successive forward passes
// accumulate until the optimizer consumes and zeroes them. The node lives
// behind a unique_ptr, so moving a Parameter (a std::vector<Parameter>
// that grows, say) keeps its node's address and every Var handed out by
// var() stays valid for the Parameter's lifetime.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "tensor/autograd.h"

namespace gnnhls {

class Parameter {
 public:
  Parameter() = default;
  Parameter(std::string name, Matrix value)
      : name_(std::move(name)),
        node_(std::make_unique<VarNode>(std::move(value), true)) {}

  const std::string& name() const { return name_; }
  Var var() const { return Var(node_.get()); }
  const Matrix& value() const { return node_->value; }
  Matrix& mutable_value() { return node_->value; }
  Matrix& mutable_grad() { return node_->grad; }
  void zero_grad() { node_->grad.fill(0.0F); }
  std::size_t size() const { return node_->value.size(); }

 private:
  std::string name_;
  std::unique_ptr<VarNode> node_;
};

/// Base class for anything holding trainable parameters. Subclasses register
/// their parameters (and submodules' parameters) so the optimizer can see a
/// flat list.
class Module {
 public:
  virtual ~Module() = default;

  Module(const Module&) = delete;
  Module& operator=(const Module&) = delete;

  const std::vector<Parameter*>& parameters() const { return params_; }

  std::size_t parameter_count() const {
    std::size_t n = 0;
    for (const auto* p : params_) n += p->size();
    return n;
  }

  void zero_grad() {
    for (auto* p : params_) p->zero_grad();
  }

 protected:
  Module() = default;

  /// Registers a parameter owned by the subclass (must outlive the Module).
  Parameter& register_parameter(Parameter& p) {
    params_.push_back(&p);
    return p;
  }

  /// Adopts all parameters of a child module.
  void register_module(Module& child) {
    for (auto* p : child.params_) params_.push_back(p);
  }

 private:
  std::vector<Parameter*> params_;
};

}  // namespace gnnhls
