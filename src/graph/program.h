#ifndef TQP_GRAPH_PROGRAM_H_
#define TQP_GRAPH_PROGRAM_H_

#include <string>
#include <variant>
#include <vector>

#include "common/result.h"
#include "graph/op_type.h"
#include "tensor/tensor.h"

namespace tqp {

/// \brief One attribute of an op node (op kinds, literals, flags).
using AttrValue = std::variant<int64_t, double, bool, std::string>;

/// \brief Ordered attribute list; small enough that linear lookup wins.
class AttrMap {
 public:
  void Set(const std::string& key, AttrValue value);

  bool Has(const std::string& key) const;
  /// Typed getters abort on missing key/wrong type (engine bug, not input).
  int64_t GetInt(const std::string& key) const;
  bool GetBool(const std::string& key) const;
  const std::string& GetString(const std::string& key) const;

  const std::vector<std::pair<std::string, AttrValue>>& entries() const {
    return entries_;
  }

 private:
  const AttrValue* Find(const std::string& key) const;
  std::vector<std::pair<std::string, AttrValue>> entries_;
};

/// \brief A node of the tensor program DAG.
struct OpNode {
  int id = -1;
  OpType type = OpType::kInput;
  std::vector<int> inputs;  // node ids, ordered
  AttrMap attrs;
  /// Optional human label propagated from the relational plan
  /// ("filter: l_discount >= 0.05"), shown in DOT exports and profiles.
  std::string label;
};

/// \brief A tensor program: the executable artifact of TQP's planning layer.
///
/// Nodes are stored in topological order (AddNode only references existing
/// ids). Inputs are positional; constants (model weights, literals encoded as
/// tensors) live in a side table so the graph itself stays lightweight.
class TensorProgram {
 public:
  /// \brief Declares a program input; returns its node id.
  int AddInput(const std::string& name);

  /// \brief Embeds a constant tensor; returns its node id.
  int AddConstant(Tensor value, const std::string& label = "");

  /// \brief Appends an op node; all `inputs` must be previously added ids.
  int AddNode(OpType type, std::vector<int> inputs, AttrMap attrs = {},
              const std::string& label = "");

  /// \brief Marks a node as a program output (ordered).
  void MarkOutput(int node_id);

  /// \brief Drops every node no output depends on, and the constants only
  /// they read; the rest keep their order. Inputs all stay, in order,
  /// because callers bind them by position.
  void DropDeadNodes();

  const std::vector<OpNode>& nodes() const { return nodes_; }
  const OpNode& node(int id) const { return nodes_[static_cast<size_t>(id)]; }
  const std::vector<int>& outputs() const { return outputs_; }
  const std::vector<int>& input_nodes() const { return input_ids_; }
  const std::vector<std::string>& input_names() const { return input_names_; }
  const Tensor& constant(int const_id) const {
    return constants_[static_cast<size_t>(const_id)];
  }
  const std::vector<Tensor>& constants() const { return constants_; }
  int num_nodes() const { return static_cast<int>(nodes_.size()); }

  /// \brief Per-node consumer counts (for buffer reuse in StaticExecutor).
  std::vector<int> ComputeUseCounts() const;

  /// \brief Structural validation: input ids in range, outputs marked, arity
  /// sane for fixed-arity ops.
  Status Validate() const;

  /// \brief Human-readable multi-line listing (one node per line).
  std::string ToString() const;

 private:
  std::vector<OpNode> nodes_;
  std::vector<int> outputs_;
  std::vector<int> input_ids_;
  std::vector<std::string> input_names_;
  std::vector<Tensor> constants_;
};

}  // namespace tqp

#endif  // TQP_GRAPH_PROGRAM_H_
