#include "graph/program.h"

#include <sstream>

#include "common/logging.h"

namespace tqp {

void AttrMap::Set(const std::string& key, AttrValue value) {
  for (auto& [k, v] : entries_) {
    if (k == key) {
      v = std::move(value);
      return;
    }
  }
  entries_.emplace_back(key, std::move(value));
}

const AttrValue* AttrMap::Find(const std::string& key) const {
  for (const auto& [k, v] : entries_) {
    if (k == key) return &v;
  }
  return nullptr;
}

bool AttrMap::Has(const std::string& key) const { return Find(key) != nullptr; }

int64_t AttrMap::GetInt(const std::string& key) const {
  const AttrValue* v = Find(key);
  TQP_DCHECK(v != nullptr && std::holds_alternative<int64_t>(*v));
  return std::get<int64_t>(*v);
}

bool AttrMap::GetBool(const std::string& key) const {
  const AttrValue* v = Find(key);
  TQP_DCHECK(v != nullptr && std::holds_alternative<bool>(*v));
  return std::get<bool>(*v);
}

const std::string& AttrMap::GetString(const std::string& key) const {
  const AttrValue* v = Find(key);
  TQP_DCHECK(v != nullptr && std::holds_alternative<std::string>(*v));
  return std::get<std::string>(*v);
}

int TensorProgram::AddInput(const std::string& name) {
  OpNode node;
  node.id = num_nodes();
  node.type = OpType::kInput;
  node.attrs.Set("name", name);
  node.attrs.Set("index", static_cast<int64_t>(input_ids_.size()));
  node.label = name;
  input_ids_.push_back(node.id);
  input_names_.push_back(name);
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

int TensorProgram::AddConstant(Tensor value, const std::string& label) {
  OpNode node;
  node.id = num_nodes();
  node.type = OpType::kConstant;
  node.attrs.Set("const_id", static_cast<int64_t>(constants_.size()));
  node.label = label;
  constants_.push_back(std::move(value));
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

int TensorProgram::AddNode(OpType type, std::vector<int> inputs, AttrMap attrs,
                           const std::string& label) {
  for (int in : inputs) {
    TQP_DCHECK_GE(in, 0);
    TQP_DCHECK_LT(in, num_nodes());
  }
  OpNode node;
  node.id = num_nodes();
  node.type = type;
  node.inputs = std::move(inputs);
  node.attrs = std::move(attrs);
  node.label = label;
  nodes_.push_back(std::move(node));
  return nodes_.back().id;
}

void TensorProgram::MarkOutput(int node_id) {
  TQP_DCHECK_GE(node_id, 0);
  TQP_DCHECK_LT(node_id, num_nodes());
  outputs_.push_back(node_id);
}

void TensorProgram::DropDeadNodes() {
  const size_t n = nodes_.size();
  std::vector<bool> live(n, false);
  for (int out : outputs_) live[static_cast<size_t>(out)] = true;
  for (size_t id = n; id-- > 0;) {
    if (!live[id]) continue;
    for (int in : nodes_[id].inputs) live[static_cast<size_t>(in)] = true;
  }
  std::vector<int> remap(n, -1);
  std::vector<Tensor> constants;
  int kept = 0;
  for (size_t id = 0; id < n; ++id) {
    OpNode& node = nodes_[id];
    if (!live[id] && node.type != OpType::kInput) continue;
    remap[id] = kept;
    node.id = kept;
    for (int& in : node.inputs) in = remap[static_cast<size_t>(in)];
    if (node.type == OpType::kConstant) {
      const size_t const_id = static_cast<size_t>(node.attrs.GetInt("const_id"));
      node.attrs.Set("const_id", static_cast<int64_t>(constants.size()));
      constants.push_back(std::move(constants_[const_id]));
    }
    if (static_cast<size_t>(kept) != id) {
      nodes_[static_cast<size_t>(kept)] = std::move(node);
    }
    ++kept;
  }
  nodes_.resize(static_cast<size_t>(kept));
  constants_ = std::move(constants);
  for (int& id : input_ids_) id = remap[static_cast<size_t>(id)];
  for (int& out : outputs_) out = remap[static_cast<size_t>(out)];
}

std::vector<int> TensorProgram::ComputeUseCounts() const {
  std::vector<int> uses(nodes_.size(), 0);
  for (const OpNode& n : nodes_) {
    for (int in : n.inputs) ++uses[static_cast<size_t>(in)];
  }
  for (int out : outputs_) ++uses[static_cast<size_t>(out)];
  return uses;
}

namespace {

// -1 means variadic; -2 means 2-or-3 (SegmentedReduce has optional count).
int ExpectedArity(OpType type) {
  switch (type) {
    case OpType::kInput:
    case OpType::kConstant:
      return 0;
    case OpType::kUnary:
    case OpType::kCast:
    case OpType::kNonzero:
    case OpType::kCumSum:
    case OpType::kReduceAll:
    case OpType::kArgsortRows:
    case OpType::kGroupCount:
    case OpType::kHashRows:
    case OpType::kStringCompareScalar:
    case OpType::kStringLike:
    case OpType::kSubstring:
    case OpType::kArangeLike:
    case OpType::kHeadRows:
    case OpType::kHashTokenize:
      return 1;
    case OpType::kBinary:
    case OpType::kCompare:
    case OpType::kLogical:
    case OpType::kCompress:
    case OpType::kGather:
    case OpType::kRepeatInterleave:
    case OpType::kSearchSorted:
    case OpType::kHashCombine:
    case OpType::kMatMul:
    case OpType::kEmbeddingBagSum:
    case OpType::kStringCompare:
    case OpType::kGatherCols:
      return 2;
    case OpType::kWhere:
    case OpType::kMatMulAddBias:
    case OpType::kSegmentedReduce:
    case OpType::kScatter:
      return 3;
    case OpType::kConcatRows:
    case OpType::kConcatCols:
    case OpType::kGroupIds:
      return -1;
  }
  return -1;
}

}  // namespace

Status TensorProgram::Validate() const {
  for (const OpNode& n : nodes_) {
    for (int in : n.inputs) {
      if (in < 0 || in >= n.id) {
        return Status::Internal("node " + std::to_string(n.id) +
                                " references invalid input " + std::to_string(in));
      }
    }
    const int arity = ExpectedArity(n.type);
    if (arity >= 0 && static_cast<int>(n.inputs.size()) != arity) {
      return Status::Internal(std::string("node ") + OpTypeName(n.type) +
                              " expects " + std::to_string(arity) + " inputs, has " +
                              std::to_string(n.inputs.size()));
    }
  }
  if (outputs_.empty()) return Status::Internal("program has no outputs");
  for (int out : outputs_) {
    if (out < 0 || out >= num_nodes()) {
      return Status::Internal("output id out of range");
    }
  }
  return Status::OK();
}

std::string TensorProgram::ToString() const {
  std::ostringstream os;
  os << "TensorProgram(" << nodes_.size() << " nodes, " << input_ids_.size()
     << " inputs, " << outputs_.size() << " outputs)\n";
  for (const OpNode& n : nodes_) {
    os << "  %" << n.id << " = " << OpTypeName(n.type) << "(";
    for (size_t i = 0; i < n.inputs.size(); ++i) {
      if (i > 0) os << ", ";
      os << "%" << n.inputs[i];
    }
    os << ")";
    if (!n.label.empty()) os << "  // " << n.label;
    os << "\n";
  }
  os << "  outputs:";
  for (int out : outputs_) os << " %" << out;
  os << "\n";
  return os.str();
}

}  // namespace tqp
