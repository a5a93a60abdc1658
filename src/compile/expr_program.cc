#include "compile/expr_program.h"

#include <algorithm>
#include <array>
#include <map>
#include <set>
#include <sstream>
#include <unordered_map>

#include "kernels/elementwise.h"
#include "kernels/kernel_types.h"

namespace tqp {

namespace {

/// Everything the builder knows about one resolved value (an external, a
/// folded constant, or a previously processed candidate node).
struct ValueInfo {
  DType dtype = DType::kFloat64;
  bool scalar = false;
  bool single_col = true;
  bool driver = false;  // rows span the run's driver domain (domain 0)
  const Tensor* constant = nullptr;
};

// Built on IsFusibleElementwise so an op added to StaticExecutor's grouping
// is automatically a lowering candidate too (plus the selection ops the
// selection-vector lowering handles).
bool IsExprFusibleOp(OpType type) {
  return IsFusibleElementwise(type) || type == OpType::kCompress ||
         type == OpType::kNonzero;
}

/// Output driver-ness of an op evaluated outside any run, mirroring the
/// pipeline splitter's cardinality rules: cardinality-preserving ops keep
/// their aligned operands' domain; anything cardinality-changing leaves it.
bool DriverOf(const OpNode& node, const std::vector<ValueInfo>& ins) {
  const auto vec_driver = [&](size_t i) {
    return i < ins.size() && !ins[i].scalar && ins[i].driver;
  };
  switch (node.type) {
    case OpType::kBinary:
    case OpType::kCompare:
    case OpType::kLogical:
    case OpType::kUnary:
    case OpType::kCast:
    case OpType::kWhere:
    case OpType::kHashRows:
    case OpType::kHashCombine:
    case OpType::kGatherCols:
    case OpType::kConcatCols:
    case OpType::kStringCompareScalar:
    case OpType::kStringCompare:
    case OpType::kStringLike:
    case OpType::kSubstring:
    case OpType::kHashTokenize: {
      bool any_vector = false;
      for (size_t i = 0; i < node.inputs.size(); ++i) {
        if (ins[i].scalar) continue;
        any_vector = true;
        if (!ins[i].driver) return false;
      }
      return any_vector;
    }
    case OpType::kArangeLike:
    case OpType::kMatMul:
    case OpType::kMatMulAddBias:
      return vec_driver(0);
    case OpType::kGather:
    case OpType::kSearchSorted:
    case OpType::kEmbeddingBagSum:
      return vec_driver(1);
    default:
      return false;  // compress/nonzero/repeat_interleave/head/breakers
  }
}

}  // namespace

const char* ExprOpCodeName(ExprOpCode code) {
  switch (code) {
    case ExprOpCode::kBinary: return "binary";
    case ExprOpCode::kCompare: return "compare";
    case ExprOpCode::kLogical: return "logical";
    case ExprOpCode::kUnary: return "unary";
    case ExprOpCode::kCast: return "cast";
    case ExprOpCode::kWhere: return "where";
    case ExprOpCode::kSelVec: return "selvec";
    case ExprOpCode::kGatherSel: return "gather_sel";
    case ExprOpCode::kIota: return "iota";
  }
  return "?";
}

/// Emits one run's instructions. Owns the in-construction ExprProgram;
/// Finish() runs output marking and register allocation.
class ExprRunBuilder {
 public:
  ExprRunBuilder() = default;

  void Reset() {
    out_ = std::make_unique<ExprProgram>();
    out_->num_domains_ = 1;  // domain 0 = the driver domain
    node_reg_.clear();
    source_reg_.clear();
    cse_.clear();
    selvec_of_mask_.clear();
  }

  bool empty() const { return node_reg_.empty(); }

  /// Tries to lower `node`; returns false (leaving the run exactly as it
  /// was — partial emission is rolled back) when the node cannot join.
  bool AddNode(const OpNode& node, const std::vector<ValueInfo>& ins);

  /// Seals the run. `needed(id)` says whether a fused node's value must
  /// materialize. Returns null when nothing was fused.
  std::shared_ptr<const ExprProgram> Finish(
      const std::function<bool(int)>& needed);

  /// Info of a node lowered into the open run (valid after AddNode true).
  ValueInfo InfoOf(int node_id) const {
    const ExprReg& r = out_->regs_[static_cast<size_t>(node_reg_.at(node_id))];
    ValueInfo vi;
    vi.dtype = r.dtype;
    vi.scalar = r.scalar;
    vi.single_col = true;
    vi.driver = r.dom == 0;
    vi.constant = nullptr;
    return vi;
  }

 private:
  using CseKey = std::array<int, 7>;

  /// Builder state sizes at AddNode entry; rejection restores them so a
  /// rejected node leaves no dead instructions or unused source bindings
  /// behind in the sealed run.
  struct Snapshot {
    size_t instrs, regs, constants, sources;
    int num_domains, num_cse, num_folded;
  };

  Snapshot Snap() const {
    return {out_->instrs_.size(), out_->regs_.size(), out_->constants_.size(),
            out_->source_nodes_.size(), out_->num_domains_, out_->num_cse_,
            out_->num_folded_};
  }

  void RollbackTo(const Snapshot& s) {
    out_->instrs_.resize(s.instrs);
    out_->regs_.resize(s.regs);
    out_->constants_.resize(s.constants);
    out_->source_nodes_.resize(s.sources);
    out_->num_domains_ = s.num_domains;
    out_->num_cse_ = s.num_cse;
    out_->num_folded_ = s.num_folded;
    // Any map entry minted since the snapshot points at a register >= s.regs
    // (keys referencing a rolled-back register imply a later dst as well).
    const auto drop_new = [&](auto* m) {
      for (auto it = m->begin(); it != m->end();) {
        it = it->second >= static_cast<int>(s.regs) ? m->erase(it) : ++it;
      }
    };
    drop_new(&cse_);
    drop_new(&source_reg_);
    drop_new(&selvec_of_mask_);
  }

  /// Lowers one node, emitting instructions/registers as needed. Returns the
  /// node's destination register, or -1 when the node cannot join the run
  /// (the caller rolls back any partial emission).
  int LowerNode(const OpNode& node, const std::vector<ValueInfo>& ins);

  int NewReg(DType dtype, bool scalar, int dom) {
    ExprReg r;
    r.dtype = dtype;
    r.scalar = scalar;
    r.dom = scalar ? -1 : dom;
    out_->regs_.push_back(r);
    return static_cast<int>(out_->regs_.size()) - 1;
  }

  int ConstReg(const Tensor& value) {
    const int k = static_cast<int>(out_->constants_.size());
    out_->constants_.push_back(value);
    const int reg = NewReg(value.dtype(), /*scalar=*/true, -1);
    out_->regs_[static_cast<size_t>(reg)].konst = k;
    return reg;
  }

  /// Register holding operand node `id` (in-run value, folded constant, or
  /// interned execution source).
  int OperandReg(int id, const ValueInfo& vi) {
    auto it = node_reg_.find(id);
    if (it != node_reg_.end()) return it->second;
    auto sit = source_reg_.find(id);
    if (sit != source_reg_.end()) return sit->second;
    if (vi.constant != nullptr && vi.scalar) {
      const int reg = ConstReg(*vi.constant);
      source_reg_.emplace(id, reg);
      return reg;
    }
    int dom = -1;
    if (!vi.scalar) {
      // Non-driver vector sources each get their own length domain; ops
      // mixing domains validate equal lengths at execution time.
      dom = vi.driver ? 0 : out_->num_domains_++;
    }
    const int reg = NewReg(vi.dtype, vi.scalar, dom);
    out_->regs_[static_cast<size_t>(reg)].source =
        static_cast<int>(out_->source_nodes_.size());
    out_->source_nodes_.push_back(id);
    source_reg_.emplace(id, reg);
    return reg;
  }

  bool IsConst(int reg) const {
    return out_->regs_[static_cast<size_t>(reg)].konst >= 0;
  }
  const Tensor& ConstOf(int reg) const {
    return out_->constants_[static_cast<size_t>(
        out_->regs_[static_cast<size_t>(reg)].konst)];
  }
  DType TypeOf(int reg) const {
    return out_->regs_[static_cast<size_t>(reg)].dtype;
  }
  bool ScalarOf(int reg) const {
    return out_->regs_[static_cast<size_t>(reg)].scalar;
  }
  int DomOf(int reg) const {
    return out_->regs_[static_cast<size_t>(reg)].dom;
  }

  /// The lane domain of an elementwise result: the first vector operand's
  /// domain, -1 when all operands are single-lane.
  int ResultDom(std::initializer_list<int> operands) const {
    for (int r : operands) {
      if (r >= 0 && !ScalarOf(r)) return DomOf(r);
    }
    return -1;
  }

  /// Emits (or CSE-reuses, or constant-folds) one instruction; returns the
  /// destination register or -1 when folding failed (caller rejects node).
  int Emit(ExprOpCode code, int kind, DType dtype, DType in_dtype, int a,
           int b = -1, int c = -1) {
    const CseKey key = {static_cast<int>(code), kind, static_cast<int>(dtype),
                        static_cast<int>(in_dtype), a, b, c};
    auto it = cse_.find(key);
    if (it != cse_.end()) {
      ++out_->num_cse_;
      return it->second;
    }
    // Fold elementwise work over compile-time constants through the same
    // kernels the eager executor runs, so folded values are bit-identical.
    const bool foldable = code != ExprOpCode::kSelVec &&
                          code != ExprOpCode::kGatherSel &&
                          code != ExprOpCode::kIota;
    if (foldable && IsConst(a) && (b < 0 || IsConst(b)) &&
        (c < 0 || IsConst(c))) {
      Result<Tensor> folded = Fold(code, kind, dtype, a, b, c);
      if (!folded.ok()) return -1;
      const int reg = ConstReg(std::move(folded).ValueOrDie());
      ++out_->num_folded_;
      cse_.emplace(key, reg);
      return reg;
    }
    ExprInstr instr;
    instr.code = code;
    instr.kind = static_cast<int8_t>(kind);
    instr.dtype = dtype;
    instr.in_dtype = in_dtype;
    instr.a = a;
    instr.b = b;
    instr.c = c;
    instr.dom = ResultDom({a, b, c});
    const int dst = NewReg(dtype, instr.dom < 0, instr.dom);
    instr.dst = dst;
    out_->instrs_.push_back(instr);
    cse_.emplace(key, dst);
    return dst;
  }

  Result<Tensor> Fold(ExprOpCode code, int kind, DType dtype, int a, int b,
                      int c) {
    using namespace tqp::kernels;  // NOLINT: mirror of EvalNode's dispatch
    switch (code) {
      case ExprOpCode::kBinary:
        return BinaryOp(static_cast<BinaryOpKind>(kind), ConstOf(a), ConstOf(b));
      case ExprOpCode::kCompare:
        return Compare(static_cast<CompareOpKind>(kind), ConstOf(a), ConstOf(b));
      case ExprOpCode::kLogical:
        return Logical(static_cast<LogicalOpKind>(kind), ConstOf(a), ConstOf(b));
      case ExprOpCode::kUnary:
        return Unary(static_cast<UnaryOpKind>(kind), ConstOf(a));
      case ExprOpCode::kCast:
        return Cast(ConstOf(a), dtype);
      case ExprOpCode::kWhere:
        return Where(ConstOf(a), ConstOf(b), ConstOf(c));
      default:
        return Status::Internal("unfoldable expr opcode");
    }
  }

  /// Value of `reg` cast to `to` (no-op alias when dtypes already match).
  int CastTo(int reg, DType to) {
    if (TypeOf(reg) == to) return reg;
    return Emit(ExprOpCode::kCast, 0, to, TypeOf(reg), reg);
  }

  /// Selection vector over `mask` (shared by every compress/nonzero on it).
  int SelVecOf(int mask) {
    auto it = selvec_of_mask_.find(mask);
    if (it != selvec_of_mask_.end()) {
      ++out_->num_cse_;
      return it->second;
    }
    ExprInstr instr;
    instr.code = ExprOpCode::kSelVec;
    instr.dtype = DType::kInt64;
    instr.in_dtype = DType::kBool;
    instr.a = mask;
    instr.dom = DomOf(mask);
    instr.out_dom = out_->num_domains_++;
    const int dst = NewReg(DType::kInt64, /*scalar=*/false, instr.out_dom);
    instr.dst = dst;
    out_->instrs_.push_back(instr);
    selvec_of_mask_.emplace(mask, dst);
    return dst;
  }

  std::unique_ptr<ExprProgram> out_;
  std::unordered_map<int, int> node_reg_;    // fused node id -> register
  std::unordered_map<int, int> source_reg_;  // external node id -> register
  std::map<CseKey, int> cse_;
  std::unordered_map<int, int> selvec_of_mask_;  // mask reg -> selvec reg
};

bool ExprRunBuilder::AddNode(const OpNode& node,
                             const std::vector<ValueInfo>& ins) {
  const Snapshot snap = Snap();
  const int dst = LowerNode(node, ins);
  if (dst < 0) {
    RollbackTo(snap);
    return false;
  }
  node_reg_.emplace(node.id, dst);
  ++out_->num_nodes_;
  return true;
}

int ExprRunBuilder::LowerNode(const OpNode& node,
                              const std::vector<ValueInfo>& ins) {
  // Operand constraints common to every fused op: resolvable, single-column.
  for (const ValueInfo& vi : ins) {
    if (!vi.single_col) return -1;
  }
  std::vector<int> r(node.inputs.size());
  const auto bind_all = [&]() {
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      r[i] = OperandReg(node.inputs[i], ins[i]);
    }
  };
  int dst = -1;
  switch (node.type) {
    case OpType::kBinary: {
      bind_all();
      DType dt = PromoteTypes(TypeOf(r[0]), TypeOf(r[1]));
      if (dt == DType::kBool || dt == DType::kUInt8) dt = DType::kInt32;
      const int a = CastTo(r[0], dt);
      const int b = CastTo(r[1], dt);
      if (a < 0 || b < 0) return -1;
      dst = Emit(ExprOpCode::kBinary, static_cast<int>(node.attrs.GetInt("op")),
                 dt, dt, a, b);
      break;
    }
    case OpType::kCompare: {
      bind_all();
      DType dt = PromoteTypes(TypeOf(r[0]), TypeOf(r[1]));
      if (dt == DType::kBool) dt = DType::kUInt8;
      const int a = CastTo(r[0], dt);
      const int b = CastTo(r[1], dt);
      if (a < 0 || b < 0) return -1;
      dst = Emit(ExprOpCode::kCompare, static_cast<int>(node.attrs.GetInt("op")),
                 DType::kBool, dt, a, b);
      break;
    }
    case OpType::kLogical: {
      if (ins[0].dtype != DType::kBool || ins[1].dtype != DType::kBool) {
        return -1;
      }
      bind_all();
      dst = Emit(ExprOpCode::kLogical, static_cast<int>(node.attrs.GetInt("op")),
                 DType::kBool, DType::kBool, r[0], r[1]);
      break;
    }
    case OpType::kUnary: {
      const auto op = static_cast<UnaryOpKind>(node.attrs.GetInt("op"));
      if (op == UnaryOpKind::kNot) {
        if (ins[0].dtype != DType::kBool) return -1;
        bind_all();
        dst = Emit(ExprOpCode::kUnary, static_cast<int>(op), DType::kBool,
                   DType::kBool, r[0]);
        break;
      }
      bind_all();
      const bool keeps_dtype = op == UnaryOpKind::kNeg ||
                               op == UnaryOpKind::kAbs ||
                               op == UnaryOpKind::kRelu;
      DType dt = TypeOf(r[0]);
      if (keeps_dtype) {
        if (dt == DType::kBool || dt == DType::kUInt8) dt = DType::kInt32;
      } else {
        dt = dt == DType::kFloat32 ? DType::kFloat32 : DType::kFloat64;
      }
      const int a = CastTo(r[0], dt);
      if (a < 0) return -1;
      dst = Emit(ExprOpCode::kUnary, static_cast<int>(op), dt, dt, a);
      break;
    }
    case OpType::kCast: {
      bind_all();
      const auto to = static_cast<DType>(node.attrs.GetInt("dtype"));
      dst = CastTo(r[0], to);
      break;
    }
    case OpType::kWhere: {
      if (ins[0].dtype != DType::kBool) return -1;
      bind_all();
      const DType dt = PromoteTypes(TypeOf(r[1]), TypeOf(r[2]));
      const int b = CastTo(r[1], dt);
      const int c = CastTo(r[2], dt);
      if (b < 0 || c < 0) return -1;
      dst = Emit(ExprOpCode::kWhere, 0, dt, dt, r[0], b, c);
      break;
    }
    case OpType::kCompress: {
      // (data, mask): one shared selection vector per mask, one gather per
      // filtered column; downstream instructions see only selected lanes.
      if (ins[1].dtype != DType::kBool || ins[0].scalar || ins[1].scalar) {
        return -1;
      }
      bind_all();
      // The selection vector holds mask-local lane indices, so data and
      // mask must share a cardinality domain. A mismatched pair stays
      // unfused and reaches the Compress kernel, whose own rows check
      // raises the same error the eager path would (a selection vector
      // applied to a longer column would gather in-range but wrong rows).
      if (DomOf(r[0]) != DomOf(r[1])) return -1;
      const int sel = SelVecOf(r[1]);
      dst = Emit(ExprOpCode::kGatherSel, 0, TypeOf(r[0]), TypeOf(r[0]), sel,
                 r[0]);
      break;
    }
    case OpType::kNonzero: {
      // Global row positions: selection vector + the morsel's base offset.
      // Only valid over the driver domain (domain 0), where the interpreter
      // knows the morsel's global offset — mirrors the splitter's rule.
      if (ins[0].dtype != DType::kBool || ins[0].scalar) return -1;
      bind_all();
      if (DomOf(r[0]) != 0) return -1;
      const int sel = SelVecOf(r[0]);
      dst = Emit(ExprOpCode::kIota, 0, DType::kInt64, DType::kInt64, sel);
      break;
    }
    default:
      return -1;
  }
  return dst;
}

std::shared_ptr<const ExprProgram> ExprRunBuilder::Finish(
    const std::function<bool(int)>& needed) {
  if (node_reg_.empty()) return nullptr;
  // Outputs, in node-id order so the executor's materialization order is
  // deterministic. CSE can map two output nodes to one register; they then
  // share one materialized tensor.
  std::vector<std::pair<int, int>> outs;  // (node, reg)
  for (const auto& [id, reg] : node_reg_) {
    if (needed(id)) outs.emplace_back(id, reg);
  }
  std::sort(outs.begin(), outs.end());
  for (const auto& [id, reg] : outs) {
    ExprReg& r = out_->regs_[static_cast<size_t>(reg)];
    // A register written by an instruction materializes at its defining
    // write; source/const aliases (a dtype-preserving cast) resolve to the
    // bound tensor at extraction time.
    if (r.source < 0 && r.konst < 0 && r.output < 0) {
      r.output = static_cast<int>(out_->output_nodes_.size());
    }
    out_->output_nodes_.push_back(id);
    out_->output_regs_.push_back(reg);
  }
  // Register allocation: temps free their slot after their last consumer;
  // a destination never reuses an operand slot of its own instruction.
  const auto needs_slot = [&](int reg) {
    if (reg < 0) return false;
    const ExprReg& r = out_->regs_[static_cast<size_t>(reg)];
    return r.source < 0 && r.konst < 0 && r.output < 0;
  };
  std::vector<int> last_use(out_->regs_.size(), -1);
  for (size_t i = 0; i < out_->instrs_.size(); ++i) {
    const ExprInstr& instr = out_->instrs_[i];
    for (int op : {instr.a, instr.b, instr.c}) {
      if (op >= 0) last_use[static_cast<size_t>(op)] = static_cast<int>(i);
    }
  }
  std::vector<int> free_slots;
  int num_slots = 0;
  for (size_t i = 0; i < out_->instrs_.size(); ++i) {
    const ExprInstr& instr = out_->instrs_[i];
    if (needs_slot(instr.dst)) {
      int slot;
      if (!free_slots.empty()) {
        slot = free_slots.back();
        free_slots.pop_back();
      } else {
        slot = num_slots++;
      }
      out_->regs_[static_cast<size_t>(instr.dst)].slot = slot;
    }
    // A register repeated in two operand positions (e.g. mul(t, t) after
    // CSE) must free its slot exactly once.
    const std::array<int, 3> ops = {instr.a, instr.b, instr.c};
    for (size_t j = 0; j < ops.size(); ++j) {
      const int op = ops[j];
      if (j > 0 && (op == ops[0] || (j > 1 && op == ops[1]))) continue;
      if (needs_slot(op) && last_use[static_cast<size_t>(op)] ==
                                static_cast<int>(i)) {
        free_slots.push_back(out_->regs_[static_cast<size_t>(op)].slot);
      }
    }
  }
  out_->num_slots_ = num_slots;
  return std::shared_ptr<const ExprProgram>(std::move(out_));
}

std::string ExprProgram::ToString() const {
  std::ostringstream os;
  const auto print_reg = [&](std::ostringstream& out, int r) {
    if (r < 0) {
      out << '-';
      return;
    }
    const ExprReg& reg = regs_[static_cast<size_t>(r)];
    if (reg.source >= 0) {
      out << 's' << reg.source;
    } else if (reg.konst >= 0) {
      out << 'k' << reg.konst;
    } else {
      out << 'r' << r;
    }
  };
  os << num_nodes_ << " ops -> " << instrs_.size() << " instrs, "
     << num_slots_ << " slots, " << source_nodes_.size() << " sources, "
     << output_nodes_.size() << " outputs, " << num_folded_ << " folded, "
     << num_cse_ << " cse\n";
  for (const ExprInstr& instr : instrs_) {
    os << "  ";
    print_reg(os, instr.dst);
    os << " = " << ExprOpCodeName(instr.code);
    switch (instr.code) {
      case ExprOpCode::kBinary:
        os << "." << BinaryOpName(static_cast<BinaryOpKind>(instr.kind));
        break;
      case ExprOpCode::kCompare:
        os << "." << CompareOpName(static_cast<CompareOpKind>(instr.kind));
        break;
      case ExprOpCode::kLogical:
        os << "." << LogicalOpName(static_cast<LogicalOpKind>(instr.kind));
        break;
      case ExprOpCode::kUnary:
        os << "." << UnaryOpName(static_cast<UnaryOpKind>(instr.kind));
        break;
      default:
        break;
    }
    os << "(";
    bool first = true;
    for (int op : {instr.a, instr.b, instr.c}) {
      if (op < 0) continue;
      if (!first) os << ", ";
      print_reg(os, op);
      first = false;
    }
    os << ") " << DTypeName(instr.dtype);
    if (instr.dom >= 0) os << " dom" << instr.dom;
    if (instr.out_dom >= 0) os << " ->dom" << instr.out_dom;
    os << "\n";
  }
  return os.str();
}

ExprFusionPlan BuildExprFusionPlan(const TensorProgram& program,
                                   const std::vector<int>& nodes,
                                   const std::vector<int>& required_outputs,
                                   const ExprExternalFn& external) {
  ExprFusionPlan plan;
  plan.run_start.assign(nodes.size(), -1);
  const std::set<int> required(required_outputs.begin(), required_outputs.end());

  // Last candidate position reading each node: a fused value consumed at or
  // beyond its run's end must materialize.
  std::unordered_map<int, int> last_reader;
  for (size_t i = 0; i < nodes.size(); ++i) {
    for (int in : program.node(nodes[i]).inputs) {
      last_reader[in] = static_cast<int>(i);
    }
  }

  std::unordered_map<int, ValueInfo> info;  // resolved values, by node id
  const auto resolve = [&](int id, ValueInfo* vi) {
    auto it = info.find(id);
    if (it != info.end()) {
      *vi = it->second;
      return true;
    }
    ExprExternal ext;
    if (!external(id, &ext)) return false;
    vi->dtype = ext.dtype;
    vi->scalar = ext.scalar;
    vi->single_col = ext.single_col;
    vi->driver = ext.driver_aligned && !ext.scalar;
    vi->constant = ext.constant;
    info.emplace(id, *vi);
    return true;
  };

  ExprRunBuilder builder;
  builder.Reset();
  size_t run_begin = 0;
  bool open = false;
  const auto close = [&](size_t end_idx) {
    if (!open) return;
    open = false;
    auto compiled = builder.Finish([&](int id) {
      if (required.count(id) > 0) return true;
      auto it = last_reader.find(id);
      return it != last_reader.end() && it->second >= static_cast<int>(end_idx);
    });
    builder.Reset();
    if (compiled == nullptr) return;
    plan.run_start[run_begin] = static_cast<int>(plan.runs.size());
    plan.num_fused_nodes += compiled->num_nodes();
    plan.runs.push_back({std::move(compiled), run_begin, end_idx});
  };

  for (size_t idx = 0; idx < nodes.size(); ++idx) {
    const OpNode& node = program.node(nodes[idx]);
    std::vector<ValueInfo> ins(node.inputs.size());
    bool operands_known = true;
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      if (!resolve(node.inputs[i], &ins[i])) operands_known = false;
    }
    bool fused = false;
    if (operands_known && IsExprFusibleOp(node.type)) {
      if (!open) {
        run_begin = idx;
        open = true;
      }
      fused = builder.AddNode(node, ins);
    }
    if (fused) {
      info[node.id] = builder.InfoOf(node.id);
      continue;
    }
    // close() seals whatever was fused so far (a nothing-fused run compiles
    // to null) and resets the builder either way.
    close(idx);
    // Unfused candidate: record what later runs can know about its value —
    // dtype/shape from the caller (e.g. the pipeline's probe morsel),
    // driver-ness from the structural cardinality rules.
    ValueInfo vi;
    ExprExternal ext;
    if (external(node.id, &ext)) {
      vi.dtype = ext.dtype;
      vi.scalar = false;  // pipeline nodes stream vectors
      vi.single_col = ext.single_col;
      vi.driver = operands_known && DriverOf(node, ins);
      vi.constant = nullptr;
      info[node.id] = vi;
    }
  }
  close(nodes.size());
  return plan;
}

}  // namespace tqp
