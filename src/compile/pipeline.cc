#include "compile/pipeline.h"

#include <algorithm>
#include <map>
#include <numeric>
#include <sstream>

#include "common/logging.h"
#include "obs/trace.h"

namespace tqp {

namespace {

/// Role of one operand of a streamable op: aligned operands are row-aligned
/// with the op's output domain and stream morsel-by-morsel; whole operands
/// are consumed in full (hash-build sides, sorted arrays, weight matrices).
enum class Role : int8_t { kAligned, kWholeOperand };

bool RolesFor(const OpNode& node, std::vector<Role>* roles) {
  const auto all = [&](Role r) {
    roles->assign(node.inputs.size(), r);
    return true;
  };
  switch (node.type) {
    case OpType::kBinary:
    case OpType::kCompare:
    case OpType::kLogical:
    case OpType::kUnary:
    case OpType::kCast:
    case OpType::kWhere:
    case OpType::kNonzero:
    case OpType::kCompress:
    case OpType::kRepeatInterleave:
    case OpType::kHashRows:
    case OpType::kHashCombine:
    case OpType::kArangeLike:
    case OpType::kHeadRows:
    case OpType::kGatherCols:
    case OpType::kConcatCols:
    case OpType::kStringCompareScalar:
    case OpType::kStringCompare:
    case OpType::kStringLike:
    case OpType::kSubstring:
    case OpType::kHashTokenize:
      return all(Role::kAligned);
    case OpType::kGather:          // (data, indices): stream the probe side
    case OpType::kSearchSorted:    // (sorted, values): stream the probe side
    case OpType::kEmbeddingBagSum: // (table, ids): stream the lookup side
      *roles = {Role::kWholeOperand, Role::kAligned};
      return true;
    case OpType::kMatMul:          // (a, b): rows of `a` are independent
      *roles = {Role::kAligned, Role::kWholeOperand};
      return true;
    case OpType::kMatMulAddBias:
      *roles = {Role::kAligned, Role::kWholeOperand, Role::kWholeOperand};
      return true;
    default:
      return false;  // breaker
  }
}

/// Disjoint-set over cardinality symbols: Union records "provably equal row
/// counts" (operands of one row-aligned op).
class UnionFind {
 public:
  int Fresh() {
    parent_.push_back(static_cast<int>(parent_.size()));
    return parent_.back();
  }
  int Find(int x) {
    while (parent_[static_cast<size_t>(x)] != x) {
      parent_[static_cast<size_t>(x)] =
          parent_[static_cast<size_t>(parent_[static_cast<size_t>(x)])];
      x = parent_[static_cast<size_t>(x)];
    }
    return x;
  }
  int Union(int a, int b) {
    a = Find(a);
    b = Find(b);
    if (a != b) parent_[static_cast<size_t>(b)] = a;
    return a;
  }

 private:
  std::vector<int> parent_;
};

class Splitter {
 public:
  explicit Splitter(const TensorProgram& program) : prog_(program) {}

  PipelinePlan Build() {
    const int n = prog_.num_nodes();
    scalar_.assign(static_cast<size_t>(n), false);
    card_.assign(static_cast<size_t>(n), -1);
    pipe_of_.assign(static_cast<size_t>(n), -1);
    sliced_in_.assign(static_cast<size_t>(n), -1);
    whole_in_.assign(static_cast<size_t>(n), -1);
    for (const OpNode& node : prog_.nodes()) Visit(node);
    Flush();
    FinalizePipelines();
    BuildStepGraph();
    return std::move(plan_);
  }

 private:
  int OpenIndex() const { return static_cast<int>(plan_.pipelines.size()); }

  int Intern(const std::string& key) {
    auto it = interned_.find(key);
    if (it != interned_.end()) return it->second;
    const int sym = uf_.Fresh();
    interned_.emplace(key, sym);
    return sym;
  }

  bool AllAlignedScalar(const OpNode& node, const std::vector<Role>& roles) {
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      if (roles[i] == Role::kAligned &&
          !scalar_[static_cast<size_t>(node.inputs[i])]) {
        return false;
      }
    }
    return true;
  }

  /// Statically-provable 1-row nodes (reduction results, scalar literals and
  /// arithmetic over them). They evaluate serially and bind as broadcast
  /// operands everywhere.
  bool InferScalar(const OpNode& node, const std::vector<Role>& roles,
                   bool streamable) {
    switch (node.type) {
      case OpType::kReduceAll:
      case OpType::kGroupCount:
        return true;
      case OpType::kCumSum:
      case OpType::kArgsortRows:
      case OpType::kGroupIds:
        return scalar_[static_cast<size_t>(node.inputs[0])];
      case OpType::kNonzero:
      case OpType::kCompress:
      case OpType::kRepeatInterleave:
      case OpType::kHeadRows:
        return false;  // output row count is data-dependent
      default:
        return streamable && AllAlignedScalar(node, roles);
    }
  }

  /// Output cardinality symbol. `c` is the unified symbol of the aligned
  /// vector operands (-1 when there are none).
  int OutputCard(const OpNode& node, int c) {
    const auto in_card_key = [&](int i) {
      const int id = node.inputs[static_cast<size_t>(i)];
      return scalar_[static_cast<size_t>(id)]
                 ? std::string("s")
                 : std::to_string(uf_.Find(card_[static_cast<size_t>(id)]));
    };
    switch (node.type) {
      case OpType::kNonzero:
        // Same row count as any compress over the same mask.
        return Intern("sel:" + std::to_string(node.inputs[0]));
      case OpType::kCompress:
        return Intern("sel:" + std::to_string(node.inputs[1]));
      case OpType::kRepeatInterleave:
        return Intern("ri:" + std::to_string(node.inputs[1]));
      case OpType::kHeadRows:
        return Intern("head:" + std::to_string(c < 0 ? -1 : uf_.Find(c)) + ":" +
                      std::to_string(node.attrs.GetInt("n")));
      case OpType::kSegmentedReduce:
      case OpType::kScatter:
        // Rows equal the runtime value of the num_segments operand.
        return Intern("segred:" + std::to_string(node.inputs[2]));
      case OpType::kConcatRows: {
        std::string key = "cat";
        for (size_t i = 0; i < node.inputs.size(); ++i) {
          key.push_back(':');
          key += in_card_key(static_cast<int>(i));
        }
        return Intern(key);
      }
      case OpType::kGather:
      case OpType::kSearchSorted:
      case OpType::kEmbeddingBagSum:
        return uf_.Find(card_[static_cast<size_t>(node.inputs[1])]);
      case OpType::kCumSum:
      case OpType::kArgsortRows:
      case OpType::kGroupIds:
        return uf_.Find(card_[static_cast<size_t>(node.inputs[0])]);
      default:
        // Cardinality-preserving over the aligned operands.
        return c >= 0 ? uf_.Find(c) : uf_.Fresh();
    }
  }

  void EmitSerial(int id, bool flush) {
    if (flush) Flush();
    PipelineStep step;
    step.serial_node = id;
    const OpType t = prog_.node(id).type;
    step.breaker = t == OpType::kArgsortRows || t == OpType::kGroupIds ||
                   t == OpType::kSegmentedReduce;
    plan_.schedule.push_back(step);
  }

  void Visit(const OpNode& node) {
    const size_t id = static_cast<size_t>(node.id);
    if (node.type == OpType::kInput) {
      card_[id] = uf_.Fresh();
      return;  // bound by the executor, no step
    }
    if (node.type == OpType::kConstant) {
      const Tensor& value =
          prog_.constant(static_cast<int>(node.attrs.GetInt("const_id")));
      scalar_[id] = value.rows() == 1;
      card_[id] = scalar_[id] ? -1 : uf_.Fresh();
      EmitSerial(node.id, /*flush=*/false);  // depends on nothing
      return;
    }
    std::vector<Role> roles;
    const bool streamable = RolesFor(node, &roles);
    if (InferScalar(node, roles, streamable)) {
      // Statically 1-row output. Scalar *expressions* read only other
      // scalars, but a reduction reads a vector — if that vector is being
      // streamed by the open pipeline, the pipeline must materialize first.
      scalar_[id] = true;
      card_[id] = -1;
      bool reads_open = false;
      for (int in : node.inputs) {
        if (pipe_of_[static_cast<size_t>(in)] == OpenIndex()) {
          reads_open = true;
          break;
        }
      }
      EmitSerial(node.id, /*flush=*/reads_open);
      return;
    }
    if (!streamable) {
      // No UnifyAligned here: a breaker's operands need not share a row
      // count (ConcatRows concatenates *different* cardinalities).
      card_[id] = OutputCard(node, -1);
      EmitSerial(node.id, /*flush=*/true);
      return;
    }
    const int c = UnifyAligned(node, roles);
    if (c < 0 || ReadsOneValueSlicedAndWhole(node, roles)) {
      // All aligned operands are scalars but the output row count is
      // data-dependent (e.g. nonzero over a 1-row mask), or one operand
      // value would bind both sliced and whole (gather(ids, ids)), which a
      // morsel's per-node scratch cannot hold: evaluate whole.
      card_[id] = OutputCard(node, c);
      EmitSerial(node.id, /*flush=*/true);
      return;
    }
    if (!CanJoinOpen(node, roles, c)) {
      Flush();
      open_driver_ = uf_.Find(c);
    }
    open_nodes_.push_back(node.id);
    pipe_of_[id] = OpenIndex();
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      const int in = node.inputs[i];
      if (pipe_of_[static_cast<size_t>(in)] == OpenIndex() ||
          scalar_[static_cast<size_t>(in)]) {
        continue;
      }
      auto& bound = roles[i] == Role::kAligned ? sliced_in_ : whole_in_;
      bound[static_cast<size_t>(in)] = OpenIndex();
    }
    card_[id] = OutputCard(node, c);
  }

  /// True when one vector operand value sits in both an aligned and a whole
  /// position of `node`. Whatever pipeline the node joins, that value is
  /// materialized (a whole operand cannot be streamed), so it would bind
  /// both sliced and whole.
  bool ReadsOneValueSlicedAndWhole(const OpNode& node,
                                   const std::vector<Role>& roles) const {
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      if (roles[i] != Role::kWholeOperand ||
          scalar_[static_cast<size_t>(node.inputs[i])]) {
        continue;
      }
      for (size_t j = 0; j < node.inputs.size(); ++j) {
        if (roles[j] == Role::kAligned && node.inputs[j] == node.inputs[i]) {
          return true;
        }
      }
    }
    return false;
  }

  /// Unifies the cardinality symbols of the aligned vector operands; -1 when
  /// every aligned operand is scalar.
  int UnifyAligned(const OpNode& node, const std::vector<Role>& roles) {
    int c = -1;
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      if (i < roles.size() && roles[i] != Role::kAligned) continue;
      const int in = node.inputs[i];
      if (scalar_[static_cast<size_t>(in)]) continue;
      const int in_card = card_[static_cast<size_t>(in)];
      c = c < 0 ? uf_.Find(in_card) : uf_.Union(c, in_card);
    }
    return c;
  }

  bool CanJoinOpen(const OpNode& node, const std::vector<Role>& roles, int c) {
    if (open_nodes_.empty()) return false;
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      const int in = node.inputs[i];
      if (scalar_[static_cast<size_t>(in)]) continue;
      const bool in_open = pipe_of_[static_cast<size_t>(in)] == OpenIndex();
      if (roles[i] == Role::kWholeOperand) {
        // A whole operand must be fully materialized, which the open
        // pipeline by definition has not done yet. Nor may the pipeline
        // already slice it: morsel scratch holds one tensor per node id.
        if (in_open || sliced_in_[static_cast<size_t>(in)] == OpenIndex()) {
          return false;
        }
        continue;
      }
      if (in_open) continue;  // streamed hand-off
      // Materialized aligned operand: only sliceable by driver offsets, and
      // only if the pipeline does not already bind it whole.
      if (uf_.Find(card_[static_cast<size_t>(in)]) != uf_.Find(open_driver_) ||
          whole_in_[static_cast<size_t>(in)] == OpenIndex()) {
        return false;
      }
    }
    // Offset-corrected ops emit global row positions, so their input domain
    // must be the driver domain itself.
    if (node.type == OpType::kNonzero || node.type == OpType::kArangeLike ||
        node.type == OpType::kHeadRows) {
      if (uf_.Find(c) != uf_.Find(open_driver_)) return false;
    }
    return true;
  }

  void Flush() {
    if (open_nodes_.empty()) return;
    Pipeline p;
    p.nodes.reserve(open_nodes_.size());
    const int index = OpenIndex();
    for (int id : open_nodes_) {
      const OpNode& node = prog_.node(id);
      if (node.type == OpType::kNonzero || node.type == OpType::kArangeLike ||
          node.type == OpType::kHeadRows) {
        p.has_offset_op = true;
      }
      std::vector<Role> roles;
      RolesFor(node, &roles);
      PipelineNode pn;
      pn.id = id;
      pn.bindings.reserve(node.inputs.size());
      for (size_t i = 0; i < node.inputs.size(); ++i) {
        const int in = node.inputs[i];
        if (pipe_of_[static_cast<size_t>(in)] == index) {
          pn.bindings.push_back(OperandBinding::kStreamed);
        } else if (roles[i] == Role::kAligned &&
                   !scalar_[static_cast<size_t>(in)]) {
          TQP_DCHECK(uf_.Find(card_[static_cast<size_t>(in)]) ==
                     uf_.Find(open_driver_));
          pn.bindings.push_back(OperandBinding::kSliced);
          AddUnique(&p.sliced_sources, in);
        } else {
          pn.bindings.push_back(OperandBinding::kWhole);
          AddUnique(&p.whole_sources, in);
        }
      }
      p.nodes.push_back(std::move(pn));
    }
    for (int src : p.sliced_sources) {
      TQP_DCHECK(std::find(p.whole_sources.begin(), p.whole_sources.end(),
                           src) == p.whole_sources.end());
    }
    plan_.pipelines.push_back(std::move(p));
    PipelineStep step;
    step.pipeline = index;
    plan_.schedule.push_back(step);
    open_nodes_.clear();
    open_driver_ = -1;
  }

  static void AddUnique(std::vector<int>* v, int id) {
    if (std::find(v->begin(), v->end(), id) == v->end()) v->push_back(id);
  }

  void FinalizePipelines() {
    // A streamed node materializes iff something outside its pipeline (a
    // later step or the program's output list) reads it.
    std::vector<bool> needed(static_cast<size_t>(prog_.num_nodes()), false);
    for (const OpNode& node : prog_.nodes()) {
      for (int in : node.inputs) {
        if (pipe_of_[static_cast<size_t>(in)] >= 0 &&
            pipe_of_[static_cast<size_t>(in)] !=
                pipe_of_[static_cast<size_t>(node.id)]) {
          needed[static_cast<size_t>(in)] = true;
        }
      }
    }
    for (int out : prog_.outputs()) {
      if (pipe_of_[static_cast<size_t>(out)] >= 0) {
        needed[static_cast<size_t>(out)] = true;
      }
    }
    for (size_t pi = 0; pi < plan_.pipelines.size(); ++pi) {
      Pipeline& p = plan_.pipelines[pi];
      for (const PipelineNode& pn : p.nodes) {
        if (needed[static_cast<size_t>(pn.id)]) p.outputs.push_back(pn.id);
      }
    }
  }

  /// Turns the step list into an explicit DAG: per-step dependency edges
  /// (the producers of everything the step reads) and per-step read sets.
  /// Runs after FinalizePipelines so pipeline output lists are final.
  void BuildStepGraph() {
    const size_t n = static_cast<size_t>(prog_.num_nodes());
    plan_.producer_step.assign(n, -1);
    for (size_t si = 0; si < plan_.schedule.size(); ++si) {
      const PipelineStep& step = plan_.schedule[si];
      if (step.serial_node >= 0) {
        plan_.producer_step[static_cast<size_t>(step.serial_node)] =
            static_cast<int>(si);
      } else {
        const Pipeline& p = plan_.pipelines[static_cast<size_t>(step.pipeline)];
        for (int out : p.outputs) {
          plan_.producer_step[static_cast<size_t>(out)] = static_cast<int>(si);
        }
      }
    }
    // The schedule is emitted in topological program order, so a consumer
    // step always comes after the step that materializes its operand — deps
    // reference strictly earlier schedule indices.
    for (size_t si = 0; si < plan_.schedule.size(); ++si) {
      PipelineStep& step = plan_.schedule[si];
      if (step.serial_node >= 0) {
        for (int in : prog_.node(step.serial_node).inputs) {
          AddUnique(&step.reads, in);
        }
      } else {
        const Pipeline& p = plan_.pipelines[static_cast<size_t>(step.pipeline)];
        for (int src : p.sliced_sources) AddUnique(&step.reads, src);
        for (int src : p.whole_sources) AddUnique(&step.reads, src);
      }
      for (int r : step.reads) {
        const int producer = plan_.producer_step[static_cast<size_t>(r)];
        if (producer >= 0) step.deps.push_back(producer);
      }
      std::sort(step.deps.begin(), step.deps.end());
      step.deps.erase(std::unique(step.deps.begin(), step.deps.end()),
                      step.deps.end());
    }
  }

  const TensorProgram& prog_;
  UnionFind uf_;
  std::map<std::string, int> interned_;
  std::vector<bool> scalar_;
  std::vector<int> card_;
  std::vector<int> pipe_of_;
  std::vector<int> open_nodes_;
  /// Per node: the last pipeline index that binds it sliced / whole. The
  /// open pipeline (OpenIndex()) never binds one node both ways.
  std::vector<int> sliced_in_;
  std::vector<int> whole_in_;
  int open_driver_ = -1;
  PipelinePlan plan_;
};

}  // namespace

bool IsStreamableOp(OpType type) {
  OpNode probe;
  probe.type = type;
  std::vector<Role> roles;
  return RolesFor(probe, &roles);
}

int PipelinePlan::num_streamed_nodes() const {
  return std::accumulate(pipelines.begin(), pipelines.end(), 0,
                         [](int acc, const Pipeline& p) {
                           return acc + static_cast<int>(p.nodes.size());
                         });
}

int PipelinePlan::num_step_edges() const {
  return std::accumulate(schedule.begin(), schedule.end(), 0,
                         [](int acc, const PipelineStep& s) {
                           return acc + static_cast<int>(s.deps.size());
                         });
}

int PipelinePlan::num_root_steps() const {
  return static_cast<int>(
      std::count_if(schedule.begin(), schedule.end(),
                    [](const PipelineStep& s) { return s.deps.empty(); }));
}

std::string PipelinePlan::ToString(const TensorProgram& program) const {
  const auto step_annotations = [](std::ostringstream& out,
                                   const PipelineStep& step) {
    if (!step.deps.empty()) {
      out << "  deps={";
      for (size_t i = 0; i < step.deps.size(); ++i) {
        out << (i > 0 ? "," : "") << "s" << step.deps[i];
      }
      out << "}";
    }
  };
  std::ostringstream out;
  for (size_t si = 0; si < schedule.size(); ++si) {
    const PipelineStep& step = schedule[si];
    out << "s" << si << " ";
    if (step.serial_node >= 0) {
      const OpNode& node = program.node(step.serial_node);
      out << "serial   n" << node.id << " " << OpTypeName(node.type);
      if (step.breaker) out << " (breaker)";
      if (!node.label.empty()) out << "  [" << node.label << "]";
      step_annotations(out, step);
      out << "\n";
      continue;
    }
    const Pipeline& p = pipelines[static_cast<size_t>(step.pipeline)];
    out << "pipeline #" << step.pipeline << " (" << p.nodes.size()
        << " ops, " << p.outputs.size() << " outputs):";
    for (const PipelineNode& pn : p.nodes) {
      out << " n" << pn.id << ":" << OpTypeName(program.node(pn.id).type);
    }
    step_annotations(out, step);
    out << "\n";
  }
  return out.str();
}

PipelinePlan BuildPipelinePlan(const TensorProgram& program) {
  obs::TraceSpan span("compile", "pipeline.split");
  PipelinePlan plan = Splitter(program).Build();
  if (span.enabled()) {
    span.AddArg("pipelines", static_cast<int64_t>(plan.pipelines.size()));
    span.AddArg("steps", static_cast<int64_t>(plan.schedule.size()));
  }
  return plan;
}

}  // namespace tqp
