#include "compile/compiler.h"

#include <functional>
#include <map>
#include <string>
#include <utility>

#include "obs/trace.h"

namespace tqp {

namespace {

/// Per-node compilation state: the graph node carrying each column of the
/// current operator's output, plus its schema.
struct ColumnsState {
  std::vector<int> nodes;
  Schema schema;
};

struct TypedNode {
  int node = -1;
  DType dtype = DType::kFloat64;
};

class PlanCompiler {
 public:
  PlanCompiler(TensorProgram* program, const ml::ModelRegistry* models,
               std::vector<CompiledQuery::InputBinding>* bindings)
      : program_(program), models_(models), bindings_(bindings) {}

  Result<ColumnsState> CompileNode(const PlanNode& node) {
    switch (node.kind) {
      case PlanKind::kScan:
        return CompileScan(node);
      case PlanKind::kFilter: {
        TQP_ASSIGN_OR_RETURN(ColumnsState in, CompileNode(*node.children[0]));
        return CompileFilter(node, in);
      }
      case PlanKind::kProject: {
        TQP_ASSIGN_OR_RETURN(ColumnsState in, CompileNode(*node.children[0]));
        return CompileProject(node, in);
      }
      case PlanKind::kJoin: {
        TQP_ASSIGN_OR_RETURN(ColumnsState left, CompileNode(*node.children[0]));
        TQP_ASSIGN_OR_RETURN(ColumnsState right, CompileNode(*node.children[1]));
        return CompileJoin(node, left, right);
      }
      case PlanKind::kAggregate: {
        TQP_ASSIGN_OR_RETURN(ColumnsState in, CompileNode(*node.children[0]));
        return CompileAggregate(node, in);
      }
      case PlanKind::kSort: {
        TQP_ASSIGN_OR_RETURN(ColumnsState in, CompileNode(*node.children[0]));
        return CompileSort(node, in);
      }
      case PlanKind::kLimit: {
        TQP_ASSIGN_OR_RETURN(ColumnsState in, CompileNode(*node.children[0]));
        ColumnsState out;
        out.schema = node.output_schema;
        AttrMap attrs;
        attrs.Set("n", node.limit);
        for (int col : in.nodes) {
          out.nodes.push_back(
              program_->AddNode(OpType::kHeadRows, {col}, attrs, "limit"));
        }
        return out;
      }
    }
    return Status::Internal("unknown plan node");
  }

 private:
  // ---- Scan ---------------------------------------------------------------

  Result<ColumnsState> CompileScan(const PlanNode& node) {
    ColumnsState out;
    out.schema = node.output_schema;
    for (int i = 0; i < node.output_schema.num_fields(); ++i) {
      const int base_col = node.scan_columns.empty()
                               ? i
                               : node.scan_columns[static_cast<size_t>(i)];
      const std::string name =
          node.table_name + "." + node.output_schema.field(i).name;
      out.nodes.push_back(program_->AddInput(name));
      bindings_->push_back({node.table_name, base_col});
    }
    return out;
  }

  // ---- Expression compilation ----------------------------------------------

  static DType ArithResultDType(DType a, DType b) {
    DType dt = PromoteTypes(a, b);
    if (dt == DType::kBool || dt == DType::kUInt8) dt = DType::kInt32;
    return dt;
  }

  TypedNode CastTo(TypedNode in, DType target, const std::string& label = "") {
    if (in.dtype == target) return in;
    AttrMap attrs;
    attrs.Set("dtype", static_cast<int64_t>(target));
    return TypedNode{program_->AddNode(OpType::kCast, {in.node}, attrs, label),
                     target};
  }

  /// One kConstant node per (dtype, value bytes), so that subexpressions a
  /// bound DAG shares (EXTRACT's) compile to equal operands, which the
  /// expression-fusion CSE merges.
  Result<TypedNode> ConstantScalar(const Scalar& value, DType dtype,
                                   const std::string& label) {
    TQP_ASSIGN_OR_RETURN(Tensor t, Tensor::Full(dtype, 1, 1, value.AsDouble()));
    std::string bytes(static_cast<const char*>(t.raw_data()),
                      static_cast<size_t>(t.nbytes()));
    auto [it, inserted] =
        constants_.try_emplace({dtype, std::move(bytes)}, -1);
    if (inserted) it->second = program_->AddConstant(std::move(t), label);
    return TypedNode{it->second, dtype};
  }

  Result<TypedNode> CompileExpr(const BoundExpr& expr, const ColumnsState& in) {
    switch (expr.kind) {
      case BExprKind::kColumn: {
        const int idx = expr.column_index;
        return TypedNode{in.nodes[static_cast<size_t>(idx)],
                         PhysicalType(in.schema.field(idx).type)};
      }
      case BExprKind::kLiteral: {
        if (expr.literal.is_string()) {
          return Status::Internal(
              "string literal outside comparison context: " + expr.ToString());
        }
        return ConstantScalar(expr.literal, PhysicalType(expr.type),
                              expr.literal.ToString());
      }
      case BExprKind::kArith: {
        TQP_ASSIGN_OR_RETURN(TypedNode l, CompileExpr(*expr.children[0], in));
        TQP_ASSIGN_OR_RETURN(TypedNode r, CompileExpr(*expr.children[1], in));
        const DType want = PhysicalType(expr.type);
        // Division must happen in float when SQL typing says float.
        if (want == DType::kFloat64 &&
            ArithResultDType(l.dtype, r.dtype) != DType::kFloat64) {
          l = CastTo(l, DType::kFloat64);
        }
        AttrMap attrs;
        attrs.Set("op", static_cast<int64_t>(expr.arith_op));
        TypedNode out{program_->AddNode(OpType::kBinary, {l.node, r.node}, attrs),
                      ArithResultDType(l.dtype, r.dtype)};
        return CastTo(out, want);
      }
      case BExprKind::kCompare: {
        const BoundExpr& lhs = *expr.children[0];
        const BoundExpr& rhs = *expr.children[1];
        const bool lhs_str = lhs.type == LogicalType::kString;
        const bool rhs_str = rhs.type == LogicalType::kString;
        if (lhs_str || rhs_str) {
          // String comparisons: column vs literal uses the scalar kernel.
          if (rhs.kind == BExprKind::kLiteral) {
            TQP_ASSIGN_OR_RETURN(TypedNode l, CompileExpr(lhs, in));
            AttrMap attrs;
            attrs.Set("op", static_cast<int64_t>(expr.cmp_op));
            attrs.Set("literal", rhs.literal.string_value());
            return TypedNode{program_->AddNode(OpType::kStringCompareScalar,
                                               {l.node}, attrs, expr.ToString()),
                             DType::kBool};
          }
          if (lhs.kind == BExprKind::kLiteral) {
            TQP_ASSIGN_OR_RETURN(TypedNode r, CompileExpr(rhs, in));
            AttrMap attrs;
            attrs.Set("op", static_cast<int64_t>(MirrorCompare(expr.cmp_op)));
            attrs.Set("literal", lhs.literal.string_value());
            return TypedNode{program_->AddNode(OpType::kStringCompareScalar,
                                               {r.node}, attrs, expr.ToString()),
                             DType::kBool};
          }
          TQP_ASSIGN_OR_RETURN(TypedNode l, CompileExpr(lhs, in));
          TQP_ASSIGN_OR_RETURN(TypedNode r, CompileExpr(rhs, in));
          AttrMap attrs;
          attrs.Set("op", static_cast<int64_t>(expr.cmp_op));
          return TypedNode{program_->AddNode(OpType::kStringCompare,
                                             {l.node, r.node}, attrs),
                           DType::kBool};
        }
        TQP_ASSIGN_OR_RETURN(TypedNode l, CompileExpr(lhs, in));
        TQP_ASSIGN_OR_RETURN(TypedNode r, CompileExpr(rhs, in));
        AttrMap attrs;
        attrs.Set("op", static_cast<int64_t>(expr.cmp_op));
        return TypedNode{
            program_->AddNode(OpType::kCompare, {l.node, r.node}, attrs),
            DType::kBool};
      }
      case BExprKind::kLogical: {
        TQP_ASSIGN_OR_RETURN(TypedNode l, CompileExpr(*expr.children[0], in));
        TQP_ASSIGN_OR_RETURN(TypedNode r, CompileExpr(*expr.children[1], in));
        AttrMap attrs;
        attrs.Set("op", static_cast<int64_t>(expr.logical_op));
        return TypedNode{
            program_->AddNode(OpType::kLogical, {l.node, r.node}, attrs),
            DType::kBool};
      }
      case BExprKind::kNot: {
        TQP_ASSIGN_OR_RETURN(TypedNode c, CompileExpr(*expr.children[0], in));
        AttrMap attrs;
        attrs.Set("op", static_cast<int64_t>(UnaryOpKind::kNot));
        return TypedNode{program_->AddNode(OpType::kUnary, {c.node}, attrs),
                         DType::kBool};
      }
      case BExprKind::kCase: {
        const DType want = PhysicalType(expr.type);
        const size_t pairs =
            (expr.children.size() - (expr.case_has_else ? 1 : 0)) / 2;
        TypedNode current;
        if (expr.case_has_else) {
          TQP_ASSIGN_OR_RETURN(current, CompileExpr(*expr.children.back(), in));
        } else {
          TQP_ASSIGN_OR_RETURN(current,
                               ConstantScalar(Scalar(0.0), want, "case-default"));
        }
        current = CastTo(current, want);
        for (size_t i = pairs; i-- > 0;) {
          TQP_ASSIGN_OR_RETURN(TypedNode when,
                               CompileExpr(*expr.children[2 * i], in));
          TQP_ASSIGN_OR_RETURN(TypedNode then,
                               CompileExpr(*expr.children[2 * i + 1], in));
          then = CastTo(then, want);
          current = TypedNode{
              program_->AddNode(OpType::kWhere,
                                {when.node, then.node, current.node}, {}, "case"),
              want};
        }
        return current;
      }
      case BExprKind::kLike: {
        TQP_ASSIGN_OR_RETURN(TypedNode c, CompileExpr(*expr.children[0], in));
        AttrMap attrs;
        attrs.Set("pattern", expr.like_pattern);
        TypedNode like{program_->AddNode(OpType::kStringLike, {c.node}, attrs,
                                         "like '" + expr.like_pattern + "'"),
                       DType::kBool};
        if (!expr.negated) return like;
        AttrMap not_attrs;
        not_attrs.Set("op", static_cast<int64_t>(UnaryOpKind::kNot));
        return TypedNode{program_->AddNode(OpType::kUnary, {like.node}, not_attrs),
                         DType::kBool};
      }
      case BExprKind::kInList: {
        const BoundExpr& child = *expr.children[0];
        TQP_ASSIGN_OR_RETURN(TypedNode c, CompileExpr(child, in));
        TypedNode acc;
        for (size_t i = 0; i < expr.in_list.size(); ++i) {
          TypedNode eq;
          if (child.type == LogicalType::kString) {
            AttrMap attrs;
            attrs.Set("op", static_cast<int64_t>(CompareOpKind::kEq));
            attrs.Set("literal", expr.in_list[i].string_value());
            eq = TypedNode{program_->AddNode(OpType::kStringCompareScalar,
                                             {c.node}, attrs),
                           DType::kBool};
          } else {
            TQP_ASSIGN_OR_RETURN(
                TypedNode lit,
                ConstantScalar(expr.in_list[i], c.dtype,
                               expr.in_list[i].ToString()));
            AttrMap attrs;
            attrs.Set("op", static_cast<int64_t>(CompareOpKind::kEq));
            eq = TypedNode{program_->AddNode(OpType::kCompare,
                                             {c.node, lit.node}, attrs),
                           DType::kBool};
          }
          if (acc.node < 0) {
            acc = eq;
          } else {
            AttrMap attrs;
            attrs.Set("op", static_cast<int64_t>(LogicalOpKind::kOr));
            acc = TypedNode{
                program_->AddNode(OpType::kLogical, {acc.node, eq.node}, attrs),
                DType::kBool};
          }
        }
        if (acc.node < 0) {
          TQP_ASSIGN_OR_RETURN(acc,
                               ConstantScalar(Scalar(false), DType::kBool, "false"));
        }
        if (!expr.negated) return acc;
        AttrMap attrs;
        attrs.Set("op", static_cast<int64_t>(UnaryOpKind::kNot));
        return TypedNode{program_->AddNode(OpType::kUnary, {acc.node}, attrs),
                         DType::kBool};
      }
      case BExprKind::kSubstring: {
        TQP_ASSIGN_OR_RETURN(TypedNode c, CompileExpr(*expr.children[0], in));
        AttrMap attrs;
        attrs.Set("start", expr.substr_start);
        attrs.Set("len", expr.substr_len);
        return TypedNode{program_->AddNode(OpType::kSubstring, {c.node}, attrs),
                         DType::kUInt8};
      }
      case BExprKind::kPredict: {
        if (models_ == nullptr) {
          return Status::Invalid("PREDICT without a model registry");
        }
        TQP_ASSIGN_OR_RETURN(auto model, models_->Get(expr.model_name));
        std::vector<int> args;
        for (const BExpr& c : expr.children) {
          TQP_ASSIGN_OR_RETURN(TypedNode a, CompileExpr(*c, in));
          args.push_back(a.node);
        }
        TQP_ASSIGN_OR_RETURN(int out, model->BuildGraph(program_, args));
        return TypedNode{out, PhysicalType(expr.type)};
      }
    }
    return Status::Internal("unhandled expression kind");
  }

  static CompareOpKind MirrorCompare(CompareOpKind op) {
    switch (op) {
      case CompareOpKind::kLt:
        return CompareOpKind::kGt;
      case CompareOpKind::kLe:
        return CompareOpKind::kGe;
      case CompareOpKind::kGt:
        return CompareOpKind::kLt;
      case CompareOpKind::kGe:
        return CompareOpKind::kLe;
      default:
        return op;
    }
  }

  // ---- Filter ---------------------------------------------------------------

  Result<ColumnsState> CompileFilter(const PlanNode& node, const ColumnsState& in) {
    TQP_ASSIGN_OR_RETURN(TypedNode mask, CompileExpr(*node.predicate, in));
    ColumnsState out;
    out.schema = node.output_schema;
    for (int col : in.nodes) {
      out.nodes.push_back(program_->AddNode(
          OpType::kCompress, {col, mask.node}, {},
          "filter"));
    }
    return out;
  }

  // ---- Project ---------------------------------------------------------------

  Result<ColumnsState> CompileProject(const PlanNode& node,
                                      const ColumnsState& in) {
    ColumnsState out;
    out.schema = node.output_schema;
    for (size_t i = 0; i < node.exprs.size(); ++i) {
      TQP_ASSIGN_OR_RETURN(TypedNode e, CompileExpr(*node.exprs[i], in));
      e = CastTo(e, PhysicalType(node.exprs[i]->type),
                 node.output_schema.field(static_cast<int>(i)).name);
      out.nodes.push_back(e.node);
    }
    return out;
  }

  // ---- Join (the paper's sort + searchsorted formulation) --------------------

  // Cross join: every left row pairs with every right row, as tensor ops.
  // counts = |right| broadcast per left row, then the standard expansion;
  // right ids cycle via modulo. Uncorrelated scalar subqueries take this
  // path with |right| == 1 (a pure broadcast).
  Result<ColumnsState> CompileCrossJoin(const PlanNode& node,
                                        const ColumnsState& left,
                                        const ColumnsState& right) {
    AttrMap count_attr;
    count_attr.Set("op", static_cast<int64_t>(ReduceOpKind::kCount));
    const int nr = program_->AddNode(OpType::kReduceAll, {right.nodes[0]},
                                     count_attr, "cross: |right|");
    const int left_arange =
        program_->AddNode(OpType::kArangeLike, {left.nodes[0]}, {}, "cross");
    TQP_ASSIGN_OR_RETURN(
        TypedNode zero, ConstantScalar(Scalar(int64_t{0}), DType::kInt64, "0"));
    AttrMap mul;
    mul.Set("op", static_cast<int64_t>(BinaryOpKind::kMul));
    AttrMap add;
    add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
    AttrMap mod;
    mod.Set("op", static_cast<int64_t>(BinaryOpKind::kMod));
    const int zero_l = program_->AddNode(OpType::kBinary,
                                         {left_arange, zero.node}, mul, "cross");
    const int counts =
        program_->AddNode(OpType::kBinary, {zero_l, nr}, add, "cross: counts");
    const int left_ids = program_->AddNode(
        OpType::kRepeatInterleave, {left_arange, counts}, {}, "cross: left ids");
    const int pos = program_->AddNode(OpType::kArangeLike, {left_ids}, {}, "cross");
    const int right_ids =
        program_->AddNode(OpType::kBinary, {pos, nr}, mod, "cross: right ids");
    ColumnsState joined;
    joined.schema = left.schema;
    for (const Field& f : right.schema.fields()) joined.schema.AddField(f);
    for (int col : left.nodes) {
      joined.nodes.push_back(
          program_->AddNode(OpType::kGather, {col, left_ids}, {}, "cross"));
    }
    for (int col : right.nodes) {
      joined.nodes.push_back(
          program_->AddNode(OpType::kGather, {col, right_ids}, {}, "cross"));
    }
    if (node.residual) {
      TQP_ASSIGN_OR_RETURN(TypedNode res, CompileExpr(*node.residual, joined));
      ColumnsState out;
      out.schema = joined.schema;
      for (int col : joined.nodes) {
        out.nodes.push_back(program_->AddNode(OpType::kCompress, {col, res.node},
                                              {}, "cross: residual"));
      }
      return out;
    }
    return joined;
  }

  Result<ColumnsState> CompileJoin(const PlanNode& node, const ColumnsState& left,
                                   const ColumnsState& right) {
    const bool semi_anti = node.join_type == sql::JoinType::kSemi ||
                           node.join_type == sql::JoinType::kAnti;
    const bool left_outer = node.join_type == sql::JoinType::kLeft;
    if (node.left_keys.empty()) {
      if (semi_anti || left_outer) {
        return Status::NotImplemented(
            "keyless semi/anti/left joins are not compiled to tensors");
      }
      return CompileCrossJoin(node, left, right);
    }
    // Key handling: each key pair is cast to the common type `=` compares it
    // in. A single numeric key is sorted as is. String or multi keys mix into
    // one int64 hash, and real equality is verified afterwards on the joined
    // rows.
    const LogicalType k0l =
        left.schema.field(node.left_keys[0]).type;
    const bool use_hash =
        k0l == LogicalType::kString || node.left_keys.size() > 1;
    if (left_outer && (use_hash || node.residual)) {
      return Status::NotImplemented(
          "LEFT JOIN compiles with a single numeric key and no residual");
    }
    // Semi/anti joins with hashed keys or a residual predicate go through the
    // pair expansion below and reduce verified matches per left row.
    const bool general_semi =
        semi_anti && (use_hash || node.residual != nullptr);

    std::vector<TypedNode> left_keys;
    std::vector<TypedNode> right_keys;
    for (size_t k = 0; k < node.left_keys.size(); ++k) {
      auto [l, r] = PromotedKeyPair(left, node.left_keys[k], right,
                                    node.right_keys[k]);
      left_keys.push_back(l);
      right_keys.push_back(r);
    }
    int kl = left_keys[0].node;
    int kr = right_keys[0].node;
    if (use_hash) {
      kl = HashKeys(left_keys);
      kr = HashKeys(right_keys);
    }
    // Sort the right (build) side and locate each probe key's match range.
    AttrMap asc;
    asc.Set("ascending", true);
    const int perm_r = program_->AddNode(OpType::kArgsortRows, {kr}, asc,
                                         "join: sort build side");
    const int kr_sorted =
        program_->AddNode(OpType::kGather, {kr, perm_r}, {}, "join");
    AttrMap left_side;
    left_side.Set("right", false);
    AttrMap right_side;
    right_side.Set("right", true);
    const int lo = program_->AddNode(OpType::kSearchSorted, {kr_sorted, kl},
                                     left_side, "join: probe lower");
    const int hi = program_->AddNode(OpType::kSearchSorted, {kr_sorted, kl},
                                     right_side, "join: probe upper");
    AttrMap sub;
    sub.Set("op", static_cast<int64_t>(BinaryOpKind::kSub));
    const int counts =
        program_->AddNode(OpType::kBinary, {hi, lo}, sub, "join: match counts");

    if (semi_anti && !general_semi) {
      TQP_ASSIGN_OR_RETURN(
          TypedNode zero, ConstantScalar(Scalar(int64_t{0}), DType::kInt64, "0"));
      AttrMap cmp;
      cmp.Set("op", static_cast<int64_t>(node.join_type == sql::JoinType::kSemi
                                             ? CompareOpKind::kGt
                                             : CompareOpKind::kEq));
      const int mask = program_->AddNode(OpType::kCompare, {counts, zero.node},
                                         cmp, "semi/anti mask");
      ColumnsState out;
      out.schema = node.output_schema;
      for (int col : left.nodes) {
        out.nodes.push_back(
            program_->AddNode(OpType::kCompress, {col, mask}, {}, "semi/anti"));
      }
      return out;
    }

    ColumnsState joined;
    joined.schema = left.schema;
    for (const Field& f : right.schema.fields()) joined.schema.AddField(f);
    int left_arange = -1;
    int left_ids = -1;
    int right_ids = -1;
    if (node.unique_build && !use_hash) {
      // Each probe row matches at most once, at `lo`: the matched left rows
      // in order, each paired with its one build row, are the expansion's
      // pairs row for row.
      TQP_ASSIGN_OR_RETURN(
          TypedNode zero, ConstantScalar(Scalar(int64_t{0}), DType::kInt64, "0"));
      AttrMap gt;
      gt.Set("op", static_cast<int64_t>(CompareOpKind::kGt));
      const int matched = program_->AddNode(OpType::kCompare, {counts, zero.node},
                                            gt, "unique join: matched");
      const int lo_matched = program_->AddNode(OpType::kCompress, {lo, matched},
                                               {}, "unique join");
      right_ids = program_->AddNode(OpType::kGather, {perm_r, lo_matched}, {},
                                    "join: right ids");
      for (int col : left.nodes) {
        joined.nodes.push_back(program_->AddNode(
            OpType::kCompress, {col, matched}, {}, "unique join: left"));
      }
    } else {
      // Expand matches: left row ids and right row ids of the join result.
      left_arange = program_->AddNode(OpType::kArangeLike, {kl}, {}, "join");
      left_ids = program_->AddNode(OpType::kRepeatInterleave,
                                   {left_arange, counts}, {}, "join: left ids");
      const int incl = program_->AddNode(OpType::kCumSum, {counts}, {}, "join");
      const int excl =
          program_->AddNode(OpType::kBinary, {incl, counts}, sub, "join");
      const int excl_rep = program_->AddNode(OpType::kRepeatInterleave,
                                             {excl, counts}, {}, "join");
      const int pos =
          program_->AddNode(OpType::kArangeLike, {left_ids}, {}, "join");
      const int within =
          program_->AddNode(OpType::kBinary, {pos, excl_rep}, sub, "join");
      const int lo_rep =
          program_->AddNode(OpType::kRepeatInterleave, {lo, counts}, {}, "join");
      AttrMap add;
      add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
      const int rpos =
          program_->AddNode(OpType::kBinary, {lo_rep, within}, add, "join");
      right_ids = program_->AddNode(OpType::kGather, {perm_r, rpos}, {},
                                    "join: right ids");
      for (int col : left.nodes) {
        joined.nodes.push_back(program_->AddNode(
            OpType::kGather, {col, left_ids}, {}, "join: gather left"));
      }
    }
    for (int col : right.nodes) {
      joined.nodes.push_back(program_->AddNode(OpType::kGather, {col, right_ids},
                                               {}, "join: gather right"));
    }

    if (left_outer) {
      // LEFT OUTER = matched pairs (the expansion above; unmatched rows
      // contribute zero pairs) concatenated with the unmatched left rows,
      // whose right columns are zero sentinels (empty string for padded
      // string columns — ConcatRows pads widths). The trailing __matched
      // column is the validity mask ([8]'s NULL representation).
      TQP_ASSIGN_OR_RETURN(
          TypedNode zero, ConstantScalar(Scalar(int64_t{0}), DType::kInt64, "0"));
      AttrMap gt;
      gt.Set("op", static_cast<int64_t>(CompareOpKind::kGt));
      const int matched_l = program_->AddNode(
          OpType::kCompare, {counts, zero.node}, gt, "left join: matched");
      AttrMap not_attr;
      not_attr.Set("op", static_cast<int64_t>(UnaryOpKind::kNot));
      const int unmatched = program_->AddNode(OpType::kUnary, {matched_l},
                                              not_attr, "left join: unmatched");
      // Part A validity: all-true aligned with the matched pairs.
      AttrMap eq;
      eq.Set("op", static_cast<int64_t>(CompareOpKind::kEq));
      const int true_a = program_->AddNode(OpType::kCompare,
                                           {left_ids, left_ids}, eq,
                                           "left join: matched flag");
      // Part B: unmatched left rows with zero-filled right columns.
      const int unmatched_arange = program_->AddNode(
          OpType::kCompress, {left_arange, unmatched}, {}, "left join");
      AttrMap mul;
      mul.Set("op", static_cast<int64_t>(BinaryOpKind::kMul));
      const int zero_b = program_->AddNode(
          OpType::kBinary, {unmatched_arange, zero.node}, mul, "left join");
      AttrMap to_bool;
      to_bool.Set("dtype", static_cast<int64_t>(DType::kBool));
      const int false_b = program_->AddNode(OpType::kCast, {zero_b}, to_bool,
                                            "left join: unmatched flag");
      ColumnsState out;
      out.schema = node.output_schema;
      const int lw = static_cast<int>(left.nodes.size());
      for (int i = 0; i < lw; ++i) {
        const int part_b = program_->AddNode(
            OpType::kCompress, {left.nodes[static_cast<size_t>(i)], unmatched},
            {}, "left join: unmatched left");
        out.nodes.push_back(program_->AddNode(
            OpType::kConcatRows,
            {joined.nodes[static_cast<size_t>(i)], part_b}, {}, "left join"));
      }
      for (size_t j = 0; j < right.nodes.size(); ++j) {
        AttrMap cast_attr;
        cast_attr.Set("dtype",
                      static_cast<int64_t>(
                          PhysicalType(right.schema.field(static_cast<int>(j)).type)));
        const int zeros = program_->AddNode(OpType::kCast, {zero_b}, cast_attr,
                                            "left join: null sentinel");
        out.nodes.push_back(program_->AddNode(
            OpType::kConcatRows,
            {joined.nodes[static_cast<size_t>(lw) + j], zeros}, {},
            "left join"));
      }
      out.nodes.push_back(program_->AddNode(
          OpType::kConcatRows, {true_a, false_b}, {}, "left join: __matched"));
      return out;
    }

    // Residual mask: true key equality (when hashed) plus any non-equi parts.
    TypedNode mask;
    if (use_hash) {
      const int lw = static_cast<int>(left.nodes.size());
      for (size_t k = 0; k < node.left_keys.size(); ++k) {
        auto [l, r] = PromotedKeyPair(joined, node.left_keys[k], joined,
                                      lw + node.right_keys[k]);
        AttrMap attrs;
        attrs.Set("op", static_cast<int64_t>(CompareOpKind::kEq));
        const OpType compare = left.schema.field(node.left_keys[k]).type ==
                                       LogicalType::kString
                                   ? OpType::kStringCompare
                                   : OpType::kCompare;
        const TypedNode eq{program_->AddNode(compare, {l.node, r.node}, attrs,
                                             "join: verify keys"),
                           DType::kBool};
        mask = AndMasks(mask, eq);
      }
    }
    if (node.residual) {
      TQP_ASSIGN_OR_RETURN(TypedNode res, CompileExpr(*node.residual, joined));
      mask = AndMasks(mask, res);
    }
    if (general_semi) {
      // Count verified matches per left row (segment ids = left row ids,
      // which the expansion emits sorted), then keep rows with any match
      // (semi) or none (anti).
      if (mask.node < 0) {
        return Status::Internal("semi/anti expansion without a pair mask");
      }
      AttrMap to_i64;
      to_i64.Set("dtype", static_cast<int64_t>(DType::kInt64));
      const int pair_int = program_->AddNode(OpType::kCast, {mask.node}, to_i64,
                                             "semi/anti: verified pairs");
      AttrMap count_attr;
      count_attr.Set("op", static_cast<int64_t>(ReduceOpKind::kCount));
      const int nseg = program_->AddNode(OpType::kReduceAll, {kl}, count_attr,
                                         "semi/anti: |left|");
      AttrMap sum_attr;
      sum_attr.Set("op", static_cast<int64_t>(ReduceOpKind::kSum));
      const int cnt = program_->AddNode(OpType::kSegmentedReduce,
                                        {pair_int, left_ids, nseg}, sum_attr,
                                        "semi/anti: matches per left row");
      TQP_ASSIGN_OR_RETURN(
          TypedNode zero, ConstantScalar(Scalar(0.0), DType::kFloat64, "0"));
      AttrMap cmp;
      cmp.Set("op", static_cast<int64_t>(node.join_type == sql::JoinType::kSemi
                                             ? CompareOpKind::kGt
                                             : CompareOpKind::kEq));
      const int keep = program_->AddNode(OpType::kCompare, {cnt, zero.node}, cmp,
                                         "semi/anti mask");
      ColumnsState out;
      out.schema = node.output_schema;
      for (int col : left.nodes) {
        out.nodes.push_back(
            program_->AddNode(OpType::kCompress, {col, keep}, {}, "semi/anti"));
      }
      return out;
    }
    if (mask.node >= 0) {
      ColumnsState out;
      out.schema = joined.schema;
      for (int col : joined.nodes) {
        out.nodes.push_back(program_->AddNode(OpType::kCompress, {col, mask.node},
                                              {}, "join: residual filter"));
      }
      return out;
    }
    return joined;
  }

  TypedNode AndMasks(TypedNode acc, TypedNode m) {
    if (acc.node < 0) return m;
    AttrMap attrs;
    attrs.Set("op", static_cast<int64_t>(LogicalOpKind::kAnd));
    return TypedNode{
        program_->AddNode(OpType::kLogical, {acc.node, m.node}, attrs),
        DType::kBool};
  }

  /// Column `lcol` of `lhs` and column `rcol` of `rhs`, cast to the common
  /// type `=` compares them in.
  std::pair<TypedNode, TypedNode> PromotedKeyPair(const ColumnsState& lhs,
                                                  int lcol,
                                                  const ColumnsState& rhs,
                                                  int rcol) {
    const TypedNode l{lhs.nodes[static_cast<size_t>(lcol)],
                      PhysicalType(lhs.schema.field(lcol).type)};
    const TypedNode r{rhs.nodes[static_cast<size_t>(rcol)],
                      PhysicalType(rhs.schema.field(rcol).type)};
    const DType common = PromoteTypes(l.dtype, r.dtype);
    return {CastTo(l, common), CastTo(r, common)};
  }

  /// One int64 hash per row over promoted key columns (kernels::HashRows
  /// hashes -0.0 as +0.0, so keys `=` calls equal hash alike).
  int HashKeys(const std::vector<TypedNode>& keys) {
    int h = program_->AddNode(OpType::kHashRows, {keys[0].node}, {},
                              "join: hash keys");
    for (size_t k = 1; k < keys.size(); ++k) {
      h = program_->AddNode(OpType::kHashCombine, {h, keys[k].node}, {},
                            "join: hash keys");
    }
    return h;
  }

  // ---- Aggregate (group ids + segmented reduction) ---------------------------
  //
  // The paper lowers GROUP BY to a multi-key sort and segmented reductions
  // over the permuted inputs. Here one kGroupIds breaker (torch.unique with
  // return_inverse) numbers every row's group in sorted key order: by rank
  // over a small packed key domain, else through the composed stable argsort.
  // The keys scatter to one row per group (index_put_), and each aggregate
  // reduces its argument where it is, with no permutation.

  Result<ColumnsState> CompileAggregate(const PlanNode& node,
                                        const ColumnsState& in) {
    ColumnsState out;
    out.schema = node.output_schema;
    if (node.group_exprs.empty()) {
      // Global aggregation: one ReduceAll per aggregate.
      for (const AggSpec& agg : node.aggs) {
        int arg = -1;
        if (agg.count_star || !agg.arg) {
          arg = in.nodes[0];
        } else {
          TQP_ASSIGN_OR_RETURN(TypedNode a, CompileExpr(*agg.arg, in));
          arg = a.node;
        }
        AttrMap attrs;
        attrs.Set("op", static_cast<int64_t>(agg.op));
        TypedNode r{program_->AddNode(OpType::kReduceAll, {arg}, attrs,
                                      agg.ToString()),
                    PhysicalType(agg.result_type())};
        // ReduceAll min/max keep input dtype; coerce to the declared type.
        r = CastTo(r, PhysicalType(agg.result_type()));
        out.nodes.push_back(r.node);
      }
      return out;
    }

    // 1. Group ids in row order and the group count. kGroupIds ranks small
    // packed key domains without sorting, and otherwise runs the composed
    // stable argsort; either way groups are numbered in sorted key order.
    std::vector<int> keys;
    for (const BExpr& g : node.group_exprs) {
      TQP_ASSIGN_OR_RETURN(TypedNode k, CompileExpr(*g, in));
      keys.push_back(k.node);
    }
    const int ids =
        program_->AddNode(OpType::kGroupIds, keys, {}, "group-by: ids");
    const int ngroups = program_->AddNode(OpType::kGroupCount, {ids}, {},
                                          "group-by: group count");
    // 2. Group key output columns. Every row of a group has byte-equal keys,
    // so the last write per group is exact.
    for (int k : keys) {
      out.nodes.push_back(program_->AddNode(OpType::kScatter, {k, ids, ngroups},
                                            {}, "group-by: group keys"));
    }
    // 3. Aggregates reduce their arguments unpermuted. A stable sort keeps
    // each group's rows in ascending row order, so reducing in row order by
    // row-order ids gives the sorted formulation's bits. Every argument
    // compiles before the first reduction, so all of them stream through one
    // pipeline. A count never reads its values, so every COUNT (AVG's
    // included) shares one count.
    std::vector<int> args;
    for (const AggSpec& agg : node.aggs) {
      int values = ids;  // any column with the right length
      if (agg.op != ReduceOpKind::kCount && agg.arg) {
        TQP_ASSIGN_OR_RETURN(TypedNode a, CompileExpr(*agg.arg, in));
        values = a.node;
      }
      args.push_back(values);
    }
    int count = -1;
    for (size_t i = 0; i < node.aggs.size(); ++i) {
      const AggSpec& agg = node.aggs[i];
      if (agg.op == ReduceOpKind::kCount) {
        if (count < 0) {
          AttrMap attrs;
          attrs.Set("op", static_cast<int64_t>(ReduceOpKind::kCount));
          count = program_->AddNode(OpType::kSegmentedReduce,
                                    {ids, ids, ngroups}, attrs,
                                    "group-by: count");
        }
        out.nodes.push_back(count);
        continue;
      }
      const int values = args[i];
      AttrMap attrs;
      attrs.Set("op", static_cast<int64_t>(agg.op));
      TypedNode r{program_->AddNode(OpType::kSegmentedReduce,
                                    {values, ids, ngroups}, attrs,
                                    agg.ToString()),
                  PhysicalType(agg.result_type())};
      r = CastTo(r, PhysicalType(agg.result_type()));
      out.nodes.push_back(r.node);
    }
    return out;
  }

  // ---- Sort (ORDER BY) -------------------------------------------------------

  Result<ColumnsState> CompileSort(const PlanNode& node, const ColumnsState& in) {
    std::vector<TypedNode> keys;
    std::vector<bool> asc_flags;
    for (const SortKey& k : node.sort_keys) {
      TQP_ASSIGN_OR_RETURN(TypedNode kn, CompileExpr(*k.expr, in));
      keys.push_back(kn);
      asc_flags.push_back(k.ascending);
    }
    AttrMap last_attrs;
    last_attrs.Set("ascending", asc_flags.back());
    int perm = program_->AddNode(OpType::kArgsortRows, {keys.back().node},
                                 last_attrs, "order-by");
    for (size_t i = keys.size() - 1; i-- > 0;) {
      const int gathered =
          program_->AddNode(OpType::kGather, {keys[i].node, perm}, {}, "order-by");
      AttrMap attrs;
      attrs.Set("ascending", asc_flags[i]);
      const int p2 =
          program_->AddNode(OpType::kArgsortRows, {gathered}, attrs, "order-by");
      perm = program_->AddNode(OpType::kGather, {perm, p2}, {}, "order-by");
    }
    ColumnsState out;
    out.schema = node.output_schema;
    for (int col : in.nodes) {
      out.nodes.push_back(
          program_->AddNode(OpType::kGather, {col, perm}, {}, "order-by"));
    }
    return out;
  }

  TensorProgram* program_;
  const ml::ModelRegistry* models_;
  std::vector<CompiledQuery::InputBinding>* bindings_;
  std::map<std::pair<DType, std::string>, int> constants_;  // ConstantScalar
};

}  // namespace

Result<Table> CompiledQuery::Run(const Catalog& catalog) const {
  TQP_ASSIGN_OR_RETURN(std::vector<Tensor> inputs, CollectInputs(catalog));
  return RunWithInputs(inputs);
}

Result<std::vector<Tensor>> CompiledQuery::CollectInputs(
    const Catalog& catalog) const {
  for (const InputBinding& key : primary_keys_) {
    if (catalog.PrimaryKey(key.table) != key.column) {
      return Status::Invalid("the plan joins on the primary key of '" + key.table +
                             "', which is no longer declared; plan the query again");
    }
  }
  std::vector<Tensor> inputs;
  inputs.reserve(bindings_.size());
  for (const InputBinding& b : bindings_) {
    TQP_ASSIGN_OR_RETURN(Table t, catalog.GetTable(b.table));
    if (b.column < 0 || b.column >= t.num_columns()) {
      return Status::Internal("input binding out of range for " + b.table);
    }
    inputs.push_back(t.column(b.column).tensor());
  }
  return inputs;
}

Result<Table> CompiledQuery::RunWithInputs(
    const std::vector<Tensor>& inputs) const {
  TQP_ASSIGN_OR_RETURN(std::vector<Tensor> outputs, executor_->Run(inputs));
  if (outputs.size() != static_cast<size_t>(output_schema_.num_fields())) {
    return Status::Internal("executor output arity mismatch");
  }
  std::vector<Column> columns;
  for (size_t i = 0; i < outputs.size(); ++i) {
    columns.emplace_back(output_schema_.field(static_cast<int>(i)).type,
                         outputs[i]);
  }
  return Table::Make(output_schema_, std::move(columns));
}

Result<CompiledQuery> QueryCompiler::Compile(const PlanPtr& physical_plan,
                                             const CompileOptions& options) const {
  CompiledQuery out;
  auto program = std::make_shared<TensorProgram>();
  PlanCompiler compiler(program.get(), models_, &out.bindings_);
  TQP_ASSIGN_OR_RETURN(ColumnsState result, compiler.CompileNode(*physical_plan));
  for (int node : result.nodes) program->MarkOutput(node);
  // Lowering emits every column of every operator; many never reach an
  // output (a predicate-only column through a filter, the right-id chain of
  // a join side that contributes only its key).
  program->DropDeadNodes();
  TQP_RETURN_NOT_OK(program->Validate());
  out.output_schema_ = physical_plan->output_schema;
  out.program_ = program;
  TQP_ASSIGN_OR_RETURN(out.executor_,
                       MakeExecutor(options.target, program, options));
  return out;
}

Result<CompiledQuery> QueryCompiler::CompileSql(
    const std::string& sql, const Catalog& catalog, const CompileOptions& options,
    const PhysicalOptions& physical) const {
  auto plan_or = [&] {
    obs::TraceSpan span("compile", "plan.frontend");
    return PlanQuery(sql, catalog, physical, models_);
  }();
  TQP_ASSIGN_OR_RETURN(PlanPtr plan, std::move(plan_or));
  obs::TraceSpan span("compile", "compile.lower");
  TQP_ASSIGN_OR_RETURN(CompiledQuery out, Compile(plan, options));
  // A unique-build join holds only while the keys the planner saw do.
  bool unique_build = false;
  std::vector<CompiledQuery::InputBinding> keys;
  const std::function<void(const PlanNode&)> visit = [&](const PlanNode& node) {
    unique_build |= node.unique_build;
    const int key = node.kind == PlanKind::kScan ? catalog.PrimaryKey(node.table_name) : -1;
    if (key >= 0) keys.push_back({node.table_name, key});
    for (const PlanPtr& c : node.children) visit(*c);
  };
  visit(*plan);
  if (unique_build) out.primary_keys_ = std::move(keys);
  return out;
}

}  // namespace tqp
