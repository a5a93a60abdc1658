#include "plan/binder.h"

#include <algorithm>
#include <set>

#include "common/string_util.h"
#include "relational/date.h"

namespace tqp {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::JoinType;
using sql::SelectStatement;

bool IsComparisonOp(const std::string& op) {
  return op == "=" || op == "<>" || op == "<" || op == "<=" || op == ">" ||
         op == ">=";
}

CompareOpKind CompareOpFromString(const std::string& op) {
  if (op == "=") return CompareOpKind::kEq;
  if (op == "<>") return CompareOpKind::kNe;
  if (op == "<") return CompareOpKind::kLt;
  if (op == "<=") return CompareOpKind::kLe;
  if (op == ">") return CompareOpKind::kGt;
  return CompareOpKind::kGe;
}

// Collects the top-level AND conjuncts of an AST predicate.
void SplitAstConjuncts(const Expr* e, std::vector<const Expr*>* out) {
  if (e == nullptr) return;
  if (e->kind == ExprKind::kBinary && e->op == "AND") {
    SplitAstConjuncts(e->children[0].get(), out);
    SplitAstConjuncts(e->children[1].get(), out);
    return;
  }
  out->push_back(e);
}

// Schema of a join output: left ++ right for inner/cross, left only for
// semi/anti, and left ++ right ++ __matched for LEFT OUTER (the validity
// column standing in for NULL flags, as in [8]'s validity tensors).
Schema JoinOutputSchema(const Schema& left, const Schema& right, JoinType type) {
  if (type == JoinType::kSemi || type == JoinType::kAnti) return left;
  Schema out = left;
  for (const Field& f : right.fields()) out.AddField(f);
  if (type == JoinType::kLeft) {
    out.AddField(Field{"__matched", LogicalType::kBool});
  }
  return out;
}

// ---- EXTRACT(unit FROM date) synthesis --------------------------------------
//
// Dates are stored as days since the UNIX epoch, so EXTRACT lowers into pure
// integer arithmetic (Howard Hinnant's civil-from-days algorithm). Every
// engine — row interpreter, columnar kernels, and the tensor compiler — then
// evaluates EXTRACT as a chain of elementwise tensor ops with no new kernels.
// Valid for all dates >= 0001-01-01, where truncating division equals floor.

BExpr I64Lit(int64_t v) { return MakeLiteral(Scalar(v), LogicalType::kInt64); }

BExpr IOp(BinaryOpKind op, BExpr a, BExpr b) {
  return MakeArith(op, std::move(a), std::move(b), LogicalType::kInt64);
}

// CASE WHEN `when` THEN `then` ELSE `els` END (integer result).
BExpr MakeCase3(BExpr when, BExpr then, BExpr els) {
  auto out = std::make_shared<BoundExpr>();
  out->kind = BExprKind::kCase;
  out->type = LogicalType::kInt64;
  out->case_has_else = true;
  out->children = {std::move(when), std::move(then), std::move(els)};
  return out;
}

Result<BExpr> BuildExtract(const std::string& unit, BExpr days) {
  using K = BinaryOpKind;
  const BExpr z = IOp(K::kAdd, days, I64Lit(719468));
  const BExpr era = IOp(K::kDiv, z, I64Lit(146097));
  const BExpr doe = IOp(K::kSub, z, IOp(K::kMul, era, I64Lit(146097)));
  // yoe = (doe - doe/1460 + doe/36524 - doe/146096) / 365
  const BExpr yoe = IOp(
      K::kDiv,
      IOp(K::kSub,
          IOp(K::kAdd, IOp(K::kSub, doe, IOp(K::kDiv, doe, I64Lit(1460))),
              IOp(K::kDiv, doe, I64Lit(36524))),
          IOp(K::kDiv, doe, I64Lit(146096))),
      I64Lit(365));
  const BExpr y = IOp(K::kAdd, yoe, IOp(K::kMul, era, I64Lit(400)));
  // doy = doe - (365*yoe + yoe/4 - yoe/100)
  const BExpr doy = IOp(
      K::kSub, doe,
      IOp(K::kSub,
          IOp(K::kAdd, IOp(K::kMul, I64Lit(365), yoe),
              IOp(K::kDiv, yoe, I64Lit(4))),
          IOp(K::kDiv, yoe, I64Lit(100))));
  const BExpr mp = IOp(K::kDiv, IOp(K::kAdd, IOp(K::kMul, I64Lit(5), doy),
                                    I64Lit(2)),
                       I64Lit(153));
  // m = mp < 10 ? mp + 3 : mp - 9
  const BExpr m = MakeCase3(MakeCompare(CompareOpKind::kLt, mp, I64Lit(10)),
                            IOp(K::kAdd, mp, I64Lit(3)),
                            IOp(K::kSub, mp, I64Lit(9)));
  if (unit == "extract_month") return m;
  if (unit == "extract_year") {
    // y + (m <= 2)
    return MakeCase3(MakeCompare(CompareOpKind::kLe, m, I64Lit(2)),
                     IOp(K::kAdd, y, I64Lit(1)), y);
  }
  if (unit == "extract_day") {
    // doy - (153*mp + 2)/5 + 1
    return IOp(K::kAdd,
               IOp(K::kSub, doy,
                   IOp(K::kDiv,
                       IOp(K::kAdd, IOp(K::kMul, I64Lit(153), mp), I64Lit(2)),
                       I64Lit(5))),
               I64Lit(1));
  }
  return Status::Internal("unknown extract unit '" + unit + "'");
}

// Replaces HAVING-path scalar-subquery placeholder refs (-2 - j) with real
// column indexes once the aggregate output width is known.
void FixupScalarPlaceholders(BoundExpr* expr, int base) {
  if (expr->kind == BExprKind::kColumn && expr->column_index <= -2) {
    expr->column_index = base + (-2 - expr->column_index);
    return;
  }
  for (BExpr& c : expr->children) FixupScalarPlaceholders(c.get(), base);
}

PlanPtr MakeJoin(PlanPtr left, PlanPtr right, JoinType type,
                 std::vector<int> left_keys, std::vector<int> right_keys,
                 BExpr residual) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kJoin;
  node->join_type = type;
  node->output_schema =
      JoinOutputSchema(left->output_schema, right->output_schema, type);
  node->left_keys = std::move(left_keys);
  node->right_keys = std::move(right_keys);
  node->residual = std::move(residual);
  node->children = {std::move(left), std::move(right)};
  return node;
}

// True when every column index read by `e` lies in [0, width).
bool CoveredBy(const BoundExpr& e, int width) {
  std::vector<bool> used(static_cast<size_t>(width) + 4096, false);
  CollectColumns(e, &used);
  for (size_t i = static_cast<size_t>(width); i < used.size(); ++i) {
    if (used[i]) return false;
  }
  return true;
}

// Lowest/highest referenced column index, or {-1,-1} for constants.
void ColumnRange(const BoundExpr& e, int total_width, int* lo, int* hi) {
  std::vector<bool> used(static_cast<size_t>(total_width), false);
  CollectColumns(e, &used);
  *lo = -1;
  *hi = -1;
  for (int i = 0; i < total_width; ++i) {
    if (used[static_cast<size_t>(i)]) {
      if (*lo < 0) *lo = i;
      *hi = i;
    }
  }
}

// Collects the disjuncts of a bound predicate, flattening nested ORs.
void SplitDisjuncts(const BExpr& expr, std::vector<BExpr>* out) {
  if (expr->kind == BExprKind::kLogical &&
      expr->logical_op == LogicalOpKind::kOr) {
    SplitDisjuncts(expr->children[0], out);
    SplitDisjuncts(expr->children[1], out);
    return;
  }
  out->push_back(expr);
}

// Left-deep `parts[0] op parts[1] op ...` (parts is non-empty).
BExpr FoldLogical(LogicalOpKind op, const std::vector<BExpr>& parts) {
  BExpr out = parts[0];
  for (size_t i = 1; i < parts.size(); ++i) {
    out = MakeLogical(op, out, parts[i]);
  }
  return out;
}

// Structural equality. Stricter than comparing ToString, which prints an
// int and a float literal alike and floats to six significant digits.
bool SameExpr(const BoundExpr& a, const BoundExpr& b) {
  if (a.kind != b.kind || a.type != b.type ||
      a.column_index != b.column_index || !(a.literal == b.literal) ||
      a.arith_op != b.arith_op ||
      a.cmp_op != b.cmp_op || a.logical_op != b.logical_op ||
      a.like_pattern != b.like_pattern || a.negated != b.negated ||
      a.in_list != b.in_list || a.case_has_else != b.case_has_else ||
      a.substr_start != b.substr_start || a.substr_len != b.substr_len ||
      a.model_name != b.model_name || a.children.size() != b.children.size()) {
    return false;
  }
  for (size_t i = 0; i < a.children.size(); ++i) {
    if (!SameExpr(*a.children[i], *b.children[i])) return false;
  }
  return true;
}

bool ContainsExpr(const std::vector<BExpr>& list, const BoundExpr& e) {
  return std::any_of(list.begin(), list.end(),
                     [&](const BExpr& x) { return SameExpr(*x, e); });
}

bool SameAgg(const AggSpec& a, const AggSpec& b) {
  if (a.op != b.op || a.count_star != b.count_star) return false;
  if (a.arg == nullptr || b.arg == nullptr) return a.arg == b.arg;
  return SameExpr(*a.arg, *b.arg);
}

LogicalType PromoteNumeric(LogicalType a, LogicalType b) {
  if (a == LogicalType::kFloat64 || b == LogicalType::kFloat64) {
    return LogicalType::kFloat64;
  }
  if (a == LogicalType::kDate && b == LogicalType::kDate) return LogicalType::kDate;
  return LogicalType::kInt64;
}

}  // namespace

int Binder::Scope::TotalWidth() const {
  int w = 0;
  for (const Relation& r : relations) w += r.plan->output_schema.num_fields();
  return w;
}

int Binder::Scope::RelationOffset(int rel_index) const {
  int w = 0;
  for (int i = 0; i < rel_index; ++i) {
    w += relations[static_cast<size_t>(i)].plan->output_schema.num_fields();
  }
  return w;
}

Result<Binder::ResolvedColumn> Binder::ResolveColumn(
    const Scope& scope, const std::string& qualifier,
    const std::string& name) const {
  ResolvedColumn out;
  int offset = 0;
  int matches = 0;
  for (size_t r = 0; r < scope.relations.size(); ++r) {
    const Relation& rel = scope.relations[r];
    const Schema& schema = rel.plan->output_schema;
    if (qualifier.empty() || qualifier == rel.alias) {
      const int idx = schema.FieldIndex(name);
      if (idx >= 0) {
        ++matches;
        out.relation = static_cast<int>(r);
        out.global_index = offset + idx;
        out.type = schema.field(idx).type;
      }
    }
    offset += schema.num_fields();
  }
  if (matches > 1) {
    return Status::BindError("ambiguous column '" + name + "'");
  }
  if (matches == 1) return out;
  if (scope.outer != nullptr) {
    TQP_ASSIGN_OR_RETURN(ResolvedColumn o, ResolveColumn(*scope.outer, qualifier, name));
    o.from_outer = true;
    o.outer_global_index = o.global_index;
    return o;
  }
  return Status::BindError("unknown column '" +
                           (qualifier.empty() ? name : qualifier + "." + name) + "'");
}

bool Binder::IsAggregateFunction(const std::string& name) {
  return name == "sum" || name == "avg" || name == "count" || name == "min" ||
         name == "max";
}

bool Binder::ContainsAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kFunction && IsAggregateFunction(expr.name)) {
    return true;
  }
  for (const sql::ExprPtr& c : expr.children) {
    if (c && ContainsAggregate(*c)) return true;
  }
  return expr.else_expr && ContainsAggregate(*expr.else_expr);
}

bool Binder::ContainsDistinctAggregate(const Expr& expr) {
  if (expr.kind == ExprKind::kFunction && IsAggregateFunction(expr.name) &&
      expr.distinct) {
    return true;
  }
  for (const sql::ExprPtr& c : expr.children) {
    if (c && ContainsDistinctAggregate(*c)) return true;
  }
  return expr.else_expr && ContainsDistinctAggregate(*expr.else_expr);
}

Result<std::unique_ptr<SelectStatement>> Binder::RewriteDistinctAggregates(
    const SelectStatement& stmt) {
  // Supported shape (TPC-H Q16): grouping columns plus COUNT(DISTINCT x)
  // aggregates over one shared argument, all group keys plain columns.
  const Expr* darg = nullptr;
  for (const sql::SelectItem& item : stmt.items) {
    const Expr& e = *item.expr;
    if (e.kind == ExprKind::kColumnRef) continue;
    if (e.kind == ExprKind::kFunction && e.name == "count" && e.distinct &&
        e.children.size() == 1) {
      if (darg != nullptr && darg->ToString() != e.children[0]->ToString()) {
        return Status::NotImplemented(
            "multiple COUNT(DISTINCT) arguments in one query");
      }
      darg = e.children[0].get();
      continue;
    }
    return Status::NotImplemented(
        "DISTINCT aggregates combine only with plain grouping columns");
  }
  if (darg == nullptr) {
    return Status::NotImplemented("only COUNT(DISTINCT ...) is supported");
  }
  for (const sql::ExprPtr& g : stmt.group_by) {
    if (g->kind != ExprKind::kColumnRef) {
      return Status::NotImplemented(
          "COUNT(DISTINCT) requires plain-column GROUP BY keys");
    }
  }
  // Inner statement: GROUP BY (keys..., x) deduplicates the argument.
  auto inner = std::make_unique<SelectStatement>();
  for (const sql::ExprPtr& g : stmt.group_by) {
    sql::SelectItem item;
    item.expr = sql::CloneExpr(*g);
    item.alias = g->name;
    inner->items.push_back(std::move(item));
    inner->group_by.push_back(sql::CloneExpr(*g));
  }
  {
    sql::SelectItem item;
    item.expr = sql::CloneExpr(*darg);
    item.alias = "__darg";
    inner->items.push_back(std::move(item));
    inner->group_by.push_back(sql::CloneExpr(*darg));
  }
  for (const sql::TableRef& ref : stmt.from) {
    sql::TableRef copy;
    copy.table_name = ref.table_name;
    if (ref.subquery) copy.subquery = sql::CloneSelect(*ref.subquery);
    copy.alias = ref.alias;
    copy.join_type = ref.join_type;
    if (ref.join_condition) copy.join_condition = sql::CloneExpr(*ref.join_condition);
    inner->from.push_back(std::move(copy));
  }
  if (stmt.where) inner->where = sql::CloneExpr(*stmt.where);
  // Outer statement: COUNT(*) per original key over the deduplicated rows.
  auto outer = std::make_unique<SelectStatement>();
  sql::TableRef derived;
  derived.subquery = std::move(inner);
  derived.alias = "__distinct";
  outer->from.push_back(std::move(derived));
  for (const sql::SelectItem& item : stmt.items) {
    const Expr& e = *item.expr;
    sql::SelectItem out_item;
    if (e.kind == ExprKind::kColumnRef) {
      auto colref = std::make_unique<Expr>();
      colref->kind = ExprKind::kColumnRef;
      colref->name = e.name;
      out_item.expr = std::move(colref);
      out_item.alias = item.alias;
    } else {
      auto count = std::make_unique<Expr>();
      count->kind = ExprKind::kFunction;
      count->name = "count";
      auto star = std::make_unique<Expr>();
      star->kind = ExprKind::kStar;
      count->children.push_back(std::move(star));
      out_item.expr = std::move(count);
      out_item.alias = item.alias;
    }
    outer->items.push_back(std::move(out_item));
  }
  for (const sql::ExprPtr& g : stmt.group_by) {
    auto colref = std::make_unique<Expr>();
    colref->kind = ExprKind::kColumnRef;
    colref->name = g->name;
    outer->group_by.push_back(std::move(colref));
  }
  for (const sql::OrderItem& o : stmt.order_by) {
    outer->order_by.push_back(sql::OrderItem{sql::CloneExpr(*o.expr), o.ascending});
  }
  outer->limit = stmt.limit;
  return outer;
}

Result<BExpr> Binder::BindExpr(const Expr& expr, const Scope& scope) {
  switch (expr.kind) {
    case ExprKind::kColumnRef: {
      TQP_ASSIGN_OR_RETURN(ResolvedColumn col,
                           ResolveColumn(scope, expr.qualifier, expr.name));
      if (col.from_outer) {
        return Status::BindError(
            "correlated reference '" + expr.name +
            "' is only supported as an equality in EXISTS subqueries");
      }
      if (!allow_nullable_refs_) {
        TQP_RETURN_NOT_OK(CheckNotNullable(col.global_index, expr.name));
      }
      return MakeColumnRef(col.global_index, col.type);
    }
    case ExprKind::kLiteral: {
      if (expr.literal_is_date) {
        TQP_ASSIGN_OR_RETURN(int64_t days, ParseDate(expr.literal.string_value()));
        return MakeLiteral(Scalar(days), LogicalType::kDate);
      }
      if (expr.literal.is_string()) {
        return MakeLiteral(expr.literal, LogicalType::kString);
      }
      if (expr.literal.is_bool()) return MakeLiteral(expr.literal, LogicalType::kBool);
      if (expr.literal.is_float()) {
        return MakeLiteral(expr.literal, LogicalType::kFloat64);
      }
      return MakeLiteral(expr.literal, LogicalType::kInt64);
    }
    case ExprKind::kBinary: {
      if (expr.op == "AND" || expr.op == "OR") {
        TQP_ASSIGN_OR_RETURN(BExpr lhs, BindExpr(*expr.children[0], scope));
        TQP_ASSIGN_OR_RETURN(BExpr rhs, BindExpr(*expr.children[1], scope));
        if (lhs->type != LogicalType::kBool || rhs->type != LogicalType::kBool) {
          return Status::TypeError(expr.op + " requires boolean operands");
        }
        return MakeLogical(
            expr.op == "AND" ? LogicalOpKind::kAnd : LogicalOpKind::kOr,
            std::move(lhs), std::move(rhs));
      }
      if (IsComparisonOp(expr.op)) {
        TQP_ASSIGN_OR_RETURN(BExpr lhs, BindExpr(*expr.children[0], scope));
        TQP_ASSIGN_OR_RETURN(BExpr rhs, BindExpr(*expr.children[1], scope));
        // Coerce string literals against dates.
        auto coerce_date = [](BExpr* lit) -> Status {
          if ((*lit)->kind == BExprKind::kLiteral && (*lit)->literal.is_string()) {
            TQP_ASSIGN_OR_RETURN(int64_t days,
                                 ParseDate((*lit)->literal.string_value()));
            *lit = MakeLiteral(Scalar(days), LogicalType::kDate);
          }
          return Status::OK();
        };
        if (lhs->type == LogicalType::kDate && rhs->type == LogicalType::kString) {
          TQP_RETURN_NOT_OK(coerce_date(&rhs));
        }
        if (rhs->type == LogicalType::kDate && lhs->type == LogicalType::kString) {
          TQP_RETURN_NOT_OK(coerce_date(&lhs));
        }
        const bool ls = lhs->type == LogicalType::kString;
        const bool rs = rhs->type == LogicalType::kString;
        if (ls != rs) {
          return Status::TypeError("cannot compare " +
                                   std::string(LogicalTypeName(lhs->type)) + " with " +
                                   std::string(LogicalTypeName(rhs->type)));
        }
        return MakeCompare(CompareOpFromString(expr.op), std::move(lhs),
                           std::move(rhs));
      }
      if (expr.op == "+" || expr.op == "-" || expr.op == "*" || expr.op == "/" ||
          expr.op == "%") {
        // DATE +/- INTERVAL folds at bind time (TPC-H only uses constants).
        const Expr* interval = nullptr;
        const Expr* other = nullptr;
        for (int side = 0; side < 2; ++side) {
          const Expr* c = expr.children[static_cast<size_t>(side)].get();
          if (c->kind == ExprKind::kFunction && c->name == "__interval") {
            interval = c;
            other = expr.children[static_cast<size_t>(1 - side)].get();
          }
        }
        if (interval != nullptr) {
          if (expr.op != "+" && expr.op != "-") {
            return Status::TypeError("INTERVAL only supports + and -");
          }
          TQP_ASSIGN_OR_RETURN(BExpr date_side, BindExpr(*other, scope));
          if (date_side->kind != BExprKind::kLiteral ||
              date_side->type != LogicalType::kDate) {
            return Status::NotImplemented(
                "INTERVAL arithmetic requires a constant DATE operand");
          }
          int64_t count = interval->children[0]->literal.AsInt64();
          if (expr.op == "-") count = -count;
          const int64_t days = AddInterval(date_side->literal.int_value(), count,
                                           interval->op);
          return MakeLiteral(Scalar(days), LogicalType::kDate);
        }
        TQP_ASSIGN_OR_RETURN(BExpr lhs, BindExpr(*expr.children[0], scope));
        TQP_ASSIGN_OR_RETURN(BExpr rhs, BindExpr(*expr.children[1], scope));
        if (!IsNumericType(lhs->type) || !IsNumericType(rhs->type)) {
          return Status::TypeError("arithmetic requires numeric operands");
        }
        BinaryOpKind op = BinaryOpKind::kAdd;
        if (expr.op == "-") op = BinaryOpKind::kSub;
        if (expr.op == "*") op = BinaryOpKind::kMul;
        if (expr.op == "/") op = BinaryOpKind::kDiv;
        if (expr.op == "%") op = BinaryOpKind::kMod;
        LogicalType out_type;
        if (expr.op == "/") {
          out_type = LogicalType::kFloat64;
        } else if (lhs->type == LogicalType::kDate || rhs->type == LogicalType::kDate) {
          const bool both = lhs->type == rhs->type;
          out_type = (expr.op == "-" && both) ? LogicalType::kInt64
                                              : LogicalType::kDate;
        } else {
          out_type = PromoteNumeric(lhs->type, rhs->type);
        }
        return MakeArith(op, std::move(lhs), std::move(rhs), out_type);
      }
      return Status::NotImplemented("operator '" + expr.op + "'");
    }
    case ExprKind::kUnary: {
      TQP_ASSIGN_OR_RETURN(BExpr child, BindExpr(*expr.children[0], scope));
      if (expr.op == "NOT") {
        if (child->type != LogicalType::kBool) {
          return Status::TypeError("NOT requires a boolean operand");
        }
        return MakeNot(std::move(child));
      }
      // Unary minus: 0 - x.
      if (!IsNumericType(child->type)) {
        return Status::TypeError("unary '-' requires a numeric operand");
      }
      const LogicalType t = child->type == LogicalType::kFloat64
                                ? LogicalType::kFloat64
                                : LogicalType::kInt64;
      return MakeArith(BinaryOpKind::kSub,
                       MakeLiteral(t == LogicalType::kFloat64 ? Scalar(0.0)
                                                              : Scalar(int64_t{0}),
                                   t),
                       std::move(child), t);
    }
    case ExprKind::kCase: {
      auto out = std::make_shared<BoundExpr>();
      out->kind = BExprKind::kCase;
      LogicalType result = LogicalType::kInt64;
      bool first = true;
      for (size_t i = 0; i + 1 < expr.children.size(); i += 2) {
        TQP_ASSIGN_OR_RETURN(BExpr when, BindExpr(*expr.children[i], scope));
        TQP_ASSIGN_OR_RETURN(BExpr then, BindExpr(*expr.children[i + 1], scope));
        if (when->type != LogicalType::kBool) {
          return Status::TypeError("CASE WHEN requires boolean conditions");
        }
        result = first ? then->type : PromoteNumeric(result, then->type);
        first = false;
        out->children.push_back(std::move(when));
        out->children.push_back(std::move(then));
      }
      if (expr.else_expr) {
        TQP_ASSIGN_OR_RETURN(BExpr els, BindExpr(*expr.else_expr, scope));
        result = PromoteNumeric(result, els->type);
        out->children.push_back(std::move(els));
        out->case_has_else = true;
      }
      if (result == LogicalType::kString) {
        return Status::NotImplemented("CASE producing strings");
      }
      out->type = result;
      return out;
    }
    case ExprKind::kLike: {
      TQP_ASSIGN_OR_RETURN(BExpr child, BindExpr(*expr.children[0], scope));
      if (child->type != LogicalType::kString) {
        return Status::TypeError("LIKE requires a string operand");
      }
      auto out = std::make_shared<BoundExpr>();
      out->kind = BExprKind::kLike;
      out->type = LogicalType::kBool;
      out->like_pattern = expr.pattern;
      out->negated = expr.negated;
      out->children.push_back(std::move(child));
      return out;
    }
    case ExprKind::kInList: {
      TQP_ASSIGN_OR_RETURN(BExpr child, BindExpr(*expr.children[0], scope));
      auto out = std::make_shared<BoundExpr>();
      out->kind = BExprKind::kInList;
      out->type = LogicalType::kBool;
      out->negated = expr.negated;
      for (size_t i = 1; i < expr.children.size(); ++i) {
        TQP_ASSIGN_OR_RETURN(BExpr item, BindExpr(*expr.children[i], scope));
        if (item->kind != BExprKind::kLiteral) {
          return Status::NotImplemented("IN list items must be literals");
        }
        Scalar v = item->literal;
        if (child->type == LogicalType::kDate && item->type == LogicalType::kString) {
          TQP_ASSIGN_OR_RETURN(int64_t days, ParseDate(v.string_value()));
          v = Scalar(days);
        } else if (child->type == LogicalType::kString && !v.is_string()) {
          return Status::TypeError("IN list type mismatch");
        }
        out->in_list.push_back(std::move(v));
      }
      out->children.push_back(std::move(child));
      return out;
    }
    case ExprKind::kBetween: {
      TQP_ASSIGN_OR_RETURN(BExpr lo_cmp,
                           BindExpr(*expr.children[0], scope));  // bind once for type
      (void)lo_cmp;
      // Rewrite to x >= lo AND x <= hi at the AST level for uniform coercion.
      Expr ge;
      ge.kind = ExprKind::kBinary;
      ge.op = ">=";
      ge.children.push_back(sql::CloneExpr(*expr.children[0]));
      ge.children.push_back(sql::CloneExpr(*expr.children[1]));
      Expr le;
      le.kind = ExprKind::kBinary;
      le.op = "<=";
      le.children.push_back(sql::CloneExpr(*expr.children[0]));
      le.children.push_back(sql::CloneExpr(*expr.children[2]));
      TQP_ASSIGN_OR_RETURN(BExpr blo, BindExpr(ge, scope));
      TQP_ASSIGN_OR_RETURN(BExpr bhi, BindExpr(le, scope));
      BExpr both = MakeLogical(LogicalOpKind::kAnd, std::move(blo), std::move(bhi));
      return expr.negated ? MakeNot(std::move(both)) : both;
    }
    case ExprKind::kFunction: {
      if (expr.name == "__interval") {
        return Status::BindError("INTERVAL is only valid in date arithmetic");
      }
      if (IsAggregateFunction(expr.name)) {
        return Status::BindError("aggregate '" + expr.name +
                                 "' is not allowed in this context");
      }
      if (expr.name == "substring") {
        if (expr.children.size() != 3) {
          return Status::BindError("SUBSTRING requires (expr FROM start FOR len)");
        }
        TQP_ASSIGN_OR_RETURN(BExpr child, BindExpr(*expr.children[0], scope));
        TQP_ASSIGN_OR_RETURN(BExpr start, BindExpr(*expr.children[1], scope));
        TQP_ASSIGN_OR_RETURN(BExpr len, BindExpr(*expr.children[2], scope));
        if (child->type != LogicalType::kString ||
            start->kind != BExprKind::kLiteral || len->kind != BExprKind::kLiteral) {
          return Status::NotImplemented(
              "SUBSTRING requires a string expr and constant range");
        }
        auto out = std::make_shared<BoundExpr>();
        out->kind = BExprKind::kSubstring;
        out->type = LogicalType::kString;
        out->substr_start = start->literal.AsInt64() - 1;  // SQL is 1-based
        out->substr_len = len->literal.AsInt64();
        if (out->substr_start < 0 || out->substr_len <= 0) {
          return Status::BindError("SUBSTRING range out of bounds");
        }
        out->children.push_back(std::move(child));
        return out;
      }
      if (expr.name == "extract_year" || expr.name == "extract_month" ||
          expr.name == "extract_day") {
        TQP_ASSIGN_OR_RETURN(BExpr child, BindExpr(*expr.children[0], scope));
        if (child->type != LogicalType::kDate) {
          return Status::TypeError("EXTRACT requires a DATE operand");
        }
        return BuildExtract(expr.name, std::move(child));
      }
      if (expr.name == "predict") {
        if (expr.children.empty() ||
            expr.children[0]->kind != ExprKind::kLiteral ||
            !expr.children[0]->literal.is_string()) {
          return Status::BindError(
              "PREDICT requires a model name string as first argument");
        }
        auto out = std::make_shared<BoundExpr>();
        out->kind = BExprKind::kPredict;
        out->model_name = expr.children[0]->literal.string_value();
        std::vector<LogicalType> arg_types;
        for (size_t i = 1; i < expr.children.size(); ++i) {
          TQP_ASSIGN_OR_RETURN(BExpr arg, BindExpr(*expr.children[i], scope));
          arg_types.push_back(arg->type);
          out->children.push_back(std::move(arg));
        }
        if (models_ == nullptr) {
          return Status::BindError("no model catalog registered for PREDICT");
        }
        TQP_ASSIGN_OR_RETURN(LogicalType out_type,
                             models_->CheckPredictCall(out->model_name, arg_types));
        out->type = out_type;
        return out;
      }
      return Status::NotImplemented("function '" + expr.name + "'");
    }
    case ExprKind::kStar:
      return Status::BindError("'*' is only valid inside COUNT(*)");
    case ExprKind::kScalarSubquery: {
      const auto it = scalar_columns_.find(&expr);
      if (it != scalar_columns_.end()) {
        return MakeColumnRef(it->second.first, it->second.second);
      }
      if (in_having_) {
        // Nested anywhere inside HAVING (e.g. "(SELECT ...) + 2"): bind the
        // 1-row subplan now; a placeholder ref is fixed up after the
        // aggregate's output width is known.
        TQP_ASSIGN_OR_RETURN(PlanPtr subplan,
                             BindUncorrelatedScalar(*expr.subquery));
        const LogicalType type = subplan->output_schema.field(0).type;
        having_scalar_subplans_.push_back(std::move(subplan));
        return MakeColumnRef(
            -2 - static_cast<int>(having_scalar_subplans_.size() - 1), type);
      }
      return Status::NotImplemented(
          "scalar subqueries are only supported inside WHERE conjuncts "
          "and HAVING");
    }
    case ExprKind::kExists:
    case ExprKind::kInSubquery:
      return Status::NotImplemented(
          "subquery predicates are only supported as top-level WHERE conjuncts");
  }
  return Status::Internal("unhandled expression kind");
}

void Binder::SplitConjuncts(const BExpr& expr, std::vector<BExpr>* out) {
  if (expr->kind == BExprKind::kLogical &&
      expr->logical_op == LogicalOpKind::kAnd) {
    SplitConjuncts(expr->children[0], out);
    SplitConjuncts(expr->children[1], out);
    return;
  }
  out->push_back(expr);
}

std::vector<BExpr> Binder::RewriteDisjunction(const BExpr& conjunct,
                                              const Scope& scope) {
  std::vector<BExpr> disjuncts;
  SplitDisjuncts(conjunct, &disjuncts);
  if (disjuncts.size() < 2) return {conjunct};
  std::vector<std::vector<BExpr>> parts(disjuncts.size());
  for (size_t d = 0; d < disjuncts.size(); ++d) {
    SplitConjuncts(disjuncts[d], &parts[d]);
  }

  // (a) Factor: (c AND x) OR (c AND y) == c AND (x OR y).
  std::vector<BExpr> out;
  for (const BExpr& e : parts[0]) {
    if (ContainsExpr(out, *e)) continue;
    if (std::all_of(parts.begin() + 1, parts.end(),
                    [&](const std::vector<BExpr>& p) {
                      return ContainsExpr(p, *e);
                    })) {
      out.push_back(e);
    }
  }
  BExpr residual = conjunct;
  if (!out.empty()) {
    std::vector<BExpr> rest;
    for (std::vector<BExpr>& p : parts) {
      p.erase(std::remove_if(
                  p.begin(), p.end(),
                  [&](const BExpr& e) { return ContainsExpr(out, *e); }),
              p.end());
      if (p.empty()) return out;  // a disjunct became TRUE: drop the OR
      rest.push_back(FoldLogical(LogicalOpKind::kAnd, p));
    }
    residual = FoldLogical(LogicalOpKind::kOr, rest);
  }
  out.push_back(residual);

  // (b) Derive: a relation restricted by every disjunct gets the OR of
  // those restrictions. It is implied by the residual, which stays.
  const size_t n = scope.relations.size();
  const int total_width = scope.TotalWidth();
  // The one relation `e` reads, or n when it reads none or several.
  auto relation_of = [&](const BoundExpr& e) {
    int lo = 0;
    int hi = 0;
    ColumnRange(e, total_width, &lo, &hi);
    for (size_t r = 0; r < n && lo >= 0; ++r) {
      const int off = scope.RelationOffset(static_cast<int>(r));
      const int end = off + scope.relations[r].plan->output_schema.num_fields();
      if (lo < end) return hi < end ? r : n;
    }
    return n;
  };
  if (relation_of(*residual) < n) return out;  // already a scan filter
  std::vector<std::vector<BExpr>> terms(n);
  for (const std::vector<BExpr>& p : parts) {
    std::vector<std::vector<BExpr>> own(n);
    for (const BExpr& e : p) {
      const size_t r = relation_of(*e);
      if (r < n) own[r].push_back(e);
    }
    for (size_t r = 0; r < n; ++r) {
      if (!own[r].empty()) {
        terms[r].push_back(FoldLogical(LogicalOpKind::kAnd, own[r]));
      }
    }
  }
  for (size_t r = 0; r < n; ++r) {
    if (terms[r].size() == parts.size()) {
      out.push_back(FoldLogical(LogicalOpKind::kOr, terms[r]));
    }
  }
  return out;
}

Result<Binder::PendingSemiJoin> Binder::BindSubqueryPredicate(
    const Expr& expr, const Scope& outer_scope) {
  PendingSemiJoin pending;
  const bool is_exists = expr.kind == ExprKind::kExists;
  pending.anti = expr.negated;

  if (!is_exists) {
    // <column> IN (SELECT single_col FROM ...)
    const Expr& outer_col = *expr.children[0];
    if (outer_col.kind != ExprKind::kColumnRef) {
      return Status::NotImplemented("IN (subquery) requires a plain column");
    }
    // BindExpr rejects a key on the nullable side of a LEFT JOIN: its zero
    // sentinels would match a zero in the subquery.
    TQP_ASSIGN_OR_RETURN(BExpr key, BindExpr(outer_col, outer_scope));
    Binder sub_binder(catalog_, models_);
    TQP_ASSIGN_OR_RETURN(PlanPtr subplan, sub_binder.Bind(*expr.subquery));
    if (subplan->output_schema.num_fields() != 1) {
      return Status::BindError("IN subquery must produce exactly one column");
    }
    pending.subplan = std::move(subplan);
    pending.outer_keys = {key->column_index};
    pending.inner_keys = {0};
    return pending;
  }

  // EXISTS: pull `inner_col = outer_col` equalities out of the subquery WHERE
  // as join keys. Conjuncts that mention the outer scope but are not plain
  // equalities (e.g. Q21's l2.l_suppkey <> l1.l_suppkey) become a residual
  // predicate on the semi/anti join. The remainder binds as an ordinary
  // uncorrelated query whose SELECT list is the correlated inner columns
  // followed by the inner columns the residual reads.
  const SelectStatement& sub = *expr.subquery;
  // Build an inner scope over the subquery FROM for resolution.
  Scope inner_scope;
  inner_scope.outer = &outer_scope;
  for (const sql::TableRef& ref : sub.from) {
    if (!ref.table_name.empty()) {
      TQP_ASSIGN_OR_RETURN(Schema schema, catalog_->GetSchema(ref.table_name));
      inner_scope.relations.push_back(
          Relation{ref.alias, MakeScanNode(ref.table_name, schema)});
    } else {
      return Status::NotImplemented("derived tables inside EXISTS");
    }
  }
  // True when any column reference inside `e` resolves through the outer
  // scope (treating unresolvable names as errors at bind time, not here).
  auto mentions_outer = [&](const Expr& e) {
    bool outer = false;
    auto walk = [&](auto&& self, const Expr& n) -> void {
      if (n.kind == ExprKind::kColumnRef) {
        auto r = ResolveColumn(inner_scope, n.qualifier, n.name);
        if (r.ok() && r.ValueOrDie().from_outer) outer = true;
        return;
      }
      for (const sql::ExprPtr& c : n.children) {
        if (c) self(self, *c);
      }
      if (n.else_expr) self(self, *n.else_expr);
    };
    walk(walk, e);
    return outer;
  };
  std::vector<const Expr*> conjuncts;
  SplitAstConjuncts(sub.where.get(), &conjuncts);
  std::vector<const Expr*> remaining;
  std::vector<const Expr*> residual_conjuncts;
  std::vector<std::pair<std::string, std::string>> inner_cols;  // qual, name
  for (const Expr* c : conjuncts) {
    bool correlated = false;
    if (c->kind == ExprKind::kBinary && c->op == "=" &&
        c->children[0]->kind == ExprKind::kColumnRef &&
        c->children[1]->kind == ExprKind::kColumnRef) {
      ResolvedColumn sides[2];
      bool resolved[2] = {false, false};
      for (int s = 0; s < 2; ++s) {
        auto r = ResolveColumn(inner_scope, c->children[static_cast<size_t>(s)]->qualifier,
                               c->children[static_cast<size_t>(s)]->name);
        if (r.ok()) {
          sides[s] = r.ValueOrDie();
          resolved[s] = true;
        }
      }
      if (resolved[0] && resolved[1] && sides[0].from_outer != sides[1].from_outer) {
        const int inner_side = sides[0].from_outer ? 1 : 0;
        const int outer_side = 1 - inner_side;
        TQP_RETURN_NOT_OK(CheckNotNullable(
            sides[outer_side].outer_global_index,
            c->children[static_cast<size_t>(outer_side)]->name));
        pending.outer_keys.push_back(sides[outer_side].outer_global_index);
        inner_cols.emplace_back(
            c->children[static_cast<size_t>(inner_side)]->qualifier,
            c->children[static_cast<size_t>(inner_side)]->name);
        correlated = true;
      }
    }
    if (correlated) continue;
    if (mentions_outer(*c)) {
      residual_conjuncts.push_back(c);
    } else {
      remaining.push_back(c);
    }
  }
  if (pending.outer_keys.empty()) {
    return Status::NotImplemented(
        "EXISTS subqueries must correlate via at least one equality");
  }
  // Residual conjuncts: every inner column they read must be exported by the
  // rebuilt subquery. Assign each a fresh alias and rewrite the cloned
  // conjunct to reference "__sub".<alias> so it can bind over the combined
  // (outer ++ subquery output) scope below.
  std::vector<std::pair<std::string, std::string>> residual_cols;  // qual, name
  std::vector<std::string> residual_aliases;
  std::vector<sql::ExprPtr> rewritten_residuals;
  auto residual_alias_for = [&](const std::string& qual,
                                const std::string& name) -> std::string {
    for (size_t i = 0; i < residual_cols.size(); ++i) {
      if (residual_cols[i].first == qual && residual_cols[i].second == name) {
        return residual_aliases[i];
      }
    }
    residual_cols.emplace_back(qual, name);
    residual_aliases.push_back("__rc" + std::to_string(residual_cols.size() - 1));
    return residual_aliases.back();
  };
  for (const Expr* c : residual_conjuncts) {
    sql::ExprPtr clone = sql::CloneExpr(*c);
    auto rewrite = [&](auto&& self, Expr* n) -> Status {
      if (n->kind == ExprKind::kColumnRef) {
        TQP_ASSIGN_OR_RETURN(ResolvedColumn col,
                             ResolveColumn(inner_scope, n->qualifier, n->name));
        if (!col.from_outer) {
          n->name = residual_alias_for(n->qualifier, n->name);
          n->qualifier = "__sub";
        }
        return Status::OK();
      }
      for (sql::ExprPtr& ch : n->children) {
        if (ch) TQP_RETURN_NOT_OK(self(self, ch.get()));
      }
      if (n->else_expr) TQP_RETURN_NOT_OK(self(self, n->else_expr.get()));
      return Status::OK();
    };
    TQP_RETURN_NOT_OK(rewrite(rewrite, clone.get()));
    rewritten_residuals.push_back(std::move(clone));
  }
  // Rebuild an uncorrelated SELECT: keys first, residual columns after.
  SelectStatement rebuilt;
  for (const auto& [qual, name] : inner_cols) {
    sql::SelectItem item;
    auto colref = std::make_unique<Expr>();
    colref->kind = ExprKind::kColumnRef;
    colref->qualifier = qual;
    colref->name = name;
    item.expr = std::move(colref);
    rebuilt.items.push_back(std::move(item));
  }
  for (size_t i = 0; i < residual_cols.size(); ++i) {
    sql::SelectItem item;
    auto colref = std::make_unique<Expr>();
    colref->kind = ExprKind::kColumnRef;
    colref->qualifier = residual_cols[i].first;
    colref->name = residual_cols[i].second;
    item.expr = std::move(colref);
    item.alias = residual_aliases[i];
    rebuilt.items.push_back(std::move(item));
  }
  for (const sql::TableRef& ref : sub.from) {
    sql::TableRef copy;
    copy.table_name = ref.table_name;
    copy.alias = ref.alias;
    copy.join_type = ref.join_type;
    rebuilt.from.push_back(std::move(copy));
  }
  sql::ExprPtr where;
  for (const Expr* c : remaining) {
    sql::ExprPtr cloned = sql::CloneExpr(*c);
    if (!where) {
      where = std::move(cloned);
    } else {
      auto conj = std::make_unique<Expr>();
      conj->kind = ExprKind::kBinary;
      conj->op = "AND";
      conj->children.push_back(std::move(where));
      conj->children.push_back(std::move(cloned));
      where = std::move(conj);
    }
  }
  rebuilt.where = std::move(where);
  Binder sub_binder(catalog_, models_);
  TQP_ASSIGN_OR_RETURN(pending.subplan, sub_binder.Bind(rebuilt));
  for (size_t i = 0; i < inner_cols.size(); ++i) {
    pending.inner_keys.push_back(static_cast<int>(i));
  }
  // Bind rewritten residual conjuncts over (outer relations ++ "__sub").
  if (!rewritten_residuals.empty()) {
    if (matched_col_ >= 0) {
      return Status::NotImplemented(
          "EXISTS with non-equality correlation cannot combine with LEFT JOIN");
    }
    Scope combined;
    combined.relations = outer_scope.relations;
    combined.relations.push_back(Relation{"__sub", pending.subplan});
    for (const sql::ExprPtr& rc : rewritten_residuals) {
      TQP_ASSIGN_OR_RETURN(BExpr bound, BindExpr(*rc, combined));
      if (bound->type != LogicalType::kBool) {
        return Status::TypeError("EXISTS residual conjunct must be boolean");
      }
      pending.residual =
          pending.residual
              ? MakeLogical(LogicalOpKind::kAnd, pending.residual, bound)
              : bound;
    }
  }
  return pending;
}

void Binder::OrderRelationsByJoinEdges(const Expr* where, Scope* scope) const {
  const size_t n = scope->relations.size();
  std::vector<std::vector<bool>> linked(n, std::vector<bool>(n, false));
  std::vector<const Expr*> conjuncts;
  SplitAstConjuncts(where, &conjuncts);
  for (const Expr* c : conjuncts) {
    if (c->kind != ExprKind::kBinary || c->op != "=" ||
        c->children[0]->kind != ExprKind::kColumnRef ||
        c->children[1]->kind != ExprKind::kColumnRef) {
      continue;
    }
    auto a = ResolveColumn(*scope, c->children[0]->qualifier, c->children[0]->name);
    auto b = ResolveColumn(*scope, c->children[1]->qualifier, c->children[1]->name);
    // Unknown or ambiguous names are reported when WHERE is bound.
    if (!a.ok() || !b.ok() || a->from_outer || b->from_outer ||
        a->relation == b->relation) {
      continue;
    }
    const auto ra = static_cast<size_t>(a->relation);
    const auto rb = static_cast<size_t>(b->relation);
    linked[ra][rb] = linked[rb][ra] = true;
  }
  // Step 0 takes relation 0; later steps take the earliest relation linked
  // to a joined one, or else the earliest unjoined (a cross join).
  std::vector<bool> joined(n, false);
  std::vector<bool> reachable(n, false);
  reachable[0] = true;
  std::vector<Relation> ordered;
  ordered.reserve(n);
  while (ordered.size() < n) {
    size_t next = n;
    for (size_t r = 0; r < n; ++r) {
      if (joined[r]) continue;
      if (next == n) next = r;
      if (reachable[r]) {
        next = r;
        break;
      }
    }
    joined[next] = true;
    for (size_t r = 0; r < n; ++r) reachable[r] = reachable[r] || linked[next][r];
    ordered.push_back(std::move(scope->relations[next]));
  }
  scope->relations = std::move(ordered);
}

Result<PlanPtr> Binder::BindFromWhere(const SelectStatement& stmt, Scope* scope) {
  if (stmt.from.empty()) return Status::BindError("FROM clause is required");
  // Resolve FROM relations; remember each entry's join type (scalar-subquery
  // relations appended below extend this list).
  std::vector<JoinType> join_types;
  int left_index = -1;
  for (size_t i = 0; i < stmt.from.size(); ++i) {
    const sql::TableRef& ref = stmt.from[i];
    if (ref.join_type == JoinType::kLeft) {
      if (i + 1 != stmt.from.size()) {
        return Status::NotImplemented(
            "LEFT JOIN is only supported as the last FROM entry");
      }
      left_index = static_cast<int>(i);
    }
    if (!ref.table_name.empty()) {
      TQP_ASSIGN_OR_RETURN(Schema schema, catalog_->GetSchema(ref.table_name));
      scope->relations.push_back(
          Relation{ref.alias, MakeScanNode(ref.table_name, schema)});
    } else {
      Binder sub_binder(catalog_, models_);
      TQP_ASSIGN_OR_RETURN(PlanPtr subplan, sub_binder.Bind(*ref.subquery));
      scope->relations.push_back(Relation{ref.alias, std::move(subplan)});
    }
    join_types.push_back(ref.join_type);
  }
  // A comma-joined list may be joined in any order, so it is joined in
  // connected order; LEFT JOIN and JOIN ... ON lists keep FROM order.
  const bool comma_joined = std::all_of(
      stmt.from.begin(), stmt.from.end(), [](const sql::TableRef& ref) {
        return ref.join_type == JoinType::kCross && !ref.join_condition;
      });
  if (comma_joined && stmt.from.size() >= 3) {
    OrderRelationsByJoinEdges(stmt.where.get(), scope);
  }
  if (left_index >= 0) {
    nullable_lo_ = scope->RelationOffset(left_index);
    nullable_hi_ =
        nullable_lo_ +
        scope->relations[static_cast<size_t>(left_index)]
            .plan->output_schema.num_fields();
    matched_col_ = scope->TotalWidth();
  }
  // Scalar subqueries in WHERE become relations appended to the scope: a
  // 1-row cross join when uncorrelated, a decorrelated GROUP BY join (with
  // synthesized key equalities) when correlated.
  std::vector<BExpr> synthesized;
  TQP_RETURN_NOT_OK(AttachScalarSubqueries(stmt.where.get(), scope, &join_types,
                                           &synthesized));
  if (left_index >= 0 && scope->relations.size() != stmt.from.size()) {
    return Status::NotImplemented(
        "LEFT JOIN cannot be combined with scalar subqueries");
  }
  const int total_width = scope->TotalWidth();

  // Partition WHERE into subquery predicates and ordinary conjuncts.
  std::vector<const Expr*> ast_conjuncts;
  SplitAstConjuncts(stmt.where.get(), &ast_conjuncts);
  std::vector<const Expr*> subquery_preds;
  std::vector<sql::ExprPtr> owned_subquery_preds;
  std::vector<BExpr> conjuncts;
  for (const Expr* c : ast_conjuncts) {
    const Expr* inner = c;
    bool negated = false;
    if (inner->kind == ExprKind::kUnary && inner->op == "NOT" &&
        (inner->children[0]->kind == ExprKind::kExists ||
         inner->children[0]->kind == ExprKind::kInSubquery)) {
      inner = inner->children[0].get();
      negated = true;
    }
    if (inner->kind == ExprKind::kExists || inner->kind == ExprKind::kInSubquery) {
      // Record negation by cloning with the flag set (clones owned below).
      sql::ExprPtr clone = sql::CloneExpr(*inner);
      clone->negated = clone->negated || negated;
      owned_subquery_preds.push_back(std::move(clone));
      subquery_preds.push_back(owned_subquery_preds.back().get());
      continue;
    }
    TQP_ASSIGN_OR_RETURN(BExpr bound, BindExpr(*c, *scope));
    if (bound->type != LogicalType::kBool) {
      return Status::TypeError("WHERE conjunct must be boolean");
    }
    std::vector<BExpr> split;
    SplitConjuncts(bound, &split);
    for (BExpr& b : split) conjuncts.push_back(std::move(b));
  }
  // Synthesized scalar-subquery key equalities join the conjunct pool.
  for (BExpr& s : synthesized) conjuncts.push_back(std::move(s));
  // OR conjuncts give up their common conjuncts and the filters they imply
  // per relation, which the loop below places on the scans.
  std::vector<BExpr> rewritten;
  for (const BExpr& c : conjuncts) {
    for (BExpr& r : RewriteDisjunction(c, *scope)) {
      rewritten.push_back(std::move(r));
    }
  }
  conjuncts = std::move(rewritten);
  // Pre-bind explicit ON conditions into the conjunct pool. A LEFT JOIN's ON
  // clause may reference the nullable side, so the guard is lifted there.
  std::vector<std::vector<BExpr>> on_conjuncts(scope->relations.size());
  for (size_t i = 1; i < stmt.from.size(); ++i) {
    if (stmt.from[i].join_condition) {
      allow_nullable_refs_ = join_types[i] == JoinType::kLeft;
      auto bound_or = BindExpr(*stmt.from[i].join_condition, *scope);
      allow_nullable_refs_ = false;
      TQP_RETURN_NOT_OK(bound_or.status());
      SplitConjuncts(bound_or.ValueOrDie(), &on_conjuncts[i]);
    }
  }

  std::vector<bool> used(conjuncts.size(), false);

  // Single-relation conjuncts become filters directly above their scan.
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    int lo = 0;
    int hi = 0;
    ColumnRange(*conjuncts[ci], total_width, &lo, &hi);
    if (lo < 0) continue;  // constant predicate: applied at the top later
    for (size_t r = 0; r < scope->relations.size(); ++r) {
      const int off = scope->RelationOffset(static_cast<int>(r));
      const int width =
          scope->relations[r].plan->output_schema.num_fields();
      if (lo >= off && hi < off + width) {
        std::vector<int> mapping(static_cast<size_t>(total_width), -1);
        for (int k = 0; k < width; ++k) {
          mapping[static_cast<size_t>(off + k)] = k;
        }
        scope->relations[r].plan = MakeFilterNode(
            scope->relations[r].plan, RemapColumns(*conjuncts[ci], mapping));
        used[ci] = true;
        break;
      }
    }
  }

  // Subquery predicates become semi/anti joins. A membership test (one
  // numeric outer key, no residual) lowers to a probe-only mask, two
  // searchsorted calls per probed row, so it goes where single-relation
  // filters go: around the relation that owns its key, after its filters.
  // Semi joins that expand pairs cost more per probed row and stay on top of
  // the join tree, where the fewest rows reach them.
  std::vector<PendingSemiJoin> expanding_semi_joins;
  for (const Expr* pred : subquery_preds) {
    TQP_ASSIGN_OR_RETURN(PendingSemiJoin pending,
                         BindSubqueryPredicate(*pred, *scope));
    if (pending.outer_keys.size() == 1 && !pending.residual) {
      const int key = pending.outer_keys[0];
      Relation* owner = nullptr;
      int off = 0;
      for (Relation& rel : scope->relations) {
        const int width = rel.plan->output_schema.num_fields();
        if (key >= off && key < off + width) {
          owner = &rel;
          break;
        }
        off += width;
      }
      if (owner != nullptr &&
          owner->plan->output_schema.field(key - off).type !=
              LogicalType::kString) {
        owner->plan = MakeJoin(owner->plan, pending.subplan,
                               pending.anti ? JoinType::kAnti : JoinType::kSemi,
                               {key - off}, pending.inner_keys, nullptr);
        continue;
      }
    }
    expanding_semi_joins.push_back(std::move(pending));
  }

  // Left-deep join construction in scope order (FROM order, or the
  // connected order chosen above).
  PlanPtr current = scope->relations[0].plan;
  for (size_t r = 1; r < scope->relations.size(); ++r) {
    const int off = scope->RelationOffset(static_cast<int>(r));
    const int width = scope->relations[r].plan->output_schema.num_fields();
    std::vector<int> left_keys;
    std::vector<int> right_keys;
    auto try_extract_key = [&](const BExpr& c) {
      if (c->kind != BExprKind::kCompare || c->cmp_op != CompareOpKind::kEq) {
        return false;
      }
      const BoundExpr& a = *c->children[0];
      const BoundExpr& b = *c->children[1];
      if (a.kind != BExprKind::kColumn || b.kind != BExprKind::kColumn) return false;
      const int ia = a.column_index;
      const int ib = b.column_index;
      const bool a_left = ia < off;
      const bool b_left = ib < off;
      const bool a_this = ia >= off && ia < off + width;
      const bool b_this = ib >= off && ib < off + width;
      if (a_left && b_this) {
        left_keys.push_back(ia);
        right_keys.push_back(ib - off);
        return true;
      }
      if (b_left && a_this) {
        left_keys.push_back(ib);
        right_keys.push_back(ia - off);
        return true;
      }
      return false;
    };
    for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
      if (!used[ci] && try_extract_key(conjuncts[ci])) used[ci] = true;
    }
    std::vector<BExpr> residual_parts;
    for (BExpr& oc : on_conjuncts[r]) {
      if (!try_extract_key(oc)) residual_parts.push_back(oc);
    }
    JoinType type = join_types[r];
    if (type == JoinType::kCross && !left_keys.empty()) type = JoinType::kInner;
    BExpr residual;
    if (type == JoinType::kLeft) {
      // A LEFT JOIN's non-key ON conjuncts are legal only when they read the
      // right side alone: they then filter the build input without dropping
      // any left rows (Q13's o_comment NOT LIKE ... takes this path).
      if (left_keys.empty()) {
        return Status::NotImplemented("LEFT JOIN requires equality join keys");
      }
      for (BExpr& part : residual_parts) {
        int lo = 0;
        int hi = 0;
        ColumnRange(*part, total_width, &lo, &hi);
        if (lo < off || hi >= off + width) {
          return Status::NotImplemented(
              "LEFT JOIN ON supports equality keys plus right-side filters "
              "only");
        }
        std::vector<int> mapping(static_cast<size_t>(total_width), -1);
        for (int k = 0; k < width; ++k) {
          mapping[static_cast<size_t>(off + k)] = k;
        }
        scope->relations[r].plan = MakeFilterNode(
            scope->relations[r].plan, RemapColumns(*part, mapping));
      }
    } else {
      for (BExpr& part : residual_parts) {
        residual =
            residual ? MakeLogical(LogicalOpKind::kAnd, residual, part) : part;
      }
    }
    current = MakeJoin(current, scope->relations[r].plan, type, left_keys,
                       right_keys, residual);
    // Apply any WHERE conjuncts now fully covered by the joined prefix.
    const int covered = off + width;
    for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
      if (used[ci]) continue;
      if (CoveredBy(*conjuncts[ci], covered)) {
        current = MakeFilterNode(current, conjuncts[ci]);
        used[ci] = true;
      }
    }
  }
  // Constant or stray conjuncts.
  for (size_t ci = 0; ci < conjuncts.size(); ++ci) {
    if (!used[ci]) current = MakeFilterNode(current, conjuncts[ci]);
  }
  // Semi/anti joins that expand pairs.
  for (PendingSemiJoin& pending : expanding_semi_joins) {
    current = MakeJoin(current, pending.subplan,
                       pending.anti ? JoinType::kAnti : JoinType::kSemi,
                       pending.outer_keys, pending.inner_keys,
                       pending.residual);
  }
  return current;
}

namespace {

// Collects scalar subqueries anywhere in an expression tree, without
// descending into EXISTS / IN subqueries (their own binder handles those) or
// into the scalar subquery's statement itself.
void CollectScalarSubqueries(const Expr& e, std::vector<const Expr*>* out) {
  if (e.kind == ExprKind::kScalarSubquery) {
    out->push_back(&e);
    return;
  }
  if (e.kind == ExprKind::kExists || e.kind == ExprKind::kInSubquery) return;
  for (const sql::ExprPtr& c : e.children) {
    if (c) CollectScalarSubqueries(*c, out);
  }
  if (e.else_expr) CollectScalarSubqueries(*e.else_expr, out);
}

}  // namespace

bool Binder::IsNullableColumn(int global_index) const {
  return nullable_lo_ >= 0 && global_index >= nullable_lo_ &&
         global_index < nullable_hi_;
}

Status Binder::CheckNotNullable(int global_index, const std::string& name) const {
  if (!IsNullableColumn(global_index)) return Status::OK();
  return Status::NotImplemented(
      "column '" + name +
      "' from the right side of a LEFT JOIN may only appear inside COUNT() "
      "(no general NULL support)");
}

bool Binder::HasNullableRef(const BoundExpr& expr) const {
  if (nullable_lo_ < 0) return false;
  if (expr.kind == BExprKind::kColumn) return IsNullableColumn(expr.column_index);
  for (const BExpr& c : expr.children) {
    if (c && HasNullableRef(*c)) return true;
  }
  return false;
}

Result<PlanPtr> Binder::BindUncorrelatedScalar(const SelectStatement& sub) {
  if (sub.items.size() != 1 || !sub.group_by.empty() ||
      !ContainsAggregate(*sub.items[0].expr)) {
    return Status::NotImplemented(
        "scalar subqueries must be a single ungrouped aggregate");
  }
  Binder sub_binder(catalog_, models_);
  TQP_ASSIGN_OR_RETURN(PlanPtr subplan, sub_binder.Bind(sub));
  if (subplan->output_schema.num_fields() != 1) {
    return Status::BindError("scalar subquery must produce exactly one column");
  }
  return subplan;
}

Status Binder::AttachScalarSubqueries(const sql::Expr* where, Scope* scope,
                                      std::vector<sql::JoinType>* join_types,
                                      std::vector<BExpr>* synthesized) {
  if (where == nullptr) return Status::OK();
  std::vector<const Expr*> subqueries;
  CollectScalarSubqueries(*where, &subqueries);
  for (const Expr* sq : subqueries) {
    TQP_RETURN_NOT_OK(AttachOneScalarSubquery(*sq, scope, join_types, synthesized));
  }
  return Status::OK();
}

Status Binder::AttachOneScalarSubquery(const sql::Expr& expr, Scope* scope,
                                       std::vector<sql::JoinType>* join_types,
                                       std::vector<BExpr>* synthesized) {
  const SelectStatement& sub = *expr.subquery;
  if (sub.items.size() != 1 || !sub.group_by.empty() ||
      !ContainsAggregate(*sub.items[0].expr)) {
    return Status::NotImplemented(
        "scalar subqueries must be a single ungrouped aggregate");
  }
  const std::string tag = "__sq" + std::to_string(scalar_columns_.size());

  // Correlation detection mirrors the EXISTS path: equality conjuncts whose
  // sides straddle the scopes become decorrelation keys. Only base-table
  // FROMs take this path; anything else binds as uncorrelated.
  bool all_base = true;
  for (const sql::TableRef& ref : sub.from) {
    if (ref.table_name.empty()) all_base = false;
  }
  std::vector<int> outer_keys;
  std::vector<std::pair<std::string, std::string>> inner_cols;  // qual, name
  std::vector<const Expr*> remaining;
  if (all_base) {
    Scope inner_scope;
    inner_scope.outer = scope;
    for (const sql::TableRef& ref : sub.from) {
      TQP_ASSIGN_OR_RETURN(Schema schema, catalog_->GetSchema(ref.table_name));
      inner_scope.relations.push_back(
          Relation{ref.alias, MakeScanNode(ref.table_name, schema)});
    }
    std::vector<const Expr*> conjuncts;
    SplitAstConjuncts(sub.where.get(), &conjuncts);
    for (const Expr* c : conjuncts) {
      bool correlated = false;
      if (c->kind == ExprKind::kBinary && c->op == "=" &&
          c->children[0]->kind == ExprKind::kColumnRef &&
          c->children[1]->kind == ExprKind::kColumnRef) {
        ResolvedColumn sides[2];
        bool resolved[2] = {false, false};
        for (int s = 0; s < 2; ++s) {
          auto r = ResolveColumn(inner_scope,
                                 c->children[static_cast<size_t>(s)]->qualifier,
                                 c->children[static_cast<size_t>(s)]->name);
          if (r.ok()) {
            sides[s] = r.ValueOrDie();
            resolved[s] = true;
          }
        }
        if (resolved[0] && resolved[1] &&
            sides[0].from_outer != sides[1].from_outer) {
          const int inner_side = sides[0].from_outer ? 1 : 0;
          const int outer_side = 1 - inner_side;
          outer_keys.push_back(sides[outer_side].outer_global_index);
          inner_cols.emplace_back(
              c->children[static_cast<size_t>(inner_side)]->qualifier,
              c->children[static_cast<size_t>(inner_side)]->name);
          correlated = true;
        }
      }
      if (!correlated) remaining.push_back(c);
    }
  }

  if (inner_cols.empty()) {
    // Uncorrelated: the subquery yields exactly one row; attach via a cross
    // join (the 1-row side broadcasts across the outer relation).
    TQP_ASSIGN_OR_RETURN(PlanPtr subplan, BindUncorrelatedScalar(sub));
    const int offset = scope->TotalWidth();
    const LogicalType type = subplan->output_schema.field(0).type;
    scope->relations.push_back(Relation{tag, std::move(subplan)});
    join_types->push_back(JoinType::kCross);
    scalar_columns_[&expr] = {offset, type};
    return Status::OK();
  }

  // Correlated: decorrelate into GROUP BY over the correlated inner columns
  // and join the outer side on them (an inner join: SQL comparisons against
  // an empty-group NULL scalar are unknown, which drops the row anyway).
  SelectStatement rebuilt;
  for (size_t k = 0; k < inner_cols.size(); ++k) {
    sql::SelectItem item;
    auto colref = std::make_unique<Expr>();
    colref->kind = ExprKind::kColumnRef;
    colref->qualifier = inner_cols[k].first;
    colref->name = inner_cols[k].second;
    rebuilt.group_by.push_back(sql::CloneExpr(*colref));
    item.expr = std::move(colref);
    item.alias = tag + "_k" + std::to_string(k);
    rebuilt.items.push_back(std::move(item));
  }
  {
    sql::SelectItem item;
    item.expr = sql::CloneExpr(*sub.items[0].expr);
    item.alias = tag + "_val";
    rebuilt.items.push_back(std::move(item));
  }
  for (const sql::TableRef& ref : sub.from) {
    sql::TableRef copy;
    copy.table_name = ref.table_name;
    copy.alias = ref.alias;
    copy.join_type = ref.join_type;
    rebuilt.from.push_back(std::move(copy));
  }
  sql::ExprPtr where;
  for (const Expr* c : remaining) {
    sql::ExprPtr cloned = sql::CloneExpr(*c);
    if (!where) {
      where = std::move(cloned);
    } else {
      auto conj = std::make_unique<Expr>();
      conj->kind = ExprKind::kBinary;
      conj->op = "AND";
      conj->children.push_back(std::move(where));
      conj->children.push_back(std::move(cloned));
      where = std::move(conj);
    }
  }
  rebuilt.where = std::move(where);
  Binder sub_binder(catalog_, models_);
  TQP_ASSIGN_OR_RETURN(PlanPtr subplan, sub_binder.Bind(rebuilt));
  const int offset = scope->TotalWidth();
  const int value_col =
      offset + static_cast<int>(inner_cols.size());
  const LogicalType value_type =
      subplan->output_schema.field(static_cast<int>(inner_cols.size())).type;
  // Synthesized equality conjuncts become ordinary join keys downstream.
  for (size_t k = 0; k < inner_cols.size(); ++k) {
    const LogicalType kt =
        subplan->output_schema.field(static_cast<int>(k)).type;
    // Outer side: resolve the recorded global index's type via the scope.
    LogicalType ot = kt;
    {
      int idx = outer_keys[k];
      int off = 0;
      for (const Relation& rel : scope->relations) {
        const int w = rel.plan->output_schema.num_fields();
        if (idx < off + w) {
          ot = rel.plan->output_schema.field(idx - off).type;
          break;
        }
        off += w;
      }
    }
    synthesized->push_back(MakeCompare(
        CompareOpKind::kEq, MakeColumnRef(outer_keys[k], ot),
        MakeColumnRef(offset + static_cast<int>(k), kt)));
  }
  scope->relations.push_back(Relation{tag, std::move(subplan)});
  join_types->push_back(JoinType::kCross);  // becomes kInner once keys extract
  scalar_columns_[&expr] = {value_col, value_type};
  return Status::OK();
}

Result<PlanPtr> Binder::Bind(const SelectStatement& stmt) {
  // COUNT(DISTINCT x) lowers into a two-level aggregation first.
  bool has_distinct = false;
  for (const sql::SelectItem& item : stmt.items) {
    if (ContainsDistinctAggregate(*item.expr)) has_distinct = true;
  }
  if (stmt.having && ContainsDistinctAggregate(*stmt.having)) {
    return Status::NotImplemented("DISTINCT aggregates in HAVING");
  }
  if (has_distinct) {
    TQP_ASSIGN_OR_RETURN(auto rewritten, RewriteDistinctAggregates(stmt));
    return Bind(*rewritten);
  }
  Scope scope;
  TQP_ASSIGN_OR_RETURN(PlanPtr current, BindFromWhere(stmt, &scope));

  const bool has_group_by = !stmt.group_by.empty();
  bool has_aggregates = stmt.having != nullptr && ContainsAggregate(*stmt.having);
  for (const sql::SelectItem& item : stmt.items) {
    if (ContainsAggregate(*item.expr)) has_aggregates = true;
  }

  std::vector<BExpr> out_exprs;
  std::vector<std::string> out_names;
  auto item_name = [&](const sql::SelectItem& item, size_t idx) {
    if (!item.alias.empty()) return item.alias;
    if (item.expr->kind == ExprKind::kColumnRef) return item.expr->name;
    return std::string("col") + std::to_string(idx);
  };

  if (has_group_by || has_aggregates) {
    // Aggregate node over `current`.
    auto agg_node = std::make_shared<PlanNode>();
    agg_node->kind = PlanKind::kAggregate;
    std::vector<BExpr> bound_groups;
    Schema agg_schema;
    for (size_t g = 0; g < stmt.group_by.size(); ++g) {
      TQP_ASSIGN_OR_RETURN(BExpr ge, BindExpr(*stmt.group_by[g], scope));
      std::string gname = "group" + std::to_string(g);
      if (ge->kind == BExprKind::kColumn) {
        // Reuse the source column name for readability.
        int idx = ge->column_index;
        int off = 0;
        for (const Relation& rel : scope.relations) {
          const int w = rel.plan->output_schema.num_fields();
          if (idx < off + w) {
            gname = rel.plan->output_schema.field(idx - off).name;
            break;
          }
          off += w;
        }
      }
      agg_schema.AddField(Field{gname, ge->type});
      bound_groups.push_back(std::move(ge));
    }
    std::vector<AggSpec> aggs;
    std::vector<BExpr> select_over_agg;
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      TQP_ASSIGN_OR_RETURN(
          BExpr e, BindAggregateExpr(*stmt.items[i].expr, scope, bound_groups, &aggs));
      select_over_agg.push_back(std::move(e));
    }
    BExpr having_over_agg;
    if (stmt.having) {
      in_having_ = true;
      auto having_or = BindAggregateExpr(*stmt.having, scope, bound_groups, &aggs);
      in_having_ = false;
      TQP_RETURN_NOT_OK(having_or.status());
      having_over_agg = std::move(having_or).ValueOrDie();
      if (having_over_agg->type != LogicalType::kBool) {
        return Status::TypeError("HAVING must be boolean");
      }
    }
    for (size_t a = 0; a < aggs.size(); ++a) {
      agg_schema.AddField(Field{"agg" + std::to_string(a), aggs[a].result_type()});
    }
    const int agg_width = agg_schema.num_fields();
    agg_node->group_exprs = std::move(bound_groups);
    agg_node->aggs = std::move(aggs);
    agg_node->output_schema = std::move(agg_schema);
    agg_node->children = {current};
    current = agg_node;
    // HAVING scalar subqueries: cross join the 1-row subplans above the
    // aggregate, then resolve their placeholder references (Q11's pattern).
    for (const PlanPtr& subplan : having_scalar_subplans_) {
      current = MakeJoin(current, subplan, JoinType::kCross, {}, {}, nullptr);
    }
    if (having_over_agg) {
      if (!having_scalar_subplans_.empty()) {
        FixupScalarPlaceholders(having_over_agg.get(), agg_width);
      }
      current = MakeFilterNode(current, having_over_agg);
    }
    for (size_t i = 0; i < stmt.items.size(); ++i) {
      out_exprs.push_back(select_over_agg[i]);
      out_names.push_back(item_name(stmt.items[i], i));
    }
    if (stmt.items.empty()) {
      return Status::BindError("SELECT * is not valid with GROUP BY");
    }
  } else {
    if (stmt.items.empty()) {
      // SELECT *: project every column of the join output (semi/anti joins
      // keep only the left schema, so use the tree's schema, not the scope).
      const Schema& schema = current->output_schema;
      for (int c = 0; c < schema.num_fields(); ++c) {
        out_exprs.push_back(MakeColumnRef(c, schema.field(c).type));
        out_names.push_back(schema.field(c).name);
      }
    } else {
      for (size_t i = 0; i < stmt.items.size(); ++i) {
        TQP_ASSIGN_OR_RETURN(BExpr e, BindExpr(*stmt.items[i].expr, scope));
        out_exprs.push_back(std::move(e));
        out_names.push_back(item_name(stmt.items[i], i));
      }
    }
  }
  current = MakeProjectNode(current, out_exprs, out_names);

  // ORDER BY over the projected schema (names, aliases or ordinals).
  if (!stmt.order_by.empty()) {
    auto sort_node = std::make_shared<PlanNode>();
    sort_node->kind = PlanKind::kSort;
    sort_node->output_schema = current->output_schema;
    const Schema& schema = current->output_schema;
    for (const sql::OrderItem& item : stmt.order_by) {
      SortKey key;
      key.ascending = item.ascending;
      if (item.expr->kind == ExprKind::kColumnRef && item.expr->qualifier.empty()) {
        const int idx = schema.FieldIndex(item.expr->name);
        if (idx < 0) {
          return Status::BindError("ORDER BY column '" + item.expr->name +
                                   "' is not in the select list");
        }
        key.expr = MakeColumnRef(idx, schema.field(idx).type);
      } else if (item.expr->kind == ExprKind::kLiteral &&
                 item.expr->literal.is_int()) {
        const int idx = static_cast<int>(item.expr->literal.int_value()) - 1;
        if (idx < 0 || idx >= schema.num_fields()) {
          return Status::BindError("ORDER BY ordinal out of range");
        }
        key.expr = MakeColumnRef(idx, schema.field(idx).type);
      } else {
        return Status::NotImplemented(
            "ORDER BY must reference select-list columns or ordinals");
      }
      sort_node->sort_keys.push_back(std::move(key));
    }
    sort_node->children = {current};
    current = sort_node;
  }
  if (stmt.limit >= 0) current = MakeLimitNode(current, stmt.limit);
  return current;
}

Result<BExpr> Binder::BindAggregateExpr(const Expr& expr, const Scope& scope,
                                        const std::vector<BExpr>& bound_groups,
                                        std::vector<AggSpec>* aggs) {
  const int num_groups = static_cast<int>(bound_groups.size());
  if (expr.kind == ExprKind::kScalarSubquery) {
    if (!in_having_) {
      return Status::NotImplemented(
          "scalar subqueries in the SELECT list are not supported");
    }
    TQP_ASSIGN_OR_RETURN(PlanPtr subplan, BindUncorrelatedScalar(*expr.subquery));
    const LogicalType type = subplan->output_schema.field(0).type;
    having_scalar_subplans_.push_back(std::move(subplan));
    // Placeholder index; fixed up once the aggregate output width is known.
    return MakeColumnRef(
        -2 - static_cast<int>(having_scalar_subplans_.size() - 1), type);
  }
  // Group-expression match: bind the subtree in input scope and compare it
  // structurally with each GROUP BY expression.
  if (!ContainsAggregate(expr)) {
    TQP_ASSIGN_OR_RETURN(BExpr bound, BindExpr(expr, scope));
    for (int g = 0; g < num_groups; ++g) {
      const BExpr& group = bound_groups[static_cast<size_t>(g)];
      if (SameExpr(*group, *bound)) return MakeColumnRef(g, group->type);
    }
    // Constants are fine anywhere; column references must be grouped.
    std::vector<bool> used(4096, false);
    CollectColumns(*bound, &used);
    const bool reads_columns =
        std::any_of(used.begin(), used.end(), [](bool b) { return b; });
    if (!reads_columns) return bound;
    return Status::BindError("expression '" + bound->ToString() +
                             "' must appear in GROUP BY or inside an aggregate");
  }
  if (expr.kind == ExprKind::kFunction && IsAggregateFunction(expr.name)) {
    if (expr.distinct) {
      return Status::NotImplemented("DISTINCT aggregates");
    }
    auto add_spec = [&](AggSpec spec) {
      for (size_t i = 0; i < aggs->size(); ++i) {
        if (SameAgg((*aggs)[i], spec)) {
          return MakeColumnRef(num_groups + static_cast<int>(i),
                               (*aggs)[i].result_type());
        }
      }
      aggs->push_back(std::move(spec));
      return MakeColumnRef(num_groups + static_cast<int>(aggs->size()) - 1,
                           aggs->back().result_type());
    };
    if (expr.name == "count") {
      AggSpec spec;
      spec.op = ReduceOpKind::kCount;
      if (expr.children.size() == 1 && expr.children[0]->kind != ExprKind::kStar) {
        // COUNT over the nullable side of a LEFT JOIN counts matched rows:
        // it lowers to SUM over the __matched validity column (Q13).
        allow_nullable_refs_ = true;
        auto arg_or = BindExpr(*expr.children[0], scope);
        allow_nullable_refs_ = false;
        TQP_RETURN_NOT_OK(arg_or.status());
        BExpr arg = std::move(arg_or).ValueOrDie();
        if (HasNullableRef(*arg)) {
          if (arg->kind != BExprKind::kColumn) {
            return Status::NotImplemented(
                "COUNT over a LEFT JOIN's right side requires a plain column");
          }
          AggSpec masked;
          masked.op = ReduceOpKind::kSum;
          masked.arg = MakeCase3(MakeColumnRef(matched_col_, LogicalType::kBool),
                                 I64Lit(1), I64Lit(0));
          return add_spec(std::move(masked));
        }
        spec.arg = std::move(arg);
      } else {
        spec.count_star = true;
      }
      return add_spec(std::move(spec));
    }
    if (expr.children.size() != 1) {
      return Status::BindError(expr.name + " takes exactly one argument");
    }
    TQP_ASSIGN_OR_RETURN(BExpr arg, BindExpr(*expr.children[0], scope));
    if (!IsNumericType(arg->type) &&
        !(expr.name == "min" || expr.name == "max")) {
      return Status::TypeError(expr.name + " requires a numeric argument");
    }
    if (expr.name == "avg") {
      AggSpec sum_spec;
      sum_spec.op = ReduceOpKind::kSum;
      sum_spec.arg = arg;
      AggSpec cnt_spec;
      cnt_spec.op = ReduceOpKind::kCount;
      cnt_spec.arg = arg;
      BExpr sum_ref = add_spec(std::move(sum_spec));
      BExpr cnt_ref = add_spec(std::move(cnt_spec));
      return MakeArith(BinaryOpKind::kDiv, std::move(sum_ref), std::move(cnt_ref),
                       LogicalType::kFloat64);
    }
    AggSpec spec;
    spec.op = expr.name == "sum"   ? ReduceOpKind::kSum
              : expr.name == "min" ? ReduceOpKind::kMin
                                   : ReduceOpKind::kMax;
    if (spec.op != ReduceOpKind::kSum && arg->type == LogicalType::kString) {
      return Status::NotImplemented("MIN/MAX over strings");
    }
    spec.arg = std::move(arg);
    return add_spec(std::move(spec));
  }
  // Composite expression over aggregates/groups: rebuild structurally.
  Expr shallow;  // cheap flat copy descriptor for recursion below
  switch (expr.kind) {
    case ExprKind::kBinary: {
      TQP_ASSIGN_OR_RETURN(
          BExpr lhs, BindAggregateExpr(*expr.children[0], scope, bound_groups, aggs));
      TQP_ASSIGN_OR_RETURN(
          BExpr rhs, BindAggregateExpr(*expr.children[1], scope, bound_groups, aggs));
      if (expr.op == "AND" || expr.op == "OR") {
        return MakeLogical(expr.op == "AND" ? LogicalOpKind::kAnd : LogicalOpKind::kOr,
                           std::move(lhs), std::move(rhs));
      }
      if (IsComparisonOp(expr.op)) {
        return MakeCompare(CompareOpFromString(expr.op), std::move(lhs),
                           std::move(rhs));
      }
      BinaryOpKind op = BinaryOpKind::kAdd;
      if (expr.op == "-") op = BinaryOpKind::kSub;
      if (expr.op == "*") op = BinaryOpKind::kMul;
      if (expr.op == "/") op = BinaryOpKind::kDiv;
      if (expr.op == "%") op = BinaryOpKind::kMod;
      const LogicalType t = expr.op == "/"
                                ? LogicalType::kFloat64
                                : PromoteNumeric(lhs->type, rhs->type);
      return MakeArith(op, std::move(lhs), std::move(rhs), t);
    }
    case ExprKind::kUnary: {
      TQP_ASSIGN_OR_RETURN(
          BExpr child, BindAggregateExpr(*expr.children[0], scope, bound_groups, aggs));
      if (expr.op == "NOT") return MakeNot(std::move(child));
      const LogicalType t = child->type;
      return MakeArith(BinaryOpKind::kSub,
                       MakeLiteral(t == LogicalType::kFloat64 ? Scalar(0.0)
                                                              : Scalar(int64_t{0}),
                                   t),
                       std::move(child), t);
    }
    default:
      (void)shallow;
      return Status::NotImplemented(
          "aggregate expressions may combine aggregates with +,-,*,/ and "
          "comparisons only");
  }
}

}  // namespace tqp
