#ifndef TQP_PLAN_BINDER_H_
#define TQP_PLAN_BINDER_H_

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "plan/catalog.h"
#include "plan/plan_node.h"
#include "sql/ast.h"

namespace tqp {

/// \brief Names of registered PREDICT models with their signature, needed at
/// bind time. The ML registry (src/ml) implements this.
class ModelCatalog {
 public:
  virtual ~ModelCatalog() = default;
  /// \brief Validates the model exists and that the argument types match;
  /// returns the model's output logical type (usually kFloat64).
  virtual Result<LogicalType> CheckPredictCall(
      const std::string& model, const std::vector<LogicalType>& args) const = 0;
};

/// \brief Semantic analysis: resolves names against the catalog, type-checks
/// expressions, extracts join keys from WHERE/ON conjuncts, rewrites
/// EXISTS / IN (subquery) to semi/anti joins and AVG to SUM/COUNT, and emits
/// a logical plan tree of Scan/Filter/Join/Aggregate/Project/Sort/Limit.
class Binder {
 public:
  explicit Binder(const Catalog* catalog, const ModelCatalog* models = nullptr)
      : catalog_(catalog), models_(models) {}

  Result<PlanPtr> Bind(const sql::SelectStatement& stmt);

 private:
  struct Relation {
    std::string alias;
    PlanPtr plan;
  };
  /// A name scope: the FROM relations in join order, giving each column a
  /// global index (concatenation order == left-deep join output order). The
  /// join order is the FROM order unless BindFromWhere permutes a comma-joined
  /// list into connected order; scalar-subquery relations come last.
  struct Scope {
    std::vector<Relation> relations;
    const Scope* outer = nullptr;  // for correlated subqueries

    int TotalWidth() const;
    int RelationOffset(int rel_index) const;
  };
  struct ResolvedColumn {
    int relation = -1;  // -1 means found in outer scope
    int global_index = -1;
    LogicalType type = LogicalType::kInt64;
    bool from_outer = false;
    int outer_global_index = -1;
  };
  struct PendingSemiJoin {
    PlanPtr subplan;
    std::vector<int> outer_keys;  // global indexes in the outer scope
    std::vector<int> inner_keys;  // column indexes in subplan output
    BExpr residual;  // over (outer ++ subplan) columns; may be null
    bool anti = false;
  };

  Result<ResolvedColumn> ResolveColumn(const Scope& scope,
                                       const std::string& qualifier,
                                       const std::string& name) const;

  /// Binds a scalar (non-aggregate) expression over `scope`.
  Result<BExpr> BindExpr(const sql::Expr& expr, const Scope& scope);

  /// Splits a bound predicate into its top-level AND conjuncts.
  static void SplitConjuncts(const BExpr& expr, std::vector<BExpr>* out);

  /// Builds the FROM join tree, placing WHERE conjuncts as filters, join
  /// keys, or residuals. Each OR conjunct first goes through
  /// RewriteDisjunction, so the filters it implies sit directly above their
  /// scans. A membership semi/anti join (one numeric key, no residual) wraps
  /// the relation that owns its key, after that relation's filters; a
  /// semi/anti join that expands pairs goes on top of the tree.
  Result<PlanPtr> BindFromWhere(const sql::SelectStatement& stmt, Scope* scope);

  /// Rewrites one WHERE conjunct over `scope` into the conjuncts that replace
  /// it; a conjunct that is not an OR comes back alone. For an OR it
  /// (a) factors out every conjunct that appears, structurally equal, in
  /// each disjunct, keeping the OR of what is left (dropped when a disjunct
  /// empties), and (b) when that OR reads several relations, adds for each
  /// relation R that every disjunct restricts the implied OR of each
  /// disjunct's R-only conjuncts, keeping the OR itself. Both are exact
  /// under three-valued logic. Like PostgreSQL's
  /// extract_restriction_or_clauses (orclauses.c).
  static std::vector<BExpr> RewriteDisjunction(const BExpr& conjunct,
                                               const Scope& scope);

  /// Permutes a comma-joined FROM list into connected order: starting from
  /// the first relation, each step takes the earliest-listed unjoined
  /// relation that a WHERE `column = column` conjunct links to the joined
  /// ones, and falls back to a cross join with the earliest unjoined relation
  /// only when none is linked.
  void OrderRelationsByJoinEdges(const sql::Expr* where, Scope* scope) const;

  /// Handles EXISTS / IN-subquery conjuncts; returns the pending join.
  Result<PendingSemiJoin> BindSubqueryPredicate(const sql::Expr& expr,
                                                const Scope& outer_scope);

  /// Aggregate-mode binding of a SELECT/HAVING expression: group-expr
  /// subtrees become slot refs, aggregate calls become AggSpecs.
  Result<BExpr> BindAggregateExpr(const sql::Expr& expr, const Scope& scope,
                                  const std::vector<BExpr>& bound_groups,
                                  std::vector<AggSpec>* aggs);

  /// Rewrites a COUNT(DISTINCT x) query into a two-level aggregation: an
  /// inner GROUP BY (keys, x) that deduplicates, feeding an outer COUNT(*).
  /// This lowers DISTINCT into plain tensor group-bys on every backend.
  Result<std::unique_ptr<sql::SelectStatement>> RewriteDistinctAggregates(
      const sql::SelectStatement& stmt);

  /// Finds scalar subqueries in the WHERE tree, binds each one into a
  /// relation appended to `scope` (a 1-row cross join when uncorrelated; a
  /// decorrelated GROUP BY join otherwise) and synthesizes the equality
  /// conjuncts that become the join keys.
  Status AttachScalarSubqueries(const sql::Expr* where, Scope* scope,
                                std::vector<sql::JoinType>* join_types,
                                std::vector<BExpr>* synthesized);
  Status AttachOneScalarSubquery(const sql::Expr& expr, Scope* scope,
                                 std::vector<sql::JoinType>* join_types,
                                 std::vector<BExpr>* synthesized);

  /// Binds an uncorrelated scalar subquery: a single ungrouped aggregate
  /// select item, producing a guaranteed single-row single-column plan.
  Result<PlanPtr> BindUncorrelatedScalar(const sql::SelectStatement& sub);

  /// True when the bound expression reads a nullable column (the right side
  /// of a LEFT JOIN).
  bool HasNullableRef(const BoundExpr& expr) const;
  bool IsNullableColumn(int global_index) const;
  /// NotImplemented when `global_index` is on the nullable side: outside
  /// COUNT() its zero sentinels would read as values.
  Status CheckNotNullable(int global_index, const std::string& name) const;

  static bool IsAggregateFunction(const std::string& name);
  static bool ContainsAggregate(const sql::Expr& expr);
  static bool ContainsDistinctAggregate(const sql::Expr& expr);

  const Catalog* catalog_;
  const ModelCatalog* models_;

  // Scalar-subquery value columns keyed by their AST node; filled by
  // AttachScalarSubqueries and consulted when BindExpr reaches the node.
  std::map<const sql::Expr*, std::pair<int, LogicalType>> scalar_columns_;

  // HAVING-path scalar subqueries: subplans cross-joined above the aggregate.
  // Their placeholder column refs (-2 - j) are fixed up once the aggregate
  // output width is known.
  std::vector<PlanPtr> having_scalar_subplans_;
  bool in_having_ = false;

  // LEFT JOIN bookkeeping: global column range of the nullable (right) side
  // and the appended __matched validity column ([8] represents NULLs as
  // validity tensors; the binder lowers NULL semantics into that column).
  int nullable_lo_ = -1;
  int nullable_hi_ = -1;
  int matched_col_ = -1;
  bool allow_nullable_refs_ = false;
};

}  // namespace tqp

#endif  // TQP_PLAN_BINDER_H_
