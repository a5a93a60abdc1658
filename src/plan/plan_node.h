#ifndef TQP_PLAN_PLAN_NODE_H_
#define TQP_PLAN_PLAN_NODE_H_

#include <memory>
#include <string>
#include <vector>

#include "plan/bound_expr.h"
#include "sql/ast.h"

namespace tqp {

enum class PlanKind : int8_t {
  kScan = 0,
  kFilter,
  kProject,
  kJoin,
  kAggregate,
  kSort,
  kLimit,
};

const char* PlanKindName(PlanKind kind);

struct SortKey {
  BExpr expr;  // over the node input schema
  bool ascending = true;
};

struct PlanNode;
using PlanPtr = std::shared_ptr<PlanNode>;

/// \brief A relational operator node. One structure serves as both logical
/// and physical plan. Each engine runs one algorithm family (TQP and the
/// columnar engine sort, Volcano hashes), so a node names no join or
/// aggregation algorithm; the physical planner only marks unique builds.
struct PlanNode {
  PlanKind kind = PlanKind::kScan;
  Schema output_schema;
  std::vector<PlanPtr> children;

  // kScan: `scan_columns` selects column indexes of the base table (empty =
  // all columns, in table order). Filled in by the column-pruning rule.
  std::string table_name;
  std::vector<int> scan_columns;

  // kFilter
  BExpr predicate;

  // kProject
  std::vector<BExpr> exprs;

  // kJoin: equi-key column indexes into left/right child schemas, plus an
  // optional residual predicate over the concatenated (left ++ right) schema.
  sql::JoinType join_type = sql::JoinType::kInner;
  std::vector<int> left_keys;
  std::vector<int> right_keys;
  BExpr residual;
  // Set by the physical planner on an inner join whose single
  // numeric right key is unique (a declared primary key carried up the right
  // child): every probe row matches at most once, so the compiler lowers the
  // join without the match expansion.
  bool unique_build = false;

  // kAggregate: empty group_exprs = global aggregation (one output row).
  std::vector<BExpr> group_exprs;
  std::vector<AggSpec> aggs;

  // kSort
  std::vector<SortKey> sort_keys;

  // kLimit
  int64_t limit = -1;

  /// \brief Indented explain string for the subtree.
  std::string ToString(int indent = 0) const;
};

/// Node constructors (output schemas computed by the binder/callers).
PlanPtr MakeScanNode(std::string table_name, Schema schema);
PlanPtr MakeFilterNode(PlanPtr child, BExpr predicate);
PlanPtr MakeProjectNode(PlanPtr child, std::vector<BExpr> exprs,
                        std::vector<std::string> names);
PlanPtr MakeLimitNode(PlanPtr child, int64_t limit);

}  // namespace tqp

#endif  // TQP_PLAN_PLAN_NODE_H_
