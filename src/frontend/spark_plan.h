#ifndef TQP_FRONTEND_SPARK_PLAN_H_
#define TQP_FRONTEND_SPARK_PLAN_H_

#include <string>

#include "plan/catalog.h"
#include "plan/plan_node.h"

namespace tqp::frontend {

/// \brief Ingests a Spark-SQL-style physical plan serialized as JSON and
/// produces a TQP physical plan — the paper's parsing layer: "TQP accepts
/// input as a Spark SQL physical plan … the architecture decouples the
/// physical plan specification from the other layers, therefore allowing to
/// plug different frontends" (§2.2).
///
/// Document shape (one object per operator, `children` nested):
///
/// ```json
/// {"node": "HashAggregate",
///  "groupingExpressions": ["l_returnflag"],
///  "aggregateExpressions": ["SUM(l_quantity) AS sum_qty", "COUNT(*) AS n"],
///  "children": [
///    {"node": "Filter", "condition": "l_shipdate <= DATE '1998-09-02'",
///     "children": [{"node": "FileSourceScan", "table": "lineitem"}]}]}
/// ```
///
/// Accepted operators (Spark spellings and plain aliases):
///  * `Scan` / `FileSourceScan` / `BatchScan` / `LogicalRDD` — `table`
///  * `Filter` — `condition` (expression text in the SQL dialect)
///  * `Project` — `projectList` (expressions, `AS` aliases allowed)
///  * `SortMergeJoin` / `ShuffledHashJoin` / `BroadcastHashJoin` / `Join` —
///    `joinType` (`Inner`, `Cross`, `LeftOuter`, `LeftSemi`, `LeftAnti`),
///    `leftKeys` / `rightKeys` (column names), optional `condition`
///    (residual over the concatenated left ++ right columns)
///  * `HashAggregate` / `SortAggregate` — `groupingExpressions`,
///    `aggregateExpressions`
///  * `Sort` — `sortOrder` (entries like `"revenue DESC"`)
///  * `LocalLimit` / `GlobalLimit` / `CollectLimit` / `Limit` — `limit`
///
/// The join and aggregate node kinds name Spark's algorithm choice; TQP does
/// not use it. Every join lowers to sort + searchsorted and every aggregate
/// to group ids + segmented reductions, whichever kind the plan names.
///
/// Expression strings are parsed with the same grammar as the SQL frontend
/// and bound positionally against the child operator's output schema, so a
/// JSON plan and the equivalent SQL text compile to identical tensor
/// programs (asserted in tests/test_frontend.cc).
Result<PlanPtr> FromSparkPlanJson(const std::string& json,
                                  const Catalog& catalog);

}  // namespace tqp::frontend

#endif  // TQP_FRONTEND_SPARK_PLAN_H_
