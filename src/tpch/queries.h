#ifndef TQP_TPCH_QUERIES_H_
#define TQP_TPCH_QUERIES_H_

#include <string>
#include <vector>

#include "common/result.h"

namespace tqp::tpch {

/// \brief SQL text of TPC-H query `number` in TQP's dialect.
///
/// All 22 queries are supported: filters over all column types, multi-way
/// joins, multi-key group-bys, CASE/LIKE/IN, EXISTS / NOT EXISTS and
/// IN / NOT IN subqueries (rewritten to semi and anti joins), scalar and
/// correlated scalar subqueries, LEFT OUTER JOIN, COUNT(DISTINCT), views
/// (Q15 as a derived table), ORDER BY + LIMIT. Q19 uses the standard
/// factored form (join predicate outside the OR), which is the variant most
/// engines and the dbgen qgen templates use. A number outside 1-22 returns
/// Invalid.
Result<std::string> QueryText(int number);

/// \brief The query numbers this reproduction supports, in order.
const std::vector<int>& SupportedQueries();

}  // namespace tqp::tpch

#endif  // TQP_TPCH_QUERIES_H_
