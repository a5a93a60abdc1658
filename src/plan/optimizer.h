#ifndef TQP_PLAN_OPTIMIZER_H_
#define TQP_PLAN_OPTIMIZER_H_

#include "common/result.h"
#include "plan/plan_node.h"

namespace tqp {

/// \brief Options for the rule-based optimizer (the paper's "optimization
/// layer": IR-to-IR transformations, §2.2). Every rule always runs, so the
/// struct is empty; it stays because callers pass PhysicalOptions::optimizer.
struct OptimizerOptions {};

/// \brief Applies the rewrite rules and returns the optimized plan.
///
/// Rules:
///  * constant folding in every expression (dates already folded at bind);
///  * Filter(Filter(x, a), b) -> Filter(x, a AND b);
///  * column pruning: each operator's input is narrowed to the columns it
///    actually consumes, which narrows join materialization and lets scans
///    bind only the referenced columns as tensor-program inputs.
Result<PlanPtr> Optimize(const PlanPtr& plan, const OptimizerOptions& options = {});

}  // namespace tqp

#endif  // TQP_PLAN_OPTIMIZER_H_
