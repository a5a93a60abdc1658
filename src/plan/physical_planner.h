#ifndef TQP_PLAN_PHYSICAL_PLANNER_H_
#define TQP_PLAN_PHYSICAL_PLANNER_H_

#include <memory>
#include <string>

#include "plan/binder.h"
#include "plan/catalog.h"
#include "plan/optimizer.h"
#include "plan/plan_node.h"

namespace tqp {

/// \brief Planner options. TQP implements joins with sort + searchsorted and
/// aggregation with group ids + segmented reductions, both GPU-friendly
/// tensor shapes (the paper's choice); the hash variants live on only as
/// operators for the ABL2/ABL3 ablations (bench/abl_join, bench/abl_groupby).
struct PhysicalOptions {
  OptimizerOptions optimizer;
};

/// \brief End-to-end frontend: SQL text -> parse -> bind -> optimize ->
/// physical plan. This produces the "physical plan from an external frontend
/// database system" that TQP's compilation stack consumes (§2.2).
Result<PlanPtr> PlanQuery(const std::string& sql, const Catalog& catalog,
                          const PhysicalOptions& options = {},
                          const ModelCatalog* models = nullptr);

/// \brief Applies physical choices to an already-bound logical plan. With a
/// `catalog`, its declared primary keys are carried up the plan, and an inner
/// join on a unique single numeric right key is marked `unique_build`;
/// without one (a plan from an external frontend carries no key), no join is
/// marked.
PlanPtr ChoosePhysical(const PlanPtr& plan, const PhysicalOptions& options,
                       const Catalog* catalog = nullptr);

}  // namespace tqp

#endif  // TQP_PLAN_PHYSICAL_PLANNER_H_
