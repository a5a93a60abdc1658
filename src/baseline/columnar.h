#ifndef TQP_BASELINE_COLUMNAR_H_
#define TQP_BASELINE_COLUMNAR_H_

#include <string>
#include <vector>

#include "device/device.h"
#include "ml/model.h"
#include "plan/catalog.h"
#include "plan/physical_planner.h"

namespace tqp {

/// \brief Vector-at-a-time columnar engine: every operator calls whole-column
/// kernels and materializes its entire output, with no cross-operator fusion
/// or program-level planning.
///
/// This is the reproduction's stand-in for BlazingSQL/cuDF in the paper's
/// "4x faster than BlazingSQL on GPU" claim (TXT2): same kernels as TQP, but
/// one materialized pass per expression node — the extra memory traffic and
/// kernel launches are exactly what TQP's compiled programs avoid. Runs on
/// the CPU or (with simulated timing) on the GPU device.
///
/// Serial by design: joins and group-bys call the single-threaded operators
/// in src/operators (op::SortMergeJoinIndices for inner joins,
/// op::SemiJoinIndices and op::LeftOuterJoinIndices, op::SortGroupIds and
/// op::GroupedReduce), which keeps the baseline's numbers single-threaded
/// and makes its results a second reference, besides Volcano, that the
/// differentials compare TQP against. Join keys compare as `=` does: mixed
/// numeric types promote, -0.0 equals +0.0, and NaN matches nothing.
class ColumnarEngine {
 public:
  ColumnarEngine(const Catalog* catalog, const ml::ModelRegistry* models = nullptr,
                 DeviceKind device = DeviceKind::kCpu,
                 bool charge_transfers = true)
      : catalog_(catalog), models_(models), device_(device),
        charge_transfers_(charge_transfers) {}

  Result<Table> Execute(const PlanPtr& plan) const;
  Result<Table> ExecuteSql(const std::string& sql,
                           const PhysicalOptions& options = {}) const;

  /// \brief Kernel launches performed by the last Execute call (each one a
  /// separate pass over memory — the fusion ablation's denominator).
  int64_t last_kernels() const { return last_kernels_; }

 private:
  const Catalog* catalog_;
  const ml::ModelRegistry* models_;
  DeviceKind device_;
  bool charge_transfers_ = true;
  mutable int64_t last_kernels_ = 0;
};

}  // namespace tqp

#endif  // TQP_BASELINE_COLUMNAR_H_
