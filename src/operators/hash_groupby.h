#ifndef TQP_OPERATORS_HASH_GROUPBY_H_
#define TQP_OPERATORS_HASH_GROUPBY_H_

#include <vector>

#include "common/result.h"
#include "kernels/kernel_types.h"
#include "tensor/tensor.h"

namespace tqp::op {

/// \brief Hash-based grouping of int64 key columns (multi-column keys are
/// hashed+verified internally). Produces dense group ids in first-seen order.
struct GroupIds {
  Tensor group_ids;       // int64 (n x 1), values in [0, num_groups)
  Tensor representatives;  // int64 (g x 1): first input row of each group
  int64_t num_groups = 0;
};
Result<GroupIds> HashGroupIds(const std::vector<Tensor>& keys);

/// \brief Sort-based grouping: the composed stable argsort and adjacent
/// byte comparisons (the sort path of kernels::GroupIds, packaged for the
/// ABL3 ablation). Group ids follow sorted key order.
Result<GroupIds> SortGroupIds(const std::vector<Tensor>& keys);

/// \brief Aggregates `values` per group id (dense ids in [0, num_groups)).
Result<Tensor> GroupedReduce(ReduceOpKind op, const Tensor& values,
                             const GroupIds& groups);

}  // namespace tqp::op

#endif  // TQP_OPERATORS_HASH_GROUPBY_H_
