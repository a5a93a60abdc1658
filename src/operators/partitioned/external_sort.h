#ifndef TQP_OPERATORS_PARTITIONED_EXTERNAL_SORT_H_
#define TQP_OPERATORS_PARTITIONED_EXTERNAL_SORT_H_

#include <functional>

#include "common/result.h"
#include "operators/partitioned/partition.h"
#include "runtime/parallel_kernels.h"
#include "tensor/tensor.h"

namespace tqp::op::partitioned {

/// \brief External merge sort: budget-sized sorted runs spilled through the
/// buffer pool's spill tier, k-way merged with a stable run-order tie-break.
///
/// Returns the same int64 (n x 1) permutation as kernels::ArgsortRows — the
/// unique stable permutation — for any run count and page size:
///  - runs cover consecutive row ranges, each stable-sorted by the shared
///    argsort core (kernels::StableArgsortRange), so within a run equal keys
///    keep ascending row order;
///  - the merge breaks key ties toward the lower run, and every row id in
///    run i is smaller than every row id in run i+1, so the merged order is
///    exactly std::stable_sort's.
///
/// Each run is stored as pool-backed key/row-id *pages* registered with the
/// ambient BufferPool::QueryScope (when one has a budget), so formed runs
/// evict to disk under memory pressure and fault back page-at-a-time during
/// the merge. Once every run is formed the input tensor is no longer read;
/// `keys` is taken by value and dropped at that point, and `release_input`
/// (when provided by the executor) drops the executor's handle too — the
/// step's resident floor becomes output + one page per run instead of
/// input + output, which is what lets `budget_overruns == 0` hold on
/// sort-dominated queries at a fraction of the monolithic peak.
///
/// `release_input` must be safe to call from the calling thread; it is
/// invoked at most once, after the last read of `keys`.
Result<Tensor> ExternalSortRows(const runtime::ParallelContext& ctx,
                                Tensor keys, bool ascending,
                                const PartitionConfig& config,
                                PartitionStats* stats,
                                const std::function<void()>& release_input = {});

}  // namespace tqp::op::partitioned

#endif  // TQP_OPERATORS_PARTITIONED_EXTERNAL_SORT_H_
