#ifndef TQP_KERNELS_REDUCE_H_
#define TQP_KERNELS_REDUCE_H_

#include "common/result.h"
#include "kernels/kernel_types.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// \brief Full reduction over all elements to a (1 x 1) tensor.
/// kSum/kCount produce float64/int64; kMin/kMax keep the input dtype.
Result<Tensor> ReduceAll(ReduceOpKind op, const Tensor& a);

/// \brief Inclusive prefix sum over an (n x 1) tensor (torch.cumsum).
/// Integer inputs accumulate in int64; floats in float64.
Result<Tensor> CumSum(const Tensor& a);

/// \brief Segmented reduction: values (n x 1) grouped by `segment_ids`
/// (int64, n x 1, non-decreasing, in [0, num_segments)). Returns
/// (num_segments x 1). Empty segments yield 0 for sum/count and are
/// undefined for min/max (also 0).
///
/// This is the sort-based aggregation primitive of the paper: sort rows by
/// key, derive segment ids from key-change boundaries, reduce per segment.
Result<Tensor> SegmentedReduce(ReduceOpKind op, const Tensor& values,
                               const Tensor& segment_ids, int64_t num_segments);

/// \brief target[index[i]] += values[i] (torch.Tensor.scatter_add_ analog)
/// over (n x 1) tensors; `target` is modified in place.
Status ScatterAddInPlace(Tensor* target, const Tensor& indices,
                         const Tensor& values);

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_REDUCE_H_
