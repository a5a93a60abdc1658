#ifndef TQP_KERNELS_SELECTION_H_
#define TQP_KERNELS_SELECTION_H_

#include "common/result.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// \brief Row indices where the boolean (n x 1) mask is true (torch.nonzero).
Result<Tensor> Nonzero(const Tensor& mask);

/// \brief Keeps rows of `a` where `mask` is true. `a` is (n x m), mask (n x 1).
///
/// This is the mask -> cumsum -> gather sequence the paper uses for Filter,
/// collapsed into one kernel (the graph still exposes the two-step form for
/// the executor-graph artifact).
Result<Tensor> Compress(const Tensor& a, const Tensor& mask);

/// \brief out[i, :] = a[indices[i], :] (torch.index_select over rows).
/// `indices` must be int32/int64 (k x 1); out is (k x m).
Result<Tensor> Gather(const Tensor& a, const Tensor& indices);

/// \brief out[indices[i], :] = a[i, :]; `out_rows` rows in the result, rows
/// not covered by `indices` are zero. Duplicate indices: last write wins.
Result<Tensor> Scatter(const Tensor& a, const Tensor& indices, int64_t out_rows);

/// \brief Per-row column gather (torch.gather dim=1): out[i] = a[i, idx[i]].
/// `idx` is int64 (n x 1) with values in [0, a.cols()); output is (n x 1).
Result<Tensor> GatherCols(const Tensor& a, const Tensor& idx);

/// \brief Concatenates tensors over rows. All inputs share dtype and cols.
Result<Tensor> ConcatRows(const std::vector<Tensor>& parts);

/// \brief One row-concatenation operand's shape.
struct RowsShape {
  DType dtype = DType::kFloat64;
  int64_t rows = 0;
  int64_t cols = 0;
};

/// \brief The shape ConcatRows gives parts of these shapes: rows add up, and
/// parts share dtype and cols, except that narrower uint8 (padded string)
/// parts widen to the widest. A mismatch is ConcatRows' TypeError. The one
/// statement of those rules: pipeline assembly sizes its output through it
/// while some chunks sit on disk.
Result<RowsShape> ConcatRowsShape(const std::vector<RowsShape>& parts);

/// \brief Appends `part`'s rows at `*dst`, laid out for an output of
/// `out_cols` columns, and advances `*dst` past them. Rows narrower than
/// `out_cols` (padded uint8 strings) are right-padded with zero bytes. The
/// single definition of the row-concat byte layout: ConcatRows and pipeline
/// assembly both call it, so streamed and out-of-core runs cannot drift from
/// the kernel.
void AppendRowsPadded(const Tensor& part, int64_t out_cols, uint8_t** dst);

/// \brief Concatenates (n x c_i) tensors side by side into (n x sum c_i).
/// All inputs share dtype and row count. Used to assemble ML feature
/// matrices from table columns.
Result<Tensor> ConcatCols(const std::vector<Tensor>& parts);

/// \brief Repeats each row of `a` `counts[i]` times (torch.repeat_interleave).
/// `counts` is int64 (n x 1); the output has sum(counts) rows.
Result<Tensor> RepeatInterleave(const Tensor& a, const Tensor& counts);

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_SELECTION_H_
