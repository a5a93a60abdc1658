#ifndef TQP_KERNELS_SORT_H_
#define TQP_KERNELS_SORT_H_

#include <vector>

#include "common/result.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// \brief Stable argsort of an (n x m) tensor by lexicographic row order
/// (torch.argsort analog; m == 1 is the common numeric case, m > 1 covers
/// padded string tensors); NaN sorts after every number. Returns int64
/// (n x 1) permutation indices. Rows already in order (and NaN-free) give
/// the identity after one pass; then `*ordered`, when given, is set true.
Result<Tensor> ArgsortRows(const Tensor& a, bool ascending = true,
                           bool* ordered = nullptr);

/// \brief torch.searchsorted / bucketize: for each value v in `values`
/// (k x 1), the insertion index into ascending `sorted` (n x 1) keeping order.
/// `right` selects the upper-bound variant. Returns int64 (k x 1).
///
/// This is the primitive behind the paper's sort-merge join: probe keys are
/// located in the sorted build side with two searchsorted calls whose
/// difference is the per-probe match count.
Result<Tensor> SearchSorted(const Tensor& sorted, const Tensor& values,
                            bool right = false);

/// \brief Boolean (n x 1) mask marking rows that differ from their
/// predecessor (row 0 is always true; empty input gives an empty mask).
/// On lexicographically sorted keys this marks group starts.
Result<Tensor> SegmentBoundaries(const Tensor& keys);

/// \brief Which path GroupIds took: `dense` ranked packed key codes over a
/// presence array of `domain` codes; otherwise it sorted.
struct GroupIdsPath {
  bool dense = false;
  int64_t domain = 0;
};

/// \brief torch.unique(sorted=True, return_inverse=True) over the row tuples
/// of `keys` (one or more tensors with equal row counts): the int64 (n x 1)
/// group id of every row, in row order. A group is a set of byte-equal key
/// tuples; groups are numbered in the order the composed stable argsort
/// (last key first, then each earlier key) lists them, with -0.0 ahead of
/// +0.0 (the argsort ties them).
///
/// When every key packs order-preservingly into 64 bits (bool, int32,
/// int64, uint8 strings of at most 8 bytes) and the product of the key
/// ranges is at most max(2n, 1024), the ids come from ranking the packed
/// codes, with no sort. Otherwise the keys are sorted and adjacent rows are
/// compared bytewise. Both paths give the same ids.
Result<Tensor> GroupIds(const std::vector<Tensor>& keys,
                        GroupIdsPath* path = nullptr);

/// \brief The number of groups behind GroupIds output `ids`: int64 (1 x 1)
/// holding max(ids) + 1, or 0 when `ids` is empty.
Result<Tensor> GroupCount(const Tensor& ids);

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_SORT_H_
