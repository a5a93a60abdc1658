#ifndef TQP_KERNELS_SORT_INTERNAL_H_
#define TQP_KERNELS_SORT_INTERNAL_H_

// The stable argsort core behind kernels::ArgsortRows, the morsel-parallel
// runtime::ParallelArgsortRows and the external merge sort's run formation.
// Internal to the kernel/runtime/operator layers; not part of kernels.h.

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// \brief Three-way lexicographic comparison of two `cols`-wide rows under
/// `operator<`. The one row comparator of every comparison sort and run merge.
template <typename T>
int CompareRows(const T* a, const T* b, int64_t cols) {
  for (int64_t c = 0; c < cols; ++c) {
    if (a[c] < b[c]) return -1;
    if (b[c] < a[c]) return 1;
  }
  return 0;
}

/// \brief Runs `fn(b, e)` over disjoint task ranges covering [0, tasks),
/// possibly concurrently, and returns the first error.
using TaskRunner = std::function<Status(
    int64_t tasks, const std::function<Status(int64_t, int64_t)>& fn)>;

/// \brief Writes the stable permutation of rows [begin, end) of `a` to
/// out[0, end - begin), as absolute row ids. Equal rows keep ascending row
/// order in both directions.
///
/// Single-column keys of at least 1024 rows take the LSD radix path:
/// an order-preserving 64-bit key transform (floats fold -0.0 into +0.0),
/// minus the minimum key, sorted 11 bits per pass over only the digits the
/// key range spans. When key bits + row-id bits fit in 64, key and row id are
/// packed into one word and the sort needs one n-word scratch buffer besides
/// `out`; otherwise keys and ids travel in separate arrays (three n-word
/// buffers). Multi-column rows, NaN-bearing floats and short ranges take the
/// comparison sort over CompareRows.
///
/// With `chunks` > 1 and a `run`ner, each radix pass builds per-chunk
/// histograms, lays offsets out in (digit, chunk) order and scatters every
/// chunk concurrently; the comparison path sorts chunks concurrently and
/// merges them pairwise. Both stay stable, so the output does not depend on
/// `chunks`.
Status StableArgsortRange(const Tensor& a, int64_t begin, int64_t end,
                          bool ascending, int64_t* out, int64_t chunks = 1,
                          const TaskRunner& run = {});

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_SORT_INTERNAL_H_
