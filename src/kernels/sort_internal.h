#ifndef TQP_KERNELS_SORT_INTERNAL_H_
#define TQP_KERNELS_SORT_INTERNAL_H_

// The stable argsort core behind kernels::ArgsortRows, the morsel-parallel
// runtime::ParallelArgsortRows and the external merge sort's run formation,
// and the two paths of kernels::GroupIds with the argsort left to the
// caller. Internal to the kernel/graph/runtime/operator layers; not part of
// kernels.h.

#include <cstdint>
#include <functional>
#include <optional>
#include <type_traits>
#include <vector>

#include "common/result.h"
#include "common/status.h"
#include "kernels/sort.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// \brief Three-way lexicographic comparison of two `cols`-wide rows under
/// `operator<`, with NaN after every number (torch.sort's order): the order
/// stays total, so a NaN cannot split a run of equal keys, and SearchSorted
/// over the sorted column gives a NaN probe no match and a number no NaN.
/// The one row comparator of every comparison sort and run merge.
template <typename T>
int CompareRows(const T* a, const T* b, int64_t cols) {
  for (int64_t c = 0; c < cols; ++c) {
    if (a[c] < b[c]) return -1;
    if (b[c] < a[c]) return 1;
    if constexpr (std::is_floating_point_v<T>) {
      const bool a_nan = a[c] != a[c];
      if (a_nan != (b[c] != b[c])) return a_nan ? 1 : -1;
    }
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
/// Rows already in order give the identity after one pass and set
/// `*ordered` (when given): the radix path folds the test into its key-range
/// pass, the comparison path runs a chunked CompareRows pre-pass. NaN-bearing
/// floats never count as ordered.
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
                          const TaskRunner& run = {}, bool* ordered = nullptr);

/// \brief The ascending stable argsort GroupIds sorts keys with:
/// kernels::ArgsortRows, or an executor's parallel or external sort (every
/// stable sort returns the same permutation).
using ArgsortFn = std::function<Result<Tensor>(const Tensor& key)>;

/// \brief Mixed-radix packing of GroupIds keys into one code: key k
/// contributes its order-preserving 64-bit value minus mins[k], in radix
/// spans[k], key 0 most significant. `domain` is the product of the spans
/// (0 for empty keys).
struct DensePacking {
  std::vector<uint64_t> mins;
  std::vector<uint64_t> spans;
  uint64_t domain = 0;
};

/// \brief The largest domain the dense path ranks for `rows` rows:
/// max(2 rows, 1024), capped so ranks fit in 32 bits.
uint64_t DenseDomainLimit(int64_t rows);

/// \brief The packing of `keys` when every key packs (bool, int32, int64,
/// uint8 of at most 8 columns) and the domain fits in 64 bits and is at most
/// `max_domain`; std::nullopt otherwise.
std::optional<DensePacking> PlanDensePacking(const std::vector<Tensor>& keys,
                                             uint64_t max_domain);

/// \brief Dense path: packs each row's key code, marks the codes present,
/// and numbers them by an exclusive prefix sum over the domain. `packing`
/// must come from PlanDensePacking over the same keys. Like GroupIdsBySort,
/// it expects one or more keys with equal row counts (GroupIdsWith checks).
Result<Tensor> GroupIdsByRank(const std::vector<Tensor>& keys,
                              const DensePacking& packing);

/// \brief Sort path: the composed stable argsort through `argsort` (each
/// float key's -0.0 rows moved ahead of the +0.0 rows they tie with), group
/// starts found by comparing adjacent rows' bytes through the permutation,
/// and the sorted segment ids scattered back to row order.
Result<Tensor> GroupIdsBySort(const std::vector<Tensor>& keys,
                              const ArgsortFn& argsort);

/// \brief GroupIds with the sort path's argsort supplied: the dense path
/// when the packed domain is within DenseDomainLimit, else the sort path.
Result<Tensor> GroupIdsWith(const std::vector<Tensor>& keys,
                            const ArgsortFn& argsort, GroupIdsPath* path);

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_SORT_INTERNAL_H_
