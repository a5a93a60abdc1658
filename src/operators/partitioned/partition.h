#ifndef TQP_OPERATORS_PARTITIONED_PARTITION_H_
#define TQP_OPERATORS_PARTITIONED_PARTITION_H_

#include <cstdint>

#include "common/result.h"
#include "runtime/parallel_kernels.h"

namespace tqp::op::partitioned {

/// Policy layer for the external merge sort, the one partitioned pipeline
/// breaker: TQP lowers every join and GROUP BY to argsort + searchsorted,
/// so they reach it through kArgsortRows. Run *counts* are chosen here,
/// deterministically, from input cardinality and the per-query memory
/// budget, so a plan's decomposition is reproducible and unit-pinnable.

/// \brief Knobs for one external-sort invocation. Default-constructed
/// config means "derive everything": run count from ChoosePartitionBits,
/// page size from PageRows.
struct PartitionConfig {
  /// Per-query budget in bytes; 0 = unbudgeted (runs sized for threads
  /// only).
  int64_t budget_bytes = 0;
  /// Forced log2(run count); -1 derives via ChoosePartitionBits. The
  /// differential tests sweep {0, 2, 4} (1/4/16 runs).
  int forced_bits = -1;
  /// Target bytes per spillable run page; 0 derives (256 KiB, floored so a
  /// page clears the spill tier's minimum).
  int64_t page_bytes = 0;
};

/// \brief Per-invocation statistics, surfaced through "breaker" trace spans
/// (EXPLAIN ANALYZE) and the obs metrics registry.
struct PartitionStats {
  int64_t partitions = 0;     // sort runs processed
  int64_t spilled_bytes = 0;  // breaker scratch written to the spill tier
};

/// Fan-out bounds: kMaxPartitionBits caps the run count at 256.
inline constexpr int kMaxPartitionBits = 8;
/// Runs smaller than this are not worth the merge.
inline constexpr int64_t kMinPartitionRows = 4096;

/// \brief Deterministic log2(run count) for a breaker over `rows` rows of
/// `bytes_per_row` bytes, executed by up to `threads` workers under
/// `budget_bytes` (0 = unbudgeted).
///
/// Policy (unit-pinned in tests/test_partitioned.cc):
///  - start from the thread fan-out: the smallest k with 2^k >= 2*threads;
///  - never split below kMinPartitionRows rows per run;
///  - with a budget, raise k until one run's working set
///    (rows/2^k * bytes_per_row, doubled for sort scratch) fits in a
///    quarter of the budget — the resident set during run formation is one
///    run plus merge state, so a quarter leaves room for output and peers;
///  - clamp to [0, kMaxPartitionBits].
int ChoosePartitionBits(int64_t rows, int64_t bytes_per_row,
                        int64_t budget_bytes, int threads);

/// \brief Rows per external-sort run page for `config` (always >= 1).
int64_t PageRows(const PartitionConfig& config, int64_t bytes_per_row);

/// \brief Whether executors should evaluate argsort through the external
/// merge sort by default (TQP_PARTITIONED_BREAKERS=1; off otherwise).
/// ExecOptions::partitioned_breakers overrides per run.
bool DefaultPartitionedBreakers();

/// \brief Forced log2(run count) from TQP_PARTITION_BITS (differential
/// sweeps), or -1 when unset.
int ForcedPartitionBits();

/// \brief Publishes one breaker invocation to the process metrics registry
/// (tqp_breaker_* counters). `kind` is a static string ("external_sort").
void RecordBreakerStats(const char* kind, const PartitionStats& stats);

}  // namespace tqp::op::partitioned

#endif  // TQP_OPERATORS_PARTITIONED_PARTITION_H_
