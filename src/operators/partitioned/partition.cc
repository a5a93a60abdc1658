#include "operators/partitioned/partition.h"

#include <algorithm>

#include "common/env.h"
#include "obs/metrics.h"

namespace tqp::op::partitioned {

int ChoosePartitionBits(int64_t rows, int64_t bytes_per_row,
                        int64_t budget_bytes, int threads) {
  if (rows <= 0) return 0;
  bytes_per_row = std::max<int64_t>(1, bytes_per_row);
  // Thread fan-out: smallest k with 2^k >= 2*threads keeps every worker fed
  // even when run costs skew 2:1.
  int k = 0;
  const int64_t want = int64_t{2} * std::max(1, threads);
  while ((int64_t{1} << k) < want && k < kMaxPartitionBits) ++k;
  // With a budget, one run's working set (run rows doubled for sort
  // scratch) must fit in a quarter of it.
  if (budget_bytes > 0) {
    const int64_t target = std::max<int64_t>(1, budget_bytes / 4);
    while (k < kMaxPartitionBits &&
           (rows >> k) * bytes_per_row * 2 > target) {
      ++k;
    }
  }
  // Never split below kMinPartitionRows rows per run.
  while (k > 0 && (rows >> k) < kMinPartitionRows) --k;
  return k;
}

int64_t PageRows(const PartitionConfig& config, int64_t bytes_per_row) {
  bytes_per_row = std::max<int64_t>(1, bytes_per_row);
  int64_t bytes = config.page_bytes > 0 ? config.page_bytes : int64_t{256} << 10;
  // A page below the spill tier's minimum can never evict; don't bother.
  bytes = std::max<int64_t>(bytes, 8192);
  return std::max<int64_t>(1, bytes / bytes_per_row);
}

bool DefaultPartitionedBreakers() {
  static const bool on =
      EnvInt64OrDefault("TQP_PARTITIONED_BREAKERS", 0, 0, 1) != 0;
  return on;
}

int ForcedPartitionBits() {
  static const int bits = static_cast<int>(
      EnvInt64OrDefault("TQP_PARTITION_BITS", -1, 0, kMaxPartitionBits));
  return bits;
}

void RecordBreakerStats(const char* kind, const PartitionStats& stats) {
  auto* reg = obs::MetricsRegistry::Global();
  static obs::Counter* invocations = reg->GetCounter(
      "tqp_breaker_invocations_total", "Partitioned breaker evaluations");
  static obs::Counter* partitions = reg->GetCounter(
      "tqp_breaker_partitions_total", "Sort runs processed");
  static obs::Counter* spilled = reg->GetCounter(
      "tqp_breaker_spilled_bytes_total",
      "Breaker scratch bytes written to the spill tier");
  (void)kind;
  invocations->Add(1);
  partitions->Add(stats.partitions);
  spilled->Add(stats.spilled_bytes);
}

}  // namespace tqp::op::partitioned
