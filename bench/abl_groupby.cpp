// ABL3 — aggregation algorithm ablation, sweeping the number of distinct
// groups: the paper's sort-based group-by (argsort + boundaries + segmented
// reduce), hash-based grouping, and kernels::GroupIds + segmented reduce,
// which is what the TQP compiler emits (it ranks small packed key domains
// without sorting and sorts otherwise; the path column says which it took).
// All run single-threaded and include the float SUM.
//
// Emits JSON (one object) on stdout so CI can track the trajectory per
// commit; the human-readable summary goes to stderr.
//
// Usage: abl_groupby [rows_millions]   (default 1)

#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "kernels/kernels.h"
#include "operators/hash_groupby.h"

using namespace tqp;  // NOLINT: bench binary

int main(int argc, char** argv) {
  const double arg = bench::ScaleFactorArg(argc, argv, 1.0);
  const int64_t n = static_cast<int64_t>(arg * 1e6);
  const bench::TimingProtocol protocol{1, 3};
  std::fprintf(stderr,
               "=== ABL3: sort vs hash group-by (%lld rows, SUM) ===\n",
               static_cast<long long>(n));
  std::fprintf(stderr, "%10s %11s %10s %10s %15s\n", "groups", "sort (ms)",
               "hash (ms)", "sort/hash", "group_ids (ms)");

  std::printf("{\n  \"bench\": \"abl_groupby\",\n  \"rows\": %lld,\n"
              "  \"configs\": [",
              static_cast<long long>(n));
  Rng rng(3);
  Tensor values = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    values.mutable_data<double>()[i] = rng.NextDouble();
  }
  bool first = true;
  for (int64_t groups : {4L, 64L, 1024L, 65536L, 1048576L}) {
    Tensor keys = Tensor::Empty(DType::kInt64, n, 1).ValueOrDie();
    for (int64_t i = 0; i < n; ++i) {
      keys.mutable_data<int64_t>()[i] = rng.Uniform(0, groups - 1);
    }
    const std::vector<Tensor> key_cols{keys};
    const double sort_sec = bench::MedianTime(
        [&] {
          auto g = op::SortGroupIds(key_cols).ValueOrDie();
          TQP_CHECK_OK(
              op::GroupedReduce(ReduceOpKind::kSum, values, g).status());
        },
        protocol);
    const double hash_sec = bench::MedianTime(
        [&] {
          auto g = op::HashGroupIds(key_cols).ValueOrDie();
          TQP_CHECK_OK(
              op::GroupedReduce(ReduceOpKind::kSum, values, g).status());
        },
        protocol);
    kernels::GroupIdsPath path;
    const double ids_sec = bench::MedianTime(
        [&] {
          const Tensor ids = kernels::GroupIds(key_cols, &path).ValueOrDie();
          const Tensor count = kernels::GroupCount(ids).ValueOrDie();
          TQP_CHECK_OK(kernels::SegmentedReduce(ReduceOpKind::kSum, values, ids,
                                                count.ScalarAsInt64(0))
                           .status());
        },
        protocol);
    const char* path_name = path.dense ? "dense" : "sort";
    const double ratio = hash_sec > 0 ? sort_sec / hash_sec : 0.0;
    std::printf(
        "%s\n    {\"groups\": %lld, \"sort_ms\": %.4f, \"hash_ms\": %.4f,"
        " \"sort_over_hash\": %.4f, \"group_ids_ms\": %.4f,"
        " \"group_ids_path\": \"%s\"}",
        first ? "" : ",", static_cast<long long>(groups), sort_sec * 1e3,
        hash_sec * 1e3, ratio, ids_sec * 1e3, path_name);
    first = false;
    std::fprintf(stderr, "%10lld %11.3f %10.3f %9.2fx %9.3f %s\n",
                 static_cast<long long>(groups), sort_sec * 1e3,
                 hash_sec * 1e3, ratio, ids_sec * 1e3, path_name);
  }
  std::printf("]\n}\n");
  std::fprintf(stderr,
               "\n(sort-based is the paper's formulation — it is expressible "
               "as pure tensor ops and scales on GPUs; group_ids is what the "
               "tensor compiler emits; hash-based grouping is the classic CPU "
               "operator the serial ColumnarEngine baseline runs)\n");
  return 0;
}
