// ABL2 — join algorithm ablation: the paper's tensor-friendly
// sort+searchsorted join (what the TQP compiler emits) vs a classic CPU
// build+probe hash join, across build/probe sizes and key skew. Both run
// single-threaded, so the columns compare algorithms, not parallelism.
//
// Emits JSON (one object) on stdout so CI can track the trajectory per
// commit; the human-readable summary goes to stderr.
//
// Usage: abl_join [scale]   (scales the base row counts; default 1)

#include <cstdio>

#include "bench_util.h"
#include "common/random.h"
#include "operators/hash_join.h"

using namespace tqp;  // NOLINT: bench binary

namespace {

Tensor RandomKeys(int64_t n, int64_t domain, double zipf_theta, uint64_t seed) {
  Rng rng(seed);
  Tensor t = Tensor::Empty(DType::kInt64, n, 1).ValueOrDie();
  int64_t* p = t.mutable_data<int64_t>();
  for (int64_t i = 0; i < n; ++i) {
    p[i] = zipf_theta > 0 ? rng.Zipf(domain, zipf_theta) : rng.Uniform(0, domain - 1);
  }
  return t;
}

}  // namespace

int main(int argc, char** argv) {
  const double scale = bench::ScaleFactorArg(argc, argv, 1.0);
  const bench::TimingProtocol protocol{2, 5};
  std::fprintf(stderr, "=== ABL2: sort-merge vs hash join ===\n");
  std::fprintf(stderr, "%9s %9s %5s %10s %9s %7s %9s\n", "probe", "build",
               "skew", "sm (ms)", "hash(ms)", "sm/hash", "out rows");

  std::printf("{\n  \"bench\": \"abl_join\",\n  \"scale_factor\": %.4f,\n"
              "  \"configs\": [",
              scale);
  struct Config {
    int64_t probe;
    int64_t build;
    double zipf;
  };
  const Config configs[] = {
      {100000, 1000, 0.0},   {100000, 100000, 0.0}, {1000000, 10000, 0.0},
      {1000000, 1000000, 0.0}, {1000000, 10000, 0.8},
  };
  bool first = true;
  for (const Config& cfg : configs) {
    const auto probe_n = static_cast<int64_t>(static_cast<double>(cfg.probe) * scale);
    const auto build_n = static_cast<int64_t>(static_cast<double>(cfg.build) * scale);
    Tensor probe = RandomKeys(probe_n, build_n, cfg.zipf, 1);
    Tensor build = RandomKeys(build_n, build_n, 0.0, 2);
    int64_t out_rows = 0;
    const double sm_sec = bench::MedianTime(
        [&] {
          auto r = op::SortMergeJoinIndices(probe, build).ValueOrDie();
          out_rows = r.left_ids.rows();
        },
        protocol);
    const double hash_sec = bench::MedianTime(
        [&] { TQP_CHECK_OK(op::HashJoinIndices(probe, build).status()); },
        protocol);
    const double ratio = hash_sec > 0 ? sm_sec / hash_sec : 0.0;
    std::printf(
        "%s\n    {\"probe\": %lld, \"build\": %lld, \"zipf\": %.2f,"
        "\n     \"sortmerge_ms\": %.4f, \"hash_ms\": %.4f,"
        " \"sortmerge_over_hash\": %.4f, \"out_rows\": %lld}",
        first ? "" : ",", static_cast<long long>(probe_n),
        static_cast<long long>(build_n), cfg.zipf, sm_sec * 1e3,
        hash_sec * 1e3, ratio, static_cast<long long>(out_rows));
    first = false;
    std::fprintf(stderr, "%9lld %9lld %5.1f %10.3f %9.3f %6.2fx %9lld\n",
                 static_cast<long long>(probe_n),
                 static_cast<long long>(build_n), cfg.zipf, sm_sec * 1e3,
                 hash_sec * 1e3, ratio, static_cast<long long>(out_rows));
  }
  std::printf("]\n}\n");
  std::fprintf(stderr,
               "\n(sort-merge is the GPU-expressible formulation the compiler "
               "emits; the hash join is the classic CPU operator the serial "
               "ColumnarEngine baseline runs)\n");
  return 0;
}
