#include "runtime/parallel_kernels.h"

#include <algorithm>
#include <limits>

#include "graph/eval.h"
#include "kernels/kernels.h"
#include "kernels/sort_internal.h"
#include "operators/partitioned/external_sort.h"
#include "runtime/morsel.h"
#include "tensor/buffer_pool.h"

namespace tqp::runtime {

int64_t MorselRows(const ParallelContext& ctx) {
  return ctx.morsel_rows > 0 ? ctx.morsel_rows : DefaultMorselRows();
}

bool ShouldParallelize(const ParallelContext& ctx, int64_t rows) {
  return ctx.parallel() && rows >= ctx.min_parallel_rows &&
         rows > MorselRows(ctx);
}

Result<Tensor> ParallelReduceAll(const ParallelContext& ctx, ReduceOpKind op,
                                 const Tensor& a) {
  // Min/max: int64 -> double rounding is monotone, so min(round(x)) ==
  // round(min(x)) and the per-morsel merge stays exact for every dtype.
  const bool exact_parallel =
      op == ReduceOpKind::kMin || op == ReduceOpKind::kMax ||
      (op == ReduceOpKind::kSum && !IsFloatingPoint(a.dtype()));
  if (!exact_parallel || a.cols() != 1 || a.numel() == 0 ||
      !ShouldParallelize(ctx, a.rows())) {
    return kernels::ReduceAll(op, a);
  }
  const std::vector<RowRange> morsels = PartitionRows(a.rows(), MorselRows(ctx));
  std::vector<double> partials(morsels.size(), 0.0);
  TQP_RETURN_NOT_OK(ctx.pool->ParallelFor(
      static_cast<int64_t>(morsels.size()), 1, [&](int64_t mb, int64_t me) -> Status {
        for (int64_t m = mb; m < me; ++m) {
          const RowRange r = morsels[static_cast<size_t>(m)];
          TQP_ASSIGN_OR_RETURN(Tensor part,
                               kernels::ReduceAll(op, a.SliceRows(r.begin, r.end)));
          partials[static_cast<size_t>(m)] = part.ScalarAsDouble(0);
        }
        return Status::OK();
      }));
  // Merge in morsel (= row) order. Min/max are order-free; integer sums are
  // exact in double below 2^53, so this matches the serial left-to-right scan.
  double acc = partials[0];
  for (size_t m = 1; m < partials.size(); ++m) {
    if (op == ReduceOpKind::kSum) {
      acc += partials[m];
    } else if (op == ReduceOpKind::kMin) {
      acc = std::min(acc, partials[m]);
    } else {
      acc = std::max(acc, partials[m]);
    }
  }
  const DType dt = op == ReduceOpKind::kSum ? DType::kFloat64 : a.dtype();
  return Tensor::Full(dt, 1, 1, acc, a.device());
}

Result<Tensor> ParallelSegmentedReduce(const ParallelContext& ctx, ReduceOpKind op,
                                       const Tensor& values,
                                       const Tensor& segment_ids,
                                       int64_t num_segments) {
  // Float sums must add each segment's rows in serial row order, and the
  // serial kernel does that faster than any order-preserving fan-out.
  const bool exact_parallel =
      op == ReduceOpKind::kCount || op == ReduceOpKind::kMin ||
      op == ReduceOpKind::kMax ||
      (op == ReduceOpKind::kSum && !IsFloatingPoint(values.dtype()));
  const int64_t n = values.rows();
  // Partial accumulator arrays cost slots * num_segments doubles; past ~64 MiB
  // total the merge pass stops paying for itself.
  const bool partials_fit =
      ctx.pool != nullptr &&
      num_segments <=
          (int64_t{1} << 23) / std::max(1, ctx.pool->max_parallel_slots());
  if (!exact_parallel || !partials_fit || !ShouldParallelize(ctx, n) ||
      segment_ids.dtype() != DType::kInt64 || segment_ids.cols() != 1 ||
      values.cols() != 1 || segment_ids.rows() != n || num_segments <= 0) {
    return kernels::SegmentedReduce(op, values, segment_ids, num_segments);
  }
  const int64_t* seg = segment_ids.data<int64_t>();
  const int slots = ctx.pool->max_parallel_slots();
  const size_t g = static_cast<size_t>(num_segments);

  if (op == ReduceOpKind::kCount) {
    std::vector<std::vector<int64_t>> partial(static_cast<size_t>(slots));
    TQP_RETURN_NOT_OK(ctx.pool->ParallelFor(
        n, MorselRows(ctx), [&](int64_t b, int64_t e, int slot) -> Status {
          auto& acc = partial[static_cast<size_t>(slot)];
          if (acc.empty()) acc.assign(g, 0);
          for (int64_t i = b; i < e; ++i) {
            if (seg[i] < 0 || seg[i] >= num_segments) {
              return Status::IndexError("segment id out of range");
            }
            ++acc[static_cast<size_t>(seg[i])];
          }
          return Status::OK();
        }));
    TQP_ASSIGN_OR_RETURN(
        Tensor out, Tensor::Full(DType::kInt64, num_segments, 1, 0, values.device()));
    int64_t* o = out.mutable_data<int64_t>();
    for (const auto& acc : partial) {
      if (acc.empty()) continue;
      for (size_t s = 0; s < g; ++s) o[s] += acc[s];
    }
    return out;
  }

  // Sum/min/max accumulate in float64, exactly as the serial kernel does.
  TQP_ASSIGN_OR_RETURN(Tensor cv, kernels::Cast(values, DType::kFloat64));
  const double* pv = cv.data<double>();
  const bool is_sum = op == ReduceOpKind::kSum;
  const double init = is_sum ? 0.0
                             : (op == ReduceOpKind::kMin
                                    ? std::numeric_limits<double>::infinity()
                                    : -std::numeric_limits<double>::infinity());
  std::vector<std::vector<double>> partial(static_cast<size_t>(slots));
  TQP_RETURN_NOT_OK(ctx.pool->ParallelFor(
      n, MorselRows(ctx), [&](int64_t b, int64_t e, int slot) -> Status {
        auto& acc = partial[static_cast<size_t>(slot)];
        if (acc.empty()) acc.assign(g, init);
        for (int64_t i = b; i < e; ++i) {
          const int64_t s = seg[i];
          if (s < 0 || s >= num_segments) {
            return Status::IndexError("segment id out of range");
          }
          if (is_sum) {
            acc[static_cast<size_t>(s)] += pv[i];
          } else if (op == ReduceOpKind::kMin) {
            acc[static_cast<size_t>(s)] = std::min(acc[static_cast<size_t>(s)], pv[i]);
          } else {
            acc[static_cast<size_t>(s)] = std::max(acc[static_cast<size_t>(s)], pv[i]);
          }
        }
        return Status::OK();
      }));
  TQP_ASSIGN_OR_RETURN(
      Tensor acc_t, Tensor::Full(DType::kFloat64, num_segments, 1, init, values.device()));
  double* o = acc_t.mutable_data<double>();
  for (const auto& acc : partial) {
    if (acc.empty()) continue;
    for (size_t s = 0; s < g; ++s) {
      if (is_sum) {
        o[s] += acc[s];
      } else if (op == ReduceOpKind::kMin) {
        o[s] = std::min(o[s], acc[s]);
      } else {
        o[s] = std::max(o[s], acc[s]);
      }
    }
  }
  if (!is_sum) {
    // Empty segments become 0, matching the serial kernel.
    for (size_t s = 0; s < g; ++s) {
      if (o[s] == init) o[s] = 0.0;
    }
  }
  const DType out_dt = is_sum ? DType::kFloat64 : values.dtype();
  return kernels::Cast(acc_t, out_dt);
}

Result<Tensor> ParallelArgsortRows(const ParallelContext& ctx, const Tensor& a,
                                   bool ascending, bool* ordered) {
  if (!ShouldParallelize(ctx, a.rows())) {
    return kernels::ArgsortRows(a, ascending, ordered);
  }
  const int64_t n = a.rows();
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(DType::kInt64, n, 1, a.device()));
  // Enough chunks to keep every worker busy, each big enough that its
  // per-pass histogram (or comparison sort) dominates the fan-out.
  const int64_t chunks = std::min<int64_t>(
      2 * ctx.pool->num_threads(), std::max<int64_t>(1, n / ctx.min_parallel_rows));
  const kernels::TaskRunner run =
      [&ctx](int64_t tasks, const std::function<Status(int64_t, int64_t)>& fn) {
        return ctx.pool->ParallelFor(tasks, 1, fn);
      };
  TQP_RETURN_NOT_OK(kernels::StableArgsortRange(
      a, 0, n, ascending, out.mutable_data<int64_t>(), chunks, run, ordered));
  return out;
}

namespace {

/// The argsort behind every breaker: the external merge sort when
/// partitioned breakers are on, else ParallelArgsortRows. Partitioned
/// breakers engage even with a 1-thread pool: the external merge sort's
/// budget-sized spillable runs matter for memory, not just speed. `ordered`
/// reports only ParallelArgsortRows' identity path.
Result<Tensor> BreakerArgsort(const ParallelContext& ctx, const Tensor& key,
                              bool ascending,
                              const std::function<void()>& release_input = {},
                              bool* ordered = nullptr) {
  if (!ctx.partitioned_breakers || ctx.pool == nullptr ||
      key.rows() < ctx.min_parallel_rows) {
    return ParallelArgsortRows(ctx, key, ascending, ordered);
  }
  op::partitioned::PartitionConfig config;
  auto* scope = BufferPool::QueryScope::Current();
  config.budget_bytes = scope != nullptr ? scope->budget_bytes() : 0;
  config.forced_bits = op::partitioned::ForcedPartitionBits();
  return op::partitioned::ExternalSortRows(ctx, key, ascending, config, nullptr,
                                           release_input);
}

}  // namespace

Result<Tensor> ParallelEvalNode(const ParallelContext& ctx,
                                const TensorProgram& program, const OpNode& node,
                                const std::vector<Tensor>& values) {
  auto in = [&](int i) -> const Tensor& {
    return values[static_cast<size_t>(node.inputs[static_cast<size_t>(i)])];
  };
  if (node.type == OpType::kArgsortRows) {
    std::function<void()> release;
    if (ctx.breaker_hooks != nullptr && ctx.breaker_hooks->release_input) {
      release = [&ctx, slot = node.inputs[0]] {
        ctx.breaker_hooks->release_input(static_cast<int>(slot));
      };
    }
    return EvalArgsort(node, values, [&](const Tensor& key, bool* ordered) {
      return BreakerArgsort(ctx, key, node.attrs.GetBool("ascending"), release,
                            ordered);
    });
  }
  if (node.type == OpType::kGroupIds) {
    return EvalGroupIds(node, values, [&ctx](const Tensor& key) {
      return BreakerArgsort(ctx, key, /*ascending=*/true);
    });
  }
  if (ctx.parallel()) {
    switch (node.type) {
      case OpType::kReduceAll:
        return ParallelReduceAll(
            ctx, static_cast<ReduceOpKind>(node.attrs.GetInt("op")), in(0));
      case OpType::kSegmentedReduce: {
        const Tensor& count = in(2);
        if (count.numel() != 1) break;  // serial error path
        return ParallelSegmentedReduce(
            ctx, static_cast<ReduceOpKind>(node.attrs.GetInt("op")), in(0), in(1),
            count.ScalarAsInt64(0));
      }
      default:
        break;  // streamable ops go parallel inside pipelines, not here
    }
  }
  return EvalNode(program, node, values);
}

}  // namespace tqp::runtime
