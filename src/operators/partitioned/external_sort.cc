#include "operators/partitioned/external_sort.h"

#include <algorithm>
#include <cstring>
#include <vector>

#include "kernels/kernels.h"
#include "kernels/sort_internal.h"
#include "obs/trace.h"
#include "tensor/buffer_pool.h"

namespace tqp::op::partitioned {

namespace {

/// One spillable fragment of a sorted run: the sorted key rows plus the
/// original row ids, both pool-backed so the spill tier sees them.
struct Page {
  Tensor keys;
  Tensor rows;
  uint64_t keys_id = 0;  // QueryScope registration ids (0 = not registered)
  uint64_t rows_id = 0;
};

struct Run {
  std::vector<Page> pages;
  int64_t rows = 0;
  size_t cur = 0;     // merge cursor: current page
  int64_t off = 0;    // merge cursor: row within current page
};

int64_t RowBytes(const Tensor& keys) {
  return keys.cols() * DTypeSize(keys.dtype());
}

void PinPage(BufferPool::QueryScope* scope, Page* page, Status* st) {
  if (scope == nullptr) return;
  if (page->keys_id != 0 && st->ok()) *st = scope->Pin(page->keys_id);
  if (page->rows_id != 0 && st->ok()) *st = scope->Pin(page->rows_id);
}

void ReleasePage(BufferPool::QueryScope* scope, Page* page, bool pinned) {
  if (scope != nullptr) {
    if (page->keys_id != 0) {
      if (pinned) scope->Unpin(page->keys_id);
      scope->Drop(page->keys_id);
    }
    if (page->rows_id != 0) {
      if (pinned) scope->Unpin(page->rows_id);
      scope->Drop(page->rows_id);
    }
  }
  page->keys_id = 0;
  page->rows_id = 0;
  page->keys = Tensor();
  page->rows = Tensor();
}

/// Stable-sorts run rows [begin, end) of `keys` and copies keys + row ids
/// into `run`'s pages in sorted order, registering each page as it is
/// written so earlier pages can evict while later ones form.
template <typename T>
Status FormRun(const Tensor& keys, int64_t begin, int64_t end, bool ascending,
               int64_t page_rows, BufferPool::QueryScope* scope, Run* run) {
  const int64_t cols = keys.cols();
  const T* p = keys.data<T>();
  std::vector<int64_t> perm(static_cast<size_t>(end - begin));
  TQP_RETURN_NOT_OK(
      kernels::StableArgsortRange(keys, begin, end, ascending, perm.data()));
  run->rows = end - begin;
  const size_t num_pages =
      static_cast<size_t>((run->rows + page_rows - 1) / page_rows);
  run->pages.resize(num_pages);
  for (size_t pg = 0; pg < num_pages; ++pg) {
    const int64_t lo = static_cast<int64_t>(pg) * page_rows;
    const int64_t hi = std::min<int64_t>(run->rows, lo + page_rows);
    Page& page = run->pages[pg];
    TQP_ASSIGN_OR_RETURN(page.keys, Tensor::Empty(keys.dtype(), hi - lo, cols,
                                                  keys.device()));
    TQP_ASSIGN_OR_RETURN(page.rows,
                         Tensor::Empty(DType::kInt64, hi - lo, 1, keys.device()));
    T* pk = page.keys.mutable_data<T>();
    int64_t* pr = page.rows.mutable_data<int64_t>();
    for (int64_t i = lo; i < hi; ++i) {
      const int64_t src = perm[static_cast<size_t>(i)];
      std::memcpy(pk + (i - lo) * cols, p + src * cols,
                  static_cast<size_t>(cols) * sizeof(T));
      pr[i - lo] = src;
    }
    if (scope != nullptr) {
      page.keys_id = scope->AddSpillable(&page.keys);
      page.rows_id = scope->AddSpillable(&page.rows);
    }
  }
  return Status::OK();
}

/// Descending sort uses the serial comparator's tie rule (equal keys keep
/// original order in *both* directions), so the merge tie-break is the same:
/// lower run index first.
template <typename T>
Status MergeRuns(std::vector<Run>* runs, int64_t cols, bool ascending,
                 BufferPool::QueryScope* scope, int64_t* out) {
  std::vector<Run>& rs = *runs;
  Status pin_st;
  for (Run& run : rs) {
    if (!run.pages.empty()) PinPage(scope, &run.pages[0], &pin_st);
  }
  TQP_RETURN_NOT_OK(pin_st);
  auto key_at = [&](const Run& run) -> const T* {
    return run.pages[run.cur].keys.template data<T>() + run.off * cols;
  };
  // Max-heap comparator: true when run a's current row comes *after* run b's.
  auto after = [&](int a, int b) {
    const int c = kernels::CompareRows<T>(key_at(rs[static_cast<size_t>(a)]),
                                          key_at(rs[static_cast<size_t>(b)]), cols);
    if (c != 0) return ascending ? c > 0 : c < 0;
    return a > b;  // equal keys: lower run = lower original row ids
  };
  std::vector<int> heap;
  heap.reserve(rs.size());
  for (size_t r = 0; r < rs.size(); ++r) {
    if (rs[r].rows > 0) heap.push_back(static_cast<int>(r));
  }
  std::make_heap(heap.begin(), heap.end(), after);
  int64_t w = 0;
  while (!heap.empty()) {
    std::pop_heap(heap.begin(), heap.end(), after);
    const int r = heap.back();
    heap.pop_back();
    Run& run = rs[static_cast<size_t>(r)];
    Page& page = run.pages[run.cur];
    out[w++] = page.rows.data<int64_t>()[run.off];
    if (++run.off >= page.rows.rows()) {
      ReleasePage(scope, &page, /*pinned=*/true);
      run.off = 0;
      if (++run.cur < run.pages.size()) {
        PinPage(scope, &run.pages[run.cur], &pin_st);
        TQP_RETURN_NOT_OK(pin_st);
      } else {
        continue;  // run exhausted
      }
    }
    heap.push_back(r);
    std::push_heap(heap.begin(), heap.end(), after);
  }
  return Status::OK();
}

template <typename T>
Status ExternalSortTyped(const runtime::ParallelContext& ctx, Tensor keys,
                         bool ascending, int64_t run_rows, int64_t page_rows,
                         BufferPool::QueryScope* scope,
                         const std::function<void()>& release_input,
                         Tensor* out_tensor) {
  const int64_t n = keys.rows();
  const int64_t cols = keys.cols();
  const DeviceKind device = keys.device();
  const size_t num_runs = static_cast<size_t>((n + run_rows - 1) / run_rows);
  std::vector<Run> runs(num_runs);
  auto form = [&](int64_t rb, int64_t re) -> Status {
    for (int64_t r = rb; r < re; ++r) {
      const int64_t begin = r * run_rows;
      const int64_t end = std::min(n, begin + run_rows);
      TQP_RETURN_NOT_OK(FormRun<T>(keys, begin, end, ascending, page_rows,
                                   scope, &runs[static_cast<size_t>(r)]));
    }
    return Status::OK();
  };
  Status st = ctx.pool != nullptr
                  ? ctx.pool->ParallelFor(static_cast<int64_t>(num_runs), 1, form)
                  : form(0, static_cast<int64_t>(num_runs));
  if (!st.ok()) {
    for (Run& run : runs) {
      for (size_t pg = 0; pg < run.pages.size(); ++pg) {
        ReleasePage(scope, &run.pages[pg], /*pinned=*/false);
      }
    }
    return st;
  }
  // Every key byte now lives in the run pages: drop the input (and, via the
  // executor hook, its values-slot handle) before the merge allocates the
  // output — this is the resident-floor win over the monolithic sort.
  keys = Tensor();
  if (release_input) release_input();
  auto out_result = Tensor::Empty(DType::kInt64, n, 1, device);
  if (!out_result.ok()) {
    for (Run& run : runs) {
      for (size_t pg = 0; pg < run.pages.size(); ++pg) {
        ReleasePage(scope, &run.pages[pg], /*pinned=*/false);
      }
    }
    return out_result.status();
  }
  *out_tensor = std::move(out_result).ValueOrDie();
  int64_t* out = out_tensor->mutable_data<int64_t>();
  st = MergeRuns<T>(&runs, cols, ascending, scope, out);
  for (Run& run : runs) {
    // Pages at the merge cursor are pinned on the error path; past ones are
    // already released and future ones were never pinned.
    for (size_t pg = run.cur; pg < run.pages.size(); ++pg) {
      ReleasePage(scope, &run.pages[pg], /*pinned=*/!st.ok() && pg == run.cur);
    }
  }
  return st;
}

}  // namespace

Result<Tensor> ExternalSortRows(const runtime::ParallelContext& ctx,
                                Tensor keys, bool ascending,
                                const PartitionConfig& config,
                                PartitionStats* stats,
                                const std::function<void()>& release_input) {
  const int64_t n = keys.rows();
  const int64_t bytes_per_row = RowBytes(keys) + int64_t{8};  // keys + row id
  const int bits = config.forced_bits >= 0
                       ? config.forced_bits
                       : ChoosePartitionBits(
                             n, bytes_per_row, config.budget_bytes,
                             ctx.pool != nullptr ? ctx.pool->num_threads() : 1);
  const int64_t num_runs = int64_t{1} << bits;
  if (num_runs <= 1 || n <= 1) {
    if (stats != nullptr) stats->partitions = 1;
    return runtime::ParallelArgsortRows(ctx, keys, ascending);
  }
  const int64_t run_rows = (n + num_runs - 1) / num_runs;
  // Merge pins one page per run; under a budget the pinned frontier must
  // leave most of the budget for the output and faulting headroom.
  int64_t page_bytes = config.page_bytes;
  if (page_bytes <= 0 && config.budget_bytes > 0) {
    page_bytes = config.budget_bytes / (4 * num_runs);
  }
  PartitionConfig page_config = config;
  page_config.page_bytes = page_bytes;
  const int64_t page_rows =
      std::min(run_rows, PageRows(page_config, bytes_per_row));

  obs::TraceSpan span("breaker", "external_sort");
  BufferPool::QueryScope* scope = BufferPool::QueryScope::Current();
  if (scope != nullptr && !scope->spill_enabled()) scope = nullptr;
  const int64_t spilled_before =
      scope != nullptr ? scope->stats().spilled_bytes : 0;

  // The output is allocated *inside* the typed sort, after run formation has
  // released the input: charging it earlier would put input + output + pages
  // resident at once and raise the floor above the monolithic sort's.
  Tensor out;
  Status st;
  switch (keys.dtype()) {
    case DType::kBool:
      st = ExternalSortTyped<bool>(ctx, std::move(keys), ascending, run_rows,
                                   page_rows, scope, release_input, &out);
      break;
    case DType::kUInt8:
      st = ExternalSortTyped<uint8_t>(ctx, std::move(keys), ascending, run_rows,
                                      page_rows, scope, release_input, &out);
      break;
    case DType::kInt32:
      st = ExternalSortTyped<int32_t>(ctx, std::move(keys), ascending, run_rows,
                                      page_rows, scope, release_input, &out);
      break;
    case DType::kInt64:
      st = ExternalSortTyped<int64_t>(ctx, std::move(keys), ascending, run_rows,
                                      page_rows, scope, release_input, &out);
      break;
    case DType::kFloat32:
      st = ExternalSortTyped<float>(ctx, std::move(keys), ascending, run_rows,
                                    page_rows, scope, release_input, &out);
      break;
    case DType::kFloat64:
      st = ExternalSortTyped<double>(ctx, std::move(keys), ascending, run_rows,
                                     page_rows, scope, release_input, &out);
      break;
  }
  TQP_RETURN_NOT_OK(st);

  PartitionStats local;
  local.partitions = num_runs;
  local.spilled_bytes =
      (scope != nullptr ? scope->stats().spilled_bytes : 0) - spilled_before;
  span.AddArg("partitions", local.partitions);
  span.AddArg("spilled_bytes", local.spilled_bytes);
  RecordBreakerStats("external_sort", local);
  if (stats != nullptr) *stats = local;
  return out;
}

}  // namespace tqp::op::partitioned
