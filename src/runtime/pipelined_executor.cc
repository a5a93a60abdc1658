#include "runtime/pipelined_executor.h"

#include <algorithm>
#include <sstream>
#include <unordered_map>
#include <utility>

#include <atomic>

#include "common/cancel.h"
#include "common/fault.h"
#include "common/stopwatch.h"
#include "graph/eval.h"
#include "graph/op_type.h"
#include "kernels/expr_exec.h"
#include "kernels/selection.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "operators/partitioned/partition.h"
#include "runtime/morsel.h"
#include "runtime/query_context.h"
#include "runtime/step_scheduler.h"
#include "runtime/task_graph.h"

namespace tqp {

using runtime::MorselRows;
using runtime::ParallelContext;
using runtime::ThreadPool;

PipelinedExecutor::PipelinedExecutor(std::shared_ptr<const TensorProgram> program,
                                     ExecOptions options)
    : program_(std::move(program)), options_(options) {
  options_.num_threads = std::min(options_.num_threads, 256);
  if (options_.pool != nullptr) {
    pool_ = options_.pool;  // shared cross-query pool
  } else if (options_.num_threads == 0) {
    pool_ = ThreadPool::Global();
  } else if (options_.num_threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    pool_ = owned_pool_.get();
  }  // num_threads == 1 (or negative): pool_ stays null -> serial morsel loop
  if (options_.adaptive_morsels || runtime::DefaultAdaptiveMorsels()) {
    adaptive_ =
        std::make_unique<runtime::AdaptiveMorselController>(morsel_rows());
  }
  plan_ = BuildPipelinePlan(*program_);
  fusion_cache_.resize(plan_.pipelines.size());
}

int64_t PipelinedExecutor::morsel_rows() const {
  return options_.morsel_rows > 0 ? options_.morsel_rows
                                  : runtime::DefaultMorselRows();
}

namespace {

/// Evaluates one streamed node over the morsel [b, e) of the driver domain.
/// `scratch` holds this morsel's bound sources and previously evaluated
/// chain values, indexed by global node id. The three offset-corrected ops
/// (arange_like, head, nonzero) are only streamed when their input domain is
/// the driver domain itself, so `b` is their global row offset.
Result<Tensor> EvalMorselNode(const TensorProgram& prog, const OpNode& node,
                              const std::vector<Tensor>& scratch, int64_t b) {
  switch (node.type) {
    case OpType::kArangeLike: {
      const Tensor& in0 = scratch[static_cast<size_t>(node.inputs[0])];
      TQP_ASSIGN_OR_RETURN(
          Tensor out, Tensor::Arange(in0.rows(), DType::kInt64, in0.device()));
      if (b > 0) {
        int64_t* po = out.mutable_data<int64_t>();
        for (int64_t i = 0; i < out.rows(); ++i) po[i] += b;
      }
      return out;
    }
    case OpType::kHeadRows: {
      const Tensor& in0 = scratch[static_cast<size_t>(node.inputs[0])];
      const int64_t n = node.attrs.GetInt("n");
      const int64_t keep = std::clamp<int64_t>(n - b, 0, in0.rows());
      return in0.SliceRows(0, keep);  // view; chunks are copied on assembly
    }
    case OpType::kNonzero: {
      TQP_ASSIGN_OR_RETURN(Tensor out, EvalNode(prog, node, scratch));
      if (b > 0) {
        int64_t* po = out.mutable_data<int64_t>();
        for (int64_t i = 0; i < out.rows(); ++i) po[i] += b;
      }
      return out;
    }
    default:
      return EvalNode(prog, node, scratch);
  }
}

/// Resolves and attaches the query context one run executes under, with one
/// precedence rule per piece: an ambient scope or token wins (the
/// QueryScheduler's, already sized and armed for the query); otherwise the
/// run owns a scope when ExecOptions::memory_budget_bytes (or
/// TQP_MEMORY_BUDGET_MB) sets a budget, and a token when
/// ExecOptions::deadline_ms (or TQP_QUERY_TIMEOUT_MS) sets a deadline.
class RunContext {
 public:
  RunContext(int64_t option_budget_bytes, int64_t option_deadline_ms)
      : attach_(Resolve(option_budget_bytes, option_deadline_ms)) {}

  RunContext(const RunContext&) = delete;
  RunContext& operator=(const RunContext&) = delete;

 private:
  runtime::QueryContext Resolve(int64_t option_budget_bytes,
                                int64_t option_deadline_ms) {
    runtime::QueryContext context = runtime::QueryContext::Capture();
    if (context.scope == nullptr) {
      const int64_t budget = BufferPool::ResolveMemoryBudget(option_budget_bytes);
      if (budget > 0) {
        owned_scope_ = std::make_unique<BufferPool::QueryScope>(budget);
        context.scope = owned_scope_.get();
      }
    }
    if (context.token == nullptr) {
      const int64_t deadline_ms = ResolveDeadlineMs(option_deadline_ms);
      if (deadline_ms > 0) {
        owned_token_ = std::make_unique<CancellationToken>();
        owned_token_->SetDeadlineAfterMs(deadline_ms);
        context.token = owned_token_.get();
      }
    }
    return context;
  }

  // Declared before attach_: constructed before Resolve fills them, and
  // destroyed only after the context detaches.
  std::unique_ptr<BufferPool::QueryScope> owned_scope_;
  std::unique_ptr<CancellationToken> owned_token_;
  runtime::QueryContext::Attach attach_;
};

}  // namespace

Status PipelinedExecutor::EvalWholeNode(const OpNode& node,
                                        std::vector<Tensor>* values,
                                        const ParallelContext& ctx) {
  obs::TraceSpan op_span("op", OpTypeName(node.type));
  if (op_span.enabled()) op_span.AddArg("node", node.id);
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       runtime::ParallelEvalNode(ctx, *program_, node, *values));
  if (op_span.enabled()) op_span.AddArg("output_bytes", out.nbytes());
  (*values)[static_cast<size_t>(node.id)] = std::move(out);
  return Status::OK();
}

Status PipelinedExecutor::RunPipelineSerial(const Pipeline& p,
                                            std::vector<Tensor>* values,
                                            const ParallelContext& ctx) {
  for (const PipelineNode& pn : p.nodes) {
    TQP_RETURN_NOT_OK(EvalWholeNode(program_->node(pn.id), values, ctx));
  }
  // Chain nodes that are not pipeline outputs have no readers outside this
  // step (FinalizePipelines materializes every externally-read node): drop
  // them now so the fallback's footprint matches the streaming path's.
  for (const PipelineNode& pn : p.nodes) {
    if (std::find(p.outputs.begin(), p.outputs.end(), pn.id) ==
        p.outputs.end()) {
      (*values)[static_cast<size_t>(pn.id)] = Tensor();
    }
  }
  return Status::OK();
}

Status PipelinedExecutor::RunPipeline(int pipeline_index, const Pipeline& p,
                                      std::vector<Tensor>* values,
                                      const ParallelContext& ctx) {
  // Resolve the driver domain from the sliced sources: the first one that is
  // not a 1-row broadcast, whatever the operand order. A source whose row
  // count matches neither the driver nor 1 (a runtime broadcast the splitter
  // could not see) falls back to whole-node evaluation — same results, no
  // streaming.
  obs::TraceSpan pipeline_span("pipeline", "pipeline");
  if (pipeline_span.enabled()) {
    pipeline_span.AddArg("index", pipeline_index);
    pipeline_span.AddArg("ops", static_cast<int64_t>(p.nodes.size()));
  }
  if (p.sliced_sources.empty()) {
    return Status::Internal("pipelined executor: pipeline without a driver");
  }
  int64_t driver_rows = 1;
  for (int src : p.sliced_sources) {
    const Tensor& t = (*values)[static_cast<size_t>(src)];
    if (!t.defined()) {
      return Status::Internal("pipelined executor: undefined sliced source");
    }
    if (t.rows() != 1) {
      driver_rows = t.rows();
      break;
    }
  }
  std::vector<bool> slice_now(p.sliced_sources.size(), false);
  for (size_t i = 0; i < p.sliced_sources.size(); ++i) {
    const Tensor& t = (*values)[static_cast<size_t>(p.sliced_sources[i])];
    if (t.rows() == driver_rows) {
      slice_now[i] = true;
    } else if (t.rows() != 1) {
      return RunPipelineSerial(p, values, ctx);
    } else if (p.has_offset_op) {
      // A 1-row broadcast source means some "driver-aligned" value really
      // lives in the broadcast domain; an offset-corrected op downstream
      // would add morsel offsets to non-driver rows. Evaluate whole.
      return RunPipelineSerial(p, values, ctx);
    }
  }

  // Adaptive sizing reads one size per pipeline run; the per-morsel
  // decomposition below is then fixed for this run, so chunk assembly (in
  // morsel order) produces bit-identical results at whatever size the
  // controller settled on. Chosen before the fusion probe: the probe IS
  // morsel 0's evaluation, so it must cover exactly this run's first morsel.
  const int64_t morsel = adaptive_ != nullptr ? adaptive_->rows()
                                              : MorselRows(ctx);
  static obs::Gauge* morsel_rows_gauge =
      obs::MetricsRegistry::Global()->GetGauge(
          "tqp_morsel_rows", "Rows per morsel used by the last pipeline run");
  morsel_rows_gauge->Set(morsel);
  if (pipeline_span.enabled()) pipeline_span.AddArg("morsel_rows", morsel);

  // Expression fusion: maximal elementwise/selection runs of this pipeline
  // execute as one compiled ExprProgram per morsel instead of node-at-a-time.
  // A compile (cache miss) probes one morsel node-at-a-time; its outputs
  // seed morsel 0 below, so the probe is that morsel's one evaluation, not
  // discarded work.
  std::shared_ptr<const ExprFusionPlan> fusion;
  ProbeResult probe;
  if (options_.expr_fusion) {
    TQP_ASSIGN_OR_RETURN(fusion, FusionFor(pipeline_index, p, *values,
                                           slice_now, driver_rows, morsel,
                                           &probe));
  }
  const int64_t num_morsels =
      driver_rows == 0 ? 1 : (driver_rows + morsel - 1) / morsel;
  const size_t num_nodes = static_cast<size_t>(program_->num_nodes());

  std::vector<std::vector<Tensor>> chunks(
      p.outputs.size(), std::vector<Tensor>(static_cast<size_t>(num_morsels)));

  // Out-of-core streaming: under a memory budget, every *completed* morsel
  // chunk registers as an eviction candidate — the accumulation phase of a
  // long pipeline holds only the chunks the budget allows, the rest wait on
  // disk, and assembly below faults them back one at a time. Per-chunk
  // shape metadata is recorded at evaluation time so assembly can size the
  // output without touching spilled chunks.
  BufferPool::QueryScope* scope = BufferPool::QueryScope::Current();
  const bool spill_chunks = scope != nullptr && scope->spill_enabled();
  struct ChunkMeta {
    int64_t rows = 0;
    int64_t cols = 0;
    DType dtype = DType::kFloat64;
  };
  std::vector<std::vector<uint64_t>> chunk_ids;
  std::vector<std::vector<ChunkMeta>> chunk_meta;
  if (spill_chunks) {
    chunk_ids.assign(p.outputs.size(),
                     std::vector<uint64_t>(static_cast<size_t>(num_morsels), 0));
    chunk_meta.assign(
        p.outputs.size(),
        std::vector<ChunkMeta>(static_cast<size_t>(num_morsels)));
  }
  // Registered chunk records point into `chunks`; drop them on every exit
  // path (assembly zeroes the ids it consumes) so no record outlives it.
  struct ChunkSpillGuard {
    BufferPool::QueryScope* scope;
    std::vector<std::vector<uint64_t>>* ids;
    ~ChunkSpillGuard() {
      if (scope == nullptr) return;
      for (auto& per_output : *ids) {
        for (uint64_t id : per_output) {
          if (id != 0) scope->Drop(id);
        }
      }
    }
  } chunk_guard{spill_chunks ? scope : nullptr, &chunk_ids};

  // Per-slot morsel state: the node-indexed scratch, the fused runs'
  // register arena, and a bound flag so unchanged non-driver sources
  // (broadcasts, whole operands) bind once per pipeline run, not per morsel.
  struct MorselSlot {
    std::vector<Tensor> scratch;
    kernels::ExprScratch expr;
    std::vector<Tensor> run_sources;
    std::vector<Tensor> run_outputs;
    bool bound = false;
  };

  auto eval_morsel = [&](int64_t b, int64_t e, int64_t m,
                         MorselSlot* slot) -> Status {
    // Cooperative cancellation poll: a cancelled/expired query stops before
    // the next morsel evaluates, and the resulting non-OK status unwinds
    // through the same cleanup every real error takes (chunk guard, spill
    // drops, scope teardown).
    TQP_RETURN_NOT_OK(CheckAmbientCancelled());
    morsel_evals_.fetch_add(1, std::memory_order_relaxed);
    static obs::Counter* morsel_metric =
        obs::MetricsRegistry::Global()->GetCounter(
            "tqp_morsel_evals_total",
            "Morsel batches evaluated by pipelined executors");
    morsel_metric->Add(1);
    obs::TraceSpan morsel_span("morsel", "morsel");
    if (morsel_span.enabled()) {
      morsel_span.AddArg("begin", b);
      morsel_span.AddArg("rows", e - b);
    }
    Stopwatch morsel_timer;
    std::vector<Tensor>& scratch = slot->scratch;
    if (scratch.empty()) scratch.resize(num_nodes);
    if (!slot->bound) {
      for (size_t i = 0; i < p.sliced_sources.size(); ++i) {
        const size_t src = static_cast<size_t>(p.sliced_sources[i]);
        if (!slice_now[i]) scratch[src] = (*values)[src];
      }
      for (int src : p.whole_sources) {
        scratch[static_cast<size_t>(src)] = (*values)[static_cast<size_t>(src)];
      }
      slot->bound = true;
    }
    for (size_t i = 0; i < p.sliced_sources.size(); ++i) {
      const size_t src = static_cast<size_t>(p.sliced_sources[i]);
      if (slice_now[i]) scratch[src] = (*values)[src].SliceRows(b, e);
    }
    size_t ni = 0;
    while (ni < p.nodes.size()) {
      const int run_id =
          fusion != nullptr ? fusion->run_start[ni] : -1;
      if (run_id >= 0) {
        const ExprFusionPlan::Run& run =
            fusion->runs[static_cast<size_t>(run_id)];
        const ExprProgram& ep = *run.program;
        slot->run_sources.clear();
        for (int id : ep.source_nodes()) {
          slot->run_sources.push_back(scratch[static_cast<size_t>(id)]);
        }
        TQP_RETURN_NOT_OK(kernels::RunExprProgram(
            ep, slot->run_sources, b, options_.device, &slot->expr,
            &slot->run_outputs));
        for (size_t k = 0; k < ep.output_nodes().size(); ++k) {
          scratch[static_cast<size_t>(ep.output_nodes()[k])] =
              std::move(slot->run_outputs[k]);
        }
        ni = run.end;
        continue;
      }
      const OpNode& node = program_->node(p.nodes[ni].id);
      TQP_ASSIGN_OR_RETURN(Tensor out,
                           EvalMorselNode(*program_, node, scratch, b));
      scratch[static_cast<size_t>(node.id)] = std::move(out);
      ++ni;
    }
    for (size_t oi = 0; oi < p.outputs.size(); ++oi) {
      // Move, not copy: the scratch slot is re-produced before its next
      // read (topological order), and leaving a second reference would keep
      // an evicted chunk's bytes resident.
      Tensor& chunk = chunks[oi][static_cast<size_t>(m)];
      chunk = std::move(scratch[static_cast<size_t>(p.outputs[oi])]);
      if (spill_chunks) {
        chunk_meta[oi][static_cast<size_t>(m)] = {chunk.rows(), chunk.cols(),
                                                  chunk.dtype()};
        chunk_ids[oi][static_cast<size_t>(m)] = scope->AddSpillable(&chunk);
      }
    }
    if (adaptive_ != nullptr) {
      adaptive_->Observe(e - b, morsel_timer.ElapsedNanos());
    }
    return Status::OK();
  };

  // A fusion compile already evaluated morsel 0 (the probe): reuse its
  // outputs instead of evaluating the first morsel twice.
  const bool seeded = probe.probed;
  if (seeded) {
    for (size_t oi = 0; oi < p.outputs.size(); ++oi) {
      chunks[oi][0] = std::move(probe.outputs[oi]);
      if (spill_chunks) {
        chunk_meta[oi][0] = {chunks[oi][0].rows(), chunks[oi][0].cols(),
                             chunks[oi][0].dtype()};
        chunk_ids[oi][0] = scope->AddSpillable(&chunks[oi][0]);
      }
    }
  }

  const bool fan_out = ctx.parallel() && num_morsels > 1;
  if (!fan_out) {
    MorselSlot slot;
    for (int64_t m = seeded ? 1 : 0; m < num_morsels; ++m) {
      const int64_t b = m * morsel;
      const int64_t e = std::min(driver_rows, b + morsel);
      TQP_RETURN_NOT_OK(eval_morsel(b, e, m, &slot));
    }
  } else {
    std::vector<MorselSlot> slots(
        static_cast<size_t>(ctx.pool->max_parallel_slots()));
    TQP_RETURN_NOT_OK(ctx.pool->ParallelFor(
        driver_rows, morsel, [&](int64_t b, int64_t e, int slot) -> Status {
          if (seeded && b == 0) return Status::OK();  // probe covered it
          return eval_morsel(b, e, b / morsel,
                             &slots[static_cast<size_t>(slot)]);
        }));
  }

  // Assemble pipeline outputs from chunks in morsel order — the stable
  // per-morsel decomposition makes the concatenation bit-identical to the
  // serial evaluation of the whole chain. Under a budget, chunks fault back
  // from disk one at a time and release right after their copy, so assembly
  // holds one output plus one chunk instead of one output plus all chunks
  // (the layout below mirrors ConcatRows exactly, zero-padded narrow uint8
  // parts included).
  for (size_t oi = 0; oi < p.outputs.size(); ++oi) {
    std::vector<Tensor>& parts = chunks[oi];
    Tensor& dst = (*values)[static_cast<size_t>(p.outputs[oi])];
    if (parts.size() == 1) {
      if (spill_chunks) {
        TQP_RETURN_NOT_OK(scope->Pin(chunk_ids[oi][0]));
        scope->Drop(chunk_ids[oi][0]);
        chunk_ids[oi][0] = 0;
      }
      dst = std::move(parts[0]);
    } else if (!spill_chunks) {
      TQP_ASSIGN_OR_RETURN(dst, runtime::ParallelConcatRows(ctx, parts));
    } else {
      const std::vector<ChunkMeta>& meta = chunk_meta[oi];
      const DType dt = meta[0].dtype;
      int64_t total = 0;
      int64_t out_cols = meta[0].cols;
      bool mixed_width = false;
      for (const ChunkMeta& cm : meta) {
        total += cm.rows;
        if (cm.cols != out_cols) mixed_width = true;
        out_cols = std::max(out_cols, cm.cols);
      }
      if (mixed_width && dt != DType::kUInt8) {
        // Mirror ConcatRows: only padded strings may differ in width.
        // Fault everything back and let the kernel raise its error.
        for (size_t m = 0; m < parts.size(); ++m) {
          TQP_RETURN_NOT_OK(scope->Pin(chunk_ids[oi][m]));
          scope->Drop(chunk_ids[oi][m]);
          chunk_ids[oi][m] = 0;
        }
        TQP_ASSIGN_OR_RETURN(dst, runtime::ParallelConcatRows(ctx, parts));
        parts.clear();
        continue;
      }
      TQP_ASSIGN_OR_RETURN(
          Tensor out, Tensor::Empty(dt, total, out_cols, options_.device));
      auto* out_bytes = static_cast<uint8_t*>(out.raw_mutable_data());
      for (size_t m = 0; m < parts.size(); ++m) {
        TQP_RETURN_NOT_OK(scope->Pin(chunk_ids[oi][m]));
        const Tensor& c = parts[m];
        if (c.defined() && c.nbytes() > 0) {
          // The one shared definition of the row-concat byte layout
          // (mixed-width uint8 padding included) — see ConcatRows.
          kernels::AppendRowsPadded(c, out_cols, &out_bytes);
        }
        scope->Drop(chunk_ids[oi][m]);
        chunk_ids[oi][m] = 0;
        parts[m] = Tensor();  // one chunk resident at a time
      }
      dst = std::move(out);
    }
    parts.clear();  // release morsel chunks back to the buffer pool early
  }
  return Status::OK();
}

Result<std::shared_ptr<const ExprFusionPlan>> PipelinedExecutor::FusionFor(
    int pipeline_index, const Pipeline& p, const std::vector<Tensor>& values,
    const std::vector<bool>& slice_now, int64_t driver_rows,
    int64_t morsel_rows, ProbeResult* probe) {
  // Source signature: everything lowering depends on that can drift between
  // runs — dtype, broadcast binding, and the shape rank/stride class (the
  // actual column arity plus a scalar/driver-aligned/other row class, so a
  // batch that changes broadcast arity can never be served the previous
  // shape's program). Streamed node dtypes/shapes are a function of the
  // sources, so they need not participate.
  std::string sig;
  const auto append = [&sig, driver_rows](int id, const Tensor& t,
                                          bool broadcast) {
    sig += std::to_string(id);
    sig.push_back(':');
    sig += std::to_string(static_cast<int>(t.dtype()));
    sig.push_back(broadcast ? 'b' : 'v');
    sig += std::to_string(t.cols());
    sig.push_back(t.rows() == 1 ? 's'
                                : (t.rows() == driver_rows ? 'd' : 'o'));
    sig.push_back('/');
  };
  for (size_t i = 0; i < p.sliced_sources.size(); ++i) {
    const Tensor& t = values[static_cast<size_t>(p.sliced_sources[i])];
    append(p.sliced_sources[i], t, !slice_now[i]);
  }
  for (int src : p.whole_sources) {
    const Tensor& t = values[static_cast<size_t>(src)];
    append(src, t, t.rows() == 1);
  }

  {
    MutexLock lock(fusion_mu_);
    FusionCacheEntry& entry =
        fusion_cache_[static_cast<size_t>(pipeline_index)];
    if (entry.compiled && entry.signature == sig) return entry.fusion;
  }

  // Cache miss: probe and compile WITHOUT the executor-wide lock, so
  // first-run compiles of independent pipelines overlap and report readers
  // never wait on a probe. Concurrent compiles of one pipeline are benign —
  // lowering is deterministic per signature, and each racer returns the
  // plan matching its own bound sources (and seeds its own morsel 0 from
  // its own probe).
  // Probe one morsel node-at-a-time so the compiler sees every streamed
  // value's dtype/shape. The probe is exactly morsel 0's evaluation — its
  // outputs are handed back through `probe` so the caller does not evaluate
  // that morsel again. Lowering reads only a streamed value's dtype and
  // width, so the probe records those and releases each chain value after
  // its last reader here: it holds what one node-at-a-time morsel needs,
  // not the whole chain. Pipeline outputs stay (they seed morsel 0).
  obs::TraceSpan fusion_span("compile", "fusion.compile");
  if (fusion_span.enabled()) fusion_span.AddArg("pipeline", pipeline_index);
  morsel_evals_.fetch_add(1, std::memory_order_relaxed);
  const int64_t probe_rows = std::min(driver_rows, morsel_rows);
  const size_t num_nodes = static_cast<size_t>(program_->num_nodes());
  std::vector<Tensor> scratch(num_nodes);
  // Per node id: the last p.nodes index reading it, whether it must outlive
  // the probe, and (for streamed values) the shape lowering needs.
  std::vector<size_t> last_reader(num_nodes, 0);
  std::vector<bool> keep(num_nodes, false);
  struct StreamedShape {
    bool known = false;
    DType dtype = DType::kFloat64;
    int64_t cols = 0;
  };
  std::vector<StreamedShape> streamed(num_nodes);
  for (size_t k = 0; k < p.nodes.size(); ++k) {
    for (int in : program_->node(p.nodes[k].id).inputs) {
      last_reader[static_cast<size_t>(in)] = k;
    }
  }
  for (int out : p.outputs) keep[static_cast<size_t>(out)] = true;
  for (size_t i = 0; i < p.sliced_sources.size(); ++i) {
    const size_t src = static_cast<size_t>(p.sliced_sources[i]);
    scratch[src] =
        slice_now[i] ? values[src].SliceRows(0, probe_rows) : values[src];
  }
  for (int src : p.whole_sources) {
    scratch[static_cast<size_t>(src)] = values[static_cast<size_t>(src)];
  }
  const auto release_after = [&](int id, size_t k) {
    const size_t i = static_cast<size_t>(id);
    if (streamed[i].known && !keep[i] && last_reader[i] <= k) {
      scratch[i] = Tensor();
    }
  };
  for (size_t k = 0; k < p.nodes.size(); ++k) {
    const OpNode& node = program_->node(p.nodes[k].id);
    TQP_ASSIGN_OR_RETURN(Tensor out, EvalMorselNode(*program_, node, scratch, 0));
    const size_t id = static_cast<size_t>(node.id);
    streamed[id] = {true, out.dtype(), out.cols()};
    scratch[id] = std::move(out);
    for (int in : node.inputs) release_after(in, k);
    release_after(node.id, k);  // no reader left in this pipeline
  }
  probe->probed = true;
  probe->outputs.resize(p.outputs.size());
  for (size_t oi = 0; oi < p.outputs.size(); ++oi) {
    probe->outputs[oi] = scratch[static_cast<size_t>(p.outputs[oi])];
  }

  std::unordered_map<int, ExprExternal> externals;
  for (size_t i = 0; i < p.sliced_sources.size(); ++i) {
    const int id = p.sliced_sources[i];
    const Tensor& t = values[static_cast<size_t>(id)];
    ExprExternal ext;
    ext.dtype = t.dtype();
    ext.scalar = !slice_now[i];
    ext.single_col = t.cols() == 1;
    ext.driver_aligned = slice_now[i];
    externals.emplace(id, ext);
  }
  for (int id : p.whole_sources) {
    const Tensor& t = values[static_cast<size_t>(id)];
    ExprExternal ext;
    ext.dtype = t.dtype();
    ext.scalar = t.rows() == 1;
    ext.single_col = t.cols() == 1;
    ext.driver_aligned = false;
    ext.constant =
        program_->node(id).type == OpType::kConstant ? &t : nullptr;
    externals.emplace(id, ext);
  }
  std::vector<int> candidates;
  candidates.reserve(p.nodes.size());
  for (const PipelineNode& pn : p.nodes) candidates.push_back(pn.id);
  const auto external = [&](int id, ExprExternal* info) {
    auto it = externals.find(id);
    if (it != externals.end()) {
      *info = it->second;
      return true;
    }
    // A streamed value of this pipeline: the probe recorded its dtype/shape.
    const StreamedShape& shape = streamed[static_cast<size_t>(id)];
    if (!shape.known) return false;
    info->dtype = shape.dtype;
    info->scalar = false;
    info->single_col = shape.cols == 1;
    info->driver_aligned = false;  // overridden by the builder's own tracking
    info->constant = nullptr;
    return true;
  };
  ExprFusionPlan compiled =
      BuildExprFusionPlan(*program_, candidates, p.outputs, external);
  std::shared_ptr<const ExprFusionPlan> fusion =
      compiled.runs.empty()
          ? nullptr
          : std::make_shared<const ExprFusionPlan>(std::move(compiled));

  MutexLock lock(fusion_mu_);
  FusionCacheEntry& entry = fusion_cache_[static_cast<size_t>(pipeline_index)];
  entry.compiled = true;
  entry.signature = std::move(sig);
  entry.fusion = fusion;
  return fusion;
}

std::shared_ptr<const ExprFusionPlan> PipelinedExecutor::pipeline_fusion(
    int index) const {
  MutexLock lock(fusion_mu_);
  if (index < 0 || index >= static_cast<int>(fusion_cache_.size())) {
    return nullptr;
  }
  return fusion_cache_[static_cast<size_t>(index)].fusion;
}

std::string PipelinedExecutor::pipeline_fusion_signature(int index) const {
  MutexLock lock(fusion_mu_);
  if (index < 0 || index >= static_cast<int>(fusion_cache_.size())) {
    return std::string();
  }
  return fusion_cache_[static_cast<size_t>(index)].signature;
}

std::string PipelinedExecutor::FusionReport() const {
  MutexLock lock(fusion_mu_);
  std::ostringstream os;
  os << "morsel rows: " << current_morsel_rows()
     << (adaptive_ != nullptr ? " (adaptive)" : "") << "\n";
  for (size_t pi = 0; pi < fusion_cache_.size(); ++pi) {
    const FusionCacheEntry& entry = fusion_cache_[pi];
    const Pipeline& p = plan_.pipelines[pi];
    os << "pipeline #" << pi << " (" << p.nodes.size() << " ops): ";
    if (!entry.compiled) {
      os << "not yet executed\n";
      continue;
    }
    if (entry.fusion == nullptr) {
      os << "no fusible runs\n";
      continue;
    }
    os << entry.fusion->num_fused_nodes << " ops in "
       << entry.fusion->runs.size() << " fused run(s)\n";
    for (size_t ri = 0; ri < entry.fusion->runs.size(); ++ri) {
      const ExprFusionPlan::Run& run = entry.fusion->runs[ri];
      os << "  run " << ri << " [";
      for (size_t i = run.begin; i < run.end; ++i) {
        os << (i > run.begin ? " " : "") << "n" << p.nodes[i].id;
      }
      os << "]: " << run.program->ToString();
    }
  }
  return os.str();
}

Result<std::vector<Tensor>> PipelinedExecutor::Run(
    const std::vector<Tensor>& inputs) {
  const TensorProgram& prog = *program_;
  if (inputs.size() != prog.input_nodes().size()) {
    return Status::Invalid("executor expects " +
                           std::to_string(prog.input_nodes().size()) +
                           " inputs, got " + std::to_string(inputs.size()));
  }
  ParallelContext ctx;
  ctx.pool = pool_;
  ctx.morsel_rows = options_.morsel_rows;
  ctx.partitioned_breakers = options_.partitioned_breakers ||
                             op::partitioned::DefaultPartitionedBreakers();

  // The query context this run charges and polls; worker tasks and steps
  // inherit it through ThreadPool/StepScheduler submission.
  RunContext run_context(options_.memory_budget_bytes, options_.deadline_ms);
  BufferPool::QueryScope* const scope = BufferPool::QueryScope::Current();

  std::vector<Tensor> values(static_cast<size_t>(prog.num_nodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(prog.input_nodes()[i])] = inputs[i];
  }

  // Spill bookkeeping (inert without a budget): a step output that stays
  // materialized for later consumers registers as an eviction candidate the
  // moment its producer step completes, gets pinned (and faulted back in if
  // it went to disk) around each consumer step's reads, and unregisters
  // when its refcount releases it. Registration ids follow the same
  // produce-before-consume ordering as `values` itself.
  SpillableSet spill(scope, static_cast<size_t>(prog.num_nodes()));

  // Consumer refcount per node: how many schedule steps still have to read
  // the value, plus one pin for program outputs (collected after the walk).
  // The zero crossing — a step's completion decrementing its read set —
  // releases the value's buffer back to the BufferPool: under DAG overlap
  // that is "after the last consumer completes", under the sequential walk
  // exactly the plan's per-step release sets.
  std::vector<std::atomic<int>> refs(static_cast<size_t>(prog.num_nodes()));
  for (const PipelineStep& step : plan_.schedule) {
    for (int r : step.reads) {
      refs[static_cast<size_t>(r)].fetch_add(1, std::memory_order_relaxed);
    }
  }
  for (int out : prog.outputs()) {
    refs[static_cast<size_t>(out)].fetch_add(1, std::memory_order_relaxed);
  }

  auto run_step = [&](int step_index, const PipelineStep& step) -> Status {
    // Step-boundary cancellation poll plus the step-execution fault seam:
    // an injected hit fails the step with a structured error, which the
    // TaskGraph turns into cancellation of every not-yet-started step.
    TQP_RETURN_NOT_OK(CheckAmbientCancelled());
    if (FaultHit(FaultSite::kStepExec)) {
      return Status::Internal("injected fault: step_exec (step " +
                              std::to_string(step_index) + ")");
    }
    // One span per schedule step (the EXPLAIN ANALYZE unit): covers the
    // spill pin/unpin bookkeeping as well as the kernels, so per-step
    // durations sum to the walk's wall time.
    obs::TraceSpan step_span(
        "step", step.serial_node >= 0 ? "step.serial" : "step.pipeline");
    if (step_span.enabled()) step_span.AddArg("step", step_index);
    // Pin (faulting back in if spilled) everything this step reads before
    // any kernel touches it.
    for (int r : step.reads) {
      TQP_RETURN_NOT_OK(spill.PinSlot(static_cast<size_t>(r)));
    }
    // Read slots a partitioned breaker released mid-step (its hook drops the
    // consumed input before the breaker's output allocates); the release loop
    // below must not unpin or drop them a second time.
    std::vector<int> released;
    if (step.serial_node >= 0) {
      runtime::BreakerHooks hooks;
      ParallelContext step_ctx = ctx;
      if (ctx.partitioned_breakers) {
        hooks.release_input = [&](int operand) -> bool {
          if (std::find(step.reads.begin(), step.reads.end(), operand) ==
              step.reads.end()) {
            return false;
          }
          const size_t on = static_cast<size_t>(operand);
          // refs == 1 means this step is the only remaining consumer and the
          // value is not a program output — every other reader already
          // decremented, so nothing touches the slot concurrently.
          if (refs[on].load(std::memory_order_acquire) != 1) return false;
          spill.UnpinSlot(on);
          spill.DropSlot(on);
          values[on] = Tensor();
          released.push_back(operand);
          return true;
        };
        step_ctx.breaker_hooks = &hooks;
      }
      TQP_RETURN_NOT_OK(
          EvalWholeNode(prog.node(step.serial_node), &values, step_ctx));
      // Dead store (no consumer step, not an output): release immediately.
      if (refs[static_cast<size_t>(step.serial_node)].load(
              std::memory_order_acquire) == 0) {
        values[static_cast<size_t>(step.serial_node)] = Tensor();
      }
    } else {
      const Pipeline& p = plan_.pipelines[static_cast<size_t>(step.pipeline)];
      TQP_RETURN_NOT_OK(RunPipeline(step.pipeline, p, &values, ctx));
    }
    if (step_span.enabled()) {
      int64_t out_rows = 0;
      int64_t out_bytes = 0;
      const auto tally = [&](int id) {
        const Tensor& t = values[static_cast<size_t>(id)];
        if (t.defined()) {
          out_rows += t.rows();
          out_bytes += t.nbytes();
        }
      };
      if (step.serial_node >= 0) {
        tally(step.serial_node);
      } else {
        const Pipeline& p =
            plan_.pipelines[static_cast<size_t>(step.pipeline)];
        for (int out : p.outputs) tally(out);
      }
      step_span.AddArg("rows", out_rows);
      step_span.AddArg("bytes", out_bytes);
    }
    // Produced values that later steps (or output collection) will read are
    // now pinned-but-idle: register them as eviction candidates.
    if (spill.enabled()) {
      const auto register_value = [&](int id) {
        const size_t n = static_cast<size_t>(id);
        if (refs[n].load(std::memory_order_acquire) > 0) {
          spill.Register(n, &values[n]);
        }
      };
      if (step.serial_node >= 0) {
        register_value(step.serial_node);
      } else {
        const Pipeline& p =
            plan_.pipelines[static_cast<size_t>(step.pipeline)];
        for (int out : p.outputs) register_value(out);
      }
    }
    for (int r : step.reads) {
      const size_t rn = static_cast<size_t>(r);
      const bool freed =
          std::find(released.begin(), released.end(), r) != released.end();
      if (!freed) spill.UnpinSlot(rn);
      if (refs[rn].fetch_sub(1, std::memory_order_acq_rel) == 1 && !freed) {
        spill.DropSlot(rn);
        values[rn] = Tensor();
      }
    }
    return Status::OK();
  };

  // Each step becomes a task gated on the steps that materialize its
  // sources, so independent pipelines overlap. Under a memory budget each
  // step is gated on the step before it instead, so the query runs one step
  // at a time: two steps never pin their working sets at once, whatever the
  // timing. Dispatch is the same either way, so a budgeted query's steps
  // still interleave with other queries' by priority. Without a multi-thread
  // pool, TaskGraph::Run(nullptr) walks the schedule inline, with the same
  // release points.
  const bool one_step_at_a_time = scope != nullptr && scope->spill_enabled();
  const bool dispatch = pool_ != nullptr && pool_->num_threads() > 1;
  runtime::TaskGraph graph;
  for (size_t si = 0; si < plan_.schedule.size(); ++si) {
    const PipelineStep& step = plan_.schedule[si];
    std::vector<int> deps = step.deps;
    if (one_step_at_a_time) {
      deps.clear();
      if (si > 0) deps.push_back(static_cast<int>(si) - 1);
    }
    graph.AddTask(
        [&run_step, &step, si] {
          return run_step(static_cast<int>(si), step);
        },
        deps);
  }
  Status run_status;
  if (!dispatch) {
    run_status = graph.Run(static_cast<ThreadPool*>(nullptr));
  } else if (options_.step_scheduler != nullptr &&
             options_.step_scheduler->pool() == pool_) {
    run_status = graph.Run(options_.step_scheduler);
  } else {
    run_status = graph.Run(pool_);
  }
  TQP_RETURN_NOT_OK(run_status);

  std::vector<Tensor> outputs;
  outputs.reserve(prog.outputs().size());
  for (int id : prog.outputs()) {
    // A program output may sit on disk (produced early, never read again):
    // fault it back in before handing it to the caller.
    TQP_RETURN_NOT_OK(spill.PinSlot(static_cast<size_t>(id)));
    outputs.push_back(values[static_cast<size_t>(id)]);
  }
  return outputs;
}

}  // namespace tqp
