#ifndef TQP_RUNTIME_PIPELINED_EXECUTOR_H_
#define TQP_RUNTIME_PIPELINED_EXECUTOR_H_

#include <atomic>
#include <memory>
#include <string>
#include <vector>

#include "common/sync.h"
#include "compile/expr_program.h"
#include "compile/pipeline.h"
#include "graph/executor.h"
#include "runtime/morsel.h"
#include "runtime/parallel_kernels.h"
#include "runtime/thread_pool.h"
#include "tensor/buffer_pool.h"

namespace tqp {

/// \brief Pipelined morsel-streaming executor (ExecutorTarget::kPipelined).
///
/// Rather than running node-at-a-time (every op materializing its full
/// output before any consumer starts), this executor follows the
/// PipelinePlan built by the compiler (src/compile/pipeline.h): morsels of
/// the driver domain stream through each pipeline's fused operator chain —
/// scan -> filter -> project -> probe — holding only morsel-sized
/// intermediates, and only pipeline *outputs* materialize (assembled from
/// per-morsel chunks in morsel order, which makes every result bit-identical
/// to the serial executors for any thread count and morsel size). Pipeline
/// breakers (sorts, reductions, scans, concats) evaluate whole through
/// runtime::ParallelEvalNode, whose exact morsel-parallel kernels cover the
/// sorts, concats and reductions; streamable ops run parallel only here,
/// inside pipelines.
///
/// Morsel scratch churn is soaked up by the process-wide BufferPool, so a
/// streamed chain re-uses a handful of recycled blocks instead of allocating
/// one full-column tensor per op.
///
/// Within a pipeline, maximal runs of elementwise/selection ops additionally
/// execute through the expression-fusion layer (ExecOptions::expr_fusion,
/// default on): each run is lowered once into a register-based ExprProgram
/// (src/compile/expr_program.h — constant folding, CSE, shared selection
/// vectors, register reuse) and then interpreted over every morsel in a
/// single sweep (src/kernels/expr_exec.h), so chain intermediates live in a
/// few recycled register buffers and only run *outputs* allocate tensors.
/// Lowering needs runtime dtypes, so the first execution of a pipeline
/// probes one morsel node-at-a-time and compiles against the observed
/// source signature; the compiled plan is cached on the executor and
/// revalidated (recompiled on drift) per run. The probe's outputs seed the
/// first morsel's chunks, so a compiling run still evaluates every driver
/// morsel exactly once. Fused results are bit-identical to node-at-a-time
/// evaluation by construction.
///
/// The schedule executes as a dependency DAG, not a list: each PipelineStep
/// becomes a TaskGraph task gated on the steps that materialize its sources,
/// so independent pipelines (the build sides of a multi-join query) run
/// concurrently — each still morsel-parallel inside — whenever a
/// multi-thread pool is available. The memory budget decides the overlap:
/// a query whose BufferPool::QueryScope has a budget gates each step on the
/// step before it instead, so it runs one step at a time and two steps
/// never pin their working sets at once; an unbudgeted query keeps the DAG.
/// Node values carry consumer refcounts and release back to the BufferPool
/// the moment their last consumer step completes; one step at a time, that
/// is exactly each step's last-use set. Steps dispatch the same way with or
/// without a budget: when ExecOptions::step_scheduler is set (the
/// QueryScheduler's shared dispatcher), step tasks are tagged with the
/// running query's priority and interleave with other queries' steps in
/// priority order.
///
/// Scheduling: ExecOptions::pool, when set, is used directly (the shared
/// cross-query pool of the QueryScheduler). Otherwise num_threads selects
/// one: 0 = the process-wide pool, 1 = serial, N > 1 = a private N-thread
/// pool owned by this executor.
///
/// The executor runs on host cores only: MakeExecutor rejects it for the
/// simulated GPU, whose kernel metering the eager and static targets do.
/// Per-op "op" trace spans cover only whole-node steps; a streamed pipeline
/// records "pipeline" and "morsel" spans instead.
class PipelinedExecutor : public Executor {
 public:
  PipelinedExecutor(std::shared_ptr<const TensorProgram> program,
                    ExecOptions options);

  Result<std::vector<Tensor>> Run(const std::vector<Tensor>& inputs) override;
  std::string name() const override { return "pipelined"; }
  ExecutorTarget target() const override { return ExecutorTarget::kPipelined; }

  const PipelinePlan& plan() const { return plan_; }
  /// \brief The pool this executor schedules on (null when running serially).
  runtime::ThreadPool* pool() const { return pool_; }
  int64_t morsel_rows() const;

  /// \brief Whether adaptive morsel sizing is active (option or
  /// TQP_ADAPTIVE_MORSEL=1), and the size the next pipeline run would use.
  bool adaptive_morsels() const { return adaptive_ != nullptr; }
  int64_t current_morsel_rows() const {
    return adaptive_ != nullptr ? adaptive_->rows() : morsel_rows();
  }

  /// \brief The expression-fusion plan compiled for pipeline `index` (null
  /// before the pipeline first executes, when fusion is disabled, or when
  /// nothing in the pipeline fused).
  std::shared_ptr<const ExprFusionPlan> pipeline_fusion(int index) const;

  /// \brief The runtime source signature pipeline `index`'s cached fusion was
  /// compiled against (empty before the first execution). Covers, per
  /// source, everything lowering can depend on: dtype, broadcast binding,
  /// and the shape rank/stride class (column arity + scalar/driver/other
  /// row class) — exposed so tests can pin that shape drift recompiles.
  std::string pipeline_fusion_signature(int index) const;

  /// \brief Driver-morsel evaluations since construction (fused or
  /// node-at-a-time; the compile probe counts as the first morsel it
  /// seeds). A run evaluates each driver morsel of each pipeline exactly
  /// once — the probe-reuse regression test pins this.
  int64_t num_morsel_evals() const {
    return morsel_evals_.load(std::memory_order_relaxed);
  }

  /// \brief Human-readable fused-run boundaries and register counts for
  /// every pipeline compiled so far (`\explain pipelines` in the shell).
  std::string FusionReport() const;

 private:
  /// The first morsel's node values observed while compiling a pipeline's
  /// fusion: FusionFor evaluates one probe morsel node-at-a-time to learn
  /// runtime dtypes, and RunPipeline reuses its outputs as morsel 0's
  /// chunks instead of evaluating that morsel a second time.
  struct ProbeResult {
    bool probed = false;
    std::vector<Tensor> outputs;  // parallel to Pipeline::outputs
  };

  /// Evaluates one node whole (breakers, scalars, fallback pipelines) under
  /// an "op" span; only breakers fan out.
  Status EvalWholeNode(const OpNode& node, std::vector<Tensor>* values,
                       const runtime::ParallelContext& ctx);

  /// Streams one pipeline: morsels of the driver domain evaluate the fused
  /// chain into per-slot scratch, output chunks concatenate in morsel order.
  Status RunPipeline(int pipeline_index, const Pipeline& p,
                     std::vector<Tensor>* values,
                     const runtime::ParallelContext& ctx);

  /// Returns the (possibly cached) expression-fusion plan for one pipeline,
  /// compiling it against the current source signature when needed. The
  /// compile probes one morsel node-at-a-time to learn streamed dtypes;
  /// `probe` receives that morsel's pipeline outputs so the caller can seed
  /// morsel 0 with them (untouched on a cache hit). `morsel_rows` is the
  /// size chosen for this run (adaptive or static) — the probe must span
  /// exactly the run's first morsel.
  Result<std::shared_ptr<const ExprFusionPlan>> FusionFor(
      int pipeline_index, const Pipeline& p, const std::vector<Tensor>& values,
      const std::vector<bool>& slice_now, int64_t driver_rows,
      int64_t morsel_rows, ProbeResult* probe);

  /// Whole-node evaluation of a pipeline (shape surprises such as a runtime
  /// broadcast): same results, no streaming, serial kernels.
  Status RunPipelineSerial(const Pipeline& p, std::vector<Tensor>* values,
                           const runtime::ParallelContext& ctx);

  std::shared_ptr<const TensorProgram> program_;
  ExecOptions options_;
  PipelinePlan plan_;
  std::unique_ptr<runtime::ThreadPool> owned_pool_;  // when num_threads > 1
  runtime::ThreadPool* pool_ = nullptr;              // owned, shared or global
  /// Non-null when adaptive morsel sizing is on: each RunPipeline reads one
  /// size from it (fixed for that pipeline run, so chunk assembly stays
  /// bit-identical) and feeds completed morsels' wall times back.
  std::unique_ptr<runtime::AdaptiveMorselController> adaptive_;

  /// Per-pipeline compiled fusion, keyed by the runtime source signature
  /// (dtypes + broadcast-ness); concurrent Run() calls share one cache.
  struct FusionCacheEntry {
    bool compiled = false;
    std::string signature;
    std::shared_ptr<const ExprFusionPlan> fusion;  // null = nothing fused
  };
  mutable Mutex fusion_mu_;
  mutable std::vector<FusionCacheEntry> fusion_cache_ TQP_GUARDED_BY(fusion_mu_);

  /// Driver-morsel evaluations (streamed pipelines only; whole-node
  /// fallbacks and breakers do not count).
  std::atomic<int64_t> morsel_evals_{0};
};

}  // namespace tqp

#endif  // TQP_RUNTIME_PIPELINED_EXECUTOR_H_
