#ifndef TQP_GRAPH_EXECUTOR_H_
#define TQP_GRAPH_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "device/device.h"
#include "graph/program.h"

namespace tqp {

namespace runtime {
class StepScheduler;
class ThreadPool;
}  // namespace runtime

/// \brief Executor backends, mirroring the paper's lowering targets (§2.2):
/// PyTorch eager, TorchScript (ahead-of-time planned, fused), the
/// ONNX/WebAssembly browser path (portable bytecode, scalar interpreter),
/// and the serving runtime (src/runtime): morsel-driven, multi-core, with
/// operator chains streamed and fused between pipeline breakers. Values are
/// stable; 3 is unassigned, and MakeExecutor rejects it.
enum class ExecutorTarget : int8_t {
  kEager = 0,
  kStatic = 1,
  kInterp = 2,
  kPipelined = 4,
};

const char* ExecutorTargetName(ExecutorTarget target);

/// \brief Names the one execution tier for fused ExprPrograms, the
/// vectorized interpreter (kernels/expr_exec.h). Kept so tools that report
/// the tier keep building; nothing in the engine reads it.
enum class ExprBackend : int8_t {
  kDefault = 0,  // resolves to kInterp
  kInterp = 1,
};

const char* ExprBackendName(ExprBackend backend);

/// \brief Maps kDefault to kInterp, explicit values to themselves.
ExprBackend ResolveExprBackend(ExprBackend backend);

/// \brief Execution configuration: target hardware device plus per-executor
/// knobs. Executors record per-operator time as "op" spans into the ambient
/// trace session (obs/trace.h), not through an option here. Scheduling is
/// not an option either: the pipelined executor overlaps independent steps
/// unless the query runs under a memory budget, and then runs them one at a
/// time (see PipelinedExecutor).
struct ExecOptions {
  DeviceKind device = DeviceKind::kCpu;
  /// Rows per block for fused elementwise execution (StaticExecutor).
  int64_t fusion_block_rows = 32768;
  /// Charge host<->device PCIe transfers to the simulated clock. Disable to
  /// model data already resident on the accelerator (how GPU-database
  /// comparisons such as TXT2 are usually reported).
  bool charge_transfers = true;
  /// Pipelined executor: worker threads. 0 = the process-wide pool
  /// (TQP_THREADS env var or hardware concurrency); 1 = serial execution.
  int num_threads = 0;
  /// Pipelined executor: rows per morsel for data-parallel kernels.
  /// 0 = DefaultMorselRows() (TQP_MORSEL_ROWS env var or 16384).
  int64_t morsel_rows = 0;
  /// Pipelined executor: explicit thread pool to schedule on (not
  /// owned; must outlive the executor). Overrides num_threads — this is how
  /// the QueryScheduler runs every concurrent session on one cross-query
  /// pool instead of per-executor pools.
  runtime::ThreadPool* pool = nullptr;
  /// Pipelined/Static executors: lower maximal elementwise/selection runs
  /// into register-based ExprPrograms (src/compile/expr_program.h) executed
  /// single-pass per morsel/block by the vectorized interpreter
  /// (src/kernels/expr_exec.h). Disable to force node-at-a-time evaluation,
  /// inside pipelines and for every StaticExecutor group — results are
  /// bit-identical either way; this is the fusion A/B switch.
  bool expr_fusion = true;
  /// Pipelined executor: adapt morsel size toward a target per-morsel
  /// service time using observed wall times (bounded; chunk assembly keeps
  /// results bit-identical at any size). Default off; TQP_ADAPTIVE_MORSEL=1
  /// flips the default.
  bool adaptive_morsels = false;
  /// Pipelined executor: evaluate argsort — the pipeline breaker
  /// every join and ORDER BY lowers to, and the sort path of a GROUP BY's
  /// group ids — through the external
  /// merge sort in src/operators/partitioned: run counts chosen from the
  /// query budget and spillable run pages. Results are bit-identical either
  /// way; this is the partitioning A/B switch. Default off;
  /// TQP_PARTITIONED_BREAKERS=1 flips the default.
  bool partitioned_breakers = false;
  /// Pipelined executor: when set (not owned; must share `pool`),
  /// step tasks dispatch through this priority-aware StepScheduler
  /// instead of going to the pool directly — how the QueryScheduler
  /// interleaves steps of concurrent queries by QueryPriority class.
  runtime::StepScheduler* step_scheduler = nullptr;
  /// Pipelined executor: per-query memory budget in bytes.
  /// Positive = cap the query's live tensor bytes, spilling cold idle step
  /// outputs to disk past it (BufferPool::QueryScope; results stay
  /// bit-identical to the in-memory path). 0 = the TQP_MEMORY_BUDGET_MB env
  /// default (unlimited when unset); negative = explicitly unlimited. An
  /// ambient QueryScope (the QueryScheduler attaches one per admitted
  /// query) takes precedence — the executor then charges that query
  /// instead of opening its own scope.
  int64_t memory_budget_bytes = 0;
  /// Per-query deadline in milliseconds, enforced cooperatively at morsel
  /// and step boundaries. Positive = cap this query's wall time (expired
  /// queries terminate with Status::DeadlineExceeded and memory back at
  /// baseline). 0 = the TQP_QUERY_TIMEOUT_MS env default (none when unset);
  /// negative = explicitly no deadline. An ambient CancellationToken (the
  /// QueryScheduler arms one per admitted query) takes precedence — the
  /// executor then polls that token instead of arming its own.
  int64_t deadline_ms = 0;
};

/// \brief A compiled, runnable tensor program (the paper's "Executor").
///
/// Run() binds positional inputs to the program's input nodes and returns the
/// program outputs in order. Executors are reusable across calls (the
/// compile-once / run-many workflow of Figure 3).
class Executor {
 public:
  virtual ~Executor() = default;
  virtual Result<std::vector<Tensor>> Run(const std::vector<Tensor>& inputs) = 0;
  virtual std::string name() const = 0;
  virtual ExecutorTarget target() const = 0;
};

/// \brief Builds an executor for the given target over a shared program.
Result<std::unique_ptr<Executor>> MakeExecutor(
    ExecutorTarget target, std::shared_ptr<const TensorProgram> program,
    ExecOptions options = {});

}  // namespace tqp

#endif  // TQP_GRAPH_EXECUTOR_H_
