#include "runtime/parallel_executor.h"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/cancel.h"
#include "common/fault.h"
#include "graph/eval.h"
#include "graph/op_type.h"
#include "obs/trace.h"
#include "operators/partitioned/partition.h"
#include "runtime/morsel.h"
#include "runtime/step_scheduler.h"
#include "runtime/task_graph.h"
#include "tensor/buffer_pool.h"

namespace tqp {

using runtime::ParallelContext;
using runtime::TaskGraph;
using runtime::ThreadPool;

namespace {

/// True when operand `i` is the first occurrence of its node id in `inputs`
/// (a node like add(x, x) reads x once for refcount purposes).
bool FirstUseOfOperand(const std::vector<int>& inputs, size_t i) {
  for (size_t j = 0; j < i; ++j) {
    if (inputs[j] == inputs[i]) return false;
  }
  return true;
}

}  // namespace

ParallelExecutor::ParallelExecutor(std::shared_ptr<const TensorProgram> program,
                                   ExecOptions options)
    : program_(std::move(program)), options_(options) {
  // Clamp to the same ceiling as the TQP_THREADS env path: an absurd request
  // must degrade to "many threads", not abort the process in std::thread.
  options_.num_threads = std::min(options_.num_threads, 256);
  if (options_.pool != nullptr) {
    pool_ = options_.pool;  // shared cross-query pool (QueryScheduler)
  } else if (options_.num_threads == 0) {
    pool_ = ThreadPool::Global();
  } else if (options_.num_threads > 1) {
    owned_pool_ = std::make_unique<ThreadPool>(options_.num_threads);
    pool_ = owned_pool_.get();
  }  // num_threads == 1 (or negative): pool_ stays null -> serial execution
}

int64_t ParallelExecutor::morsel_rows() const {
  return options_.morsel_rows > 0 ? options_.morsel_rows
                                  : runtime::DefaultMorselRows();
}

Result<std::vector<Tensor>> ParallelExecutor::Run(const std::vector<Tensor>& inputs) {
  const TensorProgram& prog = *program_;
  if (inputs.size() != prog.input_nodes().size()) {
    return Status::Invalid("executor expects " +
                           std::to_string(prog.input_nodes().size()) +
                           " inputs, got " + std::to_string(inputs.size()));
  }
  Device* device = GetDevice(options_.device);
  ParallelContext ctx;
  ctx.pool = pool_;
  ctx.morsel_rows = options_.morsel_rows;
  ctx.partitioned_breakers = options_.partitioned_breakers ||
                             op::partitioned::DefaultPartitionedBreakers();

  // Per-query memory: the ambient scope (the QueryScheduler's) or a local
  // one when this executor carries its own budget; node tasks inherit it
  // through ThreadPool/StepScheduler submission.
  ScopedQueryBudget budget_scope(options_.memory_budget_bytes);
  BufferPool::QueryScope* const scope = budget_scope.scope();

  // Per-query cancellation/deadline, same precedence as the memory scope:
  // the ambient token (the QueryScheduler's) or a locally armed deadline
  // from ExecOptions::deadline_ms / TQP_QUERY_TIMEOUT_MS. Node tasks poll
  // it through CheckAmbientCancelled().
  ScopedQueryDeadline deadline_scope(options_.deadline_ms);

  std::vector<Tensor> values(static_cast<size_t>(prog.num_nodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(prog.input_nodes()[i])] = inputs[i];
    if (device->is_simulated() && options_.charge_transfers) {
      device->RecordTransfer(inputs[i].nbytes());
    }
  }

  // Last-use refcounts: a node's value releases back to the BufferPool the
  // moment its final consumer finishes (program outputs stay pinned), so the
  // node-at-a-time path's peak allocation is comparable to the pipelined
  // executor's eager-release schedule instead of holding every intermediate
  // until the end of the run.
  std::vector<std::atomic<int>> refs(static_cast<size_t>(prog.num_nodes()));
  for (const OpNode& node : prog.nodes()) {
    for (size_t i = 0; i < node.inputs.size(); ++i) {
      if (!FirstUseOfOperand(node.inputs, i)) continue;
      refs[static_cast<size_t>(node.inputs[i])].fetch_add(
          1, std::memory_order_relaxed);
    }
  }
  for (int out : prog.outputs()) {
    refs[static_cast<size_t>(out)].fetch_add(1, std::memory_order_relaxed);
  }

  // Spill bookkeeping (inert without a budget): a node value that stays
  // materialized for later consumers registers as an eviction candidate
  // when its producer task completes, is pinned (faulted back if on disk)
  // around each consumer's read, and unregisters at its last-use release.
  SpillableSet spill(scope, static_cast<size_t>(prog.num_nodes()));

  // One task per op node; dependencies mirror the node's data inputs. The
  // values vector is written once per slot, and TaskGraph's dependency
  // counters order those writes before any read (release/acquire).
  TaskGraph graph;
  std::vector<int> task_of(static_cast<size_t>(prog.num_nodes()), -1);
  for (const OpNode& node : prog.nodes()) {
    if (node.type == OpType::kInput) continue;
    std::vector<int> deps;
    deps.reserve(node.inputs.size());
    for (int in : node.inputs) {
      const int t = task_of[static_cast<size_t>(in)];
      if (t >= 0) deps.push_back(t);
    }
    task_of[static_cast<size_t>(node.id)] = graph.AddTask(
        [this, &prog, &node, &values, &ctx, device, &refs,
         &spill]() -> Status {
          // Node-boundary cancellation poll and the step-execution fault
          // seam; either failure cancels every not-yet-started task via
          // TaskGraph's first-error machinery.
          TQP_RETURN_NOT_OK(CheckAmbientCancelled());
          if (FaultHit(FaultSite::kStepExec)) {
            return Status::Internal("injected fault: step_exec (node " +
                                    std::to_string(node.id) + ")");
          }
          for (size_t i = 0; i < node.inputs.size(); ++i) {
            if (!FirstUseOfOperand(node.inputs, i)) continue;
            TQP_RETURN_NOT_OK(
                spill.PinSlot(static_cast<size_t>(node.inputs[i])));
          }
          // Operands a partitioned breaker released mid-node (its hook drops
          // the consumed input before the output allocates); the release loop
          // below must not unpin or drop them a second time.
          std::vector<int> released;
          runtime::BreakerHooks hooks;
          ParallelContext node_ctx = ctx;
          if (ctx.partitioned_breakers) {
            hooks.release_input = [&](int operand) -> bool {
              if (std::find(node.inputs.begin(), node.inputs.end(), operand) ==
                  node.inputs.end()) {
                return false;
              }
              const size_t on = static_cast<size_t>(operand);
              // refs == 1 means this node is the only remaining consumer and
              // the value is not a program output — every other reader's task
              // already completed, so nothing touches the slot concurrently.
              if (refs[on].load(std::memory_order_acquire) != 1) return false;
              spill.UnpinSlot(on);
              spill.DropSlot(on);
              values[on] = Tensor();
              released.push_back(operand);
              return true;
            };
            node_ctx.breaker_hooks = &hooks;
          }
          // One span per op node — the node-at-a-time backend's step unit.
          obs::TraceSpan op_span("op", OpTypeName(node.type));
          if (op_span.enabled()) op_span.AddArg("node", node.id);
          TQP_ASSIGN_OR_RETURN(
              Tensor out, runtime::ParallelEvalNode(node_ctx, prog, node, values));
          if (op_span.enabled()) op_span.AddArg("output_bytes", out.nbytes());
          if (device->is_simulated()) {
            bool irregular = false;
            const KernelCost cost =
                EstimateNodeCost(node, values, out, &irregular);
            device->RecordKernel(cost, irregular);  // internally serialized
          }
          values[static_cast<size_t>(node.id)] = std::move(out);
          if (spill.enabled() &&
              refs[static_cast<size_t>(node.id)].load(
                  std::memory_order_acquire) > 0) {
            spill.Register(static_cast<size_t>(node.id),
                           &values[static_cast<size_t>(node.id)]);
          }
          for (size_t i = 0; i < node.inputs.size(); ++i) {
            if (!FirstUseOfOperand(node.inputs, i)) continue;
            const size_t in = static_cast<size_t>(node.inputs[i]);
            const bool freed =
                std::find(released.begin(), released.end(), node.inputs[i]) !=
                released.end();
            if (!freed) spill.UnpinSlot(in);
            if (refs[in].fetch_sub(1, std::memory_order_acq_rel) == 1 &&
                !freed) {
              spill.DropSlot(in);
              values[in] = Tensor();
            }
          }
          // Dead store (no consumer, not an output): release immediately.
          if (refs[static_cast<size_t>(node.id)].load(
                  std::memory_order_acquire) == 0) {
            values[static_cast<size_t>(node.id)] = Tensor();
          }
          return Status::OK();
        },
        deps);
  }
  // Through the scheduler's shared StepScheduler when available, so this
  // query's node tasks interleave with other queries' steps in priority
  // order; directly on the pool otherwise.
  Status run_status;
  if (options_.step_scheduler != nullptr &&
      options_.step_scheduler->pool() == pool_) {
    run_status = graph.Run(options_.step_scheduler);
  } else {
    run_status = graph.Run(pool_);
  }
  TQP_RETURN_NOT_OK(run_status);

  std::vector<Tensor> outputs;
  outputs.reserve(prog.outputs().size());
  for (int id : prog.outputs()) {
    // Fault spilled program outputs back in before handing them out.
    TQP_RETURN_NOT_OK(spill.PinSlot(static_cast<size_t>(id)));
    outputs.push_back(values[static_cast<size_t>(id)]);
    if (device->is_simulated() && options_.charge_transfers) {
      device->RecordTransfer(outputs.back().nbytes());
    }
  }
  return outputs;
}

}  // namespace tqp
