#include "graph/eager_executor.h"

#include "common/cancel.h"
#include "graph/eval.h"

namespace tqp {

const char* ExecutorTargetName(ExecutorTarget target) {
  switch (target) {
    case ExecutorTarget::kEager:
      return "eager";
    case ExecutorTarget::kStatic:
      return "static";
    case ExecutorTarget::kInterp:
      return "interp";
    case ExecutorTarget::kPipelined:
      return "pipelined";
  }
  return "?";
}

EagerExecutor::EagerExecutor(std::shared_ptr<const TensorProgram> program,
                             ExecOptions options)
    : program_(std::move(program)), options_(options) {}

Result<std::vector<Tensor>> EagerExecutor::Run(const std::vector<Tensor>& inputs) {
  const TensorProgram& prog = *program_;
  if (inputs.size() != prog.input_nodes().size()) {
    return Status::Invalid("executor expects " +
                           std::to_string(prog.input_nodes().size()) +
                           " inputs, got " + std::to_string(inputs.size()));
  }
  Device* device = GetDevice(options_.device);
  std::vector<Tensor> values(static_cast<size_t>(prog.num_nodes()));
  // Bind inputs; on a simulated accelerator, charge the host->device copy.
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(prog.input_nodes()[i])] = inputs[i];
    if (device->is_simulated() && options_.charge_transfers) {
      device->RecordTransfer(inputs[i].nbytes());
    }
  }
  for (const OpNode& node : prog.nodes()) {
    if (node.type == OpType::kInput) continue;
    // Node-boundary cancellation/deadline poll (cooperative contract).
    TQP_RETURN_NOT_OK(CheckAmbientCancelled());
    TQP_RETURN_NOT_OK(EvalTracedNode(prog, node, &values, device));
  }
  std::vector<Tensor> outputs;
  outputs.reserve(prog.outputs().size());
  for (int id : prog.outputs()) {
    outputs.push_back(values[static_cast<size_t>(id)]);
    // Device -> host copy of results.
    if (device->is_simulated() && options_.charge_transfers) {
      device->RecordTransfer(outputs.back().nbytes());
    }
  }
  return outputs;
}

}  // namespace tqp
