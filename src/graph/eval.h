#ifndef TQP_GRAPH_EVAL_H_
#define TQP_GRAPH_EVAL_H_

#include <functional>
#include <vector>

#include "common/result.h"
#include "device/device.h"
#include "graph/program.h"
#include "kernels/sort_internal.h"

namespace tqp {

/// \brief Evaluates one op node given the tensors computed for its inputs
/// (indexed by node id in `values`). Shared by all executors.
Result<Tensor> EvalNode(const TensorProgram& program, const OpNode& node,
                        const std::vector<Tensor>& values);

/// \brief Evaluates a kGroupIds node, sorting through `argsort` when the
/// keys take the sort path, and records the path on the calling thread's
/// innermost trace span as arg `domain`: the dense domain size, or -1 for
/// the sort path.
Result<Tensor> EvalGroupIds(const OpNode& node, const std::vector<Tensor>& values,
                            const kernels::ArgsortFn& argsort);

/// \brief The argsort of a kArgsortRows node's input, whose last argument
/// reports whether the rows already were in order.
using OrderedArgsortFn =
    std::function<Result<Tensor>(const Tensor& key, bool* ordered)>;

/// \brief Evaluates a kArgsortRows node through `argsort` and records on the
/// calling thread's innermost trace span arg `ordered`: 1 when the sort took
/// the identity path, else 0.
Result<Tensor> EvalArgsort(const OpNode& node, const std::vector<Tensor>& values,
                           const OrderedArgsortFn& argsort);

/// \brief Roofline cost of a node execution, fed to the simulated device
/// clock. `irregular` is set for data-dependent access patterns (gather,
/// hashing) that run below peak bandwidth on real GPUs.
KernelCost EstimateNodeCost(const OpNode& node, const std::vector<Tensor>& values,
                            const Tensor& output, bool* irregular);

/// \brief The serial backends' node step: evaluates `node` under an "op"
/// trace span (args `node`, `output_bytes`; detail = the node label), meters
/// it on a simulated `device`, and stores the output in `values`.
Status EvalTracedNode(const TensorProgram& program, const OpNode& node,
                      std::vector<Tensor>* values, Device* device);

}  // namespace tqp

#endif  // TQP_GRAPH_EVAL_H_
