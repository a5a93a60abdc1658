#ifndef TQP_GRAPH_INTERP_EXECUTOR_H_
#define TQP_GRAPH_INTERP_EXECUTOR_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/executor.h"

namespace tqp {

/// \brief Portable-bytecode interpreter — the ONNX-on-WebAssembly analog.
///
/// At construction the program is serialized to the portable format and
/// reparsed (validating the export path); Run() then interprets the reloaded
/// program with deliberately scalar, unvectorized element loops for
/// elementwise/reduction ops, modeling a browser runtime without SIMD.
/// Data-movement ops (sort/gather/strings) reuse the shared kernels — on
/// real WASM those are also closer to native speed than arithmetic loops.
/// Results are bit-identical to EagerExecutor.
class InterpExecutor : public Executor {
 public:
  /// Factory validates the serialize -> parse round trip.
  static Result<std::unique_ptr<InterpExecutor>> Make(
      std::shared_ptr<const TensorProgram> program);

  Result<std::vector<Tensor>> Run(const std::vector<Tensor>& inputs) override;
  std::string name() const override { return "interp"; }
  ExecutorTarget target() const override { return ExecutorTarget::kInterp; }

  /// \brief The portable serialized form this executor runs from.
  const std::string& bytecode() const { return bytecode_; }

 private:
  InterpExecutor(std::string bytecode, TensorProgram reloaded)
      : bytecode_(std::move(bytecode)), program_(std::move(reloaded)) {}

  std::string bytecode_;
  TensorProgram program_;
};

}  // namespace tqp

#endif  // TQP_GRAPH_INTERP_EXECUTOR_H_
