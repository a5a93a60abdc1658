#include "graph/executor.h"

#include "graph/eager_executor.h"
#include "graph/interp_executor.h"
#include "graph/static_executor.h"
#include "runtime/pipelined_executor.h"

namespace tqp {

const char* ExprBackendName(ExprBackend backend) {
  switch (backend) {
    case ExprBackend::kDefault:
      return "default";
    case ExprBackend::kInterp:
      return "interp";
  }
  return "?";
}

ExprBackend ResolveExprBackend(ExprBackend backend) {
  return backend == ExprBackend::kDefault ? ExprBackend::kInterp : backend;
}

Result<std::unique_ptr<Executor>> MakeExecutor(
    ExecutorTarget target, std::shared_ptr<const TensorProgram> program,
    ExecOptions options) {
  if (program == nullptr) return Status::Invalid("null program");
  TQP_RETURN_NOT_OK(program->Validate());
  switch (target) {
    case ExecutorTarget::kEager:
      return std::unique_ptr<Executor>(
          new EagerExecutor(std::move(program), options));
    case ExecutorTarget::kStatic:
      return std::unique_ptr<Executor>(
          new StaticExecutor(std::move(program), options));
    case ExecutorTarget::kInterp: {
      TQP_ASSIGN_OR_RETURN(auto interp,
                           InterpExecutor::Make(std::move(program)));
      return std::unique_ptr<Executor>(std::move(interp));
    }
    case ExecutorTarget::kPipelined:
      return std::unique_ptr<Executor>(
          new PipelinedExecutor(std::move(program), options));
  }
  return Status::Invalid("unknown executor target");
}

}  // namespace tqp
