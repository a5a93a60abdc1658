#ifndef TQP_COMPILE_COMPILER_H_
#define TQP_COMPILE_COMPILER_H_

#include <memory>
#include <string>
#include <vector>

#include "graph/dot.h"
#include "graph/executor.h"
#include "ml/model.h"
#include "plan/catalog.h"
#include "plan/physical_planner.h"

namespace tqp {

/// \brief How a query is compiled and executed — the one-line backend/device
/// switch of the paper's Figure 3: the executor target plus the ExecOptions
/// handed to it.
struct CompileOptions : ExecOptions {
  ExecutorTarget target = ExecutorTarget::kStatic;  // TorchScript analog
};

/// \brief A compiled query: the tensor program, its Executor, and the
/// binding from program inputs to catalog columns (the paper's "Executor"
/// artifact, runnable many times over fresh data).
class CompiledQuery {
 public:
  struct InputBinding {
    std::string table;
    int column = 0;  // base-table column index
  };

  /// \brief Fetches the bound input columns from `catalog`, runs the
  /// executor and wraps the outputs into a Table.
  Result<Table> Run(const Catalog& catalog) const;

  /// \brief Runs over explicit input tensors (bench harness path).
  Result<Table> RunWithInputs(const std::vector<Tensor>& inputs) const;

  /// \brief Collects the input tensors this query needs from the catalog.
  /// A query planned with unique-build joins (CompileSql) fails here if a
  /// primary key it was planned against is no longer declared: its table
  /// was registered again and may now hold duplicates.
  Result<std::vector<Tensor>> CollectInputs(const Catalog& catalog) const;

  const TensorProgram& program() const { return *program_; }
  std::shared_ptr<const TensorProgram> shared_program() const { return program_; }
  const Schema& output_schema() const { return output_schema_; }
  const std::vector<InputBinding>& input_bindings() const { return bindings_; }
  Executor* executor() const { return executor_.get(); }

  /// \brief Graphviz rendering of the executor graph (Figure 4 artifact).
  std::string ToDot(const std::string& name = "tqp_executor") const {
    return ProgramToDot(*program_, name);
  }

 private:
  friend class QueryCompiler;
  std::shared_ptr<const TensorProgram> program_;
  std::unique_ptr<Executor> executor_;
  Schema output_schema_;
  std::vector<InputBinding> bindings_;
  std::vector<InputBinding> primary_keys_;  // relied on by unique-build joins
};

/// \brief The TQP compilation stack (§2.2): consumes a physical plan from the
/// frontend (src/plan), lowers every relational operator into tensor ops
/// (planning layer), and instantiates an Executor for the chosen
/// target/device (execution layer). PREDICT calls splice the registered
/// model's tensor program into the query graph.
class QueryCompiler {
 public:
  explicit QueryCompiler(const ml::ModelRegistry* models = nullptr)
      : models_(models) {}

  Result<CompiledQuery> Compile(const PlanPtr& physical_plan,
                                const CompileOptions& options = {}) const;

  /// \brief Convenience: SQL -> frontend planning -> tensor compilation.
  Result<CompiledQuery> CompileSql(const std::string& sql, const Catalog& catalog,
                                   const CompileOptions& options = {},
                                   const PhysicalOptions& physical = {}) const;

 private:
  const ml::ModelRegistry* models_;
};

}  // namespace tqp

#endif  // TQP_COMPILE_COMPILER_H_
