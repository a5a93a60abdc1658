#ifndef TQP_CORE_TQP_H_
#define TQP_CORE_TQP_H_

/// \file Umbrella header for the TQP reproduction: include this to get the
/// full public API (tensor runtime, SQL frontend, planner/binder, compiler,
/// graph executors, relational operators, parallel runtime, engines, ML,
/// TPC-H substrate, observability: trace spans and EXPLAIN ANALYZE).

#include "baseline/columnar.h"          // IWYU pragma: export
#include "baseline/volcano.h"           // IWYU pragma: export
#include "compile/compiler.h"           // IWYU pragma: export
#include "compile/expr_program.h"       // IWYU pragma: export
#include "compile/pipeline.h"           // IWYU pragma: export
#include "datasets/iris.h"              // IWYU pragma: export
#include "datasets/reviews.h"           // IWYU pragma: export
#include "frontend/spark_plan.h"        // IWYU pragma: export
#include "graph/dot.h"                  // IWYU pragma: export
#include "graph/eager_executor.h"       // IWYU pragma: export
#include "graph/executor.h"             // IWYU pragma: export
#include "graph/interp_executor.h"      // IWYU pragma: export
#include "graph/serialize.h"            // IWYU pragma: export
#include "graph/static_executor.h"      // IWYU pragma: export
#include "kernels/kernels.h"            // IWYU pragma: export
#include "ml/linear.h"                  // IWYU pragma: export
#include "ml/mlp.h"                     // IWYU pragma: export
#include "ml/text.h"                    // IWYU pragma: export
#include "ml/tree.h"                    // IWYU pragma: export
#include "obs/explain.h"                // IWYU pragma: export
#include "obs/trace.h"                  // IWYU pragma: export
#include "operators/expr_vector_eval.h" // IWYU pragma: export
#include "operators/hash_groupby.h"     // IWYU pragma: export
#include "operators/hash_join.h"        // IWYU pragma: export
#include "plan/binder.h"                // IWYU pragma: export
#include "plan/optimizer.h"             // IWYU pragma: export
#include "plan/physical_planner.h"      // IWYU pragma: export
#include "relational/csv.h"             // IWYU pragma: export
#include "relational/ingest.h"          // IWYU pragma: export
#include "runtime/runtime.h"            // IWYU pragma: export
#include "sql/parser.h"                 // IWYU pragma: export
#include "tensor/buffer_pool.h"         // IWYU pragma: export
#include "tpch/dbgen.h"                 // IWYU pragma: export
#include "tpch/queries.h"               // IWYU pragma: export
#include "tpch/schema.h"                // IWYU pragma: export

#endif  // TQP_CORE_TQP_H_
