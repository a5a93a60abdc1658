#ifndef TQP_RUNTIME_RUNTIME_H_
#define TQP_RUNTIME_RUNTIME_H_

/// \file Umbrella header for the morsel-driven parallel runtime: the
/// work-stealing thread pool, DAG task scheduler, exact morsel-parallel
/// kernels, the PipelinedExecutor backend, and the concurrent query-session
/// layer (scheduler, priority admission queue, plan cache) multiplexed onto
/// one cross-query pool.

#include "runtime/morsel.h"              // IWYU pragma: export
#include "runtime/parallel_kernels.h"    // IWYU pragma: export
#include "runtime/pipelined_executor.h"  // IWYU pragma: export
#include "runtime/plan_cache.h"          // IWYU pragma: export
#include "runtime/session.h"             // IWYU pragma: export
#include "runtime/step_scheduler.h"      // IWYU pragma: export
#include "runtime/task_graph.h"          // IWYU pragma: export
#include "runtime/thread_pool.h"         // IWYU pragma: export

#endif  // TQP_RUNTIME_RUNTIME_H_
