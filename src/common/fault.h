#ifndef TQP_COMMON_FAULT_H_
#define TQP_COMMON_FAULT_H_

#include <atomic>
#include <array>
#include <cstdint>
#include <string>

#include "common/status.h"

namespace tqp {

/// \brief The seams where a fault can be injected. Each value names one
/// compiled-in call site family; see the site table in fault.cc for the
/// spec-grammar spellings.
enum class FaultSite : int {
  /// Spill-tier eviction write (BufferPool::QueryScope::EvictLocked). A hit
  /// makes the write fail as if the disk returned an I/O error.
  kSpillWrite = 0,
  /// Spill-tier fault-back read (FaultLocked). A hit makes the read fail.
  kSpillRead = 1,
  /// BufferPool::Acquire. A hit makes the pool return nullptr, which
  /// surfaces as a clean Status::OutOfMemory from Buffer::Allocate.
  kAlloc = 2,
  /// ThreadPool::Submit. A hit runs the task inline on the submitting
  /// thread instead of enqueueing it — a benign perturbation proving
  /// correctness does not depend on asynchrony.
  kTaskSubmit = 3,
  /// Pipeline step execution. A hit makes the step return an
  /// injected Status::Internal, exercising the error cleanup contract.
  kStepExec = 4,
};

inline constexpr int kNumFaultSites = 5;

/// \brief Returns the spec-grammar spelling of a site ("spill_write").
const char* FaultSiteName(FaultSite site);

/// \brief Deterministic fault-injection harness.
///
/// Configured from the `TQP_FAULT_SPEC` environment variable (or
/// `SetSpecForTesting`), a semicolon-separated list of site clauses:
///
///     TQP_FAULT_SPEC="spill_write:every=3;alloc:after=100;step_exec:after=2,limit=1"
///
/// Per clause: `every=N` fires on every Nth hit of the site (N >= 1);
/// `after=N` fires on every hit past the first N; an optional `,limit=M`
/// caps the number of fires. Hit counters are per-site process-wide atomics,
/// so a given workload sees the same faults on every run — the determinism
/// CI depends on. An empty/unset spec keeps every seam disabled at the cost
/// of one relaxed atomic load (`enabled()`).
///
/// Call sites poll `ShouldFail(site)`; when it returns true they simulate
/// the failure through their normal error path (no exceptions, no aborts),
/// which is exactly what makes the harness a proof: every injected-fault run
/// must either complete bit-identical to the fault-free run or fail cleanly
/// with memory back at baseline.
class FaultInjector {
 public:
  /// \brief The process-wide injector, configured once from TQP_FAULT_SPEC
  /// on first use.
  static FaultInjector* Global();

  /// \brief True when any site is armed. Inline fast path for hot seams.
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// \brief Counts a hit at `site` and returns true when the configured
  /// schedule says this hit fails. Always false when the site is not armed.
  bool ShouldFail(FaultSite site) {
    if (!enabled()) return false;
    return ShouldFailSlow(site);
  }

  /// \brief Number of injected failures fired at `site` so far.
  int64_t fired(FaultSite site) const {
    return sites_[static_cast<int>(site)].fired.load(
        std::memory_order_relaxed);
  }

  /// \brief Replaces the active spec and resets all counters. Empty string
  /// disarms everything. Returns Invalid on grammar errors (unknown site,
  /// missing/zero count). Test-only: racing this against in-flight queries
  /// is undefined.
  Status SetSpecForTesting(const std::string& spec);

  /// \brief Resets hit/fired counters without changing the armed schedule,
  /// so a test can replay the same deterministic fault sequence.
  void ResetCountersForTesting();

 private:
  FaultInjector();

  struct SiteState {
    // 0 disarmed; >0 fires every Nth hit; <0 fires on every hit past |N|.
    std::atomic<int64_t> schedule{0};
    // Remaining fires; negative = unlimited.
    std::atomic<int64_t> remaining{-1};
    std::atomic<int64_t> hits{0};
    std::atomic<int64_t> fired{0};
  };

  bool ShouldFailSlow(FaultSite site);
  Status ApplySpec(const std::string& spec);

  std::array<SiteState, kNumFaultSites> sites_;
  std::atomic<bool> enabled_{false};
};

/// \brief One-liner for call sites: true when the global injector says this
/// hit of `site` fails.
inline bool FaultHit(FaultSite site) {
  FaultInjector* inj = FaultInjector::Global();
  return inj->enabled() && inj->ShouldFail(site);
}

}  // namespace tqp

#endif  // TQP_COMMON_FAULT_H_
