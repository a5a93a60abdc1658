#ifndef TQP_TENSOR_BUFFER_POOL_H_
#define TQP_TENSOR_BUFFER_POOL_H_

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/result.h"
#include "common/sync.h"
#include "device/device.h"
#include "tensor/dtype.h"

namespace tqp {

class Tensor;

/// \brief Counters for one BufferPool (monotonic unless noted).
struct BufferPoolStats {
  int64_t allocations = 0;      // Acquire calls served (pooled classes)
  int64_t pool_hits = 0;        // served from a free list (no malloc)
  int64_t pool_misses = 0;      // served by a fresh allocation
  int64_t bypass = 0;           // larger than the max pooled class
  int64_t recycled_bytes = 0;   // cumulative bytes served from free lists
  int64_t cached_bytes = 0;     // currently parked in free lists (gauge)
  int64_t live_bytes = 0;       // handed out and not yet released (gauge)
  int64_t peak_live_bytes = 0;  // high-water of live_bytes since ResetPeak

  /// \brief Every Acquire served, pooled or bypassed — the per-run
  /// allocation count the fusion ablation tracks (fewer = fewer
  /// materialized intermediates).
  int64_t total_allocations() const { return allocations + bypass; }
  /// \brief Fraction of pooled requests served from a free list (no
  /// malloc), in [0, 1].
  double recycle_hit_rate() const {
    return allocations > 0
               ? static_cast<double>(pool_hits) / static_cast<double>(allocations)
               : 0.0;
  }
};

/// \brief Per-query memory accounting and spill counters (monotonic unless
/// noted). Budget enforcement and every gauge use the pool's *rounded* block
/// sizes, so they match the process-wide live/peak gauges byte for byte.
struct QueryMemoryStats {
  int64_t budget_bytes = 0;       // 0 = accounting only, no cap
  int64_t live_bytes = 0;         // gauge: pool bytes charged to the query
  int64_t peak_live_bytes = 0;    // high-water of live_bytes (post-spill)
  int64_t spilled_bytes = 0;      // cumulative bytes written to the spill segment
  int64_t faulted_bytes = 0;      // cumulative bytes read back from disk
  int64_t spill_events = 0;       // values evicted to disk
  int64_t fault_events = 0;       // values faulted back in
  int64_t spilled_now_bytes = 0;  // gauge: bytes currently on disk
  /// Allocations that could not be brought under the budget even after
  /// evicting every idle value (the irreducible working set of one step
  /// exceeds the cap). 0 after a run <=> peak_live_bytes never exceeded
  /// the budget — the out-of-core differential asserts exactly this.
  int64_t budget_overruns = 0;
};

/// \brief Shared accounting cell between one BufferPool::QueryScope and the
/// buffers charged to it. Buffers can outlive their query (result tables are
/// returned to the caller), so they hold the ledger by shared_ptr and
/// discharge into it whenever they die.
struct QueryMemoryLedger {
  Mutex mu;
  QueryMemoryStats stats TQP_GUARDED_BY(mu);
};

/// \brief Internal: ~Buffer returns its charged bytes to the owning query.
void DischargeQueryMemory(QueryMemoryLedger* ledger, int64_t bytes);

/// \brief Size-classed recycling allocator for tensor storage.
///
/// Kernels allocate a fresh output per op, so a streaming executor churns
/// through morsel-sized scratch buffers at a very high rate. The pool parks
/// freed blocks on size-class free lists and hands them back zeroed, which
/// turns that churn into a handful of resident blocks shared across
/// operators, pipelines and concurrent queries. The classes are 64, 128 and
/// 256 B, then quarter-octave steps (2^k x {1, 1.25, 1.5, 1.75}) up to
/// 16 MiB, so a block above 256 B is at most 1.25x the request it serves
/// (power-of-two classes would waste up to half of it). Blocks above the
/// max pooled class bypass the free lists (allocated and freed directly) but
/// still count toward the live/peak gauges, so `peak_live_bytes` is a
/// faithful peak-allocation proxy for a query's working set.
///
/// Zeroing on reuse is deliberate: padded string tensors rely on zero padding
/// bytes (hashing and comparisons read the full width), so recycled memory
/// must be indistinguishable from a fresh calloc for results to stay
/// bit-identical.
///
/// On top of the process-wide gauges, QueryScope (below) adds the per-query
/// layer: every allocation made while a scope is ambient on the thread is
/// charged to that query, and when the query has a budget, going over it
/// evicts cold idle values to disk instead of growing resident memory.
class BufferPool {
 public:
  /// `max_cached_bytes` caps the total bytes parked in free lists; releases
  /// beyond the cap free eagerly. 0 disables recycling (stats still track).
  explicit BufferPool(int64_t max_cached_bytes = DefaultMaxCachedBytes());
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  /// \brief Returns a zeroed, 64-byte-aligned block of at least `size` bytes,
  /// or null on exhaustion. `*alloc_size` receives the actual block size,
  /// which must be passed back to Release.
  uint8_t* Acquire(int64_t size, int64_t* alloc_size);

  /// \brief Returns a block obtained from Acquire. `alloc_size` must be the
  /// value Acquire reported for it.
  void Release(uint8_t* data, int64_t alloc_size);

  /// \brief The block size Acquire would report for a request of `size`
  /// bytes: its size class (at most 1.25x the request above 256 B), or
  /// 64-byte alignment rounding above the max pooled class. Per-query
  /// charging, budgets, spill decisions and `peak_live_bytes` all count
  /// these class bytes, so they account the bytes actually held, not the
  /// bytes asked for.
  static int64_t AllocSizeFor(int64_t size);

  BufferPoolStats stats() const;

  /// \brief Resets the live-bytes high-water mark (bench runs call this
  /// between backends to attribute peak working set per run).
  void ResetPeak();

  /// \brief Frees every cached block.
  void Trim();

  int64_t max_cached_bytes() const { return max_cached_bytes_; }

  /// \brief The process-wide pool Buffer::Allocate draws from. Never
  /// destroyed (buffers may outlive static destruction order).
  static BufferPool* Global();

  /// \brief Cache cap for default-constructed pools: TQP_BUFFER_POOL_MB env
  /// var (0 disables recycling), else 256 MiB.
  static int64_t DefaultMaxCachedBytes();

  /// \brief Default per-query memory budget: TQP_MEMORY_BUDGET_MB env var in
  /// MiB; 0 (or unset) = unlimited.
  static int64_t DefaultMemoryBudgetBytes();

  /// \brief Budget in bytes for an ExecOptions/CompileOptions
  /// `memory_budget_bytes` field: positive values are explicit caps, 0 defers
  /// to DefaultMemoryBudgetBytes(), negative means explicitly unlimited.
  static int64_t ResolveMemoryBudget(int64_t option_bytes);

  /// \brief Per-query accounting scope with an optional byte budget and a
  /// disk spill tier.
  ///
  /// One QueryScope represents one query's memory: while the scope is
  /// *ambient* on a thread (see Attach), every Buffer::Allocate on that
  /// thread charges the scope, and the charge is returned when the buffer
  /// dies — wherever and whenever that happens (the ledger is shared, so
  /// result tensors handed to the caller keep discharging correctly after
  /// the scope itself is gone). The thread pool and step scheduler propagate
  /// the ambient scope into every task submitted while it is attached, so a
  /// query's morsel fan-out charges the query no matter which worker runs it.
  ///
  /// With a budget, the scope also maintains a registry of *spillable*
  /// values: materialized, pinned-but-idle step outputs and completed morsel
  /// chunks that executors register between producing a value and its last
  /// consumer reading it. An allocation that would push the query's live
  /// bytes over the budget first evicts registered values cold-first (least
  /// recently pinned) to disk; a consumer pinning a spilled value faults it
  /// back in (after making room the same way). Values on disk cost no
  /// resident bytes, so `peak_live_bytes` stays at or under the budget
  /// whenever eviction could cover the overage (`budget_overruns` counts the
  /// times it could not).
  ///
  /// All of a scope's evictions append to one *spill segment*, a temp file
  /// (`tqp-spill-<pid>-<seq>.seg` under TMPDIR) opened on the first eviction:
  /// a streaming query spills hundreds of morsel chunks, and a file per
  /// chunk would cost a create/open/unlink each. A value that leaves disk
  /// (faulted back or dropped) gives its range back by hole punching, and
  /// the segment truncates to zero whenever nothing is on disk, so disk use
  /// tracks the bytes currently spilled. Payloads are bit-exact raw tensor
  /// bytes; a faulted value is indistinguishable from one that never left
  /// memory, which is what keeps out-of-core execution bit-identical to the
  /// in-memory path.
  ///
  /// Thread safety: all methods are safe to call concurrently. Spill I/O
  /// runs under the scope's registry lock — concurrent evictions/faults of
  /// one query serialize; different queries never share a segment.
  class QueryScope {
   public:
    /// `budget_bytes <= 0` disables the budget/spill tier (pure accounting).
    explicit QueryScope(int64_t budget_bytes = 0);
    /// Closes and unlinks the spill segment. Registered slots must have been
    /// dropped by their executor already (SpillableSet guarantees this).
    ~QueryScope();

    QueryScope(const QueryScope&) = delete;
    QueryScope& operator=(const QueryScope&) = delete;

    /// \brief The scope ambient on the calling thread (null when none).
    static QueryScope* Current();

    /// \brief RAII ambient scope for the calling thread (one piece of a
    /// runtime::QueryContext, which attaches it around a query's execution
    /// and every task the query submits); allocations deep in the kernel
    /// stack find it via Current(). `scope` may be null (masks any
    /// inherited scope). Attach only stores the pointer — it is
    /// dereferenced solely by allocations made while attached.
    class Attach {
     public:
      explicit Attach(QueryScope* scope);
      ~Attach();
      Attach(const Attach&) = delete;
      Attach& operator=(const Attach&) = delete;

     private:
      QueryScope* prev_;
    };

    int64_t budget_bytes() const { return budget_bytes_; }
    bool spill_enabled() const { return budget_bytes_ > 0; }
    QueryMemoryStats stats() const;

    /// \brief Charges `bytes` (a rounded AllocSizeFor value) to the query,
    /// evicting registered idle values first when the charge would exceed
    /// the budget. Returns the ledger the buffer must discharge into on
    /// death. Called by Buffer::Allocate.
    std::shared_ptr<QueryMemoryLedger> ChargeForAllocation(int64_t bytes);

    /// \brief Registers `*slot` — a materialized, pool-backed value owned by
    /// the caller — as an eviction candidate. Returns its registration id,
    /// or 0 when the value is not spillable (undefined, external wrap,
    /// empty) or the scope has no budget. `*slot` must stay valid (and must
    /// not be reassigned by the caller) until Drop.
    uint64_t AddSpillable(Tensor* slot);

    /// \brief Faults the value back in if it is on disk and pins it
    /// resident; a pinned value is never evicted. Pin/Unpin calls balance.
    Status Pin(uint64_t id);
    void Unpin(uint64_t id);

    /// \brief Unregisters the value, releasing its segment range if it is on
    /// disk. The caller may reassign `*slot` afterwards.
    void Drop(uint64_t id);

   private:
    struct Record {
      Tensor* slot = nullptr;
      uint64_t id = 0;
      int pins = 0;
      uint64_t touch = 0;   // last registration/unpin tick; coldest = lowest
      bool on_disk = false;
      /// Consecutive failed evictions of this value (reset on success). A
      /// failed eviction is retried: the record re-enters victim candidacy
      /// once the steady clock passes `retry_after_nanos` (exponential
      /// backoff in io_failures), instead of being excluded forever.
      int io_failures = 0;
      int64_t retry_after_nanos = 0;
      DType dtype = DType::kFloat64;
      int64_t rows = 0;
      int64_t cols = 0;
      DeviceKind device = DeviceKind::kCpu;
      int64_t disk_bytes = 0;  // payload size
      int64_t offset = 0;      // payload position in the segment (on_disk)
    };

    /// Evicts cold idle values until live + need fits the budget. Returns
    /// false when it ran out of victims first (or the scope's spill tier is
    /// disabled after repeated hard I/O failures).
    bool MakeRoomLocked(int64_t need) TQP_REQUIRES(spill_mu_);
    /// Appends `rec`'s value to the spill segment and drops the resident
    /// tensor. Transient write failures retry in place with bounded
    /// exponential backoff; a hard failure leaves the value resident,
    /// schedules the record for a later retry, and counts toward the
    /// per-scope disable threshold (a full disk degrades this one query to
    /// resident-only execution, never the whole process).
    bool EvictLocked(Record* rec) TQP_REQUIRES(spill_mu_);
    /// Reads `rec`'s value back into a fresh tensor, retrying transient
    /// read failures the same way.
    Status FaultLocked(Record* rec) TQP_REQUIRES(spill_mu_);
    /// Opens the spill segment if it is not open yet.
    bool OpenSegmentLocked() TQP_REQUIRES(spill_mu_);
    /// Marks `rec` resident again and gives its segment range back.
    void ReleaseDiskLocked(Record* rec) TQP_REQUIRES(spill_mu_);
    int64_t LiveBytes() const;

    /// Values smaller than this never register as spillable — a disk write
    /// per sub-page tensor costs more than it frees.
    static constexpr int64_t kMinSpillBytes = 4096;
    /// In-place attempts per spill read/write before declaring the failure
    /// hard, and hard eviction failures tolerated before the scope stops
    /// spilling (per-query disk-full fallback: values stay resident, budget
    /// overruns are counted, the query keeps running).
    static constexpr int kSpillIoAttempts = 3;
    static constexpr int kMaxEvictionFailures = 3;

    const int64_t budget_bytes_;
    const uint64_t scope_seq_;  // distinguishes spill segments across scopes
    std::shared_ptr<QueryMemoryLedger> ledger_;
    /// Lock order: spill_mu_ -> ledger_->mu, everywhere. (EvictLocked drops
    /// the resident tensor while holding spill_mu_, and ~Buffer discharges
    /// into the ledger, so the ledger lock nests inside the registry lock.)
    mutable Mutex spill_mu_;
    std::unordered_map<uint64_t, Record> records_ TQP_GUARDED_BY(spill_mu_);
    uint64_t next_id_ TQP_GUARDED_BY(spill_mu_) = 1;
    uint64_t clock_ TQP_GUARDED_BY(spill_mu_) = 0;
    /// Bumps when a candidate appears.
    uint64_t generation_ TQP_GUARDED_BY(spill_mu_) = 0;
    /// Generation at last dry scan.
    uint64_t floor_generation_ TQP_GUARDED_BY(spill_mu_) = ~uint64_t{0};
    /// Resets on any success.
    int consecutive_eviction_failures_ TQP_GUARDED_BY(spill_mu_) = 0;
    /// Latched per-query disk-full fallback.
    bool spill_disabled_ TQP_GUARDED_BY(spill_mu_) = false;
    /// The spill segment; opened on the first eviction attempt.
    std::string segment_path_ TQP_GUARDED_BY(spill_mu_);
    int segment_fd_ TQP_GUARDED_BY(spill_mu_) = -1;
    /// Next append offset (block-aligned); resets when nothing is on disk.
    int64_t segment_end_ TQP_GUARDED_BY(spill_mu_) = 0;
    int64_t records_on_disk_ TQP_GUARDED_BY(spill_mu_) = 0;
  };

 private:
  // Pooled classes: 64, 128 and 256 B, then four per octave,
  // 2^k x {1.25, 1.5, 1.75, 2} for k = 8 .. 23, up to 16 MiB (2^24); larger
  // requests bypass. Every class is a multiple of the 64-byte alignment.
  static constexpr int kMinClassLog2 = 6;     // 64 B
  static constexpr int kQuarterBaseLog2 = 8;  // first octave split in four
  static constexpr int kMaxClassLog2 = 24;
  static constexpr int kNumSmallClasses =
      kQuarterBaseLog2 - kMinClassLog2 + 1;  // 64, 128, 256
  static constexpr int kNumClasses =
      kNumSmallClasses + 4 * (kMaxClassLog2 - kQuarterBaseLog2);

  /// Class index for `size` (O(1) bit arithmetic), or -1 when it exceeds
  /// the max pooled class.
  static int ClassIndex(int64_t size);
  /// Block size of class `cls`.
  static int64_t ClassSize(int cls);

  const int64_t max_cached_bytes_;
  mutable Mutex mu_;
  std::vector<uint8_t*> free_lists_[kNumClasses] TQP_GUARDED_BY(mu_);
  BufferPoolStats stats_ TQP_GUARDED_BY(mu_);
};

/// \brief RAII bookkeeping for one executor run's spillable registrations:
/// one id slot per program node, dropped on destruction (error paths
/// included) so no registry record outlives the values vector it points
/// into. All methods are no-ops when constructed without a spill-enabled
/// scope, so executors wire it unconditionally. Slot entries follow the same
/// produce-before-consume happens-before discipline as the executor's values
/// vector (a slot is written by the producing step and read by steps ordered
/// after it).
class SpillableSet {
 public:
  /// `scope` may be null or budget-less; the set is then inert.
  SpillableSet(BufferPool::QueryScope* scope, size_t num_slots);
  ~SpillableSet();

  SpillableSet(const SpillableSet&) = delete;
  SpillableSet& operator=(const SpillableSet&) = delete;

  bool enabled() const { return scope_ != nullptr; }

  /// \brief Registers `*tensor` as slot `i`'s spillable value.
  void Register(size_t i, Tensor* tensor);
  /// \brief Faults slot `i` in (if spilled) and pins it for reading.
  Status PinSlot(size_t i);
  void UnpinSlot(size_t i);
  /// \brief Unregisters slot `i` (the caller is about to release the value).
  void DropSlot(size_t i);

 private:
  BufferPool::QueryScope* scope_;
  std::vector<uint64_t> ids_;
};

}  // namespace tqp

#endif  // TQP_TENSOR_BUFFER_POOL_H_
