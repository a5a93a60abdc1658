#include "tensor/buffer_pool.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/env.h"
#include "common/fault.h"
#include "common/logging.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "tensor/tensor.h"

namespace tqp {

namespace {

constexpr int64_t kAlignment = 64;

thread_local BufferPool::QueryScope* tls_query_scope = nullptr;

/// Set while the spill tier itself allocates (fault-back): the nested charge
/// must not re-enter eviction (the registry lock is already held and room
/// was made by the caller).
thread_local bool tls_in_spill_io = false;

/// Directory for spill segments: TMPDIR when set, else /tmp.
std::string SpillDir() {
  const char* dir = std::getenv("TMPDIR");
  if (dir != nullptr && *dir != '\0') return dir;
  return "/tmp";
}

uint64_t NextScopeSeq() {
  static std::atomic<uint64_t> seq{0};
  return seq.fetch_add(1, std::memory_order_relaxed);
}

int64_t SteadyNowNanos() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Backoff before the attempt'th in-place retry of a spill read/write
/// (1 ms, 2 ms, 4 ms ...): long enough for a transient condition (EINTR,
/// momentary fd pressure) to clear, short enough to be invisible next to
/// the disk I/O itself.
void SpillRetryBackoff(int attempt) {
  std::this_thread::sleep_for(std::chrono::milliseconds(int64_t{1} << attempt));
}

/// Spill records start on filesystem-block boundaries in the segment.
constexpr int64_t kSegmentAlign = 4096;

int64_t AlignUp(int64_t n, int64_t align) {
  return (n + align - 1) / align * align;
}

/// Runs `io` (::pwrite or ::pread) until all `n` bytes at `offset` have
/// moved, resuming short transfers and interrupted calls; false on any other
/// error (or EOF on read).
template <typename Io, typename Byte>
bool TransferFullyAt(Io io, int fd, Byte* data, int64_t n, int64_t offset) {
  while (n > 0) {
    const ssize_t done = io(fd, data, static_cast<size_t>(n), offset);
    if (done < 0 && errno == EINTR) continue;
    if (done <= 0) return false;
    data += done;
    n -= done;
    offset += done;
  }
  return true;
}

}  // namespace

void DischargeQueryMemory(QueryMemoryLedger* ledger, int64_t bytes) {
  MutexLock lock(ledger->mu);
  ledger->stats.live_bytes -= bytes;
}

int64_t BufferPool::DefaultMaxCachedBytes() {
  static const int64_t cap =
      EnvInt64OrDefault("TQP_BUFFER_POOL_MB", 256, 0, int64_t{1} << 20) << 20;
  return cap;
}

int64_t BufferPool::DefaultMemoryBudgetBytes() {
  static const int64_t budget =
      EnvInt64OrDefault("TQP_MEMORY_BUDGET_MB", 0, 0, int64_t{1} << 20) << 20;
  return budget;
}

int64_t BufferPool::ResolveMemoryBudget(int64_t option_bytes) {
  if (option_bytes > 0) return option_bytes;
  if (option_bytes < 0) return 0;
  return DefaultMemoryBudgetBytes();
}

BufferPool* BufferPool::Global() {
  static BufferPool* pool = [] {
    auto* p = new BufferPool();
    // Pool gauges are sampled from the existing stats struct at exposition
    // time — allocation hot paths gain no new writes.
    auto* registry = obs::MetricsRegistry::Global();
    registry->RegisterCallbackGauge(
        "tqp_buffer_pool_live_bytes", "Live tensor bytes in the global pool",
        [p] { return p->stats().live_bytes; });
    registry->RegisterCallbackGauge(
        "tqp_buffer_pool_peak_live_bytes",
        "Peak live tensor bytes since process start",
        [p] { return p->stats().peak_live_bytes; });
    registry->RegisterCallbackGauge(
        "tqp_buffer_pool_cached_bytes",
        "Recyclable free-list bytes held by the global pool",
        [p] { return p->stats().cached_bytes; });
    registry->RegisterCallbackGauge(
        "tqp_buffer_pool_allocations_total",
        "Block acquisitions from the global pool",
        [p] { return p->stats().allocations; });
    registry->RegisterCallbackGauge(
        "tqp_buffer_pool_hits_total",
        "Acquisitions satisfied from a free list (no malloc)",
        [p] { return p->stats().pool_hits; });
    return p;
  }();
  return pool;
}

BufferPool::BufferPool(int64_t max_cached_bytes)
    : max_cached_bytes_(std::max<int64_t>(0, max_cached_bytes)) {}

BufferPool::~BufferPool() { Trim(); }

int BufferPool::ClassIndex(int64_t size) {
  if (size > (int64_t{1} << kMaxClassLog2)) return -1;
  int cls = 0;
  while ((int64_t{1} << (kMinClassLog2 + cls)) < size) ++cls;
  return cls;
}

int64_t BufferPool::AllocSizeFor(int64_t size) {
  const int cls = ClassIndex(size);
  if (cls < 0) return ((size + kAlignment - 1) / kAlignment) * kAlignment;
  return int64_t{1} << (kMinClassLog2 + cls);
}

uint8_t* BufferPool::Acquire(int64_t size, int64_t* alloc_size) {
  // Fault seam: a hit behaves exactly like malloc exhaustion. The caller
  // (Buffer::Allocate) discharges the query ledger and returns a clean
  // Status::OutOfMemory, so injected allocation faults prove the OOM
  // unwind path leaks nothing.
  if (FaultHit(FaultSite::kAlloc)) return nullptr;
  const int cls = ClassIndex(size);
  if (cls < 0) {
    // Bypass: too big to pool. Round up for aligned_alloc's contract.
    const int64_t alloc = AllocSizeFor(size);
    auto* mem = static_cast<uint8_t*>(
        std::aligned_alloc(static_cast<size_t>(kAlignment), static_cast<size_t>(alloc)));
    if (mem == nullptr) return nullptr;
    std::memset(mem, 0, static_cast<size_t>(alloc));
    *alloc_size = alloc;
    MutexLock lock(mu_);
    ++stats_.bypass;
    stats_.live_bytes += alloc;
    stats_.peak_live_bytes = std::max(stats_.peak_live_bytes, stats_.live_bytes);
    return mem;
  }
  const int64_t alloc = int64_t{1} << (kMinClassLog2 + cls);
  *alloc_size = alloc;
  uint8_t* mem = nullptr;
  {
    MutexLock lock(mu_);
    ++stats_.allocations;
    auto& free_list = free_lists_[cls];
    if (!free_list.empty()) {
      mem = free_list.back();
      free_list.pop_back();
      ++stats_.pool_hits;
      stats_.recycled_bytes += alloc;
      stats_.cached_bytes -= alloc;
    } else {
      ++stats_.pool_misses;
    }
    stats_.live_bytes += alloc;
    stats_.peak_live_bytes = std::max(stats_.peak_live_bytes, stats_.live_bytes);
  }
  if (mem == nullptr) {
    mem = static_cast<uint8_t*>(
        std::aligned_alloc(static_cast<size_t>(kAlignment), static_cast<size_t>(alloc)));
    if (mem == nullptr) {
      MutexLock lock(mu_);
      --stats_.pool_misses;
      --stats_.allocations;
      stats_.live_bytes -= alloc;
      return nullptr;
    }
  }
  // Recycled and fresh blocks alike hand out zeroed memory (string padding
  // bytes must be zero for bit-identical results) — but only over the bytes
  // the caller asked for: nothing ever reads past the requested size, and a
  // request just over a class boundary would otherwise pay nearly double.
  const int64_t zero = std::min(
      alloc, ((size + kAlignment - 1) / kAlignment) * kAlignment);
  std::memset(mem, 0, static_cast<size_t>(zero));
  return mem;
}

void BufferPool::Release(uint8_t* data, int64_t alloc_size) {
  if (data == nullptr) return;
  const int cls = ClassIndex(alloc_size);
  {
    MutexLock lock(mu_);
    stats_.live_bytes -= alloc_size;
    if (cls >= 0 && (int64_t{1} << (kMinClassLog2 + cls)) == alloc_size &&
        stats_.cached_bytes + alloc_size <= max_cached_bytes_) {
      free_lists_[cls].push_back(data);
      stats_.cached_bytes += alloc_size;
      return;
    }
  }
  std::free(data);
}

BufferPoolStats BufferPool::stats() const {
  MutexLock lock(mu_);
  return stats_;
}

void BufferPool::ResetPeak() {
  MutexLock lock(mu_);
  stats_.peak_live_bytes = stats_.live_bytes;
}

void BufferPool::Trim() {
  MutexLock lock(mu_);
  for (auto& free_list : free_lists_) {
    for (uint8_t* mem : free_list) std::free(mem);
    free_list.clear();
  }
  stats_.cached_bytes = 0;
}

// ---------------------------------------------------------------- QueryScope

BufferPool::QueryScope::QueryScope(int64_t budget_bytes)
    : budget_bytes_(std::max<int64_t>(0, budget_bytes)),
      scope_seq_(NextScopeSeq()),
      ledger_(std::make_shared<QueryMemoryLedger>()) {
  // The ledger is not shared until this constructor returns, but the lock
  // keeps the guarded-field contract unconditional (and is uncontended).
  MutexLock lock(ledger_->mu);
  ledger_->stats.budget_bytes = budget_bytes_;
}

BufferPool::QueryScope::~QueryScope() {
  MutexLock lock(spill_mu_);
  records_.clear();
  if (segment_fd_ >= 0) {
    ::close(segment_fd_);
    ::unlink(segment_path_.c_str());
  }
}

BufferPool::QueryScope* BufferPool::QueryScope::Current() {
  return tls_query_scope;
}

BufferPool::QueryScope::Attach::Attach(QueryScope* scope)
    : prev_(tls_query_scope) {
  tls_query_scope = scope;
}

BufferPool::QueryScope::Attach::~Attach() { tls_query_scope = prev_; }

QueryMemoryStats BufferPool::QueryScope::stats() const {
  MutexLock lock(ledger_->mu);
  return ledger_->stats;
}

int64_t BufferPool::QueryScope::LiveBytes() const {
  MutexLock lock(ledger_->mu);
  return ledger_->stats.live_bytes;
}

std::shared_ptr<QueryMemoryLedger> BufferPool::QueryScope::ChargeForAllocation(
    int64_t bytes) {
  // Make room *before* the allocation lands: idle values move to disk first,
  // so resident bytes never hold both the victim and the new block. Room-
  // making and the charge stay under one registry lock — two concurrent
  // allocations must not both observe the pre-charge gauge, jointly blow the
  // budget, and leave budget_overruns at zero. (This serializes a budgeted
  // query's allocations on its own scope; different queries never contend.)
  // The spill tier's own fault-back allocations skip the lock (their caller
  // already holds spill_mu_ and made room).
  if (budget_bytes_ > 0 && !tls_in_spill_io) {
    MutexLock lock(spill_mu_);
    if (!MakeRoomLocked(bytes)) {
      MutexLock ledger_lock(ledger_->mu);
      ++ledger_->stats.budget_overruns;
    }
    MutexLock ledger_lock(ledger_->mu);
    ledger_->stats.live_bytes += bytes;
    ledger_->stats.peak_live_bytes =
        std::max(ledger_->stats.peak_live_bytes, ledger_->stats.live_bytes);
    return ledger_;
  }
  MutexLock lock(ledger_->mu);
  ledger_->stats.live_bytes += bytes;
  ledger_->stats.peak_live_bytes =
      std::max(ledger_->stats.peak_live_bytes, ledger_->stats.live_bytes);
  return ledger_;
}

uint64_t BufferPool::QueryScope::AddSpillable(Tensor* slot) {
  // Values below the minimum are never worth a spill file: a 1-row-morsel
  // sweep would otherwise turn every 8-byte chunk into its own disk file.
  if (!spill_enabled() || slot == nullptr || !slot->defined() ||
      !slot->owns_data() || slot->nbytes() < kMinSpillBytes) {
    return 0;
  }
  MutexLock lock(spill_mu_);
  const uint64_t id = next_id_++;
  Record& rec = records_[id];
  rec.slot = slot;
  rec.id = id;
  rec.touch = ++clock_;
  ++generation_;
  return id;
}

Status BufferPool::QueryScope::Pin(uint64_t id) {
  if (id == 0) return Status::OK();
  MutexLock lock(spill_mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return Status::OK();
  Record& rec = it->second;
  if (rec.on_disk) {
    TQP_RETURN_NOT_OK(FaultLocked(&rec));
  }
  ++rec.pins;
  rec.touch = ++clock_;
  return Status::OK();
}

void BufferPool::QueryScope::Unpin(uint64_t id) {
  if (id == 0) return;
  MutexLock lock(spill_mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return;
  Record& rec = it->second;
  if (rec.pins > 0) --rec.pins;
  rec.touch = ++clock_;
  if (rec.pins == 0) ++generation_;  // a new eviction candidate exists
}

void BufferPool::QueryScope::Drop(uint64_t id) {
  if (id == 0) return;
  MutexLock lock(spill_mu_);
  auto it = records_.find(id);
  if (it == records_.end()) return;
  if (it->second.on_disk) ReleaseDiskLocked(&it->second);
  records_.erase(it);
}

bool BufferPool::QueryScope::MakeRoomLocked(int64_t need) {
  if (LiveBytes() + need <= budget_bytes_) return true;
  // Repeated hard eviction failures (disk full, unwritable spill dir)
  // disable spilling for this scope only: the query degrades to resident
  // execution with budget_overruns counted, instead of hammering a dead
  // disk on every allocation — and other queries' spill tiers are
  // unaffected.
  if (spill_disabled_) return false;
  // Thrash guard: once a scan found nothing evictable (the irreducible
  // working set is over the budget), don't rescan until the registry gains
  // a new candidate — at the floor, every allocation would otherwise pay a
  // full scan for nothing.
  if (floor_generation_ == generation_) return false;
  // One clock read per call: a record whose eviction fails below stays
  // deferred for the rest of this call, however long the failed attempt and
  // its retries took.
  const int64_t now = SteadyNowNanos();
  while (LiveBytes() + need > budget_bytes_) {
    Record* coldest = nullptr;
    bool deferred_by_backoff = false;
    for (auto& [id, rec] : records_) {
      (void)id;
      if (rec.on_disk || rec.pins > 0) continue;
      if (rec.slot == nullptr || !rec.slot->defined() ||
          !rec.slot->owns_data() || rec.slot->nbytes() <= 0) {
        continue;
      }
      // A previously failed eviction re-enters candidacy once its backoff
      // window passes; until then it is deferred, not excluded.
      if (rec.io_failures > 0 && now < rec.retry_after_nanos) {
        deferred_by_backoff = true;
        continue;
      }
      if (coldest == nullptr || rec.touch < coldest->touch) coldest = &rec;
    }
    if (coldest == nullptr) {
      // Don't latch the floor while candidates are merely in backoff —
      // they become evictable again with no generation bump, so a later
      // scan must run.
      if (!deferred_by_backoff) floor_generation_ = generation_;
      return false;
    }
    if (!EvictLocked(coldest) && spill_disabled_) return false;
  }
  return true;
}

bool BufferPool::QueryScope::OpenSegmentLocked() {
  if (segment_fd_ >= 0) return true;
  if (segment_path_.empty()) {
    segment_path_ = SpillDir() + "/tqp-spill-" +
                    std::to_string(static_cast<long long>(::getpid())) + "-" +
                    std::to_string(scope_seq_) + ".seg";
  }
  segment_fd_ = ::open(segment_path_.c_str(),
                       O_RDWR | O_CREAT | O_TRUNC | O_CLOEXEC, 0600);
  return segment_fd_ >= 0;
}

void BufferPool::QueryScope::ReleaseDiskLocked(Record* rec) {
  rec->on_disk = false;
  {
    MutexLock lock(ledger_->mu);
    ledger_->stats.spilled_now_bytes -= rec->disk_bytes;
  }
  // The segment is append-only, so a record's bytes stay allocated until
  // they are given back explicitly: once nothing is on disk the whole file
  // truncates and appends restart at offset 0; otherwise the record's own
  // (block-aligned) range is punched out. Both are best effort — a failure
  // only costs disk space until the scope unlinks the segment.
  if (--records_on_disk_ == 0) {
    segment_end_ = 0;
    [[maybe_unused]] const int rc = ::ftruncate(segment_fd_, 0);
    return;
  }
#ifdef FALLOC_FL_PUNCH_HOLE
  [[maybe_unused]] const int rc =
      ::fallocate(segment_fd_, FALLOC_FL_PUNCH_HOLE | FALLOC_FL_KEEP_SIZE,
                  rec->offset, AlignUp(rec->disk_bytes, kSegmentAlign));
#endif
}

bool BufferPool::QueryScope::EvictLocked(Record* rec) {
  const Tensor& t = *rec->slot;
  rec->dtype = t.dtype();
  rec->rows = t.rows();
  rec->cols = t.cols();
  rec->device = t.device();
  rec->disk_bytes = t.nbytes();
  // Append at the segment end. Transient write failures (interrupted
  // syscall, momentary fd pressure, an injected kSpillWrite fault) retry in
  // place with short backoff; only after kSpillIoAttempts does the failure
  // count as hard. The end offset advances only after a complete write, so
  // a failed or short append is overwritten by the next one and never
  // reaches an earlier record's bytes.
  bool wrote = false;
  for (int attempt = 0; attempt < kSpillIoAttempts; ++attempt) {
    if (attempt > 0) SpillRetryBackoff(attempt - 1);
    if (FaultHit(FaultSite::kSpillWrite)) continue;  // simulated I/O error
    if (!OpenSegmentLocked()) continue;
    if (!TransferFullyAt(::pwrite, segment_fd_,
                         static_cast<const uint8_t*>(t.raw_data()),
                         rec->disk_bytes, segment_end_)) {
      continue;
    }
    wrote = true;
    break;
  }
  if (!wrote) {
    // Hard failure: the value stays resident and the record re-enters
    // victim candidacy after an exponential backoff (1 ms << failures,
    // capped) instead of being poisoned forever.
    ++rec->io_failures;
    const int shift = std::min(rec->io_failures - 1, 6);
    rec->retry_after_nanos = SteadyNowNanos() + (int64_t{1000000} << shift);
    if (++consecutive_eviction_failures_ >= kMaxEvictionFailures &&
        !spill_disabled_) {
      spill_disabled_ = true;
      TQP_LOG(Warning) << "spill: " << consecutive_eviction_failures_
                       << " consecutive eviction failures; disabling the "
                          "spill tier for this query (resident fallback)";
    }
    TQP_LOG(Warning) << "spill: cannot write " << segment_path_
                     << "; value stays resident (retry after backoff)";
    return false;
  }
  rec->offset = segment_end_;
  // Records start on block boundaries, so punching one record's range out
  // never frees a block another record still uses.
  segment_end_ += AlignUp(rec->disk_bytes, kSegmentAlign);
  ++records_on_disk_;
  rec->io_failures = 0;
  rec->retry_after_nanos = 0;
  consecutive_eviction_failures_ = 0;
  // Dropping the resident tensor discharges its bytes from the ledger via
  // ~Buffer (lock order: spill_mu_ -> ledger mu, consistent everywhere).
  *rec->slot = Tensor();
  rec->on_disk = true;
  obs::TraceInstant("memory", "spill", "bytes", rec->disk_bytes);
  static obs::Counter* spill_events_metric =
      obs::MetricsRegistry::Global()->GetCounter(
          "tqp_spill_events_total",
          "Tensors evicted to the disk spill tier (budget pressure)");
  spill_events_metric->Add(1);
  static obs::Counter* spilled_bytes_metric =
      obs::MetricsRegistry::Global()->GetCounter(
          "tqp_spilled_bytes_total", "Bytes written to the disk spill tier");
  spilled_bytes_metric->Add(rec->disk_bytes);
  MutexLock lock(ledger_->mu);
  ++ledger_->stats.spill_events;
  ledger_->stats.spilled_bytes += rec->disk_bytes;
  ledger_->stats.spilled_now_bytes += rec->disk_bytes;
  return true;
}

Status BufferPool::QueryScope::FaultLocked(Record* rec) {
  // Best-effort room for the returning value (at its rounded block size);
  // if nothing idle is left the fault proceeds anyway — the reader needs
  // the bytes resident.
  if (!MakeRoomLocked(AllocSizeFor(rec->disk_bytes))) {
    MutexLock lock(ledger_->mu);
    ++ledger_->stats.budget_overruns;
  }
  tls_in_spill_io = true;
  auto tensor_or = Tensor::Empty(rec->dtype, rec->rows, rec->cols, rec->device);
  tls_in_spill_io = false;
  TQP_RETURN_NOT_OK(tensor_or.status());
  Tensor tensor = std::move(tensor_or).ValueOrDie();
  // Same bounded in-place retry as the write side: the reader needs these
  // bytes to make progress, so only a hard (post-retry) failure surfaces,
  // and it surfaces as a clean IOError the query fails with — the record
  // stays on_disk with its bytes intact, and the scope destructor removes
  // the segment.
  bool read_ok = false;
  for (int attempt = 0; attempt < kSpillIoAttempts; ++attempt) {
    if (attempt > 0) SpillRetryBackoff(attempt - 1);
    if (FaultHit(FaultSite::kSpillRead)) continue;  // simulated I/O error
    if (!TransferFullyAt(::pread, segment_fd_,
                         static_cast<uint8_t*>(tensor.raw_mutable_data()),
                         rec->disk_bytes, rec->offset)) {
      continue;
    }
    read_ok = true;
    break;
  }
  if (!read_ok) {
    return Status::IOError("spill: cannot read back " + segment_path_ +
                           " at offset " + std::to_string(rec->offset));
  }
  *rec->slot = std::move(tensor);
  ReleaseDiskLocked(rec);
  obs::TraceInstant("memory", "fault", "bytes", rec->disk_bytes);
  static obs::Counter* fault_events_metric =
      obs::MetricsRegistry::Global()->GetCounter(
          "tqp_fault_events_total",
          "Spilled tensors faulted back from disk on first touch");
  fault_events_metric->Add(1);
  MutexLock lock(ledger_->mu);
  ++ledger_->stats.fault_events;
  ledger_->stats.faulted_bytes += rec->disk_bytes;
  return Status::OK();
}

// -------------------------------------------------------------- SpillableSet

SpillableSet::SpillableSet(BufferPool::QueryScope* scope, size_t num_slots)
    : scope_(scope != nullptr && scope->spill_enabled() ? scope : nullptr) {
  if (scope_ != nullptr) ids_.assign(num_slots, 0);
}

SpillableSet::~SpillableSet() {
  if (scope_ == nullptr) return;
  for (uint64_t id : ids_) {
    if (id != 0) scope_->Drop(id);
  }
}

void SpillableSet::Register(size_t i, Tensor* tensor) {
  if (scope_ == nullptr) return;
  ids_[i] = scope_->AddSpillable(tensor);
}

Status SpillableSet::PinSlot(size_t i) {
  if (scope_ == nullptr || ids_[i] == 0) return Status::OK();
  return scope_->Pin(ids_[i]);
}

void SpillableSet::UnpinSlot(size_t i) {
  if (scope_ == nullptr || ids_[i] == 0) return;
  scope_->Unpin(ids_[i]);
}

void SpillableSet::DropSlot(size_t i) {
  if (scope_ == nullptr || ids_[i] == 0) return;
  scope_->Drop(ids_[i]);
  ids_[i] = 0;
}

}  // namespace tqp
