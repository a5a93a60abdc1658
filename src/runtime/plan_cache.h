#ifndef TQP_RUNTIME_PLAN_CACHE_H_
#define TQP_RUNTIME_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>

#include "common/sync.h"
#include "compile/compiler.h"

namespace tqp::runtime {

/// \brief Canonical form of a SQL statement for plan-cache keying: lowercases
/// everything outside single-quoted literals, collapses whitespace runs to
/// one space, trims, and drops a trailing semicolon. Two statements differing
/// only in case/whitespace share one cache entry.
std::string NormalizeSql(const std::string& sql);

/// \brief Thread-safe LRU cache of compiled queries, keyed on normalized SQL
/// text. Its owner compiles every entry with one fixed set of
/// CompileOptions (QueryScheduler's), so the text alone identifies a plan.
///
/// Entries are shared_ptr<const CompiledQuery>: executors keep no per-run
/// state, so concurrent sessions can Run() one cached plan simultaneously.
class PlanCache {
 public:
  explicit PlanCache(size_t capacity) : capacity_(capacity) {}

  /// \brief Returns the cached plan for `normalized_sql` or null.
  std::shared_ptr<const CompiledQuery> Lookup(const std::string& normalized_sql);

  /// \brief Inserts (replacing any same-key entry), evicting the least
  /// recently used entry when over capacity. No-op for capacity 0.
  void Insert(const std::string& normalized_sql,
              std::shared_ptr<const CompiledQuery> plan);

  void Clear();

  size_t size() const;
  size_t capacity() const { return capacity_; }
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }

 private:
  struct Entry {
    std::string key;
    std::shared_ptr<const CompiledQuery> plan;
  };

  const size_t capacity_;
  mutable Mutex mu_;
  std::list<Entry> lru_ TQP_GUARDED_BY(mu_);  // front = most recently used
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      TQP_GUARDED_BY(mu_);
  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
};

}  // namespace tqp::runtime

#endif  // TQP_RUNTIME_PLAN_CACHE_H_
