#include "runtime/plan_cache.h"

#include <cctype>
#include <cstdint>

#include "obs/metrics.h"
#include "operators/partitioned/partition.h"

namespace tqp::runtime {

std::string NormalizeSql(const std::string& sql) {
  std::string out;
  out.reserve(sql.size());
  bool in_string = false;
  bool pending_space = false;
  for (size_t i = 0; i < sql.size(); ++i) {
    const char c = sql[i];
    if (in_string) {
      out.push_back(c);
      // '' is an escaped quote inside a literal, not a terminator.
      if (c == '\'') {
        if (i + 1 < sql.size() && sql[i + 1] == '\'') {
          out.push_back(sql[++i]);
        } else {
          in_string = false;
        }
      }
      continue;
    }
    if (std::isspace(static_cast<unsigned char>(c))) {
      pending_space = !out.empty();
      continue;
    }
    if (pending_space) {
      out.push_back(' ');
      pending_space = false;
    }
    if (c == '\'') {
      in_string = true;
      out.push_back(c);
      continue;
    }
    out.push_back(static_cast<char>(std::tolower(static_cast<unsigned char>(c))));
  }
  // Trailing ';' (and any space before it) does not change the statement.
  while (!out.empty() && (out.back() == ';' || out.back() == ' ')) {
    out.pop_back();
  }
  return out;
}

std::string PlanCache::MakeKey(const std::string& normalized_sql,
                               const CompileOptions& options) {
  // Every option that shapes the compiled artifact participates in the key:
  // target/device pick the executor, charge_transfers changes what a
  // simulated device is charged, fusion_block_rows/num_threads/morsel_rows
  // are baked into the executor, and an explicit shared pool is bound at
  // construction (a cache shared across schedulers must never hand one
  // scheduler an executor wired to another's pool).
  std::string key = normalized_sql;
  key.push_back('\x1f');
  key += std::to_string(static_cast<int>(options.target));
  key.push_back('/');
  key += std::to_string(static_cast<int>(options.device));
  key.push_back('/');
  key += options.charge_transfers ? '1' : '0';
  key.push_back('/');
  key += std::to_string(options.fusion_block_rows);
  key.push_back('/');
  key += std::to_string(options.num_threads);
  key.push_back('/');
  key += std::to_string(options.morsel_rows);
  key.push_back('/');
  key += std::to_string(reinterpret_cast<uintptr_t>(options.pool));
  key.push_back('/');
  key += options.pipeline_overlap ? '1' : '0';
  key.push_back('/');
  key += options.expr_fusion ? '1' : '0';
  key.push_back('/');
  key += options.adaptive_morsels ? '1' : '0';
  key.push_back('/');
  // Resolved, not raw: the TQP_PARTITIONED_BREAKERS default is stable
  // within a process, so the unset option and its resolution are the same
  // compiled artifact.
  key += (options.partitioned_breakers ||
          op::partitioned::DefaultPartitionedBreakers())
             ? '1'
             : '0';
  key.push_back('/');
  key += std::to_string(reinterpret_cast<uintptr_t>(options.step_scheduler));
  key.push_back('/');
  key += std::to_string(options.memory_budget_bytes);
  key.push_back('/');
  key += std::to_string(options.deadline_ms);
  return key;
}

std::shared_ptr<const CompiledQuery> PlanCache::Lookup(
    const std::string& normalized_sql, const CompileOptions& options) {
  const std::string key = MakeKey(normalized_sql, options);
  MutexLock lock(mu_);
  auto it = index_.find(key);
  // Process-wide mirror of the per-cache counters (all PlanCaches sum here).
  static obs::Counter* hits_metric = obs::MetricsRegistry::Global()->GetCounter(
      "tqp_plan_cache_hits_total", "Compiled-plan cache lookup hits");
  static obs::Counter* misses_metric =
      obs::MetricsRegistry::Global()->GetCounter(
          "tqp_plan_cache_misses_total", "Compiled-plan cache lookup misses");
  if (it == index_.end()) {
    misses_.fetch_add(1, std::memory_order_relaxed);
    misses_metric->Add(1);
    return nullptr;
  }
  hits_.fetch_add(1, std::memory_order_relaxed);
  hits_metric->Add(1);
  lru_.splice(lru_.begin(), lru_, it->second);  // bump to most recent
  return it->second->plan;
}

void PlanCache::Insert(const std::string& normalized_sql,
                       const CompileOptions& options,
                       std::shared_ptr<const CompiledQuery> plan) {
  if (capacity_ == 0) return;
  const std::string key = MakeKey(normalized_sql, options);
  MutexLock lock(mu_);
  auto it = index_.find(key);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{key, std::move(plan)});
  index_[key] = lru_.begin();
  if (lru_.size() > capacity_) {
    index_.erase(lru_.back().key);
    lru_.pop_back();
  }
}

void PlanCache::Clear() {
  MutexLock lock(mu_);
  lru_.clear();
  index_.clear();
}

size_t PlanCache::size() const {
  MutexLock lock(mu_);
  return lru_.size();
}

}  // namespace tqp::runtime
