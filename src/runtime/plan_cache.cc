#include "runtime/plan_cache.h"

#include <cctype>

#include "obs/metrics.h"

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

std::shared_ptr<const CompiledQuery> PlanCache::Lookup(
    const std::string& normalized_sql) {
  MutexLock lock(mu_);
  auto it = index_.find(normalized_sql);
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
                       std::shared_ptr<const CompiledQuery> plan) {
  if (capacity_ == 0) return;
  MutexLock lock(mu_);
  auto it = index_.find(normalized_sql);
  if (it != index_.end()) {
    it->second->plan = std::move(plan);
    lru_.splice(lru_.begin(), lru_, it->second);
    return;
  }
  lru_.push_front(Entry{normalized_sql, std::move(plan)});
  index_[normalized_sql] = lru_.begin();
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
