#include "baseline/volcano.h"

#include <algorithm>
#include <unordered_map>

#include "plan/expr_eval.h"
#include "relational/table_builder.h"

namespace tqp {

namespace {

using Row = std::vector<Scalar>;

// Appends one key value to a hash-map key (type-tagged, unambiguous).
void AppendKey(const Scalar& v, std::string* out) {
  if (v.is_string()) {
    *out += 's';
    *out += v.string_value();
  } else if (v.is_float()) {
    *out += 'f';
    const double d = v.float_value();
    out->append(reinterpret_cast<const char*>(&d), 8);
  } else {
    *out += 'i';
    const int64_t i = v.AsInt64();
    out->append(reinterpret_cast<const char*>(&i), 8);
  }
  *out += '\x1f';
}

// Serializes a GROUP BY key tuple: byte-equal values group together, so
// -0.0 and +0.0 are two groups.
std::string EncodeKey(const Row& row, const std::vector<int>& cols) {
  std::string out;
  for (int c : cols) AppendKey(row[static_cast<size_t>(c)], &out);
  return out;
}

// Serializes a join key tuple so that two tuples encode equal exactly when
// every key pair compares `=`: a pair with a float side compares as doubles
// (the compiler's PromoteTypes), and -0.0 folds into +0.0. A NaN key equals
// nothing; then this returns false and the row matches no row.
bool EncodeJoinKey(const Row& row, const std::vector<int>& cols,
                   const std::vector<bool>& as_double, std::string* out) {
  out->clear();
  for (size_t k = 0; k < cols.size(); ++k) {
    const Scalar& v = row[static_cast<size_t>(cols[k])];
    if (!as_double[k]) {
      AppendKey(v, out);
      continue;
    }
    const double d = v.AsDouble();
    if (d != d) return false;
    AppendKey(Scalar(d == 0.0 ? 0.0 : d), out);
  }
  return true;
}

/// Volcano iterator interface.
class Operator {
 public:
  virtual ~Operator() = default;
  virtual Status Open() = 0;
  /// Returns true and fills `row` when a tuple is produced; false at EOF.
  virtual Result<bool> Next(Row* row) = 0;
};

class ScanOp : public Operator {
 public:
  ScanOp(Table table, std::vector<int> columns)
      : table_(std::move(table)), columns_(std::move(columns)) {
    if (columns_.empty()) {
      for (int i = 0; i < table_.num_columns(); ++i) columns_.push_back(i);
    }
  }
  Status Open() override {
    cursor_ = 0;
    return Status::OK();
  }
  Result<bool> Next(Row* row) override {
    if (cursor_ >= table_.num_rows()) return false;
    row->clear();
    for (int c : columns_) {
      row->push_back(table_.column(c).GetScalar(cursor_));
    }
    ++cursor_;
    return true;
  }

 private:
  Table table_;
  std::vector<int> columns_;
  int64_t cursor_ = 0;
};

class FilterOp : public Operator {
 public:
  FilterOp(std::unique_ptr<Operator> child, BExpr predicate, RowPredictFn predict)
      : child_(std::move(child)), predicate_(std::move(predicate)),
        predict_(std::move(predict)) {}
  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row) override {
    while (true) {
      TQP_ASSIGN_OR_RETURN(bool has, child_->Next(row));
      if (!has) return false;
      const Row& r = *row;
      TQP_ASSIGN_OR_RETURN(
          Scalar keep,
          EvalExprRow(*predicate_,
                      [&r](int i) { return r[static_cast<size_t>(i)]; }, predict_));
      if (keep.bool_value()) return true;
    }
  }

 private:
  std::unique_ptr<Operator> child_;
  BExpr predicate_;
  RowPredictFn predict_;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(std::unique_ptr<Operator> child, std::vector<BExpr> exprs,
            RowPredictFn predict)
      : child_(std::move(child)), exprs_(std::move(exprs)),
        predict_(std::move(predict)) {}
  Status Open() override { return child_->Open(); }
  Result<bool> Next(Row* row) override {
    Row in;
    TQP_ASSIGN_OR_RETURN(bool has, child_->Next(&in));
    if (!has) return false;
    row->clear();
    for (const BExpr& e : exprs_) {
      TQP_ASSIGN_OR_RETURN(
          Scalar v,
          EvalExprRow(*e, [&in](int i) { return in[static_cast<size_t>(i)]; },
                      predict_));
      row->push_back(std::move(v));
    }
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  std::vector<BExpr> exprs_;
  RowPredictFn predict_;
};

class HashJoinOp : public Operator {
 public:
  HashJoinOp(std::unique_ptr<Operator> left, std::unique_ptr<Operator> right,
             const PlanNode& node, RowPredictFn predict)
      : left_(std::move(left)), right_(std::move(right)), node_(node),
        predict_(std::move(predict)) {
    const Schema& ls = node_.children[0]->output_schema;
    const Schema& rs = node_.children[1]->output_schema;
    for (size_t k = 0; k < node_.left_keys.size(); ++k) {
      as_double_.push_back(ls.field(node_.left_keys[k]).type == LogicalType::kFloat64 ||
                           rs.field(node_.right_keys[k]).type == LogicalType::kFloat64);
    }
  }

  Status Open() override {
    TQP_RETURN_NOT_OK(left_->Open());
    TQP_RETURN_NOT_OK(right_->Open());
    // Build on the right side.
    Row row;
    std::string key;
    while (true) {
      auto has = right_->Next(&row);
      TQP_RETURN_NOT_OK(has.status());
      if (!has.ValueOrDie()) break;
      if (EncodeJoinKey(row, node_.right_keys, as_double_, &key)) {
        table_[key].push_back(row);
      }
    }
    pending_.clear();
    pending_pos_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    const bool semi = node_.join_type == sql::JoinType::kSemi;
    const bool anti = node_.join_type == sql::JoinType::kAnti;
    const bool left_outer = node_.join_type == sql::JoinType::kLeft;
    while (true) {
      if (pending_pos_ < pending_.size()) {
        *row = pending_[pending_pos_++];
        return true;
      }
      Row left_row;
      TQP_ASSIGN_OR_RETURN(bool has, left_->Next(&left_row));
      if (!has) return false;
      std::string key;
      const auto it = EncodeJoinKey(left_row, node_.left_keys, as_double_, &key)
                          ? table_.find(key)
                          : table_.end();
      if (semi || anti) {
        bool matched = it != table_.end() && !it->second.empty();
        if (matched && node_.residual) {
          matched = false;
          for (const Row& right_row : it->second) {
            Row combined = left_row;
            combined.insert(combined.end(), right_row.begin(), right_row.end());
            TQP_ASSIGN_OR_RETURN(
                Scalar keep,
                EvalExprRow(*node_.residual,
                            [&combined](int i) {
                              return combined[static_cast<size_t>(i)];
                            },
                            predict_));
            if (keep.bool_value()) {
              matched = true;
              break;
            }
          }
        }
        if (matched != anti) {
          *row = std::move(left_row);
          return true;
        }
        continue;
      }
      pending_.clear();
      pending_pos_ = 0;
      if (it != table_.end()) {
        for (const Row& right_row : it->second) {
          Row combined = left_row;
          combined.insert(combined.end(), right_row.begin(), right_row.end());
          if (node_.residual) {
            TQP_ASSIGN_OR_RETURN(
                Scalar keep,
                EvalExprRow(*node_.residual,
                            [&combined](int i) {
                              return combined[static_cast<size_t>(i)];
                            },
                            predict_));
            if (!keep.bool_value()) continue;
          }
          if (left_outer) combined.push_back(Scalar(true));
          pending_.push_back(std::move(combined));
        }
      }
      if (left_outer && pending_.empty()) {
        // Unmatched left row: NULLs lower to each type's zero plus a false
        // validity flag (the __matched column), mirroring [8]'s mask tensors.
        Row combined = left_row;
        const Schema& right_schema = node_.children[1]->output_schema;
        for (int c = 0; c < right_schema.num_fields(); ++c) {
          switch (right_schema.field(c).type) {
            case LogicalType::kString:
              combined.push_back(Scalar(std::string()));
              break;
            case LogicalType::kFloat64:
              combined.push_back(Scalar(0.0));
              break;
            case LogicalType::kBool:
              combined.push_back(Scalar(false));
              break;
            default:
              combined.push_back(Scalar(int64_t{0}));
              break;
          }
        }
        combined.push_back(Scalar(false));
        pending_.push_back(std::move(combined));
      }
    }
  }

 private:
  std::unique_ptr<Operator> left_;
  std::unique_ptr<Operator> right_;
  const PlanNode& node_;
  RowPredictFn predict_;
  std::vector<bool> as_double_;  // per key pair: compare as doubles
  std::unordered_map<std::string, std::vector<Row>> table_;
  std::vector<Row> pending_;
  size_t pending_pos_ = 0;
};

struct AggState {
  double sum = 0;
  int64_t count = 0;
  double min = 0;
  double max = 0;
  bool seen = false;
};

class HashAggOp : public Operator {
 public:
  HashAggOp(std::unique_ptr<Operator> child, const PlanNode& node,
            RowPredictFn predict)
      : child_(std::move(child)), node_(node), predict_(std::move(predict)) {}

  Status Open() override {
    TQP_RETURN_NOT_OK(child_->Open());
    groups_.clear();
    order_.clear();
    Row row;
    while (true) {
      auto has = child_->Next(&row);
      TQP_RETURN_NOT_OK(has.status());
      if (!has.ValueOrDie()) break;
      TQP_RETURN_NOT_OK(Accumulate(row));
      saw_input_ = true;
    }
    cursor_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    // Global aggregation over empty input still yields one row.
    if (node_.group_exprs.empty() && groups_.empty()) {
      if (cursor_ > 0) return false;
      ++cursor_;
      row->clear();
      for (const AggSpec& agg : node_.aggs) {
        if (agg.op == ReduceOpKind::kCount) {
          row->push_back(Scalar(int64_t{0}));
        } else if (agg.op == ReduceOpKind::kSum) {
          row->push_back(Scalar(0.0));
        } else {
          return Status::Invalid("MIN/MAX over empty input");
        }
      }
      return true;
    }
    if (cursor_ >= order_.size()) return false;
    const std::string& key = order_[cursor_++];
    const GroupEntry& entry = groups_.at(key);
    row->clear();
    for (const Scalar& g : entry.group_values) row->push_back(g);
    for (size_t a = 0; a < node_.aggs.size(); ++a) {
      const AggSpec& agg = node_.aggs[a];
      const AggState& st = entry.states[a];
      switch (agg.op) {
        case ReduceOpKind::kCount:
          row->push_back(Scalar(st.count));
          break;
        case ReduceOpKind::kSum:
          row->push_back(Scalar(st.sum));
          break;
        case ReduceOpKind::kMin:
        case ReduceOpKind::kMax: {
          const double v = agg.op == ReduceOpKind::kMin ? st.min : st.max;
          if (agg.result_type() == LogicalType::kFloat64) {
            row->push_back(Scalar(st.seen ? v : 0.0));
          } else {
            row->push_back(Scalar(static_cast<int64_t>(st.seen ? v : 0)));
          }
          break;
        }
      }
    }
    return true;
  }

 private:
  struct GroupEntry {
    Row group_values;
    std::vector<AggState> states;
  };

  Status Accumulate(const Row& row) {
    auto getter = [&row](int i) { return row[static_cast<size_t>(i)]; };
    Row group_values;
    for (const BExpr& g : node_.group_exprs) {
      TQP_ASSIGN_OR_RETURN(Scalar v, EvalExprRow(*g, getter, predict_));
      group_values.push_back(std::move(v));
    }
    std::vector<int> all(group_values.size());
    for (size_t i = 0; i < all.size(); ++i) all[i] = static_cast<int>(i);
    const std::string key = EncodeKey(group_values, all);
    auto it = groups_.find(key);
    if (it == groups_.end()) {
      GroupEntry entry;
      entry.group_values = std::move(group_values);
      entry.states.resize(node_.aggs.size());
      it = groups_.emplace(key, std::move(entry)).first;
      order_.push_back(key);
    }
    for (size_t a = 0; a < node_.aggs.size(); ++a) {
      const AggSpec& agg = node_.aggs[a];
      AggState& st = it->second.states[a];
      if (agg.count_star) {
        ++st.count;
        continue;
      }
      TQP_ASSIGN_OR_RETURN(Scalar v, EvalExprRow(*agg.arg, getter, predict_));
      const double x = v.AsDouble();
      st.sum += x;
      ++st.count;
      if (!st.seen || x < st.min) st.min = x;
      if (!st.seen || x > st.max) st.max = x;
      st.seen = true;
    }
    return Status::OK();
  }

  std::unique_ptr<Operator> child_;
  const PlanNode& node_;
  RowPredictFn predict_;
  std::unordered_map<std::string, GroupEntry> groups_;
  std::vector<std::string> order_;
  size_t cursor_ = 0;
  bool saw_input_ = false;
};

class SortOp : public Operator {
 public:
  SortOp(std::unique_ptr<Operator> child, const PlanNode& node,
         RowPredictFn predict)
      : child_(std::move(child)), node_(node), predict_(std::move(predict)) {}

  Status Open() override {
    TQP_RETURN_NOT_OK(child_->Open());
    rows_.clear();
    Row row;
    while (true) {
      auto has = child_->Next(&row);
      TQP_RETURN_NOT_OK(has.status());
      if (!has.ValueOrDie()) break;
      rows_.push_back(row);
    }
    // Precompute sort key tuples.
    std::vector<std::vector<Scalar>> keys(rows_.size());
    for (size_t r = 0; r < rows_.size(); ++r) {
      const Row& rr = rows_[r];
      auto getter = [&rr](int i) { return rr[static_cast<size_t>(i)]; };
      for (const SortKey& k : node_.sort_keys) {
        auto v = EvalExprRow(*k.expr, getter, predict_);
        TQP_RETURN_NOT_OK(v.status());
        keys[r].push_back(std::move(v).ValueOrDie());
      }
    }
    std::vector<size_t> index(rows_.size());
    for (size_t i = 0; i < index.size(); ++i) index[i] = i;
    std::stable_sort(index.begin(), index.end(), [&](size_t a, size_t b) {
      for (size_t k = 0; k < node_.sort_keys.size(); ++k) {
        const Scalar& x = keys[a][k];
        const Scalar& y = keys[b][k];
        int c = 0;
        if (x.is_string()) {
          c = x.string_value().compare(y.string_value());
        } else {
          const double dx = x.AsDouble();
          const double dy = y.AsDouble();
          c = dx < dy ? -1 : (dx > dy ? 1 : 0);
        }
        if (c != 0) return node_.sort_keys[k].ascending ? c < 0 : c > 0;
      }
      return false;
    });
    std::vector<Row> sorted(rows_.size());
    for (size_t i = 0; i < index.size(); ++i) sorted[i] = std::move(rows_[index[i]]);
    rows_ = std::move(sorted);
    cursor_ = 0;
    return Status::OK();
  }

  Result<bool> Next(Row* row) override {
    if (cursor_ >= rows_.size()) return false;
    *row = rows_[cursor_++];
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  const PlanNode& node_;
  RowPredictFn predict_;
  std::vector<Row> rows_;
  size_t cursor_ = 0;
};

class LimitOp : public Operator {
 public:
  LimitOp(std::unique_ptr<Operator> child, int64_t limit)
      : child_(std::move(child)), limit_(limit) {}
  Status Open() override {
    produced_ = 0;
    return child_->Open();
  }
  Result<bool> Next(Row* row) override {
    if (produced_ >= limit_) return false;
    TQP_ASSIGN_OR_RETURN(bool has, child_->Next(row));
    if (!has) return false;
    ++produced_;
    return true;
  }

 private:
  std::unique_ptr<Operator> child_;
  int64_t limit_;
  int64_t produced_ = 0;
};

Result<std::unique_ptr<Operator>> BuildOperator(const PlanNode& node,
                                                const Catalog& catalog,
                                                const RowPredictFn& predict) {
  switch (node.kind) {
    case PlanKind::kScan: {
      TQP_ASSIGN_OR_RETURN(Table t, catalog.GetTable(node.table_name));
      return std::unique_ptr<Operator>(new ScanOp(std::move(t), node.scan_columns));
    }
    case PlanKind::kFilter: {
      TQP_ASSIGN_OR_RETURN(auto child,
                           BuildOperator(*node.children[0], catalog, predict));
      return std::unique_ptr<Operator>(
          new FilterOp(std::move(child), node.predicate, predict));
    }
    case PlanKind::kProject: {
      TQP_ASSIGN_OR_RETURN(auto child,
                           BuildOperator(*node.children[0], catalog, predict));
      return std::unique_ptr<Operator>(
          new ProjectOp(std::move(child), node.exprs, predict));
    }
    case PlanKind::kJoin: {
      // Empty keys degenerate to a single hash bucket: a nested-loop cross
      // join (used by uncorrelated scalar subqueries, where |right| == 1).
      TQP_ASSIGN_OR_RETURN(auto left,
                           BuildOperator(*node.children[0], catalog, predict));
      TQP_ASSIGN_OR_RETURN(auto right,
                           BuildOperator(*node.children[1], catalog, predict));
      return std::unique_ptr<Operator>(
          new HashJoinOp(std::move(left), std::move(right), node, predict));
    }
    case PlanKind::kAggregate: {
      TQP_ASSIGN_OR_RETURN(auto child,
                           BuildOperator(*node.children[0], catalog, predict));
      return std::unique_ptr<Operator>(
          new HashAggOp(std::move(child), node, predict));
    }
    case PlanKind::kSort: {
      TQP_ASSIGN_OR_RETURN(auto child,
                           BuildOperator(*node.children[0], catalog, predict));
      return std::unique_ptr<Operator>(new SortOp(std::move(child), node, predict));
    }
    case PlanKind::kLimit: {
      TQP_ASSIGN_OR_RETURN(auto child,
                           BuildOperator(*node.children[0], catalog, predict));
      return std::unique_ptr<Operator>(new LimitOp(std::move(child), node.limit));
    }
  }
  return Status::Internal("VolcanoEngine: unknown node");
}

}  // namespace

Result<Table> VolcanoEngine::Execute(const PlanPtr& plan) const {
  RowPredictFn predict;
  if (models_ != nullptr) {
    const ml::ModelRegistry* models = models_;
    predict = [models](const BoundExpr& e, const RowGetter& row) -> Result<Scalar> {
      TQP_ASSIGN_OR_RETURN(auto model, models->Get(e.model_name));
      std::vector<Scalar> args;
      for (const BExpr& c : e.children) {
        TQP_ASSIGN_OR_RETURN(Scalar v, EvalExprRow(*c, row));
        args.push_back(std::move(v));
      }
      return model->PredictRow(args);
    };
  }
  TQP_ASSIGN_OR_RETURN(auto root, BuildOperator(*plan, *catalog_, predict));
  TQP_RETURN_NOT_OK(root->Open());
  TableBuilder builder(plan->output_schema);
  Row row;
  while (true) {
    TQP_ASSIGN_OR_RETURN(bool has, root->Next(&row));
    if (!has) break;
    TQP_RETURN_NOT_OK(builder.AppendRow(row));
  }
  return builder.Finish();
}

Result<Table> VolcanoEngine::ExecuteSql(const std::string& sql,
                                        const PhysicalOptions& options) const {
  TQP_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(sql, *catalog_, options, models_));
  return Execute(plan);
}

}  // namespace tqp
