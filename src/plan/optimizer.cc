#include "plan/optimizer.h"

#include "common/logging.h"
#include "plan/expr_eval.h"

namespace tqp {

namespace {

// ---- Rule: constant folding --------------------------------------------

void FoldNodeExprs(PlanNode* node) {
  if (node->predicate) node->predicate = FoldConstants(node->predicate);
  for (BExpr& e : node->exprs) e = FoldConstants(e);
  if (node->residual) node->residual = FoldConstants(node->residual);
  for (BExpr& g : node->group_exprs) g = FoldConstants(g);
  for (AggSpec& a : node->aggs) {
    if (a.arg) a.arg = FoldConstants(a.arg);
  }
  for (SortKey& k : node->sort_keys) k.expr = FoldConstants(k.expr);
}

PlanPtr FoldPlan(const PlanPtr& plan) {
  auto out = std::make_shared<PlanNode>(*plan);
  for (PlanPtr& c : out->children) c = FoldPlan(c);
  FoldNodeExprs(out.get());
  return out;
}

// ---- Rule: merge adjacent filters ---------------------------------------

PlanPtr MergeFilters(const PlanPtr& plan) {
  auto out = std::make_shared<PlanNode>(*plan);
  for (PlanPtr& c : out->children) c = MergeFilters(c);
  if (out->kind == PlanKind::kFilter &&
      out->children[0]->kind == PlanKind::kFilter) {
    PlanPtr inner = out->children[0];
    out->predicate =
        MakeLogical(LogicalOpKind::kAnd, inner->predicate, out->predicate);
    out->children[0] = inner->children[0];
  }
  return out;
}

// ---- Rule: column pruning ------------------------------------------------

void MarkExpr(const BExpr& e, std::vector<bool>* needed) {
  if (e) CollectColumns(*e, needed);
}

// Prunes `node` so its output contains only columns marked in `needed`
// (plus any the operator must keep). `mapping` receives old->new indexes
// (-1 for dropped columns).
Result<PlanPtr> Prune(const PlanPtr& node, std::vector<bool> needed,
                      std::vector<int>* mapping) {
  const int width = node->output_schema.num_fields();
  needed.resize(static_cast<size_t>(width), false);
  mapping->assign(static_cast<size_t>(width), -1);
  switch (node->kind) {
    case PlanKind::kScan: {
      auto out = std::make_shared<PlanNode>(*node);
      out->scan_columns.clear();
      Schema schema;
      int next = 0;
      for (int i = 0; i < width; ++i) {
        if (!needed[static_cast<size_t>(i)]) continue;
        // Base-table index: compose with any existing selection.
        const int base = node->scan_columns.empty()
                             ? i
                             : node->scan_columns[static_cast<size_t>(i)];
        out->scan_columns.push_back(base);
        schema.AddField(node->output_schema.field(i));
        (*mapping)[static_cast<size_t>(i)] = next++;
      }
      if (out->scan_columns.empty()) {
        // Keep one column so the row count is observable (COUNT(*) scans).
        out->scan_columns.push_back(node->scan_columns.empty()
                                        ? 0
                                        : node->scan_columns[0]);
        schema.AddField(node->output_schema.field(0));
        (*mapping)[0] = 0;
      }
      out->output_schema = std::move(schema);
      return out;
    }
    case PlanKind::kFilter: {
      std::vector<bool> child_needed = needed;
      MarkExpr(node->predicate, &child_needed);
      std::vector<int> child_map;
      TQP_ASSIGN_OR_RETURN(PlanPtr child,
                           Prune(node->children[0], child_needed, &child_map));
      auto out = std::make_shared<PlanNode>(*node);
      out->children = {child};
      out->predicate = RemapColumns(*node->predicate, child_map);
      out->output_schema = child->output_schema;
      *mapping = child_map;
      return out;
    }
    case PlanKind::kProject: {
      // Keep only needed expressions.
      const int child_width = node->children[0]->output_schema.num_fields();
      std::vector<bool> child_needed(static_cast<size_t>(child_width), false);
      std::vector<int> kept;
      for (int i = 0; i < width; ++i) {
        if (needed[static_cast<size_t>(i)]) {
          kept.push_back(i);
          MarkExpr(node->exprs[static_cast<size_t>(i)], &child_needed);
        }
      }
      if (kept.empty()) {
        kept.push_back(0);
        MarkExpr(node->exprs[0], &child_needed);
      }
      std::vector<int> child_map;
      TQP_ASSIGN_OR_RETURN(PlanPtr child,
                           Prune(node->children[0], child_needed, &child_map));
      auto out = std::make_shared<PlanNode>(*node);
      out->children = {child};
      out->exprs.clear();
      Schema schema;
      int next = 0;
      for (int i : kept) {
        out->exprs.push_back(
            RemapColumns(*node->exprs[static_cast<size_t>(i)], child_map));
        schema.AddField(node->output_schema.field(i));
        (*mapping)[static_cast<size_t>(i)] = next++;
      }
      out->output_schema = std::move(schema);
      return out;
    }
    case PlanKind::kJoin: {
      const bool keeps_right = node->join_type == sql::JoinType::kInner ||
                               node->join_type == sql::JoinType::kCross ||
                               node->join_type == sql::JoinType::kLeft;
      // LEFT JOIN output carries a trailing __matched validity column that is
      // produced by the operator itself (not by either child); it is always
      // kept so COUNT rewrites above stay valid.
      const bool left_join = node->join_type == sql::JoinType::kLeft;
      const int lw = node->children[0]->output_schema.num_fields();
      const int rw = node->children[1]->output_schema.num_fields();
      std::vector<bool> lneed(static_cast<size_t>(lw), false);
      std::vector<bool> rneed(static_cast<size_t>(rw), false);
      for (int i = 0; i < lw + rw && i < width; ++i) {
        if (!needed[static_cast<size_t>(i)]) continue;
        if (i < lw) {
          lneed[static_cast<size_t>(i)] = true;
        } else if (keeps_right) {
          rneed[static_cast<size_t>(i - lw)] = true;
        }
      }
      for (int k : node->left_keys) lneed[static_cast<size_t>(k)] = true;
      for (int k : node->right_keys) rneed[static_cast<size_t>(k)] = true;
      if (node->residual) {
        std::vector<bool> rcols(static_cast<size_t>(lw + rw), false);
        CollectColumns(*node->residual, &rcols);
        for (int i = 0; i < lw; ++i) {
          if (rcols[static_cast<size_t>(i)]) lneed[static_cast<size_t>(i)] = true;
        }
        for (int j = 0; j < rw; ++j) {
          if (rcols[static_cast<size_t>(lw + j)]) rneed[static_cast<size_t>(j)] = true;
        }
      }
      std::vector<int> lmap;
      std::vector<int> rmap;
      TQP_ASSIGN_OR_RETURN(PlanPtr left, Prune(node->children[0], lneed, &lmap));
      TQP_ASSIGN_OR_RETURN(PlanPtr right, Prune(node->children[1], rneed, &rmap));
      auto out = std::make_shared<PlanNode>(*node);
      out->children = {left, right};
      out->left_keys.clear();
      out->right_keys.clear();
      const int new_lw = left->output_schema.num_fields();
      for (size_t i = 0; i < node->left_keys.size(); ++i) {
        out->left_keys.push_back(lmap[static_cast<size_t>(node->left_keys[i])]);
        out->right_keys.push_back(rmap[static_cast<size_t>(node->right_keys[i])]);
      }
      if (node->residual) {
        std::vector<int> concat_map(static_cast<size_t>(lw + rw), -1);
        for (int i = 0; i < lw; ++i) {
          if (lmap[static_cast<size_t>(i)] >= 0) {
            concat_map[static_cast<size_t>(i)] = lmap[static_cast<size_t>(i)];
          }
        }
        for (int j = 0; j < rw; ++j) {
          if (rmap[static_cast<size_t>(j)] >= 0) {
            concat_map[static_cast<size_t>(lw + j)] =
                new_lw + rmap[static_cast<size_t>(j)];
          }
        }
        out->residual = RemapColumns(*node->residual, concat_map);
      }
      // New output schema + mapping.
      Schema schema = left->output_schema;
      if (keeps_right) {
        for (const Field& f : right->output_schema.fields()) schema.AddField(f);
      }
      if (left_join) {
        schema.AddField(Field{"__matched", LogicalType::kBool});
      }
      out->output_schema = std::move(schema);
      for (int i = 0; i < lw; ++i) {
        (*mapping)[static_cast<size_t>(i)] = lmap[static_cast<size_t>(i)];
      }
      if (keeps_right) {
        for (int j = 0; j < rw; ++j) {
          const int m = rmap[static_cast<size_t>(j)];
          (*mapping)[static_cast<size_t>(lw + j)] = m < 0 ? -1 : new_lw + m;
        }
      }
      if (left_join) {
        const int new_rw = right->output_schema.num_fields();
        (*mapping)[static_cast<size_t>(lw + rw)] = new_lw + new_rw;
      }
      return out;
    }
    case PlanKind::kAggregate: {
      const int child_width = node->children[0]->output_schema.num_fields();
      std::vector<bool> child_needed(static_cast<size_t>(child_width), false);
      for (const BExpr& g : node->group_exprs) MarkExpr(g, &child_needed);
      for (const AggSpec& a : node->aggs) MarkExpr(a.arg, &child_needed);
      std::vector<int> child_map;
      TQP_ASSIGN_OR_RETURN(PlanPtr child,
                           Prune(node->children[0], child_needed, &child_map));
      auto out = std::make_shared<PlanNode>(*node);
      out->children = {child};
      for (BExpr& g : out->group_exprs) g = RemapColumns(*g, child_map);
      for (AggSpec& a : out->aggs) {
        if (a.arg) a.arg = RemapColumns(*a.arg, child_map);
      }
      // Aggregate output (groups + aggs) is kept whole.
      for (int i = 0; i < width; ++i) (*mapping)[static_cast<size_t>(i)] = i;
      return out;
    }
    case PlanKind::kSort: {
      std::vector<bool> child_needed = needed;
      for (const SortKey& k : node->sort_keys) MarkExpr(k.expr, &child_needed);
      std::vector<int> child_map;
      TQP_ASSIGN_OR_RETURN(PlanPtr child,
                           Prune(node->children[0], child_needed, &child_map));
      auto out = std::make_shared<PlanNode>(*node);
      out->children = {child};
      for (SortKey& k : out->sort_keys) k.expr = RemapColumns(*k.expr, child_map);
      out->output_schema = child->output_schema;
      *mapping = child_map;
      return out;
    }
    case PlanKind::kLimit: {
      std::vector<int> child_map;
      TQP_ASSIGN_OR_RETURN(PlanPtr child,
                           Prune(node->children[0], needed, &child_map));
      auto out = std::make_shared<PlanNode>(*node);
      out->children = {child};
      out->output_schema = child->output_schema;
      *mapping = child_map;
      return out;
    }
  }
  return Status::Internal("Prune: unknown node kind");
}

}  // namespace

Result<PlanPtr> Optimize(const PlanPtr& plan, const OptimizerOptions&) {
  PlanPtr current = MergeFilters(FoldPlan(plan));
  std::vector<bool> all(
      static_cast<size_t>(current->output_schema.num_fields()), true);
  std::vector<int> mapping;
  TQP_ASSIGN_OR_RETURN(current, Prune(current, all, &mapping));
  return current;
}

}  // namespace tqp
