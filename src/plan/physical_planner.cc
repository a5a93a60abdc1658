#include "plan/physical_planner.h"

#include <algorithm>
#include <cstddef>
#include <utility>
#include <vector>

#include "sql/parser.h"

namespace tqp {

namespace {

/// A physical plan node and, per output column, whether its values are
/// unique among the node's rows.
struct Planned {
  PlanPtr node;
  std::vector<bool> unique;
};

bool AnyUnique(const std::vector<bool>& unique, const std::vector<int>& keys) {
  for (int k : keys) {
    if (unique[static_cast<size_t>(k)]) return true;
  }
  return false;
}

/// Which output columns of `node` (children already planned) are unique:
/// the declared key through filters, sorts, limits and plain projections, a
/// single non-float GROUP BY key, and a join side's columns when every row
/// of that side matches at most once.
std::vector<bool> UniqueColumns(const PlanNode& node,
                                const std::vector<Planned>& children,
                                const Catalog* catalog) {
  std::vector<bool> unique(static_cast<size_t>(node.output_schema.num_fields()),
                           false);
  switch (node.kind) {
    case PlanKind::kScan: {
      const int key = catalog != nullptr ? catalog->PrimaryKey(node.table_name) : -1;
      for (size_t i = 0; i < unique.size(); ++i) {
        const int base = node.scan_columns.empty()
                             ? static_cast<int>(i)
                             : node.scan_columns[i];
        unique[i] = key >= 0 && base == key;
      }
      break;
    }
    case PlanKind::kFilter:
    case PlanKind::kSort:
    case PlanKind::kLimit:
      unique = children[0].unique;
      break;
    case PlanKind::kProject:
      for (size_t i = 0; i < node.exprs.size(); ++i) {
        const BoundExpr& e = *node.exprs[i];
        unique[i] = e.kind == BExprKind::kColumn &&
                    children[0].unique[static_cast<size_t>(e.column_index)];
      }
      break;
    case PlanKind::kAggregate:
      // GROUP BY groups byte-equal keys, and -0.0 / +0.0 are two groups
      // that compare equal: a float key is not unique under operator<.
      unique[0] = node.group_exprs.size() == 1 &&
                  node.group_exprs[0]->type != LogicalType::kFloat64;
      break;
    case PlanKind::kJoin: {
      const std::vector<bool>& left = children[0].unique;
      const std::vector<bool>& right = children[1].unique;
      if (node.join_type == sql::JoinType::kSemi ||
          node.join_type == sql::JoinType::kAnti) {
        unique = left;
      } else if (node.join_type == sql::JoinType::kInner &&
                 !node.left_keys.empty()) {
        // A row matching at most one row of the other side appears at most
        // once in the output.
        if (AnyUnique(right, node.right_keys)) {
          std::copy(left.begin(), left.end(), unique.begin());
        }
        if (AnyUnique(left, node.left_keys)) {
          std::copy(right.begin(), right.end(),
                    unique.begin() + static_cast<std::ptrdiff_t>(left.size()));
        }
      }
      break;
    }
  }
  return unique;
}

Planned Choose(const PlanPtr& plan, const Catalog* catalog) {
  auto out = std::make_shared<PlanNode>(*plan);
  std::vector<Planned> children;
  for (PlanPtr& c : out->children) {
    children.push_back(Choose(c, catalog));
    c = children.back().node;
  }
  if (out->kind == PlanKind::kJoin) {
    out->unique_build =
        out->join_type == sql::JoinType::kInner && out->right_keys.size() == 1 &&
        children[1].unique[static_cast<size_t>(out->right_keys[0])] &&
        IsNumericType(children[1].node->output_schema.field(out->right_keys[0]).type) &&
        children[0].node->output_schema.field(out->left_keys[0]).type ==
            children[1].node->output_schema.field(out->right_keys[0]).type;
  }
  std::vector<bool> unique = UniqueColumns(*out, children, catalog);
  return Planned{std::move(out), std::move(unique)};
}

}  // namespace

// `options` is unused: the signature stays for existing two-argument callers.
PlanPtr ChoosePhysical(const PlanPtr& plan, const PhysicalOptions& /*options*/,
                       const Catalog* catalog) {
  return Choose(plan, catalog).node;
}

Result<PlanPtr> PlanQuery(const std::string& sql, const Catalog& catalog,
                          const PhysicalOptions& options,
                          const ModelCatalog* models) {
  TQP_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(sql));
  Binder binder(&catalog, models);
  TQP_ASSIGN_OR_RETURN(PlanPtr logical, binder.Bind(*stmt));
  TQP_ASSIGN_OR_RETURN(PlanPtr optimized, Optimize(logical, options.optimizer));
  return ChoosePhysical(optimized, options, &catalog);
}

}  // namespace tqp
