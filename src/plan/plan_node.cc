#include "plan/plan_node.h"

#include <sstream>

namespace tqp {

const char* PlanKindName(PlanKind kind) {
  switch (kind) {
    case PlanKind::kScan:
      return "Scan";
    case PlanKind::kFilter:
      return "Filter";
    case PlanKind::kProject:
      return "Project";
    case PlanKind::kJoin:
      return "Join";
    case PlanKind::kAggregate:
      return "Aggregate";
    case PlanKind::kSort:
      return "Sort";
    case PlanKind::kLimit:
      return "Limit";
  }
  return "?";
}

std::string PlanNode::ToString(int indent) const {
  std::ostringstream os;
  const std::string pad(static_cast<size_t>(indent) * 2, ' ');
  os << pad << PlanKindName(kind);
  switch (kind) {
    case PlanKind::kScan:
      os << " " << table_name;
      break;
    case PlanKind::kFilter:
      os << " [" << predicate->ToString() << "]";
      break;
    case PlanKind::kProject: {
      os << " [";
      for (size_t i = 0; i < exprs.size(); ++i) {
        if (i > 0) os << ", ";
        os << output_schema.field(static_cast<int>(i)).name << "="
           << exprs[i]->ToString();
      }
      os << "]";
      break;
    }
    case PlanKind::kJoin: {
      os << " " << sql::JoinTypeName(join_type) << " sort-merge on [";
      for (size_t i = 0; i < left_keys.size(); ++i) {
        if (i > 0) os << ", ";
        os << "L#" << left_keys[i] << "=R#" << right_keys[i];
      }
      os << "]";
      if (unique_build) os << " unique build";
      if (residual) os << " residual [" << residual->ToString() << "]";
      break;
    }
    case PlanKind::kAggregate: {
      os << " sort groups=[";
      for (size_t i = 0; i < group_exprs.size(); ++i) {
        if (i > 0) os << ", ";
        os << group_exprs[i]->ToString();
      }
      os << "] aggs=[";
      for (size_t i = 0; i < aggs.size(); ++i) {
        if (i > 0) os << ", ";
        os << aggs[i].ToString();
      }
      os << "]";
      break;
    }
    case PlanKind::kSort: {
      os << " [";
      for (size_t i = 0; i < sort_keys.size(); ++i) {
        if (i > 0) os << ", ";
        os << sort_keys[i].expr->ToString() << (sort_keys[i].ascending ? "" : " desc");
      }
      os << "]";
      break;
    }
    case PlanKind::kLimit:
      os << " " << limit;
      break;
  }
  os << " -> " << output_schema.ToString() << "\n";
  for (const PlanPtr& c : children) os << c->ToString(indent + 1);
  return os.str();
}

PlanPtr MakeScanNode(std::string table_name, Schema schema) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kScan;
  node->table_name = std::move(table_name);
  node->output_schema = std::move(schema);
  return node;
}

PlanPtr MakeFilterNode(PlanPtr child, BExpr predicate) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kFilter;
  node->output_schema = child->output_schema;
  node->predicate = std::move(predicate);
  node->children = {std::move(child)};
  return node;
}

PlanPtr MakeProjectNode(PlanPtr child, std::vector<BExpr> exprs,
                        std::vector<std::string> names) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kProject;
  Schema schema;
  for (size_t i = 0; i < exprs.size(); ++i) {
    schema.AddField(Field{names[i], exprs[i]->type});
  }
  node->output_schema = std::move(schema);
  node->exprs = std::move(exprs);
  node->children = {std::move(child)};
  return node;
}

PlanPtr MakeLimitNode(PlanPtr child, int64_t limit) {
  auto node = std::make_shared<PlanNode>();
  node->kind = PlanKind::kLimit;
  node->output_schema = child->output_schema;
  node->limit = limit;
  node->children = {std::move(child)};
  return node;
}

}  // namespace tqp
