#include "frontend/spark_plan.h"

#include <string>
#include <vector>

#include "frontend/json.h"
#include "plan/binder.h"
#include "relational/table_builder.h"
#include "sql/parser.h"

namespace tqp::frontend {

namespace {

/// Binds a synthetic SELECT statement against a one-table catalog holding an
/// empty table with `input`'s schema. The resulting plan fragment's column
/// indexes are positional in `input`, so it can be re-parented onto any
/// operator with that output schema. This reuses the SQL binder wholesale —
/// the frontend adds no second expression type system.
Result<PlanPtr> BindOverInput(const Schema& input, const std::string& select_sql) {
  Catalog shim;
  TableBuilder builder(input);
  TQP_ASSIGN_OR_RETURN(Table empty, builder.Finish());
  shim.RegisterTable("__input", std::move(empty));
  TQP_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(select_sql));
  Binder binder(&shim);
  return binder.Bind(*stmt);
}

/// Replaces the (unique) __input scan leaf of a bound fragment with `child`.
PlanPtr ReplaceScanLeaf(const PlanPtr& tree, const PlanPtr& child) {
  if (tree->kind == PlanKind::kScan) return child;
  auto out = std::make_shared<PlanNode>(*tree);
  for (PlanPtr& c : out->children) c = ReplaceScanLeaf(c, child);
  return out;
}

/// Collects the filter predicates between a bound fragment's top Project and
/// its scan leaf, ANDed in application order (the binder splits conjuncts
/// into a chain of Filter nodes).
Result<BExpr> CollectFilterPredicates(const PlanPtr& fragment) {
  if (fragment->kind != PlanKind::kProject) {
    return Status::Internal("frontend: expected Project at fragment root");
  }
  BExpr combined;
  PlanPtr cursor = fragment->children[0];
  while (cursor->kind == PlanKind::kFilter) {
    combined = combined ? MakeLogical(LogicalOpKind::kAnd, cursor->predicate,
                                      combined)
                        : cursor->predicate;
    cursor = cursor->children[0];
  }
  if (cursor->kind != PlanKind::kScan) {
    return Status::Internal("frontend: unexpected fragment shape");
  }
  return combined;
}

Result<sql::JoinType> ParseJoinType(const std::string& text) {
  if (text == "Inner" || text == "inner") return sql::JoinType::kInner;
  if (text == "Cross" || text == "cross") return sql::JoinType::kCross;
  if (text == "LeftOuter" || text == "leftouter" || text == "left_outer") {
    return sql::JoinType::kLeft;
  }
  if (text == "LeftSemi" || text == "leftsemi" || text == "left_semi") {
    return sql::JoinType::kSemi;
  }
  if (text == "LeftAnti" || text == "leftanti" || text == "left_anti") {
    return sql::JoinType::kAnti;
  }
  return Status::NotImplemented("frontend: join type '" + text + "'");
}

class PlanBuilder {
 public:
  explicit PlanBuilder(const Catalog* catalog) : catalog_(catalog) {}

  Result<PlanPtr> Build(const JsonValue& node) {
    if (!node.is_object()) {
      return Status::Invalid("frontend: plan node must be a JSON object");
    }
    TQP_ASSIGN_OR_RETURN(std::string kind, node.GetString("node"));
    if (kind == "Scan" || kind == "FileSourceScan" || kind == "BatchScan" ||
        kind == "LogicalRDD") {
      return BuildScan(node);
    }
    if (kind == "Filter") return BuildFilter(node);
    if (kind == "Project") return BuildProject(node);
    if (kind == "SortMergeJoin" || kind == "ShuffledHashJoin" ||
        kind == "BroadcastHashJoin" || kind == "Join") {
      return BuildJoin(node);
    }
    if (kind == "HashAggregate" || kind == "SortAggregate") {
      return BuildAggregate(node);
    }
    if (kind == "Sort") return BuildSort(node);
    if (kind == "LocalLimit" || kind == "GlobalLimit" ||
        kind == "CollectLimit" || kind == "Limit") {
      return BuildLimit(node);
    }
    return Status::NotImplemented("frontend: operator '" + kind + "'");
  }

 private:
  Result<PlanPtr> Child(const JsonValue& node, size_t index = 0) {
    const JsonValue* children = node.Get("children");
    if (children == nullptr || !children->is_array() ||
        children->array().size() <= index) {
      return Status::Invalid("frontend: operator is missing child " +
                             std::to_string(index));
    }
    return Build(children->array()[index]);
  }

  Result<PlanPtr> BuildScan(const JsonValue& node) {
    TQP_ASSIGN_OR_RETURN(std::string table, node.GetString("table"));
    TQP_ASSIGN_OR_RETURN(Schema schema, catalog_->GetSchema(table));
    return MakeScanNode(table, std::move(schema));
  }

  Result<PlanPtr> BuildFilter(const JsonValue& node) {
    TQP_ASSIGN_OR_RETURN(PlanPtr child, Child(node));
    TQP_ASSIGN_OR_RETURN(std::string condition, node.GetString("condition"));
    TQP_ASSIGN_OR_RETURN(
        PlanPtr fragment,
        BindOverInput(child->output_schema,
                      "SELECT * FROM __input WHERE " + condition));
    TQP_ASSIGN_OR_RETURN(BExpr predicate, CollectFilterPredicates(fragment));
    if (!predicate) {
      return Status::Invalid("frontend: Filter condition bound to nothing");
    }
    return MakeFilterNode(std::move(child), std::move(predicate));
  }

  Result<PlanPtr> BuildProject(const JsonValue& node) {
    TQP_ASSIGN_OR_RETURN(PlanPtr child, Child(node));
    TQP_ASSIGN_OR_RETURN(std::vector<std::string> items,
                         node.GetStringArray("projectList"));
    if (items.empty()) {
      return Status::Invalid("frontend: Project requires projectList");
    }
    std::string sql = "SELECT ";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += items[i];
    }
    sql += " FROM __input";
    TQP_ASSIGN_OR_RETURN(PlanPtr fragment,
                         BindOverInput(child->output_schema, sql));
    return ReplaceScanLeaf(fragment, child);
  }

  Result<PlanPtr> BuildJoin(const JsonValue& node) {
    TQP_ASSIGN_OR_RETURN(PlanPtr left, Child(node, 0));
    TQP_ASSIGN_OR_RETURN(PlanPtr right, Child(node, 1));
    std::string type_text = "Inner";
    if (node.Get("joinType") != nullptr) {
      TQP_ASSIGN_OR_RETURN(type_text, node.GetString("joinType"));
    }
    TQP_ASSIGN_OR_RETURN(sql::JoinType type, ParseJoinType(type_text));
    TQP_ASSIGN_OR_RETURN(std::vector<std::string> left_names,
                         node.GetStringArray("leftKeys"));
    TQP_ASSIGN_OR_RETURN(std::vector<std::string> right_names,
                         node.GetStringArray("rightKeys"));
    if (left_names.size() != right_names.size()) {
      return Status::Invalid("frontend: leftKeys/rightKeys size mismatch");
    }
    auto join = std::make_shared<PlanNode>();
    join->kind = PlanKind::kJoin;
    join->join_type = type;
    for (size_t i = 0; i < left_names.size(); ++i) {
      const int li = left->output_schema.FieldIndex(left_names[i]);
      const int ri = right->output_schema.FieldIndex(right_names[i]);
      if (li < 0 || ri < 0) {
        return Status::BindError("frontend: unknown join key '" +
                                 (li < 0 ? left_names[i] : right_names[i]) + "'");
      }
      join->left_keys.push_back(li);
      join->right_keys.push_back(ri);
    }
    if (type != sql::JoinType::kCross && join->left_keys.empty()) {
      return Status::Invalid("frontend: non-cross join requires keys");
    }
    // Residual condition binds over the concatenated (left ++ right) schema.
    if (node.Get("condition") != nullptr) {
      TQP_ASSIGN_OR_RETURN(std::string condition, node.GetString("condition"));
      Schema combined = left->output_schema;
      for (const Field& f : right->output_schema.fields()) combined.AddField(f);
      TQP_ASSIGN_OR_RETURN(
          PlanPtr fragment,
          BindOverInput(combined, "SELECT * FROM __input WHERE " + condition));
      TQP_ASSIGN_OR_RETURN(join->residual, CollectFilterPredicates(fragment));
      if (type == sql::JoinType::kLeft) {
        return Status::NotImplemented(
            "frontend: LeftOuter join conditions must be pre-pushed into the "
            "build side (the SQL binder does this automatically)");
      }
    }
    // Output schema mirrors the binder's rules.
    if (type == sql::JoinType::kSemi || type == sql::JoinType::kAnti) {
      join->output_schema = left->output_schema;
    } else {
      Schema out = left->output_schema;
      for (const Field& f : right->output_schema.fields()) out.AddField(f);
      if (type == sql::JoinType::kLeft) {
        out.AddField(Field{"__matched", LogicalType::kBool});
      }
      join->output_schema = std::move(out);
    }
    join->children = {std::move(left), std::move(right)};
    return join;
  }

  Result<PlanPtr> BuildAggregate(const JsonValue& node) {
    TQP_ASSIGN_OR_RETURN(PlanPtr child, Child(node));
    TQP_ASSIGN_OR_RETURN(std::vector<std::string> groups,
                         node.GetStringArray("groupingExpressions"));
    TQP_ASSIGN_OR_RETURN(std::vector<std::string> aggs,
                         node.GetStringArray("aggregateExpressions"));
    if (aggs.empty()) {
      return Status::Invalid("frontend: aggregate requires aggregateExpressions");
    }
    std::string sql = "SELECT ";
    bool first = true;
    for (const std::string& g : groups) {
      if (!first) sql += ", ";
      sql += g;
      first = false;
    }
    for (const std::string& a : aggs) {
      if (!first) sql += ", ";
      sql += a;
      first = false;
    }
    sql += " FROM __input";
    if (!groups.empty()) {
      sql += " GROUP BY ";
      for (size_t i = 0; i < groups.size(); ++i) {
        if (i > 0) sql += ", ";
        sql += groups[i];
      }
    }
    TQP_ASSIGN_OR_RETURN(PlanPtr fragment,
                         BindOverInput(child->output_schema, sql));
    return ReplaceScanLeaf(fragment, child);
  }

  Result<PlanPtr> BuildSort(const JsonValue& node) {
    TQP_ASSIGN_OR_RETURN(PlanPtr child, Child(node));
    TQP_ASSIGN_OR_RETURN(std::vector<std::string> order,
                         node.GetStringArray("sortOrder"));
    if (order.empty()) {
      return Status::Invalid("frontend: Sort requires sortOrder");
    }
    std::string sql = "SELECT * FROM __input ORDER BY ";
    for (size_t i = 0; i < order.size(); ++i) {
      if (i > 0) sql += ", ";
      sql += order[i];
    }
    TQP_ASSIGN_OR_RETURN(PlanPtr fragment,
                         BindOverInput(child->output_schema, sql));
    return ReplaceScanLeaf(fragment, child);
  }

  Result<PlanPtr> BuildLimit(const JsonValue& node) {
    TQP_ASSIGN_OR_RETURN(PlanPtr child, Child(node));
    TQP_ASSIGN_OR_RETURN(int64_t limit, node.GetInt("limit"));
    if (limit < 0) return Status::Invalid("frontend: negative limit");
    return MakeLimitNode(std::move(child), limit);
  }

  const Catalog* catalog_;
};

}  // namespace

Result<PlanPtr> FromSparkPlanJson(const std::string& json,
                                  const Catalog& catalog) {
  TQP_ASSIGN_OR_RETURN(JsonValue document, ParseJson(json));
  PlanBuilder builder(&catalog);
  return builder.Build(document);
}

}  // namespace tqp::frontend
