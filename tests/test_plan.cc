// Tests for the planning layers: binder name/type resolution and rewrites
// (join-key extraction, EXISTS -> semi-join, AVG expansion), the rule-based
// optimizer (constant folding, filter merge, column pruning), and the
// row-wise expression evaluator used for folding.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "baseline/volcano.h"
#include "compile/compiler.h"
#include "kernels/kernels.h"
#include "plan/binder.h"
#include "plan/expr_eval.h"
#include "plan/optimizer.h"
#include "plan/physical_planner.h"
#include "relational/table_builder.h"
#include "sql/parser.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace tqp {
namespace {

Catalog MakeCatalog() {
  Catalog catalog;
  {
    Schema schema({Field{"id", LogicalType::kInt64},
                   Field{"price", LogicalType::kFloat64},
                   Field{"day", LogicalType::kDate},
                   Field{"tag", LogicalType::kString}});
    TableBuilder b(schema);
    for (int i = 0; i < 5; ++i) {
      b.AppendInt(0, i);
      b.AppendDouble(1, i * 1.5);
      b.AppendInt(2, 8766 + i);
      b.AppendString(3, i % 2 == 0 ? "even" : "odd");
    }
    catalog.RegisterTable("items", b.Finish().ValueOrDie());
  }
  {
    Schema schema({Field{"item_id", LogicalType::kInt64},
                   Field{"qty", LogicalType::kInt64}});
    TableBuilder b(schema);
    for (int i = 0; i < 8; ++i) {
      b.AppendInt(0, i % 5);
      b.AppendInt(1, i);
    }
    catalog.RegisterTable("sales", b.Finish().ValueOrDie());
  }
  return catalog;
}

Result<PlanPtr> BindSql(const std::string& sql, const Catalog& catalog) {
  TQP_ASSIGN_OR_RETURN(auto stmt, sql::ParseSelect(sql));
  Binder binder(&catalog);
  return binder.Bind(*stmt);
}

TEST(BinderTest, ResolvesColumnsAndTypes) {
  Catalog catalog = MakeCatalog();
  PlanPtr plan =
      BindSql("SELECT id, price * 2 AS double_price FROM items", catalog)
          .ValueOrDie();
  EXPECT_EQ(plan->kind, PlanKind::kProject);
  EXPECT_EQ(plan->output_schema.field(0).type, LogicalType::kInt64);
  EXPECT_EQ(plan->output_schema.field(1).name, "double_price");
  EXPECT_EQ(plan->output_schema.field(1).type, LogicalType::kFloat64);
}

TEST(BinderTest, ErrorsAreDescriptive) {
  Catalog catalog = MakeCatalog();
  auto unknown_col = BindSql("SELECT nope FROM items", catalog);
  EXPECT_EQ(unknown_col.status().code(), StatusCode::kBindError);
  auto unknown_table = BindSql("SELECT id FROM nope", catalog);
  EXPECT_EQ(unknown_table.status().code(), StatusCode::kKeyError);
  auto type_mismatch = BindSql("SELECT id FROM items WHERE tag > 5", catalog);
  EXPECT_EQ(type_mismatch.status().code(), StatusCode::kTypeError);
  auto bad_agg =
      BindSql("SELECT price FROM items GROUP BY tag", catalog);
  EXPECT_EQ(bad_agg.status().code(), StatusCode::kBindError);
  auto bool_where = BindSql("SELECT id FROM items WHERE price", catalog);
  EXPECT_EQ(bool_where.status().code(), StatusCode::kTypeError);
}

TEST(BinderTest, ExtractsJoinKeysFromWhere) {
  Catalog catalog = MakeCatalog();
  PlanPtr plan = BindSql(
      "SELECT id, qty FROM items, sales WHERE id = item_id AND qty > 2",
      catalog).ValueOrDie();
  // Find the join node.
  const PlanNode* node = plan.get();
  while (node->kind != PlanKind::kJoin) node = node->children[0].get();
  EXPECT_EQ(node->join_type, sql::JoinType::kInner);
  ASSERT_EQ(node->left_keys.size(), 1u);
  ASSERT_EQ(node->right_keys.size(), 1u);
}

TEST(BinderTest, DateLiteralCoercion) {
  Catalog catalog = MakeCatalog();
  // String literal compared to a date column parses as a date.
  PlanPtr plan =
      BindSql("SELECT id FROM items WHERE day >= '1994-01-02'", catalog)
          .ValueOrDie();
  EXPECT_TRUE(plan != nullptr);
  EXPECT_FALSE(BindSql("SELECT id FROM items WHERE day >= 'xx'", catalog).ok());
}

TEST(BinderTest, AvgExpandsToSumAndCount) {
  Catalog catalog = MakeCatalog();
  PlanPtr plan = BindSql("SELECT AVG(price) FROM items", catalog).ValueOrDie();
  const PlanNode* agg = plan.get();
  while (agg->kind != PlanKind::kAggregate) agg = agg->children[0].get();
  ASSERT_EQ(agg->aggs.size(), 2u);
  EXPECT_EQ(agg->aggs[0].op, ReduceOpKind::kSum);
  EXPECT_EQ(agg->aggs[1].op, ReduceOpKind::kCount);
}

TEST(BinderTest, SharedAggregatesDeduplicate) {
  Catalog catalog = MakeCatalog();
  PlanPtr plan = BindSql(
      "SELECT SUM(price), AVG(price), SUM(price) / 2 FROM items", catalog)
                     .ValueOrDie();
  const PlanNode* agg = plan.get();
  while (agg->kind != PlanKind::kAggregate) agg = agg->children[0].get();
  // sum(price) shared by all three items + count(price) for AVG.
  EXPECT_EQ(agg->aggs.size(), 2u);
}

TEST(BinderTest, ExistsBecomesSemiJoin) {
  Catalog catalog = MakeCatalog();
  PlanPtr plan = BindSql(
      "SELECT id FROM items WHERE EXISTS "
      "(SELECT * FROM sales WHERE item_id = id AND qty > 3)",
      catalog).ValueOrDie();
  const PlanNode* node = plan.get();
  while (node->kind != PlanKind::kJoin) node = node->children[0].get();
  EXPECT_EQ(node->join_type, sql::JoinType::kSemi);
  // NOT EXISTS -> anti join.
  PlanPtr anti_plan = BindSql(
      "SELECT id FROM items WHERE NOT EXISTS "
      "(SELECT * FROM sales WHERE item_id = id)",
      catalog).ValueOrDie();
  node = anti_plan.get();
  while (node->kind != PlanKind::kJoin) node = node->children[0].get();
  EXPECT_EQ(node->join_type, sql::JoinType::kAnti);
}

TEST(BinderTest, LeftJoinAddsMatchedColumn) {
  // LEFT JOIN output ends with the __matched validity column; projecting the
  // nullable side outside COUNT stays rejected (no general NULL support).
  Catalog catalog = MakeCatalog();
  auto result = BindSql(
      "SELECT id, COUNT(item_id) AS n FROM items LEFT JOIN sales "
      "ON id = item_id GROUP BY id",
      catalog);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  auto rejected = BindSql(
      "SELECT id, item_id FROM items LEFT JOIN sales ON id = item_id", catalog);
  EXPECT_EQ(rejected.status().code(), StatusCode::kNotImplemented);
}

// Empty TPC-H tables: the binder needs only their schemas.
Catalog MakeTpchSchemaCatalog() {
  Catalog catalog;
  for (const std::string& name : tpch::TableNames()) {
    TableBuilder b(tpch::TableSchema(name).ValueOrDie());
    catalog.RegisterTable(name, b.Finish().ValueOrDie());
  }
  return catalog;
}

// A join chain ta - tb - tc - td: ta_key = tb_a, tb_c = tc_key,
// tc_d = td_key.
Catalog MakeChainCatalog() {
  Catalog catalog;
  const std::vector<std::pair<std::string, std::vector<std::string>>> tables = {
      {"ta", {"ta_key", "ta_val"}},
      {"tb", {"tb_a", "tb_c"}},
      {"tc", {"tc_key", "tc_d"}},
      {"td", {"td_key", "td_w"}}};
  for (const auto& [name, columns] : tables) {
    Schema schema;
    for (const std::string& c : columns) {
      schema.AddField(Field{c, LogicalType::kInt64});
    }
    TableBuilder b(schema);
    catalog.RegisterTable(name, b.Finish().ValueOrDie());
  }
  return catalog;
}

// Scan tables in left-to-right leaf order, skipping the subqueries of
// semi/anti joins: for a left-deep join tree this is the join order.
std::vector<std::string> ScanOrder(const PlanNode& node) {
  if (node.kind == PlanKind::kScan) return {node.table_name};
  const bool semi = node.kind == PlanKind::kJoin &&
                    (node.join_type == sql::JoinType::kSemi ||
                     node.join_type == sql::JoinType::kAnti);
  std::vector<std::string> out;
  for (size_t i = 0; i < (semi ? 1 : node.children.size()); ++i) {
    for (std::string& t : ScanOrder(*node.children[i])) out.push_back(std::move(t));
  }
  return out;
}

std::vector<std::string> Prefix(std::vector<std::string> v, size_t n) {
  v.resize(std::min(v.size(), n));
  return v;
}

// Expressions that differ past the sixth significant digit of a float
// literal render alike, so the binder must compare them structurally.
TEST(BinderTest, GroupByMatchComparesFloatLiteralsExactly) {
  Catalog catalog = MakeTpchSchemaCatalog();
  auto result = BindSql(
      "SELECT l_quantity * 1000000.1 AS a, COUNT(*) AS n FROM lineitem "
      "GROUP BY l_quantity * 1000000.4",
      catalog);
  EXPECT_EQ(result.status().code(), StatusCode::kBindError);
  EXPECT_NE(result.status().ToString().find("must appear in GROUP BY"),
            std::string::npos)
      << result.status().ToString();
}

TEST(BinderTest, AggregatesDeduplicateOnlyWhenStructurallyEqual) {
  Catalog catalog;
  tpch::DbgenOptions options;
  options.scale_factor = 0.001;
  TQP_CHECK_OK(tpch::GenerateAll(options, &catalog));
  CompileOptions eager;
  eager.target = ExecutorTarget::kEager;
  const Table result =
      QueryCompiler()
          .CompileSql("SELECT l_quantity, SUM(l_extendedprice * 1.0000001) AS a, "
                      "SUM(l_extendedprice * 1.0000004) AS b FROM lineitem "
                      "GROUP BY l_quantity",
                      catalog, eager)
          .ValueOrDie()
          .Run(catalog)
          .ValueOrDie();
  ASSERT_GT(result.num_rows(), 0);
  for (int64_t r = 0; r < result.num_rows(); ++r) {
    EXPECT_GT(result.column(2).GetScalar(r).AsDouble(),
              result.column(1).GetScalar(r).AsDouble())
        << "row " << r;
  }
}

TEST(BinderJoinOrderTest, ConnectedFromListKeepsFromOrder) {
  Catalog catalog = MakeTpchSchemaCatalog();
  const std::vector<std::pair<int, std::vector<std::string>>> cases = {
      {3, {"customer", "orders", "lineitem"}},
      {5, {"customer", "orders", "lineitem", "supplier", "nation", "region"}},
      {7, {"supplier", "lineitem", "orders", "customer", "nation", "nation"}},
      {18, {"customer", "orders", "lineitem"}}};
  for (const auto& [q, from_order] : cases) {
    PlanPtr plan = BindSql(tpch::QueryText(q).ValueOrDie(), catalog).ValueOrDie();
    EXPECT_EQ(Prefix(ScanOrder(*plan), from_order.size()), from_order)
        << "Q" << q << "\n" << plan->ToString();
  }
}

TEST(BinderJoinOrderTest, Q9JoinsPartWithLineitemFirst) {
  Catalog catalog = MakeTpchSchemaCatalog();
  PlanPtr plan = BindSql(tpch::QueryText(9).ValueOrDie(), catalog).ValueOrDie();
  // FROM part, supplier, lineitem, partsupp, orders, nation: part and
  // supplier share no predicate, so lineitem joins part first.
  EXPECT_EQ(ScanOrder(*plan),
            (std::vector<std::string>{"part", "lineitem", "supplier",
                                      "partsupp", "orders", "nation"}));
  const PlanNode* first = nullptr;  // the deepest join on the left spine
  for (const PlanNode* n = plan.get(); !n->children.empty();
       n = n->children[0].get()) {
    if (n->kind == PlanKind::kJoin) first = n;
  }
  ASSERT_NE(first, nullptr);
  EXPECT_EQ(first->join_type, sql::JoinType::kInner);
  EXPECT_EQ(ScanOrder(*first),
            (std::vector<std::string>{"part", "lineitem"}));
  EXPECT_EQ(plan->ToString().find("Join cross"), std::string::npos);
}

TEST(BinderJoinOrderTest, ChainSkipsUnconnectedSecondTable) {
  Catalog catalog = MakeChainCatalog();
  PlanPtr plan = BindSql(
      "SELECT ta_val, td_w FROM ta, tc, tb, td WHERE ta_key = tb_a AND "
      "tb_c = tc_key AND tc_d = td_key",
      catalog).ValueOrDie();
  EXPECT_EQ(ScanOrder(*plan),
            (std::vector<std::string>{"ta", "tb", "tc", "td"}));
  EXPECT_EQ(plan->ToString().find("Join cross"), std::string::npos);
}

TEST(BinderJoinOrderTest, UnconnectedRelationsStillCrossJoin) {
  Catalog catalog = MakeChainCatalog();
  PlanPtr two = BindSql("SELECT ta_val, tb_c FROM ta, tb", catalog).ValueOrDie();
  EXPECT_NE(two->ToString().find("Join cross"), std::string::npos);
  // The unconnected relation is crossed in only after the connected ones.
  PlanPtr three = BindSql(
      "SELECT ta_val, td_w FROM ta, td, tb WHERE ta_key = tb_a", catalog)
                      .ValueOrDie();
  EXPECT_EQ(ScanOrder(*three), (std::vector<std::string>{"ta", "tb", "td"}));
  EXPECT_NE(three->ToString().find("Join cross"), std::string::npos);
}

TEST(BinderJoinOrderTest, ExplicitAndLeftJoinListsKeepFromOrder) {
  Catalog catalog = MakeChainCatalog();
  // Connected order would be ta, tb, tc; an ON clause pins FROM order.
  PlanPtr on = BindSql(
      "SELECT ta_val FROM ta, tc JOIN tb ON tb_c = tc_key WHERE ta_key = tb_a",
      catalog).ValueOrDie();
  EXPECT_EQ(ScanOrder(*on), (std::vector<std::string>{"ta", "tc", "tb"}));
  EXPECT_NE(on->ToString().find("Join cross"), std::string::npos);
  PlanPtr left = BindSql(
      "SELECT ta_val, COUNT(td_key) AS n FROM ta, tc, tb LEFT JOIN td "
      "ON tb_c = td_key WHERE ta_key = tb_a AND tb_c = tc_key GROUP BY ta_val",
      catalog).ValueOrDie();
  EXPECT_EQ(ScanOrder(*left),
            (std::vector<std::string>{"ta", "tc", "tb", "td"}));
  EXPECT_NE(left->ToString().find("Join cross"), std::string::npos);
}

// A semi/anti join with the joins above it, outermost first.
struct PlacedSemiJoin {
  const PlanNode* join;
  std::vector<const PlanNode*> joins_above;
};

void CollectSemiJoins(const PlanNode& node, std::vector<const PlanNode*>* above,
                      std::vector<PlacedSemiJoin>* out) {
  const bool is_join = node.kind == PlanKind::kJoin;
  if (is_join && (node.join_type == sql::JoinType::kSemi ||
                  node.join_type == sql::JoinType::kAnti)) {
    out->push_back(PlacedSemiJoin{&node, *above});
  }
  if (is_join) above->push_back(&node);
  for (const PlanPtr& c : node.children) CollectSemiJoins(*c, above, out);
  if (is_join) above->pop_back();
}

std::vector<PlacedSemiJoin> SemiJoins(const PlanNode& root) {
  std::vector<const PlanNode*> above;
  std::vector<PlacedSemiJoin> out;
  CollectSemiJoins(root, &above, &out);
  return out;
}

// The semi/anti join whose probe side is a bare scan of `table`, or null.
const PlacedSemiJoin* SemiJoinOnScan(const std::vector<PlacedSemiJoin>& joins,
                                     const std::string& table) {
  for (const PlacedSemiJoin& s : joins) {
    const PlanNode& probe = *s.join->children[0];
    if (probe.kind == PlanKind::kScan && probe.table_name == table) return &s;
  }
  return nullptr;
}

int CountInnerJoins(const std::vector<const PlanNode*>& joins) {
  return static_cast<int>(std::count_if(
      joins.begin(), joins.end(), [](const PlanNode* j) {
        return j->join_type == sql::JoinType::kInner;
      }));
}

bool ContainsKind(const PlanNode& node, PlanKind kind) {
  if (node.kind == kind) return true;
  for (const PlanPtr& c : node.children) {
    if (ContainsKind(*c, kind)) return true;
  }
  return false;
}

TEST(SemiJoinPlacementTest, MembershipTestsWrapTheKeyRelation) {
  Catalog catalog = MakeTpchSchemaCatalog();
  // Q18: o_orderkey IN (...) probes orders, below both inner joins.
  PlanPtr q18 = BindSql(tpch::QueryText(18).ValueOrDie(), catalog).ValueOrDie();
  const auto q18_semis = SemiJoins(*q18);
  ASSERT_EQ(q18_semis.size(), 1u) << q18->ToString();
  const PlacedSemiJoin* orders = SemiJoinOnScan(q18_semis, "orders");
  ASSERT_NE(orders, nullptr) << q18->ToString();
  EXPECT_EQ(orders->join->join_type, sql::JoinType::kSemi);
  EXPECT_EQ(CountInnerJoins(orders->joins_above), 2) << q18->ToString();

  // Q20: s_suppkey IN (...) probes supplier below the nation join, and the
  // nested ps_partkey IN (...) probes partsupp below the join with the
  // decorrelated SUM(l_quantity) aggregate.
  PlanPtr q20 = BindSql(tpch::QueryText(20).ValueOrDie(), catalog).ValueOrDie();
  const auto q20_semis = SemiJoins(*q20);
  ASSERT_EQ(q20_semis.size(), 2u) << q20->ToString();
  const PlacedSemiJoin* supplier = SemiJoinOnScan(q20_semis, "supplier");
  ASSERT_NE(supplier, nullptr) << q20->ToString();
  EXPECT_EQ(CountInnerJoins(supplier->joins_above), 1);
  const PlacedSemiJoin* partsupp = SemiJoinOnScan(q20_semis, "partsupp");
  ASSERT_NE(partsupp, nullptr) << q20->ToString();
  ASSERT_FALSE(partsupp->joins_above.empty());
  const PlanNode* aggregate_join = partsupp->joins_above.back();
  EXPECT_EQ(aggregate_join->join_type, sql::JoinType::kInner);
  EXPECT_EQ(aggregate_join->children[0].get(), partsupp->join);
  EXPECT_TRUE(ContainsKind(*aggregate_join->children[1], PlanKind::kAggregate));

  // Q16: ps_suppkey NOT IN (...) probes partsupp, below the part join.
  PlanPtr q16 = BindSql(tpch::QueryText(16).ValueOrDie(), catalog).ValueOrDie();
  const auto q16_semis = SemiJoins(*q16);
  ASSERT_EQ(q16_semis.size(), 1u) << q16->ToString();
  const PlacedSemiJoin* anti = SemiJoinOnScan(q16_semis, "partsupp");
  ASSERT_NE(anti, nullptr) << q16->ToString();
  EXPECT_EQ(anti->join->join_type, sql::JoinType::kAnti);
  EXPECT_EQ(CountInnerJoins(anti->joins_above), 1);
}

TEST(SemiJoinPlacementTest, PairExpandingSemiJoinsStayOnTop) {
  Catalog catalog = MakeTpchSchemaCatalog();
  // Q21: EXISTS and NOT EXISTS carry an l_suppkey <> residual, so both stay
  // above the four-way supplier-lineitem-orders-nation chain.
  PlanPtr q21 = BindSql(tpch::QueryText(21).ValueOrDie(), catalog).ValueOrDie();
  const auto q21_semis = SemiJoins(*q21);
  ASSERT_EQ(q21_semis.size(), 2u) << q21->ToString();
  for (const PlacedSemiJoin& s : q21_semis) {
    EXPECT_NE(s.join->residual, nullptr);
    EXPECT_EQ(CountInnerJoins(s.joins_above), 0) << q21->ToString();
    EXPECT_EQ(Prefix(ScanOrder(*s.join->children[0]), 4),
              (std::vector<std::string>{"supplier", "lineitem", "orders",
                                        "nation"}));
  }

  // Q4 has one relation: its EXISTS probes the filtered orders scan, as
  // before.
  PlanPtr q4 = BindSql(tpch::QueryText(4).ValueOrDie(), catalog).ValueOrDie();
  const auto q4_semis = SemiJoins(*q4);
  ASSERT_EQ(q4_semis.size(), 1u) << q4->ToString();
  const PlanNode* q4_probe = q4_semis[0].join->children[0].get();
  EXPECT_EQ(q4_probe->kind, PlanKind::kFilter) << q4->ToString();
  while (q4_probe->kind == PlanKind::kFilter) {
    q4_probe = q4_probe->children[0].get();
  }
  EXPECT_EQ(q4_probe->kind, PlanKind::kScan) << q4->ToString();

  // A string key hashes and expands pairs, so it stays on top of the join;
  // the same subquery keyed on a number moves down onto items.
  Catalog small = MakeCatalog();
  PlanPtr by_tag = BindSql(
      "SELECT id, qty FROM items, sales WHERE id = item_id AND "
      "tag IN (SELECT tag FROM items WHERE price > 2)",
      small).ValueOrDie();
  const auto tag_semis = SemiJoins(*by_tag);
  ASSERT_EQ(tag_semis.size(), 1u);
  EXPECT_TRUE(tag_semis[0].joins_above.empty()) << by_tag->ToString();
  EXPECT_EQ(tag_semis[0].join->children[0]->join_type, sql::JoinType::kInner);
  PlanPtr by_id = BindSql(
      "SELECT id, qty FROM items, sales WHERE id = item_id AND "
      "id IN (SELECT id FROM items WHERE price > 2)",
      small).ValueOrDie();
  const auto id_semis = SemiJoins(*by_id);
  ASSERT_EQ(id_semis.size(), 1u);
  ASSERT_NE(SemiJoinOnScan(id_semis, "items"), nullptr) << by_id->ToString();
  EXPECT_EQ(CountInnerJoins(id_semis[0].joins_above), 1);
}

// For each scan of `table`, in tree order, the predicates of the filters
// stacked directly on it.
void CollectScanFilters(const PlanNode& node, const std::string& table,
                        std::vector<std::vector<std::string>>* out) {
  const PlanNode* base = &node;
  std::vector<std::string> preds;
  while (base->kind == PlanKind::kFilter) {
    preds.push_back(base->predicate->ToString());
    base = base->children[0].get();
  }
  if (base->kind == PlanKind::kScan) {
    if (base->table_name == table) out->push_back(preds);
    return;
  }
  for (const PlanPtr& c : base->children) CollectScanFilters(*c, table, out);
}

std::vector<std::vector<std::string>> ScanFilters(const PlanNode& root,
                                                  const std::string& table) {
  std::vector<std::vector<std::string>> out;
  CollectScanFilters(root, table, &out);
  return out;
}

// Predicates of the filters that sit above a join.
void CollectJoinFilters(const PlanNode& node, std::vector<std::string>* out) {
  if (node.kind == PlanKind::kFilter && ContainsKind(node, PlanKind::kJoin)) {
    out->push_back(node.predicate->ToString());
  }
  for (const PlanPtr& c : node.children) CollectJoinFilters(*c, out);
}

std::vector<std::string> JoinFilters(const PlanNode& root) {
  std::vector<std::string> out;
  CollectJoinFilters(root, &out);
  return out;
}

bool Has(const std::string& text, const std::string& part) {
  return text.find(part) != std::string::npos;
}

size_t CountOf(const std::string& text, const std::string& part) {
  size_t n = 0;
  for (size_t at = text.find(part); at != std::string::npos;
       at = text.find(part, at + part.size())) {
    ++n;
  }
  return n;
}

TEST(DisjunctionRewriteTest, Q19FiltersBothScansBelowTheJoin) {
  Catalog catalog = MakeTpchSchemaCatalog();
  PlanPtr plan = BindSql(tpch::QueryText(19).ValueOrDie(), catalog).ValueOrDie();
  const std::string text = plan->ToString();
  // lineitem: the factored ship mode and instruction, then the quantity
  // ranges of the three disjuncts.
  const auto lineitem = ScanFilters(*plan, "lineitem");
  ASSERT_EQ(lineitem.size(), 1u) << text;
  ASSERT_EQ(lineitem[0].size(), 3u) << text;
  std::string all;
  for (const std::string& p : lineitem[0]) all += p + "\n";
  EXPECT_TRUE(Has(all, "in ['AIR', 'REG AIR']")) << text;
  EXPECT_TRUE(Has(all, "eq 'DELIVER IN PERSON'")) << text;
  EXPECT_EQ(CountOf(all, " or "), 2u) << text;
  EXPECT_FALSE(Has(all, "Brand#")) << text;
  // part: the factored p_size >= 1 and the brand/container/size disjunction.
  const auto part = ScanFilters(*plan, "part");
  ASSERT_EQ(part.size(), 1u) << text;
  ASSERT_EQ(part[0].size(), 2u) << text;
  const std::string& brands = part[0][0];  // the filter stacked last
  EXPECT_TRUE(Has(brands, "'Brand#12'") && Has(brands, "'Brand#23'") &&
              Has(brands, "'Brand#34'"))
      << text;
  EXPECT_EQ(CountOf(brands, " or "), 2u) << text;
  // The OR itself stays above the join, without the factored conjuncts.
  const auto above = JoinFilters(*plan);
  ASSERT_EQ(above.size(), 1u) << text;
  EXPECT_TRUE(Has(above[0], "'Brand#12'")) << text;
  EXPECT_FALSE(Has(above[0], "'AIR'")) << text;
  EXPECT_FALSE(Has(above[0], "'DELIVER IN PERSON'")) << text;
}

TEST(DisjunctionRewriteTest, Q7FiltersEachNation) {
  Catalog catalog = MakeTpchSchemaCatalog();
  PlanPtr plan = BindSql(tpch::QueryText(7).ValueOrDie(), catalog).ValueOrDie();
  const std::string text = plan->ToString();
  const auto nations = ScanFilters(*plan, "nation");
  ASSERT_EQ(nations.size(), 2u) << text;
  for (const auto& preds : nations) {
    ASSERT_EQ(preds.size(), 1u) << text;
    EXPECT_TRUE(Has(preds[0], "'FRANCE'") && Has(preds[0], "'GERMANY'") &&
                Has(preds[0], " or "))
        << text;
  }
  bool pair_above_joins = false;
  for (const std::string& p : JoinFilters(*plan)) {
    pair_above_joins = pair_above_joins || CountOf(p, "'FRANCE'") == 2u;
  }
  EXPECT_TRUE(pair_above_joins) << text;
}

TEST(DisjunctionRewriteTest, FactorsConjunctsCommonToEveryDisjunct) {
  Catalog catalog = MakeCatalog();
  // tag = 'even' is in both disjuncts: it becomes a scan filter on items, and
  // the OR of what is left reads both relations, so it stays above the join.
  PlanPtr plan = BindSql(
      "SELECT id FROM items, sales WHERE id = item_id AND "
      "((tag = 'even' AND qty > 2) OR (price > 1 AND tag = 'even'))",
      catalog).ValueOrDie();
  const std::string text = plan->ToString();
  EXPECT_EQ(ScanFilters(*plan, "items"),
            (std::vector<std::vector<std::string>>{{"(#3 eq 'even')"}}))
      << text;
  EXPECT_EQ(JoinFilters(*plan),
            (std::vector<std::string>{"((#5 gt 2) or (#1 gt 1))"}))
      << text;

  // A factored join key becomes an equi-join key, not a cross join.
  PlanPtr key = BindSql(
      "SELECT id FROM items, sales WHERE (id = item_id AND qty > 2) OR "
      "(id = item_id AND qty < 1) OR (id = item_id AND price > 1)",
      catalog).ValueOrDie();
  EXPECT_FALSE(Has(key->ToString(), "Join cross")) << key->ToString();

  // A disjunct with nothing left makes the OR true: it is dropped.
  PlanPtr dropped = BindSql(
      "SELECT id FROM items, sales WHERE id = item_id AND "
      "(tag = 'even' OR (tag = 'even' AND qty > 2))",
      catalog).ValueOrDie();
  EXPECT_FALSE(Has(dropped->ToString(), " or ")) << dropped->ToString();
  EXPECT_EQ(ScanFilters(*dropped, "items"),
            (std::vector<std::vector<std::string>>{{"(#3 eq 'even')"}}));
  EXPECT_TRUE(JoinFilters(*dropped).empty()) << dropped->ToString();
}

TEST(DisjunctionRewriteTest, DerivesOnlyForRelationsEveryDisjunctRestricts) {
  Catalog catalog = MakeCatalog();
  // Both disjuncts restrict sales; the second does not restrict items.
  PlanPtr plan = BindSql(
      "SELECT id FROM items, sales WHERE id = item_id AND "
      "((tag = 'even' AND qty > 2) OR qty < 1)",
      catalog).ValueOrDie();
  const std::string text = plan->ToString();
  EXPECT_EQ(ScanFilters(*plan, "items"),
            (std::vector<std::vector<std::string>>{{}}))
      << text;
  EXPECT_EQ(ScanFilters(*plan, "sales"),
            (std::vector<std::vector<std::string>>{
                {"((#1 gt 2) or (#1 lt 1))"}}))
      << text;
  EXPECT_EQ(JoinFilters(*plan),
            (std::vector<std::string>{
                "(((#3 eq 'even') and (#5 gt 2)) or (#5 lt 1))"}))
      << text;
}

TEST(DisjunctionRewriteTest, LeavesLeftJoinOnDisjunctionsAlone) {
  Catalog catalog = MakeCatalog();
  // qty > 2 is common to both disjuncts, but ON conjuncts are not rewritten.
  PlanPtr plan = BindSql(
      "SELECT id, COUNT(item_id) AS n FROM items LEFT JOIN sales "
      "ON id = item_id AND ((qty > 2 AND qty < 5) OR (qty > 2 AND qty > 6)) "
      "GROUP BY id",
      catalog).ValueOrDie();
  EXPECT_EQ(ScanFilters(*plan, "sales"),
            (std::vector<std::vector<std::string>>{
                {"(((#1 gt 2) and (#1 lt 5)) or ((#1 gt 2) and (#1 gt 6)))"}}))
      << plan->ToString();
}

TEST(ExprEvalTest, RowSemantics) {
  // (#0 * 2 > 3) AND (#0 < 10)
  BExpr col = MakeColumnRef(0, LogicalType::kFloat64);
  BExpr two = MakeLiteral(Scalar(2.0), LogicalType::kFloat64);
  BExpr mul = MakeArith(BinaryOpKind::kMul, col, two, LogicalType::kFloat64);
  BExpr gt = MakeCompare(CompareOpKind::kGt, mul,
                         MakeLiteral(Scalar(3.0), LogicalType::kFloat64));
  BExpr lt = MakeCompare(CompareOpKind::kLt, col,
                         MakeLiteral(Scalar(10.0), LogicalType::kFloat64));
  BExpr both = MakeLogical(LogicalOpKind::kAnd, gt, lt);
  auto eval = [&](double v) {
    return EvalExprRow(*both, [v](int) { return Scalar(v); })
        .ValueOrDie()
        .bool_value();
  };
  EXPECT_TRUE(eval(2.0));
  EXPECT_FALSE(eval(1.0));
  EXPECT_FALSE(eval(50.0));
}

TEST(ExprEvalTest, FoldConstantsReplacesPureSubtrees) {
  BExpr two = MakeLiteral(Scalar(2.0), LogicalType::kFloat64);
  BExpr three = MakeLiteral(Scalar(3.0), LogicalType::kFloat64);
  BExpr sum = MakeArith(BinaryOpKind::kAdd, two, three, LogicalType::kFloat64);
  BExpr col = MakeColumnRef(0, LogicalType::kFloat64);
  BExpr mixed = MakeArith(BinaryOpKind::kMul, col, sum, LogicalType::kFloat64);
  BExpr folded = FoldConstants(mixed);
  EXPECT_EQ(folded->kind, BExprKind::kArith);
  EXPECT_EQ(folded->children[1]->kind, BExprKind::kLiteral);
  EXPECT_DOUBLE_EQ(folded->children[1]->literal.float_value(), 5.0);
}

TEST(OptimizerTest, MergesAdjacentFilters) {
  Catalog catalog = MakeCatalog();
  PlanPtr plan = BindSql(
      "SELECT id FROM items, sales WHERE id = item_id AND qty > 1 AND qty < 7",
      catalog).ValueOrDie();
  PlanPtr optimized = Optimize(plan).ValueOrDie();
  // No Filter(Filter(...)) chains remain.
  std::function<void(const PlanNode&)> check = [&](const PlanNode& node) {
    if (node.kind == PlanKind::kFilter) {
      EXPECT_NE(node.children[0]->kind, PlanKind::kFilter);
    }
    for (const PlanPtr& c : node.children) check(*c);
  };
  check(*optimized);
}

TEST(OptimizerTest, PrunesScanColumns) {
  Catalog catalog = MakeCatalog();
  PlanPtr plan =
      BindSql("SELECT price FROM items WHERE id > 1", catalog).ValueOrDie();
  PlanPtr optimized = Optimize(plan).ValueOrDie();
  const PlanNode* node = optimized.get();
  while (node->kind != PlanKind::kScan) node = node->children[0].get();
  // Only id and price survive out of 4 columns.
  EXPECT_EQ(node->scan_columns.size(), 2u);
  EXPECT_EQ(node->output_schema.num_fields(), 2);
}

TEST(OptimizerTest, PruningPreservesResults) {
  Catalog catalog = MakeCatalog();
  const std::string sql =
      "SELECT tag, SUM(price * qty) AS revenue FROM items, sales "
      "WHERE id = item_id GROUP BY tag ORDER BY tag";
  PlanPtr raw = BindSql(sql, catalog).ValueOrDie();
  PlanPtr optimized = Optimize(raw).ValueOrDie();
  VolcanoEngine engine(&catalog);
  Table unopt_result = engine.Execute(raw).ValueOrDie();
  Table opt_result = engine.Execute(optimized).ValueOrDie();
  EXPECT_TRUE(TablesEqualUnordered(unopt_result, opt_result).ok());
}

TEST(PlanNodeTest, ExplainOutput) {
  Catalog catalog = MakeCatalog();
  PlanPtr plan = PlanQuery(
      "SELECT tag, SUM(price) AS total FROM items WHERE price > 1 "
      "GROUP BY tag ORDER BY total DESC LIMIT 2",
      catalog).ValueOrDie();
  const std::string text = plan->ToString();
  EXPECT_NE(text.find("Limit"), std::string::npos);
  EXPECT_NE(text.find("Sort"), std::string::npos);
  EXPECT_NE(text.find("Aggregate"), std::string::npos);
  EXPECT_NE(text.find("Filter"), std::string::npos);
  EXPECT_NE(text.find("Scan items"), std::string::npos);
}

// ---- Keys: declared primary keys and unique-build joins --------------------

TEST(CatalogKeyTest, DeclarePrimaryKeyRejectsDuplicatesByName) {
  Catalog catalog = MakeCatalog();
  EXPECT_TRUE(catalog.DeclarePrimaryKey("items", "id").ok());
  EXPECT_EQ(catalog.PrimaryKey("items"), 0);
  // sales.item_id holds 0..4 twice over.
  const Status dup = catalog.DeclarePrimaryKey("sales", "item_id");
  ASSERT_FALSE(dup.ok());
  EXPECT_NE(dup.ToString().find("sales"), std::string::npos) << dup.ToString();
  EXPECT_NE(dup.ToString().find("item_id"), std::string::npos) << dup.ToString();
  EXPECT_NE(dup.ToString().find("not unique"), std::string::npos)
      << dup.ToString();
  EXPECT_EQ(catalog.PrimaryKey("sales"), -1);
  EXPECT_FALSE(catalog.DeclarePrimaryKey("sales", "no_such_column").ok());
  EXPECT_FALSE(catalog.DeclarePrimaryKey("no_such_table", "id").ok());

  // Unordered distinct values pass (the sort path); -0.0 and +0.0 compare
  // equal, and NaN is no key.
  const auto one_column = [](const std::vector<double>& values) {
    Schema schema({Field{"k", LogicalType::kFloat64}});
    TableBuilder b(schema);
    for (double v : values) b.AppendDouble(0, v);
    return b.Finish().ValueOrDie();
  };
  catalog.RegisterTable("f", one_column({3.0, -1.0, 2.5, 0.0}));
  EXPECT_TRUE(catalog.DeclarePrimaryKey("f", "k").ok());
  catalog.RegisterTable("f", one_column({1.0, -0.0, 2.0, 0.0}));
  const Status zeros = catalog.DeclarePrimaryKey("f", "k");
  EXPECT_FALSE(zeros.ok());
  EXPECT_NE(zeros.ToString().find("f.k"), std::string::npos) << zeros.ToString();
  catalog.RegisterTable("f", one_column({1.0, std::nan(""), 2.0}));
  const Status nan = catalog.DeclarePrimaryKey("f", "k");
  EXPECT_FALSE(nan.ok());
  EXPECT_NE(nan.ToString().find("NaN"), std::string::npos) << nan.ToString();
}

TEST(CatalogKeyTest, ReplacingATableDropsItsKey) {
  Catalog catalog = MakeCatalog();
  ASSERT_TRUE(catalog.DeclarePrimaryKey("items", "id").ok());
  const Table items = catalog.GetTable("items").ValueOrDie();
  catalog.RegisterTable("items", items);
  EXPECT_EQ(catalog.PrimaryKey("items"), -1);
  // Without the key the join keeps the expansion.
  const PlanPtr plan =
      PlanQuery("SELECT qty, price FROM sales, items WHERE item_id = id",
                catalog)
          .ValueOrDie();
  EXPECT_EQ(plan->ToString().find("unique build"), std::string::npos)
      << plan->ToString();
}

TEST(CatalogKeyTest, QueryPlannedOnADroppedKeyIsRefused) {
  Catalog catalog = MakeCatalog();
  ASSERT_TRUE(catalog.DeclarePrimaryKey("items", "id").ok());
  const std::string sql = "SELECT qty, price FROM sales, items WHERE item_id = id";
  const CompiledQuery planned = QueryCompiler().CompileSql(sql, catalog).ValueOrDie();
  const Table before = planned.Run(catalog).ValueOrDie();
  EXPECT_EQ(before.num_rows(), 8);
  // items again, every row twice: the unique-build lowering would keep one
  // match per sales row.
  const Table items = catalog.GetTable("items").ValueOrDie();
  std::vector<Column> doubled;
  for (int c = 0; c < items.num_columns(); ++c) {
    const Tensor& t = items.column(c).tensor();
    doubled.emplace_back(items.column(c).type(),
                         kernels::ConcatRows({t, t}).ValueOrDie());
  }
  catalog.RegisterTable("items", Table::Make(items.schema(), doubled).ValueOrDie());
  const auto stale = planned.Run(catalog);
  ASSERT_FALSE(stale.ok());
  EXPECT_NE(stale.status().ToString().find("'items'"), std::string::npos)
      << stale.status().ToString();
  const Table replanned =
      QueryCompiler().CompileSql(sql, catalog).ValueOrDie().Run(catalog).ValueOrDie();
  EXPECT_EQ(replanned.num_rows(), 16);
  EXPECT_TRUE(TablesEqualUnordered(
                  replanned, VolcanoEngine(&catalog).ExecuteSql(sql).ValueOrDie())
                  .ok());
}

class UniqueBuildTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.001;
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static PlanPtr Plan(const std::string& sql) {
    return PlanQuery(sql, *catalog_).ValueOrDie();
  }
  static Catalog* catalog_;
};

Catalog* UniqueBuildTest::catalog_ = nullptr;

/// The joins of `node`'s subtree whose right child scans `table` first.
std::vector<const PlanNode*> JoinsBuildingOn(const PlanNode& node,
                                             const std::string& table) {
  std::vector<const PlanNode*> out;
  if (node.kind == PlanKind::kJoin && ScanOrder(*node.children[1]).front() == table) {
    out.push_back(&node);
  }
  for (const PlanPtr& c : node.children) {
    for (const PlanNode* j : JoinsBuildingOn(*c, table)) out.push_back(j);
  }
  return out;
}

TEST_F(UniqueBuildTest, TpchKeysAreDeclared) {
  for (const auto& [table, column] :
       std::vector<std::pair<std::string, std::string>>{
           {"orders", "o_orderkey"}, {"customer", "c_custkey"},
           {"part", "p_partkey"}, {"supplier", "s_suppkey"},
           {"nation", "n_nationkey"}, {"region", "r_regionkey"}}) {
    const Schema schema = catalog_->GetSchema(table).ValueOrDie();
    EXPECT_EQ(catalog_->PrimaryKey(table), schema.FieldIndex(column)) << table;
  }
  EXPECT_EQ(catalog_->PrimaryKey("lineitem"), -1);
  EXPECT_EQ(catalog_->PrimaryKey("partsupp"), -1);
}

TEST_F(UniqueBuildTest, Q21MarksItsOrdersAndNationJoins) {
  const PlanPtr plan = Plan(tpch::QueryText(21).ValueOrDie());
  for (const char* table : {"orders", "nation"}) {
    const std::vector<const PlanNode*> joins = JoinsBuildingOn(*plan, table);
    ASSERT_EQ(joins.size(), 1u) << table << "\n" << plan->ToString();
    EXPECT_TRUE(joins[0]->unique_build) << table << "\n" << plan->ToString();
  }
  // The build sides on lineitem are not unique: supplier ⋈ lineitem and the
  // EXISTS / NOT EXISTS semi and anti joins.
  for (const PlanNode* j : JoinsBuildingOn(*plan, "lineitem")) {
    EXPECT_FALSE(j->unique_build) << plan->ToString();
  }
  const std::string text = plan->ToString();
  size_t marks = 0;
  for (size_t at = text.find("unique build"); at != std::string::npos;
       at = text.find("unique build", at + 1)) {
    ++marks;
  }
  EXPECT_EQ(marks, 2u) << text;
}

TEST_F(UniqueBuildTest, FanOutRightChildIsNotUnique) {
  // orders ⋈ lineitem repeats o_orderkey once per lineitem.
  const PlanPtr fan_out = Plan(
      "SELECT o1.o_totalprice, ol.q FROM orders o1, "
      "(SELECT o_orderkey AS k, l_quantity AS q FROM orders, lineitem "
      "WHERE o_orderkey = l_orderkey) ol WHERE o1.o_orderkey = ol.k");
  ASSERT_EQ(fan_out->kind, PlanKind::kProject) << fan_out->ToString();
  const PlanNode& top = *fan_out->children[0];
  ASSERT_EQ(top.kind, PlanKind::kJoin) << fan_out->ToString();
  EXPECT_FALSE(top.unique_build) << fan_out->ToString();
  // orders ⋈ customer keeps o_orderkey unique: the customer key is.
  const PlanPtr one_to_one = Plan(
      "SELECT o1.o_totalprice, oc.b FROM orders o1, "
      "(SELECT o_orderkey AS k, c_acctbal AS b FROM orders, customer "
      "WHERE o_custkey = c_custkey) oc WHERE o1.o_orderkey = oc.k");
  ASSERT_EQ(one_to_one->kind, PlanKind::kProject) << one_to_one->ToString();
  EXPECT_TRUE(one_to_one->children[0]->unique_build) << one_to_one->ToString();
}

TEST_F(UniqueBuildTest, GroupByKeyCountsAsUnique) {
  const std::string sql =
      "SELECT l_quantity, g.q FROM lineitem, "
      "(SELECT l_orderkey AS k, SUM(l_quantity) AS q FROM lineitem "
      "GROUP BY l_orderkey) g WHERE l_orderkey = g.k";
  const PlanPtr grouped = Plan(sql);
  ASSERT_EQ(grouped->kind, PlanKind::kProject) << grouped->ToString();
  EXPECT_TRUE(grouped->children[0]->unique_build) << grouped->ToString();
  // Two group keys: neither alone is unique.
  const PlanPtr two_keys = Plan(
      "SELECT l_quantity, g.q FROM lineitem, "
      "(SELECT l_orderkey AS k, l_suppkey AS s, SUM(l_quantity) AS q "
      "FROM lineitem GROUP BY l_orderkey, l_suppkey) g WHERE l_orderkey = g.k");
  ASSERT_EQ(two_keys->kind, PlanKind::kProject) << two_keys->ToString();
  EXPECT_FALSE(two_keys->children[0]->unique_build) << two_keys->ToString();
  // Results match Volcano, which ignores the mark.
  const Table tensor =
      QueryCompiler().CompileSql(sql, *catalog_).ValueOrDie().Run(*catalog_)
          .ValueOrDie();
  const Table oracle = VolcanoEngine(catalog_).ExecuteSql(sql).ValueOrDie();
  EXPECT_GT(tensor.num_rows(), 0);
  EXPECT_TRUE(TablesEqualUnordered(tensor, oracle).ok());
}

TEST_F(UniqueBuildTest, PlansWithoutACatalogAreNotMarked) {
  const PlanPtr marked = Plan(tpch::QueryText(21).ValueOrDie());
  ASSERT_NE(marked->ToString().find("unique build"), std::string::npos);
  const PlanPtr no_catalog = ChoosePhysical(marked, PhysicalOptions{});
  EXPECT_EQ(no_catalog->ToString().find("unique build"), std::string::npos);
}

}  // namespace
}  // namespace tqp
