// Tests for the Spark-style JSON physical-plan frontend (src/frontend):
// the paper's frontend-decoupling claim — a physical plan handed over the
// wire must compile to the same tensor program (and results) as the
// equivalent SQL text going through the parser/binder.

#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "baseline/volcano.h"
#include "compile/compiler.h"
#include "frontend/json.h"
#include "frontend/spark_plan.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace tqp {
namespace {

class FrontendFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.005;
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static Catalog* catalog_;
};

Catalog* FrontendFixture::catalog_ = nullptr;

// ---- JSON document model -----------------------------------------------------

TEST(JsonTest, ParsesScalarsArraysObjects) {
  auto doc = frontend::ParseJson(
                 R"({"a": 1.5, "b": [true, false, null], "s": "x\ny",
                     "nested": {"k": -2e3}})")
                 .ValueOrDie();
  EXPECT_DOUBLE_EQ(doc.Get("a")->number_value(), 1.5);
  EXPECT_EQ(doc.Get("b")->array().size(), 3u);
  EXPECT_TRUE(doc.Get("b")->array()[0].bool_value());
  EXPECT_EQ(doc.Get("s")->string_value(), "x\ny");
  EXPECT_DOUBLE_EQ(doc.Get("nested")->Get("k")->number_value(), -2000.0);
  EXPECT_EQ(doc.Get("missing"), nullptr);
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  auto doc = frontend::ParseJson(R"({"s": "Aé"})").ValueOrDie();
  EXPECT_EQ(doc.Get("s")->string_value(), "A\xC3\xA9");
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad : {
           "{",                       // unterminated object
           "[1, 2",                   // unterminated array
           "{\"a\" 1}",               // missing colon
           "{\"a\": 1} trailing",     // trailing garbage
           "\"unterminated",          // unterminated string
           "{\"a\": 01x}",            // bad number
       }) {
    auto result = frontend::ParseJson(bad);
    EXPECT_FALSE(result.ok()) << bad;
  }
}

// ---- Plan ingestion ----------------------------------------------------------

TEST_F(FrontendFixture, ScanFilterAggregateMatchesSql) {
  // TPC-H Q6 as a Spark-shaped physical plan.
  const std::string json = R"({
    "node": "HashAggregate",
    "aggregateExpressions": ["SUM(l_extendedprice * l_discount) AS revenue"],
    "children": [{
      "node": "Filter",
      "condition": "l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' AND l_discount BETWEEN 0.05 AND 0.07 AND l_quantity < 24",
      "children": [{"node": "FileSourceScan", "table": "lineitem"}]
    }]
  })";
  PlanPtr plan = frontend::FromSparkPlanJson(json, *catalog_).ValueOrDie();

  QueryCompiler compiler;
  Table from_json =
      compiler.Compile(plan, CompileOptions{}).ValueOrDie().Run(*catalog_)
          .ValueOrDie();
  VolcanoEngine volcano(catalog_);
  Table from_sql =
      volcano.ExecuteSql(tpch::QueryText(6).ValueOrDie()).ValueOrDie();
  EXPECT_TRUE(TablesEqualUnordered(from_json, from_sql).ok());
}

TEST_F(FrontendFixture, JoinPlanMatchesSql) {
  // lineitem join part with a residual LIKE, grouped — a Q14-shaped plan.
  const std::string json = R"({
    "node": "HashAggregate",
    "aggregateExpressions": [
      "SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice * (1 - l_discount) ELSE 0 END) AS promo",
      "SUM(l_extendedprice * (1 - l_discount)) AS total"],
    "children": [{
      "node": "SortMergeJoin",
      "joinType": "Inner",
      "leftKeys": ["l_partkey"],
      "rightKeys": ["p_partkey"],
      "children": [
        {"node": "Filter",
         "condition": "l_shipdate >= DATE '1995-09-01' AND l_shipdate < DATE '1995-10-01'",
         "children": [{"node": "Scan", "table": "lineitem"}]},
        {"node": "Scan", "table": "part"}]
    }]
  })";
  PlanPtr plan = frontend::FromSparkPlanJson(json, *catalog_).ValueOrDie();
  QueryCompiler compiler;
  Table from_json =
      compiler.Compile(plan, CompileOptions{}).ValueOrDie().Run(*catalog_)
          .ValueOrDie();

  VolcanoEngine volcano(catalog_);
  Table from_sql =
      volcano
          .ExecuteSql(
              "SELECT SUM(CASE WHEN p_type LIKE 'PROMO%' THEN l_extendedprice "
              "* (1 - l_discount) ELSE 0 END) AS promo, "
              "SUM(l_extendedprice * (1 - l_discount)) AS total "
              "FROM lineitem, part WHERE l_partkey = p_partkey "
              "AND l_shipdate >= DATE '1995-09-01' "
              "AND l_shipdate < DATE '1995-10-01'")
          .ValueOrDie();
  EXPECT_TRUE(TablesEqualUnordered(from_json, from_sql).ok());
}

TEST_F(FrontendFixture, SparkPlanJoinKeepsTheExpansion) {
  // A JSON plan carries no key information, so its join on part's primary
  // key is not marked and lowers with the match expansion; the same join
  // planned from SQL against the catalog is a unique build without it.
  const std::string json = R"({
    "node": "SortMergeJoin",
    "joinType": "Inner",
    "leftKeys": ["l_partkey"],
    "rightKeys": ["p_partkey"],
    "children": [
      {"node": "Project", "projectList": ["l_partkey", "l_quantity"],
       "children": [{"node": "Scan", "table": "lineitem"}]},
      {"node": "Project", "projectList": ["p_partkey", "p_size"],
       "children": [{"node": "Scan", "table": "part"}]}]
  })";
  const PlanPtr plan = frontend::FromSparkPlanJson(json, *catalog_).ValueOrDie();
  ASSERT_EQ(plan->kind, PlanKind::kJoin);
  EXPECT_FALSE(plan->unique_build);
  const auto count_expansions = [](const CompiledQuery& q) {
    const auto& nodes = q.program().nodes();
    return std::count_if(nodes.begin(), nodes.end(), [](const OpNode& n) {
      return n.type == OpType::kRepeatInterleave;
    });
  };
  QueryCompiler compiler;
  const CompiledQuery from_json = compiler.Compile(plan, CompileOptions{}).ValueOrDie();
  EXPECT_GT(count_expansions(from_json), 0) << from_json.program().ToString();
  const CompiledQuery from_sql =
      compiler
          .CompileSql("SELECT l_partkey, l_quantity, p_partkey, p_size "
                      "FROM lineitem, part WHERE l_partkey = p_partkey",
                      *catalog_)
          .ValueOrDie();
  EXPECT_EQ(count_expansions(from_sql), 0) << from_sql.program().ToString();
  EXPECT_TRUE(TablesEqualUnordered(from_json.Run(*catalog_).ValueOrDie(),
                                   from_sql.Run(*catalog_).ValueOrDie())
                  .ok());
}

TEST_F(FrontendFixture, EveryJoinKindCompilesLikeSortMergeJoin) {
  // The node kind names Spark's join algorithm, which TQP does not use: a
  // hash-join kind lowers to the same sort + searchsorted program, with no
  // key hashing, and returns the same rows.
  const auto plan_json = [](const std::string& kind) {
    return R"({
      "node": ")" + kind + R"(",
      "joinType": "Inner",
      "leftKeys": ["l_partkey"],
      "rightKeys": ["p_partkey"],
      "children": [
        {"node": "Project", "projectList": ["l_partkey", "l_quantity"],
         "children": [{"node": "Scan", "table": "lineitem"}]},
        {"node": "Project", "projectList": ["p_partkey", "p_size"],
         "children": [{"node": "Scan", "table": "part"}]}]
    })";
  };
  QueryCompiler compiler;
  const auto compile = [&](const std::string& kind) {
    const PlanPtr plan =
        frontend::FromSparkPlanJson(plan_json(kind), *catalog_).ValueOrDie();
    return compiler.Compile(plan, CompileOptions{}).ValueOrDie();
  };
  const CompiledQuery sort_merge = compile("SortMergeJoin");
  const Table expected = sort_merge.Run(*catalog_).ValueOrDie();
  ASSERT_GT(expected.num_rows(), 0);
  for (const std::string kind : {"ShuffledHashJoin", "BroadcastHashJoin", "Join"}) {
    const CompiledQuery q = compile(kind);
    const auto& nodes = q.program().nodes();
    EXPECT_EQ(nodes.size(), sort_merge.program().nodes().size()) << kind;
    EXPECT_TRUE(std::none_of(nodes.begin(), nodes.end(), [](const OpNode& n) {
      return n.type == OpType::kHashRows;
    })) << kind << "\n" << q.program().ToString();
    EXPECT_EQ(q.program().ToString(), sort_merge.program().ToString()) << kind;
    const Status same =
        TablesEqualUnordered(q.Run(*catalog_).ValueOrDie(), expected);
    EXPECT_TRUE(same.ok()) << kind << ": " << same.ToString();
  }
}

TEST_F(FrontendFixture, SemiJoinWithResidualCondition) {
  const std::string json = R"({
    "node": "Project",
    "projectList": ["o_orderkey"],
    "children": [{
      "node": "ShuffledHashJoin",
      "joinType": "LeftSemi",
      "leftKeys": ["o_orderkey"],
      "rightKeys": ["l_orderkey"],
      "condition": "l_commitdate < l_receiptdate",
      "children": [
        {"node": "Scan", "table": "orders"},
        {"node": "Scan", "table": "lineitem"}]
    }]
  })";
  PlanPtr plan = frontend::FromSparkPlanJson(json, *catalog_).ValueOrDie();
  QueryCompiler compiler;
  Table from_json =
      compiler.Compile(plan, CompileOptions{}).ValueOrDie().Run(*catalog_)
          .ValueOrDie();
  VolcanoEngine volcano(catalog_);
  Table from_sql =
      volcano
          .ExecuteSql(
              "SELECT o_orderkey FROM orders WHERE EXISTS (SELECT * FROM "
              "lineitem WHERE l_orderkey = o_orderkey AND l_commitdate < "
              "l_receiptdate)")
          .ValueOrDie();
  EXPECT_GT(from_json.num_rows(), 0);
  EXPECT_TRUE(TablesEqualUnordered(from_json, from_sql).ok());
}

TEST_F(FrontendFixture, SortAndLimit) {
  const std::string json = R"({
    "node": "CollectLimit",
    "limit": 5,
    "children": [{
      "node": "Sort",
      "sortOrder": ["s_acctbal DESC", "s_name"],
      "children": [{
        "node": "Project",
        "projectList": ["s_name", "s_acctbal"],
        "children": [{"node": "Scan", "table": "supplier"}]
      }]
    }]
  })";
  PlanPtr plan = frontend::FromSparkPlanJson(json, *catalog_).ValueOrDie();
  QueryCompiler compiler;
  Table from_json =
      compiler.Compile(plan, CompileOptions{}).ValueOrDie().Run(*catalog_)
          .ValueOrDie();
  VolcanoEngine volcano(catalog_);
  Table from_sql =
      volcano
          .ExecuteSql(
              "SELECT s_name, s_acctbal FROM supplier "
              "ORDER BY s_acctbal DESC, s_name LIMIT 5")
          .ValueOrDie();
  ASSERT_EQ(from_json.num_rows(), 5);
  EXPECT_TRUE(TablesEqualUnordered(from_json, from_sql).ok());
}

TEST_F(FrontendFixture, ErrorsSurfaceCleanly) {
  // Unknown operator.
  EXPECT_FALSE(frontend::FromSparkPlanJson(
                   R"({"node": "Exchange", "children": []})", *catalog_)
                   .ok());
  // Unknown table.
  EXPECT_FALSE(frontend::FromSparkPlanJson(
                   R"({"node": "Scan", "table": "nope"})", *catalog_)
                   .ok());
  // Unknown join key.
  EXPECT_FALSE(
      frontend::FromSparkPlanJson(
          R"({"node": "Join", "joinType": "Inner",
              "leftKeys": ["nope"], "rightKeys": ["l_orderkey"],
              "children": [{"node": "Scan", "table": "orders"},
                           {"node": "Scan", "table": "lineitem"}]})",
          *catalog_)
          .ok());
  // Missing child.
  EXPECT_FALSE(frontend::FromSparkPlanJson(
                   R"({"node": "Filter", "condition": "1 = 1"})", *catalog_)
                   .ok());
  // Expression that doesn't bind against the child schema.
  EXPECT_FALSE(frontend::FromSparkPlanJson(
                   R"({"node": "Filter", "condition": "no_such_col > 1",
                       "children": [{"node": "Scan", "table": "orders"}]})",
                   *catalog_)
                   .ok());
}

}  // namespace
}  // namespace tqp
