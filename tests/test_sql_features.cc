// Tests for the SQL features added for full TPC-H coverage: EXTRACT,
// scalar subqueries (uncorrelated, correlated, HAVING), COUNT(DISTINCT),
// LEFT OUTER JOIN with the __matched validity column, EXISTS with
// non-equality residual correlation, and keyless cross joins. Each feature
// is checked against hand-computed expectations AND differentially across
// every backend (Volcano oracle, three tensor executors, columnar engine).

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <vector>

#include "baseline/columnar.h"
#include "baseline/volcano.h"
#include "compile/compiler.h"
#include "relational/table_builder.h"

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
      b.AppendInt(2, 8766 + 400 * i);
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

// Runs `sql` on the Volcano oracle, all three tensor executors and the
// columnar engine; requires identical results everywhere and returns the
// oracle table.
Table RunAllEngines(const std::string& sql, const Catalog& catalog) {
  VolcanoEngine volcano(&catalog);
  auto oracle_or = volcano.ExecuteSql(sql);
  EXPECT_TRUE(oracle_or.ok()) << "volcano: " << oracle_or.status().ToString();
  if (!oracle_or.ok()) return Table();
  Table oracle = std::move(oracle_or).ValueOrDie();

  QueryCompiler compiler;
  for (ExecutorTarget target : {ExecutorTarget::kEager, ExecutorTarget::kStatic,
                                ExecutorTarget::kInterp,
                                ExecutorTarget::kPipelined}) {
    CompileOptions options;
    options.target = target;
    auto compiled_or = compiler.CompileSql(sql, catalog, options);
    EXPECT_TRUE(compiled_or.ok())
        << ExecutorTargetName(target) << ": " << compiled_or.status().ToString();
    if (!compiled_or.ok()) continue;
    auto result_or = compiled_or.ValueOrDie().Run(catalog);
    EXPECT_TRUE(result_or.ok())
        << ExecutorTargetName(target) << ": " << result_or.status().ToString();
    if (!result_or.ok()) continue;
    const Status same = TablesEqualUnordered(result_or.ValueOrDie(), oracle);
    EXPECT_TRUE(same.ok()) << ExecutorTargetName(target) << ": " << same.ToString();
  }
  ColumnarEngine columnar(&catalog);
  auto result_or = columnar.ExecuteSql(sql);
  EXPECT_TRUE(result_or.ok()) << "columnar: " << result_or.status().ToString();
  if (result_or.ok()) {
    const Status same = TablesEqualUnordered(result_or.ValueOrDie(), oracle);
    EXPECT_TRUE(same.ok()) << "columnar: " << same.ToString();
  }
  return oracle;
}

// ---- EXTRACT ---------------------------------------------------------------

TEST(ExtractTest, MatchesChronoAcrossCenturies) {
  // EXTRACT is synthesized as integer tensor arithmetic; std::chrono is the
  // independent oracle. Sweep ~140 years around the epoch (and TPC-H range).
  Catalog catalog;
  Schema schema({Field{"d", LogicalType::kDate}});
  TableBuilder b(schema);
  std::vector<int64_t> days;
  for (int64_t d = -25202; d <= 25202; d += 97) {
    b.AppendInt(0, d);
    days.push_back(d);
  }
  catalog.RegisterTable("dates", b.Finish().ValueOrDie());

  const Table result = RunAllEngines(
      "SELECT EXTRACT(YEAR FROM d) AS y, EXTRACT(MONTH FROM d) AS m, "
      "EXTRACT(DAY FROM d) AS dd FROM dates",
      catalog);
  ASSERT_EQ(result.num_rows(), static_cast<int64_t>(days.size()));
  for (size_t i = 0; i < days.size(); ++i) {
    using namespace std::chrono;
    const year_month_day ymd{sys_days{std::chrono::days{days[i]}}};
    EXPECT_EQ(result.column(0).GetScalar(static_cast<int64_t>(i)).AsInt64(),
              static_cast<int>(ymd.year()))
        << "day " << days[i];
    EXPECT_EQ(result.column(1).GetScalar(static_cast<int64_t>(i)).AsInt64(),
              static_cast<int64_t>(static_cast<unsigned>(ymd.month())))
        << "day " << days[i];
    EXPECT_EQ(result.column(2).GetScalar(static_cast<int64_t>(i)).AsInt64(),
              static_cast<int64_t>(static_cast<unsigned>(ymd.day())))
        << "day " << days[i];
  }
}

TEST(ExtractTest, RequiresDateOperand) {
  Catalog catalog = MakeCatalog();
  VolcanoEngine volcano(&catalog);
  auto result = volcano.ExecuteSql("SELECT EXTRACT(YEAR FROM id) FROM items");
  EXPECT_EQ(result.status().code(), StatusCode::kTypeError);
}

TEST(ExtractTest, ParsesOnlyKnownUnits) {
  Catalog catalog = MakeCatalog();
  VolcanoEngine volcano(&catalog);
  auto result = volcano.ExecuteSql("SELECT EXTRACT(hour FROM day) FROM items");
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
}

TEST(ExtractTest, UsableInGroupByAndWhere) {
  Catalog catalog = MakeCatalog();
  // days 8766 + 400*i: 1994-01-01(8766), 1995-02-05, 1996-03-11, 1997-04-15,
  // 1998-05-20 -> years 1994..1998.
  const Table result = RunAllEngines(
      "SELECT EXTRACT(YEAR FROM day) AS y, COUNT(*) AS n FROM items "
      "WHERE EXTRACT(YEAR FROM day) >= 1996 GROUP BY EXTRACT(YEAR FROM day) "
      "ORDER BY y",
      catalog);
  ASSERT_EQ(result.num_rows(), 3);
  EXPECT_EQ(result.column(0).GetScalar(0).AsInt64(), 1996);
  EXPECT_EQ(result.column(0).GetScalar(2).AsInt64(), 1998);
}

// ---- Scalar subqueries -------------------------------------------------------

TEST(ScalarSubqueryTest, UncorrelatedBroadcastsOneRow) {
  Catalog catalog = MakeCatalog();
  // AVG(price) = (0 + 1.5 + 3 + 4.5 + 6)/5 = 3.0 -> ids 3, 4 qualify.
  const Table result = RunAllEngines(
      "SELECT id FROM items WHERE price > (SELECT AVG(price) FROM items) "
      "ORDER BY id",
      catalog);
  ASSERT_EQ(result.num_rows(), 2);
  EXPECT_EQ(result.column(0).GetScalar(0).AsInt64(), 3);
  EXPECT_EQ(result.column(0).GetScalar(1).AsInt64(), 4);
}

TEST(ScalarSubqueryTest, CorrelatedDecorrelatesToGroupJoin) {
  Catalog catalog = MakeCatalog();
  // Per item_id MAX(qty): 0->5, 1->6, 2->7, 3->3, 4->4. Rows at the max:
  // (0,5), (1,6), (2,7), (3,3), (4,4).
  const Table result = RunAllEngines(
      "SELECT item_id, qty FROM sales "
      "WHERE qty >= (SELECT MAX(qty) FROM sales s2 "
      "              WHERE s2.item_id = sales.item_id) "
      "ORDER BY item_id",
      catalog);
  ASSERT_EQ(result.num_rows(), 5);
  const int64_t expected_qty[] = {5, 6, 7, 3, 4};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(result.column(0).GetScalar(i).AsInt64(), i);
    EXPECT_EQ(result.column(1).GetScalar(i).AsInt64(), expected_qty[i]);
  }
}

TEST(ScalarSubqueryTest, HavingComparesAgainstScalar) {
  Catalog catalog = MakeCatalog();
  // SUM(qty) per item_id: 0->5, 1->7, 2->9, 3->3, 4->4; AVG(qty) = 3.5.
  const Table result = RunAllEngines(
      "SELECT item_id, SUM(qty) AS total FROM sales GROUP BY item_id "
      "HAVING SUM(qty) > (SELECT AVG(qty) FROM sales) + 2 ORDER BY item_id",
      catalog);
  ASSERT_EQ(result.num_rows(), 2);  // totals 7 and 9 exceed 5.5
  EXPECT_EQ(result.column(0).GetScalar(0).AsInt64(), 1);
  EXPECT_EQ(result.column(0).GetScalar(1).AsInt64(), 2);
}

TEST(ScalarSubqueryTest, NestedInsideExpression) {
  Catalog catalog = MakeCatalog();
  // 0.5 * MAX(qty) = 3.5 -> qty in {4,5,6,7}.
  const Table result = RunAllEngines(
      "SELECT qty FROM sales WHERE qty > 0.5 * (SELECT MAX(qty) FROM sales) "
      "ORDER BY qty",
      catalog);
  ASSERT_EQ(result.num_rows(), 4);
  EXPECT_EQ(result.column(0).GetScalar(0).AsInt64(), 4);
  EXPECT_EQ(result.column(0).GetScalar(3).AsInt64(), 7);
}

TEST(ScalarSubqueryTest, RejectsNonAggregateShape) {
  Catalog catalog = MakeCatalog();
  VolcanoEngine volcano(&catalog);
  auto result =
      volcano.ExecuteSql("SELECT id FROM items WHERE id > (SELECT id FROM items)");
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

TEST(ScalarSubqueryTest, RejectsSelectListUse) {
  Catalog catalog = MakeCatalog();
  VolcanoEngine volcano(&catalog);
  auto result = volcano.ExecuteSql(
      "SELECT (SELECT MAX(qty) FROM sales) AS m, SUM(qty) FROM sales");
  EXPECT_FALSE(result.ok());
}

// ---- COUNT(DISTINCT) --------------------------------------------------------

TEST(CountDistinctTest, TwoLevelRewriteMatchesOracle) {
  Catalog catalog = MakeCatalog();
  // Distinct qty%3 per item_id: 0 -> {0, 2}, 1 -> {1, 0}, 2 -> {2, 1},
  // 3 -> {0}, 4 -> {1}.
  const Table result = RunAllEngines(
      "SELECT item_id, COUNT(DISTINCT qty % 3) AS dc FROM sales "
      "GROUP BY item_id ORDER BY item_id",
      catalog);
  ASSERT_EQ(result.num_rows(), 5);
  const int64_t expected[] = {2, 2, 2, 1, 1};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(result.column(1).GetScalar(i).AsInt64(), expected[i]) << i;
  }
}

TEST(CountDistinctTest, MixedDistinctAndPlainRejected) {
  Catalog catalog = MakeCatalog();
  VolcanoEngine volcano(&catalog);
  auto result = volcano.ExecuteSql(
      "SELECT item_id, COUNT(DISTINCT qty), SUM(qty) FROM sales GROUP BY item_id");
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

// ---- LEFT OUTER JOIN --------------------------------------------------------

TEST(LeftJoinTest, CountsOnlyMatchedRows) {
  Catalog catalog = MakeCatalog();
  // ON filter keeps sales with qty > 5: (1,6), (2,7). COUNT(item_id) per id:
  // 0->0, 1->1, 2->1, 3->0, 4->0 (unmatched ids survive with zero).
  const Table result = RunAllEngines(
      "SELECT id, COUNT(item_id) AS n FROM items LEFT OUTER JOIN sales "
      "ON id = item_id AND qty > 5 GROUP BY id ORDER BY id",
      catalog);
  ASSERT_EQ(result.num_rows(), 5);
  const double expected[] = {0, 1, 1, 0, 0};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(result.column(0).GetScalar(i).AsInt64(), i);
    EXPECT_DOUBLE_EQ(result.column(1).GetScalar(i).AsDouble(), expected[i]) << i;
  }
}

TEST(LeftJoinTest, CountStarCountsUnmatchedOnce) {
  Catalog catalog = MakeCatalog();
  // COUNT(*) counts unmatched left rows once (5 matched pairs from qty>3:
  // (0,5),(1,6),(2,7),(4,4) -> ids 0,1,2,4 matched; id 3 unmatched once).
  const Table result = RunAllEngines(
      "SELECT id, COUNT(*) AS n FROM items LEFT OUTER JOIN sales "
      "ON id = item_id AND qty > 3 GROUP BY id ORDER BY id",
      catalog);
  ASSERT_EQ(result.num_rows(), 5);
  const int64_t expected[] = {1, 1, 1, 1, 1};
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(result.column(1).GetScalar(i).AsInt64(), expected[i]) << i;
  }
}

TEST(LeftJoinTest, ProjectingNullableSideRejected) {
  Catalog catalog = MakeCatalog();
  VolcanoEngine volcano(&catalog);
  auto result = volcano.ExecuteSql(
      "SELECT id, qty FROM items LEFT OUTER JOIN sales ON id = item_id");
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

TEST(LeftJoinTest, SubqueryKeyOnNullableSideRejected) {
  // An unmatched row's nullable side holds zero sentinels, so a subquery key
  // there would match a zero inside the subquery (items has id 0).
  Catalog catalog = MakeCatalog();
  VolcanoEngine volcano(&catalog);
  QueryCompiler compiler;
  for (const std::string where :
       {"item_id IN (SELECT id FROM items)",
        "item_id NOT IN (SELECT id FROM items)",
        "EXISTS (SELECT * FROM items i2 WHERE i2.id = item_id)"}) {
    const std::string sql =
        "SELECT COUNT(*) AS n FROM items LEFT JOIN sales ON id = item_id "
        "AND qty > 5 WHERE " + where;
    EXPECT_EQ(volcano.ExecuteSql(sql).status().code(),
              StatusCode::kNotImplemented) << where;
    EXPECT_EQ(compiler.CompileSql(sql, catalog, CompileOptions{}).status().code(),
              StatusCode::kNotImplemented) << where;
  }
  // A key on the preserved side stays legal: items 1 and 2 have a sale with
  // qty > 5, and each has two sales.
  const Table kept = RunAllEngines(
      "SELECT COUNT(*) AS n FROM items LEFT JOIN sales ON id = item_id "
      "WHERE id IN (SELECT item_id FROM sales WHERE qty > 5)",
      catalog);
  ASSERT_EQ(kept.num_rows(), 1);
  EXPECT_EQ(kept.column(0).GetScalar(0).AsInt64(), 4);
}

TEST(LeftJoinTest, MustBeLastFromEntry) {
  Catalog catalog = MakeCatalog();
  VolcanoEngine volcano(&catalog);
  auto result = volcano.ExecuteSql(
      "SELECT id FROM items LEFT OUTER JOIN sales ON id = item_id, items i2");
  EXPECT_EQ(result.status().code(), StatusCode::kNotImplemented);
}

// ---- EXISTS with residual correlation ----------------------------------------

TEST(ExistsResidualTest, NonEqualityCorrelationBecomesResidual) {
  Catalog catalog = MakeCatalog();
  // EXISTS sales with item_id = id AND qty > price: prices are id*1.5;
  // ids 0,1,2 have a qualifying sale (5>0, 6>1.5, 7>3); ids 3,4 do not.
  const Table result = RunAllEngines(
      "SELECT id FROM items WHERE EXISTS "
      "(SELECT * FROM sales WHERE item_id = id AND qty > price) ORDER BY id",
      catalog);
  ASSERT_EQ(result.num_rows(), 3);
  EXPECT_EQ(result.column(0).GetScalar(2).AsInt64(), 2);
}

TEST(ExistsResidualTest, NotExistsComplement) {
  Catalog catalog = MakeCatalog();
  const Table result = RunAllEngines(
      "SELECT id FROM items WHERE NOT EXISTS "
      "(SELECT * FROM sales WHERE item_id = id AND qty > price) ORDER BY id",
      catalog);
  ASSERT_EQ(result.num_rows(), 2);
  EXPECT_EQ(result.column(0).GetScalar(0).AsInt64(), 3);
  EXPECT_EQ(result.column(0).GetScalar(1).AsInt64(), 4);
}

TEST(ExistsResidualTest, Q21ShapeBothPolarities) {
  Catalog catalog = MakeCatalog();
  // Same subquery under EXISTS and NOT EXISTS in one statement (Q21 shape):
  // EXISTS(qty > price) AND NOT EXISTS(qty > price + 3).
  // qty > price+3: id0 qty5>3 yes -> excluded; id1 qty6>4.5 yes -> excluded;
  // id2 qty7>6 yes -> excluded. Result: empty.
  const Table result = RunAllEngines(
      "SELECT id FROM items WHERE EXISTS "
      "(SELECT * FROM sales WHERE item_id = id AND qty > price) "
      "AND NOT EXISTS "
      "(SELECT * FROM sales s2 WHERE s2.item_id = id AND s2.qty > price + 3)",
      catalog);
  EXPECT_EQ(result.num_rows(), 0);
}

// ---- Grouped COUNT ------------------------------------------------------------

TEST(GroupCountTest, CountsShareOneReductionOverSegmentIds) {
  Catalog catalog = MakeCatalog();
  // COUNT(*), COUNT(price) and AVG's count all read only the group ids: one
  // count reduction serves them. AVG's SUM reduces price unpermuted, in row
  // order, so no aggregate argument is gathered.
  const std::string sql =
      "SELECT tag, COUNT(*) AS n, COUNT(price) AS c, AVG(price) AS a "
      "FROM items GROUP BY tag ORDER BY tag";
  CompiledQuery compiled =
      QueryCompiler().CompileSql(sql, catalog, CompileOptions{}).ValueOrDie();
  const TensorProgram& program = compiled.program();
  int counts = 0;
  int arg_gathers = 0;
  int sum_arg = -1;
  for (const OpNode& node : program.nodes()) {
    if (node.type == OpType::kSegmentedReduce &&
        node.attrs.GetInt("op") == static_cast<int64_t>(ReduceOpKind::kCount)) {
      ++counts;
    }
    if (node.type == OpType::kSegmentedReduce &&
        node.attrs.GetInt("op") == static_cast<int64_t>(ReduceOpKind::kSum)) {
      sum_arg = node.inputs[0];
    }
    if (node.label == "group-by: agg input") ++arg_gathers;
  }
  EXPECT_EQ(counts, 1);
  EXPECT_EQ(arg_gathers, 0);
  ASSERT_GE(sum_arg, 0);
  for (const OpNode& node : program.nodes()) {
    if (node.type != OpType::kGather) continue;
    EXPECT_EQ(std::count(node.inputs.begin(), node.inputs.end(), sum_arg), 0)
        << "gather n" << node.id << " reads the SUM argument n" << sum_arg;
  }
  const Table result = RunAllEngines(sql, catalog);
  ASSERT_EQ(result.num_rows(), 2);  // even: ids 0 2 4, odd: ids 1 3
  EXPECT_EQ(result.column(1).GetScalar(0).AsInt64(), 3);
  EXPECT_EQ(result.column(2).GetScalar(0).AsInt64(), 3);
  EXPECT_DOUBLE_EQ(result.column(3).GetScalar(0).AsDouble(), 3.0);
  EXPECT_EQ(result.column(1).GetScalar(1).AsInt64(), 2);
  EXPECT_DOUBLE_EQ(result.column(3).GetScalar(1).AsDouble(), 3.0);
}

// ---- Cross join ---------------------------------------------------------------

TEST(CrossJoinTest, CartesianProductAllEngines) {
  Catalog catalog = MakeCatalog();
  const Table result = RunAllEngines(
      "SELECT id, qty FROM items, sales WHERE qty = 7 ORDER BY id", catalog);
  ASSERT_EQ(result.num_rows(), 5);  // 5 items x 1 qualifying sale
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(result.column(0).GetScalar(i).AsInt64(), i);
    EXPECT_EQ(result.column(1).GetScalar(i).AsInt64(), 7);
  }
}

TEST(CrossJoinTest, FullProductCount) {
  Catalog catalog = MakeCatalog();
  const Table result = RunAllEngines(
      "SELECT COUNT(*) AS n FROM items, sales", catalog);
  ASSERT_EQ(result.num_rows(), 1);
  EXPECT_EQ(result.column(0).GetScalar(0).AsInt64(), 40);  // 5 x 8
}

}  // namespace
}  // namespace tqp
