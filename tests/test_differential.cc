// Randomized differential testing: generate random tables and random queries
// (filters, projections, joins, aggregations, sorts) and require that the
// tensor engine (all executor targets), the columnar engine (both algorithm
// families) and the Volcano oracle produce identical results.

#include <gtest/gtest.h>

#include <sstream>

#include "baseline/columnar.h"
#include "baseline/volcano.h"
#include "common/random.h"
#include "compile/compiler.h"
#include "relational/table_builder.h"

namespace tqp {
namespace {

// Random table: k (int key), v (float), d (date), s (short string), b (bool).
Table RandomTable(Rng* rng, int64_t rows, int64_t key_domain) {
  Schema schema({Field{"k", LogicalType::kInt64},
                 Field{"v", LogicalType::kFloat64},
                 Field{"d", LogicalType::kDate},
                 Field{"s", LogicalType::kString}});
  TableBuilder b(schema);
  static const char* kTags[] = {"red", "green", "blue", "lime", "teal"};
  for (int64_t i = 0; i < rows; ++i) {
    b.AppendInt(0, rng->Uniform(0, key_domain - 1));
    b.AppendDouble(1, rng->UniformDouble(-100, 100));
    b.AppendInt(2, rng->Uniform(8766, 8766 + 365));
    b.AppendString(3, kTags[rng->Uniform(0, 4)]);
  }
  return b.Finish().ValueOrDie();
}

// Random boolean predicate over t1's columns (as SQL text).
std::string RandomPredicate(Rng* rng, const std::string& prefix) {
  std::ostringstream os;
  switch (rng->Uniform(0, 4)) {
    case 0:
      os << prefix << "k % " << rng->Uniform(2, 5) << " = 0";
      break;
    case 1:
      os << prefix << "v " << (rng->Bernoulli(0.5) ? ">" : "<=") << " "
         << rng->Uniform(-50, 50);
      break;
    case 2:
      os << prefix << "d BETWEEN DATE '1994-01-01' AND DATE '1994-0"
         << rng->Uniform(2, 9) << "-01'";
      break;
    case 3:
      os << prefix << "s IN ('red', 'blue')";
      break;
    default:
      os << "(" << prefix << "v > 0 OR " << prefix << "s = 'green')";
      break;
  }
  return os.str();
}

std::string RandomQuery(Rng* rng) {
  std::ostringstream os;
  const bool join = rng->Bernoulli(0.5);
  const bool agg = rng->Bernoulli(0.6);
  const std::string from = join ? "t1, t2" : "t1";
  std::string where = RandomPredicate(rng, "t1.");
  if (join) where = "t1.k = t2.k AND " + where;
  if (rng->Bernoulli(0.5)) where += " AND " + RandomPredicate(rng, "t1.");
  if (agg) {
    os << "SELECT t1.s, COUNT(*) AS n, SUM(t1.v) AS total";
    if (join) os << ", MIN(t2.v) AS lo, MAX(t2.v) AS hi";
    os << " FROM " << from << " WHERE " << where << " GROUP BY t1.s";
    if (rng->Bernoulli(0.4)) os << " HAVING COUNT(*) > 1";
    os << " ORDER BY s";
  } else {
    os << "SELECT t1.k, t1.v, CASE WHEN t1.v > 0 THEN 1 ELSE 0 END AS pos";
    if (join) os << ", t2.v AS v2";
    os << " FROM " << from << " WHERE " << where;
  }
  return os.str();
}

TEST(DifferentialTest, RandomQueriesAgreeAcrossAllEngines) {
  Rng rng(20220912);
  Catalog catalog;
  catalog.RegisterTable("t1", RandomTable(&rng, 400, 50));
  catalog.RegisterTable("t2", RandomTable(&rng, 300, 50));
  QueryCompiler compiler;
  int executed = 0;
  for (int trial = 0; trial < 40; ++trial) {
    const std::string sql = RandomQuery(&rng);
    SCOPED_TRACE("query: " + sql);
    VolcanoEngine volcano(&catalog);
    auto oracle_or = volcano.ExecuteSql(sql);
    ASSERT_TRUE(oracle_or.ok()) << oracle_or.status().ToString();
    const Table oracle = std::move(oracle_or).ValueOrDie();

    for (ExecutorTarget target :
         {ExecutorTarget::kEager, ExecutorTarget::kStatic, ExecutorTarget::kInterp,
          ExecutorTarget::kPipelined}) {
      CompileOptions options;
      options.target = target;
      auto result = compiler.CompileSql(sql, catalog, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      auto table = result.ValueOrDie().Run(catalog);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      const Status same = TablesEqualUnordered(table.ValueOrDie(), oracle);
      ASSERT_TRUE(same.ok()) << ExecutorTargetName(target) << ": "
                             << same.ToString();
    }
    for (JoinAlgo join_algo : {JoinAlgo::kHash, JoinAlgo::kSortMerge}) {
      PhysicalOptions phys;
      phys.join_algo = join_algo;
      phys.agg_algo = join_algo == JoinAlgo::kHash ? AggAlgo::kHash : AggAlgo::kSort;
      ColumnarEngine columnar(&catalog);
      auto table = columnar.ExecuteSql(sql, phys);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      const Status same = TablesEqualUnordered(table.ValueOrDie(), oracle);
      ASSERT_TRUE(same.ok()) << same.ToString();
    }
    ++executed;
  }
  EXPECT_EQ(executed, 40);
}

// Random queries over the subquery/outer-join features added for full TPC-H
// coverage: EXISTS/NOT EXISTS with residual correlation, scalar subqueries
// (uncorrelated + correlated), NOT IN, LEFT OUTER JOIN + COUNT, and
// COUNT(DISTINCT).
std::string RandomSubqueryQuery(Rng* rng) {
  std::ostringstream os;
  switch (rng->Uniform(0, 5)) {
    case 0: {  // EXISTS with non-equality residual correlation
      const bool anti = rng->Bernoulli(0.5);
      os << "SELECT t1.k, t1.v FROM t1 WHERE " << (anti ? "NOT " : "")
         << "EXISTS (SELECT * FROM t2 WHERE t2.k = t1.k AND t2.v > t1.v + "
         << rng->Uniform(-20, 20) << ")";
      break;
    }
    case 1:  // uncorrelated scalar subquery
      os << "SELECT t1.k FROM t1 WHERE t1.v > (SELECT AVG(v) FROM t2) + "
         << rng->Uniform(-30, 30) << " ORDER BY k";
      break;
    case 2:  // correlated scalar subquery (decorrelated to a group join)
      os << "SELECT t1.k, t1.v FROM t1 WHERE t1.v <= "
         << "(SELECT " << (rng->Bernoulli(0.5) ? "MAX" : "MIN")
         << "(t2.v) FROM t2 WHERE t2.k = t1.k)";
      break;
    case 3:  // NOT IN -> anti join
      os << "SELECT t1.k, t1.s FROM t1 WHERE t1.k NOT IN "
         << "(SELECT k FROM t2 WHERE v > " << rng->Uniform(0, 60) << ")";
      break;
    case 4:  // LEFT OUTER JOIN + COUNT over the nullable side
      os << "SELECT t1.k, COUNT(t2.v) AS matches, COUNT(*) AS total "
         << "FROM t1 LEFT OUTER JOIN t2 ON t1.k = t2.k AND t2.v > "
         << rng->Uniform(-20, 60) << " GROUP BY t1.k ORDER BY k";
      break;
    default:  // COUNT(DISTINCT)
      os << "SELECT s, COUNT(DISTINCT k % " << rng->Uniform(2, 6)
         << ") AS dc FROM t1 WHERE " << RandomPredicate(rng, "")
         << " GROUP BY s ORDER BY s";
      break;
  }
  return os.str();
}

TEST(DifferentialTest, SubqueryFeaturesAgreeAcrossAllEngines) {
  Rng rng(20260613);
  Catalog catalog;
  catalog.RegisterTable("t1", RandomTable(&rng, 300, 40));
  catalog.RegisterTable("t2", RandomTable(&rng, 250, 60));  // some keys unmatched
  QueryCompiler compiler;
  int executed = 0;
  for (int trial = 0; trial < 36; ++trial) {
    const std::string sql = RandomSubqueryQuery(&rng);
    SCOPED_TRACE("query: " + sql);
    VolcanoEngine volcano(&catalog);
    auto oracle_or = volcano.ExecuteSql(sql);
    ASSERT_TRUE(oracle_or.ok()) << oracle_or.status().ToString();
    const Table oracle = std::move(oracle_or).ValueOrDie();

    for (ExecutorTarget target :
         {ExecutorTarget::kEager, ExecutorTarget::kStatic, ExecutorTarget::kInterp,
          ExecutorTarget::kPipelined}) {
      CompileOptions options;
      options.target = target;
      auto result = compiler.CompileSql(sql, catalog, options);
      ASSERT_TRUE(result.ok()) << result.status().ToString();
      auto table = result.ValueOrDie().Run(catalog);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      const Status same = TablesEqualUnordered(table.ValueOrDie(), oracle);
      ASSERT_TRUE(same.ok()) << ExecutorTargetName(target) << ": "
                             << same.ToString();
    }
    for (JoinAlgo join_algo : {JoinAlgo::kHash, JoinAlgo::kSortMerge}) {
      PhysicalOptions phys;
      phys.join_algo = join_algo;
      phys.agg_algo = join_algo == JoinAlgo::kHash ? AggAlgo::kHash : AggAlgo::kSort;
      ColumnarEngine columnar(&catalog);
      auto table = columnar.ExecuteSql(sql, phys);
      ASSERT_TRUE(table.ok()) << table.status().ToString();
      const Status same = TablesEqualUnordered(table.ValueOrDie(), oracle);
      ASSERT_TRUE(same.ok()) << same.ToString();
    }
    ++executed;
  }
  EXPECT_EQ(executed, 36);
}

TEST(DifferentialTest, EmptyResultsAgree) {
  Rng rng(7);
  Catalog catalog;
  catalog.RegisterTable("t1", RandomTable(&rng, 50, 10));
  const std::string sql = "SELECT k, v FROM t1 WHERE v > 1e9";
  VolcanoEngine volcano(&catalog);
  Table oracle = volcano.ExecuteSql(sql).ValueOrDie();
  EXPECT_EQ(oracle.num_rows(), 0);
  QueryCompiler compiler;
  Table result =
      compiler.CompileSql(sql, catalog).ValueOrDie().Run(catalog).ValueOrDie();
  EXPECT_TRUE(TablesEqualUnordered(result, oracle).ok());
}

TEST(DifferentialTest, EmptyInputTableAgrees) {
  Catalog catalog;
  Schema schema({Field{"k", LogicalType::kInt64}, Field{"v", LogicalType::kFloat64}});
  TableBuilder b(schema);
  catalog.RegisterTable("empty", b.Finish().ValueOrDie());
  // Global aggregate over an empty table yields one row of zeros.
  const std::string sql = "SELECT COUNT(*) AS n, SUM(v) AS s FROM empty";
  VolcanoEngine volcano(&catalog);
  Table oracle = volcano.ExecuteSql(sql).ValueOrDie();
  QueryCompiler compiler;
  Table result =
      compiler.CompileSql(sql, catalog).ValueOrDie().Run(catalog).ValueOrDie();
  EXPECT_TRUE(TablesEqualUnordered(result, oracle).ok());
  EXPECT_EQ(result.column(0).tensor().at<int64_t>(0), 0);
  // Group-by over empty input yields no rows on both engines.
  catalog.RegisterTable("empty2", TableBuilder(schema).Finish().ValueOrDie());
  const std::string group_sql =
      "SELECT k, SUM(v) AS s FROM empty2 GROUP BY k";
  Table g1 = volcano.ExecuteSql(group_sql).ValueOrDie();
  Table g2 = compiler.CompileSql(group_sql, catalog)
                 .ValueOrDie()
                 .Run(catalog)
                 .ValueOrDie();
  EXPECT_EQ(g1.num_rows(), 0);
  EXPECT_TRUE(TablesEqualUnordered(g1, g2).ok());
}

}  // namespace
}  // namespace tqp
