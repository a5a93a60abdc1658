// Randomized differential testing: generate random tables and random queries
// (filters, projections, joins, aggregations, sorts) and require that the
// tensor engine (all executor targets), the columnar engine and the Volcano
// oracle produce identical results.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "baseline/columnar.h"
#include "baseline/volcano.h"
#include "common/random.h"
#include "compile/compiler.h"
#include "relational/table_builder.h"
#include "tpch/dbgen.h"

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
    ColumnarEngine columnar(&catalog);
    auto table = columnar.ExecuteSql(sql);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const Status same = TablesEqualUnordered(table.ValueOrDie(), oracle);
    ASSERT_TRUE(same.ok()) << "columnar: " << same.ToString();
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
    ColumnarEngine columnar(&catalog);
    auto table = columnar.ExecuteSql(sql);
    ASSERT_TRUE(table.ok()) << table.status().ToString();
    const Status same = TablesEqualUnordered(table.ValueOrDie(), oracle);
    ASSERT_TRUE(same.ok()) << "columnar: " << same.ToString();
    ++executed;
  }
  EXPECT_EQ(executed, 36);
}

// ---- NoREC (Rigger & Su, ESEC/FSE 2020) ------------------------------------
// SELECT COUNT(*) ... WHERE p goes through every WHERE rewrite of the binder:
// join-key extraction, scan filters, and the factoring and per-relation
// derivation of OR conjuncts. SELECT SUM(CASE WHEN p THEN 1 ELSE 0 END) ...
// evaluates p once per joined row, where none of them apply. A rewrite that
// drops or invents rows makes the two disagree, on Volcano as much as on the
// tensor engine, since both bind through the same planner.

class NoRecTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions gen;
    gen.scale_factor = 0.002;
    TQP_CHECK_OK(tpch::GenerateAll(gen, catalog_));
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }

  // The single integer `sql` returns, on Volcano and on kPipelined.
  static std::vector<int64_t> Counts(const std::string& sql) {
    std::vector<int64_t> out;
    VolcanoEngine volcano(catalog_);
    auto oracle = volcano.ExecuteSql(sql);
    EXPECT_TRUE(oracle.ok()) << sql << ": " << oracle.status().ToString();
    if (oracle.ok()) out.push_back(oracle->column(0).GetScalar(0).AsInt64());
    QueryCompiler compiler;
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    options.num_threads = 2;
    auto compiled = compiler.CompileSql(sql, *catalog_, options);
    EXPECT_TRUE(compiled.ok()) << sql << ": " << compiled.status().ToString();
    if (!compiled.ok()) return out;
    auto table = compiled->Run(*catalog_);
    EXPECT_TRUE(table.ok()) << sql << ": " << table.status().ToString();
    if (table.ok()) out.push_back(table->column(0).GetScalar(0).AsInt64());
    return out;
  }

  // Checks SELECT COUNT(*) FROM `from` WHERE `where` against SELECT
  // SUM(CASE WHEN `case_pred` THEN 1 ELSE 0 END) FROM `from` WHERE `keys`,
  // whose row sets must be the same. Returns the count.
  static int64_t ExpectNoRec(const std::string& from, const std::string& where,
                             const std::string& keys,
                             const std::string& case_pred) {
    const std::string where_sql =
        "SELECT COUNT(*) AS n FROM " + from + " WHERE " + where;
    const std::string case_sql = "SELECT SUM(CASE WHEN " + case_pred +
                                 " THEN 1 ELSE 0 END) AS n FROM " + from +
                                 " WHERE " + keys;
    const std::vector<int64_t> counts = Counts(where_sql);
    const std::vector<int64_t> sums = Counts(case_sql);
    EXPECT_EQ(counts.size(), 2u) << where_sql;
    EXPECT_EQ(sums.size(), 2u) << case_sql;
    if (counts.size() != 2 || sums.size() != 2) return -1;
    EXPECT_EQ(counts[0], sums[0]) << "Volcano\n" << where_sql << "\n" << case_sql;
    EXPECT_EQ(counts[1], sums[0]) << "pipelined\n" << where_sql;
    EXPECT_EQ(sums[1], sums[0]) << "pipelined\n" << case_sql;
    return sums[0];
  }

  // ExpectNoRec with `pred` conjoined to the join `keys` in WHERE.
  static int64_t ExpectNoRecOnJoin(const std::string& from,
                                   const std::string& keys,
                                   const std::string& pred) {
    return ExpectNoRec(from, keys + " AND (" + pred + ")", keys, pred);
  }

  static Catalog* catalog_;
};

Catalog* NoRecTest::catalog_ = nullptr;

TEST_F(NoRecTest, Q19AndQ7Predicates) {
  const std::string q19 =
      "(p_brand = 'Brand#12'"
      " AND p_container IN ('SM CASE', 'SM BOX', 'SM PACK', 'SM PKG')"
      " AND l_quantity >= 1 AND l_quantity <= 11 AND p_size BETWEEN 1 AND 5"
      " AND l_shipmode IN ('AIR', 'REG AIR')"
      " AND l_shipinstruct = 'DELIVER IN PERSON')"
      " OR (p_brand = 'Brand#23'"
      " AND p_container IN ('MED BAG', 'MED BOX', 'MED PKG', 'MED PACK')"
      " AND l_quantity >= 10 AND l_quantity <= 20 AND p_size BETWEEN 1 AND 10"
      " AND l_shipmode IN ('AIR', 'REG AIR')"
      " AND l_shipinstruct = 'DELIVER IN PERSON')"
      " OR (p_brand = 'Brand#34'"
      " AND p_container IN ('LG CASE', 'LG BOX', 'LG PACK', 'LG PKG')"
      " AND l_quantity >= 20 AND l_quantity <= 30 AND p_size BETWEEN 1 AND 15"
      " AND l_shipmode IN ('AIR', 'REG AIR')"
      " AND l_shipinstruct = 'DELIVER IN PERSON')";
  ExpectNoRecOnJoin("lineitem, part", "p_partkey = l_partkey", q19);
  const std::string q7 =
      "(n1.n_name = 'FRANCE' AND n2.n_name = 'GERMANY')"
      " OR (n1.n_name = 'GERMANY' AND n2.n_name = 'FRANCE')";
  const std::string q7_from =
      "supplier, lineitem, orders, customer, nation n1, nation n2";
  const std::string q7_keys =
      "s_suppkey = l_suppkey AND o_orderkey = l_orderkey AND "
      "c_custkey = o_custkey AND s_nationkey = n1.n_nationkey AND "
      "c_nationkey = n2.n_nationkey";
  ExpectNoRecOnJoin(q7_from, q7_keys, q7);
  // The same pairs over more common nations, so the count is not zero.
  const std::string wide =
      "(n1.n_nationkey < 12 AND n2.n_nationkey >= 12)"
      " OR (n1.n_nationkey >= 12 AND n2.n_nationkey < 12)";
  EXPECT_GT(ExpectNoRecOnJoin(q7_from, q7_keys, wide), 0);
}

// Random OR-of-AND predicates over one join. Atoms read the left relation,
// the right one, or both; a shared atom in every disjunct exercises
// factoring, and the join key inside every disjunct exercises factoring a
// key out of an OR.
struct NoRecJoin {
  std::string from;
  std::string key;
  std::vector<std::string> left_atoms;
  std::vector<std::string> right_atoms;
  std::vector<std::string> mixed_atoms;
};

std::string RandomAtom(Rng* rng, const NoRecJoin& join) {
  const int which = static_cast<int>(rng->Uniform(0, 9));
  const std::vector<std::string>& pool = which < 4   ? join.left_atoms
                                         : which < 8 ? join.right_atoms
                                                     : join.mixed_atoms;
  return pool[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
}

TEST_F(NoRecTest, RandomDisjunctionsOverJoins) {
  const std::vector<NoRecJoin> joins = {
      {"lineitem, part",
       "p_partkey = l_partkey",
       {"l_quantity < 10", "l_quantity >= 25", "l_shipmode = 'AIR'",
        "l_shipmode IN ('MAIL', 'SHIP')",
        "l_shipinstruct = 'DELIVER IN PERSON'", "l_discount > 0.05",
        "l_shipdate < DATE '1995-01-01'"},
       {"p_brand = 'Brand#12'", "p_size BETWEEN 1 AND 10",
        "p_container LIKE 'SM%'", "p_retailprice > 1500",
        "p_brand IN ('Brand#23', 'Brand#34')"},
       {"l_quantity > p_size", "l_extendedprice > p_retailprice * 20"}},
      {"orders, customer",
       "o_custkey = c_custkey",
       {"o_orderpriority = '1-URGENT'", "o_totalprice > 150000",
        "o_orderdate < DATE '1994-01-01'", "o_orderstatus = 'F'"},
       {"c_mktsegment = 'BUILDING'", "c_acctbal > 5000", "c_nationkey < 8",
        "c_mktsegment IN ('MACHINERY', 'HOUSEHOLD')"},
       {"o_totalprice > c_acctbal * 30", "o_custkey + c_nationkey > 400"}}};
  Rng rng(20261018);
  for (int trial = 0; trial < 24; ++trial) {
    const NoRecJoin& join = joins[static_cast<size_t>(trial % 2)];
    const std::string shared = rng.Bernoulli(0.5) ? RandomAtom(&rng, join) : "";
    const bool key_inside = rng.Bernoulli(0.3);
    std::string where_pred;
    std::string case_pred;
    const int disjuncts = static_cast<int>(rng.Uniform(2, 3));
    for (int d = 0; d < disjuncts; ++d) {
      std::string conj = RandomAtom(&rng, join);
      const int atoms = static_cast<int>(rng.Uniform(1, 3));
      for (int a = 1; a < atoms; ++a) conj += " AND " + RandomAtom(&rng, join);
      if (!shared.empty()) conj += " AND " + shared;
      const std::string sep = d == 0 ? "" : " OR ";
      case_pred += sep + "(" + conj + ")";
      where_pred += sep + "(" + conj + (key_inside ? " AND " + join.key : "") + ")";
    }
    SCOPED_TRACE("trial " + std::to_string(trial) + ": " + where_pred);
    if (key_inside) {
      // No key outside the OR: the FROM list is a cross product unless
      // factoring pulls the key out.
      ExpectNoRec(join.from, where_pred, join.key, case_pred);
    } else {
      ExpectNoRecOnJoin(join.from, join.key, case_pred);
    }
  }
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

// ---- Float keys: GROUP BY groups byte-equal values, joins compare as `=` ----

// A table of an INT64 row number `id` and one column of `values`.
Table KeyTable(const std::string& name, LogicalType type,
               const std::vector<double>& values) {
  TableBuilder b(Schema({Field{"id", LogicalType::kInt64}, Field{name, type}}));
  for (size_t i = 0; i < values.size(); ++i) {
    b.AppendInt(0, static_cast<int64_t>(i));
    if (type == LogicalType::kFloat64) {
      b.AppendDouble(1, values[i]);
    } else {
      b.AppendInt(1, static_cast<int64_t>(values[i]));
    }
  }
  return b.Finish().ValueOrDie();
}

// Rows as sorted strings with floats by their bits, so -0.0 and +0.0 differ
// (TablesEqualUnordered prints both as 0).
std::vector<std::string> ExactRows(const Table& t) {
  std::vector<std::string> rows;
  for (int64_t r = 0; r < t.num_rows(); ++r) {
    std::string row;
    for (int c = 0; c < t.num_columns(); ++c) {
      const Column& col = t.column(c);
      row += col.type() == LogicalType::kFloat64
                 ? std::to_string(std::bit_cast<uint64_t>(col.tensor().at<double>(r)))
                 : col.ValueToString(r);
      row += '|';
    }
    rows.push_back(std::move(row));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

// Runs `sql` on Volcano, on every tensor target at 1 and 4 threads with
// partitioned breakers on, and on the columnar engine, and expects every
// engine to return Volcano's rows, float bits included. Returns the number
// of rows Volcano returned.
int64_t ExpectExactAgreement(const Catalog& catalog, const std::string& sql) {
  SCOPED_TRACE(sql);
  auto oracle = VolcanoEngine(&catalog).ExecuteSql(sql);
  EXPECT_TRUE(oracle.ok()) << oracle.status().ToString();
  if (!oracle.ok()) return -1;
  const std::vector<std::string> expected = ExactRows(oracle.ValueOrDie());
  QueryCompiler compiler;
  for (ExecutorTarget target :
       {ExecutorTarget::kEager, ExecutorTarget::kStatic, ExecutorTarget::kInterp,
        ExecutorTarget::kPipelined}) {
    for (int threads : {1, 4}) {
      CompileOptions options;
      options.target = target;
      options.num_threads = threads;
      options.partitioned_breakers = true;
      auto table = compiler.CompileSql(sql, catalog, options).ValueOrDie().Run(catalog);
      EXPECT_TRUE(table.ok()) << table.status().ToString();
      if (!table.ok()) continue;
      EXPECT_EQ(ExactRows(table.ValueOrDie()), expected)
          << ExecutorTargetName(target) << " at " << threads << " threads";
    }
  }
  auto columnar = ColumnarEngine(&catalog).ExecuteSql(sql);
  EXPECT_TRUE(columnar.ok()) << columnar.status().ToString();
  if (columnar.ok()) {
    EXPECT_EQ(ExactRows(columnar.ValueOrDie()), expected) << "columnar";
  }
  return static_cast<int64_t>(expected.size());
}

TEST(FloatKeyTest, GroupByKeepsByteEqualZerosTogether) {
  // -0.0 ties +0.0 in the sort, but a group is a set of byte-equal keys:
  // {0.0, -0.0, 1.0, 0.0} has three groups (0.0 twice).
  Catalog catalog;
  catalog.RegisterTable("t", KeyTable("x", LogicalType::kFloat64,
                                      {0.0, -0.0, 1.0, 0.0}));
  EXPECT_EQ(ExpectExactAgreement(catalog,
                                 "SELECT x, COUNT(*) AS n FROM t GROUP BY x"),
            3);
  const Table distinct = VolcanoEngine(&catalog)
                             .ExecuteSql("SELECT COUNT(DISTINCT x) AS d FROM t")
                             .ValueOrDie();
  EXPECT_EQ(distinct.column(0).GetScalar(0).AsInt64(), 3);
  ExpectExactAgreement(catalog, "SELECT COUNT(DISTINCT x) AS d FROM t");

  // Past the radix and parallel thresholds, with interleaved zeros under a
  // second key on either side of the composed sort.
  Rng rng(28);
  std::vector<double> xs;
  for (int i = 0; i < 20000; ++i) {
    static const double kValues[] = {0.0, -0.0, 1.0, -2.5, 0.0};
    xs.push_back(kValues[rng.Uniform(0, 4)]);
  }
  catalog.RegisterTable("big", KeyTable("x", LogicalType::kFloat64, xs));
  for (const std::string sql :
       {"SELECT x, COUNT(*) AS n FROM big GROUP BY x",
        "SELECT id % 3 AS g, x, COUNT(*) AS n FROM big GROUP BY id % 3, x",
        "SELECT x, id % 3 AS g, COUNT(*) AS n FROM big GROUP BY x, id % 3",
        "SELECT COUNT(DISTINCT x) AS d FROM big"}) {
    ExpectExactAgreement(catalog, sql);
  }
}

TEST(FloatKeyTest, JoinKeysCompareAsEquals) {
  Catalog catalog;
  catalog.RegisterTable("t", KeyTable("a", LogicalType::kInt64, {1, 2, 3}));
  catalog.RegisterTable("u", KeyTable("b", LogicalType::kFloat64, {1.0, 2.5, 3.0}));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  catalog.RegisterTable("p", KeyTable("x", LogicalType::kFloat64,
                                      {0.0, -0.0, nan, 1.0, 2.0}));
  catalog.RegisterTable("q", KeyTable("y", LogicalType::kFloat64,
                                      {-0.0, nan, 1.0, 0.0, nan}));
  // An INT64 key promotes to DOUBLE: 1 = 1.0 and 3 = 3.0.
  EXPECT_EQ(ExpectExactAgreement(catalog, "SELECT a, b FROM t, u WHERE a = b"), 2);
  EXPECT_EQ(ExpectExactAgreement(
                catalog, "SELECT a FROM t WHERE a IN (SELECT b FROM u)"),
            2);
  EXPECT_EQ(ExpectExactAgreement(
                catalog, "SELECT a FROM t WHERE a NOT IN (SELECT b FROM u)"),
            1);
  ExpectExactAgreement(
      catalog, "SELECT SUM(CASE WHEN a = b THEN 1 ELSE 0 END) AS n FROM t, u");
  EXPECT_EQ(VolcanoEngine(&catalog)
                .ExecuteSql("SELECT SUM(CASE WHEN a = b THEN 1 ELSE 0 END) AS n "
                            "FROM t, u")
                .ValueOrDie()
                .column(0)
                .GetScalar(0)
                .AsInt64(),
            2);
  ExpectExactAgreement(catalog,
                       "SELECT t.id, COUNT(b) AS n FROM t LEFT OUTER JOIN u "
                       "ON a = b GROUP BY t.id");
  // Each zero matches both zeros; NaN matches nothing, not even NaN.
  EXPECT_EQ(ExpectExactAgreement(catalog, "SELECT x, y FROM p, q WHERE x = y"), 5);
  EXPECT_EQ(ExpectExactAgreement(
                catalog, "SELECT x FROM p WHERE x IN (SELECT y FROM q)"),
            3);
  EXPECT_EQ(ExpectExactAgreement(
                catalog, "SELECT x FROM p WHERE x NOT IN (SELECT y FROM q)"),
            2);
  ExpectExactAgreement(catalog,
                       "SELECT p.id, COUNT(y) AS n FROM p LEFT OUTER JOIN q "
                       "ON x = y GROUP BY p.id");
  // Multi-key joins hash their keys: each pair is promoted to one type and
  // -0.0 folds into +0.0 before hashing, as `=` compares them.
  TableBuilder pk(Schema({Field{"k", LogicalType::kInt64},
                          Field{"pv", LogicalType::kFloat64}}));
  for (const auto& [k, v] : {std::pair{1, 0.0}, std::pair{2, 2.0}}) {
    pk.AppendInt(0, k);
    pk.AppendDouble(1, v);
  }
  catalog.RegisterTable("pk", pk.Finish().ValueOrDie());
  TableBuilder qk(Schema({Field{"j", LogicalType::kInt64},
                          Field{"qv", LogicalType::kFloat64},
                          Field{"qi", LogicalType::kInt64}}));
  for (const auto& [j, v] : {std::pair{1, -0.0}, std::pair{2, 2.0}}) {
    qk.AppendInt(0, j);
    qk.AppendDouble(1, v);
    qk.AppendInt(2, 2);
  }
  catalog.RegisterTable("qk", qk.Finish().ValueOrDie());
  EXPECT_EQ(ExpectExactAgreement(
                catalog, "SELECT k, pv FROM pk, qk WHERE k = j AND pv = qv"),
            2);
  EXPECT_EQ(ExpectExactAgreement(
                catalog, "SELECT k, pv FROM pk, qk WHERE k = j AND pv = qi"),
            1);
}

TEST(StringKeyTest, KeysOfDifferentWidthsJoin) {
  // A string column is as wide as its longest value, so "ab" sits in a
  // 3-byte-wide column on one side and a 10-byte-wide one on the other.
  // Hashed joins must ignore the zero padding, as `=` does.
  Catalog catalog;
  TableBuilder a(Schema({Field{"k", LogicalType::kInt64},
                         Field{"s", LogicalType::kString}}));
  TableBuilder b(Schema({Field{"j", LogicalType::kInt64},
                         Field{"t", LogicalType::kString}}));
  for (const auto& [k, s] : {std::pair{1, "ab"}, std::pair{2, "abc"}}) {
    a.AppendInt(0, k);
    a.AppendString(1, s);
  }
  for (const auto& [j, t] : {std::pair{1, "ab"}, std::pair{2, "abcdefghij"}}) {
    b.AppendInt(0, j);
    b.AppendString(1, t);
  }
  catalog.RegisterTable("a", a.Finish().ValueOrDie());
  catalog.RegisterTable("b", b.Finish().ValueOrDie());
  EXPECT_EQ(ExpectExactAgreement(catalog, "SELECT k FROM a, b WHERE s = t"), 1);
  EXPECT_EQ(ExpectExactAgreement(catalog,
                                 "SELECT k FROM a, b WHERE k = j AND s = t"),
            1);
}

}  // namespace
}  // namespace tqp
