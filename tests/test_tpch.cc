// Integration tests: every supported TPC-H query runs through the full stack
// (SQL -> bind -> optimize -> tensor program -> executor) on every backend,
// and the result must match the row-oriented Volcano oracle and the columnar
// engine exactly (up to row order).

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "baseline/columnar.h"
#include "baseline/volcano.h"
#include "common/random.h"
#include "compile/compiler.h"
#include "plan/binder.h"
#include "plan/optimizer.h"
#include "plan/physical_planner.h"
#include "relational/table_builder.h"
#include "sql/parser.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"
#include "tpch/schema.h"

namespace tqp {
namespace {

class TpchFixture : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions options;
    options.scale_factor = 0.01;  // ~60k lineitems: fast but non-trivial
    TQP_CHECK_OK(tpch::GenerateAll(options, catalog_));
  }
  static Catalog* catalog_;
};

Catalog* TpchFixture::catalog_ = nullptr;

class TpchQueryTest : public TpchFixture,
                      public ::testing::WithParamInterface<int> {};

TEST_P(TpchQueryTest, AllBackendsMatchOracle) {
  const int q = GetParam();
  auto sql_or = tpch::QueryText(q);
  ASSERT_TRUE(sql_or.ok()) << sql_or.status().ToString();
  const std::string sql = sql_or.ValueOrDie();

  VolcanoEngine volcano(catalog_);
  auto oracle_or = volcano.ExecuteSql(sql);
  ASSERT_TRUE(oracle_or.ok()) << "volcano failed: " << oracle_or.status().ToString();
  Table oracle = std::move(oracle_or).ValueOrDie();
  // The TPC-H answer must be non-trivial at this scale for the test to mean
  // anything. Queries with very tight compound selectivity (part-size x
  // type x container x region picks ~1 part at this SF) may legitimately
  // come up empty; the differential check still exercises their plans.
  static const std::set<int> kMayBeEmpty = {2, 8, 17, 19, 20, 21};
  if (kMayBeEmpty.find(q) == kMayBeEmpty.end()) {
    EXPECT_GT(oracle.num_rows(), 0) << "Q" << q << " selected nothing";
  }

  QueryCompiler compiler;
  for (ExecutorTarget target : {ExecutorTarget::kEager, ExecutorTarget::kStatic,
                                ExecutorTarget::kInterp,
                                ExecutorTarget::kPipelined}) {
    for (DeviceKind device : {DeviceKind::kCpu, DeviceKind::kCudaSim}) {
      if (target == ExecutorTarget::kInterp && device == DeviceKind::kCudaSim) {
        continue;  // the browser backend has no GPU in the paper either
      }
      if (target == ExecutorTarget::kPipelined &&
          device == DeviceKind::kCudaSim) {
        continue;  // kPipelined runs on host cores only (MakeExecutor rejects it)
      }
      CompileOptions options;
      options.target = target;
      options.device = device;
      auto compiled_or = compiler.CompileSql(sql, *catalog_, options);
      ASSERT_TRUE(compiled_or.ok())
          << "Q" << q << " compile failed: " << compiled_or.status().ToString();
      auto result_or = compiled_or.ValueOrDie().Run(*catalog_);
      ASSERT_TRUE(result_or.ok())
          << "Q" << q << " " << ExecutorTargetName(target) << " failed: "
          << result_or.status().ToString();
      const Status same = TablesEqualUnordered(result_or.ValueOrDie(), oracle);
      EXPECT_TRUE(same.ok()) << "Q" << q << " on " << ExecutorTargetName(target)
                             << "/" << DeviceKindName(device) << ": "
                             << same.ToString();
    }
  }

  // Columnar baseline.
  ColumnarEngine columnar(catalog_);
  auto result_or = columnar.ExecuteSql(sql);
  ASSERT_TRUE(result_or.ok()) << "Q" << q << " columnar failed: "
                              << result_or.status().ToString();
  const Status same = TablesEqualUnordered(result_or.ValueOrDie(), oracle);
  EXPECT_TRUE(same.ok()) << "Q" << q << " columnar: " << same.ToString();
}

INSTANTIATE_TEST_SUITE_P(SupportedQueries, TpchQueryTest,
                         ::testing::ValuesIn(tpch::SupportedQueries()),
                         [](const auto& info) {
                           return "Q" + std::to_string(info.param);
                         });

TEST_F(TpchFixture, AllTwentyTwoQueriesHaveText) {
  // The paper claims TQP "is generic enough to support the TPC-H benchmark";
  // this reproduction carries all 22 queries.
  for (int q = 1; q <= 22; ++q) {
    auto text = tpch::QueryText(q);
    EXPECT_TRUE(text.ok()) << "Q" << q << ": " << text.status().ToString();
  }
  EXPECT_EQ(tpch::SupportedQueries().size(), 22u);
}

// ---- Program shape: lowering keeps only what the outputs read --------------

CompiledQuery CompileTpch(int q, const Catalog& catalog) {
  return QueryCompiler()
      .CompileSql(tpch::QueryText(q).ValueOrDie(), catalog)
      .ValueOrDie();
}

/// Op kinds of the nodes that read input `name` ("orders.o_comment").
std::multiset<OpType> ReadersOfInput(const TensorProgram& program,
                                     const std::string& name) {
  const auto& names = program.input_names();
  const auto it = std::find(names.begin(), names.end(), name);
  EXPECT_NE(it, names.end()) << name;
  if (it == names.end()) return {};
  const int id = program.input_nodes()[static_cast<size_t>(it - names.begin())];
  std::multiset<OpType> readers;
  for (const OpNode& node : program.nodes()) {
    if (std::count(node.inputs.begin(), node.inputs.end(), id) > 0) {
      readers.insert(node.type);
    }
  }
  return readers;
}

TEST_F(TpchFixture, Q6CompressesOnlyTheColumnsItsSumReads) {
  // Q6 filters on four lineitem columns and sums over two of them.
  const CompiledQuery q6 = CompileTpch(6, *catalog_);
  const auto& nodes = q6.program().nodes();
  EXPECT_EQ(std::count_if(nodes.begin(), nodes.end(),
                          [](const OpNode& n) {
                            return n.type == OpType::kCompress;
                          }),
            2)
      << q6.program().ToString();
}

TEST_F(TpchFixture, PredicateOnlyStringsFeedOnlyTheirLike) {
  // Q13's o_comment and Q9's p_name are read by a LIKE and by nothing above
  // it: no filter compresses them and no join gathers them.
  const std::multiset<OpType> like_only = {OpType::kStringLike};
  EXPECT_EQ(ReadersOfInput(CompileTpch(13, *catalog_).program(),
                           "orders.o_comment"),
            like_only);
  EXPECT_EQ(ReadersOfInput(CompileTpch(9, *catalog_).program(), "part.p_name"),
            like_only);
}

/// Scan columns in lowering order (left child first): each becomes one
/// program input, bound to its base-table column.
void CollectScanColumns(const PlanNode& node, std::vector<std::string>* names,
                        std::vector<CompiledQuery::InputBinding>* bindings) {
  if (node.kind == PlanKind::kScan) {
    for (int i = 0; i < node.output_schema.num_fields(); ++i) {
      names->push_back(node.table_name + "." + node.output_schema.field(i).name);
      bindings->push_back(
          {node.table_name, node.scan_columns.empty()
                                ? i
                                : node.scan_columns[static_cast<size_t>(i)]});
    }
  }
  for (const PlanPtr& child : node.children) {
    CollectScanColumns(*child, names, bindings);
  }
}

TEST_F(TpchFixture, EveryProgramNodeReachesAnOutputAndEveryScanColumnIsBound) {
  QueryCompiler compiler;
  for (int q = 1; q <= 22; ++q) {
    const std::string what = "Q" + std::to_string(q);
    const PlanPtr plan =
        PlanQuery(tpch::QueryText(q).ValueOrDie(), *catalog_).ValueOrDie();
    const CompiledQuery compiled = compiler.Compile(plan).ValueOrDie();
    const TensorProgram& program = compiled.program();
    std::vector<bool> live(static_cast<size_t>(program.num_nodes()), false);
    for (int out : program.outputs()) live[static_cast<size_t>(out)] = true;
    for (int id = program.num_nodes(); id-- > 0;) {
      const OpNode& node = program.node(id);
      if (node.type == OpType::kInput) continue;
      EXPECT_TRUE(live[static_cast<size_t>(id)])
          << what << ": node " << id << " " << OpTypeName(node.type)
          << " reaches no output";
      for (int in : node.inputs) live[static_cast<size_t>(in)] = true;
    }
    // Dead inputs stay: the catalog bindings are positional.
    std::vector<std::string> names;
    std::vector<CompiledQuery::InputBinding> bindings;
    CollectScanColumns(*plan, &names, &bindings);
    EXPECT_EQ(program.input_names(), names) << what;
    ASSERT_EQ(compiled.input_bindings().size(), bindings.size()) << what;
    for (size_t i = 0; i < bindings.size(); ++i) {
      EXPECT_EQ(compiled.input_bindings()[i].table, bindings[i].table) << what;
      EXPECT_EQ(compiled.input_bindings()[i].column, bindings[i].column)
          << what << " input " << names[i];
    }
  }
}

/// Program nodes of type `type` in the lowering of `plan`.
int64_t CountOps(const PlanPtr& plan, OpType type) {
  const CompiledQuery compiled = QueryCompiler().Compile(plan).ValueOrDie();
  const auto& nodes = compiled.program().nodes();
  return std::count_if(nodes.begin(), nodes.end(),
                       [type](const OpNode& n) { return n.type == type; });
}

void CollectUniqueBuildJoins(const PlanPtr& node, std::vector<PlanPtr>* out) {
  if (node->unique_build) out->push_back(node);
  for (const PlanPtr& c : node->children) CollectUniqueBuildJoins(c, out);
}

TEST_F(TpchFixture, UniqueBuildJoinsSkipTheMatchExpansion) {
  // Lowered alone, a marked join's subtree holds exactly its children's
  // repeat_interleave and cumsum nodes: every output column of both sides
  // stays live, so an expansion of its own would show. Cleared of its mark,
  // the same join adds them.
  int marked = 0;
  for (int q = 1; q <= 22; ++q) {
    const PlanPtr plan =
        PlanQuery(tpch::QueryText(q).ValueOrDie(), *catalog_).ValueOrDie();
    std::vector<PlanPtr> joins;
    CollectUniqueBuildJoins(plan, &joins);
    for (const PlanPtr& join : joins) {
      ++marked;
      for (OpType type : {OpType::kRepeatInterleave, OpType::kCumSum}) {
        EXPECT_EQ(CountOps(join, type),
                  CountOps(join->children[0], type) +
                      CountOps(join->children[1], type))
            << "Q" << q << " " << OpTypeName(type) << "\n" << join->ToString();
        auto expanded = std::make_shared<PlanNode>(*join);
        expanded->unique_build = false;
        EXPECT_GT(CountOps(expanded, type),
                  CountOps(join->children[0], type) +
                      CountOps(join->children[1], type))
            << "Q" << q << " " << OpTypeName(type);
      }
    }
  }
  EXPECT_GE(marked, 14);
}

TEST_F(TpchFixture, GeneratorRespectsRowCounts) {
  Table lineitem = catalog_->GetTable("lineitem").ValueOrDie();
  Table orders = catalog_->GetTable("orders").ValueOrDie();
  Table nation = catalog_->GetTable("nation").ValueOrDie();
  EXPECT_EQ(nation.num_rows(), 25);
  EXPECT_EQ(orders.num_rows(), tpch::BaseRowCount("orders", 0.01));
  // 1-7 lineitems per order.
  EXPECT_GE(lineitem.num_rows(), orders.num_rows());
  EXPECT_LE(lineitem.num_rows(), orders.num_rows() * 7);
}

// ---- Metamorphic join order ------------------------------------------------
//
// The binder joins a comma-joined FROM list in connected order starting from
// its first relation, so permuting the list changes the join tree. The result
// multiset must not change, and no permutation of a connected query may build
// a cross product. Volcano binds the same plan as the tensor engine, so it
// cannot catch a join-order bug; the unpermuted run is the oracle here.

// Binds, optimizes, compiles and runs an already-parsed statement; the
// physical plan's text goes to `plan_text`.
Result<Table> RunStatement(const sql::SelectStatement& stmt,
                           const Catalog& catalog, ExecutorTarget target,
                           std::string* plan_text) {
  Binder binder(&catalog);
  TQP_ASSIGN_OR_RETURN(PlanPtr logical, binder.Bind(stmt));
  TQP_ASSIGN_OR_RETURN(PlanPtr optimized, Optimize(logical));
  PlanPtr physical = ChoosePhysical(optimized, PhysicalOptions{}, &catalog);
  *plan_text = physical->ToString();
  CompileOptions options;
  options.target = target;
  TQP_ASSIGN_OR_RETURN(CompiledQuery compiled,
                       QueryCompiler().Compile(physical, options));
  return compiled.Run(catalog);
}

std::string FromList(const sql::SelectStatement& stmt) {
  std::string out;
  for (const sql::TableRef& ref : stmt.from) {
    out += (out.empty() ? "" : ", ") + ref.alias;
  }
  return out;
}

// Runs `sql` and `permutations` seeded shuffles of its FROM list on kEager
// and kPipelined (every ordering instead when there are at most
// `permutations` of them); every permuted run must equal the original run as
// a multiset and have a plan without a cross join.
void ExpectFromPermutationsAgree(const std::string& label, const std::string& sql,
                                 const Catalog& catalog, uint64_t seed,
                                 int permutations) {
  const size_t n = sql::ParseSelect(sql).ValueOrDie()->from.size();
  Rng rng(seed);
  std::vector<std::vector<size_t>> orders;
  size_t orderings = 1;
  for (size_t i = 2; i <= n; ++i) orderings *= i;
  if (orderings <= static_cast<size_t>(permutations)) {
    std::vector<size_t> order(n);
    for (size_t i = 0; i < n; ++i) order[i] = i;
    do {
      orders.push_back(order);
    } while (std::next_permutation(order.begin(), order.end()));
  } else {
    for (int p = 0; p < permutations; ++p) {
      std::vector<size_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      for (size_t i = n - 1; i > 0; --i) {  // Fisher-Yates
        std::swap(order[i], order[static_cast<size_t>(
                                rng.Uniform(0, static_cast<int64_t>(i)))]);
      }
      orders.push_back(std::move(order));
    }
  }
  for (ExecutorTarget target :
       {ExecutorTarget::kEager, ExecutorTarget::kPipelined}) {
    std::string plan;
    auto original_stmt = sql::ParseSelect(sql).ValueOrDie();
    auto original = RunStatement(*original_stmt, catalog, target, &plan);
    ASSERT_TRUE(original.ok()) << label << ": " << original.status().ToString();
    EXPECT_EQ(plan.find("Join cross"), std::string::npos) << label << "\n" << plan;
    for (const std::vector<size_t>& order : orders) {
      auto stmt = sql::ParseSelect(sql).ValueOrDie();
      std::vector<sql::TableRef> permuted;
      for (size_t i : order) permuted.push_back(std::move(stmt->from[i]));
      stmt->from = std::move(permuted);
      const std::string context = label + " on " +
                                  ExecutorTargetName(target) + " FROM " +
                                  FromList(*stmt);
      auto result = RunStatement(*stmt, catalog, target, &plan);
      ASSERT_TRUE(result.ok()) << context << ": " << result.status().ToString();
      EXPECT_EQ(plan.find("Join cross"), std::string::npos)
          << context << "\n" << plan;
      const Status same = TablesEqualUnordered(*result, *original);
      EXPECT_TRUE(same.ok()) << context << ": " << same.ToString();
    }
  }
}

TEST_F(TpchFixture, JoinOrderPermutationsPreserveResults) {
  for (int q : {2, 8, 9}) {
    ExpectFromPermutationsAgree("Q" + std::to_string(q),
                                tpch::QueryText(q).ValueOrDie(), *catalog_,
                                /*seed=*/static_cast<uint64_t>(q), 4);
  }
  // Membership semi/anti joins wrap the relation that owns their key, so
  // every ordering of Q16, Q18 and Q20 (at most 3! = 6) moves that relation
  // through every position of the chain; Q21's pair-expanding semi joins
  // stay on top. Q22 is left out: its uncorrelated scalar subquery is a
  // deliberate one-row cross join, which the no-cross-join check rejects.
  for (int q : {16, 18, 20, 21}) {
    ExpectFromPermutationsAgree("Q" + std::to_string(q),
                                tpch::QueryText(q).ValueOrDie(), *catalog_,
                                /*seed=*/static_cast<uint64_t>(q), 6);
  }
}

TEST(JoinOrderChainTest, PermutationsPreserveResults) {
  // A chain ta - tb - tc - td with fan-out at every step; the FROM list
  // starts with two relations that share no predicate.
  Catalog catalog;
  auto add = [&](const std::string& name, const std::string& c0,
                 const std::string& c1, int rows,
                 const std::function<int64_t(int)>& v0,
                 const std::function<int64_t(int)>& v1) {
    TableBuilder b(Schema({Field{c0, LogicalType::kInt64},
                           Field{c1, LogicalType::kInt64}}));
    for (int i = 0; i < rows; ++i) {
      b.AppendInt(0, v0(i));
      b.AppendInt(1, v1(i));
    }
    catalog.RegisterTable(name, b.Finish().ValueOrDie());
  };
  add("ta", "ta_key", "ta_val", 30, [](int i) { return i; },
      [](int i) { return i % 4; });
  add("tb", "tb_a", "tb_c", 60, [](int i) { return i % 30; },
      [](int i) { return i % 20; });
  add("tc", "tc_key", "tc_d", 20, [](int i) { return i; },
      [](int i) { return i % 10; });
  add("td", "td_key", "td_w", 25, [](int i) { return i % 10; },
      [](int i) { return i; });
  const std::string sql =
      "SELECT ta_val, COUNT(*) AS n, SUM(td_w) AS w FROM ta, tc, tb, td "
      "WHERE ta_key = tb_a AND tb_c = tc_key AND tc_d = td_key AND td_w > 3 "
      "GROUP BY ta_val";
  VolcanoEngine volcano(&catalog);
  Table oracle = volcano.ExecuteSql(sql).ValueOrDie();
  ASSERT_EQ(oracle.num_rows(), 4);
  std::string plan;
  auto stmt = sql::ParseSelect(sql).ValueOrDie();
  auto tensor = RunStatement(*stmt, catalog, ExecutorTarget::kEager, &plan);
  ASSERT_TRUE(tensor.ok()) << tensor.status().ToString();
  EXPECT_TRUE(TablesEqualUnordered(*tensor, oracle).ok());
  ExpectFromPermutationsAgree("chain", sql, catalog, /*seed=*/1, 8);
}

}  // namespace
}  // namespace tqp
