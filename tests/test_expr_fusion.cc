// Tests for the single-pass fused expression execution layer: ExprProgram
// lowering (constant folding, common-subexpression elimination,
// selection-vector lowering, register reuse), the vectorized morsel
// interpreter's bit-identity with the elementwise kernels, the pipelined
// backend's fused-vs-unfused differential over TPC-H + ML at several thread
// counts and morsel sizes (including 1-row morsels), the StaticExecutor
// rebase onto the same fusion engine, a property test over random
// elementwise/selection chains, and the BufferPool allocation reduction the
// fusion is for.

#include <gtest/gtest.h>

#include <cstring>
#include <map>
#include <string>
#include <vector>

#include "common/random.h"
#include "compile/compiler.h"
#include "compile/expr_program.h"
#include "datasets/iris.h"
#include "graph/static_executor.h"
#include "kernels/expr_exec.h"
#include "kernels/kernels.h"
#include "ml/linear.h"
#include "ml/tree.h"
#include "runtime/morsel.h"
#include "runtime/pipelined_executor.h"
#include "tensor/buffer_pool.h"
#include "tpch/dbgen.h"
#include "tpch/queries.h"

namespace tqp {
namespace {

void ExpectTensorsIdentical(const Tensor& got, const Tensor& want,
                            const std::string& what) {
  ASSERT_EQ(got.dtype(), want.dtype()) << what;
  ASSERT_EQ(got.rows(), want.rows()) << what;
  ASSERT_EQ(got.cols(), want.cols()) << what;
  if (want.numel() > 0) {
    ASSERT_EQ(std::memcmp(got.raw_data(), want.raw_data(),
                          static_cast<size_t>(want.nbytes())),
              0)
        << what << ": payload differs";
  }
}

void ExpectTablesIdentical(const Table& got, const Table& want,
                           const std::string& what) {
  ASSERT_EQ(got.num_columns(), want.num_columns()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what;
  for (int c = 0; c < want.num_columns(); ++c) {
    ASSERT_EQ(got.schema().field(c).name, want.schema().field(c).name) << what;
    ExpectTensorsIdentical(got.column(c).tensor(), want.column(c).tensor(),
                           what + " column " + want.schema().field(c).name);
  }
}

AttrMap OpAttr(int64_t op) {
  AttrMap attrs;
  attrs.Set("op", op);
  return attrs;
}

ExprExternalFn MapExternal(std::map<int, ExprExternal> m) {
  return [m = std::move(m)](int id, ExprExternal* info) {
    auto it = m.find(id);
    if (it == m.end()) return false;
    *info = it->second;
    return true;
  };
}

ExprExternal VectorExternal(DType dtype) {
  ExprExternal ext;
  ext.dtype = dtype;
  ext.scalar = false;
  ext.single_col = true;
  ext.driver_aligned = true;
  return ext;
}

ExprExternal ConstExternal(const Tensor* value) {
  ExprExternal ext;
  ext.dtype = value->dtype();
  ext.scalar = true;
  ext.single_col = true;
  ext.driver_aligned = false;
  ext.constant = value;
  return ext;
}

int CountInstrs(const ExprProgram& ep, ExprOpCode code) {
  int n = 0;
  for (const ExprInstr& instr : ep.instrs()) {
    if (instr.code == code) ++n;
  }
  return n;
}

/// One execution configuration under test: node-at-a-time or the fused
/// vectorized interpreter. Both must be bit-identical.
struct ExecTier {
  bool fusion;
  const char* name;
};

constexpr ExecTier kExecTiers[] = {
    {false, "unfused"},
    {true, "fused"},
};

// ---- ExprProgram lowering units --------------------------------------------

TEST(ExprProgramTest, PromotionCastOfLiteralConstantFolds) {
  // mul(x: float64, c: int64 literal): the kernel would cast the literal to
  // float64 on every call (every morsel, streamed); lowering folds that cast
  // once at compile time, leaving a single binary instruction.
  TensorProgram program;
  const int x = program.AddInput("x");
  const int c = program.AddConstant(
      Tensor::FromVector<int64_t>({3}), "c");
  const int mul = program.AddNode(
      OpType::kBinary, {x, c}, OpAttr(static_cast<int64_t>(BinaryOpKind::kMul)));
  program.MarkOutput(mul);
  const Tensor c_value = program.constant(0);

  ExprFusionPlan plan = BuildExprFusionPlan(
      program, {mul}, {mul},
      MapExternal({{x, VectorExternal(DType::kFloat64)},
                   {c, ConstExternal(&c_value)}}));
  ASSERT_EQ(plan.runs.size(), 1u);
  const ExprProgram& ep = *plan.runs[0].program;
  EXPECT_EQ(ep.num_folded(), 1) << ep.ToString();  // the int64 -> f64 cast
  ASSERT_EQ(ep.instrs().size(), 1u) << ep.ToString();
  EXPECT_EQ(ep.instrs()[0].code, ExprOpCode::kBinary);
  EXPECT_EQ(ep.instrs()[0].dtype, DType::kFloat64);

  // Execute and compare to the kernel path.
  Tensor xs = Tensor::FromVector<double>({0.5, -1.25, 7.0});
  kernels::ExprScratch scratch;
  std::vector<Tensor> outs;
  TQP_CHECK_OK(kernels::RunExprProgram(ep, {xs}, 0, DeviceKind::kCpu, &scratch,
                                       &outs));
  ASSERT_EQ(outs.size(), 1u);
  Tensor want =
      kernels::BinaryOp(BinaryOpKind::kMul, xs, c_value).ValueOrDie();
  ExpectTensorsIdentical(outs[0], want, "folded-cast mul");
}

TEST(ExprProgramTest, AllConstantExpressionFoldsToAConstantOutput) {
  // add(2, 3) over 1x1 literals: no instructions survive; the run's output
  // is the folded constant itself (computed through the same kernels).
  TensorProgram program;
  const int a = program.AddConstant(Tensor::FromVector<double>({2.0}));
  const int b = program.AddConstant(Tensor::FromVector<double>({3.0}));
  const int add = program.AddNode(
      OpType::kBinary, {a, b}, OpAttr(static_cast<int64_t>(BinaryOpKind::kAdd)));
  program.MarkOutput(add);
  const Tensor av = program.constant(0);
  const Tensor bv = program.constant(1);

  ExprFusionPlan plan = BuildExprFusionPlan(
      program, {add}, {add},
      MapExternal({{a, ConstExternal(&av)}, {b, ConstExternal(&bv)}}));
  ASSERT_EQ(plan.runs.size(), 1u);
  const ExprProgram& ep = *plan.runs[0].program;
  EXPECT_TRUE(ep.instrs().empty()) << ep.ToString();
  EXPECT_GE(ep.num_folded(), 1);

  kernels::ExprScratch scratch;
  std::vector<Tensor> outs;
  TQP_CHECK_OK(
      kernels::RunExprProgram(ep, {}, 0, DeviceKind::kCpu, &scratch, &outs));
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs[0].ScalarAsDouble(0), 5.0);
}

TEST(ExprProgramTest, CommonSubexpressionsShareOneInstruction) {
  // Two structurally identical predicates dedup to one compare; the values
  // they feed read the shared register.
  TensorProgram program;
  const int x = program.AddInput("x");
  const int y = program.AddInput("y");
  const int lt1 = program.AddNode(
      OpType::kCompare, {x, y}, OpAttr(static_cast<int64_t>(CompareOpKind::kLt)));
  const int lt2 = program.AddNode(
      OpType::kCompare, {x, y}, OpAttr(static_cast<int64_t>(CompareOpKind::kLt)));
  const int both = program.AddNode(
      OpType::kLogical, {lt1, lt2},
      OpAttr(static_cast<int64_t>(LogicalOpKind::kAnd)));
  program.MarkOutput(both);

  ExprFusionPlan plan = BuildExprFusionPlan(
      program, {lt1, lt2, both}, {both},
      MapExternal({{x, VectorExternal(DType::kFloat64)},
                   {y, VectorExternal(DType::kFloat64)}}));
  ASSERT_EQ(plan.runs.size(), 1u);
  const ExprProgram& ep = *plan.runs[0].program;
  EXPECT_EQ(CountInstrs(ep, ExprOpCode::kCompare), 1) << ep.ToString();
  EXPECT_GE(ep.num_cse_hits(), 1);

  Tensor xs = Tensor::FromVector<double>({1.0, 5.0, 2.0});
  Tensor ys = Tensor::FromVector<double>({2.0, 1.0, 2.0});
  kernels::ExprScratch scratch;
  std::vector<Tensor> outs;
  TQP_CHECK_OK(kernels::RunExprProgram(ep, {xs, ys}, 0, DeviceKind::kCpu,
                                       &scratch, &outs));
  Tensor lt = kernels::Compare(CompareOpKind::kLt, xs, ys).ValueOrDie();
  Tensor want = kernels::Logical(LogicalOpKind::kAnd, lt, lt).ValueOrDie();
  ExpectTensorsIdentical(outs[0], want, "cse and");
}

TEST(ExprProgramTest, CompressesOverOneMaskShareOneSelectionVector) {
  TensorProgram program;
  const int x = program.AddInput("x");
  const int y = program.AddInput("y");
  const int mask = program.AddNode(
      OpType::kCompare, {x, y}, OpAttr(static_cast<int64_t>(CompareOpKind::kLt)));
  const int cx = program.AddNode(OpType::kCompress, {x, mask});
  const int cy = program.AddNode(OpType::kCompress, {y, mask});
  program.MarkOutput(cx);
  program.MarkOutput(cy);

  ExprFusionPlan plan = BuildExprFusionPlan(
      program, {mask, cx, cy}, {cx, cy},
      MapExternal({{x, VectorExternal(DType::kFloat64)},
                   {y, VectorExternal(DType::kFloat64)}}));
  ASSERT_EQ(plan.runs.size(), 1u);
  const ExprProgram& ep = *plan.runs[0].program;
  EXPECT_EQ(CountInstrs(ep, ExprOpCode::kSelVec), 1) << ep.ToString();
  EXPECT_EQ(CountInstrs(ep, ExprOpCode::kGatherSel), 2) << ep.ToString();

  Tensor xs = Tensor::FromVector<double>({1.0, 5.0, 2.0, -3.0});
  Tensor ys = Tensor::FromVector<double>({2.0, 1.0, 2.0, 0.0});
  kernels::ExprScratch scratch;
  std::vector<Tensor> outs;
  TQP_CHECK_OK(kernels::RunExprProgram(ep, {xs, ys}, 0, DeviceKind::kCpu,
                                       &scratch, &outs));
  Tensor m = kernels::Compare(CompareOpKind::kLt, xs, ys).ValueOrDie();
  ExpectTensorsIdentical(outs[0], kernels::Compress(xs, m).ValueOrDie(),
                         "compress x");
  ExpectTensorsIdentical(outs[1], kernels::Compress(ys, m).ValueOrDie(),
                         "compress y");
}

TEST(ExprProgramTest, NonzeroLowersToSelectionVectorPlusBaseOffset) {
  TensorProgram program;
  const int m = program.AddInput("mask");
  const int nz = program.AddNode(OpType::kNonzero, {m});
  program.MarkOutput(nz);

  ExprFusionPlan plan = BuildExprFusionPlan(
      program, {nz}, {nz}, MapExternal({{m, VectorExternal(DType::kBool)}}));
  ASSERT_EQ(plan.runs.size(), 1u);
  const ExprProgram& ep = *plan.runs[0].program;
  EXPECT_EQ(CountInstrs(ep, ExprOpCode::kIota), 1) << ep.ToString();

  Tensor mask = Tensor::Empty(DType::kBool, 5, 1).ValueOrDie();
  const bool lanes[5] = {true, false, true, true, false};
  for (int64_t i = 0; i < 5; ++i) mask.mutable_data<bool>()[i] = lanes[i];
  kernels::ExprScratch scratch;
  std::vector<Tensor> outs;
  TQP_CHECK_OK(kernels::RunExprProgram(ep, {mask}, /*base_offset=*/100,
                                       DeviceKind::kCpu, &scratch, &outs));
  Tensor local = kernels::Nonzero(mask).ValueOrDie();
  ASSERT_EQ(outs[0].rows(), local.rows());
  for (int64_t i = 0; i < local.rows(); ++i) {
    EXPECT_EQ(outs[0].at<int64_t>(i), local.at<int64_t>(i) + 100);
  }
}

TEST(ExprProgramTest, RegisterReuseKeepsSlotCountFlat) {
  // A 10-op linear chain needs 2 physical slots, not 10: each intermediate
  // dies at its only consumer.
  TensorProgram program;
  const int x = program.AddInput("x");
  const int y = program.AddInput("y");
  int t = program.AddNode(OpType::kBinary, {x, y},
                          OpAttr(static_cast<int64_t>(BinaryOpKind::kAdd)));
  for (int i = 0; i < 9; ++i) {
    t = program.AddNode(
        OpType::kBinary, {t, i % 2 == 0 ? x : y},
        OpAttr(static_cast<int64_t>(i % 2 == 0 ? BinaryOpKind::kMul
                                               : BinaryOpKind::kSub)));
  }
  program.MarkOutput(t);
  std::vector<int> candidates;
  for (const OpNode& node : program.nodes()) {
    if (node.type != OpType::kInput) candidates.push_back(node.id);
  }
  ExprFusionPlan plan = BuildExprFusionPlan(
      program, candidates, {t},
      MapExternal({{x, VectorExternal(DType::kFloat64)},
                   {y, VectorExternal(DType::kFloat64)}}));
  ASSERT_EQ(plan.runs.size(), 1u);
  const ExprProgram& ep = *plan.runs[0].program;
  EXPECT_EQ(static_cast<int>(ep.instrs().size()), 10) << ep.ToString();
  EXPECT_LE(ep.num_slots(), 2) << ep.ToString();
}

TEST(ExprProgramTest, RepeatedOperandAtLastUseFreesItsSlotOnce) {
  // (a+b)*(a+b) CSEs to mul(t, t): t dies there and its physical slot must
  // return to the free list exactly once. A double-free would hand one slot
  // to both of the later simultaneously-live temps u = a-b and v = a*b, so
  // w = u+v would silently read corrupted lanes.
  TensorProgram program;
  const int a = program.AddInput("a");
  const int b = program.AddInput("b");
  const auto binary = [&](BinaryOpKind op, int x, int y) {
    return program.AddNode(OpType::kBinary, {x, y},
                           OpAttr(static_cast<int64_t>(op)));
  };
  const int s1 = binary(BinaryOpKind::kAdd, a, b);
  const int s2 = binary(BinaryOpKind::kAdd, a, b);  // CSE: same register as s1
  const int m = binary(BinaryOpKind::kMul, s1, s2);
  const int u = binary(BinaryOpKind::kSub, a, b);
  const int v = binary(BinaryOpKind::kMul, a, b);
  const int w = binary(BinaryOpKind::kAdd, u, v);
  program.MarkOutput(m);
  program.MarkOutput(w);

  ExprFusionPlan plan = BuildExprFusionPlan(
      program, {s1, s2, m, u, v, w}, {m, w},
      MapExternal({{a, VectorExternal(DType::kFloat64)},
                   {b, VectorExternal(DType::kFloat64)}}));
  ASSERT_EQ(plan.runs.size(), 1u);
  const ExprProgram& ep = *plan.runs[0].program;
  // t reuses its slot for u; v needs a second slot (the double-free would
  // collapse this to 1).
  EXPECT_EQ(ep.num_slots(), 2) << ep.ToString();

  Tensor as = Tensor::FromVector<double>({1.0, -2.0, 3.5, 0.25});
  Tensor bs = Tensor::FromVector<double>({2.0, 4.0, -1.5, 8.0});
  kernels::ExprScratch scratch;
  std::vector<Tensor> outs;
  TQP_CHECK_OK(kernels::RunExprProgram(ep, {as, bs}, 0, DeviceKind::kCpu,
                                       &scratch, &outs));
  ASSERT_EQ(outs.size(), 2u);
  Tensor sum = kernels::BinaryOp(BinaryOpKind::kAdd, as, bs).ValueOrDie();
  Tensor want_m = kernels::BinaryOp(BinaryOpKind::kMul, sum, sum).ValueOrDie();
  Tensor diff = kernels::BinaryOp(BinaryOpKind::kSub, as, bs).ValueOrDie();
  Tensor prod = kernels::BinaryOp(BinaryOpKind::kMul, as, bs).ValueOrDie();
  Tensor want_w = kernels::BinaryOp(BinaryOpKind::kAdd, diff, prod).ValueOrDie();
  ExpectTensorsIdentical(outs[0], want_m, "(a+b)*(a+b)");
  ExpectTensorsIdentical(outs[1], want_w, "(a-b)+(a*b)");
}

TEST(ExprProgramTest, RejectedNodeLeavesNoSourceBindingsBehind) {
  // c2 = compress(z, mask2) is rejected (z is driver-domain, mask2 lives in
  // a selection domain), but only after its operands were interned. The
  // rejection must roll that back: the sealed run would otherwise bind the
  // unused source z on every morsel.
  TensorProgram program;
  const int a = program.AddInput("a");
  const int z = program.AddInput("z");
  const int k = program.AddConstant(Tensor::FromVector<double>({2.0}));
  const Tensor kv = program.constant(0);
  const int mask1 = program.AddNode(
      OpType::kCompare, {a, k}, OpAttr(static_cast<int64_t>(CompareOpKind::kLt)));
  const int c1 = program.AddNode(OpType::kCompress, {a, mask1});
  const int mask2 = program.AddNode(
      OpType::kCompare, {c1, k}, OpAttr(static_cast<int64_t>(CompareOpKind::kGt)));
  const int c2 = program.AddNode(OpType::kCompress, {z, mask2});
  program.MarkOutput(c2);

  ExprFusionPlan plan = BuildExprFusionPlan(
      program, {mask1, c1, mask2, c2}, {c1, mask2, c2},
      MapExternal({{a, VectorExternal(DType::kFloat64)},
                   {z, VectorExternal(DType::kFloat64)},
                   {k, ConstExternal(&kv)}}));
  ASSERT_EQ(plan.runs.size(), 1u);  // mask1/c1/mask2 fuse; c2 stays out
  const ExprProgram& ep = *plan.runs[0].program;
  EXPECT_EQ(ep.num_nodes(), 3) << ep.ToString();
  for (const int src : ep.source_nodes()) {
    EXPECT_NE(src, z) << "rejected node's operand binding survived:\n"
                      << ep.ToString();
  }
}

TEST(ExprProgramTest, CrossDomainCompressStaysUnfusedAndErrorsLikeEager) {
  // mask2 lives in the survivor domain of a first filter; compressing a
  // *driver-domain* column on it is a cardinality error. The Compress
  // kernel rejects it (mask rows != tensor rows); the fused path must not
  // turn it into a silent wrong-rows gather, so the lowering refuses the
  // node and both executors report the same failure.
  auto program = std::make_shared<TensorProgram>();
  const int a = program->AddInput("a");
  const int b = program->AddInput("b");
  const int k = program->AddConstant(Tensor::FromVector<double>({2.0}));
  const int mask1 = program->AddNode(
      OpType::kCompare, {a, k}, OpAttr(static_cast<int64_t>(CompareOpKind::kLt)));
  const int c1 = program->AddNode(OpType::kCompress, {b, mask1});
  const int mask2 = program->AddNode(
      OpType::kCompare, {c1, k}, OpAttr(static_cast<int64_t>(CompareOpKind::kGt)));
  const int c2 = program->AddNode(OpType::kCompress, {a, mask2});
  program->MarkOutput(c2);
  TQP_CHECK_OK(program->Validate());

  Tensor as = Tensor::FromVector<double>({1.0, 5.0, 1.5, 9.0, 0.5});
  Tensor bs = Tensor::FromVector<double>({3.0, 1.0, 4.0, 1.0, 5.0});
  auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
  const Status eager_status = eager->Run({as, bs}).status();
  ASSERT_FALSE(eager_status.ok());
  for (const bool fusion : {true, false}) {
    ExecOptions options;
    options.num_threads = 1;
    options.expr_fusion = fusion;
    auto pipelined =
        MakeExecutor(ExecutorTarget::kPipelined, program, options).ValueOrDie();
    const Status status = pipelined->Run({as, bs}).status();
    EXPECT_FALSE(status.ok()) << (fusion ? "fused" : "unfused")
                              << " path must not silently gather wrong rows";
  }
}

// ---- Random elementwise/selection chains vs eager (property test) ----------

struct RandomValue {
  int node = -1;
  DType dtype = DType::kFloat64;
  int domain = 0;  // cardinality class: 0 = input rows; >0 = post-filter
};

TEST(ExprFusionPropertyTest, RandomChainsBitIdenticalToEager) {
  Rng rng(20260728);
  const int64_t rows = 257;  // odd: uneven morsels at every swept size
  for (int trial = 0; trial < 40; ++trial) {
    auto program = std::make_shared<TensorProgram>();
    std::vector<Tensor> inputs;
    std::vector<RandomValue> values;  // vector values by construction
    const DType input_dtypes[] = {DType::kInt32, DType::kInt64,
                                  DType::kFloat32, DType::kFloat64};
    for (int i = 0; i < 3; ++i) {
      const DType dt = input_dtypes[rng.Uniform(0, 3)];
      const int id = program->AddInput("in" + std::to_string(i));
      values.push_back({id, dt, 0});
      Tensor col = Tensor::Empty(dt, rows, 1).ValueOrDie();
      for (int64_t r = 0; r < rows; ++r) {
        const double v = rng.Uniform(-6, 6);  // small ints; zeros included
        switch (dt) {
          case DType::kInt32: col.mutable_data<int32_t>()[r] =
              static_cast<int32_t>(v); break;
          case DType::kInt64: col.mutable_data<int64_t>()[r] =
              static_cast<int64_t>(v); break;
          case DType::kFloat32: col.mutable_data<float>()[r] =
              static_cast<float>(v + rng.NextDouble()); break;
          default: col.mutable_data<double>()[r] = v + rng.NextDouble(); break;
        }
      }
      inputs.push_back(std::move(col));
    }
    auto constant = [&](double v, DType dt) {
      Tensor t = Tensor::Full(dt, 1, 1, v).ValueOrDie();
      return program->AddConstant(std::move(t), "c");
    };
    std::vector<RandomValue> bools;  // boolean vector values
    std::map<int, int> mask_domain;  // mask node -> survivor domain (shared)
    int next_domain = 1;
    auto pick_same_domain = [&](const RandomValue& a,
                                std::vector<RandomValue>* pool) -> int {
      std::vector<int> same;
      for (size_t i = 0; i < pool->size(); ++i) {
        if ((*pool)[i].domain == a.domain) same.push_back(static_cast<int>(i));
      }
      return same[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(same.size()) - 1))];
    };
    const int num_ops = static_cast<int>(rng.Uniform(6, 14));
    for (int op = 0; op < num_ops; ++op) {
      const RandomValue a =
          values[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(values.size()) - 1))];
      const int choice = static_cast<int>(rng.Uniform(0, 9));
      if (choice <= 3) {  // binary, sometimes against a literal
        const bool vs_const = rng.Bernoulli(0.4);
        const int b = vs_const
                          ? constant(rng.Uniform(-4, 4), input_dtypes[rng.Uniform(0, 3)])
                          : values[static_cast<size_t>(pick_same_domain(a, &values))].node;
        const auto kind = static_cast<BinaryOpKind>(rng.Uniform(0, 6));
        const int id = program->AddNode(OpType::kBinary, {a.node, b},
                                        OpAttr(static_cast<int64_t>(kind)));
        values.push_back({id, DType::kFloat64 /*unused*/, a.domain});
      } else if (choice <= 5) {  // compare -> bool
        const bool vs_const = rng.Bernoulli(0.4);
        const int b = vs_const
                          ? constant(rng.Uniform(-4, 4), input_dtypes[rng.Uniform(0, 3)])
                          : values[static_cast<size_t>(pick_same_domain(a, &values))].node;
        const auto kind = static_cast<CompareOpKind>(rng.Uniform(0, 5));
        const int id = program->AddNode(OpType::kCompare, {a.node, b},
                                        OpAttr(static_cast<int64_t>(kind)));
        bools.push_back({id, DType::kBool, a.domain});
        // Booleans sometimes feed arithmetic (SUM(CASE ...) patterns).
        if (rng.Bernoulli(0.25)) values.push_back({id, DType::kBool, a.domain});
      } else if (choice == 6) {  // unary
        const auto kind = static_cast<UnaryOpKind>(rng.Uniform(0, 7));
        const int id = program->AddNode(OpType::kUnary, {a.node},
                                        OpAttr(static_cast<int64_t>(kind)));
        values.push_back({id, DType::kFloat64, a.domain});
      } else if (choice == 7) {  // cast
        const int id = program->AddNode(
            OpType::kCast, {a.node}, [&] {
              AttrMap attrs;
              attrs.Set("dtype",
                        static_cast<int64_t>(input_dtypes[rng.Uniform(0, 3)]));
              return attrs;
            }());
        values.push_back({id, DType::kFloat64, a.domain});
      } else if (choice == 8 && !bools.empty()) {  // where over same domain
        std::vector<int> masks;
        for (size_t i = 0; i < bools.size(); ++i) {
          if (bools[i].domain == a.domain) masks.push_back(static_cast<int>(i));
        }
        if (masks.empty()) continue;
        const RandomValue m = bools[static_cast<size_t>(
            masks[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(masks.size()) - 1))])];
        const int b = values[static_cast<size_t>(pick_same_domain(a, &values))].node;
        const int id = program->AddNode(OpType::kWhere, {m.node, a.node, b});
        values.push_back({id, DType::kFloat64, a.domain});
      } else if (!bools.empty()) {  // compress into a fresh domain
        std::vector<int> masks;
        for (size_t i = 0; i < bools.size(); ++i) {
          if (bools[i].domain == a.domain) masks.push_back(static_cast<int>(i));
        }
        if (masks.empty()) continue;
        const RandomValue m = bools[static_cast<size_t>(
            masks[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(masks.size()) - 1))])];
        // Survivors of one mask share a cardinality class, so later ops can
        // combine two columns filtered on the same predicate.
        auto it = mask_domain.find(m.node);
        const int dom =
            it != mask_domain.end() ? it->second : (mask_domain[m.node] = next_domain++);
        const int id = program->AddNode(OpType::kCompress, {a.node, m.node});
        values.push_back({id, DType::kFloat64, dom});
        if (m.domain == 0 && rng.Bernoulli(0.5)) {
          const int nz = program->AddNode(OpType::kNonzero, {m.node});
          values.push_back({nz, DType::kInt64, dom});
        }
      }
    }
    // Outputs: the last few values (covers fused-run outputs and aliases).
    const size_t num_out = std::min<size_t>(values.size(), 3);
    for (size_t i = values.size() - num_out; i < values.size(); ++i) {
      program->MarkOutput(values[i].node);
    }
    if (!bools.empty()) program->MarkOutput(bools.back().node);
    TQP_CHECK_OK(program->Validate());

    auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
    const std::vector<Tensor> want = eager->Run(inputs).ValueOrDie();
    for (const int threads : {1, 2}) {
      for (const int64_t morsel : {int64_t{1}, int64_t{7}, int64_t{64}}) {
        for (const ExecTier& tier : kExecTiers) {
          ExecOptions options;
          options.num_threads = threads;
          options.morsel_rows = morsel;
          options.expr_fusion = tier.fusion;
          auto pipelined =
              MakeExecutor(ExecutorTarget::kPipelined, program, options)
                  .ValueOrDie();
          const std::vector<Tensor> got = pipelined->Run(inputs).ValueOrDie();
          ASSERT_EQ(got.size(), want.size());
          for (size_t o = 0; o < want.size(); ++o) {
            ExpectTensorsIdentical(
                got[o], want[o],
                "trial " + std::to_string(trial) + " output " +
                    std::to_string(o) + " threads " + std::to_string(threads) +
                    " morsel " + std::to_string(morsel) + " " + tier.name);
          }
        }
      }
    }
  }
}

// ---- TPC-H + ML differential: fused vs unfused vs eager --------------------

class ExprFusionTpchTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    catalog_ = new Catalog();
    tpch::DbgenOptions gen;
    gen.scale_factor = 0.01;
    TQP_CHECK_OK(tpch::GenerateAll(gen, catalog_));
  }
  static void TearDownTestSuite() {
    delete catalog_;
    catalog_ = nullptr;
  }
  static Catalog* catalog_;
};

Catalog* ExprFusionTpchTest::catalog_ = nullptr;

TEST_F(ExprFusionTpchTest, FusedAndUnfusedBitIdenticalToEagerOnTpch) {
  QueryCompiler compiler;
  for (int q : {1, 3, 4, 6, 10, 12, 14}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    CompileOptions eager_options;
    eager_options.target = ExecutorTarget::kEager;
    Table reference = compiler.CompileSql(sql, *catalog_, eager_options)
                          .ValueOrDie()
                          .Run(*catalog_)
                          .ValueOrDie();
    for (int threads : {1, 2, 8}) {
      for (const ExecTier& tier : kExecTiers) {
        CompileOptions options;
        options.target = ExecutorTarget::kPipelined;
        options.num_threads = threads;
        options.morsel_rows = 1000;
        options.expr_fusion = tier.fusion;
        Table result = compiler.CompileSql(sql, *catalog_, options)
                           .ValueOrDie()
                           .Run(*catalog_)
                           .ValueOrDie();
        std::string what = "Q";
        what += std::to_string(q);
        what += " at ";
        what += std::to_string(threads);
        what += " threads, ";
        what += tier.name;
        ExpectTablesIdentical(result, reference, what);
      }
    }
  }
}

TEST_F(ExprFusionTpchTest, StaticFusedGroupsBitIdenticalToEagerOnTpch) {
  // 1,024-row blocks put lineitem-sized groups (about 60,000 rows at SF 0.01)
  // on the blocked ExprProgram path; with fusion off, every group runs node
  // at a time. Both must match eager bit for bit.
  QueryCompiler compiler;
  CompileOptions eager_options;
  eager_options.target = ExecutorTarget::kEager;
  for (int q = 1; q <= 22; ++q) {
    const CompiledQuery compiled =
        compiler
            .CompileSql(tpch::QueryText(q).ValueOrDie(), *catalog_, eager_options)
            .ValueOrDie();
    const std::vector<Tensor> inputs =
        compiled.CollectInputs(*catalog_).ValueOrDie();
    const std::vector<Tensor> want =
        compiled.executor()->Run(inputs).ValueOrDie();
    for (bool fusion : {true, false}) {
      ExecOptions options;
      options.fusion_block_rows = 1024;
      options.expr_fusion = fusion;
      auto executor = MakeExecutor(ExecutorTarget::kStatic,
                                   compiled.shared_program(), options)
                          .ValueOrDie();
      const std::vector<Tensor> got = executor->Run(inputs).ValueOrDie();
      const std::string what = "Q" + std::to_string(q) +
                               (fusion ? " static fused" : " static unfused");
      ASSERT_EQ(got.size(), want.size()) << what;
      for (size_t i = 0; i < want.size(); ++i) {
        ExpectTensorsIdentical(got[i], want[i],
                               what + " output " + std::to_string(i));
      }
      const int fused = static_cast<StaticExecutor*>(executor.get())
                            ->num_expr_fused_groups();
      if (!fusion) {
        EXPECT_EQ(fused, 0) << what;
      } else if (q == 1 || q == 6 || q == 12 || q == 19) {
        EXPECT_GE(fused, 1) << what;
      }
    }
  }
}

TEST_F(ExprFusionTpchTest, FusedExactAcrossMorselSizes) {
  // Bit-identical to eager at every morsel size, including 1-row morsels
  // where every fused run sees a single lane.
  QueryCompiler compiler;
  for (int q : {1, 3, 6, 10, 12, 14}) {
    const std::string sql = tpch::QueryText(q).ValueOrDie();
    CompileOptions eager_options;
    eager_options.target = ExecutorTarget::kEager;
    Table reference = compiler.CompileSql(sql, *catalog_, eager_options)
                          .ValueOrDie()
                          .Run(*catalog_)
                          .ValueOrDie();
    for (int64_t morsel : {1, 7, 977, 1 << 20}) {
      // 7-row morsels run only Q1 and Q6, to bound the test's run time.
      if (morsel == 7 && q != 1 && q != 6) continue;
      CompileOptions options;
      options.target = ExecutorTarget::kPipelined;
      options.num_threads = 4;
      options.morsel_rows = morsel;
      options.expr_fusion = true;
      Table result = compiler.CompileSql(sql, *catalog_, options)
                         .ValueOrDie()
                         .Run(*catalog_)
                         .ValueOrDie();
      ExpectTablesIdentical(result, reference,
                            "Q" + std::to_string(q) + " morsel " +
                                std::to_string(morsel));
    }
  }
}

TEST_F(ExprFusionTpchTest, PipelinesActuallyFuseAndReportRuns) {
  QueryCompiler compiler;
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 1;
  CompiledQuery q = compiler
                        .CompileSql(tpch::QueryText(6).ValueOrDie(), *catalog_,
                                    options)
                        .ValueOrDie();
  TQP_CHECK_OK(q.Run(*catalog_).status());
  auto* pipelined = static_cast<PipelinedExecutor*>(q.executor());
  int fused_nodes = 0;
  for (size_t i = 0; i < pipelined->plan().pipelines.size(); ++i) {
    auto fusion = pipelined->pipeline_fusion(static_cast<int>(i));
    if (fusion != nullptr) fused_nodes += fusion->num_fused_nodes;
  }
  EXPECT_GT(fused_nodes, 5) << pipelined->FusionReport();
  const std::string report = pipelined->FusionReport();
  EXPECT_NE(report.find("fused run"), std::string::npos) << report;
  EXPECT_NE(report.find("selvec"), std::string::npos) << report;
}

TEST_F(ExprFusionTpchTest, InternedConstantsLetCseShareExtractWork) {
  // EXTRACT(YEAR ...) binds to a DAG that shares its subexpressions; the
  // compiler lowers it as a tree. With one constant node per value the
  // copies compile to equal operands, and the fused run deduplicates them.
  QueryCompiler compiler;
  for (int q : {7, 8, 9}) {
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    options.num_threads = 1;
    CompiledQuery cq = compiler
                           .CompileSql(tpch::QueryText(q).ValueOrDie(),
                                       *catalog_, options)
                           .ValueOrDie();
    const TensorProgram& program = cq.program();
    std::map<std::pair<DType, std::string>, int> constants;
    for (const OpNode& node : program.nodes()) {
      if (node.type != OpType::kConstant) continue;
      const Tensor& t = program.constant(
          static_cast<int>(node.attrs.GetInt("const_id")));
      const std::string bytes(static_cast<const char*>(t.raw_data()),
                              static_cast<size_t>(t.nbytes()));
      EXPECT_TRUE(constants.emplace(std::make_pair(t.dtype(), bytes), node.id)
                      .second)
          << "Q" << q << ": n" << node.id << " repeats n"
          << constants[{t.dtype(), bytes}];
    }
    TQP_CHECK_OK(cq.Run(*catalog_).status());
    auto* pipelined = static_cast<PipelinedExecutor*>(cq.executor());
    const ExprProgram* extract = nullptr;  // the largest fused run
    for (size_t i = 0; i < pipelined->plan().pipelines.size(); ++i) {
      auto fusion = pipelined->pipeline_fusion(static_cast<int>(i));
      if (fusion == nullptr) continue;
      for (const ExprFusionPlan::Run& run : fusion->runs) {
        if (extract == nullptr ||
            run.program->num_nodes() > extract->num_nodes()) {
          extract = run.program.get();
        }
      }
    }
    ASSERT_NE(extract, nullptr) << "Q" << q;
    EXPECT_GT(extract->num_nodes(), 300) << "Q" << q;
    EXPECT_GT(extract->num_cse_hits(), 0) << "Q" << q;
    EXPECT_LT(extract->instrs().size() * 4,
              static_cast<size_t>(extract->num_nodes()))
        << "Q" << q << "\n" << extract->ToString();
  }
}

TEST(ExprFusionMlTest, FusedBitIdenticalToInterpOnPredictionPipeline) {
  Catalog catalog;
  ml::ModelRegistry registry;
  Table iris = datasets::IrisTable().ValueOrDie();
  catalog.RegisterTable("iris", iris);
  Tensor features = Tensor::Empty(DType::kFloat64, iris.num_rows(), 3).ValueOrDie();
  Tensor target = Tensor::Empty(DType::kFloat64, iris.num_rows(), 1).ValueOrDie();
  for (int64_t i = 0; i < iris.num_rows(); ++i) {
    for (int f = 0; f < 3; ++f) {
      features.mutable_data<double>()[i * 3 + f] =
          iris.column(f).tensor().at<double>(i);
    }
    target.mutable_data<double>()[i] = iris.column(3).tensor().at<double>(i);
  }
  registry.Register(
      ml::LinearRegressionModel::Fit("petal_lr", features, target).ValueOrDie());
  ml::RandomForestModel::FitOptions forest_options;
  forest_options.num_trees = 5;
  registry.Register(
      ml::RandomForestModel::Fit("petal_rf", features, target, forest_options)
          .ValueOrDie());
  QueryCompiler compiler(&registry);
  for (const char* model : {"petal_lr", "petal_rf"}) {
    const std::string sql =
        std::string("SELECT species, AVG(PREDICT('") + model +
        "', sepal_length, sepal_width, petal_length)) AS predicted_width "
        "FROM iris GROUP BY species ORDER BY species";
    CompileOptions interp_options;
    interp_options.target = ExecutorTarget::kInterp;
    Table reference = compiler.CompileSql(sql, catalog, interp_options)
                          .ValueOrDie()
                          .Run(catalog)
                          .ValueOrDie();
    for (int threads : {1, 2, 8}) {
      for (bool fusion : {true, false}) {
        CompileOptions options;
        options.target = ExecutorTarget::kPipelined;
        options.num_threads = threads;
        options.morsel_rows = 16;
        options.expr_fusion = fusion;
        Table result = compiler.CompileSql(sql, catalog, options)
                           .ValueOrDie()
                           .Run(catalog)
                           .ValueOrDie();
        ExpectTablesIdentical(result, reference,
                              std::string(model) + " at " +
                                  std::to_string(threads) + " threads, fusion " +
                                  (fusion ? "on" : "off"));
      }
    }
  }
}

// ---- StaticExecutor rebased onto the same fusion engine --------------------

std::shared_ptr<TensorProgram> MakeChainProgram() {
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  auto constant = [&](double v) {
    return program->AddConstant(
        Tensor::Full(DType::kFloat64, 1, 1, v).ValueOrDie(), "c");
  };
  auto binary = [&](BinaryOpKind op, int a, int b) {
    return program->AddNode(OpType::kBinary, {a, b},
                            OpAttr(static_cast<int64_t>(op)));
  };
  int t = binary(BinaryOpKind::kMul, x, constant(1.0001));
  t = binary(BinaryOpKind::kAdd, t, constant(3.5));
  t = binary(BinaryOpKind::kMul, t, x);
  t = binary(BinaryOpKind::kSub, t, constant(0.25));
  const int gt = program->AddNode(
      OpType::kCompare, {t, constant(0.0)},
      OpAttr(static_cast<int64_t>(CompareOpKind::kGt)));
  const int lt = program->AddNode(
      OpType::kCompare, {t, constant(100.0)},
      OpAttr(static_cast<int64_t>(CompareOpKind::kLt)));
  const int mask = program->AddNode(
      OpType::kLogical, {gt, lt}, OpAttr(static_cast<int64_t>(LogicalOpKind::kAnd)));
  const int where = program->AddNode(OpType::kWhere, {mask, t, constant(0.0)});
  program->MarkOutput(where);
  return program;
}

TEST(StaticExecutorExprFusionTest, GroupsCompileToExprProgramsBitIdentical) {
  auto program = MakeChainProgram();
  const int64_t n = 200000;  // above 2 * fusion_block_rows: blocked path
  Tensor x = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  Rng rng(7);
  for (int64_t i = 0; i < n; ++i) {
    x.mutable_data<double>()[i] = rng.UniformDouble(-50, 150);
  }
  auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
  const std::vector<Tensor> want = eager->Run({x}).ValueOrDie();
  for (bool fusion : {true, false}) {
    ExecOptions options;
    options.expr_fusion = fusion;
    auto fused = MakeExecutor(ExecutorTarget::kStatic, program, options)
                     .ValueOrDie();
    const std::vector<Tensor> got = fused->Run({x}).ValueOrDie();
    ASSERT_EQ(got.size(), want.size());
    ExpectTensorsIdentical(got[0], want[0],
                           fusion ? "static expr-fused" : "static node-at-a-time");
    auto* st = static_cast<StaticExecutor*>(fused.get());
    EXPECT_GE(st->num_fusion_groups(), 1);
    if (fusion) {
      EXPECT_GE(st->num_expr_fused_groups(), 1);
    } else {
      EXPECT_EQ(st->num_expr_fused_groups(), 0);
    }
  }
}

// ---- Adaptive morsel sizing --------------------------------------------------

TEST(AdaptiveMorselControllerTest, StepsAreGeometricAndBounded) {
  runtime::AdaptiveMorselController c(16384);
  EXPECT_EQ(c.rows(), 16384);
  // 16384 rows took 4 ms against the 1 ms target: desired size is 4096, but
  // a single observation may at most halve -> 8192.
  c.Observe(16384, 4'000'000);
  EXPECT_EQ(c.rows(), 8192);
  // Near-free morsels: grows geometrically until the upper bound.
  for (int i = 0; i < 40; ++i) c.Observe(c.rows(), 1);
  EXPECT_EQ(c.rows(), runtime::AdaptiveMorselController::kMaxRows);
  // Pathologically slow morsels: shrinks to the lower bound, never below.
  for (int i = 0; i < 40; ++i) c.Observe(c.rows(), 1'000'000'000);
  EXPECT_EQ(c.rows(), runtime::AdaptiveMorselController::kMinRows);
  // Degenerate observations are ignored.
  c.Observe(0, 100);
  c.Observe(100, 0);
  EXPECT_EQ(c.rows(), runtime::AdaptiveMorselController::kMinRows);
  // The initial size is clamped into bounds too.
  EXPECT_EQ(runtime::AdaptiveMorselController(1).rows(),
            runtime::AdaptiveMorselController::kMinRows);
  EXPECT_EQ(runtime::AdaptiveMorselController(int64_t{1} << 30).rows(),
            runtime::AdaptiveMorselController::kMaxRows);
}

TEST_F(ExprFusionTpchTest, AdaptiveMorselSizingIsDeterministicAndBounded) {
  // Adaptive sizing only moves the per-run morsel decomposition; results
  // must stay bit-identical to eager across repeated runs even as the size
  // drifts between them, and the size must stay inside the controller's
  // bounds.
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(1).ValueOrDie();
  CompileOptions eager_options;
  eager_options.target = ExecutorTarget::kEager;
  Table reference = compiler.CompileSql(sql, *catalog_, eager_options)
                        .ValueOrDie()
                        .Run(*catalog_)
                        .ValueOrDie();
  CompileOptions options;
  options.target = ExecutorTarget::kPipelined;
  options.num_threads = 4;
  options.adaptive_morsels = true;
  CompiledQuery q = compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
  for (int run = 0; run < 4; ++run) {
    Table result = q.Run(*catalog_).ValueOrDie();
    ExpectTablesIdentical(result, reference,
                          "adaptive run " + std::to_string(run));
  }
  auto* pipelined = static_cast<PipelinedExecutor*>(q.executor());
  EXPECT_TRUE(pipelined->adaptive_morsels());
  EXPECT_GE(pipelined->current_morsel_rows(),
            runtime::AdaptiveMorselController::kMinRows);
  EXPECT_LE(pipelined->current_morsel_rows(),
            runtime::AdaptiveMorselController::kMaxRows);
  const std::string report = pipelined->FusionReport();
  EXPECT_NE(report.find("(adaptive)"), std::string::npos) << report;
}

// ---- The point of it all: fewer BufferPool allocations ---------------------

TEST_F(ExprFusionTpchTest, FusionReducesPoolAllocationsOnQ6) {
  QueryCompiler compiler;
  const std::string sql = tpch::QueryText(6).ValueOrDie();
  const auto measure = [&](bool fusion, int64_t* allocs, int64_t* peak) {
    CompileOptions options;
    options.target = ExecutorTarget::kPipelined;
    options.num_threads = 1;
    options.morsel_rows = 4096;
    options.expr_fusion = fusion;
    CompiledQuery q = compiler.CompileSql(sql, *catalog_, options).ValueOrDie();
    const std::vector<Tensor> inputs = q.CollectInputs(*catalog_).ValueOrDie();
    TQP_CHECK_OK(q.RunWithInputs(inputs).status());  // warm: compile fusion
    BufferPool* pool = BufferPool::Global();
    pool->ResetPeak();
    const BufferPoolStats before = pool->stats();
    TQP_CHECK_OK(q.RunWithInputs(inputs).status());
    const BufferPoolStats after = pool->stats();
    *allocs = after.total_allocations() - before.total_allocations();
    *peak = after.peak_live_bytes;
  };
  int64_t allocs_on = 0, peak_on = 0, allocs_off = 0, peak_off = 0;
  measure(true, &allocs_on, &peak_on);
  measure(false, &allocs_off, &peak_off);
  EXPECT_LT(allocs_on, allocs_off)
      << "fusion-on " << allocs_on << " vs fusion-off " << allocs_off;
  // Peak live bytes must not grow (small slack for the register arenas).
  EXPECT_LE(peak_on, peak_off + (512 << 10))
      << "fusion-on peak " << peak_on << " vs fusion-off " << peak_off;
}

// ---- fusion compile probe: every driver morsel evaluates exactly once -------

TEST(ExprFusionProbeTest, ProbeSeedsMorselZeroInsteadOfDiscardingIt) {
  // A single-pipeline program over a known row count: the first run
  // compiles (the probe IS morsel 0's evaluation), every later run hits the
  // fusion cache — the morsel-eval counter must advance by exactly
  // ceil(rows / morsel) per run, never by one extra probe.
  auto program = std::make_shared<TensorProgram>();
  const int a = program->AddInput("a");
  const int b = program->AddInput("b");
  AttrMap mul;
  mul.Set("op", static_cast<int64_t>(BinaryOpKind::kMul));
  AttrMap add;
  add.Set("op", static_cast<int64_t>(BinaryOpKind::kAdd));
  const int prod = program->AddNode(OpType::kBinary, {a, b}, mul);
  const int out = program->AddNode(OpType::kBinary, {prod, a}, add);
  program->MarkOutput(out);
  TQP_CHECK_OK(program->Validate());

  const int64_t rows = 100;
  const int64_t morsel = 10;
  std::vector<double> av(rows), bv(rows);
  for (int64_t i = 0; i < rows; ++i) {
    av[static_cast<size_t>(i)] = static_cast<double>(i % 17);
    bv[static_cast<size_t>(i)] = static_cast<double>(i % 7);
  }
  const Tensor at = Tensor::FromVector<double>(av);
  const Tensor bt = Tensor::FromVector<double>(bv);

  ExecOptions options;
  options.num_threads = 1;
  options.morsel_rows = morsel;
  auto exec =
      MakeExecutor(ExecutorTarget::kPipelined, program, options).ValueOrDie();
  auto* pipelined = static_cast<PipelinedExecutor*>(exec.get());

  const Tensor reference =
      MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie()
          ->Run({at, bt})
          .ValueOrDie()[0];

  int64_t last = pipelined->num_morsel_evals();
  EXPECT_EQ(last, 0);
  for (int run = 0; run < 3; ++run) {
    // current_morsel_rows() is the size the next RunPipeline reads at entry
    // (10 here, unless the environment forces adaptive sizing, whose lower
    // bound overrides small static sizes).
    const int64_t size = pipelined->current_morsel_rows();
    const int64_t per_run = (rows + size - 1) / size;
    const Tensor result = pipelined->Run({at, bt}).ValueOrDie()[0];
    ASSERT_EQ(std::memcmp(result.raw_data(), reference.raw_data(),
                          static_cast<size_t>(reference.nbytes())),
              0)
        << "run " << run;
    const int64_t now = pipelined->num_morsel_evals();
    EXPECT_EQ(now - last, per_run)
        << "run " << run
        << (run == 0 ? ": the compile probe must seed morsel 0, not repeat it"
                     : ": a cache hit must not probe");
    last = now;
  }
  ASSERT_NE(pipelined->pipeline_fusion(0), nullptr);
}

// ---- fusion cache signature: broadcast shape drift recompiles ---------------

TEST(ExprFusionCacheTest, BroadcastArityDriftRecompilesInsteadOfServingStale) {
  // where(mask, payload, payload) keeps a multi-column payload inside the
  // pipeline without fusing it. A second batch that changes the broadcast
  // payload's column arity (1x2 -> 1x3) drifts only the shape rank class —
  // dtype and broadcast-ness stay identical — so the old dtype-only
  // signature would serve the stale compiled program. The signature must
  // cover the rank/stride class and recompile.
  auto program = std::make_shared<TensorProgram>();
  const int a = program->AddInput("a");       // driver column (n x 1)
  const int pay = program->AddInput("pay");   // broadcast payload (1 x k)
  const int k = program->AddConstant(Tensor::FromVector<double>({2.0}));
  const int mask = program->AddNode(
      OpType::kCompare, {a, k}, OpAttr(static_cast<int64_t>(CompareOpKind::kLt)));
  const int picked = program->AddNode(OpType::kWhere, {mask, pay, pay});
  const int doubled = program->AddNode(
      OpType::kBinary, {a, a}, OpAttr(static_cast<int64_t>(BinaryOpKind::kAdd)));
  program->MarkOutput(picked);
  program->MarkOutput(doubled);
  TQP_CHECK_OK(program->Validate());

  const Tensor at = Tensor::FromVector<double>({1.0, 5.0, 1.5, 9.0});
  const Tensor pay2 = Tensor::FromVector2D<double>({7.0, 8.0}, 1, 2);
  const Tensor pay3 = Tensor::FromVector2D<double>({7.0, 8.0, 9.0}, 1, 3);

  ExecOptions options;
  options.num_threads = 1;
  auto exec =
      MakeExecutor(ExecutorTarget::kPipelined, program, options).ValueOrDie();
  auto* pipelined = static_cast<PipelinedExecutor*>(exec.get());
  auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();

  const auto run_both = [&](const Tensor& payload, const std::string& what) {
    const std::vector<Tensor> fused =
        pipelined->Run({at, payload}).ValueOrDie();
    const std::vector<Tensor> want = eager->Run({at, payload}).ValueOrDie();
    ASSERT_EQ(fused.size(), want.size()) << what;
    for (size_t i = 0; i < want.size(); ++i) {
      ASSERT_EQ(fused[i].cols(), want[i].cols()) << what;
      ASSERT_EQ(fused[i].rows(), want[i].rows()) << what;
      ASSERT_EQ(std::memcmp(fused[i].raw_data(), want[i].raw_data(),
                            static_cast<size_t>(want[i].nbytes())),
                0)
          << what << " output " << i;
    }
  };

  run_both(pay2, "first batch (1x2 payload)");
  const std::string sig2 = pipelined->pipeline_fusion_signature(0);
  ASSERT_FALSE(sig2.empty());
  run_both(pay3, "second batch (1x3 payload)");
  const std::string sig3 = pipelined->pipeline_fusion_signature(0);
  EXPECT_NE(sig2, sig3)
      << "a broadcast-arity drift must change the fusion cache signature";
  run_both(pay2, "third batch (1x2 payload again)");
  EXPECT_EQ(pipelined->pipeline_fusion_signature(0), sig2);
}

}  // namespace
}  // namespace tqp
