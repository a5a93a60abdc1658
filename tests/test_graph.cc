// Tests for the tensor-program layer: graph construction/validation, the
// three executors' equivalence (including on randomized programs), the
// bytecode serializer round trip, the DOT exporter, and the simulated-GPU
// cost accounting.

#include <gtest/gtest.h>

#include "common/random.h"
#include "kernels/kernel_types.h"
#include "graph/dot.h"
#include "graph/executor.h"
#include "graph/serialize.h"
#include "graph/static_executor.h"

namespace tqp {
namespace {

AttrMap OpAttr(int64_t v) {
  AttrMap attrs;
  attrs.Set("op", v);
  return attrs;
}

// sum((x * 2 + y) > 3 ? (x * 2 + y) : 0) over float64 vectors.
std::shared_ptr<TensorProgram> MakeSmallProgram() {
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  const int y = program->AddInput("y");
  const int two = program->AddConstant(
      Tensor::Full(DType::kFloat64, 1, 1, 2.0).ValueOrDie(), "2");
  const int three = program->AddConstant(
      Tensor::Full(DType::kFloat64, 1, 1, 3.0).ValueOrDie(), "3");
  const int zero = program->AddConstant(
      Tensor::Full(DType::kFloat64, 1, 1, 0.0).ValueOrDie(), "0");
  const int mul = program->AddNode(
      OpType::kBinary, {x, two}, OpAttr(static_cast<int64_t>(BinaryOpKind::kMul)));
  const int add = program->AddNode(
      OpType::kBinary, {mul, y}, OpAttr(static_cast<int64_t>(BinaryOpKind::kAdd)));
  const int gt = program->AddNode(
      OpType::kCompare, {add, three},
      OpAttr(static_cast<int64_t>(CompareOpKind::kGt)));
  const int where = program->AddNode(OpType::kWhere, {gt, add, zero});
  const int sum = program->AddNode(
      OpType::kReduceAll, {where}, OpAttr(static_cast<int64_t>(ReduceOpKind::kSum)));
  program->MarkOutput(sum);
  return program;
}

TEST(ProgramTest, ValidationCatchesBadGraphs) {
  TensorProgram ok_program;
  const int x = ok_program.AddInput("x");
  ok_program.MarkOutput(x);
  EXPECT_TRUE(ok_program.Validate().ok());

  TensorProgram no_output;
  no_output.AddInput("x");
  EXPECT_FALSE(no_output.Validate().ok());

  TensorProgram bad_arity;
  const int in = bad_arity.AddInput("x");
  bad_arity.AddNode(OpType::kBinary, {in},
                    OpAttr(static_cast<int64_t>(BinaryOpKind::kAdd)));
  bad_arity.MarkOutput(0);
  EXPECT_FALSE(bad_arity.Validate().ok());
}

TEST(ProgramTest, UseCountsAndToString) {
  auto program = MakeSmallProgram();
  const std::vector<int> uses = program->ComputeUseCounts();
  EXPECT_EQ(uses[0], 1);  // x feeds mul
  const std::string text = program->ToString();
  EXPECT_NE(text.find("reduce_all"), std::string::npos);
  EXPECT_NE(text.find("where"), std::string::npos);
}

TEST(ProgramTest, DropDeadNodesKeepsEveryInputAndRenumbersConstants) {
  auto program = std::make_shared<TensorProgram>();
  const int x = program->AddInput("x");
  const int five = program->AddConstant(
      Tensor::Full(DType::kFloat64, 1, 1, 5.0).ValueOrDie(), "5");
  const int y = program->AddInput("y");
  const int two = program->AddConstant(
      Tensor::Full(DType::kFloat64, 1, 1, 2.0).ValueOrDie(), "2");
  const int unused = program->AddInput("unused");
  const AttrMap add = OpAttr(static_cast<int64_t>(BinaryOpKind::kAdd));
  const int dead = program->AddNode(OpType::kBinary, {x, five}, add);
  program->AddNode(OpType::kBinary, {dead, unused}, add);
  const int mul = program->AddNode(
      OpType::kBinary, {y, two}, OpAttr(static_cast<int64_t>(BinaryOpKind::kMul)),
      "y * 2");
  program->MarkOutput(mul);
  program->MarkOutput(x);
  const std::vector<Tensor> inputs = {
      Tensor::FromVector<double>({1, 2, 3}), Tensor::FromVector<double>({4, 5, 6}),
      Tensor::FromVector<double>({7, 8, 9})};
  const auto want =
      MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie()->Run(inputs)
          .ValueOrDie();

  program->DropDeadNodes();
  ASSERT_TRUE(program->Validate().ok()) << program->ToString();
  EXPECT_EQ(program->input_names(),
            (std::vector<std::string>{"x", "y", "unused"}));
  EXPECT_EQ(program->num_nodes(), 5) << program->ToString();  // 3 inputs, 2, y * 2
  ASSERT_EQ(program->constants().size(), 1u);
  EXPECT_EQ(program->constant(0).data<double>()[0], 2.0);
  EXPECT_EQ(program->node(program->outputs()[0]).label, "y * 2");
  const auto got =
      MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie()->Run(inputs)
          .ValueOrDie();
  ASSERT_EQ(got.size(), want.size());
  for (size_t i = 0; i < want.size(); ++i) {
    ASSERT_EQ(got[i].numel(), want[i].numel());
    for (int64_t r = 0; r < want[i].numel(); ++r) {
      EXPECT_EQ(got[i].data<double>()[r], want[i].data<double>()[r]);
    }
  }
}

TEST(ExecutorTest, AllTargetsAgreeOnSmallProgram) {
  auto program = MakeSmallProgram();
  Tensor x = Tensor::FromVector<double>({1, 2, 3, 4});
  Tensor y = Tensor::FromVector<double>({0, 1, -10, 2});
  double expected = 0;
  for (int i = 0; i < 4; ++i) {
    const double v = x.at<double>(i) * 2 + y.at<double>(i);
    expected += v > 3 ? v : 0;
  }
  for (ExecutorTarget target :
       {ExecutorTarget::kEager, ExecutorTarget::kStatic, ExecutorTarget::kInterp,
        ExecutorTarget::kPipelined}) {
    auto executor = MakeExecutor(target, program).ValueOrDie();
    auto outputs = executor->Run({x, y}).ValueOrDie();
    EXPECT_DOUBLE_EQ(outputs[0].at<double>(0), expected)
        << ExecutorTargetName(target);
  }
}

TEST(ExecutorTest, WrongInputCountRejected) {
  auto program = MakeSmallProgram();
  auto executor = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
  Tensor x = Tensor::FromVector<double>({1});
  EXPECT_FALSE(executor->Run({x}).ok());
}

TEST(ExecutorTest, UnassignedTargetRejected) {
  // 3 is the one unassigned value below kPipelined: it names no executor.
  const auto unassigned = static_cast<ExecutorTarget>(3);
  auto executor = MakeExecutor(unassigned, MakeSmallProgram());
  ASSERT_FALSE(executor.ok());
  EXPECT_EQ(executor.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(executor.status().message().find("unknown executor target"),
            std::string::npos)
      << executor.status().ToString();
  EXPECT_STREQ(ExecutorTargetName(unassigned), "?");
}

TEST(ExecutorTest, StaticFusionPlansGroups) {
  auto program = MakeSmallProgram();
  StaticExecutor executor(program, ExecOptions{});
  EXPECT_GE(executor.num_fusion_groups(), 1);
}

TEST(ExecutorTest, StaticMatchesEagerOnLargeFusedChain) {
  // Large enough to trigger the blocked fusion path (> 2 blocks).
  auto program = MakeSmallProgram();
  const int64_t n = 200000;
  Rng rng(5);
  Tensor x = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  Tensor y = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    x.mutable_data<double>()[i] = rng.UniformDouble(-2, 2);
    y.mutable_data<double>()[i] = rng.UniformDouble(-2, 2);
  }
  auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
  auto fused = MakeExecutor(ExecutorTarget::kStatic, program).ValueOrDie();
  const double a = eager->Run({x, y}).ValueOrDie()[0].at<double>(0);
  const double b = fused->Run({x, y}).ValueOrDie()[0].at<double>(0);
  EXPECT_DOUBLE_EQ(a, b);
}

// Randomized elementwise DAGs: all three executors must agree bit-for-bit.
TEST(ExecutorTest, RandomizedProgramEquivalence) {
  Rng rng(77);
  for (int trial = 0; trial < 15; ++trial) {
    auto program = std::make_shared<TensorProgram>();
    std::vector<int> pool;  // float64-producing nodes
    pool.push_back(program->AddInput("a"));
    pool.push_back(program->AddInput("b"));
    pool.push_back(program->AddConstant(
        Tensor::Full(DType::kFloat64, 1, 1, rng.UniformDouble(-2, 2)).ValueOrDie(),
        "c"));
    const int num_ops = static_cast<int>(rng.Uniform(3, 12));
    for (int i = 0; i < num_ops; ++i) {
      const int lhs = pool[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
      const int rhs = pool[static_cast<size_t>(rng.Uniform(0, static_cast<int64_t>(pool.size()) - 1))];
      const BinaryOpKind ops[] = {BinaryOpKind::kAdd, BinaryOpKind::kSub,
                                  BinaryOpKind::kMul, BinaryOpKind::kMin,
                                  BinaryOpKind::kMax};
      pool.push_back(program->AddNode(
          OpType::kBinary, {lhs, rhs},
          OpAttr(static_cast<int64_t>(ops[rng.Uniform(0, 4)]))));
    }
    program->MarkOutput(pool.back());
    const int64_t n = rng.Uniform(1, 500);
    Tensor a = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
    Tensor b = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
    for (int64_t i = 0; i < n; ++i) {
      a.mutable_data<double>()[i] = rng.UniformDouble(-3, 3);
      b.mutable_data<double>()[i] = rng.UniformDouble(-3, 3);
    }
    auto eager = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
    Tensor expected = eager->Run({a, b}).ValueOrDie()[0];
    for (ExecutorTarget target : {ExecutorTarget::kStatic, ExecutorTarget::kInterp,
                                  ExecutorTarget::kPipelined}) {
      auto executor = MakeExecutor(target, program).ValueOrDie();
      Tensor got = executor->Run({a, b}).ValueOrDie()[0];
      ASSERT_EQ(got.rows(), expected.rows());
      for (int64_t i = 0; i < n; ++i) {
        ASSERT_DOUBLE_EQ(got.at<double>(i), expected.at<double>(i))
            << "trial " << trial << " target " << ExecutorTargetName(target);
      }
    }
  }
}

TEST(SerializeTest, RoundTripPreservesSemantics) {
  auto program = MakeSmallProgram();
  const std::string bytes = SerializeProgram(*program);
  TensorProgram reloaded = DeserializeProgram(bytes).ValueOrDie();
  EXPECT_EQ(reloaded.num_nodes(), program->num_nodes());
  EXPECT_EQ(SerializeProgram(reloaded), bytes);  // fixed point
  // Execution equivalence.
  Tensor x = Tensor::FromVector<double>({1, 5});
  Tensor y = Tensor::FromVector<double>({2, -1});
  auto e1 = MakeExecutor(ExecutorTarget::kEager, program).ValueOrDie();
  auto e2 = MakeExecutor(ExecutorTarget::kEager,
                         std::make_shared<TensorProgram>(std::move(reloaded)))
                .ValueOrDie();
  EXPECT_DOUBLE_EQ(e1->Run({x, y}).ValueOrDie()[0].at<double>(0),
                   e2->Run({x, y}).ValueOrDie()[0].at<double>(0));
}

TEST(SerializeTest, PreservesStringsAndEmptyLabels) {
  TensorProgram program;
  const int s = program.AddInput("strings");
  AttrMap attrs;
  attrs.Set("pattern", std::string("%with space & symbols\n%"));
  const int like = program.AddNode(OpType::kStringLike, {s}, attrs, "");
  program.MarkOutput(like);
  TensorProgram reloaded =
      DeserializeProgram(SerializeProgram(program)).ValueOrDie();
  EXPECT_EQ(reloaded.node(1).attrs.GetString("pattern"),
            "%with space & symbols\n%");
  EXPECT_EQ(reloaded.node(1).label, "");
}

TEST(SerializeTest, RejectsGarbage) {
  EXPECT_FALSE(DeserializeProgram("not a program").ok());
  EXPECT_FALSE(DeserializeProgram("TQPROG/1\nconstants 0\nnodes 1\nbogus").ok());
}

TEST(DotTest, RendersAllNodeShapes) {
  auto program = MakeSmallProgram();
  const std::string dot = ProgramToDot(*program, "test_graph");
  EXPECT_NE(dot.find("digraph test_graph"), std::string::npos);
  EXPECT_NE(dot.find("input"), std::string::npos);
  EXPECT_NE(dot.find("reduce_all"), std::string::npos);
  EXPECT_NE(dot.find("-> n"), std::string::npos);
  EXPECT_NE(dot.find("output 0"), std::string::npos);
}

TEST(CostModelTest, GpuClockAdvancesPerNode) {
  auto program = MakeSmallProgram();
  ExecOptions options;
  options.device = DeviceKind::kCudaSim;
  auto executor = MakeExecutor(ExecutorTarget::kEager, program, options)
                      .ValueOrDie();
  Tensor x = Tensor::Full(DType::kFloat64, 100000, 1, 1.0).ValueOrDie();
  Tensor y = Tensor::Full(DType::kFloat64, 100000, 1, 1.0).ValueOrDie();
  Device* gpu = GetDevice(DeviceKind::kCudaSim);
  gpu->ResetClock();
  TQP_CHECK_OK(executor->Run({x, y}).status());
  EXPECT_GT(gpu->simulated_seconds(), 0.0);
  EXPECT_GT(gpu->kernels_launched(), 3);
  EXPECT_GT(gpu->bytes_transferred(), 2 * 800000);  // both inputs over PCIe
}

TEST(CostModelTest, FusionReducesSimulatedKernels) {
  auto program = MakeSmallProgram();
  Tensor x = Tensor::Full(DType::kFloat64, 200000, 1, 1.0).ValueOrDie();
  Tensor y = Tensor::Full(DType::kFloat64, 200000, 1, 1.0).ValueOrDie();
  Device* gpu = GetDevice(DeviceKind::kCudaSim);
  ExecOptions options;
  options.device = DeviceKind::kCudaSim;
  auto eager = MakeExecutor(ExecutorTarget::kEager, program, options).ValueOrDie();
  gpu->ResetClock();
  TQP_CHECK_OK(eager->Run({x, y}).status());
  const int64_t eager_kernels = gpu->kernels_launched();
  auto fused = MakeExecutor(ExecutorTarget::kStatic, program, options).ValueOrDie();
  gpu->ResetClock();
  TQP_CHECK_OK(fused->Run({x, y}).status());
  EXPECT_LT(gpu->kernels_launched(), eager_kernels);
}

}  // namespace
}  // namespace tqp
