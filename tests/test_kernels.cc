// Unit + property tests for the kernel library (the PyTorch-analog layer):
// every kernel family over all dtypes, broadcasting shapes, edge cases
// (empty tensors, single rows, padded strings), and randomized invariants.

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <numeric>
#include <string>
#include <type_traits>
#include <vector>

#include "common/random.h"
#include "common/string_util.h"
#include "kernels/kernels.h"
#include "kernels/sort_internal.h"
#include "operators/partitioned/external_sort.h"
#include "runtime/parallel_kernels.h"
#include "runtime/thread_pool.h"

namespace tqp {
namespace {

using namespace tqp::kernels;  // NOLINT: test file
using runtime::ThreadPool;

// ---- Elementwise -----------------------------------------------------------

class BinaryOpDtypeTest : public ::testing::TestWithParam<DType> {};

TEST_P(BinaryOpDtypeTest, AddSubMulOnDtype) {
  const DType dt = GetParam();
  Tensor a = Tensor::Full(dt, 4, 1, 6).ValueOrDie();
  Tensor b = Tensor::Full(dt, 4, 1, 2).ValueOrDie();
  Tensor sum = BinaryOp(BinaryOpKind::kAdd, a, b).ValueOrDie();
  Tensor diff = BinaryOp(BinaryOpKind::kSub, a, b).ValueOrDie();
  Tensor prod = BinaryOp(BinaryOpKind::kMul, a, b).ValueOrDie();
  EXPECT_DOUBLE_EQ(sum.ScalarAsDouble(0), 8);
  EXPECT_DOUBLE_EQ(diff.ScalarAsDouble(1), 4);
  EXPECT_DOUBLE_EQ(prod.ScalarAsDouble(2), 12);
}

INSTANTIATE_TEST_SUITE_P(AllNumeric, BinaryOpDtypeTest,
                         ::testing::Values(DType::kInt32, DType::kInt64,
                                           DType::kFloat32, DType::kFloat64),
                         [](const auto& info) {
                           return DTypeName(info.param);
                         });

TEST(BinaryOpTest, IntegerDivisionTruncatesAndGuardsZero) {
  Tensor a = Tensor::FromVector<int64_t>({7, 7, 7});
  Tensor b = Tensor::FromVector<int64_t>({2, -2, 0});
  Tensor q = BinaryOp(BinaryOpKind::kDiv, a, b).ValueOrDie();
  EXPECT_EQ(q.at<int64_t>(0), 3);
  EXPECT_EQ(q.at<int64_t>(1), -3);
  EXPECT_EQ(q.at<int64_t>(2), 0);  // engine substitutes 0 for div-by-zero
}

TEST(BinaryOpTest, ScalarBroadcast) {
  Tensor a = Tensor::FromVector<double>({1, 2, 3});
  Tensor ten = Tensor::Full(DType::kFloat64, 1, 1, 10.0).ValueOrDie();
  Tensor s = BinaryOp(BinaryOpKind::kMul, a, ten).ValueOrDie();
  EXPECT_DOUBLE_EQ(s.at<double>(2), 30.0);
}

TEST(BinaryOpTest, RowVectorBroadcast) {
  // (n x m) + (1 x m): the bias-add pattern.
  Tensor a = Tensor::FromVector2D<double>({1, 2, 3, 4}, 2, 2);
  Tensor bias = Tensor::FromVector2D<double>({10, 20}, 1, 2);
  Tensor out = BinaryOp(BinaryOpKind::kAdd, a, bias).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0, 0), 11);
  EXPECT_DOUBLE_EQ(out.at<double>(1, 1), 24);
}

TEST(BinaryOpTest, ColumnBroadcast) {
  // (n x m) * (n x 1).
  Tensor a = Tensor::FromVector2D<double>({1, 2, 3, 4}, 2, 2);
  Tensor col = Tensor::FromVector<double>({10, 100});
  Tensor out = BinaryOp(BinaryOpKind::kMul, a, col).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0, 1), 20);
  EXPECT_DOUBLE_EQ(out.at<double>(1, 0), 300);
}

TEST(BinaryOpTest, IncompatibleShapesRejected) {
  Tensor a = Tensor::Full(DType::kFloat64, 3, 1, 0).ValueOrDie();
  Tensor b = Tensor::Full(DType::kFloat64, 4, 1, 0).ValueOrDie();
  EXPECT_FALSE(BinaryOp(BinaryOpKind::kAdd, a, b).ok());
}

TEST(BinaryOpTest, BoolArithmeticPromotesToInt) {
  Tensor a = Tensor::Full(DType::kBool, 3, 1, 1).ValueOrDie();
  Tensor b = Tensor::Full(DType::kBool, 3, 1, 1).ValueOrDie();
  Tensor out = BinaryOp(BinaryOpKind::kAdd, a, b).ValueOrDie();
  EXPECT_EQ(out.dtype(), DType::kInt32);
  EXPECT_EQ(out.at<int32_t>(0), 2);
}

TEST(CompareTest, AllOperatorsOnMixedDtypes) {
  Tensor a = Tensor::FromVector<int64_t>({1, 2, 3});
  Tensor b = Tensor::FromVector<double>({2.0, 2.0, 2.0});
  auto check = [&](CompareOpKind op, bool r0, bool r1, bool r2) {
    Tensor m = Compare(op, a, b).ValueOrDie();
    EXPECT_EQ(m.dtype(), DType::kBool);
    EXPECT_EQ(m.at<bool>(0), r0);
    EXPECT_EQ(m.at<bool>(1), r1);
    EXPECT_EQ(m.at<bool>(2), r2);
  };
  check(CompareOpKind::kEq, false, true, false);
  check(CompareOpKind::kNe, true, false, true);
  check(CompareOpKind::kLt, true, false, false);
  check(CompareOpKind::kLe, true, true, false);
  check(CompareOpKind::kGt, false, false, true);
  check(CompareOpKind::kGe, false, true, true);
}

TEST(LogicalTest, TruthTables) {
  Tensor t = Tensor::Full(DType::kBool, 1, 1, 1).ValueOrDie();
  Tensor f = Tensor::Full(DType::kBool, 1, 1, 0).ValueOrDie();
  EXPECT_TRUE(Logical(LogicalOpKind::kAnd, t, t).ValueOrDie().at<bool>(0));
  EXPECT_FALSE(Logical(LogicalOpKind::kAnd, t, f).ValueOrDie().at<bool>(0));
  EXPECT_TRUE(Logical(LogicalOpKind::kOr, f, t).ValueOrDie().at<bool>(0));
  EXPECT_TRUE(Logical(LogicalOpKind::kXor, t, f).ValueOrDie().at<bool>(0));
  EXPECT_FALSE(Logical(LogicalOpKind::kXor, t, t).ValueOrDie().at<bool>(0));
  EXPECT_FALSE(Logical(LogicalOpKind::kAnd, t,
                       Tensor::Full(DType::kInt32, 1, 1, 1).ValueOrDie())
                   .ok());
}

TEST(UnaryTest, MathFunctions) {
  Tensor x = Tensor::FromVector<double>({-2.0, 0.0, 4.0});
  EXPECT_DOUBLE_EQ(Unary(UnaryOpKind::kNeg, x).ValueOrDie().at<double>(0), 2.0);
  EXPECT_DOUBLE_EQ(Unary(UnaryOpKind::kAbs, x).ValueOrDie().at<double>(0), 2.0);
  EXPECT_DOUBLE_EQ(Unary(UnaryOpKind::kSqrt, x).ValueOrDie().at<double>(2), 2.0);
  EXPECT_DOUBLE_EQ(Unary(UnaryOpKind::kRelu, x).ValueOrDie().at<double>(0), 0.0);
  EXPECT_NEAR(Unary(UnaryOpKind::kSigmoid, x).ValueOrDie().at<double>(1), 0.5,
              1e-12);
  EXPECT_NEAR(Unary(UnaryOpKind::kTanh, x).ValueOrDie().at<double>(1), 0.0, 1e-12);
  Tensor b = Tensor::Full(DType::kBool, 2, 1, 0).ValueOrDie();
  EXPECT_TRUE(Unary(UnaryOpKind::kNot, b).ValueOrDie().at<bool>(1));
}

TEST(CastTest, AllPairsPreserveValue) {
  const DType dtypes[] = {DType::kBool,    DType::kUInt8,  DType::kInt32,
                          DType::kInt64,   DType::kFloat32, DType::kFloat64};
  for (DType from : dtypes) {
    Tensor src = Tensor::Full(from, 3, 1, 1).ValueOrDie();
    for (DType to : dtypes) {
      Tensor dst = Cast(src, to).ValueOrDie();
      EXPECT_EQ(dst.dtype(), to);
      EXPECT_DOUBLE_EQ(dst.ScalarAsDouble(0), 1.0)
          << DTypeName(from) << "->" << DTypeName(to);
    }
  }
}

TEST(WhereTest, SelectsPerElement) {
  Tensor cond = Tensor::Empty(DType::kBool, 3, 1).ValueOrDie();
  cond.mutable_data<bool>()[0] = true;
  cond.mutable_data<bool>()[1] = false;
  cond.mutable_data<bool>()[2] = true;
  Tensor a = Tensor::FromVector<double>({1, 2, 3});
  Tensor b = Tensor::FromVector<double>({10, 20, 30});
  Tensor out = Where(cond, a, b).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0), 1);
  EXPECT_DOUBLE_EQ(out.at<double>(1), 20);
  EXPECT_DOUBLE_EQ(out.at<double>(2), 3);
}

TEST(WhereTest, ScalarBranches) {
  Tensor cond = Tensor::Full(DType::kBool, 4, 1, 1).ValueOrDie();
  Tensor one = Tensor::Full(DType::kInt64, 1, 1, 1).ValueOrDie();
  Tensor zero = Tensor::Full(DType::kInt64, 1, 1, 0).ValueOrDie();
  Tensor out = Where(cond, one, zero).ValueOrDie();
  EXPECT_EQ(out.rows(), 4);
  EXPECT_EQ(out.at<int64_t>(3), 1);
}

// ---- Reductions / scans -----------------------------------------------------

TEST(ReduceTest, SumMinMaxCount) {
  Tensor x = Tensor::FromVector<double>({3, -1, 4, 1, 5});
  EXPECT_DOUBLE_EQ(ReduceAll(ReduceOpKind::kSum, x).ValueOrDie().at<double>(0), 12);
  EXPECT_DOUBLE_EQ(ReduceAll(ReduceOpKind::kMin, x).ValueOrDie().at<double>(0), -1);
  EXPECT_DOUBLE_EQ(ReduceAll(ReduceOpKind::kMax, x).ValueOrDie().at<double>(0), 5);
  EXPECT_EQ(ReduceAll(ReduceOpKind::kCount, x).ValueOrDie().at<int64_t>(0), 5);
}

TEST(ReduceTest, EmptyInput) {
  Tensor x = Tensor::Empty(DType::kFloat64, 0, 1).ValueOrDie();
  EXPECT_DOUBLE_EQ(ReduceAll(ReduceOpKind::kSum, x).ValueOrDie().at<double>(0), 0);
  EXPECT_EQ(ReduceAll(ReduceOpKind::kCount, x).ValueOrDie().at<int64_t>(0), 0);
  EXPECT_FALSE(ReduceAll(ReduceOpKind::kMin, x).ok());
}

TEST(CumSumTest, InclusiveScan) {
  Tensor x = Tensor::FromVector<int64_t>({1, 2, 3, 4});
  Tensor s = CumSum(x).ValueOrDie();
  EXPECT_EQ(s.at<int64_t>(0), 1);
  EXPECT_EQ(s.at<int64_t>(3), 10);
  // Bool input accumulates as int64 (segment-id derivation).
  Tensor b = Tensor::Full(DType::kBool, 3, 1, 1).ValueOrDie();
  EXPECT_EQ(CumSum(b).ValueOrDie().at<int64_t>(2), 3);
}

TEST(SegmentedReduceTest, SumCountMinMax) {
  Tensor values = Tensor::FromVector<double>({1, 2, 3, 4, 5});
  Tensor ids = Tensor::FromVector<int64_t>({0, 0, 1, 1, 1});
  EXPECT_DOUBLE_EQ(SegmentedReduce(ReduceOpKind::kSum, values, ids, 2)
                       .ValueOrDie()
                       .at<double>(1),
                   12);
  EXPECT_EQ(SegmentedReduce(ReduceOpKind::kCount, values, ids, 2)
                .ValueOrDie()
                .at<int64_t>(0),
            2);
  EXPECT_DOUBLE_EQ(SegmentedReduce(ReduceOpKind::kMin, values, ids, 2)
                       .ValueOrDie()
                       .at<double>(1),
                   3);
  EXPECT_DOUBLE_EQ(SegmentedReduce(ReduceOpKind::kMax, values, ids, 2)
                       .ValueOrDie()
                       .at<double>(0),
                   2);
  // Out-of-range ids error.
  Tensor bad = Tensor::FromVector<int64_t>({0, 0, 1, 1, 5});
  EXPECT_FALSE(SegmentedReduce(ReduceOpKind::kSum, values, bad, 2).ok());
}

// ---- Selection ---------------------------------------------------------------

TEST(SelectionTest, NonzeroCompressGather) {
  Tensor mask = Tensor::Empty(DType::kBool, 5, 1).ValueOrDie();
  for (int i = 0; i < 5; ++i) mask.mutable_data<bool>()[i] = (i % 2 == 0);
  Tensor idx = Nonzero(mask).ValueOrDie();
  EXPECT_EQ(idx.rows(), 3);
  EXPECT_EQ(idx.at<int64_t>(2), 4);
  Tensor data = Tensor::FromVector<double>({10, 11, 12, 13, 14});
  Tensor kept = Compress(data, mask).ValueOrDie();
  EXPECT_EQ(kept.rows(), 3);
  EXPECT_DOUBLE_EQ(kept.at<double>(1), 12);
  Tensor rev = Tensor::FromVector<int64_t>({4, 3, 2, 1, 0});
  Tensor gathered = Gather(data, rev).ValueOrDie();
  EXPECT_DOUBLE_EQ(gathered.at<double>(0), 14);
  // Out-of-range index errors.
  Tensor bad = Tensor::FromVector<int64_t>({5});
  EXPECT_FALSE(Gather(data, bad).ok());
}

TEST(SelectionTest, GatherWorksOnMultiColumnRows) {
  Tensor data = Tensor::FromVector2D<int32_t>({1, 2, 3, 4, 5, 6}, 3, 2);
  Tensor idx = Tensor::FromVector<int64_t>({2, 0});
  Tensor out = Gather(data, idx).ValueOrDie();
  EXPECT_EQ(out.at<int32_t>(0, 0), 5);
  EXPECT_EQ(out.at<int32_t>(0, 1), 6);
  EXPECT_EQ(out.at<int32_t>(1, 0), 1);
}

TEST(SelectionTest, GatherColsPicksPerRow) {
  Tensor x = Tensor::FromVector2D<double>({1, 2, 3, 4, 5, 6}, 2, 3);
  Tensor idx = Tensor::FromVector<int64_t>({2, 0});
  Tensor out = GatherCols(x, idx).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0), 3);
  EXPECT_DOUBLE_EQ(out.at<double>(1), 4);
  EXPECT_FALSE(GatherCols(x, Tensor::FromVector<int64_t>({3, 0})).ok());
}

TEST(SelectionTest, ConcatRowsAndCols) {
  Tensor a = Tensor::FromVector<int64_t>({1, 2});
  Tensor b = Tensor::FromVector<int64_t>({3});
  Tensor rows = ConcatRows({a, b}).ValueOrDie();
  EXPECT_EQ(rows.rows(), 3);
  EXPECT_EQ(rows.at<int64_t>(2), 3);
  Tensor c = Tensor::FromVector<int64_t>({10, 20});
  Tensor cols = ConcatCols({a, c}).ValueOrDie();
  EXPECT_EQ(cols.cols(), 2);
  EXPECT_EQ(cols.at<int64_t>(1, 1), 20);
  EXPECT_FALSE(ConcatCols({a, b}).ok());  // row mismatch
}

TEST(SelectionTest, RepeatInterleaveExpandsRows) {
  Tensor a = Tensor::FromVector<int64_t>({7, 8, 9});
  Tensor counts = Tensor::FromVector<int64_t>({2, 0, 3});
  Tensor out = RepeatInterleave(a, counts).ValueOrDie();
  ASSERT_EQ(out.rows(), 5);
  EXPECT_EQ(out.at<int64_t>(0), 7);
  EXPECT_EQ(out.at<int64_t>(1), 7);
  EXPECT_EQ(out.at<int64_t>(2), 9);
  EXPECT_EQ(out.at<int64_t>(4), 9);
  Tensor negative = Tensor::FromVector<int64_t>({-1, 0, 0});
  EXPECT_FALSE(RepeatInterleave(a, negative).ok());
}

TEST(SelectionTest, ScatterPlacesRows) {
  Tensor a = Tensor::FromVector<int64_t>({10, 20});
  Tensor idx = Tensor::FromVector<int64_t>({3, 0});
  Tensor out = Scatter(a, idx, 4).ValueOrDie();
  EXPECT_EQ(out.at<int64_t>(0), 20);
  EXPECT_EQ(out.at<int64_t>(3), 10);
  EXPECT_EQ(out.at<int64_t>(1), 0);
}

TEST(SelectionTest, ScatterRejectsOutOfRangeIndex) {
  Tensor a = Tensor::FromVector<int64_t>({10, 20});
  EXPECT_FALSE(Scatter(a, Tensor::FromVector<int64_t>({0, 4}), 4).ok());
  EXPECT_FALSE(Scatter(a, Tensor::FromVector<int64_t>({-1, 0}), 4).ok());
  EXPECT_FALSE(Scatter(a, Tensor::FromVector<int64_t>({0}), 4).ok());
  // Rows of any width move whole: 3-byte strings, last write wins.
  Tensor s = Tensor::Empty(DType::kUInt8, 3, 3).ValueOrDie();
  for (int64_t i = 0; i < 9; ++i) s.mutable_data<uint8_t>()[i] = static_cast<uint8_t>(i);
  Tensor out = Scatter(s, Tensor::FromVector<int64_t>({1, 0, 1}), 2).ValueOrDie();
  ASSERT_EQ(out.rows(), 2);
  ASSERT_EQ(out.cols(), 3);
  EXPECT_EQ(out.at<uint8_t>(0, 0), 3);
  EXPECT_EQ(out.at<uint8_t>(1, 2), 8);
}

// ---- Sorting / searching ------------------------------------------------------

TEST(SortTest, ArgsortStableAscDesc) {
  Tensor x = Tensor::FromVector<int64_t>({3, 1, 3, 2});
  Tensor asc = ArgsortRows(x).ValueOrDie();
  EXPECT_EQ(asc.at<int64_t>(0), 1);
  EXPECT_EQ(asc.at<int64_t>(1), 3);
  EXPECT_EQ(asc.at<int64_t>(2), 0);  // stability: first 3 before second 3
  EXPECT_EQ(asc.at<int64_t>(3), 2);
  Tensor desc = ArgsortRows(x, /*ascending=*/false).ValueOrDie();
  EXPECT_EQ(desc.at<int64_t>(0), 0);
  EXPECT_EQ(desc.at<int64_t>(1), 2);
}

TEST(SortTest, SearchSortedBothSides) {
  Tensor sorted = Tensor::FromVector<int64_t>({1, 3, 3, 5});
  Tensor values = Tensor::FromVector<int64_t>({0, 3, 6});
  Tensor lo = SearchSorted(sorted, values, false).ValueOrDie();
  Tensor hi = SearchSorted(sorted, values, true).ValueOrDie();
  EXPECT_EQ(lo.at<int64_t>(0), 0);
  EXPECT_EQ(hi.at<int64_t>(0), 0);
  EXPECT_EQ(lo.at<int64_t>(1), 1);
  EXPECT_EQ(hi.at<int64_t>(1), 3);  // two 3s
  EXPECT_EQ(lo.at<int64_t>(2), 4);
}

TEST(SortTest, SegmentBoundaries) {
  Tensor keys = Tensor::FromVector<int64_t>({5, 5, 7, 7, 7, 9});
  Tensor bounds = SegmentBoundaries(keys).ValueOrDie();
  EXPECT_TRUE(bounds.at<bool>(0));
  EXPECT_FALSE(bounds.at<bool>(1));
  EXPECT_TRUE(bounds.at<bool>(2));
  EXPECT_TRUE(bounds.at<bool>(5));
  // Empty input.
  Tensor empty = Tensor::Empty(DType::kInt64, 0, 1).ValueOrDie();
  EXPECT_EQ(SegmentBoundaries(empty).ValueOrDie().rows(), 0);
}

// ---- Group ids ------------------------------------------------------------------

Tensor SortPathIds(const std::vector<Tensor>& keys) {
  return GroupIdsBySort(keys, [](const Tensor& k) { return ArgsortRows(k); })
      .ValueOrDie();
}

void ExpectSameIds(const Tensor& got, const Tensor& want, const std::string& what) {
  ASSERT_EQ(got.dtype(), DType::kInt64) << what;
  ASSERT_EQ(got.rows(), want.rows()) << what;
  for (int64_t i = 0; i < want.rows(); ++i) {
    ASSERT_EQ(got.at<int64_t>(i), want.at<int64_t>(i)) << what << " row " << i;
  }
}

/// Checks that both paths give the same ids on `keys` (which must pack into
/// a domain that fits 32-bit ranks) and returns the path GroupIds took.
GroupIdsPath ExpectPathsAgree(const std::vector<Tensor>& keys,
                              const std::string& what) {
  const auto packing =
      PlanDensePacking(keys, std::numeric_limits<uint64_t>::max());
  EXPECT_TRUE(packing.has_value()) << what;
  const Tensor sorted = SortPathIds(keys);
  if (packing.has_value()) {
    ExpectSameIds(GroupIdsByRank(keys, *packing).ValueOrDie(), sorted,
                  what + " dense");
  }
  GroupIdsPath path;
  ExpectSameIds(GroupIds(keys, &path).ValueOrDie(), sorted, what + " chosen");
  return path;
}

Tensor RandomStrings(Rng* rng, int64_t n, int64_t width, int64_t alphabet,
                     int64_t min_len = 0) {
  Tensor t = Tensor::Empty(DType::kUInt8, n, width).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    // Zero-padded like loaded strings: a random length, then zero bytes.
    const int64_t len = rng->Uniform(min_len, width);
    for (int64_t j = 0; j < width; ++j) {
      t.mutable_data<uint8_t>()[i * width + j] =
          j < len ? static_cast<uint8_t>('a' + rng->Uniform(0, alphabet - 1)) : 0;
    }
  }
  return t;
}

TEST(GroupIdsTest, NumbersGroupsInSortedKeyOrder) {
  Tensor a = Tensor::FromVector<int64_t>({3, 1, 3, 2, 1});
  Tensor b = Tensor::FromVector<int32_t>({0, 5, 0, 9, 4});
  ExpectSameIds(GroupIds({a}).ValueOrDie(),
                Tensor::FromVector<int64_t>({2, 0, 2, 1, 0}), "one key");
  // (1,4) < (1,5) < (2,9) < (3,0): key 0 is most significant.
  ExpectSameIds(GroupIds({a, b}).ValueOrDie(),
                Tensor::FromVector<int64_t>({3, 1, 3, 2, 0}), "two keys");
  EXPECT_EQ(GroupCount(GroupIds({a, b}).ValueOrDie()).ValueOrDie().at<int64_t>(0),
            4);
}

TEST(GroupIdsTest, DenseAndSortPathsAgreeOnEveryPackableType) {
  Rng rng(2024);
  const int64_t n = 3000;
  Tensor flags = Tensor::Empty(DType::kBool, n, 1).ValueOrDie();
  Tensor i32 = Tensor::Empty(DType::kInt32, n, 1).ValueOrDie();
  Tensor i64 = Tensor::Empty(DType::kInt64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) {
    flags.mutable_data<bool>()[i] = rng.Uniform(0, 1) == 1;
    i32.mutable_data<int32_t>()[i] = static_cast<int32_t>(rng.Uniform(-40, 40));
    i64.mutable_data<int64_t>()[i] = rng.Uniform(-30, 30) - (int64_t{1} << 40);
  }
  const Tensor s1 = RandomStrings(&rng, n, 1, 5);
  const Tensor s2 = RandomStrings(&rng, n, 2, 3, /*min_len=*/2);
  const Tensor s8 = RandomStrings(&rng, n, 8, 2);
  for (const auto& [name, keys] :
       std::vector<std::pair<std::string, std::vector<Tensor>>>{
           {"bool", {flags}},
           {"int32", {i32}},
           {"int64", {i64}},
           {"str1", {s1}},
           {"str2", {s2}},
           {"bool,int32", {flags, i32}},
           {"str1,bool", {s1, flags}},
           {"bool,str2", {flags, s2}},
           {"int32,int64", {i32, i64}}}) {
    const GroupIdsPath path = ExpectPathsAgree(keys, name);
    EXPECT_TRUE(path.dense) << name;
  }
  // Zero-padded 8-byte strings span far more than 2n codes: the kernel
  // sorts, and agrees with the sort path.
  GroupIdsPath path;
  ExpectSameIds(GroupIds({s8}, &path).ValueOrDie(), SortPathIds({s8}), "str8");
  EXPECT_FALSE(path.dense);
  // 8-byte strings that differ only in their last two bytes pack into a
  // small domain, and rank like the sort.
  Tensor tail8 = RandomStrings(&rng, n, 8, 2, /*min_len=*/8);
  for (int64_t i = 0; i < n; ++i) {
    std::memcpy(tail8.mutable_data<uint8_t>() + i * 8, "shipmo", 6);
  }
  EXPECT_TRUE(ExpectPathsAgree({tail8}, "str8 tail").dense);
}

TEST(GroupIdsTest, UnpackableKeysTakeTheSortPath) {
  Rng rng(7);
  const int64_t n = 2000;
  const Tensor s9 = RandomStrings(&rng, n, 9, 2);
  Tensor f = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
  for (int64_t i = 0; i < n; ++i) f.mutable_data<double>()[i] = rng.Uniform(0, 3);
  for (const auto& [name, keys] :
       std::vector<std::pair<std::string, std::vector<Tensor>>>{
           {"str9", {s9}}, {"float", {f}}, {"int64,str9", {Tensor::Arange(n).ValueOrDie(), s9}}}) {
    EXPECT_FALSE(PlanDensePacking(keys, std::numeric_limits<uint64_t>::max()))
        << name;
    GroupIdsPath path;
    ExpectSameIds(GroupIds(keys, &path).ValueOrDie(), SortPathIds(keys), name);
    EXPECT_FALSE(path.dense) << name;
  }
}

TEST(GroupIdsTest, Int64ExtremesOverflowTheRangeAndSort) {
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  Tensor full = Tensor::FromVector<int64_t>({kMax, kMin, -1, kMax, 0});
  EXPECT_FALSE(PlanDensePacking({full}, std::numeric_limits<uint64_t>::max()));
  GroupIdsPath path;
  ExpectSameIds(GroupIds({full}, &path).ValueOrDie(),
                Tensor::FromVector<int64_t>({3, 0, 1, 3, 2}), "INT64_MIN..MAX");
  EXPECT_FALSE(path.dense);
  // One short of the full range packs, and the extremes rank correctly.
  Tensor near = Tensor::FromVector<int64_t>({kMax, kMin + 1, kMax});
  const auto packing =
      PlanDensePacking({near}, std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(packing.has_value());
  EXPECT_EQ(packing->domain, std::numeric_limits<uint64_t>::max());
  ExpectSameIds(GroupIds({near}, &path).ValueOrDie(),
                Tensor::FromVector<int64_t>({1, 0, 1}), "near extremes");
  EXPECT_FALSE(path.dense);  // 2^64 - 1 codes are far past the limit
}

TEST(GroupIdsTest, DomainLimitAndRadixProductOverflow) {
  EXPECT_EQ(DenseDomainLimit(10), 1024u);
  EXPECT_EQ(DenseDomainLimit(5000), 10000u);
  GroupIdsPath path;
  // 10 rows: the limit is 1024 codes. 0..1023 is exactly at it.
  std::vector<int64_t> at(10, 5);
  at[3] = 0;
  at[7] = 1023;
  ExpectSameIds(GroupIds({Tensor::FromVector(at)}, &path).ValueOrDie(),
                SortPathIds({Tensor::FromVector(at)}), "at the limit");
  EXPECT_TRUE(path.dense);
  EXPECT_EQ(path.domain, 1024);
  std::vector<int64_t> past = at;
  past[7] = 1024;
  ExpectSameIds(GroupIds({Tensor::FromVector(past)}, &path).ValueOrDie(),
                SortPathIds({Tensor::FromVector(past)}), "past the limit");
  EXPECT_FALSE(path.dense);
  // Multi-key: 32 x 32 = 1024 dense, 32 x 33 sorts.
  Tensor a = Tensor::FromVector<int32_t>({0, 31, 4, 31, 0});
  Tensor b = Tensor::FromVector<int32_t>({0, 31, 2, 31, 31});
  Tensor c = Tensor::FromVector<int32_t>({0, 32, 2, 31, 31});
  EXPECT_TRUE(ExpectPathsAgree({a, b}, "32x32").dense);
  EXPECT_FALSE(ExpectPathsAgree({a, c}, "32x33").dense);
  // Two keys spanning 2^40 each: the radix product overflows 64 bits.
  const int64_t big = int64_t{1} << 40;
  Tensor x = Tensor::FromVector<int64_t>({0, big, 7});
  Tensor y = Tensor::FromVector<int64_t>({big, 0, 7});
  EXPECT_FALSE(PlanDensePacking({x, y}, std::numeric_limits<uint64_t>::max()));
  ExpectSameIds(GroupIds({x, y}, &path).ValueOrDie(), SortPathIds({x, y}),
                "product overflow");
  EXPECT_FALSE(path.dense);
  // 2^31 x 2^31 fits in 64 bits, but not in the limit.
  const int64_t half = int64_t{1} << 31;
  Tensor u = Tensor::FromVector<int64_t>({0, half - 1});
  Tensor v = Tensor::FromVector<int64_t>({half - 1, 0});
  const auto packing =
      PlanDensePacking({u, v}, std::numeric_limits<uint64_t>::max());
  ASSERT_TRUE(packing.has_value());
  EXPECT_EQ(packing->domain, uint64_t{1} << 62);
  EXPECT_FALSE(GroupIdsByRank({u, v}, *packing).ok());  // ranks need 32 bits
  EXPECT_FALSE(PlanDensePacking({u, v}, DenseDomainLimit(2)));
}

TEST(GroupIdsTest, EmptyAndSingleRowInputs) {
  for (DType dt : {DType::kInt64, DType::kFloat64}) {
    Tensor empty = Tensor::Empty(dt, 0, 1).ValueOrDie();
    GroupIdsPath path;
    Tensor ids = GroupIds({empty, empty}, &path).ValueOrDie();
    EXPECT_EQ(ids.rows(), 0);
    EXPECT_EQ(GroupCount(ids).ValueOrDie().at<int64_t>(0), 0);
    EXPECT_EQ(path.dense, dt == DType::kInt64);
    EXPECT_EQ(SortPathIds({empty}).rows(), 0);
    Tensor one = Tensor::Full(dt, 1, 1, -3).ValueOrDie();
    ids = GroupIds({one}).ValueOrDie();
    ASSERT_EQ(ids.rows(), 1);
    EXPECT_EQ(ids.at<int64_t>(0), 0);
    EXPECT_EQ(GroupCount(ids).ValueOrDie().at<int64_t>(0), 1);
  }
  EXPECT_FALSE(GroupIds({}).ok());
  EXPECT_FALSE(GroupIds({Tensor::FromVector<int64_t>({1, 2}),
                         Tensor::FromVector<int64_t>({1})})
                   .ok());
  EXPECT_FALSE(GroupCount(Tensor::FromVector<double>({1.0})).ok());
}

TEST(SortTest, ArgsortPropertyRandom) {
  Rng rng(123);
  for (int trial = 0; trial < 10; ++trial) {
    const int64_t n = rng.Uniform(1, 200);
    Tensor x = Tensor::Empty(DType::kFloat64, n, 1).ValueOrDie();
    for (int64_t i = 0; i < n; ++i) {
      x.mutable_data<double>()[i] = rng.UniformDouble(-5, 5);
    }
    Tensor perm = ArgsortRows(x).ValueOrDie();
    Tensor sorted = Gather(x, perm).ValueOrDie();
    for (int64_t i = 1; i < n; ++i) {
      ASSERT_LE(sorted.at<double>(i - 1), sorted.at<double>(i));
    }
    // Permutation property: indices are a bijection.
    std::vector<bool> seen(static_cast<size_t>(n), false);
    for (int64_t i = 0; i < n; ++i) {
      const int64_t p = perm.at<int64_t>(i);
      ASSERT_FALSE(seen[static_cast<size_t>(p)]);
      seen[static_cast<size_t>(p)] = true;
    }
  }
}

// ---- Sort/search oracles -------------------------------------------------------
// Every argsort path (serial, morsel-parallel, external merge sort) shares one
// core, so they are checked against std::stable_sort under operator< with
// NaN after every number, and every searchsorted against std::lower_bound /
// std::upper_bound.

// Sizes straddle the morsel, which is also the radix path's row threshold.
constexpr int64_t kOracleMorsel = 1024;
constexpr int64_t kOracleMinParallel = 2048;

runtime::ParallelContext OracleContext(ThreadPool* pool) {
  runtime::ParallelContext ctx;
  ctx.pool = pool;
  ctx.morsel_rows = kOracleMorsel;
  ctx.min_parallel_rows = kOracleMinParallel;
  return ctx;
}

template <typename T>
std::vector<int64_t> OracleArgsort(const Tensor& a, bool ascending) {
  const T* p = a.data<T>();
  const int64_t cols = a.cols();
  std::vector<int64_t> idx(static_cast<size_t>(a.rows()));
  std::iota(idx.begin(), idx.end(), int64_t{0});
  std::stable_sort(idx.begin(), idx.end(), [&](int64_t i, int64_t j) {
    int c = 0;
    for (int64_t k = 0; k < cols && c == 0; ++k) {
      const T x = p[i * cols + k];
      const T y = p[j * cols + k];
      c = x < y ? -1 : (y < x ? 1 : 0);
      if constexpr (std::is_floating_point_v<T>) {
        if (c == 0 && std::isnan(x) != std::isnan(y)) c = std::isnan(x) ? 1 : -1;
      }
    }
    return ascending ? c < 0 : c > 0;
  });
  return idx;
}

std::vector<int64_t> ToVector(const Tensor& t) {
  return std::vector<int64_t>(t.data<int64_t>(), t.data<int64_t>() + t.rows());
}

enum class KeyShape {
  kAllEqual,
  kDuplicates,
  kNegatives,
  kExtremes,
  kSignedZeros,
  kHashed,
  kNaN,
};

const char* KeyShapeName(KeyShape s) {
  switch (s) {
    case KeyShape::kAllEqual: return "all-equal";
    case KeyShape::kDuplicates: return "duplicates";
    case KeyShape::kNegatives: return "negatives";
    case KeyShape::kExtremes: return "extremes";
    case KeyShape::kSignedZeros: return "signed-zeros";
    case KeyShape::kHashed: return "hashed";
    case KeyShape::kNaN: return "nan";
  }
  return "?";
}

template <typename T>
T MakeKey(KeyShape shape, Rng* rng) {
  using L = std::numeric_limits<T>;
  const auto pick = [rng](std::initializer_list<T> values) {
    return *(values.begin() + rng->Uniform(0, static_cast<int64_t>(values.size()) - 1));
  };
  switch (shape) {
    case KeyShape::kAllEqual:
      return static_cast<T>(1);
    case KeyShape::kDuplicates:
      return static_cast<T>(rng->Uniform(0, 7));
    case KeyShape::kNegatives:
      if constexpr (std::is_floating_point_v<T>) {
        return static_cast<T>(rng->UniformDouble(-1000, 1000));
      } else {
        return static_cast<T>(rng->Uniform(-1000, 1000));
      }
    case KeyShape::kExtremes:
      if constexpr (std::is_floating_point_v<T>) {
        return pick({L::lowest(), L::max(), -L::infinity(), L::infinity(),
                     L::denorm_min(), T{0}, T{-1}, T{1}});
      } else {
        return pick({L::lowest(), L::max(), static_cast<T>(L::lowest() + 1),
                     static_cast<T>(L::max() - 1), T{0}, T{1}});
      }
    case KeyShape::kSignedZeros:
      return pick({static_cast<T>(-0.0), static_cast<T>(0.0), T{1}});
    case KeyShape::kHashed:
      if constexpr (std::is_floating_point_v<T>) {
        using U = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;
        T v;
        do {
          v = std::bit_cast<T>(static_cast<U>(rng->Next()));
        } while (std::isnan(v));
        return v;
      } else if constexpr (std::is_same_v<T, bool>) {
        return (rng->Next() & 1) != 0;
      } else {
        return static_cast<T>(rng->Next());
      }
    case KeyShape::kNaN:
      if constexpr (std::is_floating_point_v<T>) {
        return rng->Bernoulli(0.1) ? L::quiet_NaN()
                                   : static_cast<T>(rng->Uniform(-3, 3));
      }
      return T{};
  }
  return T{};
}

template <typename T>
class ArgsortOracleTest : public ::testing::Test {};

using ArgsortKeyTypes =
    ::testing::Types<bool, uint8_t, int32_t, int64_t, float, double>;
TYPED_TEST_SUITE(ArgsortOracleTest, ArgsortKeyTypes);

TYPED_TEST(ArgsortOracleTest, MatchesStdStableSort) {
  using T = TypeParam;
  std::vector<KeyShape> shapes{KeyShape::kAllEqual, KeyShape::kDuplicates,
                               KeyShape::kNegatives, KeyShape::kExtremes,
                               KeyShape::kHashed};
  if constexpr (std::is_floating_point_v<T>) {
    shapes.push_back(KeyShape::kSignedZeros);
    shapes.push_back(KeyShape::kNaN);
  }
  ThreadPool pool(4);
  const runtime::ParallelContext ctx = OracleContext(&pool);
  op::partitioned::PartitionConfig four_runs;
  four_runs.forced_bits = 2;
  Rng rng(2024);
  for (KeyShape shape : shapes) {
    for (int64_t n : {int64_t{0}, int64_t{1}, int64_t{2}, int64_t{300},
                      kOracleMorsel - 1, kOracleMorsel, kOracleMorsel + 1,
                      3 * kOracleMinParallel + 17}) {
      Tensor keys = Tensor::Empty(DTypeOf<T>::value, n, 1).ValueOrDie();
      for (int64_t i = 0; i < n; ++i) keys.mutable_data<T>()[i] = MakeKey<T>(shape, &rng);
      for (bool ascending : {true, false}) {
        const std::string what = std::string(KeyShapeName(shape)) + " n=" +
                                 std::to_string(n) + (ascending ? " asc" : " desc");
        const std::vector<int64_t> want = OracleArgsort<T>(keys, ascending);
        EXPECT_EQ(ToVector(ArgsortRows(keys, ascending).ValueOrDie()), want)
            << "serial " << what;
        const std::vector<int64_t> parallel =
            ToVector(runtime::ParallelArgsortRows(ctx, keys, ascending).ValueOrDie());
        const std::vector<int64_t> external = ToVector(
            op::partitioned::ExternalSortRows(ctx, keys, ascending, four_runs, nullptr)
                .ValueOrDie());
        EXPECT_EQ(parallel, want) << "parallel " << what;
        EXPECT_EQ(external, want) << "external " << what;
      }
    }
  }
}

TEST(ArgsortStringOracleTest, MultiColumnRowsMatchStdStableSort) {
  Rng rng(5);
  std::vector<std::string> values;
  for (int i = 0; i < 3 * kOracleMinParallel; ++i) {
    values.push_back(std::string(static_cast<size_t>(rng.Uniform(0, 3)),
                                 static_cast<char>('a' + rng.Uniform(0, 2))));
  }
  Tensor keys = EncodeStrings(values).ValueOrDie();
  ThreadPool pool(4);
  const runtime::ParallelContext ctx = OracleContext(&pool);
  for (bool ascending : {true, false}) {
    const std::vector<int64_t> want = OracleArgsort<uint8_t>(keys, ascending);
    EXPECT_EQ(ToVector(ArgsortRows(keys, ascending).ValueOrDie()), want);
    EXPECT_EQ(ToVector(runtime::ParallelArgsortRows(ctx, keys, ascending).ValueOrDie()),
              want);
  }
}

// ---- Already-ordered argsort input ----------------------------------------------
// A stable sort of rows already in order is the identity; StableArgsortRange
// returns it after one pass and reports `ordered`. Every case is pinned to
// std::stable_sort, at 1, 4 and 7 chunks, on both the comparison path
// (under 1024 rows, or multi-column rows) and the radix path.

/// Non-decreasing keys with ties: bool as a run of false then true, numbers
/// as a staircase, floats with -0.0 and +0.0 interleaved at zero.
template <typename T>
std::vector<T> OrderedKeys(int64_t n) {
  std::vector<T> out;
  for (int64_t i = 0; i < n; ++i) {
    if constexpr (std::is_same_v<T, bool>) {
      out.push_back(i >= n / 8);
    } else if constexpr (std::is_floating_point_v<T>) {
      const int64_t step = i / 3 - n / 6;
      out.push_back(step == 0 ? (i % 2 == 0 ? T{-0.0} : T{0.0})
                              : static_cast<T>(step) / 4);
    } else if constexpr (std::is_same_v<T, uint8_t>) {
      out.push_back(static_cast<T>(i * 200 / std::max<int64_t>(n, 1)));
    } else {
      out.push_back(static_cast<T>(i / 3 - n / 6));
    }
  }
  return out;
}

template <typename T>
Tensor KeysTensor(const std::vector<T>& values) {
  Tensor t = Tensor::Empty(DTypeOf<T>::value, static_cast<int64_t>(values.size()), 1)
                 .ValueOrDie();
  std::copy(values.begin(), values.end(), t.mutable_data<T>());
  return t;
}

/// StableArgsortRange over every row of `keys` with `chunks` chunks on a
/// 4-thread pool; `*ordered` receives the identity-path report.
std::vector<int64_t> ChunkedArgsort(const Tensor& keys, bool ascending,
                                    int64_t chunks, bool* ordered) {
  static ThreadPool pool(4);
  const kernels::TaskRunner run =
      [](int64_t tasks, const std::function<Status(int64_t, int64_t)>& fn) {
        return pool.ParallelFor(tasks, 1, fn);
      };
  std::vector<int64_t> out(static_cast<size_t>(keys.rows()));
  EXPECT_TRUE(kernels::StableArgsortRange(keys, 0, keys.rows(), ascending,
                                          out.data(), chunks, run, ordered)
                  .ok());
  return out;
}

template <typename T>
class ArgsortOrderedTest : public ::testing::Test {};
TYPED_TEST_SUITE(ArgsortOrderedTest, ArgsortKeyTypes);

TYPED_TEST(ArgsortOrderedTest, OrderedInputIsTheIdentityAndInversionsSort) {
  using T = TypeParam;
  for (int64_t n : {int64_t{6}, kOracleMorsel - 1, 4 * kOracleMorsel + 3}) {
    for (bool ascending : {true, false}) {
      std::vector<T> values = OrderedKeys<T>(n);
      if (!ascending) std::reverse(values.begin(), values.end());
      for (int64_t chunks : {1, 4, 7}) {
        const std::string what = "n=" + std::to_string(n) +
                                 (ascending ? " asc" : " desc") +
                                 " chunks=" + std::to_string(chunks);
        const Tensor keys = KeysTensor(values);
        std::vector<int64_t> identity(values.size());
        std::iota(identity.begin(), identity.end(), int64_t{0});
        bool ordered = false;
        EXPECT_EQ(ChunkedArgsort(keys, ascending, chunks, &ordered), identity)
            << what;
        EXPECT_EQ(OracleArgsort<T>(keys, ascending), identity) << what;
        EXPECT_TRUE(ordered) << what;

        // One inversion exactly where the first chunk ends (mid-input with
        // one chunk): the smallest key moves to just after the boundary
        // (ascending) or to just before it (descending).
        if (n < 16) continue;
        const int64_t boundary = n / (chunks == 1 ? 2 : chunks);
        std::vector<T> inverted = values;
        const T least = ascending ? values.front() : values.back();
        inverted[static_cast<size_t>(ascending ? boundary : boundary - 1)] = least;
        const Tensor broken = KeysTensor(inverted);
        ordered = true;
        EXPECT_EQ(ChunkedArgsort(broken, ascending, chunks, &ordered),
                  OracleArgsort<T>(broken, ascending))
            << what << " inverted at " << boundary;
        EXPECT_FALSE(ordered) << what << " inverted at " << boundary;
      }
    }
  }
}

TYPED_TEST(ArgsortOrderedTest, NaNBearingKeysTakeTheSort) {
  using T = TypeParam;
  if constexpr (std::is_floating_point_v<T>) {
    for (int64_t n : {int64_t{6}, 4 * kOracleMorsel + 3}) {
      std::vector<T> values = OrderedKeys<T>(n);
      values[static_cast<size_t>(n / 2)] = std::numeric_limits<T>::quiet_NaN();
      const Tensor keys = KeysTensor(values);
      for (bool ascending : {true, false}) {
        bool ordered = true;
        EXPECT_EQ(ChunkedArgsort(keys, ascending, 1, &ordered),
                  OracleArgsort<T>(keys, ascending))
            << "n=" << n;
        EXPECT_FALSE(ordered) << "n=" << n;
        bool serial_ordered = true;
        EXPECT_EQ(ToVector(ArgsortRows(keys, ascending, &serial_ordered).ValueOrDie()),
                  OracleArgsort<T>(keys, ascending));
        EXPECT_FALSE(serial_ordered);
      }
    }
  }
}

TEST(ArgsortOrderedTest, OrderedMultiColumnRowsAreTheIdentity) {
  std::vector<std::string> values;
  for (int i = 0; i < 3 * kOracleMorsel; ++i) {
    values.push_back(std::string(1, static_cast<char>('a' + i / 700)) +
                     (i % 3 == 0 ? "" : std::string(1, static_cast<char>('a' + i / 300 % 20))));
  }
  std::sort(values.begin(), values.end());
  for (bool ascending : {true, false}) {
    std::vector<std::string> rows = values;
    if (!ascending) std::reverse(rows.begin(), rows.end());
    const Tensor keys = EncodeStrings(rows).ValueOrDie();
    ASSERT_GT(keys.cols(), 1);
    std::vector<int64_t> identity(rows.size());
    std::iota(identity.begin(), identity.end(), int64_t{0});
    for (int64_t chunks : {1, 4, 7}) {
      bool ordered = false;
      EXPECT_EQ(ChunkedArgsort(keys, ascending, chunks, &ordered), identity);
      EXPECT_EQ(OracleArgsort<uint8_t>(keys, ascending), identity);
      EXPECT_TRUE(ordered);
      // The smallest row moves next to the first chunk boundary.
      const size_t boundary = rows.size() / static_cast<size_t>(chunks == 1 ? 2 : chunks);
      std::vector<std::string> inverted = rows;
      inverted[ascending ? boundary : boundary - 1] = ascending ? rows.front() : rows.back();
      const Tensor broken = EncodeStrings(inverted).ValueOrDie();
      ordered = true;
      EXPECT_EQ(ChunkedArgsort(broken, ascending, chunks, &ordered),
                OracleArgsort<uint8_t>(broken, ascending));
      EXPECT_FALSE(ordered);
    }
  }
}

template <typename T>
void ExpectSearchSortedMatchesStd(std::vector<T> sorted, const std::vector<T>& probes,
                                  const std::string& what) {
  std::sort(sorted.begin(), sorted.end());
  Tensor s = Tensor::Empty(DTypeOf<T>::value, static_cast<int64_t>(sorted.size()), 1)
                 .ValueOrDie();
  std::copy(sorted.begin(), sorted.end(), s.mutable_data<T>());
  Tensor v = Tensor::Empty(DTypeOf<T>::value, static_cast<int64_t>(probes.size()), 1)
                 .ValueOrDie();
  std::copy(probes.begin(), probes.end(), v.mutable_data<T>());
  for (bool right : {false, true}) {
    std::vector<int64_t> want;
    for (const T& x : probes) {
      const auto it = right ? std::upper_bound(sorted.begin(), sorted.end(), x)
                            : std::lower_bound(sorted.begin(), sorted.end(), x);
      want.push_back(it - sorted.begin());
    }
    const std::string side = what + (right ? " upper" : " lower");
    EXPECT_EQ(ToVector(SearchSorted(s, v, right).ValueOrDie()), want) << side;
  }
}

template <typename T>
void CheckSearchSortedShapes(Rng* rng) {
  const auto random_keys = [rng](int64_t n, int64_t lo, int64_t hi) {
    std::vector<T> out;
    for (int64_t i = 0; i < n; ++i) out.push_back(static_cast<T>(rng->Uniform(lo, hi)));
    return out;
  };
  // Five morsels of probes plus a ragged tail.
  const int64_t k = 5 * kOracleMorsel + 7;
  ExpectSearchSortedMatchesStd<T>({}, random_keys(k, 0, 1), "empty sorted");
  ExpectSearchSortedMatchesStd<T>(random_keys(4097, 50, 100),
                                  random_keys(k, 0, 49), "all below");
  ExpectSearchSortedMatchesStd<T>(random_keys(4097, 0, 1),
                                  random_keys(k, 2, 100), "all above");
  std::vector<T> runs;
  for (int v : {0, 1, 7, 9}) runs.insert(runs.end(), 3000, static_cast<T>(v));
  ExpectSearchSortedMatchesStd<T>(runs, random_keys(k, 0, 10), "duplicate runs");
  for (int64_t n : {int64_t{1}, int64_t{2}, int64_t{17}, int64_t{1000}}) {
    ExpectSearchSortedMatchesStd<T>(random_keys(n, 0, 100),
                                    random_keys(k, 0, 101), "n=" + std::to_string(n));
  }
}

TEST(SearchSortedOracleTest, MatchesStdBounds) {
  Rng rng(77);
  CheckSearchSortedShapes<int64_t>(&rng);
  CheckSearchSortedShapes<int32_t>(&rng);
  CheckSearchSortedShapes<double>(&rng);
  CheckSearchSortedShapes<float>(&rng);
  CheckSearchSortedShapes<uint8_t>(&rng);
  CheckSearchSortedShapes<bool>(&rng);
}

// ---- Strings -------------------------------------------------------------------

TEST(StringTest, EncodeDecodeRoundTrip) {
  const std::vector<std::string> values{"tea", "", "a longer string", "cup"};
  Tensor t = EncodeStrings(values).ValueOrDie();
  EXPECT_EQ(t.cols(), 15);
  auto decoded = DecodeStrings(t).ValueOrDie();
  EXPECT_EQ(decoded, values);
}

TEST(StringTest, CompareScalarLexicographic) {
  Tensor t = EncodeStrings({"apple", "banana", "app"}).ValueOrDie();
  Tensor eq = StringCompareScalar(CompareOpKind::kEq, t, "banana").ValueOrDie();
  EXPECT_FALSE(eq.at<bool>(0));
  EXPECT_TRUE(eq.at<bool>(1));
  Tensor lt = StringCompareScalar(CompareOpKind::kLt, t, "apple").ValueOrDie();
  EXPECT_FALSE(lt.at<bool>(0));
  EXPECT_TRUE(lt.at<bool>(2));  // "app" < "apple" (prefix rule)
}

TEST(StringTest, CompareScalarEqualityMatchesRowCompare) {
  // Width 4, with an empty row, a full-width row and an interior NUL.
  const std::vector<std::string> rows{"",   "a",    "ab",  "abc",
                                      "abd", "abcd", "b",   std::string("a\0b", 3)};
  Tensor t = EncodeStrings(rows, /*min_width=*/4).ValueOrDie();
  ASSERT_EQ(t.cols(), 4);
  const std::vector<std::string> trimmed = DecodeStrings(t).ValueOrDie();
  const std::vector<std::string> literals{"",
                                          "abc",
                                          "abcd",                      // exactly the width
                                          "abcde",                     // longer than the width
                                          std::string("ab\0", 3),      // trailing NUL
                                          std::string("a\0b", 3)};     // interior NUL
  for (const std::string& lit : literals) {
    Tensor eq = StringCompareScalar(CompareOpKind::kEq, t, lit).ValueOrDie();
    Tensor ne = StringCompareScalar(CompareOpKind::kNe, t, lit).ValueOrDie();
    for (size_t i = 0; i < rows.size(); ++i) {
      // The general path's rule: the row minus its zero pad equals the literal.
      const bool want = trimmed[i] == lit;
      EXPECT_EQ(eq.at<bool>(static_cast<int64_t>(i)), want)
          << "row " << i << " = literal of size " << lit.size();
      EXPECT_EQ(ne.at<bool>(static_cast<int64_t>(i)), !want)
          << "row " << i << " <> literal of size " << lit.size();
    }
  }
}

TEST(StringTest, LikeAllPatternShapes) {
  Tensor t = EncodeStrings({"PROMO BRUSHED TIN", "STANDARD TIN", "PROMOX"})
                 .ValueOrDie();
  Tensor prefix = StringLike(t, "PROMO%").ValueOrDie();
  EXPECT_TRUE(prefix.at<bool>(0));
  EXPECT_FALSE(prefix.at<bool>(1));
  EXPECT_TRUE(prefix.at<bool>(2));
  Tensor contains = StringLike(t, "%TIN%").ValueOrDie();
  EXPECT_TRUE(contains.at<bool>(0));
  EXPECT_TRUE(contains.at<bool>(1));
  EXPECT_FALSE(contains.at<bool>(2));
  Tensor exact = StringLike(t, "PROMOX").ValueOrDie();
  EXPECT_TRUE(exact.at<bool>(2));
  Tensor single = StringLike(t, "PROMO_").ValueOrDie();
  EXPECT_TRUE(single.at<bool>(2));
  EXPECT_FALSE(single.at<bool>(0));
  Tensor suffix = StringLike(t, "%TIN").ValueOrDie();
  EXPECT_TRUE(suffix.at<bool>(0));
  EXPECT_FALSE(suffix.at<bool>(2));
}

TEST(StringTest, LikeWithoutUnderscoreMatchesLikeMatch) {
  // Edge cases first: empty pieces, '%%', and an anchored prefix and suffix
  // that would overlap ('ab%ba' on 'aba' needs 4 bytes, the row has 3).
  const std::vector<std::string> fixed_rows{"", "a", "ab", "aba", "abba",
                                            "abcba", "xabay", "%", "a%b"};
  const std::vector<std::string> fixed_patterns{
      "%",    "%%",   "%%%", "a%",    "%a",   "%a%",  "a%%b", "%%a%%",
      "ab%ba", "ab%%ba", "a%b%a", "%b%b%", "aba%", "%aba", "a%a%a", "%ab%ba%"};
  // Seeded random patterns over a three-letter alphabet (so pieces recur
  // and overlap) with '%' mixed in, against rows padded to a fixed width.
  Rng rng(5);
  auto random_string = [&rng](int64_t max_len, bool with_percent) {
    std::string out;
    const int64_t len = rng.Uniform(0, max_len);
    for (int64_t i = 0; i < len; ++i) {
      const int64_t c = rng.Uniform(0, with_percent ? 3 : 2);
      out.push_back(c == 3 ? '%' : static_cast<char>('a' + c));
    }
    return out;
  };
  std::vector<std::string> rows = fixed_rows;
  for (int i = 0; i < 200; ++i) rows.push_back(random_string(12, false));
  std::vector<std::string> patterns = fixed_patterns;
  for (int i = 0; i < 300; ++i) patterns.push_back(random_string(8, true));

  Tensor t = EncodeStrings(rows, /*min_width=*/16).ValueOrDie();
  const std::vector<std::string> trimmed = DecodeStrings(t).ValueOrDie();
  for (const std::string& pattern : patterns) {
    Tensor got = StringLike(t, pattern).ValueOrDie();
    for (size_t i = 0; i < rows.size(); ++i) {
      ASSERT_EQ(got.at<bool>(static_cast<int64_t>(i)),
                LikeMatch(trimmed[i], pattern))
          << "'" << trimmed[i] << "' LIKE '" << pattern << "'";
    }
  }
  Tensor overlap = StringLike(EncodeStrings({"aba"}).ValueOrDie(), "ab%ba")
                       .ValueOrDie();
  EXPECT_FALSE(overlap.at<bool>(0));
  // A '%' in the value is a literal byte; a '%' in the pattern stays a
  // wildcard even where it meets one.
  EXPECT_TRUE(LikeMatch("a%b", "a%"));
  EXPECT_TRUE(LikeMatch("a%b", "a%%b"));
}

TEST(StringTest, SubstringBytes) {
  Tensor t = EncodeStrings({"abcdef", "ab"}).ValueOrDie();
  Tensor sub = Substring(t, 1, 3).ValueOrDie();
  auto decoded = DecodeStrings(sub).ValueOrDie();
  EXPECT_EQ(decoded[0], "bcd");
  EXPECT_EQ(decoded[1], "b");
}

TEST(StringTest, DictEncodeGroupsEqualRows) {
  Tensor t = EncodeStrings({"b", "a", "b", "c", "a"}).ValueOrDie();
  auto encoded = DictEncode(t).ValueOrDie();
  EXPECT_EQ(encoded.dict.rows(), 3);
  // Equal strings share codes; dict[code] decodes back.
  auto dict = DecodeStrings(encoded.dict).ValueOrDie();
  const int64_t* codes = encoded.codes.data<int64_t>();
  EXPECT_EQ(dict[static_cast<size_t>(codes[0])], "b");
  EXPECT_EQ(dict[static_cast<size_t>(codes[1])], "a");
  EXPECT_EQ(codes[0], codes[2]);
  EXPECT_EQ(codes[1], codes[4]);
}

TEST(StringTest, HashTokenizeSplitsAndPads) {
  Tensor t = EncodeStrings({"Hello, world!", "one"}).ValueOrDie();
  Tensor ids = HashTokenize(t, 1000, 4).ValueOrDie();
  EXPECT_EQ(ids.cols(), 4);
  EXPECT_GE(ids.at<int64_t>(0, 0), 0);
  EXPECT_GE(ids.at<int64_t>(0, 1), 0);
  EXPECT_EQ(ids.at<int64_t>(0, 2), -1);  // padding
  EXPECT_EQ(ids.at<int64_t>(1, 1), -1);
  // Case-insensitive: "Hello" == "hello".
  Tensor t2 = EncodeStrings({"hello"}).ValueOrDie();
  Tensor ids2 = HashTokenize(t2, 1000, 4).ValueOrDie();
  EXPECT_EQ(ids.at<int64_t>(0, 0), ids2.at<int64_t>(0, 0));
}

// ---- Hash / matmul --------------------------------------------------------------

TEST(HashTest, EqualRowsHashEqual) {
  Tensor a = Tensor::FromVector<int64_t>({5, 6, 5});
  Tensor h = HashRows(a).ValueOrDie();
  EXPECT_EQ(h.at<int64_t>(0), h.at<int64_t>(2));
  EXPECT_NE(h.at<int64_t>(0), h.at<int64_t>(1));
  Tensor s = EncodeStrings({"x", "y", "x"}).ValueOrDie();
  Tensor hs = HashRows(s).ValueOrDie();
  EXPECT_EQ(hs.at<int64_t>(0), hs.at<int64_t>(2));
  // The zero padding is not hashed: "x" in a 5-byte-wide column hashes as
  // "x" in a 1-byte-wide one.
  Tensor wide = EncodeStrings({"x", "xxxxx"}).ValueOrDie();
  EXPECT_EQ(HashRows(wide).ValueOrDie().at<int64_t>(0), hs.at<int64_t>(0));
  // Combine changes the hash but stays consistent.
  Tensor combined = HashCombine(h, a).ValueOrDie();
  EXPECT_EQ(combined.at<int64_t>(0), combined.at<int64_t>(2));
}

TEST(MatMulTest, KnownProduct) {
  Tensor a = Tensor::FromVector2D<double>({1, 2, 3, 4}, 2, 2);
  Tensor b = Tensor::FromVector2D<double>({5, 6, 7, 8}, 2, 2);
  Tensor c = MatMul(a, b).ValueOrDie();
  EXPECT_DOUBLE_EQ(c.at<double>(0, 0), 19);
  EXPECT_DOUBLE_EQ(c.at<double>(0, 1), 22);
  EXPECT_DOUBLE_EQ(c.at<double>(1, 0), 43);
  EXPECT_DOUBLE_EQ(c.at<double>(1, 1), 50);
  EXPECT_FALSE(MatMul(a, Tensor::FromVector2D<double>({1, 2, 3}, 3, 1)).ok());
}

TEST(MatMulTest, AddBiasBroadcasts) {
  Tensor a = Tensor::FromVector2D<double>({1, 0, 0, 1}, 2, 2);
  Tensor b = Tensor::FromVector2D<double>({1, 2, 3, 4}, 2, 2);
  Tensor bias = Tensor::FromVector2D<double>({10, 20}, 1, 2);
  Tensor out = MatMulAddBias(a, b, bias).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0, 0), 11);
  EXPECT_DOUBLE_EQ(out.at<double>(1, 1), 24);
}

TEST(MatMulTest, EmbeddingBagSumsAndSkipsPadding) {
  Tensor table = Tensor::FromVector2D<double>({1, 2, 10, 20, 100, 200}, 3, 2);
  Tensor ids = Tensor::FromVector2D<int64_t>({0, 2, 1, -1}, 2, 2);
  Tensor out = EmbeddingBagSum(table, ids).ValueOrDie();
  EXPECT_DOUBLE_EQ(out.at<double>(0, 0), 101);
  EXPECT_DOUBLE_EQ(out.at<double>(0, 1), 202);
  EXPECT_DOUBLE_EQ(out.at<double>(1, 0), 10);  // -1 is padding
  EXPECT_FALSE(
      EmbeddingBagSum(table, Tensor::FromVector2D<int64_t>({3, 0}, 1, 2)).ok());
}

TEST(ConcatRowsTest, PadsUInt8WidthsWithZeroBytes) {
  // Padded-string concat: a LEFT JOIN's zero-sentinel side is narrower than
  // the gathered side; narrower rows right-pad with 0 (the string padding).
  Tensor wide = Tensor::FromVector2D<uint8_t>({'a', 'b', 'c', 'd', 'e', 'f'}, 2, 3);
  Tensor narrow = Tensor::FromVector2D<uint8_t>({'x'}, 1, 1);
  Tensor out = ConcatRows({wide, narrow}).ValueOrDie();
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.cols(), 3);
  EXPECT_EQ(out.at<uint8_t>(2, 0), 'x');
  EXPECT_EQ(out.at<uint8_t>(2, 1), 0);
  EXPECT_EQ(out.at<uint8_t>(2, 2), 0);
  // Numeric width mismatch stays an error.
  Tensor a = Tensor::FromVector2D<double>({1, 2}, 1, 2);
  Tensor b = Tensor::FromVector2D<double>({3}, 1, 1);
  EXPECT_FALSE(ConcatRows({a, b}).ok());
  // The same rules on shapes alone, which is how pipeline assembly sizes an
  // output while some of its chunks sit on disk.
  const RowsShape shape =
      ConcatRowsShape({{DType::kUInt8, 2, 3}, {DType::kUInt8, 1, 1}}).ValueOrDie();
  EXPECT_EQ(shape.rows, 3);
  EXPECT_EQ(shape.cols, 3);
  EXPECT_EQ(ConcatRowsShape({{DType::kInt64, 1, 1}, {DType::kFloat64, 1, 1}})
                .status()
                .code(),
            StatusCode::kTypeError);
}

TEST(ConcatRowsTest, EmptyPartsContributeNothing) {
  Tensor a = Tensor::FromVector<int64_t>({1, 2, 3});
  Tensor empty = Tensor::Empty(DType::kInt64, 0, 1).ValueOrDie();
  Tensor out = ConcatRows({empty, a, empty}).ValueOrDie();
  EXPECT_EQ(out.rows(), 3);
  EXPECT_EQ(out.at<int64_t>(0), 1);
  EXPECT_EQ(out.at<int64_t>(2), 3);
}

}  // namespace
}  // namespace tqp
