#include "baseline/columnar.h"

#include <bit>
#include <cmath>

#include "kernels/kernels.h"
#include "operators/expr_vector_eval.h"
#include "operators/hash_groupby.h"
#include "operators/hash_join.h"

namespace tqp {

namespace {

using namespace tqp::kernels;  // NOLINT: engine is a kernel dispatcher

struct Ctx {
  const Catalog* catalog;
  const ml::ModelRegistry* models;
  Device* device;
  bool charge_transfers = true;
  int64_t kernels = 0;

  // Charges one materializing kernel pass to the simulated clock.
  void Charge(int64_t bytes_read, int64_t bytes_written, bool irregular = false,
              int64_t passes = 1) {
    ++kernels;
    KernelCost cost;
    cost.bytes_read = bytes_read;
    cost.bytes_written = bytes_written;
    cost.flops = bytes_written / 8;
    cost.passes = passes;
    device->RecordKernel(cost, irregular);
  }
};

struct Block {
  std::vector<Tensor> columns;
  int64_t rows = 0;
};

Result<Tensor> EvalCharged(const BoundExpr& expr, const Block& in, Ctx* ctx) {
  int64_t kernels = 0;
  TQP_ASSIGN_OR_RETURN(Tensor out, op::EvalExprVector(expr, in.columns, in.rows,
                                                      ctx->models, &kernels));
  // Every expression kernel streams roughly the row domain in and out.
  for (int64_t k = 0; k < kernels; ++k) {
    ctx->Charge(in.rows * 8 * 2, in.rows * 8);
  }
  return out;
}

// Int64 image of a float64 join key: equal exactly when `=` holds. -0.0
// folds into +0.0, and every NaN becomes `nan_bits`, a NaN pattern no other
// key on its side has; each side passes its own, so a NaN matches nothing.
Result<Tensor> FloatKeyImage(const Tensor& key, uint64_t nan_bits) {
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(DType::kInt64, key.rows(), 1));
  const double* p = key.data<double>();
  int64_t* o = out.mutable_data<int64_t>();
  for (int64_t i = 0; i < key.rows(); ++i) {
    const double v = p[i] == 0.0 ? 0.0 : p[i];
    o[i] = static_cast<int64_t>(v != v ? nan_bits : std::bit_cast<uint64_t>(v));
  }
  return out;
}

// One side's image of a join key column under `=`: numeric keys promote to
// the pair's common type as the compiler's PromoteTypes/CastTo do, then
// become int64 (integers by value, floats by FloatKeyImage). Strings hash;
// `*hashed` asks for equality to be verified on the joined rows.
Result<Tensor> JoinKeyImage(const Tensor& key, DType other, uint64_t nan_bits,
                            bool* hashed, Ctx* ctx) {
  if (key.dtype() == DType::kUInt8) {
    *hashed = true;
    ctx->Charge(key.nbytes(), key.rows() * 8, /*irregular=*/true);
    return HashRows(key);
  }
  ctx->Charge(key.nbytes(), key.rows() * 8);
  if (!IsFloatingPoint(PromoteTypes(key.dtype(), other))) {
    return Cast(key, DType::kInt64);
  }
  TQP_ASSIGN_OR_RETURN(Tensor f, Cast(key, DType::kFloat64));
  return FloatKeyImage(f, nan_bits);
}

// Both sides' join keys as one int64 column each. Several keys mix into a
// hash (`*hashed` set).
Status CombineJoinKeys(const std::vector<Tensor>& lkeys,
                       const std::vector<Tensor>& rkeys, Tensor* lk, Tensor* rk,
                       bool* hashed, Ctx* ctx) {
  // Quiet NaNs with distinct payloads: the left and right sides never share one.
  constexpr uint64_t kLeftNaN = 0x7ff8000000000001;
  constexpr uint64_t kRightNaN = 0x7ff8000000000002;
  *hashed = lkeys.size() > 1;
  for (size_t i = 0; i < lkeys.size(); ++i) {
    TQP_ASSIGN_OR_RETURN(
        Tensor l, JoinKeyImage(lkeys[i], rkeys[i].dtype(), kLeftNaN, hashed, ctx));
    TQP_ASSIGN_OR_RETURN(
        Tensor r, JoinKeyImage(rkeys[i], lkeys[i].dtype(), kRightNaN, hashed, ctx));
    if (i == 0) {
      *lk = std::move(l);
      *rk = std::move(r);
      if (lkeys.size() == 1) return Status::OK();
      TQP_ASSIGN_OR_RETURN(*lk, HashRows(*lk));
      TQP_ASSIGN_OR_RETURN(*rk, HashRows(*rk));
      continue;
    }
    ctx->Charge(l.nbytes() + lk->nbytes(), lk->nbytes(), true);
    TQP_ASSIGN_OR_RETURN(*lk, HashCombine(*lk, l));
    ctx->Charge(r.nbytes() + rk->nbytes(), rk->nbytes(), true);
    TQP_ASSIGN_OR_RETURN(*rk, HashCombine(*rk, r));
  }
  return Status::OK();
}

Result<Block> Exec(const PlanNode& node, Ctx* ctx);

Result<Block> ExecScan(const PlanNode& node, Ctx* ctx) {
  TQP_ASSIGN_OR_RETURN(Table t, ctx->catalog->GetTable(node.table_name));
  Block out;
  out.rows = t.num_rows();
  if (node.scan_columns.empty()) {
    for (int i = 0; i < t.num_columns(); ++i) {
      out.columns.push_back(t.column(i).tensor());
    }
  } else {
    for (int c : node.scan_columns) out.columns.push_back(t.column(c).tensor());
  }
  if (ctx->charge_transfers) {
    for (const Tensor& c : out.columns) {
      ctx->device->RecordTransfer(c.nbytes());
    }
  }
  return out;
}

Result<Block> ExecFilter(const PlanNode& node, Ctx* ctx) {
  TQP_ASSIGN_OR_RETURN(Block in, Exec(*node.children[0], ctx));
  TQP_ASSIGN_OR_RETURN(Tensor mask, EvalCharged(*node.predicate, in, ctx));
  Block out;
  for (const Tensor& c : in.columns) {
    ctx->Charge(c.nbytes() + in.rows, c.nbytes(), /*irregular=*/true);
    TQP_ASSIGN_OR_RETURN(Tensor kept, Compress(c, mask));
    out.columns.push_back(std::move(kept));
  }
  out.rows = out.columns.empty() ? 0 : out.columns[0].rows();
  return out;
}

Result<Block> ExecProject(const PlanNode& node, Ctx* ctx) {
  TQP_ASSIGN_OR_RETURN(Block in, Exec(*node.children[0], ctx));
  Block out;
  out.rows = in.rows;
  for (size_t i = 0; i < node.exprs.size(); ++i) {
    TQP_ASSIGN_OR_RETURN(Tensor e, EvalCharged(*node.exprs[i], in, ctx));
    if (e.dtype() != PhysicalType(node.exprs[i]->type)) {
      ctx->Charge(e.nbytes(), e.rows() * 8);
      TQP_ASSIGN_OR_RETURN(e, Cast(e, PhysicalType(node.exprs[i]->type)));
    }
    out.columns.push_back(std::move(e));
  }
  return out;
}

Result<Block> ExecJoin(const PlanNode& node, Ctx* ctx) {
  TQP_ASSIGN_OR_RETURN(Block left, Exec(*node.children[0], ctx));
  TQP_ASSIGN_OR_RETURN(Block right, Exec(*node.children[1], ctx));
  const bool semi_anti = node.join_type == sql::JoinType::kSemi ||
                         node.join_type == sql::JoinType::kAnti;

  // Cross join (no keys): the Cartesian pairing used by uncorrelated scalar
  // subqueries (|right| == 1 broadcasts the scalar across the left side).
  if (node.left_keys.empty()) {
    if (semi_anti || node.join_type == sql::JoinType::kLeft) {
      return Status::NotImplemented(
          "ColumnarEngine: keyless semi/anti/left joins");
    }
    TQP_ASSIGN_OR_RETURN(op::JoinIndices indices,
                         op::CrossJoinIndices(left.rows, right.rows));
    Block joined;
    for (const Tensor& c : left.columns) {
      ctx->Charge(c.nbytes(), indices.left_ids.rows() * DTypeSize(c.dtype()) *
                                  c.cols(), true);
      TQP_ASSIGN_OR_RETURN(Tensor g, Gather(c, indices.left_ids));
      joined.columns.push_back(std::move(g));
    }
    for (const Tensor& c : right.columns) {
      ctx->Charge(c.nbytes(), indices.right_ids.rows() * DTypeSize(c.dtype()) *
                                  c.cols(), true);
      TQP_ASSIGN_OR_RETURN(Tensor g, Gather(c, indices.right_ids));
      joined.columns.push_back(std::move(g));
    }
    joined.rows = indices.left_ids.rows();
    if (node.residual) {
      TQP_ASSIGN_OR_RETURN(Tensor res, EvalCharged(*node.residual, joined, ctx));
      Block out;
      for (const Tensor& c : joined.columns) {
        ctx->Charge(c.nbytes() + joined.rows, c.nbytes(), true);
        TQP_ASSIGN_OR_RETURN(Tensor kept, Compress(c, res));
        out.columns.push_back(std::move(kept));
      }
      out.rows = out.columns.empty() ? 0 : out.columns[0].rows();
      return out;
    }
    return joined;
  }

  std::vector<Tensor> lkeys;
  std::vector<Tensor> rkeys;
  for (size_t i = 0; i < node.left_keys.size(); ++i) {
    lkeys.push_back(left.columns[static_cast<size_t>(node.left_keys[i])]);
    rkeys.push_back(right.columns[static_cast<size_t>(node.right_keys[i])]);
  }
  Tensor lk;
  Tensor rk;
  bool hashed = false;
  TQP_RETURN_NOT_OK(CombineJoinKeys(lkeys, rkeys, &lk, &rk, &hashed, ctx));

  // LEFT OUTER: matched pairs plus zero-filled unmatched left rows, with the
  // trailing __matched validity column ([8]'s NULL masks).
  if (node.join_type == sql::JoinType::kLeft) {
    if (hashed || node.residual) {
      return Status::NotImplemented(
          "ColumnarEngine: LEFT JOIN requires numeric keys and no residual");
    }
    ctx->Charge(lk.nbytes() + rk.nbytes(), lk.nbytes() * 2, true);
    TQP_ASSIGN_OR_RETURN(op::LeftJoinIndices indices,
                         op::LeftOuterJoinIndices(lk, rk));
    Block out;
    for (const Tensor& c : left.columns) {
      ctx->Charge(c.nbytes(), indices.left_ids.rows() * DTypeSize(c.dtype()) *
                                  c.cols(), true);
      TQP_ASSIGN_OR_RETURN(Tensor g, Gather(c, indices.left_ids));
      out.columns.push_back(std::move(g));
    }
    for (const Tensor& c : right.columns) {
      ctx->Charge(c.nbytes(), indices.right_ids.rows() * DTypeSize(c.dtype()) *
                                  c.cols(), true);
      TQP_ASSIGN_OR_RETURN(Tensor g, Gather(c, indices.right_ids));
      if (c.dtype() != DType::kUInt8) {
        // NULL sentinel: zero out right-side values on unmatched rows.
        TQP_ASSIGN_OR_RETURN(Tensor zero, Tensor::Full(g.dtype(), 1, 1, 0.0));
        ctx->Charge(g.nbytes() * 2, g.nbytes());
        TQP_ASSIGN_OR_RETURN(g, Where(indices.matched, g, zero));
      }
      out.columns.push_back(std::move(g));
    }
    out.columns.push_back(indices.matched);
    out.rows = indices.left_ids.rows();
    return out;
  }

  if (semi_anti && !hashed && !node.residual) {
    ctx->Charge(lk.nbytes() + rk.nbytes(), lk.nbytes(), true);
    TQP_ASSIGN_OR_RETURN(
        Tensor ids,
        op::SemiJoinIndices(lk, rk, node.join_type == sql::JoinType::kAnti));
    Block out;
    for (const Tensor& c : left.columns) {
      ctx->Charge(c.nbytes(), c.nbytes(), true);
      TQP_ASSIGN_OR_RETURN(Tensor g, Gather(c, ids));
      out.columns.push_back(std::move(g));
    }
    out.rows = ids.rows();
    return out;
  }

  const int64_t n = std::max<int64_t>(rk.rows(), 2);
  ctx->Charge(lk.nbytes() + rk.nbytes(), lk.nbytes() * 2, true,
              static_cast<int64_t>(std::ceil(std::log2(static_cast<double>(n)))));
  TQP_ASSIGN_OR_RETURN(op::JoinIndices indices, op::SortMergeJoinIndices(lk, rk));
  Block joined;
  for (const Tensor& c : left.columns) {
    ctx->Charge(c.nbytes(), indices.left_ids.rows() * DTypeSize(c.dtype()) *
                                c.cols(), true);
    TQP_ASSIGN_OR_RETURN(Tensor g, Gather(c, indices.left_ids));
    joined.columns.push_back(std::move(g));
  }
  for (const Tensor& c : right.columns) {
    ctx->Charge(c.nbytes(), indices.right_ids.rows() * DTypeSize(c.dtype()) *
                                c.cols(), true);
    TQP_ASSIGN_OR_RETURN(Tensor g, Gather(c, indices.right_ids));
    joined.columns.push_back(std::move(g));
  }
  joined.rows = indices.left_ids.rows();

  // Verification of hashed keys + residual predicate.
  Tensor mask;
  if (hashed) {
    const size_t lw = left.columns.size();
    for (size_t i = 0; i < node.left_keys.size(); ++i) {
      const Tensor& a = joined.columns[static_cast<size_t>(node.left_keys[i])];
      const Tensor& b = joined.columns[lw + static_cast<size_t>(node.right_keys[i])];
      Tensor eq;
      ctx->Charge(a.nbytes() + b.nbytes(), joined.rows);
      if (a.dtype() == DType::kUInt8) {
        TQP_ASSIGN_OR_RETURN(eq, StringCompare(CompareOpKind::kEq, a, b));
      } else {
        TQP_ASSIGN_OR_RETURN(eq, Compare(CompareOpKind::kEq, a, b));
      }
      if (!mask.defined()) {
        mask = eq;
      } else {
        ctx->Charge(joined.rows * 2, joined.rows);
        TQP_ASSIGN_OR_RETURN(mask, Logical(LogicalOpKind::kAnd, mask, eq));
      }
    }
  }
  if (node.residual) {
    TQP_ASSIGN_OR_RETURN(Tensor res, EvalCharged(*node.residual, joined, ctx));
    if (!mask.defined()) {
      mask = res;
    } else {
      ctx->Charge(joined.rows * 2, joined.rows);
      TQP_ASSIGN_OR_RETURN(mask, Logical(LogicalOpKind::kAnd, mask, res));
    }
  }
  if (semi_anti) {
    // Hashed keys or a residual predicate: count the *verified* matches per
    // left row over the expanded pairs, then keep left rows with any (semi)
    // or none (anti).
    if (!mask.defined()) {
      return Status::Internal("semi/anti expansion without a pair mask");
    }
    ctx->Charge(joined.rows, joined.rows * 8);
    TQP_ASSIGN_OR_RETURN(Tensor pair_int, Cast(mask, DType::kInt64));
    ctx->Charge(joined.rows * 16, left.rows * 8, true);
    TQP_ASSIGN_OR_RETURN(
        Tensor cnt,
        SegmentedReduce(ReduceOpKind::kSum, pair_int, indices.left_ids,
                        left.rows));
    ctx->Charge(left.rows * 8, left.rows);
    TQP_ASSIGN_OR_RETURN(
        Tensor keep,
        CompareScalar(node.join_type == sql::JoinType::kSemi
                          ? CompareOpKind::kGt
                          : CompareOpKind::kEq,
                      cnt, Scalar(0.0)));
    Block out;
    for (const Tensor& c : left.columns) {
      ctx->Charge(c.nbytes() + left.rows, c.nbytes(), true);
      TQP_ASSIGN_OR_RETURN(Tensor kept, Compress(c, keep));
      out.columns.push_back(std::move(kept));
    }
    out.rows = out.columns.empty() ? 0 : out.columns[0].rows();
    return out;
  }
  if (mask.defined()) {
    Block out;
    for (const Tensor& c : joined.columns) {
      ctx->Charge(c.nbytes() + joined.rows, c.nbytes(), true);
      TQP_ASSIGN_OR_RETURN(Tensor kept, Compress(c, mask));
      out.columns.push_back(std::move(kept));
    }
    out.rows = out.columns.empty() ? 0 : out.columns[0].rows();
    return out;
  }
  return joined;
}

Result<Block> ExecAggregate(const PlanNode& node, Ctx* ctx) {
  TQP_ASSIGN_OR_RETURN(Block in, Exec(*node.children[0], ctx));
  Block out;
  if (node.group_exprs.empty()) {
    out.rows = 1;
    for (const AggSpec& agg : node.aggs) {
      Tensor values;
      if (agg.count_star || !agg.arg) {
        values = in.columns.empty() ? Tensor() : in.columns[0];
        if (!values.defined()) {
          TQP_ASSIGN_OR_RETURN(values, Tensor::Empty(DType::kInt64, in.rows, 1));
        }
      } else {
        TQP_ASSIGN_OR_RETURN(values, EvalCharged(*agg.arg, in, ctx));
      }
      ctx->Charge(values.nbytes(), 8);
      TQP_ASSIGN_OR_RETURN(Tensor r, ReduceAll(agg.op, values));
      if (r.dtype() != PhysicalType(agg.result_type())) {
        TQP_ASSIGN_OR_RETURN(r, Cast(r, PhysicalType(agg.result_type())));
      }
      out.columns.push_back(std::move(r));
    }
    return out;
  }
  std::vector<Tensor> keys;
  for (const BExpr& g : node.group_exprs) {
    TQP_ASSIGN_OR_RETURN(Tensor k, EvalCharged(*g, in, ctx));
    keys.push_back(std::move(k));
  }
  int64_t key_bytes = 0;
  for (const Tensor& k : keys) key_bytes += k.nbytes();
  const int64_t n = std::max<int64_t>(in.rows, 2);
  ctx->Charge(key_bytes, in.rows * 8, true,
              static_cast<int64_t>(std::ceil(std::log2(static_cast<double>(n)))));
  TQP_ASSIGN_OR_RETURN(op::GroupIds groups, op::SortGroupIds(keys));
  for (const Tensor& k : keys) {
    ctx->Charge(k.nbytes(), groups.num_groups * DTypeSize(k.dtype()) * k.cols(),
                true);
    TQP_ASSIGN_OR_RETURN(Tensor gk, Gather(k, groups.representatives));
    out.columns.push_back(std::move(gk));
  }
  for (const AggSpec& agg : node.aggs) {
    Tensor values;
    if (agg.count_star || !agg.arg) {
      values = groups.group_ids;
    } else {
      TQP_ASSIGN_OR_RETURN(values, EvalCharged(*agg.arg, in, ctx));
    }
    ctx->Charge(values.nbytes() + in.rows * 8, groups.num_groups * 8, true);
    TQP_ASSIGN_OR_RETURN(Tensor r, op::GroupedReduce(agg.op, values, groups));
    if (r.dtype() != PhysicalType(agg.result_type())) {
      TQP_ASSIGN_OR_RETURN(r, Cast(r, PhysicalType(agg.result_type())));
    }
    out.columns.push_back(std::move(r));
  }
  out.rows = groups.num_groups;
  return out;
}

Result<Block> ExecSort(const PlanNode& node, Ctx* ctx) {
  TQP_ASSIGN_OR_RETURN(Block in, Exec(*node.children[0], ctx));
  std::vector<Tensor> keys;
  std::vector<bool> asc;
  for (const SortKey& k : node.sort_keys) {
    TQP_ASSIGN_OR_RETURN(Tensor kt, EvalCharged(*k.expr, in, ctx));
    keys.push_back(std::move(kt));
    asc.push_back(k.ascending);
  }
  const int64_t n = std::max<int64_t>(in.rows, 2);
  const auto log_passes =
      static_cast<int64_t>(std::ceil(std::log2(static_cast<double>(n))));
  ctx->Charge(keys.back().nbytes() * log_passes, in.rows * 8, false, log_passes);
  TQP_ASSIGN_OR_RETURN(Tensor perm, ArgsortRows(keys.back(), asc.back()));
  for (size_t i = keys.size() - 1; i-- > 0;) {
    TQP_ASSIGN_OR_RETURN(Tensor gathered, Gather(keys[i], perm));
    ctx->Charge(keys[i].nbytes() * log_passes, in.rows * 8, false, log_passes);
    TQP_ASSIGN_OR_RETURN(Tensor p2, ArgsortRows(gathered, asc[i]));
    TQP_ASSIGN_OR_RETURN(perm, Gather(perm, p2));
  }
  Block out;
  out.rows = in.rows;
  for (const Tensor& c : in.columns) {
    ctx->Charge(c.nbytes(), c.nbytes(), true);
    TQP_ASSIGN_OR_RETURN(Tensor g, Gather(c, perm));
    out.columns.push_back(std::move(g));
  }
  return out;
}

Result<Block> Exec(const PlanNode& node, Ctx* ctx) {
  switch (node.kind) {
    case PlanKind::kScan:
      return ExecScan(node, ctx);
    case PlanKind::kFilter:
      return ExecFilter(node, ctx);
    case PlanKind::kProject:
      return ExecProject(node, ctx);
    case PlanKind::kJoin:
      return ExecJoin(node, ctx);
    case PlanKind::kAggregate:
      return ExecAggregate(node, ctx);
    case PlanKind::kSort:
      return ExecSort(node, ctx);
    case PlanKind::kLimit: {
      TQP_ASSIGN_OR_RETURN(Block in, Exec(*node.children[0], ctx));
      Block out;
      const int64_t n = std::min<int64_t>(node.limit, in.rows);
      for (const Tensor& c : in.columns) {
        ctx->Charge(n * DTypeSize(c.dtype()) * c.cols(),
                    n * DTypeSize(c.dtype()) * c.cols());
        TQP_ASSIGN_OR_RETURN(Tensor h, c.SliceRows(0, n).Clone());
        out.columns.push_back(std::move(h));
      }
      out.rows = n;
      return out;
    }
  }
  return Status::Internal("ColumnarEngine: unknown node");
}

}  // namespace

Result<Table> ColumnarEngine::Execute(const PlanPtr& plan) const {
  Ctx ctx{catalog_, models_, GetDevice(device_), charge_transfers_, 0};
  TQP_ASSIGN_OR_RETURN(Block result, Exec(*plan, &ctx));
  last_kernels_ = ctx.kernels;
  std::vector<Column> columns;
  for (size_t i = 0; i < result.columns.size(); ++i) {
    // Device -> host result transfer.
    if (charge_transfers_) ctx.device->RecordTransfer(result.columns[i].nbytes());
    columns.emplace_back(plan->output_schema.field(static_cast<int>(i)).type,
                         result.columns[i]);
  }
  return Table::Make(plan->output_schema, std::move(columns));
}

Result<Table> ColumnarEngine::ExecuteSql(const std::string& sql,
                                         const PhysicalOptions& options) const {
  TQP_ASSIGN_OR_RETURN(PlanPtr plan, PlanQuery(sql, *catalog_, options, models_));
  return Execute(plan);
}

}  // namespace tqp
