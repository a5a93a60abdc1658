#include "graph/eval.h"

#include <algorithm>
#include <cmath>

#include "graph/op_type.h"
#include "kernels/kernels.h"
#include "kernels/sort_internal.h"
#include "obs/trace.h"

namespace tqp {

namespace {

const Tensor& In(const std::vector<Tensor>& values, const OpNode& node, int i) {
  return values[static_cast<size_t>(node.inputs[static_cast<size_t>(i)])];
}

}  // namespace

Result<Tensor> EvalGroupIds(const OpNode& node, const std::vector<Tensor>& values,
                            const kernels::ArgsortFn& argsort) {
  std::vector<Tensor> keys;
  keys.reserve(node.inputs.size());
  for (int id : node.inputs) keys.push_back(values[static_cast<size_t>(id)]);
  kernels::GroupIdsPath path;
  TQP_ASSIGN_OR_RETURN(Tensor ids, kernels::GroupIdsWith(keys, argsort, &path));
  if (obs::TraceSpan* span = obs::TraceSpan::Current()) {
    span->AddArg("domain", path.dense ? path.domain : -1);
  }
  return ids;
}

Result<Tensor> EvalArgsort(const OpNode& node, const std::vector<Tensor>& values,
                           const OrderedArgsortFn& argsort) {
  bool ordered = false;
  TQP_ASSIGN_OR_RETURN(Tensor perm, argsort(In(values, node, 0), &ordered));
  if (obs::TraceSpan* span = obs::TraceSpan::Current()) {
    span->AddArg("ordered", ordered ? 1 : 0);
  }
  return perm;
}

Result<Tensor> EvalNode(const TensorProgram& program, const OpNode& node,
                        const std::vector<Tensor>& values) {
  using namespace tqp::kernels;  // NOLINT: single dispatch point for all kernels
  switch (node.type) {
    case OpType::kInput:
      return Status::Internal("EvalNode called on input node");
    case OpType::kConstant:
      return program.constant(static_cast<int>(node.attrs.GetInt("const_id")));
    case OpType::kBinary:
      return BinaryOp(static_cast<BinaryOpKind>(node.attrs.GetInt("op")),
                      In(values, node, 0), In(values, node, 1));
    case OpType::kCompare:
      return Compare(static_cast<CompareOpKind>(node.attrs.GetInt("op")),
                     In(values, node, 0), In(values, node, 1));
    case OpType::kLogical:
      return Logical(static_cast<LogicalOpKind>(node.attrs.GetInt("op")),
                     In(values, node, 0), In(values, node, 1));
    case OpType::kUnary:
      return Unary(static_cast<UnaryOpKind>(node.attrs.GetInt("op")),
                   In(values, node, 0));
    case OpType::kCast:
      return Cast(In(values, node, 0), static_cast<DType>(node.attrs.GetInt("dtype")));
    case OpType::kWhere:
      return Where(In(values, node, 0), In(values, node, 1), In(values, node, 2));
    case OpType::kNonzero:
      return Nonzero(In(values, node, 0));
    case OpType::kCompress:
      return Compress(In(values, node, 0), In(values, node, 1));
    case OpType::kGather:
      return Gather(In(values, node, 0), In(values, node, 1));
    case OpType::kScatter: {
      const Tensor& count = In(values, node, 2);
      if (count.numel() != 1) {
        return Status::Invalid("scatter: row count must be scalar");
      }
      return Scatter(In(values, node, 0), In(values, node, 1),
                     count.ScalarAsInt64(0));
    }
    case OpType::kConcatRows: {
      std::vector<Tensor> parts;
      parts.reserve(node.inputs.size());
      for (size_t i = 0; i < node.inputs.size(); ++i) {
        parts.push_back(In(values, node, static_cast<int>(i)));
      }
      return ConcatRows(parts);
    }
    case OpType::kRepeatInterleave:
      return RepeatInterleave(In(values, node, 0), In(values, node, 1));
    case OpType::kReduceAll:
      return ReduceAll(static_cast<ReduceOpKind>(node.attrs.GetInt("op")),
                       In(values, node, 0));
    case OpType::kCumSum:
      return CumSum(In(values, node, 0));
    case OpType::kSegmentedReduce: {
      const Tensor& count = In(values, node, 2);
      if (count.numel() != 1) {
        return Status::Invalid("segmented_reduce: num_segments must be scalar");
      }
      return SegmentedReduce(static_cast<ReduceOpKind>(node.attrs.GetInt("op")),
                             In(values, node, 0), In(values, node, 1),
                             count.ScalarAsInt64(0));
    }
    case OpType::kArgsortRows:
      return EvalArgsort(node, values, [&node](const Tensor& key, bool* ordered) {
        return ArgsortRows(key, node.attrs.GetBool("ascending"), ordered);
      });
    case OpType::kSearchSorted:
      return SearchSorted(In(values, node, 0), In(values, node, 1),
                          node.attrs.GetBool("right"));
    case OpType::kGroupIds:
      return EvalGroupIds(node, values,
                          [](const Tensor& key) { return ArgsortRows(key); });
    case OpType::kGroupCount:
      return GroupCount(In(values, node, 0));
    case OpType::kHashRows:
      return HashRows(In(values, node, 0));
    case OpType::kHashCombine:
      return HashCombine(In(values, node, 0), In(values, node, 1));
    case OpType::kMatMul:
      return MatMul(In(values, node, 0), In(values, node, 1));
    case OpType::kMatMulAddBias:
      return MatMulAddBias(In(values, node, 0), In(values, node, 1),
                           In(values, node, 2));
    case OpType::kEmbeddingBagSum:
      return EmbeddingBagSum(In(values, node, 0), In(values, node, 1));
    case OpType::kArangeLike:
      return Tensor::Arange(In(values, node, 0).rows(), DType::kInt64,
                            In(values, node, 0).device());
    case OpType::kHeadRows: {
      const Tensor& t = In(values, node, 0);
      const int64_t n = std::min<int64_t>(node.attrs.GetInt("n"), t.rows());
      return t.SliceRows(0, n).Clone();
    }
    case OpType::kGatherCols:
      return GatherCols(In(values, node, 0), In(values, node, 1));
    case OpType::kConcatCols: {
      std::vector<Tensor> parts;
      parts.reserve(node.inputs.size());
      for (size_t i = 0; i < node.inputs.size(); ++i) {
        parts.push_back(In(values, node, static_cast<int>(i)));
      }
      return ConcatCols(parts);
    }
    case OpType::kHashTokenize:
      return HashTokenize(In(values, node, 0), node.attrs.GetInt("vocab"),
                          node.attrs.GetInt("max_tokens"));
    case OpType::kStringCompareScalar:
      return StringCompareScalar(static_cast<CompareOpKind>(node.attrs.GetInt("op")),
                                 In(values, node, 0), node.attrs.GetString("literal"));
    case OpType::kStringCompare:
      return StringCompare(static_cast<CompareOpKind>(node.attrs.GetInt("op")),
                           In(values, node, 0), In(values, node, 1));
    case OpType::kStringLike:
      return StringLike(In(values, node, 0), node.attrs.GetString("pattern"));
    case OpType::kSubstring:
      return Substring(In(values, node, 0), node.attrs.GetInt("start"),
                       node.attrs.GetInt("len"));
  }
  return Status::Internal("EvalNode: unknown op");
}

KernelCost EstimateNodeCost(const OpNode& node, const std::vector<Tensor>& values,
                            const Tensor& output, bool* irregular) {
  KernelCost cost;
  *irregular = false;
  int64_t in_bytes = 0;
  int64_t in_rows = 0;
  for (int id : node.inputs) {
    const Tensor& t = values[static_cast<size_t>(id)];
    if (t.defined()) {
      in_bytes += t.nbytes();
      in_rows = std::max(in_rows, t.rows());
    }
  }
  cost.bytes_read = in_bytes;
  cost.bytes_written = output.defined() ? output.nbytes() : 0;
  cost.flops = output.defined() ? output.numel() : in_rows;
  switch (node.type) {
    case OpType::kArgsortRows: {
      // Radix/merge sorts make O(log n) bandwidth-bound passes.
      const int64_t n = std::max<int64_t>(in_rows, 2);
      cost.passes = static_cast<int64_t>(std::ceil(std::log2(static_cast<double>(n))));
      cost.bytes_read *= cost.passes;
      cost.bytes_written *= cost.passes;
      break;
    }
    case OpType::kGather:
    case OpType::kScatter:
    case OpType::kGroupIds:
    case OpType::kCompress:
    case OpType::kNonzero:
    case OpType::kHashRows:
    case OpType::kHashCombine:
    case OpType::kSearchSorted:
    case OpType::kEmbeddingBagSum:
    case OpType::kRepeatInterleave:
    case OpType::kGatherCols:
    case OpType::kHashTokenize:
      *irregular = true;
      break;
    case OpType::kMatMul:
    case OpType::kMatMulAddBias: {
      // flops = 2 n k m.
      if (node.inputs.size() >= 2) {
        const Tensor& a = values[static_cast<size_t>(node.inputs[0])];
        const Tensor& b = values[static_cast<size_t>(node.inputs[1])];
        if (a.defined() && b.defined()) {
          cost.flops = 2 * a.rows() * a.cols() * b.cols();
        }
      }
      break;
    }
    case OpType::kSegmentedReduce:
    case OpType::kCumSum:
      // Scans are bandwidth bound with a small constant of extra passes.
      cost.passes = 2;
      break;
    default:
      break;
  }
  return cost;
}

Status EvalTracedNode(const TensorProgram& program, const OpNode& node,
                      std::vector<Tensor>* values, Device* device) {
  obs::TraceSpan op_span("op", OpTypeName(node.type));
  if (op_span.enabled()) {
    op_span.AddArg("node", node.id);
    op_span.SetDetail(node.label);
  }
  TQP_ASSIGN_OR_RETURN(Tensor out, EvalNode(program, node, *values));
  if (op_span.enabled()) op_span.AddArg("output_bytes", out.nbytes());
  if (device->is_simulated()) {
    bool irregular = false;
    device->RecordKernel(EstimateNodeCost(node, *values, out, &irregular),
                         irregular);
  }
  (*values)[static_cast<size_t>(node.id)] = std::move(out);
  return Status::OK();
}

}  // namespace tqp
