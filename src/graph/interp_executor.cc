#include "graph/interp_executor.h"

#include <algorithm>
#include <cmath>

#include "common/cancel.h"
#include "graph/eval.h"
#include "graph/op_type.h"
#include "graph/serialize.h"
#include "kernels/kernel_types.h"
#include "obs/trace.h"

namespace tqp {

namespace {

// Scalar (per-element, double-boxed) evaluation of pointwise ops: the
// "no SIMD, generic numeric cell" execution model of a browser runtime.
// Output dtypes replicate the vectorized kernels' promotion rules so the
// interpreter stays bit-compatible with the other executors.

DType PromoteArith(DType a, DType b) {
  DType dt = PromoteTypes(a, b);
  if (dt == DType::kBool || dt == DType::kUInt8) dt = DType::kInt32;
  return dt;
}

// The browser model: every cell access goes through an indirect call (the
// moral equivalent of a bytecode interpreter's dispatch loop + JS number
// boxing). The volatile function pointers keep the compiler from inlining
// and re-vectorizing what a WASM-without-SIMD runtime executes scalar.
void WriteBoxedImpl(Tensor* t, int64_t idx, double v) {
  switch (t->dtype()) {
    case DType::kBool:
      t->mutable_data<bool>()[idx] = v != 0.0;
      break;
    case DType::kUInt8:
      t->mutable_data<uint8_t>()[idx] = static_cast<uint8_t>(v);
      break;
    case DType::kInt32:
      t->mutable_data<int32_t>()[idx] = static_cast<int32_t>(v);
      break;
    case DType::kInt64:
      t->mutable_data<int64_t>()[idx] = static_cast<int64_t>(v);
      break;
    case DType::kFloat32:
      t->mutable_data<float>()[idx] = static_cast<float>(v);
      break;
    case DType::kFloat64:
      t->mutable_data<double>()[idx] = v;
      break;
  }
}

double ReadBoxedImpl(const Tensor& t, int64_t i, int64_t j) {
  return t.ScalarAsDouble(i, j);
}

using WriteFn = void (*)(Tensor*, int64_t, double);
using ReadFn = double (*)(const Tensor&, int64_t, int64_t);
volatile WriteFn g_write_boxed = &WriteBoxedImpl;
volatile ReadFn g_read_boxed = &ReadBoxedImpl;

inline void WriteBoxed(Tensor* t, int64_t idx, double v) {
  g_write_boxed(t, idx, v);
}

inline double ReadBoxed(const Tensor& t, int64_t i, int64_t j) {
  return g_read_boxed(t, i, j);
}

// Broadcast-aware boxed read.
double ReadBroadcast(const Tensor& t, int64_t i, int64_t j) {
  const int64_t bi = t.rows() == 1 ? 0 : i;
  const int64_t bj = t.cols() == 1 ? 0 : j;
  return ReadBoxed(t, bi, bj);
}

double ApplyBinary(BinaryOpKind op, double x, double y, bool integral) {
  switch (op) {
    case BinaryOpKind::kAdd:
      return x + y;
    case BinaryOpKind::kSub:
      return x - y;
    case BinaryOpKind::kMul:
      return x * y;
    case BinaryOpKind::kDiv:
      if (integral) {
        return y == 0 ? 0 : std::trunc(x / y);
      }
      return x / y;
    case BinaryOpKind::kMod:
      if (y == 0) return 0;
      return integral ? static_cast<double>(static_cast<int64_t>(x) %
                                            static_cast<int64_t>(y))
                      : std::fmod(x, y);
    case BinaryOpKind::kMin:
      return x < y ? x : y;
    case BinaryOpKind::kMax:
      return x > y ? x : y;
  }
  return 0;
}

double ApplyCompareOp(CompareOpKind op, double x, double y) {
  switch (op) {
    case CompareOpKind::kEq:
      return x == y;
    case CompareOpKind::kNe:
      return x != y;
    case CompareOpKind::kLt:
      return x < y;
    case CompareOpKind::kLe:
      return x <= y;
    case CompareOpKind::kGt:
      return x > y;
    case CompareOpKind::kGe:
      return x >= y;
  }
  return 0;
}

double ApplyUnary(UnaryOpKind op, double x) {
  switch (op) {
    case UnaryOpKind::kNeg:
      return -x;
    case UnaryOpKind::kAbs:
      return std::abs(x);
    case UnaryOpKind::kExp:
      return std::exp(x);
    case UnaryOpKind::kLog:
      return std::log(x);
    case UnaryOpKind::kSqrt:
      return std::sqrt(x);
    case UnaryOpKind::kSigmoid:
      return 1.0 / (1.0 + std::exp(-x));
    case UnaryOpKind::kTanh:
      return std::tanh(x);
    case UnaryOpKind::kRelu:
      return x > 0 ? x : 0;
    case UnaryOpKind::kNot:
      return x == 0.0 ? 1.0 : 0.0;
  }
  return 0;
}

// Returns true when the op was handled by the scalar interpreter.
Result<bool> TryScalarEval(const TensorProgram& prog, const OpNode& node,
                           const std::vector<Tensor>& values, Tensor* out) {
  auto input = [&](int i) -> const Tensor& {
    return values[static_cast<size_t>(node.inputs[static_cast<size_t>(i)])];
  };
  switch (node.type) {
    case OpType::kBinary: {
      const Tensor& a = input(0);
      const Tensor& b = input(1);
      const DType dt = PromoteArith(a.dtype(), b.dtype());
      const bool integral = IsInteger(dt);
      const int64_t rows = a.rows() == 1 ? b.rows() : a.rows();
      const int64_t cols = a.cols() == 1 ? b.cols() : a.cols();
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Empty(dt, rows, cols, a.device()));
      const auto op = static_cast<BinaryOpKind>(node.attrs.GetInt("op"));
      for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
          WriteBoxed(out, i * cols + j,
                     ApplyBinary(op, ReadBroadcast(a, i, j), ReadBroadcast(b, i, j),
                                 integral));
        }
      }
      return true;
    }
    case OpType::kCompare: {
      const Tensor& a = input(0);
      const Tensor& b = input(1);
      const int64_t rows = a.rows() == 1 ? b.rows() : a.rows();
      const int64_t cols = a.cols() == 1 ? b.cols() : a.cols();
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Empty(DType::kBool, rows, cols, a.device()));
      const auto op = static_cast<CompareOpKind>(node.attrs.GetInt("op"));
      for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
          WriteBoxed(out, i * cols + j,
                     ApplyCompareOp(op, ReadBroadcast(a, i, j), ReadBroadcast(b, i, j)));
        }
      }
      return true;
    }
    case OpType::kLogical: {
      const Tensor& a = input(0);
      const Tensor& b = input(1);
      const int64_t rows = a.rows() == 1 ? b.rows() : a.rows();
      const int64_t cols = a.cols() == 1 ? b.cols() : a.cols();
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Empty(DType::kBool, rows, cols, a.device()));
      const auto op = static_cast<LogicalOpKind>(node.attrs.GetInt("op"));
      for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
          const bool x = ReadBroadcast(a, i, j) != 0.0;
          const bool y = ReadBroadcast(b, i, j) != 0.0;
          const bool r = op == LogicalOpKind::kAnd   ? (x && y)
                         : op == LogicalOpKind::kOr ? (x || y)
                                                    : (x != y);
          WriteBoxed(out, i * cols + j, r ? 1.0 : 0.0);
        }
      }
      return true;
    }
    case OpType::kUnary: {
      const Tensor& a = input(0);
      const auto op = static_cast<UnaryOpKind>(node.attrs.GetInt("op"));
      DType dt;
      if (op == UnaryOpKind::kNot) {
        dt = DType::kBool;
      } else if (op == UnaryOpKind::kNeg || op == UnaryOpKind::kAbs ||
                 op == UnaryOpKind::kRelu) {
        dt = a.dtype();
        if (dt == DType::kBool || dt == DType::kUInt8) dt = DType::kInt32;
      } else {
        dt = a.dtype() == DType::kFloat32 ? DType::kFloat32 : DType::kFloat64;
      }
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Empty(dt, a.rows(), a.cols(), a.device()));
      for (int64_t i = 0; i < a.rows(); ++i) {
        for (int64_t j = 0; j < a.cols(); ++j) {
          WriteBoxed(out, i * a.cols() + j, ApplyUnary(op, ReadBoxed(a, i, j)));
        }
      }
      return true;
    }
    case OpType::kCast: {
      const Tensor& a = input(0);
      const DType dt = static_cast<DType>(node.attrs.GetInt("dtype"));
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Empty(dt, a.rows(), a.cols(), a.device()));
      for (int64_t i = 0; i < a.rows(); ++i) {
        for (int64_t j = 0; j < a.cols(); ++j) {
          WriteBoxed(out, i * a.cols() + j, ReadBoxed(a, i, j));
        }
      }
      return true;
    }
    case OpType::kWhere: {
      const Tensor& c = input(0);
      const Tensor& a = input(1);
      const Tensor& b = input(2);
      const DType dt = PromoteTypes(a.dtype(), b.dtype());
      int64_t rows = std::max({c.rows(), a.rows(), b.rows()});
      int64_t cols = std::max({c.cols(), a.cols(), b.cols()});
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Empty(dt, rows, cols, a.device()));
      for (int64_t i = 0; i < rows; ++i) {
        for (int64_t j = 0; j < cols; ++j) {
          const bool cond = ReadBroadcast(c, i, j) != 0.0;
          WriteBoxed(out, i * cols + j,
                     cond ? ReadBroadcast(a, i, j) : ReadBroadcast(b, i, j));
        }
      }
      return true;
    }
    case OpType::kReduceAll: {
      const Tensor& a = input(0);
      const auto op = static_cast<ReduceOpKind>(node.attrs.GetInt("op"));
      if (op == ReduceOpKind::kMin || op == ReduceOpKind::kMax) {
        if (a.numel() == 0) return Status::Invalid("Min/Max over empty tensor");
      }
      double acc = 0;
      if (op == ReduceOpKind::kCount) {
        acc = static_cast<double>(a.rows());
      } else {
        bool first = true;
        for (int64_t i = 0; i < a.rows(); ++i) {
          for (int64_t j = 0; j < a.cols(); ++j) {
            const double v = ReadBoxed(a, i, j);
            if (op == ReduceOpKind::kSum) {
              acc += v;
            } else if (first) {
              acc = v;
              first = false;
            } else {
              acc = op == ReduceOpKind::kMin ? std::min(acc, v) : std::max(acc, v);
            }
          }
        }
      }
      const DType dt = op == ReduceOpKind::kCount
                           ? DType::kInt64
                           : (op == ReduceOpKind::kSum ? DType::kFloat64 : a.dtype());
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Full(dt, 1, 1, acc, a.device()));
      return true;
    }
    case OpType::kCumSum: {
      const Tensor& a = input(0);
      const DType dt =
          IsFloatingPoint(a.dtype()) ? DType::kFloat64 : DType::kInt64;
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Empty(dt, a.rows(), 1, a.device()));
      double acc = 0;
      for (int64_t i = 0; i < a.rows(); ++i) {
        acc += ReadBoxed(a, i, 0);
        WriteBoxed(out, i, acc);
      }
      return true;
    }
    case OpType::kGather: {
      // Boxed per-element copy (no memcpy fast path in the browser model).
      const Tensor& a = input(0);
      const Tensor& idx = input(1);
      TQP_ASSIGN_OR_RETURN(*out,
                           Tensor::Empty(a.dtype(), idx.rows(), a.cols(), a.device()));
      for (int64_t i = 0; i < idx.rows(); ++i) {
        const int64_t r = idx.ScalarAsInt64(i);
        if (r < 0 || r >= a.rows()) {
          return Status::IndexError("gather index out of range");
        }
        for (int64_t j = 0; j < a.cols(); ++j) {
          WriteBoxed(out, i * a.cols() + j, ReadBoxed(a, r, j));
        }
      }
      return true;
    }
    case OpType::kCompress: {
      const Tensor& a = input(0);
      const Tensor& mask = input(1);
      if (mask.dtype() != DType::kBool || mask.rows() != a.rows()) {
        return Status::Invalid("compress: bad mask");
      }
      int64_t kept = 0;
      for (int64_t i = 0; i < mask.rows(); ++i) kept += mask.at<bool>(i) ? 1 : 0;
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Empty(a.dtype(), kept, a.cols(), a.device()));
      int64_t w = 0;
      for (int64_t i = 0; i < a.rows(); ++i) {
        if (!mask.at<bool>(i)) continue;
        for (int64_t j = 0; j < a.cols(); ++j) {
          WriteBoxed(out, w * a.cols() + j, ReadBoxed(a, i, j));
        }
        ++w;
      }
      return true;
    }
    case OpType::kArgsortRows: {
      const Tensor& a = input(0);
      TQP_ASSIGN_OR_RETURN(*out, Tensor::Empty(DType::kInt64, a.rows(), 1, a.device()));
      int64_t* po = out->mutable_data<int64_t>();
      for (int64_t i = 0; i < a.rows(); ++i) po[i] = i;
      const bool ascending = node.attrs.GetBool("ascending");
      // Boxed comparator: every comparison re-reads through the generic cell
      // accessor, as a numeric-boxing runtime would.
      std::stable_sort(po, po + a.rows(), [&](int64_t x, int64_t y) {
        for (int64_t j = 0; j < a.cols(); ++j) {
          const double vx = ReadBoxed(a, x, j);
          const double vy = ReadBoxed(a, y, j);
          if (vx == vy) continue;
          // NaN after every number, as kernels::CompareRows orders it.
          const bool x_nan = vx != vx;
          const bool y_nan = vy != vy;
          if (x_nan || y_nan) {
            if (x_nan && y_nan) continue;
            return ascending ? y_nan : x_nan;
          }
          return ascending ? vx < vy : vx > vy;
        }
        return false;
      });
      return true;
    }
    case OpType::kSearchSorted: {
      const Tensor& sorted = input(0);
      const Tensor& values = input(1);
      const bool right = node.attrs.GetBool("right");
      TQP_ASSIGN_OR_RETURN(
          *out, Tensor::Empty(DType::kInt64, values.rows(), 1, values.device()));
      int64_t* po = out->mutable_data<int64_t>();
      for (int64_t i = 0; i < values.rows(); ++i) {
        const double v = ReadBoxed(values, i, 0);
        int64_t lo = 0;
        int64_t hi = sorted.rows();
        while (lo < hi) {
          const int64_t mid = (lo + hi) / 2;
          const double s = ReadBoxed(sorted, mid, 0);
          if (right ? s <= v : s < v) {
            lo = mid + 1;
          } else {
            hi = mid;
          }
        }
        po[i] = lo;
      }
      return true;
    }
    case OpType::kSegmentedReduce: {
      const Tensor& values_t = input(0);
      const Tensor& ids = input(1);
      const int64_t num_segments = input(2).ScalarAsInt64(0);
      const auto op = static_cast<ReduceOpKind>(node.attrs.GetInt("op"));
      const DType dt = op == ReduceOpKind::kCount
                           ? DType::kInt64
                           : (op == ReduceOpKind::kSum ? DType::kFloat64
                                                       : values_t.dtype());
      TQP_ASSIGN_OR_RETURN(*out,
                           Tensor::Empty(dt, num_segments, 1, values_t.device()));
      std::vector<double> acc(static_cast<size_t>(num_segments), 0.0);
      std::vector<bool> seen(static_cast<size_t>(num_segments), false);
      for (int64_t i = 0; i < values_t.rows(); ++i) {
        const int64_t s = ids.ScalarAsInt64(i);
        if (s < 0 || s >= num_segments) {
          return Status::IndexError("segment id out of range");
        }
        const double v = ReadBoxed(values_t, i, 0);
        switch (op) {
          case ReduceOpKind::kSum:
            acc[static_cast<size_t>(s)] += v;
            break;
          case ReduceOpKind::kCount:
            acc[static_cast<size_t>(s)] += 1;
            break;
          case ReduceOpKind::kMin:
            acc[static_cast<size_t>(s)] = seen[static_cast<size_t>(s)]
                                              ? std::min(acc[static_cast<size_t>(s)], v)
                                              : v;
            break;
          case ReduceOpKind::kMax:
            acc[static_cast<size_t>(s)] = seen[static_cast<size_t>(s)]
                                              ? std::max(acc[static_cast<size_t>(s)], v)
                                              : v;
            break;
        }
        seen[static_cast<size_t>(s)] = true;
      }
      for (int64_t s = 0; s < num_segments; ++s) {
        WriteBoxed(out, s, acc[static_cast<size_t>(s)]);
      }
      return true;
    }
    default:
      (void)prog;
      return false;
  }
}

}  // namespace

Result<std::unique_ptr<InterpExecutor>> InterpExecutor::Make(
    std::shared_ptr<const TensorProgram> program) {
  std::string bytecode = SerializeProgram(*program);
  TQP_ASSIGN_OR_RETURN(TensorProgram reloaded, DeserializeProgram(bytecode));
  return std::unique_ptr<InterpExecutor>(
      new InterpExecutor(std::move(bytecode), std::move(reloaded)));
}

Result<std::vector<Tensor>> InterpExecutor::Run(const std::vector<Tensor>& inputs) {
  const TensorProgram& prog = program_;
  if (inputs.size() != prog.input_nodes().size()) {
    return Status::Invalid("executor expects " +
                           std::to_string(prog.input_nodes().size()) +
                           " inputs, got " + std::to_string(inputs.size()));
  }
  std::vector<Tensor> values(static_cast<size_t>(prog.num_nodes()));
  for (size_t i = 0; i < inputs.size(); ++i) {
    values[static_cast<size_t>(prog.input_nodes()[i])] = inputs[i];
  }
  for (const OpNode& node : prog.nodes()) {
    if (node.type == OpType::kInput) continue;
    // Node-boundary cancellation/deadline poll (cooperative contract).
    TQP_RETURN_NOT_OK(CheckAmbientCancelled());
    obs::TraceSpan op_span("op", OpTypeName(node.type));
    if (op_span.enabled()) {
      op_span.AddArg("node", node.id);
      op_span.SetDetail(node.label);
    }
    Tensor out;
    TQP_ASSIGN_OR_RETURN(bool handled, TryScalarEval(prog, node, values, &out));
    if (!handled) {
      TQP_ASSIGN_OR_RETURN(out, EvalNode(prog, node, values));
    }
    if (op_span.enabled()) op_span.AddArg("output_bytes", out.nbytes());
    values[static_cast<size_t>(node.id)] = std::move(out);
  }
  std::vector<Tensor> outputs;
  outputs.reserve(prog.outputs().size());
  for (int id : prog.outputs()) {
    outputs.push_back(values[static_cast<size_t>(id)]);
  }
  return outputs;
}

}  // namespace tqp
