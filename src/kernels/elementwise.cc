#include "kernels/elementwise.h"

#include <cmath>
#include <string>

#include "kernels/lane_ops.h"

namespace tqp::kernels {

namespace {

// Validates broadcast compatibility and computes the output shape.
Status BroadcastShape(const Tensor& a, const Tensor& b, int64_t* rows,
                      int64_t* cols) {
  auto dim_ok = [](int64_t x, int64_t y) { return x == y || x == 1 || y == 1; };
  if (!dim_ok(a.rows(), b.rows()) || !dim_ok(a.cols(), b.cols())) {
    return Status::Invalid("incompatible broadcast shapes " +
                           std::to_string(a.rows()) + "x" + std::to_string(a.cols()) +
                           " vs " + std::to_string(b.rows()) + "x" +
                           std::to_string(b.cols()));
  }
  *rows = a.rows() == 1 ? b.rows() : a.rows();
  *cols = a.cols() == 1 ? b.cols() : a.cols();
  return Status::OK();
}

// Applies f elementwise with broadcasting; Out is the output element type.
template <typename T, typename Out, typename F>
void BinaryLoop(const Tensor& a, const Tensor& b, Tensor* out, F f) {
  const T* pa = a.data<T>();
  const T* pb = b.data<T>();
  Out* po = out->mutable_data<Out>();
  const int64_t rows = out->rows();
  const int64_t cols = out->cols();
  if (a.rows() == rows && a.cols() == cols && b.rows() == rows &&
      b.cols() == cols) {
    const int64_t n = rows * cols;
    for (int64_t i = 0; i < n; ++i) po[i] = f(pa[i], pb[i]);
    return;
  }
  const int64_t ar = a.rows() == 1 ? 0 : 1;
  const int64_t ac = a.cols() == 1 ? 0 : 1;
  const int64_t br = b.rows() == 1 ? 0 : 1;
  const int64_t bc = b.cols() == 1 ? 0 : 1;
  for (int64_t i = 0; i < rows; ++i) {
    for (int64_t j = 0; j < cols; ++j) {
      const T x = pa[(i * ar) * a.cols() + j * ac];
      const T y = pb[(i * br) * b.cols() + j * bc];
      po[i * cols + j] = f(x, y);
    }
  }
}

// Per-lane arithmetic comes from kernels/lane_ops.h — the one definition
// shared with the fused interpreter — so this file only owns the
// broadcasting loop shape.
template <typename T>
Status BinaryOpTyped(BinaryOpKind op, const Tensor& a, const Tensor& b,
                     Tensor* out) {
  return lane::WithBinaryLane<T>(
      op, [&](auto f) { BinaryLoop<T, T>(a, b, out, f); });
}

template <typename T>
Status CompareTyped(CompareOpKind op, const Tensor& a, const Tensor& b,
                    Tensor* out) {
  return lane::WithCompareLane<T>(
      op, [&](auto f) { BinaryLoop<T, bool>(a, b, out, f); });
}

template <typename From, typename To>
void CastLoop(const Tensor& a, Tensor* out) {
  const From* pa = a.data<From>();
  To* po = out->mutable_data<To>();
  const int64_t n = a.numel();
  for (int64_t i = 0; i < n; ++i) po[i] = lane::CastLane<From, To>(pa[i]);
}

template <typename From>
Status CastFrom(const Tensor& a, DType to, Tensor* out) {
  switch (to) {
    case DType::kBool:
      CastLoop<From, bool>(a, out);
      return Status::OK();
    case DType::kUInt8:
      CastLoop<From, uint8_t>(a, out);
      return Status::OK();
    case DType::kInt32:
      CastLoop<From, int32_t>(a, out);
      return Status::OK();
    case DType::kInt64:
      CastLoop<From, int64_t>(a, out);
      return Status::OK();
    case DType::kFloat32:
      CastLoop<From, float>(a, out);
      return Status::OK();
    case DType::kFloat64:
      CastLoop<From, double>(a, out);
      return Status::OK();
  }
  return Status::Internal("unknown cast target");
}

// Materializes a scalar as a 1x1 tensor of the requested dtype.
Result<Tensor> ScalarTensor(const Scalar& s, DType dtype) {
  if (!s.is_numeric()) {
    return Status::TypeError("numeric scalar required, got " + s.ToString());
  }
  return Tensor::Full(dtype, 1, 1, s.AsDouble());
}

}  // namespace

Result<Tensor> BinaryOp(BinaryOpKind op, const Tensor& a, const Tensor& b) {
  int64_t rows = 0;
  int64_t cols = 0;
  TQP_RETURN_NOT_OK(BroadcastShape(a, b, &rows, &cols));
  DType dt = PromoteTypes(a.dtype(), b.dtype());
  // Arithmetic on booleans happens in int32 (SQL: SUM(CASE ...) etc.).
  if (dt == DType::kBool || dt == DType::kUInt8) dt = DType::kInt32;
  TQP_ASSIGN_OR_RETURN(Tensor ca, Cast(a, dt));
  TQP_ASSIGN_OR_RETURN(Tensor cb, Cast(b, dt));
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(dt, rows, cols, a.device()));
  switch (dt) {
    case DType::kInt32:
      TQP_RETURN_NOT_OK(BinaryOpTyped<int32_t>(op, ca, cb, &out));
      break;
    case DType::kInt64:
      TQP_RETURN_NOT_OK(BinaryOpTyped<int64_t>(op, ca, cb, &out));
      break;
    case DType::kFloat32:
      TQP_RETURN_NOT_OK(BinaryOpTyped<float>(op, ca, cb, &out));
      break;
    case DType::kFloat64:
      TQP_RETURN_NOT_OK(BinaryOpTyped<double>(op, ca, cb, &out));
      break;
    default:
      return Status::TypeError("BinaryOp: unsupported dtype");
  }
  return out;
}

Result<Tensor> Compare(CompareOpKind op, const Tensor& a, const Tensor& b) {
  int64_t rows = 0;
  int64_t cols = 0;
  TQP_RETURN_NOT_OK(BroadcastShape(a, b, &rows, &cols));
  DType dt = PromoteTypes(a.dtype(), b.dtype());
  if (dt == DType::kBool) dt = DType::kUInt8;
  TQP_ASSIGN_OR_RETURN(Tensor ca, Cast(a, dt));
  TQP_ASSIGN_OR_RETURN(Tensor cb, Cast(b, dt));
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kBool, rows, cols, a.device()));
  switch (dt) {
    case DType::kUInt8:
      TQP_RETURN_NOT_OK(CompareTyped<uint8_t>(op, ca, cb, &out));
      break;
    case DType::kInt32:
      TQP_RETURN_NOT_OK(CompareTyped<int32_t>(op, ca, cb, &out));
      break;
    case DType::kInt64:
      TQP_RETURN_NOT_OK(CompareTyped<int64_t>(op, ca, cb, &out));
      break;
    case DType::kFloat32:
      TQP_RETURN_NOT_OK(CompareTyped<float>(op, ca, cb, &out));
      break;
    case DType::kFloat64:
      TQP_RETURN_NOT_OK(CompareTyped<double>(op, ca, cb, &out));
      break;
    default:
      return Status::TypeError("Compare: unsupported dtype");
  }
  return out;
}

Result<Tensor> CompareScalar(CompareOpKind op, const Tensor& a, const Scalar& s) {
  DType dt = PromoteTypes(a.dtype(), s.dtype());
  if (dt == DType::kBool) dt = DType::kUInt8;
  TQP_ASSIGN_OR_RETURN(Tensor sb, ScalarTensor(s, dt));
  return Compare(op, a, sb);
}

Result<Tensor> Logical(LogicalOpKind op, const Tensor& a, const Tensor& b) {
  if (a.dtype() != DType::kBool || b.dtype() != DType::kBool) {
    return Status::TypeError("Logical ops require bool tensors");
  }
  int64_t rows = 0;
  int64_t cols = 0;
  TQP_RETURN_NOT_OK(BroadcastShape(a, b, &rows, &cols));
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kBool, rows, cols, a.device()));
  TQP_RETURN_NOT_OK(lane::WithLogicalLane(
      op, [&](auto f) { BinaryLoop<bool, bool>(a, b, &out, f); }));
  return out;
}

Result<Tensor> Unary(UnaryOpKind op, const Tensor& a) {
  if (op == UnaryOpKind::kNot) {
    if (a.dtype() != DType::kBool) return Status::TypeError("Not requires bool");
    TQP_ASSIGN_OR_RETURN(Tensor out,
                         Tensor::Empty(DType::kBool, a.rows(), a.cols(), a.device()));
    const bool* pa = a.data<bool>();
    bool* po = out.mutable_data<bool>();
    for (int64_t i = 0; i < a.numel(); ++i) po[i] = lane::NotLane(pa[i]);
    return out;
  }
  // Transcendental ops evaluate in float64; Neg/Abs preserve numeric dtype.
  const bool keeps_dtype = op == UnaryOpKind::kNeg || op == UnaryOpKind::kAbs ||
                           op == UnaryOpKind::kRelu;
  DType dt = a.dtype();
  if (keeps_dtype) {
    if (dt == DType::kBool || dt == DType::kUInt8) dt = DType::kInt32;
  } else {
    dt = dt == DType::kFloat32 ? DType::kFloat32 : DType::kFloat64;
  }
  TQP_ASSIGN_OR_RETURN(Tensor ca, Cast(a, dt));
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(dt, a.rows(), a.cols(), a.device()));
  // WithUnaryLane hands back the lane functor already composed with the
  // evaluate-through-double-and-narrow rule.
  const auto run = [&](auto tag) -> Status {
    using T = decltype(tag);
    const T* p = ca.data<T>();
    T* o = out.mutable_data<T>();
    const int64_t n = ca.numel();
    return lane::WithUnaryLane<T>(op, [&](auto f) {
      for (int64_t i = 0; i < n; ++i) o[i] = f(p[i]);
    });
  };
  switch (dt) {
    case DType::kInt32:
      TQP_RETURN_NOT_OK(run(int32_t{}));
      break;
    case DType::kInt64:
      TQP_RETURN_NOT_OK(run(int64_t{}));
      break;
    case DType::kFloat32:
      TQP_RETURN_NOT_OK(run(float{}));
      break;
    case DType::kFloat64:
      TQP_RETURN_NOT_OK(run(double{}));
      break;
    default:
      return Status::TypeError("Unary: unsupported dtype");
  }
  return out;
}

Result<Tensor> Cast(const Tensor& a, DType to) {
  if (a.dtype() == to) return a;
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(to, a.rows(), a.cols(), a.device()));
  switch (a.dtype()) {
    case DType::kBool:
      // bool -> numeric: via uint8 view semantics (false=0, true=1),
      // encoded in lane::CastLane.
      TQP_RETURN_NOT_OK(CastFrom<bool>(a, to, &out));
      return out;
    case DType::kUInt8:
      TQP_RETURN_NOT_OK(CastFrom<uint8_t>(a, to, &out));
      return out;
    case DType::kInt32:
      TQP_RETURN_NOT_OK(CastFrom<int32_t>(a, to, &out));
      return out;
    case DType::kInt64:
      TQP_RETURN_NOT_OK(CastFrom<int64_t>(a, to, &out));
      return out;
    case DType::kFloat32:
      TQP_RETURN_NOT_OK(CastFrom<float>(a, to, &out));
      return out;
    case DType::kFloat64:
      TQP_RETURN_NOT_OK(CastFrom<double>(a, to, &out));
      return out;
  }
  return Status::Internal("unknown source dtype");
}

Result<Tensor> Where(const Tensor& cond, const Tensor& a, const Tensor& b) {
  if (cond.dtype() != DType::kBool) {
    return Status::TypeError("Where: condition must be bool");
  }
  DType dt = PromoteTypes(a.dtype(), b.dtype());
  TQP_ASSIGN_OR_RETURN(Tensor ca, Cast(a, dt));
  TQP_ASSIGN_OR_RETURN(Tensor cb, Cast(b, dt));
  int64_t ab_rows = 0;
  int64_t ab_cols = 0;
  TQP_RETURN_NOT_OK(BroadcastShape(ca, cb, &ab_rows, &ab_cols));
  auto dim_ok = [](int64_t x, int64_t y) { return x == y || x == 1 || y == 1; };
  if (!dim_ok(cond.rows(), ab_rows) || !dim_ok(cond.cols(), ab_cols)) {
    return Status::Invalid("Where: condition shape incompatible with values");
  }
  const int64_t rows = cond.rows() > ab_rows ? cond.rows() : ab_rows;
  const int64_t cols = cond.cols() > ab_cols ? cond.cols() : ab_cols;
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(dt, rows, cols, a.device()));
  const bool* pc = cond.data<bool>();
  const int64_t cr = cond.rows() == 1 ? 0 : 1;
  const int64_t cc = cond.cols() == 1 ? 0 : 1;
  auto run = [&](auto tag) {
    using T = decltype(tag);
    const T* pa = ca.data<T>();
    const T* pb = cb.data<T>();
    T* po = out.mutable_data<T>();
    const int64_t ar = ca.rows() == 1 ? 0 : 1;
    const int64_t ac = ca.cols() == 1 ? 0 : 1;
    const int64_t br = cb.rows() == 1 ? 0 : 1;
    const int64_t bc = cb.cols() == 1 ? 0 : 1;
    for (int64_t i = 0; i < rows; ++i) {
      for (int64_t j = 0; j < cols; ++j) {
        const bool c = pc[(i * cr) * cond.cols() + j * cc];
        po[i * cols + j] = c ? pa[(i * ar) * ca.cols() + j * ac]
                             : pb[(i * br) * cb.cols() + j * bc];
      }
    }
  };
  switch (dt) {
    case DType::kBool:
      run(bool{});
      break;
    case DType::kUInt8:
      run(uint8_t{});
      break;
    case DType::kInt32:
      run(int32_t{});
      break;
    case DType::kInt64:
      run(int64_t{});
      break;
    case DType::kFloat32:
      run(float{});
      break;
    case DType::kFloat64:
      run(double{});
      break;
  }
  return out;
}

}  // namespace tqp::kernels
