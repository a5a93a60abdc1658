#include "kernels/reduce.h"

#include <algorithm>
#include <limits>
#include <string>

#include "kernels/elementwise.h"

namespace tqp::kernels {

namespace {

template <typename T>
double SumTyped(const Tensor& a) {
  const T* p = a.data<T>();
  double acc = 0;
  for (int64_t i = 0; i < a.numel(); ++i) acc += static_cast<double>(p[i]);
  return acc;
}

template <typename T>
T MinTyped(const Tensor& a) {
  const T* p = a.data<T>();
  T best = p[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::min(best, p[i]);
  return best;
}

template <typename T>
T MaxTyped(const Tensor& a) {
  const T* p = a.data<T>();
  T best = p[0];
  for (int64_t i = 1; i < a.numel(); ++i) best = std::max(best, p[i]);
  return best;
}

template <typename F>
Result<double> DispatchNumeric(const Tensor& a, F f) {
  switch (a.dtype()) {
    case DType::kBool:
      return f(bool{});
    case DType::kUInt8:
      return f(uint8_t{});
    case DType::kInt32:
      return f(int32_t{});
    case DType::kInt64:
      return f(int64_t{});
    case DType::kFloat32:
      return f(float{});
    case DType::kFloat64:
      return f(double{});
  }
  return Status::TypeError("unsupported dtype");
}

}  // namespace

Result<Tensor> ReduceAll(ReduceOpKind op, const Tensor& a) {
  switch (op) {
    case ReduceOpKind::kCount:
      return Tensor::Full(DType::kInt64, 1, 1, static_cast<double>(a.rows()),
                          a.device());
    case ReduceOpKind::kSum: {
      if (a.numel() == 0) return Tensor::Full(DType::kFloat64, 1, 1, 0.0, a.device());
      TQP_ASSIGN_OR_RETURN(double s, DispatchNumeric(a, [&](auto tag) -> Result<double> {
                             using T = decltype(tag);
                             return SumTyped<T>(a);
                           }));
      return Tensor::Full(DType::kFloat64, 1, 1, s, a.device());
    }
    case ReduceOpKind::kMin:
    case ReduceOpKind::kMax: {
      if (a.numel() == 0) {
        return Status::Invalid("Min/Max reduction over empty tensor");
      }
      TQP_ASSIGN_OR_RETURN(double v, DispatchNumeric(a, [&](auto tag) -> Result<double> {
                             using T = decltype(tag);
                             return static_cast<double>(op == ReduceOpKind::kMin
                                                            ? MinTyped<T>(a)
                                                            : MaxTyped<T>(a));
                           }));
      return Tensor::Full(a.dtype(), 1, 1, v, a.device());
    }
  }
  return Status::Internal("unknown reduce op");
}

Result<Tensor> CumSum(const Tensor& a) {
  if (a.cols() != 1) return Status::Invalid("CumSum requires an (n x 1) tensor");
  const DType out_dt = IsFloatingPoint(a.dtype()) ? DType::kFloat64 : DType::kInt64;
  TQP_ASSIGN_OR_RETURN(Tensor ca, Cast(a, out_dt));
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(out_dt, a.rows(), 1, a.device()));
  if (out_dt == DType::kInt64) {
    const int64_t* p = ca.data<int64_t>();
    int64_t* o = out.mutable_data<int64_t>();
    int64_t acc = 0;
    for (int64_t i = 0; i < a.rows(); ++i) {
      acc += p[i];
      o[i] = acc;
    }
  } else {
    const double* p = ca.data<double>();
    double* o = out.mutable_data<double>();
    double acc = 0;
    for (int64_t i = 0; i < a.rows(); ++i) {
      acc += p[i];
      o[i] = acc;
    }
  }
  return out;
}

Result<Tensor> SegmentedReduce(ReduceOpKind op, const Tensor& values,
                               const Tensor& segment_ids, int64_t num_segments) {
  if (segment_ids.dtype() != DType::kInt64 || segment_ids.cols() != 1) {
    return Status::TypeError("segment_ids must be int64 (n x 1)");
  }
  if (values.rows() != segment_ids.rows() || values.cols() != 1) {
    return Status::Invalid("SegmentedReduce: values must be (n x 1) matching ids");
  }
  const int64_t n = values.rows();
  const int64_t* seg = segment_ids.data<int64_t>();
  const DType out_dt = op == ReduceOpKind::kCount
                           ? DType::kInt64
                           : (op == ReduceOpKind::kSum ? DType::kFloat64
                                                       : values.dtype());
  if (op == ReduceOpKind::kCount) {
    TQP_ASSIGN_OR_RETURN(Tensor out,
                         Tensor::Full(DType::kInt64, num_segments, 1, 0, values.device()));
    int64_t* o = out.mutable_data<int64_t>();
    for (int64_t i = 0; i < n; ++i) {
      if (seg[i] < 0 || seg[i] >= num_segments) {
        return Status::IndexError("segment id out of range");
      }
      o[seg[i]] += 1;
    }
    return out;
  }
  if (op == ReduceOpKind::kSum) {
    TQP_ASSIGN_OR_RETURN(Tensor cv, Cast(values, DType::kFloat64));
    TQP_ASSIGN_OR_RETURN(
        Tensor out, Tensor::Full(DType::kFloat64, num_segments, 1, 0.0, values.device()));
    const double* p = cv.data<double>();
    double* o = out.mutable_data<double>();
    for (int64_t i = 0; i < n; ++i) {
      if (seg[i] < 0 || seg[i] >= num_segments) {
        return Status::IndexError("segment id out of range");
      }
      o[seg[i]] += p[i];
    }
    return out;
  }
  // Min/Max: run in float64 and cast back at the end to keep the code compact.
  TQP_ASSIGN_OR_RETURN(Tensor cv, Cast(values, DType::kFloat64));
  const double init = op == ReduceOpKind::kMin
                          ? std::numeric_limits<double>::infinity()
                          : -std::numeric_limits<double>::infinity();
  TQP_ASSIGN_OR_RETURN(Tensor acc,
                       Tensor::Full(DType::kFloat64, num_segments, 1, init, values.device()));
  const double* p = cv.data<double>();
  double* o = acc.mutable_data<double>();
  for (int64_t i = 0; i < n; ++i) {
    if (seg[i] < 0 || seg[i] >= num_segments) {
      return Status::IndexError("segment id out of range");
    }
    o[seg[i]] = op == ReduceOpKind::kMin ? std::min(o[seg[i]], p[i])
                                         : std::max(o[seg[i]], p[i]);
  }
  // Empty segments become 0 (documented behaviour).
  for (int64_t s = 0; s < num_segments; ++s) {
    if (o[s] == init) o[s] = 0.0;
  }
  return Cast(acc, out_dt);
}

Status ScatterAddInPlace(Tensor* target, const Tensor& indices,
                         const Tensor& values) {
  if (target->dtype() != DType::kFloat64 || values.cols() != 1 ||
      target->cols() != 1) {
    return Status::TypeError("ScatterAddInPlace requires float64 (n x 1) tensors");
  }
  if (indices.dtype() != DType::kInt64 || indices.rows() != values.rows()) {
    return Status::Invalid("ScatterAddInPlace: bad indices");
  }
  TQP_ASSIGN_OR_RETURN(Tensor cv, Cast(values, DType::kFloat64));
  const int64_t* idx = indices.data<int64_t>();
  const double* p = cv.data<double>();
  double* o = target->mutable_data<double>();
  for (int64_t i = 0; i < values.rows(); ++i) {
    const int64_t r = idx[i];
    if (r < 0 || r >= target->rows()) {
      return Status::IndexError("ScatterAddInPlace: index out of range");
    }
    o[r] += p[i];
  }
  return Status::OK();
}

}  // namespace tqp::kernels
