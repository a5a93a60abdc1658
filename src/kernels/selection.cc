#include "kernels/selection.h"

#include <algorithm>
#include <cstring>
#include <string>

namespace tqp::kernels {

namespace {

// Reads an index tensor element as int64 regardless of int32/int64 dtype.
inline int64_t IndexAt(const Tensor& idx, int64_t i) {
  return idx.dtype() == DType::kInt32 ? idx.data<int32_t>()[i]
                                      : idx.data<int64_t>()[i];
}

Status CheckIndexDType(const Tensor& indices) {
  if (indices.dtype() != DType::kInt32 && indices.dtype() != DType::kInt64) {
    return Status::TypeError("index tensor must be int32/int64");
  }
  if (indices.cols() != 1) {
    return Status::Invalid("index tensor must be (n x 1)");
  }
  return Status::OK();
}

/// out[indices[i], :] = a[i, :] for rows of kRowBytes bytes (0: any width).
template <int64_t kRowBytes>
Status ScatterRows(const Tensor& a, const Tensor& indices, Tensor* out) {
  const int64_t row_bytes =
      kRowBytes > 0 ? kRowBytes : a.cols() * DTypeSize(a.dtype());
  const auto* src = static_cast<const uint8_t*>(a.raw_data());
  auto* dst = static_cast<uint8_t*>(out->raw_mutable_data());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const int64_t r = IndexAt(indices, i);
    if (r < 0 || r >= out->rows()) {
      return Status::IndexError("Scatter: index out of range");
    }
    std::memcpy(dst + r * row_bytes, src + i * row_bytes,
                static_cast<size_t>(row_bytes));
  }
  return Status::OK();
}

}  // namespace

Result<Tensor> Nonzero(const Tensor& mask) {
  if (mask.dtype() != DType::kBool || mask.cols() != 1) {
    return Status::TypeError("Nonzero requires a boolean (n x 1) mask");
  }
  const bool* pm = mask.data<bool>();
  const int64_t n = mask.rows();
  int64_t count = 0;
  for (int64_t i = 0; i < n; ++i) count += pm[i] ? 1 : 0;
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kInt64, count, 1, mask.device()));
  int64_t* po = out.mutable_data<int64_t>();
  int64_t k = 0;
  for (int64_t i = 0; i < n; ++i) {
    if (pm[i]) po[k++] = i;
  }
  return out;
}

Result<Tensor> Compress(const Tensor& a, const Tensor& mask) {
  if (mask.dtype() != DType::kBool || mask.cols() != 1) {
    return Status::TypeError("Compress requires a boolean (n x 1) mask");
  }
  if (mask.rows() != a.rows()) {
    return Status::Invalid("Compress: mask rows " + std::to_string(mask.rows()) +
                           " != tensor rows " + std::to_string(a.rows()));
  }
  TQP_ASSIGN_OR_RETURN(Tensor idx, Nonzero(mask));
  return Gather(a, idx);
}

Result<Tensor> Gather(const Tensor& a, const Tensor& indices) {
  TQP_RETURN_NOT_OK(CheckIndexDType(indices));
  const int64_t k = indices.rows();
  const int64_t m = a.cols();
  const int64_t elem = DTypeSize(a.dtype());
  const int64_t row_bytes = m * elem;
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(a.dtype(), k, m, a.device()));
  const uint8_t* src = static_cast<const uint8_t*>(a.raw_data());
  uint8_t* dst = static_cast<uint8_t*>(out.raw_mutable_data());
  for (int64_t i = 0; i < k; ++i) {
    const int64_t r = IndexAt(indices, i);
    if (r < 0 || r >= a.rows()) {
      return Status::IndexError("Gather: index " + std::to_string(r) +
                                " out of range [0, " + std::to_string(a.rows()) + ")");
    }
    std::memcpy(dst + i * row_bytes, src + r * row_bytes,
                static_cast<size_t>(row_bytes));
  }
  return out;
}

Result<Tensor> Scatter(const Tensor& a, const Tensor& indices, int64_t out_rows) {
  TQP_RETURN_NOT_OK(CheckIndexDType(indices));
  if (indices.rows() != a.rows()) {
    return Status::Invalid("Scatter: indices rows != input rows");
  }
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(a.dtype(), out_rows, a.cols(), a.device()));
  switch (a.cols() * DTypeSize(a.dtype())) {
    case 1:
      TQP_RETURN_NOT_OK(ScatterRows<1>(a, indices, &out));
      break;
    case 4:
      TQP_RETURN_NOT_OK(ScatterRows<4>(a, indices, &out));
      break;
    case 8:
      TQP_RETURN_NOT_OK(ScatterRows<8>(a, indices, &out));
      break;
    default:
      TQP_RETURN_NOT_OK(ScatterRows<0>(a, indices, &out));
  }
  return out;
}

Result<Tensor> GatherCols(const Tensor& a, const Tensor& idx) {
  if (idx.dtype() != DType::kInt64 || idx.cols() != 1 || idx.rows() != a.rows()) {
    return Status::Invalid("GatherCols: idx must be int64 (n x 1) matching rows");
  }
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(a.dtype(), a.rows(), 1, a.device()));
  const int64_t* pi = idx.data<int64_t>();
  const int64_t m = a.cols();
  const int64_t elem = DTypeSize(a.dtype());
  const uint8_t* src = static_cast<const uint8_t*>(a.raw_data());
  uint8_t* dst = static_cast<uint8_t*>(out.raw_mutable_data());
  for (int64_t i = 0; i < a.rows(); ++i) {
    const int64_t j = pi[i];
    if (j < 0 || j >= m) {
      return Status::IndexError("GatherCols: column index out of range");
    }
    std::memcpy(dst + i * elem, src + (i * m + j) * elem, static_cast<size_t>(elem));
  }
  return out;
}

Result<RowsShape> ConcatRowsShape(const std::vector<RowsShape>& parts) {
  if (parts.empty()) return Status::Invalid("ConcatRows: no inputs");
  RowsShape out = parts[0];
  out.rows = 0;
  for (const RowsShape& part : parts) {
    if (part.dtype != out.dtype) {
      return Status::TypeError("ConcatRows: mismatched dtype");
    }
    if (part.cols != out.cols) {
      // Padded strings may legitimately differ in width (e.g. a LEFT JOIN's
      // zero-sentinel side); right-pad the narrower parts with 0 bytes.
      if (out.dtype != DType::kUInt8) {
        return Status::TypeError("ConcatRows: mismatched cols");
      }
      out.cols = std::max(out.cols, part.cols);
    }
    out.rows += part.rows;
  }
  return out;
}

Result<Tensor> ConcatRows(const std::vector<Tensor>& parts) {
  std::vector<RowsShape> shapes;
  shapes.reserve(parts.size());
  for (const Tensor& t : parts) shapes.push_back({t.dtype(), t.rows(), t.cols()});
  TQP_ASSIGN_OR_RETURN(RowsShape shape, ConcatRowsShape(shapes));
  TQP_ASSIGN_OR_RETURN(
      Tensor out,
      Tensor::Empty(shape.dtype, shape.rows, shape.cols, parts[0].device()));
  uint8_t* dst = static_cast<uint8_t*>(out.raw_mutable_data());
  for (const Tensor& t : parts) {
    AppendRowsPadded(t, shape.cols, &dst);
  }
  return out;
}

void AppendRowsPadded(const Tensor& part, int64_t out_cols, uint8_t** dst) {
  const int64_t elem = DTypeSize(part.dtype());
  if (part.cols() == out_cols) {
    if (part.nbytes() > 0) {
      std::memcpy(*dst, part.raw_data(), static_cast<size_t>(part.nbytes()));
    }
    *dst += part.nbytes();
    return;
  }
  const auto* src = static_cast<const uint8_t*>(part.raw_data());
  const size_t row_bytes = static_cast<size_t>(part.cols() * elem);
  const size_t out_row_bytes = static_cast<size_t>(out_cols * elem);
  for (int64_t r = 0; r < part.rows(); ++r) {
    std::memcpy(*dst, src + static_cast<size_t>(r) * row_bytes, row_bytes);
    std::memset(*dst + row_bytes, 0, out_row_bytes - row_bytes);
    *dst += out_row_bytes;
  }
}

Result<Tensor> ConcatCols(const std::vector<Tensor>& parts) {
  if (parts.empty()) return Status::Invalid("ConcatCols: no inputs");
  const DType dt = parts[0].dtype();
  const int64_t rows = parts[0].rows();
  int64_t total_cols = 0;
  for (const Tensor& t : parts) {
    if (t.dtype() != dt || t.rows() != rows) {
      return Status::TypeError("ConcatCols: mismatched dtype/rows");
    }
    total_cols += t.cols();
  }
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(dt, rows, total_cols, parts[0].device()));
  const int64_t elem = DTypeSize(dt);
  uint8_t* dst = static_cast<uint8_t*>(out.raw_mutable_data());
  int64_t col_off = 0;
  for (const Tensor& t : parts) {
    const uint8_t* src = static_cast<const uint8_t*>(t.raw_data());
    for (int64_t i = 0; i < rows; ++i) {
      std::memcpy(dst + (i * total_cols + col_off) * elem, src + i * t.cols() * elem,
                  static_cast<size_t>(t.cols() * elem));
    }
    col_off += t.cols();
  }
  return out;
}

Result<Tensor> RepeatInterleave(const Tensor& a, const Tensor& counts) {
  if (counts.dtype() != DType::kInt64 || counts.cols() != 1 ||
      counts.rows() != a.rows()) {
    return Status::Invalid("RepeatInterleave: counts must be int64 (n x 1)");
  }
  const int64_t* pc = counts.data<int64_t>();
  int64_t total = 0;
  for (int64_t i = 0; i < counts.rows(); ++i) {
    if (pc[i] < 0) return Status::Invalid("RepeatInterleave: negative count");
    total += pc[i];
  }
  const int64_t row_bytes = a.cols() * DTypeSize(a.dtype());
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(a.dtype(), total, a.cols(), a.device()));
  const uint8_t* src = static_cast<const uint8_t*>(a.raw_data());
  uint8_t* dst = static_cast<uint8_t*>(out.raw_mutable_data());
  for (int64_t i = 0; i < a.rows(); ++i) {
    for (int64_t r = 0; r < pc[i]; ++r) {
      std::memcpy(dst, src + i * row_bytes, static_cast<size_t>(row_bytes));
      dst += row_bytes;
    }
  }
  return out;
}

}  // namespace tqp::kernels
