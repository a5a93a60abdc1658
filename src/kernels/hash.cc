#include "kernels/hash.h"

#include <cstring>

namespace tqp::kernels {

namespace {

inline uint64_t Mix64(uint64_t z) {
  z += 0x9E3779B97F4A7C15ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

template <typename T>
void HashFixed(const Tensor& a, int64_t* out) {
  const T* p = a.data<T>();
  for (int64_t i = 0; i < a.rows(); ++i) {
    // -0.0 == +0.0, so both zeros hash as +0.0.
    const T v = p[i] == T{0} ? T{0} : p[i];
    uint64_t bits = 0;
    // Type-pun through a fixed-width integer of the value's size.
    if constexpr (sizeof(T) == 8) {
      uint64_t raw;
      std::memcpy(&raw, &v, 8);
      bits = raw;
    } else if constexpr (sizeof(T) == 4) {
      uint32_t raw;
      std::memcpy(&raw, &v, 4);
      bits = raw;
    } else {
      bits = static_cast<uint64_t>(static_cast<uint8_t>(v));
    }
    out[i] = static_cast<int64_t>(Mix64(bits));
  }
}

// Hashes the bytes before the zero padding, so a string hashes alike in
// columns of any width (StringCompare ignores the padding too).
void HashBytesRows(const Tensor& a, int64_t* out) {
  const uint8_t* p = a.data<uint8_t>();
  const int64_t m = a.cols();
  for (int64_t i = 0; i < a.rows(); ++i) {
    const uint8_t* row = p + i * m;
    int64_t len = m;
    while (len > 0 && row[len - 1] == 0) --len;
    uint64_t h = 1469598103934665603ull;  // FNV offset basis
    for (int64_t j = 0; j < len; ++j) {
      h ^= row[j];
      h *= 1099511628211ull;  // FNV prime
    }
    out[i] = static_cast<int64_t>(h);
  }
}

}  // namespace

Result<Tensor> HashRows(const Tensor& a) {
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kInt64, a.rows(), 1, a.device()));
  int64_t* po = out.mutable_data<int64_t>();
  switch (a.dtype()) {
    case DType::kUInt8:
      HashBytesRows(a, po);
      return out;
    case DType::kBool:
      HashFixed<bool>(a, po);
      return out;
    case DType::kInt32:
      HashFixed<int32_t>(a, po);
      return out;
    case DType::kInt64:
      HashFixed<int64_t>(a, po);
      return out;
    case DType::kFloat32:
      HashFixed<float>(a, po);
      return out;
    case DType::kFloat64:
      HashFixed<double>(a, po);
      return out;
  }
  return Status::TypeError("HashRows: unsupported dtype");
}

Result<Tensor> HashCombine(const Tensor& h, const Tensor& a) {
  if (h.dtype() != DType::kInt64 || h.cols() != 1 || h.rows() != a.rows()) {
    return Status::Invalid("HashCombine: h must be int64 (n x 1) matching a");
  }
  TQP_ASSIGN_OR_RETURN(Tensor ha, HashRows(a));
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kInt64, h.rows(), 1, h.device()));
  const int64_t* p1 = h.data<int64_t>();
  const int64_t* p2 = ha.data<int64_t>();
  int64_t* po = out.mutable_data<int64_t>();
  for (int64_t i = 0; i < h.rows(); ++i) {
    const uint64_t combined = static_cast<uint64_t>(p1[i]) * 31 +
                              static_cast<uint64_t>(p2[i]);
    po[i] = static_cast<int64_t>(Mix64(combined));
  }
  return out;
}

}  // namespace tqp::kernels
