#ifndef TQP_KERNELS_HASH_H_
#define TQP_KERNELS_HASH_H_

#include "common/result.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// \brief Hashes each row of `a` (numeric (n x 1) or string (n x m)) to an
/// int64 (n x 1). Rows that `=` calls equal hash equal: -0.0 hashes as +0.0,
/// and a string hashes alike at any column width. The mix is SplitMix64 for
/// fixed-width values and FNV-1a over the bytes before the zero padding for
/// strings.
Result<Tensor> HashRows(const Tensor& a);

/// \brief Combines an existing hash column with the hash of another column:
/// out = mix(h, HashRows(a)). Used for multi-column join/group keys.
Result<Tensor> HashCombine(const Tensor& h, const Tensor& a);

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_HASH_H_
