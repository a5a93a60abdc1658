#ifndef TQP_KERNELS_ELEMENTWISE_H_
#define TQP_KERNELS_ELEMENTWISE_H_

#include "common/result.h"
#include "kernels/kernel_types.h"
#include "tensor/scalar.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// Elementwise kernels with NumPy/PyTorch-style broadcasting restricted to
/// the shapes relational plans produce: equal shapes, (1x1) scalars,
/// (1xm) row vectors against (nxm), and (nx1) columns against (nxm).

/// \brief c = a <op> b with type promotion and broadcasting.
Result<Tensor> BinaryOp(BinaryOpKind op, const Tensor& a, const Tensor& b);

/// \brief Boolean mask = a <cmp> b (broadcasting as above).
Result<Tensor> Compare(CompareOpKind op, const Tensor& a, const Tensor& b);

/// \brief Boolean mask = a <cmp> scalar.
Result<Tensor> CompareScalar(CompareOpKind op, const Tensor& a, const Scalar& s);

/// \brief Combines two boolean masks.
Result<Tensor> Logical(LogicalOpKind op, const Tensor& a, const Tensor& b);

/// \brief Elementwise unary op. kNot requires bool input; transcendental ops
/// promote integers to float64.
Result<Tensor> Unary(UnaryOpKind op, const Tensor& a);

/// \brief Dtype conversion (torch.Tensor.to analog). No-op if already `to`.
Result<Tensor> Cast(const Tensor& a, DType to);

/// \brief out[i] = cond[i] ? a[i] : b[i] (torch.where). a/b broadcast as above.
Result<Tensor> Where(const Tensor& cond, const Tensor& a, const Tensor& b);

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_ELEMENTWISE_H_
