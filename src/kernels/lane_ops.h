#ifndef TQP_KERNELS_LANE_OPS_H_
#define TQP_KERNELS_LANE_OPS_H_

#include <cmath>
#include <cstdint>
#include <type_traits>

#include "common/result.h"
#include "kernels/kernel_types.h"

namespace tqp::kernels::lane {

/// The single definition of per-lane arithmetic shared by both execution
/// paths: the node-at-a-time elementwise kernels (kernels/elementwise.cc)
/// and the fused ExprProgram interpreter (kernels/expr_exec.cc) evaluate one
/// lane through the functors dispatched here. Bit-identity between them
/// reduces to "same lane functor, same iteration order", so the semantic
/// corner cases live in exactly one place:
///  - integer div/mod by zero yields 0 (the SQL-ish total function the
///    kernels have always implemented);
///  - float mod evaluates through std::fmod(double, double) and narrows;
///  - every non-Not unary evaluates through double and narrows back
///    (float64 operates directly), matching libm call-for-call;
///  - bool -> numeric casts go through a 0/1 uint8, numeric -> bool is
///    `x != From{}`.
///
/// Dispatchers invoke `sink` with the chosen lane functor so each call site
/// keeps its own loop shape (broadcast strides, scalar forms) while the
/// per-lane expression cannot drift between the two paths.

/// \brief Calls `sink(f)` with `f : (T, T) -> T` for the arithmetic op.
template <typename T, typename Sink>
Status WithBinaryLane(BinaryOpKind op, Sink&& sink) {
  switch (op) {
    case BinaryOpKind::kAdd:
      sink([](T x, T y) { return static_cast<T>(x + y); });
      return Status::OK();
    case BinaryOpKind::kSub:
      sink([](T x, T y) { return static_cast<T>(x - y); });
      return Status::OK();
    case BinaryOpKind::kMul:
      sink([](T x, T y) { return static_cast<T>(x * y); });
      return Status::OK();
    case BinaryOpKind::kDiv:
      if constexpr (std::is_integral_v<T>) {
        sink([](T x, T y) { return y == 0 ? T{0} : static_cast<T>(x / y); });
      } else {
        sink([](T x, T y) { return static_cast<T>(x / y); });
      }
      return Status::OK();
    case BinaryOpKind::kMod:
      if constexpr (std::is_integral_v<T>) {
        sink([](T x, T y) { return y == 0 ? T{0} : static_cast<T>(x % y); });
      } else {
        sink([](T x, T y) {
          return static_cast<T>(
              std::fmod(static_cast<double>(x), static_cast<double>(y)));
        });
      }
      return Status::OK();
    case BinaryOpKind::kMin:
      sink([](T x, T y) { return x < y ? x : y; });
      return Status::OK();
    case BinaryOpKind::kMax:
      sink([](T x, T y) { return x > y ? x : y; });
      return Status::OK();
  }
  return Status::Internal("unknown binary op");
}

/// \brief Calls `sink(f)` with `f : (T, T) -> bool` for the comparison.
template <typename T, typename Sink>
Status WithCompareLane(CompareOpKind op, Sink&& sink) {
  switch (op) {
    case CompareOpKind::kEq:
      sink([](T x, T y) { return x == y; });
      return Status::OK();
    case CompareOpKind::kNe:
      sink([](T x, T y) { return x != y; });
      return Status::OK();
    case CompareOpKind::kLt:
      sink([](T x, T y) { return x < y; });
      return Status::OK();
    case CompareOpKind::kLe:
      sink([](T x, T y) { return x <= y; });
      return Status::OK();
    case CompareOpKind::kGt:
      sink([](T x, T y) { return x > y; });
      return Status::OK();
    case CompareOpKind::kGe:
      sink([](T x, T y) { return x >= y; });
      return Status::OK();
  }
  return Status::Internal("unknown compare op");
}

/// \brief Calls `sink(f)` with `f : (bool, bool) -> bool` for the combinator.
template <typename Sink>
Status WithLogicalLane(LogicalOpKind op, Sink&& sink) {
  switch (op) {
    case LogicalOpKind::kAnd:
      sink([](bool x, bool y) { return x && y; });
      return Status::OK();
    case LogicalOpKind::kOr:
      sink([](bool x, bool y) { return x || y; });
      return Status::OK();
    case LogicalOpKind::kXor:
      sink([](bool x, bool y) { return x != y; });
      return Status::OK();
  }
  return Status::Internal("unknown logical op");
}

/// \brief Boolean negation (UnaryOpKind::kNot, dispatched before the
/// numeric unaries at every call site).
constexpr bool NotLane(bool x) { return !x; }

/// \brief Calls `sink(f)` with `f : T -> T` for the numeric unary, already
/// composed with the evaluate-through-double-and-narrow rule. kNot is not a
/// numeric unary and reports Internal.
template <typename T, typename Sink>
Status WithUnaryLane(UnaryOpKind op, Sink&& sink) {
  const auto lift = [&sink](auto f) {
    sink([f](T x) {
      if constexpr (std::is_same_v<T, double>) {
        return f(x);
      } else {
        return static_cast<T>(f(static_cast<double>(x)));
      }
    });
  };
  switch (op) {
    case UnaryOpKind::kNeg:
      lift([](double x) { return -x; });
      return Status::OK();
    case UnaryOpKind::kAbs:
      lift([](double x) { return std::abs(x); });
      return Status::OK();
    case UnaryOpKind::kExp:
      lift([](double x) { return std::exp(x); });
      return Status::OK();
    case UnaryOpKind::kLog:
      lift([](double x) { return std::log(x); });
      return Status::OK();
    case UnaryOpKind::kSqrt:
      lift([](double x) { return std::sqrt(x); });
      return Status::OK();
    case UnaryOpKind::kSigmoid:
      lift([](double x) { return 1.0 / (1.0 + std::exp(-x)); });
      return Status::OK();
    case UnaryOpKind::kTanh:
      lift([](double x) { return std::tanh(x); });
      return Status::OK();
    case UnaryOpKind::kRelu:
      lift([](double x) { return x > 0 ? x : 0; });
      return Status::OK();
    case UnaryOpKind::kNot:
      return Status::Internal("kNot dispatched as numeric unary");
  }
  return Status::Internal("unknown unary op");
}

/// \brief One lane of Cast: bool sources via 0/1 uint8, bool targets via
/// `x != From{}`, everything else a plain static_cast.
template <typename From, typename To>
constexpr To CastLane(From x) {
  if constexpr (std::is_same_v<From, bool>) {
    const uint8_t v = x ? 1 : 0;
    return static_cast<To>(v);
  } else if constexpr (std::is_same_v<To, bool>) {
    return x != From{};
  } else {
    return static_cast<To>(x);
  }
}

}  // namespace tqp::kernels::lane

#endif  // TQP_KERNELS_LANE_OPS_H_
