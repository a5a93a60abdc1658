#ifndef TQP_GRAPH_OP_TYPE_H_
#define TQP_GRAPH_OP_TYPE_H_

#include <cstdint>

namespace tqp {

/// \brief Operators of the tensor program IR.
///
/// Each value corresponds 1:1 to a kernel in src/kernels (the mapping lives in
/// graph/eval.cc). Relational operators are *compiled into subgraphs of these
/// ops* by the planning layer — there is deliberately no "Join" node here;
/// a join appears as hash/sort/searchsorted/gather ops, exactly as in the
/// paper's executor graphs (Figure 4).
enum class OpType : int8_t {
  // Graph plumbing
  kInput = 0,       // attr: name, index
  kConstant,        // attr: const_id into TensorProgram constants

  // Elementwise
  kBinary,          // attr: op (BinaryOpKind)
  kCompare,         // attr: op (CompareOpKind)
  kLogical,         // attr: op (LogicalOpKind)
  kUnary,           // attr: op (UnaryOpKind)
  kCast,            // attr: dtype
  kWhere,

  // Selection / movement
  kNonzero,
  kCompress,
  kGather,
  kScatter,         // (values, ids, count(1x1)) -> count rows; index_put_
  kConcatRows,      // variadic
  kRepeatInterleave,

  // Reductions / scans
  kReduceAll,       // attr: op (ReduceOpKind)
  kCumSum,
  kSegmentedReduce,  // attr: op; inputs: values, segment_ids, num_segments(1x1)

  // Sorting / searching
  kArgsortRows,     // attr: ascending
  kSearchSorted,    // attr: right
  kGroupIds,        // variadic keys -> int64 row-order group ids
  kGroupCount,      // group ids -> int64 (1x1) group count

  // Hashing
  kHashRows,
  kHashCombine,

  // Linear algebra (ML path)
  kMatMul,
  kMatMulAddBias,
  kEmbeddingBagSum,

  // Shape utilities
  kArangeLike,      // (n x m) -> int64 (n x 1) = [0..n-1]
  kHeadRows,        // attr: n -> first min(n, rows) rows
  kGatherCols,      // (X (n x m), idx int64 (n x 1)) -> (n x 1): X[i, idx[i]]
  kConcatCols,      // variadic (n x 1) same-dtype -> (n x k) feature matrix

  // Strings (padded uint8 tensors)
  kStringCompareScalar,  // attrs: op, literal
  kStringCompare,        // attr: op
  kStringLike,           // attr: pattern
  kSubstring,            // attrs: start, len
  kHashTokenize,         // attrs: vocab, max_tokens -> int64 (n x max_tokens)
};

/// \brief Lowercase op name used in DOT exports and profiles ("gather", ...).
const char* OpTypeName(OpType type);

/// \brief True for pointwise ops the StaticExecutor may fuse into one pass
/// (same-row-count elementwise chains).
bool IsFusibleElementwise(OpType type);

}  // namespace tqp

#endif  // TQP_GRAPH_OP_TYPE_H_
