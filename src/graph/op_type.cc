#include "graph/op_type.h"

namespace tqp {

const char* OpTypeName(OpType type) {
  switch (type) {
    case OpType::kInput:
      return "input";
    case OpType::kConstant:
      return "constant";
    case OpType::kBinary:
      return "binary";
    case OpType::kCompare:
      return "compare";
    case OpType::kLogical:
      return "logical";
    case OpType::kUnary:
      return "unary";
    case OpType::kCast:
      return "cast";
    case OpType::kWhere:
      return "where";
    case OpType::kNonzero:
      return "nonzero";
    case OpType::kCompress:
      return "compress";
    case OpType::kGather:
      return "gather";
    case OpType::kScatter:
      return "scatter";
    case OpType::kConcatRows:
      return "concat_rows";
    case OpType::kRepeatInterleave:
      return "repeat_interleave";
    case OpType::kReduceAll:
      return "reduce_all";
    case OpType::kCumSum:
      return "cumsum";
    case OpType::kSegmentedReduce:
      return "segmented_reduce";
    case OpType::kArgsortRows:
      return "argsort";
    case OpType::kSearchSorted:
      return "searchsorted";
    case OpType::kGroupIds:
      return "group_ids";
    case OpType::kGroupCount:
      return "group_count";
    case OpType::kHashRows:
      return "hash_rows";
    case OpType::kHashCombine:
      return "hash_combine";
    case OpType::kMatMul:
      return "matmul";
    case OpType::kMatMulAddBias:
      return "matmul_add_bias";
    case OpType::kEmbeddingBagSum:
      return "embedding_bag_sum";
    case OpType::kArangeLike:
      return "arange_like";
    case OpType::kHeadRows:
      return "head_rows";
    case OpType::kGatherCols:
      return "gather_cols";
    case OpType::kConcatCols:
      return "concat_cols";
    case OpType::kStringCompareScalar:
      return "string_compare_scalar";
    case OpType::kStringCompare:
      return "string_compare";
    case OpType::kStringLike:
      return "string_like";
    case OpType::kSubstring:
      return "substring";
    case OpType::kHashTokenize:
      return "hash_tokenize";
  }
  return "unknown";
}

bool IsFusibleElementwise(OpType type) {
  switch (type) {
    case OpType::kBinary:
    case OpType::kCompare:
    case OpType::kLogical:
    case OpType::kUnary:
    case OpType::kCast:
    case OpType::kWhere:
      return true;
    default:
      return false;
  }
}

}  // namespace tqp
