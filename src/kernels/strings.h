#ifndef TQP_KERNELS_STRINGS_H_
#define TQP_KERNELS_STRINGS_H_

#include <string>
#include <vector>

#include "common/result.h"
#include "kernels/kernel_types.h"
#include "tensor/tensor.h"

namespace tqp::kernels {

/// String kernels over the paper's §2.1 representation: a string column is an
/// (n x m) uint8 tensor of UTF-8 bytes, right-padded with 0, where m is the
/// maximum byte length in the column.

/// \brief Encodes host strings into an (n x m) uint8 tensor. `min_width`
/// lets callers force a wider m (e.g. to compare two columns directly).
Result<Tensor> EncodeStrings(const std::vector<std::string>& values,
                             int64_t min_width = 0);

/// \brief Decodes an (n x m) uint8 tensor back into host strings, trimming
/// the zero padding.
Result<std::vector<std::string>> DecodeStrings(const Tensor& t);

/// \brief Elementwise string comparison against a literal -> bool (n x 1).
/// Lexicographic byte order; the zero pad sorts before all characters, which
/// matches SQL semantics for ASCII data. `=` and `<>` against a literal of
/// at most m bytes without a trailing NUL compare each row's m bytes to the
/// literal zero-padded to m in one fixed-width memcmp.
Result<Tensor> StringCompareScalar(CompareOpKind op, const Tensor& a,
                                   const std::string& literal);

/// \brief Row-wise comparison of two string tensors -> bool (n x 1).
Result<Tensor> StringCompare(CompareOpKind op, const Tensor& a, const Tensor& b);

/// \brief SQL LIKE against a pattern with % and _ -> bool (n x 1).
///
/// A pattern without wildcards is an equality compare. A pattern of
/// literals and '%' (no '_') matches without backtracking: an anchored
/// prefix and suffix, and each literal between them found in turn from
/// where the previous one ended. Patterns with '_' run the backtracking
/// LikeMatch per row over the padded bytes.
Result<Tensor> StringLike(const Tensor& a, const std::string& pattern);

/// \brief Byte substring: out row = a[row][start, start+len) (0-based),
/// producing an (n x len) tensor (SQL SUBSTRING with 1-based offsets is
/// translated by the planner).
Result<Tensor> Substring(const Tensor& a, int64_t start, int64_t len);

/// \brief Hashed tokenization of a padded string tensor: each row is split
/// on non-alphanumeric bytes, lowercased, and each token is hashed into
/// [0, vocab). The result is int64 (n x max_tokens), right-padded with -1
/// (the EmbeddingBagSum padding id). This is the tensor-program tokenizer of
/// the sentiment model (paper Figure 4).
Result<Tensor> HashTokenize(const Tensor& a, int64_t vocab, int64_t max_tokens);

/// \brief Dictionary-encodes string rows: returns int64 codes (n x 1) where
/// equal rows share a code, plus the dictionary (u x m, sorted) such that
/// dict[code] reproduces the row. Used to turn string group-by/join keys
/// into numeric tensor keys.
struct DictEncoded {
  Tensor codes;
  Tensor dict;
};
Result<DictEncoded> DictEncode(const Tensor& a);

}  // namespace tqp::kernels

#endif  // TQP_KERNELS_STRINGS_H_
