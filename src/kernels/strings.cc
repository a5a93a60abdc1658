#include "kernels/strings.h"

#include <algorithm>
#include <cstring>
#include <string_view>
#include <vector>

#include "common/string_util.h"
#include "kernels/selection.h"
#include "kernels/sort.h"

namespace tqp::kernels {

namespace {

Status CheckStringTensor(const Tensor& a) {
  if (a.dtype() != DType::kUInt8) {
    return Status::TypeError("string kernels require uint8 tensors");
  }
  return Status::OK();
}

// Length of row i ignoring the zero padding.
int64_t RowLen(const uint8_t* row, int64_t m) {
  int64_t len = m;
  // Whole zero words first: the padding is often most of a wide column.
  while (len >= 8) {
    uint64_t word;
    std::memcpy(&word, row + len - 8, sizeof(word));
    if (word != 0) break;
    len -= 8;
  }
  while (len > 0 && row[len - 1] == 0) --len;
  return len;
}

// memcmp-style compare of a padded row against a literal, treating the pad as
// "shorter string".
int CompareRowLiteral(const uint8_t* row, int64_t m, const std::string& lit) {
  const int64_t len = RowLen(row, m);
  const int64_t common = std::min<int64_t>(len, static_cast<int64_t>(lit.size()));
  const int c = common == 0 ? 0
                            : std::memcmp(row, lit.data(), static_cast<size_t>(common));
  if (c != 0) return c;
  if (len < static_cast<int64_t>(lit.size())) return -1;
  if (len > static_cast<int64_t>(lit.size())) return 1;
  return 0;
}

bool ApplyCompare(CompareOpKind op, int c) {
  switch (op) {
    case CompareOpKind::kEq:
      return c == 0;
    case CompareOpKind::kNe:
      return c != 0;
    case CompareOpKind::kLt:
      return c < 0;
    case CompareOpKind::kLe:
      return c <= 0;
    case CompareOpKind::kGt:
      return c > 0;
    case CompareOpKind::kGe:
      return c >= 0;
  }
  return false;
}

// `pattern` split on '%' (at least two pieces when it holds a '%').
std::vector<std::string_view> SplitOnPercent(std::string_view pattern) {
  std::vector<std::string_view> pieces;
  size_t begin = 0;
  for (size_t pct = pattern.find('%'); pct != std::string_view::npos;
       pct = pattern.find('%', begin)) {
    pieces.push_back(pattern.substr(begin, pct - begin));
    begin = pct + 1;
  }
  pieces.push_back(pattern.substr(begin));
  return pieces;
}

// LIKE for a pattern made only of literals and '%', given as its '%'-split
// `pieces`: the first piece must start the value, the last must end it
// (without overlapping the first), and the pieces between must occur in
// order in what lies between. Taking each middle piece's leftmost
// occurrence leaves the most room for the rest, so one forward scan decides
// the match without backtracking.
bool MatchPercentPattern(std::string_view value,
                         const std::vector<std::string_view>& pieces) {
  const std::string_view head = pieces.front();
  const std::string_view tail = pieces.back();
  if (value.size() < head.size() + tail.size() || !value.starts_with(head) ||
      !value.ends_with(tail)) {
    return false;
  }
  std::string_view middle = value;
  middle.remove_prefix(head.size());
  middle.remove_suffix(tail.size());
  for (size_t j = 1; j + 1 < pieces.size(); ++j) {
    const size_t found = middle.find(pieces[j]);
    if (found == std::string_view::npos) return false;
    middle.remove_prefix(found + pieces[j].size());
  }
  return true;
}

}  // namespace

Result<Tensor> EncodeStrings(const std::vector<std::string>& values,
                             int64_t min_width) {
  int64_t m = std::max<int64_t>(min_width, 1);
  for (const std::string& s : values) {
    m = std::max<int64_t>(m, static_cast<int64_t>(s.size()));
  }
  TQP_ASSIGN_OR_RETURN(
      Tensor out, Tensor::Empty(DType::kUInt8, static_cast<int64_t>(values.size()), m));
  uint8_t* p = out.mutable_data<uint8_t>();
  for (size_t i = 0; i < values.size(); ++i) {
    std::memcpy(p + static_cast<int64_t>(i) * m, values[i].data(), values[i].size());
  }
  return out;
}

Result<std::vector<std::string>> DecodeStrings(const Tensor& t) {
  TQP_RETURN_NOT_OK(CheckStringTensor(t));
  std::vector<std::string> out;
  out.reserve(static_cast<size_t>(t.rows()));
  const uint8_t* p = t.data<uint8_t>();
  for (int64_t i = 0; i < t.rows(); ++i) {
    const uint8_t* row = p + i * t.cols();
    out.emplace_back(reinterpret_cast<const char*>(row),
                     static_cast<size_t>(RowLen(row, t.cols())));
  }
  return out;
}

Result<Tensor> StringCompareScalar(CompareOpKind op, const Tensor& a,
                                   const std::string& literal) {
  TQP_RETURN_NOT_OK(CheckStringTensor(a));
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kBool, a.rows(), 1, a.device()));
  const uint8_t* p = a.data<uint8_t>();
  bool* o = out.mutable_data<bool>();
  const int64_t m = a.cols();
  const bool equality = op == CompareOpKind::kEq || op == CompareOpKind::kNe;
  if (equality && static_cast<int64_t>(literal.size()) <= m &&
      (literal.empty() || literal.back() != '\0')) {
    // A row equals a literal without a trailing NUL exactly when its m bytes
    // equal the literal zero-padded to m.
    const bool eq = op == CompareOpKind::kEq;
    std::string padded = literal;
    padded.resize(static_cast<size_t>(m), '\0');
    for (int64_t i = 0; i < a.rows(); ++i) {
      o[i] = (std::memcmp(p + i * m, padded.data(), static_cast<size_t>(m)) == 0) == eq;
    }
    return out;
  }
  for (int64_t i = 0; i < a.rows(); ++i) {
    o[i] = ApplyCompare(op, CompareRowLiteral(p + i * m, m, literal));
  }
  return out;
}

Result<Tensor> StringCompare(CompareOpKind op, const Tensor& a, const Tensor& b) {
  TQP_RETURN_NOT_OK(CheckStringTensor(a));
  TQP_RETURN_NOT_OK(CheckStringTensor(b));
  if (a.rows() != b.rows()) {
    return Status::Invalid("StringCompare: row count mismatch");
  }
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kBool, a.rows(), 1, a.device()));
  const uint8_t* pa = a.data<uint8_t>();
  const uint8_t* pb = b.data<uint8_t>();
  bool* o = out.mutable_data<bool>();
  for (int64_t i = 0; i < a.rows(); ++i) {
    const uint8_t* ra = pa + i * a.cols();
    const uint8_t* rb = pb + i * b.cols();
    const int64_t la = RowLen(ra, a.cols());
    const int64_t lb = RowLen(rb, b.cols());
    const int64_t common = std::min(la, lb);
    int c = common == 0 ? 0 : std::memcmp(ra, rb, static_cast<size_t>(common));
    if (c == 0) c = la < lb ? -1 : (la > lb ? 1 : 0);
    o[i] = ApplyCompare(op, c);
  }
  return out;
}

Result<Tensor> StringLike(const Tensor& a, const std::string& pattern) {
  TQP_RETURN_NOT_OK(CheckStringTensor(a));
  const bool has_underscore = pattern.find('_') != std::string::npos;
  if (!has_underscore && pattern.find('%') == std::string::npos) {
    // No wildcards: plain equality.
    return StringCompareScalar(CompareOpKind::kEq, a, pattern);
  }
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kBool, a.rows(), 1, a.device()));
  const uint8_t* p = a.data<uint8_t>();
  bool* o = out.mutable_data<bool>();
  const int64_t m = a.cols();
  auto value = [p, m](int64_t i) {
    const uint8_t* row = p + i * m;
    return std::string_view(reinterpret_cast<const char*>(row),
                            static_cast<size_t>(RowLen(row, m)));
  };
  if (!has_underscore) {
    const std::vector<std::string_view> pieces = SplitOnPercent(pattern);
    for (int64_t i = 0; i < a.rows(); ++i) {
      o[i] = MatchPercentPattern(value(i), pieces);
    }
    return out;
  }
  // '_' needs the general backtracking matcher per row.
  for (int64_t i = 0; i < a.rows(); ++i) o[i] = LikeMatch(value(i), pattern);
  return out;
}

Result<Tensor> Substring(const Tensor& a, int64_t start, int64_t len) {
  TQP_RETURN_NOT_OK(CheckStringTensor(a));
  if (start < 0 || len <= 0) return Status::Invalid("Substring: bad range");
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kUInt8, a.rows(), len, a.device()));
  const uint8_t* p = a.data<uint8_t>();
  uint8_t* o = out.mutable_data<uint8_t>();
  const int64_t m = a.cols();
  for (int64_t i = 0; i < a.rows(); ++i) {
    const uint8_t* row = p + i * m;
    const int64_t avail = std::max<int64_t>(0, std::min(len, m - start));
    if (avail > 0) {
      std::memcpy(o + i * len, row + start, static_cast<size_t>(avail));
    }
  }
  return out;
}

Result<Tensor> HashTokenize(const Tensor& a, int64_t vocab, int64_t max_tokens) {
  TQP_RETURN_NOT_OK(CheckStringTensor(a));
  if (vocab <= 0 || max_tokens <= 0) {
    return Status::Invalid("HashTokenize: vocab and max_tokens must be positive");
  }
  TQP_ASSIGN_OR_RETURN(
      Tensor out, Tensor::Full(DType::kInt64, a.rows(), max_tokens, -1, a.device()));
  const uint8_t* p = a.data<uint8_t>();
  int64_t* po = out.mutable_data<int64_t>();
  const int64_t m = a.cols();
  for (int64_t i = 0; i < a.rows(); ++i) {
    const uint8_t* row = p + i * m;
    int64_t emitted = 0;
    uint64_t h = 1469598103934665603ull;
    bool in_token = false;
    for (int64_t j = 0; j <= m && emitted < max_tokens; ++j) {
      uint8_t c = j < m ? row[j] : 0;
      if (c >= 'A' && c <= 'Z') c = static_cast<uint8_t>(c - 'A' + 'a');
      const bool alnum = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9');
      if (alnum) {
        h = (h ^ c) * 1099511628211ull;
        in_token = true;
      } else if (in_token) {
        po[i * max_tokens + emitted++] =
            static_cast<int64_t>(h % static_cast<uint64_t>(vocab));
        h = 1469598103934665603ull;
        in_token = false;
      }
    }
  }
  return out;
}

Result<DictEncoded> DictEncode(const Tensor& a) {
  TQP_RETURN_NOT_OK(CheckStringTensor(a));
  // Sort rows, find unique boundaries, then invert the permutation to assign
  // each original row its dictionary code. All steps are tensor kernels.
  TQP_ASSIGN_OR_RETURN(Tensor perm, ArgsortRows(a));
  TQP_ASSIGN_OR_RETURN(Tensor sorted, Gather(a, perm));
  TQP_ASSIGN_OR_RETURN(Tensor bounds, SegmentBoundaries(sorted));
  TQP_ASSIGN_OR_RETURN(Tensor dict, Compress(sorted, bounds));

  // code-of-sorted-position = cumsum(bounds) - 1; scatter back via perm.
  TQP_ASSIGN_OR_RETURN(Tensor codes,
                       Tensor::Empty(DType::kInt64, a.rows(), 1, a.device()));
  int64_t* pc = codes.mutable_data<int64_t>();
  const bool* pb = bounds.data<bool>();
  const int64_t* pp = perm.data<int64_t>();
  int64_t code = -1;
  for (int64_t i = 0; i < a.rows(); ++i) {
    if (pb[i]) ++code;
    pc[pp[i]] = code;
  }
  return DictEncoded{std::move(codes), std::move(dict)};
}

}  // namespace tqp::kernels
