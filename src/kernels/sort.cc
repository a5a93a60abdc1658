#include "kernels/sort.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <type_traits>
#include <vector>

#include "kernels/selection.h"
#include "kernels/sort_internal.h"

namespace tqp::kernels {

namespace {

// ---- Stable argsort core ------------------------------------------------------

constexpr int kDigitBits = 11;
constexpr int64_t kBuckets = int64_t{1} << kDigitBits;
// Below this the 2^11-bucket histograms cost more than the comparison sort.
constexpr int64_t kRadixMinRows = 1024;

Status RunTasks(const TaskRunner& run, int64_t tasks,
                const std::function<Status(int64_t, int64_t)>& fn) {
  if (tasks <= 1 || !run) return fn(0, tasks);
  return run(tasks, fn);
}

template <typename T>
bool IsNaN(T v) {
  if constexpr (std::is_floating_point_v<T>) {
    return v != v;
  } else {
    return false;
  }
}

/// Order-preserving map to unsigned 64-bit: a < b (operator<) iff
/// OrderedBits(a) < OrderedBits(b), and a == b iff the bits are equal — so
/// floats fold -0.0 into +0.0, the two zeros operator< treats as ties.
template <typename T>
uint64_t OrderedBits(T v) {
  if constexpr (std::is_same_v<T, bool> || std::is_same_v<T, uint8_t>) {
    return static_cast<uint64_t>(v);
  } else if constexpr (std::is_same_v<T, int32_t>) {
    return static_cast<uint64_t>(static_cast<uint32_t>(v) ^ 0x80000000u);
  } else if constexpr (std::is_same_v<T, int64_t>) {
    return static_cast<uint64_t>(v) ^ (uint64_t{1} << 63);
  } else {
    using U = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;
    constexpr U kSign = U{1} << (sizeof(U) * 8 - 1);
    const U u = std::bit_cast<U>(v == T{0} ? T{0} : v);
    return static_cast<uint64_t>((u & kSign) != 0 ? static_cast<U>(~u) : (u | kSign));
  }
}

/// LSD radix argsort of p[0, n) (one key column) into out, as row ids offset
/// by `base`. Sets *nan_found instead of sorting when a key is NaN, and
/// *ordered when the keys already are in order (the identity, written to
/// out without a pass).
template <typename T>
Status RadixArgsort(const T* p, int64_t n, bool ascending, int64_t base,
                    int64_t* out, int64_t chunks, const TaskRunner& run,
                    bool* nan_found, bool* ordered) {
  const auto key = [ascending](T v) {
    const uint64_t k = OrderedBits(v);
    return ascending ? k : ~k;
  };
  const auto chunk_lo = [n, chunks](int64_t c) { return n * c / chunks; };
  const auto for_chunks = [&](const std::function<void(int64_t, int64_t, int64_t)>& fn) {
    return RunTasks(run, chunks, [&](int64_t cb, int64_t ce) -> Status {
      for (int64_t c = cb; c < ce; ++c) fn(c, chunk_lo(c), chunk_lo(c + 1));
      return Status::OK();
    });
  };

  // 1. Key range, the NaN check that gates the radix path, and whether the
  // keys are non-decreasing under key() (each chunk starts from its
  // predecessor's last key, so chunk boundaries count too).
  std::vector<uint64_t> cmin(static_cast<size_t>(chunks),
                             std::numeric_limits<uint64_t>::max());
  std::vector<uint64_t> cmax(static_cast<size_t>(chunks), 0);
  std::vector<uint8_t> cnan(static_cast<size_t>(chunks), 0);
  std::vector<uint8_t> cordered(static_cast<size_t>(chunks), 0);
  TQP_RETURN_NOT_OK(for_chunks([&](int64_t c, int64_t lo, int64_t hi) {
    uint64_t mn = std::numeric_limits<uint64_t>::max();
    uint64_t mx = 0;
    uint64_t prev = lo > 0 && !IsNaN(p[lo - 1]) ? key(p[lo - 1]) : 0;
    bool in_order = true;
    for (int64_t i = lo; i < hi; ++i) {
      if (IsNaN(p[i])) {
        cnan[static_cast<size_t>(c)] = 1;
        return;
      }
      const uint64_t k = key(p[i]);
      mn = std::min(mn, k);
      mx = std::max(mx, k);
      in_order &= prev <= k;
      prev = k;
    }
    cmin[static_cast<size_t>(c)] = mn;
    cmax[static_cast<size_t>(c)] = mx;
    cordered[static_cast<size_t>(c)] = in_order ? 1 : 0;
  }));
  if (std::find(cnan.begin(), cnan.end(), 1) != cnan.end()) {
    *nan_found = true;
    return Status::OK();
  }
  // A stable sort of keys already in order is the identity (equal keys
  // included: they keep ascending row order).
  if (std::find(cordered.begin(), cordered.end(), 0) == cordered.end()) {
    *ordered = true;
    return for_chunks([&](int64_t, int64_t lo, int64_t hi) {
      std::iota(out + lo, out + hi, base + lo);
    });
  }
  const uint64_t kmin = *std::min_element(cmin.begin(), cmin.end());
  const uint64_t range = *std::max_element(cmax.begin(), cmax.end()) - kmin;

  // 2. Layout: (key - min) << index_bits | row when both fit in one word.
  const int key_bits = 64 - std::countl_zero(range);
  const int index_bits = 64 - std::countl_zero(static_cast<uint64_t>(n - 1));
  const bool packed = key_bits + index_bits <= 64;
  const int shift0 = packed ? index_bits : 0;
  const int passes = (key_bits + kDigitBits - 1) / kDigitBits;
  const uint64_t index_mask = (uint64_t{1} << index_bits) - 1;

  // Packed: words live in `out` and one n-word scratch. Unpacked: keys
  // ping-pong between two n-word buffers and row ids between `out` and a
  // third. Each side starts where `passes` scatters end in `out`.
  const auto words = [n] {
    return std::make_unique_for_overwrite<uint64_t[]>(static_cast<size_t>(n));
  };
  const std::unique_ptr<uint64_t[]> scratch = words();
  const std::unique_ptr<uint64_t[]> keys_a = packed ? nullptr : words();
  const std::unique_ptr<uint64_t[]> keys_b = packed ? nullptr : words();
  const bool start_in_out = passes % 2 == 0;
  auto* out_words = reinterpret_cast<uint64_t*>(out);
  auto* scratch_ids = reinterpret_cast<int64_t*>(scratch.get());
  uint64_t* src = packed ? (start_in_out ? out_words : scratch.get()) : keys_a.get();
  uint64_t* dst = packed ? (start_in_out ? scratch.get() : out_words) : keys_b.get();
  int64_t* src_ids = start_in_out ? out : scratch_ids;
  int64_t* dst_ids = start_in_out ? scratch_ids : out;

  // hist[(c * passes + pass) * kBuckets + digit]: per-chunk digit counts,
  // later rewritten in place into that chunk's scatter offsets.
  std::vector<int64_t> hist(static_cast<size_t>(chunks * passes * kBuckets), 0);
  const auto digit = [shift0](uint64_t w, int pass) {
    return static_cast<size_t>((w >> (shift0 + pass * kDigitBits)) & (kBuckets - 1));
  };
  const auto chunk_hist = [&](int64_t c, int pass) {
    return hist.data() + (c * passes + pass) * kBuckets;
  };

  // 3. Build the words and every pass's histogram in one read of the keys.
  TQP_RETURN_NOT_OK(for_chunks([&](int64_t c, int64_t lo, int64_t hi) {
    for (int64_t i = lo; i < hi; ++i) {
      const uint64_t k = key(p[i]) - kmin;
      const uint64_t w = packed ? (k << index_bits) | static_cast<uint64_t>(i) : k;
      src[i] = w;
      if (!packed) src_ids[i] = base + i;
      for (int pass = 0; pass < passes; ++pass) ++chunk_hist(c, pass)[digit(w, pass)];
    }
  }));

  // A pass whose digit is the same for every row leaves the order as is.
  std::vector<int> live;
  for (int pass = 0; pass < passes; ++pass) {
    bool trivial = false;
    for (int64_t d = 0; d < kBuckets && !trivial; ++d) {
      int64_t total = 0;
      for (int64_t c = 0; c < chunks; ++c) total += chunk_hist(c, pass)[d];
      trivial = total == n;
    }
    if (!trivial) live.push_back(pass);
  }

  // 4. One stable scatter per live digit. Offsets in (digit, chunk) order
  // keep every chunk's rows behind the earlier chunks' equal digits.
  bool decoded = false;
  for (size_t li = 0; li < live.size(); ++li) {
    const int pass = live[li];
    if (li > 0 && chunks > 1) {
      // Chunk membership changed since step 3: recount this digit.
      TQP_RETURN_NOT_OK(for_chunks([&](int64_t c, int64_t lo, int64_t hi) {
        int64_t* h = chunk_hist(c, pass);
        std::fill(h, h + kBuckets, 0);
        for (int64_t i = lo; i < hi; ++i) ++h[digit(src[i], pass)];
      }));
    }
    int64_t running = 0;
    for (int64_t d = 0; d < kBuckets; ++d) {
      for (int64_t c = 0; c < chunks; ++c) {
        int64_t& h = chunk_hist(c, pass)[d];
        const int64_t count = h;
        h = running;
        running += count;
      }
    }
    // The last packed scatter into `out` writes row ids, not words.
    const bool decode = packed && li + 1 == live.size() && dst == out_words;
    TQP_RETURN_NOT_OK(for_chunks([&](int64_t c, int64_t lo, int64_t hi) {
      int64_t* off = chunk_hist(c, pass);
      if (!packed) {
        for (int64_t i = lo; i < hi; ++i) {
          const int64_t at = off[digit(src[i], pass)]++;
          dst[at] = src[i];
          dst_ids[at] = src_ids[i];
        }
      } else if (decode) {
        for (int64_t i = lo; i < hi; ++i) {
          const uint64_t w = src[i];
          out[off[digit(w, pass)]++] = base + static_cast<int64_t>(w & index_mask);
        }
      } else {
        for (int64_t i = lo; i < hi; ++i) {
          const uint64_t w = src[i];
          dst[off[digit(w, pass)]++] = w;
        }
      }
    }));
    std::swap(src, dst);
    std::swap(src_ids, dst_ids);
    decoded = decode;
  }

  // 5. Row ids into `out`, unless the last scatter already put them there.
  if (packed && !decoded) {
    TQP_RETURN_NOT_OK(for_chunks([&](int64_t, int64_t lo, int64_t hi) {
      for (int64_t i = lo; i < hi; ++i) {
        out[i] = base + static_cast<int64_t>(src[i] & index_mask);
      }
    }));
  } else if (!packed && src_ids != out) {
    std::memcpy(out, src_ids, static_cast<size_t>(n) * sizeof(int64_t));
  }
  return Status::OK();
}

/// Stable comparison argsort of rows [begin, end) (any width, any values):
/// chunks sort concurrently, then pairwise merge rounds. std::merge takes
/// the left range on ties and every id on the left is smaller, so the result
/// is exactly one std::stable_sort's.
template <typename T>
Status ComparisonArgsort(const T* p, int64_t cols, int64_t begin, int64_t end,
                         bool ascending, int64_t* out, int64_t chunks,
                         const TaskRunner& run) {
  const int64_t n = end - begin;
  const auto cmp = [p, cols, ascending](int64_t i, int64_t j) {
    const int c = CompareRows<T>(p + i * cols, p + j * cols, cols);
    return ascending ? c < 0 : c > 0;
  };
  std::iota(out, out + n, begin);
  const int64_t chunk = (n + chunks - 1) / chunks;
  if (chunk <= 0) return Status::OK();
  TQP_RETURN_NOT_OK(RunTasks(run, chunks, [&](int64_t cb, int64_t ce) -> Status {
    for (int64_t c = cb; c < ce; ++c) {
      std::stable_sort(out + std::min(n, c * chunk), out + std::min(n, (c + 1) * chunk),
                       cmp);
    }
    return Status::OK();
  }));
  if (chunk >= n) return Status::OK();
  std::vector<int64_t> scratch(static_cast<size_t>(n));
  int64_t* src = out;
  int64_t* dst = scratch.data();
  for (int64_t width = chunk; width < n; width *= 2) {
    const int64_t pairs = (n + 2 * width - 1) / (2 * width);
    TQP_RETURN_NOT_OK(RunTasks(run, pairs, [&](int64_t pb, int64_t pe) -> Status {
      for (int64_t pr = pb; pr < pe; ++pr) {
        const int64_t lo = pr * 2 * width;
        const int64_t mid = std::min(n, lo + width);
        const int64_t hi = std::min(n, lo + 2 * width);
        std::merge(src + lo, src + mid, src + mid, src + hi, dst + lo, cmp);
      }
      return Status::OK();
    }));
    std::swap(src, dst);
  }
  if (src != out) std::memcpy(out, src, static_cast<size_t>(n) * sizeof(int64_t));
  return Status::OK();
}

/// True when rows [begin, end) are already in order under CompareRows and
/// hold no NaN, checked chunk by chunk (each chunk's first row against the
/// row before it).
template <typename T>
Result<bool> RowsInOrder(const T* p, int64_t cols, int64_t begin, int64_t end,
                         bool ascending, int64_t chunks, const TaskRunner& run) {
  const int64_t n = end - begin;
  std::vector<uint8_t> cordered(static_cast<size_t>(chunks), 0);
  TQP_RETURN_NOT_OK(RunTasks(run, chunks, [&](int64_t cb, int64_t ce) -> Status {
    for (int64_t c = cb; c < ce; ++c) {
      const int64_t lo = begin + n * c / chunks;
      const int64_t hi = begin + n * (c + 1) / chunks;
      bool in_order = true;
      for (int64_t i = lo; i < hi && in_order; ++i) {
        for (int64_t j = 0; j < cols; ++j) in_order &= !IsNaN(p[i * cols + j]);
        if (i > begin) {
          const int cmp = CompareRows<T>(p + (i - 1) * cols, p + i * cols, cols);
          in_order &= ascending ? cmp <= 0 : cmp >= 0;
        }
      }
      cordered[static_cast<size_t>(c)] = in_order ? 1 : 0;
    }
    return Status::OK();
  }));
  return std::find(cordered.begin(), cordered.end(), 0) == cordered.end();
}

template <typename T>
Status StableArgsortTyped(const Tensor& a, int64_t begin, int64_t end,
                          bool ascending, int64_t* out, int64_t chunks,
                          const TaskRunner& run, bool* ordered) {
  const T* p = a.data<T>();
  const int64_t n = end - begin;
  chunks = std::clamp<int64_t>(chunks, 1, std::max<int64_t>(1, n));
  if (a.cols() == 1 && n >= kRadixMinRows) {
    bool nan_found = false;
    TQP_RETURN_NOT_OK(RadixArgsort(p + begin, n, ascending, begin, out, chunks,
                                   run, &nan_found, ordered));
    if (!nan_found) return Status::OK();
  } else {
    TQP_ASSIGN_OR_RETURN(bool in_order, RowsInOrder(p, a.cols(), begin, end,
                                                    ascending, chunks, run));
    if (in_order) {
      *ordered = true;
      std::iota(out, out + n, begin);
      return Status::OK();
    }
  }
  return ComparisonArgsort(p, a.cols(), begin, end, ascending, out, chunks, run);
}

// ---- Group ids ----------------------------------------------------------------

/// Calls fn(bits), where bits(i) is row i of `key` as an order-preserving
/// uint64 that is equal exactly when the rows' bytes are: one bool, int32
/// or int64 column, or a uint8 string of at most 8 bytes packed big-endian
/// (zero padding keeps its byte order). Returns false for any other key.
template <typename Fn>
bool WithPackedKey(const Tensor& key, Fn&& fn) {
  const int64_t w = key.cols();
  switch (key.dtype()) {
    case DType::kBool:
    case DType::kUInt8: {
      if (w > 8 || (key.dtype() == DType::kBool && w != 1)) return false;
      const auto* p = static_cast<const uint8_t*>(key.raw_data());
      if (w == 1) {
        fn([p](int64_t i) { return uint64_t{p[i]}; });
      } else {
        fn([p, w](int64_t i) {
          uint64_t v = 0;
          for (int64_t j = 0; j < w; ++j) v = v << 8 | p[i * w + j];
          return v;
        });
      }
      return true;
    }
    case DType::kInt32: {
      if (w != 1) return false;
      const int32_t* p = key.data<int32_t>();
      fn([p](int64_t i) { return OrderedBits(p[i]); });
      return true;
    }
    case DType::kInt64: {
      if (w != 1) return false;
      const int64_t* p = key.data<int64_t>();
      fn([p](int64_t i) { return OrderedBits(p[i]); });
      return true;
    }
    default:
      return false;
  }
}

/// Sets starts[j] for sorted positions j >= 1 whose row of `key` differs
/// bytewise from the row before it.
template <typename U>
void MarkStartsFixed(const uint8_t* p, const int64_t* perm, int64_t n,
                     uint8_t* starts) {
  const auto row = [p](int64_t r) {
    U v;
    std::memcpy(&v, p + r * static_cast<int64_t>(sizeof(U)), sizeof(U));
    return v;
  };
  U prev = row(perm[0]);
  for (int64_t j = 1; j < n; ++j) {
    const U cur = row(perm[j]);
    starts[j] |= cur != prev ? 1 : 0;
    prev = cur;
  }
}

void MarkStarts(const Tensor& key, const int64_t* perm, int64_t n,
                uint8_t* starts) {
  if (n == 0) return;
  const auto* p = static_cast<const uint8_t*>(key.raw_data());
  const int64_t row_bytes = key.cols() * DTypeSize(key.dtype());
  switch (row_bytes) {
    case 1:
      return MarkStartsFixed<uint8_t>(p, perm, n, starts);
    case 2:
      return MarkStartsFixed<uint16_t>(p, perm, n, starts);
    case 4:
      return MarkStartsFixed<uint32_t>(p, perm, n, starts);
    case 8:
      return MarkStartsFixed<uint64_t>(p, perm, n, starts);
    default:
      for (int64_t j = 1; j < n; ++j) {
        starts[j] |= std::memcmp(p + perm[j] * row_bytes, p + perm[j - 1] * row_bytes,
                                 static_cast<size_t>(row_bytes)) != 0
                         ? 1
                         : 0;
      }
  }
}

/// An argsort ties -0.0 with +0.0 (operator<), so in `perm` the two zeros
/// of a float key may interleave, and MarkStarts would split each byte-equal
/// zero group. When `key` holds a -0.0, returns `perm` with every run of
/// zeros stably partitioned, -0.0 rows first; otherwise `perm` itself. Other
/// keys keep their places, so the order stays a stable sort of `key`.
template <typename T>
Result<Tensor> SeparateZeros(const T* p, const Tensor& perm) {
  using U = std::conditional_t<sizeof(T) == 4, uint32_t, uint64_t>;
  constexpr U kNegativeZero = U{1} << (sizeof(U) * 8 - 1);
  const int64_t n = perm.rows();
  bool negative_zero = false;
  for (int64_t i = 0; i < n; ++i) {
    negative_zero |= std::bit_cast<U>(p[i]) == kNegativeZero;
  }
  if (!negative_zero) return perm;
  const int64_t* pp = perm.data<int64_t>();
  std::vector<int64_t> out(pp, pp + n);
  const auto zero = [p](int64_t r) { return p[r] == T{0}; };
  for (auto it = out.begin(); it != out.end();) {
    if (!zero(*it)) {
      ++it;
      continue;
    }
    const auto end = std::find_if_not(it, out.end(), zero);
    std::stable_partition(it, end, [p](int64_t r) { return std::signbit(p[r]); });
    it = end;
  }
  return Tensor::FromVector(out);
}

/// `argsort(key)`, with the zeros of a float key separated (SeparateZeros).
Result<Tensor> ArgsortForGroups(const Tensor& key, const ArgsortFn& argsort) {
  TQP_ASSIGN_OR_RETURN(Tensor perm, argsort(key));
  if (perm.rows() != key.rows() || perm.dtype() != DType::kInt64) {
    return Status::Internal("GroupIdsBySort: argsort returned a bad permutation");
  }
  if (key.dtype() == DType::kFloat64) return SeparateZeros(key.data<double>(), perm);
  if (key.dtype() == DType::kFloat32) return SeparateZeros(key.data<float>(), perm);
  return perm;
}

// ---- Bound search -------------------------------------------------------------

// Probes searched in lockstep: every probe of one call runs the same number
// of halving steps, so kLanes independent loads are in flight at once.
constexpr int64_t kLanes = 32;

/// Branchless lower (`kRight` false: first s[i] >= v) or upper (first
/// s[i] > v) bound of each value in ascending s[0, n).
template <typename T, bool kRight>
void SearchSortedTyped(const T* s, int64_t n, const T* v, int64_t k,
                       int64_t* out) {
  const auto before = [](T x, T probe) { return kRight ? x <= probe : x < probe; };
  if (n == 0) {
    std::fill(out, out + k, int64_t{0});
    return;
  }
  const T* base[kLanes];
  for (int64_t i0 = 0; i0 < k; i0 += kLanes) {
    const int64_t lanes = std::min(kLanes, k - i0);
    const T* probe = v + i0;
    std::fill(base, base + lanes, s);
    for (int64_t len = n; len > 1;) {
      const int64_t half = len / 2;
      len -= half;
      for (int64_t l = 0; l < lanes; ++l) {
        base[l] += before(base[l][half], probe[l]) ? half : 0;
        __builtin_prefetch(base[l] + len / 2);
      }
    }
    for (int64_t l = 0; l < lanes; ++l) {
      out[i0 + l] = (base[l] - s) + (before(*base[l], probe[l]) ? 1 : 0);
    }
  }
}

template <typename T>
void SearchSortedDispatch(const Tensor& sorted, const Tensor& values, bool right,
                          int64_t* out) {
  const T* s = sorted.data<T>();
  const T* v = values.data<T>();
  if (right) {
    SearchSortedTyped<T, true>(s, sorted.rows(), v, values.rows(), out);
  } else {
    SearchSortedTyped<T, false>(s, sorted.rows(), v, values.rows(), out);
  }
}

}  // namespace

Status StableArgsortRange(const Tensor& a, int64_t begin, int64_t end,
                          bool ascending, int64_t* out, int64_t chunks,
                          const TaskRunner& run, bool* ordered) {
  bool in_order = false;
  bool* o = ordered != nullptr ? ordered : &in_order;
  *o = false;
  switch (a.dtype()) {
    case DType::kBool:
      return StableArgsortTyped<bool>(a, begin, end, ascending, out, chunks, run, o);
    case DType::kUInt8:
      return StableArgsortTyped<uint8_t>(a, begin, end, ascending, out, chunks, run, o);
    case DType::kInt32:
      return StableArgsortTyped<int32_t>(a, begin, end, ascending, out, chunks, run, o);
    case DType::kInt64:
      return StableArgsortTyped<int64_t>(a, begin, end, ascending, out, chunks, run, o);
    case DType::kFloat32:
      return StableArgsortTyped<float>(a, begin, end, ascending, out, chunks, run, o);
    case DType::kFloat64:
      return StableArgsortTyped<double>(a, begin, end, ascending, out, chunks, run, o);
  }
  return Status::Internal("StableArgsortRange: unknown dtype");
}

uint64_t DenseDomainLimit(int64_t rows) {
  return std::min<uint64_t>(std::max<uint64_t>(2 * static_cast<uint64_t>(rows), 1024),
                            std::numeric_limits<uint32_t>::max());
}

std::optional<DensePacking> PlanDensePacking(const std::vector<Tensor>& keys,
                                             uint64_t max_domain) {
  constexpr uint64_t kMax = std::numeric_limits<uint64_t>::max();
  for (const Tensor& k : keys) {
    if (!WithPackedKey(k, [](auto) {})) return std::nullopt;
  }
  const int64_t n = keys.empty() ? 0 : keys[0].rows();
  DensePacking packing;
  packing.domain = n == 0 ? 0 : 1;
  for (const Tensor& k : keys) {
    uint64_t lo = n == 0 ? 0 : kMax;
    uint64_t hi = 0;
    WithPackedKey(k, [&](auto bits) {
      uint64_t mn = lo;  // locals: the byte-typed key reads may alias lo/hi
      uint64_t mx = hi;
      for (int64_t i = 0; i < n; ++i) {
        const uint64_t v = bits(i);
        mn = std::min(mn, v);
        mx = std::max(mx, v);
      }
      lo = mn;
      hi = mx;
    });
    if (hi - lo == kMax) return std::nullopt;  // the span overflows
    const uint64_t span = hi - lo + 1;
    // domain * span > max_domain, without overflowing.
    if (packing.domain > max_domain / span) return std::nullopt;
    packing.domain *= span;
    packing.mins.push_back(lo);
    packing.spans.push_back(span);
  }
  return packing;
}

Result<Tensor> GroupIdsByRank(const std::vector<Tensor>& keys,
                              const DensePacking& packing) {
  if (packing.domain > std::numeric_limits<uint32_t>::max()) {
    return Status::Invalid("GroupIdsByRank: domain does not fit 32-bit ranks");
  }
  const int64_t n = keys[0].rows();
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kInt64, n, 1, keys[0].device()));
  // Codes go into the output, one pass per key; the last pass also marks
  // each code present.
  int64_t* code = out.mutable_data<int64_t>();
  std::vector<uint32_t> rank(static_cast<size_t>(packing.domain), 0);
  uint32_t* present = rank.data();
  for (size_t k = 0; k < keys.size(); ++k) {
    const uint64_t lo = packing.mins[k];
    const auto span = static_cast<int64_t>(packing.spans[k]);
    const bool first = k == 0;
    const bool last = k + 1 == keys.size();
    WithPackedKey(keys[k], [&](auto bits) {
      for (int64_t i = 0; i < n; ++i) {
        const auto digit = static_cast<int64_t>(bits(i) - lo);
        const int64_t c = first ? digit : code[i] * span + digit;
        code[i] = c;
        if (last) present[c] = 1;
      }
    });
  }
  // An exclusive prefix sum over presence gives each present code its rank.
  uint32_t groups = 0;
  for (uint32_t& r : rank) {
    const uint32_t seen = r;
    r = groups;
    groups += seen;
  }
  for (int64_t i = 0; i < n; ++i) code[i] = rank[static_cast<size_t>(code[i])];
  return out;
}

Result<Tensor> GroupIdsBySort(const std::vector<Tensor>& keys,
                              const ArgsortFn& argsort) {
  const int64_t n = keys[0].rows();
  // The composed stable multi-key sort: last key first. Each key's zeros
  // are separated, so byte-equal key tuples end up adjacent.
  TQP_ASSIGN_OR_RETURN(Tensor perm, ArgsortForGroups(keys.back(), argsort));
  for (size_t i = keys.size() - 1; i-- > 0;) {
    TQP_ASSIGN_OR_RETURN(Tensor gathered, Gather(keys[i], perm));
    TQP_ASSIGN_OR_RETURN(Tensor p2, ArgsortForGroups(gathered, argsort));
    TQP_ASSIGN_OR_RETURN(perm, Gather(perm, p2));
  }
  const int64_t* pp = perm.data<int64_t>();
  std::vector<uint8_t> starts(static_cast<size_t>(n), 0);
  for (const Tensor& k : keys) MarkStarts(k, pp, n, starts.data());
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kInt64, n, 1, keys[0].device()));
  int64_t* ids = out.mutable_data<int64_t>();
  int64_t seg = -1;
  for (int64_t j = 0; j < n; ++j) {
    seg += j == 0 || starts[static_cast<size_t>(j)] != 0 ? 1 : 0;
    ids[pp[j]] = seg;
  }
  return out;
}

Result<Tensor> GroupIdsWith(const std::vector<Tensor>& keys,
                            const ArgsortFn& argsort, GroupIdsPath* path) {
  if (keys.empty()) return Status::Invalid("GroupIds: no keys");
  for (const Tensor& k : keys) {
    if (k.rows() != keys[0].rows()) {
      return Status::Invalid("GroupIds: keys differ in row count");
    }
  }
  const std::optional<DensePacking> packing =
      PlanDensePacking(keys, DenseDomainLimit(keys[0].rows()));
  if (path != nullptr) {
    path->dense = packing.has_value();
    path->domain = packing.has_value() ? static_cast<int64_t>(packing->domain) : 0;
  }
  return packing.has_value() ? GroupIdsByRank(keys, *packing)
                             : GroupIdsBySort(keys, argsort);
}

Result<Tensor> GroupIds(const std::vector<Tensor>& keys, GroupIdsPath* path) {
  return GroupIdsWith(
      keys, [](const Tensor& key) { return ArgsortRows(key); }, path);
}

Result<Tensor> GroupCount(const Tensor& ids) {
  if (ids.dtype() != DType::kInt64 || ids.cols() != 1) {
    return Status::TypeError("GroupCount requires int64 (n x 1) ids");
  }
  const int64_t* p = ids.data<int64_t>();
  int64_t count = 0;
  for (int64_t i = 0; i < ids.rows(); ++i) count = std::max(count, p[i] + 1);
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Empty(DType::kInt64, 1, 1, ids.device()));
  out.mutable_data<int64_t>()[0] = count;
  return out;
}

Result<Tensor> ArgsortRows(const Tensor& a, bool ascending, bool* ordered) {
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kInt64, a.rows(), 1, a.device()));
  TQP_RETURN_NOT_OK(StableArgsortRange(a, 0, a.rows(), ascending,
                                       out.mutable_data<int64_t>(), 1, {}, ordered));
  return out;
}

Result<Tensor> SearchSorted(const Tensor& sorted, const Tensor& values,
                            bool right) {
  if (sorted.cols() != 1 || values.cols() != 1) {
    return Status::Invalid("SearchSorted requires (n x 1) tensors");
  }
  if (sorted.dtype() != values.dtype()) {
    return Status::TypeError("SearchSorted: dtype mismatch");
  }
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kInt64, values.rows(), 1, values.device()));
  int64_t* po = out.mutable_data<int64_t>();
  switch (sorted.dtype()) {
    case DType::kBool:
      SearchSortedDispatch<bool>(sorted, values, right, po);
      break;
    case DType::kUInt8:
      SearchSortedDispatch<uint8_t>(sorted, values, right, po);
      break;
    case DType::kInt32:
      SearchSortedDispatch<int32_t>(sorted, values, right, po);
      break;
    case DType::kInt64:
      SearchSortedDispatch<int64_t>(sorted, values, right, po);
      break;
    case DType::kFloat32:
      SearchSortedDispatch<float>(sorted, values, right, po);
      break;
    case DType::kFloat64:
      SearchSortedDispatch<double>(sorted, values, right, po);
      break;
  }
  return out;
}

Result<Tensor> SegmentBoundaries(const Tensor& keys) {
  TQP_ASSIGN_OR_RETURN(Tensor out,
                       Tensor::Empty(DType::kBool, keys.rows(), 1, keys.device()));
  bool* po = out.mutable_data<bool>();
  if (keys.rows() == 0) return out;
  po[0] = true;
  const int64_t row_bytes = keys.cols() * DTypeSize(keys.dtype());
  const uint8_t* p = static_cast<const uint8_t*>(keys.raw_data());
  for (int64_t i = 1; i < keys.rows(); ++i) {
    po[i] = std::memcmp(p + i * row_bytes, p + (i - 1) * row_bytes,
                        static_cast<size_t>(row_bytes)) != 0;
  }
  return out;
}

}  // namespace tqp::kernels
