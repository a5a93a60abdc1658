#include "operators/hash_groupby.h"

#include <cstring>
#include <string>
#include <unordered_map>

#include "kernels/kernels.h"
#include "kernels/sort_internal.h"

namespace tqp::op {

namespace {

// Byte-encodes the key tuple of row i for exact hash grouping.
std::string RowKey(const std::vector<Tensor>& keys, int64_t i) {
  std::string out;
  for (const Tensor& k : keys) {
    const int64_t row_bytes = k.cols() * DTypeSize(k.dtype());
    const char* p =
        reinterpret_cast<const char*>(k.raw_data()) + i * row_bytes;
    out.append(p, static_cast<size_t>(row_bytes));
    out.push_back('\x1f');
  }
  return out;
}

}  // namespace

Result<GroupIds> HashGroupIds(const std::vector<Tensor>& keys) {
  if (keys.empty()) return Status::Invalid("HashGroupIds: no keys");
  const int64_t n = keys[0].rows();
  for (const Tensor& k : keys) {
    if (k.rows() != n) return Status::Invalid("HashGroupIds: length mismatch");
  }
  GroupIds out;
  TQP_ASSIGN_OR_RETURN(out.group_ids, Tensor::Empty(DType::kInt64, n, 1));
  int64_t* ids = out.group_ids.mutable_data<int64_t>();
  std::unordered_map<std::string, int64_t> table;
  table.reserve(static_cast<size_t>(n) * 2);
  std::vector<int64_t> reps;
  for (int64_t i = 0; i < n; ++i) {
    auto [it, inserted] =
        table.try_emplace(RowKey(keys, i), static_cast<int64_t>(reps.size()));
    if (inserted) reps.push_back(i);
    ids[i] = it->second;
  }
  out.representatives = Tensor::FromVector(reps);
  out.num_groups = static_cast<int64_t>(reps.size());
  return out;
}

Result<GroupIds> SortGroupIds(const std::vector<Tensor>& keys) {
  if (keys.empty()) return Status::Invalid("SortGroupIds: no keys");
  GroupIds out;
  TQP_ASSIGN_OR_RETURN(
      out.group_ids,
      kernels::GroupIdsBySort(
          keys, [](const Tensor& k) { return kernels::ArgsortRows(k); }));
  TQP_ASSIGN_OR_RETURN(Tensor count, kernels::GroupCount(out.group_ids));
  out.num_groups = count.ScalarAsInt64(0);
  // Each group's first input row: walking rows backwards, the lowest wins.
  std::vector<int64_t> reps(static_cast<size_t>(out.num_groups), -1);
  const int64_t* ids = out.group_ids.data<int64_t>();
  for (int64_t i = out.group_ids.rows(); i-- > 0;) {
    reps[static_cast<size_t>(ids[i])] = i;
  }
  out.representatives = Tensor::FromVector(reps);
  return out;
}

Result<Tensor> GroupedReduce(ReduceOpKind op, const Tensor& values,
                             const GroupIds& groups) {
  // Sort-free aggregation: direct scatter into per-group accumulators.
  using namespace tqp::kernels;  // NOLINT
  const int64_t g = groups.num_groups;
  const int64_t* ids = groups.group_ids.data<int64_t>();
  if (op == ReduceOpKind::kCount) {
    TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Full(DType::kInt64, g, 1, 0.0));
    int64_t* po = out.mutable_data<int64_t>();
    for (int64_t i = 0; i < values.rows(); ++i) ++po[ids[i]];
    return out;
  }
  TQP_ASSIGN_OR_RETURN(Tensor cv, Cast(values, DType::kFloat64));
  const double* pv = cv.data<double>();
  if (op == ReduceOpKind::kSum) {
    TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Full(DType::kFloat64, g, 1, 0.0));
    double* po = out.mutable_data<double>();
    for (int64_t i = 0; i < values.rows(); ++i) po[ids[i]] += pv[i];
    return out;
  }
  TQP_ASSIGN_OR_RETURN(Tensor out, Tensor::Full(DType::kFloat64, g, 1, 0.0));
  TQP_ASSIGN_OR_RETURN(Tensor seen, Tensor::Full(DType::kBool, g, 1, 0.0));
  double* po = out.mutable_data<double>();
  bool* ps = seen.mutable_data<bool>();
  for (int64_t i = 0; i < values.rows(); ++i) {
    const int64_t id = ids[i];
    if (!ps[id]) {
      po[id] = pv[i];
      ps[id] = true;
    } else if (op == ReduceOpKind::kMin ? pv[i] < po[id] : pv[i] > po[id]) {
      po[id] = pv[i];
    }
  }
  if (values.dtype() != DType::kFloat64) {
    return Cast(out, values.dtype());
  }
  return out;
}

}  // namespace tqp::op
