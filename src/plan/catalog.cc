#include "plan/catalog.h"

#include <algorithm>
#include <cstdint>
#include <type_traits>

#include "kernels/sort.h"

namespace tqp {

namespace {

/// A row of `key` that equals another row, or -1 when every row is
/// distinct; a NaN row when `*nan` comes back true.
template <typename T>
Result<int64_t> FindRepeatedRow(const Tensor& key, bool* nan) {
  const int64_t n = key.rows();
  const int64_t w = key.cols();
  const T* p = key.data<T>();
  if constexpr (std::is_floating_point_v<T>) {
    for (int64_t i = 0; i < n * w; ++i) {
      if (p[i] != p[i]) {
        *nan = true;
        return i / w;
      }
    }
  }
  const auto less = [p, w](int64_t a, int64_t b) {
    return std::lexicographical_compare(p + a * w, p + (a + 1) * w, p + b * w,
                                        p + (b + 1) * w);
  };
  int64_t i = 1;
  while (i < n && less(i - 1, i)) ++i;
  if (i >= n) return int64_t{-1};
  TQP_ASSIGN_OR_RETURN(Tensor perm, kernels::ArgsortRows(key));
  const int64_t* pp = perm.data<int64_t>();
  for (int64_t j = 1; j < n; ++j) {
    if (!less(pp[j - 1], pp[j])) return pp[j];
  }
  return int64_t{-1};
}

Result<int64_t> FindRepeatedRow(const Tensor& key, bool* nan) {
  switch (key.dtype()) {
    case DType::kBool:
      return FindRepeatedRow<bool>(key, nan);
    case DType::kUInt8:
      return FindRepeatedRow<uint8_t>(key, nan);
    case DType::kInt32:
      return FindRepeatedRow<int32_t>(key, nan);
    case DType::kInt64:
      return FindRepeatedRow<int64_t>(key, nan);
    case DType::kFloat32:
      return FindRepeatedRow<float>(key, nan);
    case DType::kFloat64:
      return FindRepeatedRow<double>(key, nan);
  }
  return Status::Internal("DeclarePrimaryKey: unknown dtype");
}

}  // namespace

void Catalog::RegisterTable(const std::string& name, Table table) {
  tables_.insert_or_assign(name, std::move(table));
  primary_keys_.erase(name);
}

Status Catalog::DeclarePrimaryKey(const std::string& table,
                                  const std::string& column) {
  primary_keys_.erase(table);
  TQP_ASSIGN_OR_RETURN(Table t, GetTable(table));
  const int index = t.schema().FieldIndex(column);
  if (index < 0) {
    return Status::KeyError("primary key " + table + "." + column +
                            ": no such column");
  }
  const Column& key = t.column(index);
  bool nan = false;
  TQP_ASSIGN_OR_RETURN(int64_t row, FindRepeatedRow(key.tensor(), &nan));
  if (row >= 0) {
    return Status::Invalid("primary key " + table + "." + column + " " +
                           (nan ? "holds NaN" : "is not unique") + ": value " +
                           key.ValueToString(row) + " at row " +
                           std::to_string(row));
  }
  primary_keys_[table] = index;
  return Status::OK();
}

int Catalog::PrimaryKey(const std::string& table) const {
  auto it = primary_keys_.find(table);
  return it == primary_keys_.end() ? -1 : it->second;
}

Result<Table> Catalog::GetTable(const std::string& name) const {
  auto it = tables_.find(name);
  if (it == tables_.end()) {
    return Status::KeyError("table '" + name + "' is not registered");
  }
  return it->second;
}

Result<Schema> Catalog::GetSchema(const std::string& name) const {
  TQP_ASSIGN_OR_RETURN(Table t, GetTable(name));
  return t.schema();
}

std::vector<std::string> Catalog::TableNames() const {
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, table] : tables_) names.push_back(name);
  return names;
}

}  // namespace tqp
