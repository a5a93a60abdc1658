#ifndef TQP_PLAN_CATALOG_H_
#define TQP_PLAN_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "common/result.h"
#include "relational/table.h"

namespace tqp {

/// \brief Name -> table registry the binder resolves FROM clauses against
/// (the "session" of the TQP workflow: tables registered from DataFrames).
class Catalog {
 public:
  /// \brief Registers (or replaces) a table under `name`. Replacing a table
  /// drops its declared primary key.
  void RegisterTable(const std::string& name, Table table);

  /// \brief Declares `column` of table `table` its primary key after checking
  /// that no two rows hold equal values (under operator<, as the join's
  /// sort and search compare them). A duplicate or a NaN fails with a
  /// Status naming the table, the column and the value; the table then has
  /// no key. One pass when the column is already strictly increasing.
  Status DeclarePrimaryKey(const std::string& table, const std::string& column);

  /// \brief The column index of `table`'s declared primary key, or -1.
  int PrimaryKey(const std::string& table) const;

  Result<Table> GetTable(const std::string& name) const;
  Result<Schema> GetSchema(const std::string& name) const;
  std::vector<std::string> TableNames() const;

 private:
  std::map<std::string, Table> tables_;
  std::map<std::string, int> primary_keys_;
};

}  // namespace tqp

#endif  // TQP_PLAN_CATALOG_H_
