#ifndef TQP_TPCH_DBGEN_H_
#define TQP_TPCH_DBGEN_H_

#include <string>

#include "plan/catalog.h"
#include "relational/table.h"

namespace tqp::tpch {

/// \brief Options for the data generator.
struct DbgenOptions {
  double scale_factor = 0.01;
  uint64_t seed = 19920102;
};

/// \brief Generates one TPC-H table.
///
/// This is the reproduction's substitute for the official dbgen: it
/// preserves the schema, the key structure (dense primary keys,
/// spec-conformant foreign keys, 1-7 lineitems per order with consistent
/// dates), the value domains (quantities, discounts, dates, flags, segments,
/// priorities, ship modes, brands/types/containers with dbgen's categorical
/// vocabularies) and the correlations the supported queries exercise
/// (returnflag vs receiptdate, linestatus vs shipdate, commit < receipt
/// fraction for Q4/Q12). Text comments are random filler, not grammar-based.
Result<Table> GenerateTable(const std::string& table, const DbgenOptions& options);

/// \brief Generates all eight tables into `catalog` and declares the
/// single-column primary keys of orders, customer, part, supplier, nation
/// and region.
Status GenerateAll(const DbgenOptions& options, Catalog* catalog);

}  // namespace tqp::tpch

#endif  // TQP_TPCH_DBGEN_H_
