#ifndef TQP_SQL_PARSER_H_
#define TQP_SQL_PARSER_H_

#include <memory>
#include <string>

#include "common/result.h"
#include "sql/ast.h"

namespace tqp::sql {

/// \brief Parses one SELECT statement (optionally ';'-terminated) into an AST.
///
/// This is the "parsing layer" entry point of TQP's compilation stack (§2.2):
/// in the paper the physical plan arrives from Spark; here the bundled SQL
/// frontend (parser + binder + planner) produces it.
Result<std::unique_ptr<SelectStatement>> ParseSelect(const std::string& sql);

}  // namespace tqp::sql

#endif  // TQP_SQL_PARSER_H_
