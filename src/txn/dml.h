#ifndef HIQUE_TXN_DML_H_
#define HIQUE_TXN_DML_H_

#include <cstdint>
#include <string>

#include "sql/ast.h"
#include "storage/catalog.h"
#include "util/status.h"

namespace hique::txn {

/// Executes one parsed DML statement and returns the number of rows
/// affected. DML is deliberately interpreted, not compiled: a single-table
/// insert/update/delete touches too few rows to amortize a compile, and the
/// interpreted path keeps the write side out of the generated-code cache
/// entirely (the paper's holistic engine stays read-only).
///
/// Concurrency: serializes on the target table's writer mutex for the whole
/// statement; compiled scans admitted before the statement completes see the
/// pre-statement snapshot, scans admitted after see all of it.
///
/// Typed failures: kNotFound (unknown table), kInvalidArgument (read-only
/// table), kBindError (unknown column, arity or type mismatch, non-literal
/// INSERT value).
Result<uint64_t> ExecuteDml(const sql::DmlStmt& stmt, Catalog* catalog);

/// Parse + execute convenience used by the session layer and tests.
Result<uint64_t> ExecuteDmlSql(const std::string& sql, Catalog* catalog);

}  // namespace hique::txn

#endif  // HIQUE_TXN_DML_H_
