// The binder lowers parsed AST to executable operator trees: name
// resolution against the catalog, dialect-aware function binding, predicate
// pushdown into columnar scans, join planning (equi-conjuncts become hash
// joins, Oracle (+) markers become outer joins), aggregation planning, and
// the Oracle pseudo-features (DUAL, ROWNUM, CONNECT BY, sequences).
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "catalog/catalog.h"
#include "exec/operator.h"
#include "sql/ast.h"
#include "sql/session.h"

namespace dashdb {

/// Pushdown + residual split of a single-table WHERE clause.
struct TablePredicates {
  std::vector<ColumnPredicate> pushdown;
  ExprPtr residual;  ///< null when fully pushable
};

/// Engine-level tuning handed into every bind (feature toggles reach the
/// scans; the buffer pool is charged by scans when set).
struct BindOptions {
  ScanOptions scan;
};

class Binder {
 public:
  Binder(Catalog* catalog, Session* session, BindOptions opts = {})
      : catalog_(catalog), session_(session), opts_(opts) {}

  /// Binds a SELECT into an operator tree (output names/types on the root).
  Result<OperatorPtr> BindSelect(const ast::SelectStmt& stmt);

  /// Binds a scalar expression against an explicit column scope (used by
  /// the engine's UPDATE/DELETE paths). Column names resolve unqualified.
  Result<ExprPtr> BindScalar(const ast::ExprP& e,
                             const std::vector<OutputCol>& scope_cols);

  /// Splits a single-table WHERE into storage pushdown predicates and a
  /// bound residual filter (null when everything was pushable).
  Result<TablePredicates> SplitTablePredicates(const TableSchema& schema,
                                               const ast::ExprP& where);

  Catalog* catalog() { return catalog_; }
  Session* session() { return session_; }
  const BindOptions& options() const { return opts_; }

 private:
  Catalog* catalog_;
  Session* session_;
  BindOptions opts_;
};

/// Serializes an AST expression to a canonical string (used for GROUP BY /
/// select-item matching and EXPLAIN).
std::string AstToString(const ast::ExprP& e);

}  // namespace dashdb
