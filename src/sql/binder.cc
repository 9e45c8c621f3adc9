#include "sql/binder.h"

#include <algorithm>
#include <functional>
#include <map>
#include <set>

#include "exec/functions.h"
#include "exec/sort.h"
#include "sql/cardinality.h"
#include "sql/parser.h"

namespace dashdb {

using ast::BinOp;
using ast::ExprKind;
using ast::ExprP;

// ------------------------------------------------------------ AstToString --

std::string AstToString(const ExprP& e) {
  if (!e) return "<null>";
  switch (e->kind) {
    case ExprKind::kLiteral:
      return "lit:" + e->literal.ToString();
    case ExprKind::kColumnRef:
      return e->qualifier.empty() ? e->name : e->qualifier + "." + e->name;
    case ExprKind::kStar:
      return e->qualifier.empty() ? "*" : e->qualifier + ".*";
    case ExprKind::kParam:
      return "?" + std::to_string(e->param_index + 1);
    case ExprKind::kBinary: {
      static const char* ops[] = {"+", "-", "*", "/", "%",  "||", "=",
                                  "<>", "<", "<=", ">", ">=", "AND", "OR"};
      return "(" + AstToString(e->children[0]) + " " +
             ops[static_cast<int>(e->bin_op)] + " " +
             AstToString(e->children[1]) + ")";
    }
    case ExprKind::kUnary:
      return (e->unary_minus ? "-" : "NOT ") + AstToString(e->children[0]);
    case ExprKind::kFuncCall: {
      std::string s = e->name + "(";
      if (e->distinct_arg) s += "DISTINCT ";
      for (size_t i = 0; i < e->children.size(); ++i) {
        if (i) s += ",";
        s += AstToString(e->children[i]);
      }
      return s + ")";
    }
    case ExprKind::kCase: {
      std::string s = "CASE";
      for (const auto& c : e->children) s += " " + AstToString(c);
      if (e->else_branch) s += " ELSE " + AstToString(e->else_branch);
      return s + " END";
    }
    case ExprKind::kCast:
      return "CAST(" + AstToString(e->children[0]) + " AS " +
             TypeName(e->cast_type) + ")";
    case ExprKind::kIsNull:
      return AstToString(e->children[0]) +
             (e->negate ? " IS NOT NULL" : " IS NULL");
    case ExprKind::kIsTrue:
      return AstToString(e->children[0]) + (e->negate ? " ISFALSE" : " ISTRUE");
    case ExprKind::kLike:
      return AstToString(e->children[0]) + (e->negate ? " NOT LIKE " : " LIKE ") +
             e->like_pattern;
    case ExprKind::kInList: {
      std::string s = AstToString(e->children[0]) +
                      (e->negate ? " NOT IN (" : " IN (");
      for (size_t i = 1; i < e->children.size(); ++i) {
        if (i > 1) s += ",";
        s += AstToString(e->children[i]);
      }
      return s + ")";
    }
    case ExprKind::kBetween:
      return AstToString(e->children[0]) + " BETWEEN " +
             AstToString(e->children[1]) + " AND " + AstToString(e->children[2]);
    case ExprKind::kSequenceRef:
      return e->name + (e->seq_nextval ? ".NEXTVAL" : ".CURRVAL");
    case ExprKind::kOverlaps:
      return AstToString(e->children[0]) + " OVERLAPS " +
             AstToString(e->children[1]);
  }
  return "?";
}

namespace {

// ------------------------------------------------------------------ scope --

struct ScopeItem {
  std::string alias;  ///< table alias (upper), or "$agg" for agg outputs
  std::string name;   ///< column name (upper)
  TypeId type = TypeId::kInt64;
};

struct Scope {
  std::vector<ScopeItem> items;

  Result<int> Resolve(const std::string& qualifier,
                      const std::string& name) const {
    int found = -1;
    for (size_t i = 0; i < items.size(); ++i) {
      if (!qualifier.empty() && items[i].alias != qualifier) continue;
      if (items[i].name != name) continue;
      if (found >= 0) {
        return Status::SemanticError("ambiguous column " + name);
      }
      found = static_cast<int>(i);
    }
    if (found < 0) {
      return Status::SemanticError(
          "column " + (qualifier.empty() ? name : qualifier + "." + name) +
          " not found");
    }
    return found;
  }

  bool Has(const std::string& qualifier, const std::string& name) const {
    for (const auto& it : items) {
      if (!qualifier.empty() && it.alias != qualifier) continue;
      if (it.name == name) return true;
    }
    return false;
  }
};

// ----------------------------------------------------------- pseudo exprs --

/// Oracle ROWNUM in a select list: a running counter over emitted rows.
class RownumExpr : public Expr {
 public:
  RownumExpr() : Expr(TypeId::kInt64) {}
  Result<Value> EvaluateRow(const RowBatch&, size_t,
                            const ExecContext&) const override {
    return Value::Int64(++counter_);
  }
  std::string ToString() const override { return "ROWNUM"; }

 private:
  mutable int64_t counter_ = 0;
};

// ------------------------------------------------------------- ConnectBy --

/// Oracle hierarchical query (CONNECT BY PRIOR parent = child): iterative
/// level expansion over a materialized input, emitting a LEVEL column.
class ConnectByOp : public Operator {
 public:
  ConnectByOp(OperatorPtr child, ExprPtr start_with, int prior_col,
              int child_col, const ExecContext* ctx)
      : child_(std::move(child)),
        start_with_(std::move(start_with)),
        prior_col_(prior_col),
        child_col_(child_col),
        ctx_(ctx) {
    output_ = child_->output();
    output_.push_back({"LEVEL", TypeId::kInt64});
  }

  Status OpenImpl() override {
    done_ = false;
    return child_->Open();
  }

  Result<bool> NextImpl(RowBatch* out) override {
    if (done_) return false;
    DASHDB_ASSIGN_OR_RETURN(RowBatch all, DrainOperator(child_.get()));
    const size_t n = all.num_rows();
    out->columns.clear();
    for (const auto& c : output_) out->columns.emplace_back(c.type);
    // Level 1: START WITH rows (all rows when absent).
    std::vector<uint32_t> frontier;
    if (start_with_) {
      DASHDB_ASSIGN_OR_RETURN(frontier, EvalFilter(*start_with_, all, *ctx_));
    } else {
      for (size_t i = 0; i < n; ++i) frontier.push_back(static_cast<uint32_t>(i));
    }
    // Child lookup: child_col value -> rows.
    std::multimap<std::string, uint32_t> by_child;
    for (size_t i = 0; i < n; ++i) {
      Value v = all.columns[child_col_].GetValue(i);
      if (!v.is_null()) by_child.emplace(v.ToString(), static_cast<uint32_t>(i));
    }
    std::vector<bool> visited(n, false);
    int64_t level = 1;
    while (!frontier.empty() && level <= 64) {
      std::vector<uint32_t> next;
      for (uint32_t r : frontier) {
        if (visited[r]) continue;  // cycle guard
        visited[r] = true;
        for (size_t c = 0; c < all.columns.size(); ++c) {
          out->columns[c].AppendFrom(all.columns[c], r);
        }
        out->columns.back().AppendInt(level);
        Value parent_key = all.columns[prior_col_].GetValue(r);
        if (parent_key.is_null()) continue;
        auto [b, e] = by_child.equal_range(parent_key.ToString());
        for (auto it = b; it != e; ++it) {
          if (!visited[it->second]) next.push_back(it->second);
        }
      }
      frontier = std::move(next);
      ++level;
    }
    done_ = true;
    return true;
  }

 private:
  OperatorPtr child_;
  ExprPtr start_with_;
  int prior_col_, child_col_;
  const ExecContext* ctx_;
  bool done_ = false;
};

// ------------------------------------------------------------ expr binder --

bool IsAggregateName(const std::string& name) {
  AggKind k;
  return AggKindFromName(name, &k);
}

/// Collects distinct aggregate calls (by serialization) in an AST.
void CollectAggCalls(const ExprP& e, std::vector<ExprP>* out,
                     std::set<std::string>* seen) {
  if (!e) return;
  if (e->kind == ExprKind::kFuncCall && IsAggregateName(e->name)) {
    std::string key = AstToString(e);
    if (seen->insert(key).second) out->push_back(e);
    return;  // no nested aggregates
  }
  for (const auto& c : e->children) CollectAggCalls(c, out, seen);
  if (e->else_branch) CollectAggCalls(e->else_branch, out, seen);
}

bool ContainsAgg(const ExprP& e) {
  std::vector<ExprP> v;
  std::set<std::string> s;
  CollectAggCalls(e, &v, &s);
  return !v.empty();
}

class ExprBinder {
 public:
  ExprBinder(const Scope* scope, Session* session)
      : scope_(scope), session_(session) {}

  /// Binds and then constant-folds: a pure node whose children all bound
  /// to literals is evaluated once here and replaced by the result, so the
  /// vectorized engine never re-evaluates `V * (100 + 1) / 2`-style
  /// subtrees per batch. Folding is bottom-up (recursive Bind calls come
  /// back through this wrapper), so any non-pure descendant blocks it.
  Result<ExprPtr> Bind(const ExprP& e) {
    DASHDB_ASSIGN_OR_RETURN(ExprPtr bound, BindNode(e));
    return MaybeFold(std::move(bound));
  }

  ExprPtr MaybeFold(ExprPtr bound) {
    if (!bound->pure()) return bound;
    std::vector<const Expr*> kids = bound->children();
    if (kids.empty()) return bound;
    for (const Expr* c : kids) {
      if (dynamic_cast<const LiteralExpr*>(c) == nullptr) return bound;
    }
    RowBatch empty;
    auto v = bound->EvaluateRow(empty, 0, session_->exec_ctx());
    // Evaluation errors (1/0, bad casts) must surface at run time, not
    // bind time: keep the expression unfolded.
    if (!v.ok()) return bound;
    Value folded = std::move(*v);
    if (folded.is_null()) {
      folded = Value::Null(bound->out_type());
    } else if (folded.type() != bound->out_type()) {
      auto cast = folded.CastTo(bound->out_type());
      if (!cast.ok()) return bound;
      folded = std::move(*cast);
    }
    return std::make_shared<LiteralExpr>(std::move(folded));
  }

 private:
  Result<ExprPtr> BindNode(const ExprP& e) {
    switch (e->kind) {
      case ExprKind::kLiteral:
        return std::static_pointer_cast<Expr>(
            std::make_shared<LiteralExpr>(e->literal));
      case ExprKind::kParam: {
        // '?' binds to the session's EXECUTE-time parameter vector. The
        // cached AST is shared and immutable; substitution happens here, at
        // bind time, so every EXECUTE re-binds against fresh values.
        DASHDB_ASSIGN_OR_RETURN(Value v, session_->BindParam(e->param_index));
        return std::static_pointer_cast<Expr>(
            std::make_shared<LiteralExpr>(std::move(v)));
      }
      case ExprKind::kColumnRef:
        return BindColumnRef(e);
      case ExprKind::kStar:
        return Status::SemanticError("'*' not valid here");
      case ExprKind::kBinary:
        return BindBinary(e);
      case ExprKind::kUnary: {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr c, Bind(e->children[0]));
        if (e->unary_minus) {
          TypeId t = c->out_type() == TypeId::kDouble ? TypeId::kDouble
                                                      : TypeId::kInt64;
          return std::static_pointer_cast<Expr>(std::make_shared<ArithExpr>(
              ArithOp::kSub,
              std::make_shared<LiteralExpr>(t == TypeId::kDouble
                                                ? Value::Double(0)
                                                : Value::Int64(0)),
              std::move(c), t));
        }
        return std::static_pointer_cast<Expr>(
            std::make_shared<LogicExpr>(LogicOp::kNot, std::move(c)));
      }
      case ExprKind::kFuncCall:
        return BindFuncCall(e);
      case ExprKind::kCase:
        return BindCase(e);
      case ExprKind::kCast: {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr c, Bind(e->children[0]));
        return std::static_pointer_cast<Expr>(
            std::make_shared<CastExpr>(std::move(c), e->cast_type));
      }
      case ExprKind::kIsNull: {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr c, Bind(e->children[0]));
        // Oracle VARCHAR2 semantics are baked in at bind time so that views
        // created under the Oracle dialect keep them regardless of the
        // querying session's dialect (paper II.C.2).
        if (session_->dialect() == Dialect::kOracle &&
            c->out_type() == TypeId::kVarchar) {
          auto nullif_empty = [](const std::vector<Value>& a,
                                 const ExecContext&) -> Result<Value> {
            if (!a[0].is_null() && a[0].AsString().empty()) {
              return Value::Null(TypeId::kVarchar);
            }
            return a[0];
          };
          c = std::make_shared<FuncExpr>("$VARCHAR2", nullif_empty,
                                         std::vector<ExprPtr>{std::move(c)},
                                         TypeId::kVarchar);
        }
        return std::static_pointer_cast<Expr>(
            std::make_shared<IsNullExpr>(std::move(c), e->negate));
      }
      case ExprKind::kIsTrue: {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr c, Bind(e->children[0]));
        bool want_false = e->negate;
        auto fn = [want_false](const std::vector<Value>& a,
                               const ExecContext&) -> Result<Value> {
          if (a[0].is_null()) return Value::Boolean(false);
          return Value::Boolean(want_false ? !a[0].AsBool() : a[0].AsBool());
        };
        return std::static_pointer_cast<Expr>(std::make_shared<FuncExpr>(
            want_false ? "ISFALSE" : "ISTRUE", fn,
            std::vector<ExprPtr>{std::move(c)}, TypeId::kBoolean));
      }
      case ExprKind::kLike: {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr c, Bind(e->children[0]));
        return std::static_pointer_cast<Expr>(std::make_shared<LikeExpr>(
            std::move(c), e->like_pattern, e->negate));
      }
      case ExprKind::kInList: {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr c, Bind(e->children[0]));
        std::vector<Value> list;
        for (size_t i = 1; i < e->children.size(); ++i) {
          DASHDB_ASSIGN_OR_RETURN(Value v, FoldToValue(e->children[i]));
          list.push_back(std::move(v));
        }
        return std::static_pointer_cast<Expr>(std::make_shared<InExpr>(
            std::move(c), std::move(list), e->negate));
      }
      case ExprKind::kBetween: {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr x, Bind(e->children[0]));
        DASHDB_ASSIGN_OR_RETURN(ExprPtr lo, Bind(e->children[1]));
        DASHDB_ASSIGN_OR_RETURN(ExprPtr hi, Bind(e->children[2]));
        ExprPtr ge = std::make_shared<CompareExpr>(CmpOp::kGe, x, lo);
        ExprPtr le = std::make_shared<CompareExpr>(CmpOp::kLe, x, hi);
        ExprPtr both = std::make_shared<LogicExpr>(LogicOp::kAnd, ge, le);
        if (e->negate) {
          return std::static_pointer_cast<Expr>(
              std::make_shared<LogicExpr>(LogicOp::kNot, both));
        }
        return both;
      }
      case ExprKind::kSequenceRef: {
        Session* session = session_;
        std::string name = e->name;
        bool nextval = e->seq_nextval;
        auto fn = [session, name, nextval](
                      const std::vector<Value>&,
                      const ExecContext&) -> Result<Value> {
          DASHDB_ASSIGN_OR_RETURN(int64_t v,
                                  nextval ? session->SequenceNext(name)
                                          : session->SequenceCurrent(name));
          return Value::Int64(v);
        };
        return std::static_pointer_cast<Expr>(std::make_shared<FuncExpr>(
            name + (nextval ? ".NEXTVAL" : ".CURRVAL"), fn,
            std::vector<ExprPtr>{}, TypeId::kInt64));
      }
      case ExprKind::kOverlaps:
        return BindOverlaps(e);
    }
    return Status::Internal("unhandled expression kind");
  }

 public:
  /// Constant-folds an AST expression (literal or function of literals).
  Result<Value> FoldToValue(const ExprP& e) {
    if (e->kind == ExprKind::kLiteral) return e->literal;
    DASHDB_ASSIGN_OR_RETURN(ExprPtr bound, Bind(e));
    RowBatch empty;
    return bound->EvaluateRow(empty, 0, session_->exec_ctx());
  }

 private:
  Result<ExprPtr> BindColumnRef(const ExprP& e) {
    if (e->qualifier.empty() && e->name == "ROWNUM") {
      return std::static_pointer_cast<Expr>(std::make_shared<RownumExpr>());
    }
    auto idx = scope_->Resolve(e->qualifier, e->name);
    if (!idx.ok() && e->qualifier.empty()) {
      // Niladic functions referenced without parentheses (Oracle SYSDATE,
      // ANSI CURRENT_DATE): columns shadow them, so try only after the
      // scope lookup fails.
      const FunctionDef* def = FunctionRegistry::Global().Lookup(e->name);
      if (def && def->min_args == 0) {
        return std::static_pointer_cast<Expr>(std::make_shared<FuncExpr>(
            e->name, def->fn, std::vector<ExprPtr>{}, def->ret_type({})));
      }
    }
    DASHDB_RETURN_IF_ERROR(idx.status());
    return std::static_pointer_cast<Expr>(std::make_shared<ColumnRefExpr>(
        *idx, scope_->items[*idx].type, scope_->items[*idx].name));
  }

  Result<ExprPtr> BindBinary(const ExprP& e) {
    DASHDB_ASSIGN_OR_RETURN(ExprPtr l, Bind(e->children[0]));
    DASHDB_ASSIGN_OR_RETURN(ExprPtr r, Bind(e->children[1]));
    switch (e->bin_op) {
      case BinOp::kAnd:
        return std::static_pointer_cast<Expr>(std::make_shared<LogicExpr>(
            LogicOp::kAnd, std::move(l), std::move(r)));
      case BinOp::kOr:
        return std::static_pointer_cast<Expr>(std::make_shared<LogicExpr>(
            LogicOp::kOr, std::move(l), std::move(r)));
      case BinOp::kEq:
      case BinOp::kNe:
      case BinOp::kLt:
      case BinOp::kLe:
      case BinOp::kGt:
      case BinOp::kGe: {
        static const CmpOp kMap[] = {CmpOp::kEq, CmpOp::kNe, CmpOp::kLt,
                                     CmpOp::kLe, CmpOp::kGt, CmpOp::kGe};
        CmpOp op = kMap[static_cast<int>(e->bin_op) -
                        static_cast<int>(BinOp::kEq)];
        // Align literal string comparands with typed columns (date/number).
        l = CoerceComparand(std::move(l), r->out_type());
        r = CoerceComparand(std::move(r), l->out_type());
        return std::static_pointer_cast<Expr>(
            std::make_shared<CompareExpr>(op, std::move(l), std::move(r)));
      }
      default: {
        static const ArithOp kMap[] = {ArithOp::kAdd, ArithOp::kSub,
                                       ArithOp::kMul, ArithOp::kDiv,
                                       ArithOp::kMod, ArithOp::kConcat};
        ArithOp op = kMap[static_cast<int>(e->bin_op)];
        TypeId out;
        if (op == ArithOp::kConcat) {
          out = TypeId::kVarchar;
        } else if (op == ArithOp::kDiv) {
          out = TypeId::kDouble;
        } else if (l->out_type() == TypeId::kDouble ||
                   r->out_type() == TypeId::kDouble) {
          out = TypeId::kDouble;
        } else if (l->out_type() == TypeId::kDate &&
                   (op == ArithOp::kAdd || op == ArithOp::kSub) &&
                   r->out_type() != TypeId::kDate) {
          out = TypeId::kDate;
        } else {
          out = TypeId::kInt64;
        }
        return std::static_pointer_cast<Expr>(std::make_shared<ArithExpr>(
            op, std::move(l), std::move(r), out));
      }
    }
  }

  /// Casts a string literal to the other side's type when comparing against
  /// DATE/TIMESTAMP columns (so '2017-01-01' compares as a date).
  ExprPtr CoerceComparand(ExprPtr side, TypeId other) {
    if ((other == TypeId::kDate || other == TypeId::kTimestamp) &&
        side->out_type() == TypeId::kVarchar) {
      auto lit = std::dynamic_pointer_cast<LiteralExpr>(side);
      if (lit) {
        auto cast = lit->value().CastTo(other);
        if (cast.ok()) return std::make_shared<LiteralExpr>(*cast);
      }
    }
    return side;
  }

  Result<ExprPtr> BindFuncCall(const ExprP& e) {
    if (IsAggregateName(e->name)) {
      return Status::SemanticError("aggregate " + e->name +
                                   " not allowed here");
    }
    if (e->name == "PRIOR") {
      return Status::SemanticError("PRIOR outside CONNECT BY");
    }
    const FunctionDef* def = FunctionRegistry::Global().Lookup(e->name);
    if (!def) {
      return Status::SemanticError("unknown function " + e->name);
    }
    int argc = static_cast<int>(e->children.size());
    if (argc < def->min_args ||
        (def->max_args >= 0 && argc > def->max_args)) {
      return Status::SemanticError("wrong argument count for " + e->name);
    }
    std::vector<ExprPtr> args;
    std::vector<TypeId> arg_types;
    for (const auto& c : e->children) {
      DASHDB_ASSIGN_OR_RETURN(ExprPtr a, Bind(c));
      arg_types.push_back(a->out_type());
      args.push_back(std::move(a));
    }
    TypeId out = def->ret_type(arg_types);
    return std::static_pointer_cast<Expr>(std::make_shared<FuncExpr>(
        e->name, def->fn, std::move(args), out, def->pure, def->vec_fn));
  }

  Result<ExprPtr> BindCase(const ExprP& e) {
    std::vector<std::pair<ExprPtr, ExprPtr>> whens;
    size_t i = e->has_case_operand ? 1 : 0;
    ExprPtr operand;
    if (e->has_case_operand) {
      DASHDB_ASSIGN_OR_RETURN(operand, Bind(e->children[0]));
    }
    TypeId out = TypeId::kVarchar;
    bool first = true;
    for (; i + 1 < e->children.size(); i += 2) {
      DASHDB_ASSIGN_OR_RETURN(ExprPtr cond, Bind(e->children[i]));
      DASHDB_ASSIGN_OR_RETURN(ExprPtr then, Bind(e->children[i + 1]));
      if (e->has_case_operand) {
        cond = std::make_shared<CompareExpr>(CmpOp::kEq, operand, cond);
      }
      if (first) {
        out = then->out_type();
        first = false;
      }
      whens.emplace_back(std::move(cond), std::move(then));
    }
    ExprPtr els;
    if (e->else_branch) {
      DASHDB_ASSIGN_OR_RETURN(els, Bind(e->else_branch));
      if (first) out = els->out_type();
    }
    return std::static_pointer_cast<Expr>(std::make_shared<CaseExpr>(
        std::move(whens), std::move(els), out));
  }

  Result<ExprPtr> BindOverlaps(const ExprP& e) {
    const ExprP& l = e->children[0];
    const ExprP& r = e->children[1];
    if (l->kind != ExprKind::kFuncCall || l->name != "$ROW" ||
        l->children.size() != 2 || r->kind != ExprKind::kFuncCall ||
        r->name != "$ROW" || r->children.size() != 2) {
      return Status::SemanticError("OVERLAPS requires (start, end) pairs");
    }
    std::vector<ExprPtr> args;
    for (const ExprP& c : {l->children[0], l->children[1], r->children[0],
                           r->children[1]}) {
      DASHDB_ASSIGN_OR_RETURN(ExprPtr a, Bind(c));
      args.push_back(std::move(a));
    }
    auto fn = [](const std::vector<Value>& a,
                 const ExecContext&) -> Result<Value> {
      for (const auto& v : a) {
        if (v.is_null()) return Value::Null(TypeId::kBoolean);
      }
      // (s1, e1) OVERLAPS (s2, e2): s1 < e2 AND s2 < e1.
      return Value::Boolean(a[0].Compare(a[3]) < 0 && a[2].Compare(a[1]) < 0);
    };
    return std::static_pointer_cast<Expr>(std::make_shared<FuncExpr>(
        "OVERLAPS", fn, std::move(args), TypeId::kBoolean));
  }

  const Scope* scope_;
  Session* session_;
};

// -------------------------------------------------------- select binding --

void SplitConjuncts(const ExprP& e, std::vector<ExprP>* out) {
  if (e && e->kind == ExprKind::kBinary && e->bin_op == BinOp::kAnd) {
    SplitConjuncts(e->children[0], out);
    SplitConjuncts(e->children[1], out);
    return;
  }
  if (e) out->push_back(e);
}

/// Lists every column ref in an AST.
void CollectColumnRefs(const ExprP& e, std::vector<const ast::Expr*>* out) {
  if (!e) return;
  if (e->kind == ExprKind::kColumnRef) {
    out->push_back(e.get());
    return;
  }
  for (const auto& c : e->children) CollectColumnRefs(c, out);
  if (e->else_branch) CollectColumnRefs(e->else_branch, out);
}

/// True for a COUNT(*) call with no DISTINCT — the only aggregate shape
/// the metadata/SWAR count fast path can answer.
bool IsBareCountStar(const ast::Expr& e) {
  if (e.kind != ExprKind::kFuncCall || e.distinct_arg) return false;
  AggKind k;
  if (!AggKindFromName(e.name, &k) || k != AggKind::kCount) return false;
  return e.children.size() == 1 && e.children[0]->kind == ExprKind::kStar;
}

class SelectBinder {
 public:
  SelectBinder(Binder* binder) : b_(binder) {}

  Result<OperatorPtr> Bind(const ast::SelectStmt& stmt,
                           const std::vector<ast::CteDef>* outer_ctes =
                               nullptr) {
    // Merge outer CTEs with this level's.
    std::vector<ast::CteDef> ctes;
    if (outer_ctes) ctes = *outer_ctes;
    for (const auto& c : stmt.ctes) ctes.push_back(c);

    if (!stmt.values_rows.empty()) return BindValues(stmt);

    // ---- FROM / WHERE / joins ----
    Scope scope;
    OperatorPtr root;
    int64_t rownum_limit = -1;

    std::vector<ExprP> where_pool;
    SplitConjuncts(stmt.where, &where_pool);

    if (stmt.from.empty()) {
      root = MakeDual(&scope);
    } else {
      // Pre-resolve every FROM item's column list so unqualified WHERE refs
      // can be attributed to tables before scans are built.
      std::vector<std::vector<ScopeItem>> item_cols;
      std::vector<OperatorPtr> pending;  // subquery/view/values operators
      std::vector<std::shared_ptr<const ColumnTable>> col_tables;
      std::vector<std::shared_ptr<const RowTable>> row_tables;
      std::vector<std::shared_ptr<const ScannableStorage>> scannables;
      for (const auto& ref : stmt.from) {
        DASHDB_ASSIGN_OR_RETURN(
            auto resolved, ResolveFromItem(ref, ctes));
        item_cols.push_back(std::move(resolved.cols));
        pending.push_back(std::move(resolved.op));
        col_tables.push_back(resolved.col_table);
        row_tables.push_back(resolved.row_table);
        scannables.push_back(resolved.scannable);
      }
      // Full scope (FROM order) for conjunct attribution.
      Scope full;
      std::vector<std::pair<int, int>> ranges;  // per item [begin, end)
      for (const auto& cols : item_cols) {
        ranges.emplace_back(static_cast<int>(full.items.size()),
                            static_cast<int>(full.items.size() + cols.size()));
        for (const auto& c : cols) full.items.push_back(c);
      }

      // Classify WHERE conjuncts. With any outer join in play, pushed
      // predicates on non-first tables are also kept as residual filters so
      // null-extended rows are still rejected per standard WHERE semantics
      // (pushing remains correct AND fast; see DESIGN.md).
      bool has_outer = false;
      for (const auto& ref : stmt.from) {
        if (ref.join == ast::TableRef::JoinKind::kLeft ||
            ref.join == ast::TableRef::JoinKind::kRight) {
          has_outer = true;
        }
      }
      for (const auto& conj : where_pool) {
        std::vector<const ast::Expr*> refs;
        CollectColumnRefs(conj, &refs);
        for (const auto* r : refs) has_outer |= r->oracle_outer;
      }
      std::vector<ExprP> residual;
      std::vector<std::vector<ColumnPredicate>> pushdown(stmt.from.size());
      std::vector<ExprP> join_pool;  // cross-table equality conjuncts
      for (const auto& conj : where_pool) {
        // Oracle ROWNUM <= n.
        if (conj->kind == ExprKind::kBinary &&
            (conj->bin_op == BinOp::kLe || conj->bin_op == BinOp::kLt) &&
            conj->children[0]->kind == ExprKind::kColumnRef &&
            conj->children[0]->name == "ROWNUM" &&
            conj->children[1]->kind == ExprKind::kLiteral) {
          int64_t n = conj->children[1]->literal.AsInt();
          if (conj->bin_op == BinOp::kLt) n -= 1;
          rownum_limit = rownum_limit < 0 ? n : std::min(rownum_limit, n);
          continue;
        }
        int item = SingleItemOf(conj, full, ranges);
        if (item >= 0 &&
            (col_tables[item] || row_tables[item] || scannables[item])) {
          ColumnPredicate pred;
          bool keep_residual = has_outer && item != 0;
          if (TryMakePushdown(conj, full, ranges[item],
                              item_cols[item], &pred, &keep_residual)) {
            pushdown[item].push_back(pred);
            if (!keep_residual) continue;
          }
        }
        if (IsJoinEqui(conj, full, ranges)) {
          join_pool.push_back(conj);
          continue;
        }
        residual.push_back(conj);
      }

      // Fast COUNT(*) path: a bare COUNT(*) over one column table whose
      // WHERE fully pushed down bypasses scan + aggregate operators — the
      // count comes straight off the packed page codes (SwarCount), with
      // no match bitmap and no decode.
      if (stmt.from.size() == 1 && col_tables[0] && !pending[0] &&
          residual.empty() && join_pool.empty() && rownum_limit < 0 &&
          !has_outer && stmt.group_by.empty() && !stmt.having &&
          !stmt.connect_by && !stmt.start_with && !stmt.distinct &&
          stmt.order_by.empty() && stmt.limit < 0 && stmt.offset == 0 &&
          stmt.items.size() == 1 && IsBareCountStar(*stmt.items[0].expr)) {
        const std::string name = !stmt.items[0].alias.empty()
                                     ? stmt.items[0].alias
                                     : stmt.items[0].expr->name;
        auto count_scan = std::make_unique<CountStarScanOp>(
            col_tables[0], pushdown[0], b_->options().scan, name);
        std::vector<ExprPtr> exprs;
        exprs.push_back(
            std::make_shared<ColumnRefExpr>(0, TypeId::kInt64, name));
        OperatorPtr plan = std::make_unique<ProjectOp>(
            std::move(count_scan), std::move(exprs),
            std::vector<std::string>{name}, &b_->session()->exec_ctx());
        return plan;
      }

      // Projection pruning (paper II.B.3: "only active columns of interest
      // to the workload need to be fetched"): each base-table scan projects
      // only the columns the query references.
      std::vector<std::vector<int>> pruned(stmt.from.size());
      {
        std::vector<std::vector<bool>> used(stmt.from.size());
        for (size_t i = 0; i < stmt.from.size(); ++i) {
          used[i].assign(item_cols[i].size(), false);
        }
        auto mark_name = [&](const std::string& qualifier,
                             const std::string& name) {
          for (size_t i = 0; i < stmt.from.size(); ++i) {
            for (size_t c = 0; c < item_cols[i].size(); ++c) {
              if (!qualifier.empty() && item_cols[i][c].alias != qualifier) {
                continue;
              }
              if (item_cols[i][c].name == name) used[i][c] = true;
            }
          }
        };
        std::vector<ast::ExprP> roots;
        for (const auto& item : stmt.items) roots.push_back(item.expr);
        // A conjunct pushed whole into its scan as a ColumnPredicate is
        // evaluated on the page codes, so its column is not projected
        // unless something else reads it. Pushdowns that must be
        // re-checked are in `residual` too.
        for (const auto& conj : residual) roots.push_back(conj);
        for (const auto& conj : join_pool) roots.push_back(conj);
        for (const auto& g : stmt.group_by) roots.push_back(g);
        if (stmt.having) roots.push_back(stmt.having);
        if (stmt.start_with) roots.push_back(stmt.start_with);
        if (stmt.connect_by) roots.push_back(stmt.connect_by);
        for (const auto& oi : stmt.order_by) {
          if (!oi.expr) continue;
          // An unqualified name that is a select-item alias orders by that
          // output (aliases take precedence), so it reads no base column.
          const bool names_alias =
              oi.expr->kind == ExprKind::kColumnRef &&
              oi.expr->qualifier.empty() &&
              std::any_of(stmt.items.begin(), stmt.items.end(),
                          [&](const ast::SelectItem& item) {
                            return !item.alias.empty() &&
                                   NormalizeIdent(item.alias) ==
                                       oi.expr->name;
                          });
          if (!names_alias) roots.push_back(oi.expr);
        }
        for (const auto& ref : stmt.from) {
          if (ref.join_condition) roots.push_back(ref.join_condition);
          for (const auto& uc : ref.using_cols) {
            mark_name("", NormalizeIdent(uc));
          }
        }
        bool saw_star_all = false;
        std::function<void(const ast::ExprP&)> walk =
            [&](const ast::ExprP& e) {
              // The `*` of COUNT(*) reads no column.
              if (!e || IsBareCountStar(*e)) return;
              if (e->kind == ExprKind::kColumnRef) {
                mark_name(e->qualifier, e->name);
              } else if (e->kind == ExprKind::kStar) {
                if (e->qualifier.empty()) {
                  saw_star_all = true;
                } else {
                  for (size_t i = 0; i < stmt.from.size(); ++i) {
                    for (size_t c = 0; c < item_cols[i].size(); ++c) {
                      if (item_cols[i][c].alias == e->qualifier) {
                        used[i][c] = true;
                      }
                    }
                  }
                }
              }
              for (const auto& c : e->children) walk(c);
              if (e->else_branch) walk(e->else_branch);
            };
        for (const auto& r : roots) walk(r);
        for (size_t i = 0; i < stmt.from.size(); ++i) {
          if (pending[i] || saw_star_all) {
            // Derived tables project what they project; SELECT * uses all.
            for (size_t c = 0; c < item_cols[i].size(); ++c) {
              pruned[i].push_back(static_cast<int>(c));
            }
            continue;
          }
          for (size_t c = 0; c < item_cols[i].size(); ++c) {
            if (used[i][c]) pruned[i].push_back(static_cast<int>(c));
          }
          if (pruned[i].empty()) {
            // Pure COUNT(*): scan one column — a predicate column if any
            // (already being evaluated), else the first.
            int c = pushdown[i].empty() ? 0 : pushdown[i][0].column;
            pruned[i].push_back(c);
          }
          // Narrow the visible scope to the pruned columns.
          std::vector<ScopeItem> kept;
          for (int c : pruned[i]) kept.push_back(item_cols[i][c]);
          item_cols[i] = std::move(kept);
        }
      }

      // Build scans with their pushdowns.
      std::vector<OperatorPtr> sources;
      for (size_t i = 0; i < stmt.from.size(); ++i) {
        if (pending[i]) {
          sources.push_back(std::move(pending[i]));
        } else if (scannables[i]) {
          DASHDB_ASSIGN_OR_RETURN(
              OperatorPtr scan,
              scannables[i]->CreateScan(pushdown[i], pruned[i]));
          sources.push_back(std::move(scan));
        } else if (col_tables[i]) {
          sources.push_back(std::make_unique<ColumnScanOp>(
              col_tables[i], pushdown[i], pruned[i], b_->options().scan));
        } else {
          const std::vector<int>& proj = pruned[i];
          // Appliance-style access path selection: a sargable predicate on
          // a B+Tree-indexed column becomes an index range scan; remaining
          // predicates re-check row-at-a-time.
          int index_col = -1;
          int64_t lo = INT64_MIN, hi = INT64_MAX;
          std::vector<ColumnPredicate> residual_preds;
          for (const auto& p : pushdown[i]) {
            if (index_col < 0 && row_tables[i]->HasIndex(p.column) &&
                (p.int_range.lo || p.int_range.hi)) {
              index_col = p.column;
              if (p.int_range.lo) {
                lo = *p.int_range.lo + (p.int_range.lo_incl ? 0 : 1);
              }
              if (p.int_range.hi) {
                hi = *p.int_range.hi - (p.int_range.hi_incl ? 0 : 1);
              }
            } else {
              residual_preds.push_back(p);
            }
          }
          if (index_col >= 0) {
            sources.push_back(std::make_unique<RowIndexScanOp>(
                row_tables[i], index_col, lo, hi, residual_preds, proj));
          } else {
            sources.push_back(std::make_unique<RowScanOp>(
                row_tables[i], pushdown[i], proj));
          }
        }
      }

      // Cardinality estimates per FROM item (synopsis min/max + null counts,
      // dictionary NDVs). Row tables at least know their row count;
      // derived tables stay unknown.
      std::vector<RelationEstimate> estimates(stmt.from.size());
      for (size_t i = 0; i < stmt.from.size(); ++i) {
        if (col_tables[i]) {
          estimates[i] =
              CardinalityEstimator::EstimateScan(*col_tables[i], pushdown[i]);
        } else if (row_tables[i]) {
          estimates[i].has_stats = false;
          estimates[i].base_rows = estimates[i].rows =
              static_cast<double>(row_tables[i]->row_count());
        }
        if (col_tables[i] || row_tables[i]) {
          sources[i]->set_est_rows(estimates[i].rows);
        }
      }
      // Raw scan pointers survive the moves into the join tree; runtime
      // filter targets resolve through them.
      std::vector<Operator*> source_ptrs;
      for (const auto& s : sources) source_ptrs.push_back(s.get());

      // Cost-based join ordering (DESIGN.md "Cost-based optimization"):
      // eligible when every FROM item is a column table, every join is
      // inner/cross, and every ON conjunct is a plain two-table column
      // equality. Everything else falls back to the FROM-order heuristic.
      bool cost_path = stmt.from.size() >= 3 && !has_outer;
      for (size_t i = 0; cost_path && i < stmt.from.size(); ++i) {
        if (!col_tables[i] || pending[i]) cost_path = false;
        const ast::TableRef& ref = stmt.from[i];
        if ((ref.join != ast::TableRef::JoinKind::kNone &&
             ref.join != ast::TableRef::JoinKind::kInner &&
             ref.join != ast::TableRef::JoinKind::kCross) ||
            !ref.using_cols.empty()) {
          cost_path = false;
        }
      }
      std::vector<AdaptiveJoinEdge> aedges;
      std::vector<size_t> consumed_pool;  // join_pool indices turned to edges
      if (cost_path) {
        // Resolves a plain column ref against the pruned per-item scopes;
        // fails on ambiguity (mimics Scope::Resolve).
        auto resolve_col = [&](const ast::Expr& e, int* item,
                               int* local) -> bool {
          if (e.kind != ExprKind::kColumnRef) return false;
          int fi = -1, fc = -1;
          for (size_t i = 0; i < item_cols.size(); ++i) {
            for (size_t c = 0; c < item_cols[i].size(); ++c) {
              const ScopeItem& it = item_cols[i][c];
              if (!e.qualifier.empty() && it.alias != e.qualifier) continue;
              if (it.name != e.name) continue;
              if (fi >= 0) return false;  // ambiguous
              fi = static_cast<int>(i);
              fc = static_cast<int>(c);
            }
          }
          if (fi < 0) return false;
          *item = fi;
          *local = fc;
          return true;
        };
        // The scan-side Bloom protocol hashes raw cells, so edge endpoints
        // must hash identically for equal values: same string-ness, and no
        // doubles (integer families inter-hash fine).
        auto hash_compatible = [](TypeId a, TypeId b) {
          if (a == TypeId::kVarchar || b == TypeId::kVarchar) return a == b;
          return a != TypeId::kDouble && b != TypeId::kDouble;
        };
        auto try_edge = [&](const ExprP& conj, AdaptiveJoinEdge* out) -> bool {
          if (conj->kind != ExprKind::kBinary || conj->bin_op != BinOp::kEq) {
            return false;
          }
          int ai, ac, bi, bc;
          if (!resolve_col(*conj->children[0], &ai, &ac) ||
              !resolve_col(*conj->children[1], &bi, &bc) ||
              ai == bi ||
              !hash_compatible(item_cols[ai][ac].type,
                               item_cols[bi][bc].type)) {
            return false;
          }
          out->left_item = ai;
          out->left_col = ac;
          out->right_item = bi;
          out->right_col = bc;
          out->left_ndv = estimates[ai].KeyNdv(pruned[ai][ac]);
          out->right_ndv = estimates[bi].KeyNdv(pruned[bi][bc]);
          return true;
        };
        for (size_t i = 0; cost_path && i < stmt.from.size(); ++i) {
          if (!stmt.from[i].join_condition) continue;
          std::vector<ExprP> on_conjs;
          SplitConjuncts(stmt.from[i].join_condition, &on_conjs);
          for (const auto& c : on_conjs) {
            AdaptiveJoinEdge e;
            if (!try_edge(c, &e)) {
              cost_path = false;
              break;
            }
            aedges.push_back(e);
          }
        }
        if (cost_path) {
          for (size_t j = 0; j < join_pool.size(); ++j) {
            AdaptiveJoinEdge e;
            if (try_edge(join_pool[j], &e)) {
              aedges.push_back(e);
              consumed_pool.push_back(j);
            }
          }
          // The join graph must be connected — a disconnected query keeps
          // the heuristic order (cross products stay where the user put
          // them).
          std::vector<int> comp(stmt.from.size());
          for (size_t i = 0; i < comp.size(); ++i) comp[i] = static_cast<int>(i);
          std::function<int(int)> find = [&](int x) {
            while (comp[x] != x) x = comp[x] = comp[comp[x]];
            return x;
          };
          for (const auto& e : aedges) {
            comp[find(e.left_item)] = find(e.right_item);
          }
          for (size_t i = 1; i < comp.size(); ++i) {
            if (find(static_cast<int>(i)) != find(0)) cost_path = false;
          }
        }
        if (!cost_path) {
          aedges.clear();
          consumed_pool.clear();
        }
      }

      if (cost_path) {
        for (size_t j = consumed_pool.size(); j-- > 0;) {
          join_pool.erase(join_pool.begin() + consumed_pool[j]);
        }
        std::vector<double> est_rows_v(stmt.from.size());
        for (size_t i = 0; i < stmt.from.size(); ++i) {
          est_rows_v[i] = estimates[i].rows;
        }
        // Overall output estimate: fold relations in FROM order via
        // distinct-count containment on the first connecting edge.
        double folded = est_rows_v[0];
        std::vector<char> in_set(stmt.from.size(), 0);
        in_set[0] = 1;
        for (size_t i = 1; i < stmt.from.size(); ++i) {
          double l_ndv = 0, r_ndv = 0;
          bool edge = false;
          for (const auto& e : aedges) {
            if ((e.left_item == static_cast<int>(i) && in_set[e.right_item]) ||
                (e.right_item == static_cast<int>(i) && in_set[e.left_item])) {
              l_ndv = e.left_ndv;
              r_ndv = e.right_ndv;
              edge = true;
              break;
            }
          }
          folded = edge ? CardinalityEstimator::JoinRows(folded, est_rows_v[i],
                                                         l_ndv, r_ndv)
                        : folded * std::max(1.0, est_rows_v[i]);
          in_set[i] = 1;
        }
        auto aj = std::make_unique<AdaptiveJoinOp>(
            std::move(sources), std::move(aedges), std::move(est_rows_v),
            &b_->session()->exec_ctx());
        aj->set_est_rows(folded);
        join_tree_est_ = folded;
        root = std::move(aj);
        for (const auto& cols : item_cols) {
          for (const auto& c : cols) scope.items.push_back(c);
        }
      } else {
        // Left-deep join tree in FROM order.
        DASHDB_ASSIGN_OR_RETURN(
            root, BuildJoinTree(stmt, item_cols, std::move(sources),
                                source_ptrs, estimates, pruned, &join_pool,
                                &scope));
      }
      // Unconsumed join-pool conjuncts become residual filters.
      for (auto& j : join_pool) residual.push_back(j);

      // Residual filter.
      if (!residual.empty()) {
        ExprBinder eb(&scope, b_->session());
        ExprPtr all;
        for (const auto& conj : residual) {
          DASHDB_ASSIGN_OR_RETURN(ExprPtr bound, eb.Bind(conj));
          all = all ? std::make_shared<LogicExpr>(LogicOp::kAnd, all, bound)
                    : bound;
        }
        root = std::make_unique<FilterOp>(std::move(root), all,
                                          &b_->session()->exec_ctx());
        if (join_tree_est_ >= 0) {
          double sel = CardinalityEstimator::ResidualConjunctSelectivity();
          double est = join_tree_est_;
          for (size_t k = 0; k < residual.size(); ++k) est *= sel;
          root->set_est_rows(est);
        }
      }
    }

    // ---- CONNECT BY ----
    if (stmt.connect_by) {
      DASHDB_RETURN_IF_ERROR(
          ApplyConnectBy(stmt, &root, &scope));
    }

    // ---- aggregation or plain projection ----
    bool has_agg = !stmt.group_by.empty();
    for (const auto& item : stmt.items) has_agg |= ContainsAgg(item.expr);
    if (stmt.having) has_agg |= true;

    // Expand stars into concrete select items.
    std::vector<ast::SelectItem> items;
    for (const auto& item : stmt.items) {
      if (item.expr->kind == ExprKind::kStar) {
        for (const auto& sc : scope.items) {
          if (!item.expr->qualifier.empty() &&
              sc.alias != item.expr->qualifier) {
            continue;
          }
          ast::SelectItem expanded;
          expanded.expr = ast::MakeColumnRef(sc.alias, sc.name);
          expanded.alias = sc.name;
          items.push_back(std::move(expanded));
        }
        continue;
      }
      items.push_back(item);
    }

    std::vector<std::string> out_names;
    for (const auto& item : items) {
      if (!item.alias.empty()) {
        out_names.push_back(item.alias);
      } else if (item.expr->kind == ExprKind::kColumnRef) {
        out_names.push_back(item.expr->name);
      } else if (item.expr->kind == ExprKind::kFuncCall) {
        out_names.push_back(item.expr->name);
      } else {
        out_names.push_back("EXPR_" + std::to_string(out_names.size() + 1));
      }
    }

    if (has_agg) {
      DASHDB_RETURN_IF_ERROR(
          BindAggregation(stmt, items, out_names, &root, &scope));
    } else {
      ExprBinder eb(&scope, b_->session());
      std::vector<ExprPtr> exprs;
      for (const auto& item : items) {
        DASHDB_ASSIGN_OR_RETURN(ExprPtr e, eb.Bind(item.expr));
        exprs.push_back(std::move(e));
      }
      // ORDER BY expressions that are not among the outputs are appended as
      // hidden projection columns, sorted on, then stripped below.
      std::vector<std::string> names = out_names;
      if (!stmt.distinct) {
        for (const auto& oi : stmt.order_by) {
          if (oi.ordinal > 0 || !oi.expr) continue;
          bool matches_output = false;
          if (oi.expr->kind == ExprKind::kColumnRef) {
            for (const auto& n : out_names) {
              if (NormalizeIdent(n) == oi.expr->name) matches_output = true;
            }
            if (!oi.output_name.empty()) {
              for (const auto& n : out_names) {
                if (n == oi.output_name) matches_output = true;
              }
            }
          }
          if (matches_output) continue;
          auto bound = eb.Bind(oi.expr);
          if (!bound.ok()) continue;  // will fail later with a clear error
          exprs.push_back(std::move(*bound));
          names.push_back("$ORD_" + std::to_string(exprs.size()));
          ++hidden_order_cols_;
        }
      }
      root = std::make_unique<ProjectOp>(std::move(root), std::move(exprs),
                                         names,
                                         &b_->session()->exec_ctx());
    }

    // ---- DISTINCT ----
    if (stmt.distinct) {
      std::vector<ExprPtr> group;
      std::vector<std::string> names;
      for (size_t i = 0; i < root->output().size(); ++i) {
        group.push_back(std::make_shared<ColumnRefExpr>(
            static_cast<int>(i), root->output()[i].type,
            root->output()[i].name));
        names.push_back(root->output()[i].name);
      }
      root = std::make_unique<HashAggOp>(
          std::move(root), std::move(group), names, std::vector<AggSpec>{},
          std::vector<std::string>{}, &b_->session()->exec_ctx());
    }

    // ---- ORDER BY / LIMIT / OFFSET / ROWNUM ----
    // Effective row cap: LIMIT merged with an Oracle ROWNUM cap.
    int64_t eff_limit = stmt.limit;
    if (rownum_limit >= 0) {
      eff_limit = eff_limit < 0 ? rownum_limit
                                : std::min(eff_limit, rownum_limit);
    }
    std::vector<SortKey> keys;
    for (const auto& oi : stmt.order_by) {
      SortKey k;
      k.desc = oi.desc;
      int idx = -1;
      if (oi.ordinal > 0) {
        if (oi.ordinal > static_cast<int>(root->output().size())) {
          return Status::SemanticError("ORDER BY ordinal out of range");
        }
        idx = oi.ordinal - 1;
      } else if (!oi.output_name.empty()) {
        for (size_t i = 0; i < root->output().size(); ++i) {
          if (root->output()[i].name == oi.output_name) {
            idx = static_cast<int>(i);
            break;
          }
        }
      } else if (oi.expr->kind == ExprKind::kColumnRef) {
        // Qualified ref (e.name): match the bare column name against the
        // projected outputs.
        for (size_t i = 0; i < root->output().size(); ++i) {
          if (NormalizeIdent(root->output()[i].name) == oi.expr->name) {
            idx = static_cast<int>(i);
            break;
          }
        }
      }
      if (idx < 0 && hidden_order_cols_ > 0 && used_hidden_ < hidden_order_cols_) {
        // Consume the next hidden ORDER BY column.
        size_t visible = root->output().size() - hidden_order_cols_;
        idx = static_cast<int>(visible + used_hidden_);
        ++used_hidden_;
      }
      if (idx >= 0) {
        k.expr = std::make_shared<ColumnRefExpr>(
            idx, root->output()[idx].type, root->output()[idx].name);
      } else {
        // Bind against the output scope.
        Scope out_scope;
        for (const auto& c : root->output()) {
          out_scope.items.push_back({"", c.name, c.type});
        }
        ExprBinder eb(&out_scope, b_->session());
        DASHDB_ASSIGN_OR_RETURN(k.expr, eb.Bind(oi.expr));
      }
      keys.push_back(std::move(k));
    }
    root = PlanOrderBy(std::move(root), std::move(keys), eff_limit,
                       stmt.offset, &b_->session()->exec_ctx());
    if (hidden_order_cols_ > 0) {
      // Strip the hidden ORDER BY columns.
      size_t visible = root->output().size() - hidden_order_cols_;
      std::vector<ExprPtr> keep;
      std::vector<std::string> keep_names;
      for (size_t i = 0; i < visible; ++i) {
        keep.push_back(std::make_shared<ColumnRefExpr>(
            static_cast<int>(i), root->output()[i].type,
            root->output()[i].name));
        keep_names.push_back(root->output()[i].name);
      }
      root = std::make_unique<ProjectOp>(std::move(root), std::move(keep),
                                         keep_names,
                                         &b_->session()->exec_ctx());
      hidden_order_cols_ = 0;
    }
    return root;
  }

  /// Splits a single-table WHERE into pushdown predicates plus residual
  /// conjuncts (the engine's UPDATE/DELETE paths).
  Status SplitForTable(const TableSchema& schema, const ExprP& where,
                       std::vector<ColumnPredicate>* pushdown,
                       std::vector<ExprP>* residual) {
    Scope full;
    std::vector<ScopeItem> cols;
    for (int c = 0; c < schema.num_columns(); ++c) {
      ScopeItem it{NormalizeIdent(schema.table_name()),
                   NormalizeIdent(schema.column(c).name),
                   schema.column(c).type};
      full.items.push_back(it);
      cols.push_back(it);
    }
    std::vector<std::pair<int, int>> ranges = {{0, schema.num_columns()}};
    std::vector<ExprP> conjs;
    SplitConjuncts(where, &conjs);
    for (const auto& conj : conjs) {
      ColumnPredicate pred;
      bool keep = false;
      if (SingleItemOf(conj, full, ranges) == 0 &&
          TryMakePushdown(conj, full, ranges[0], cols, &pred, &keep)) {
        pushdown->push_back(pred);
      } else {
        residual->push_back(conj);
      }
    }
    return Status::OK();
  }

 private:
  struct ResolvedItem {
    std::vector<ScopeItem> cols;
    OperatorPtr op;  ///< set for subqueries/views/CTEs; null for base tables
    std::shared_ptr<const ColumnTable> col_table;
    std::shared_ptr<const RowTable> row_table;
    std::shared_ptr<const ScannableStorage> scannable;  ///< nicknames etc.
  };

  /// Resolves one FROM item to either a base table or a bound sub-operator.
  Result<ResolvedItem> ResolveFromItem(const ast::TableRef& ref,
                                       const std::vector<ast::CteDef>& ctes) {
    ResolvedItem out;
    std::string alias = !ref.alias.empty() ? ref.alias : ref.table;
    if (ref.subquery) {
      SelectBinder sub(b_);
      DASHDB_ASSIGN_OR_RETURN(out.op, sub.Bind(*ref.subquery, &ctes));
      for (const auto& c : out.op->output()) {
        out.cols.push_back({alias, NormalizeIdent(c.name), c.type});
      }
      return out;
    }
    // CTE?
    for (const auto& cte : ctes) {
      if (NormalizeIdent(cte.name) == NormalizeIdent(ref.table) &&
          ref.schema.empty()) {
        SelectBinder sub(b_);
        DASHDB_ASSIGN_OR_RETURN(out.op, sub.Bind(*cte.query, &ctes));
        for (const auto& c : out.op->output()) {
          out.cols.push_back({alias, NormalizeIdent(c.name), c.type});
        }
        return out;
      }
    }
    std::string schema =
        ref.schema.empty() ? b_->session()->default_schema() : ref.schema;
    // Oracle DUAL.
    if (ref.schema.empty() && NormalizeIdent(ref.table) == "DUAL" &&
        !b_->catalog()->HasEntry(schema, "DUAL")) {
      RowBatch batch;
      batch.columns.emplace_back(TypeId::kVarchar);
      batch.columns[0].AppendString("X");
      out.op = std::make_unique<ValuesOp>(
          std::move(batch),
          std::vector<OutputCol>{{"DUMMY", TypeId::kVarchar}});
      out.cols.push_back({alias, "DUMMY", TypeId::kVarchar});
      return out;
    }
    DASHDB_ASSIGN_OR_RETURN(auto entry,
                            b_->catalog()->Lookup(schema, ref.table));
    if (entry->kind == EntryKind::kView) {
      // Re-bind the view body under its creation-time dialect (II.C.2).
      Dialect saved = b_->session()->dialect();
      Dialect view_dialect = saved;
      DialectFromName(entry->view_dialect, &view_dialect);
      b_->session()->set_dialect(view_dialect);
      auto parsed = ParseStatement(entry->view_sql);
      if (!parsed.ok()) {
        b_->session()->set_dialect(saved);
        return parsed.status();
      }
      SelectBinder sub(b_);
      auto bound = sub.Bind(*(*parsed)->select, &ctes);
      b_->session()->set_dialect(saved);
      if (!bound.ok()) return bound.status();
      out.op = std::move(*bound);
      for (const auto& c : out.op->output()) {
        out.cols.push_back({alias, NormalizeIdent(c.name), c.type});
      }
      return out;
    }
    // Base table (possibly via alias entry sharing storage).
    auto col_tab = std::dynamic_pointer_cast<ColumnTable>(entry->storage);
    auto row_tab = std::dynamic_pointer_cast<RowTable>(entry->storage);
    const TableSchema& ts = entry->schema;
    for (int c = 0; c < ts.num_columns(); ++c) {
      out.cols.push_back(
          {alias, NormalizeIdent(ts.column(c).name), ts.column(c).type});
    }
    if (col_tab) {
      out.col_table = col_tab;
    } else if (row_tab) {
      out.row_table = row_tab;
    } else if (auto scannable = std::dynamic_pointer_cast<ScannableStorage>(
                   entry->storage)) {
      out.scannable = scannable;  // Fluid Query nickname (paper II.C.6)
    } else {
      return Status::Internal("catalog entry without storage: " +
                              entry->schema.QualifiedName());
    }
    return out;
  }

  OperatorPtr MakeDual(Scope* scope) {
    RowBatch batch;
    batch.columns.emplace_back(TypeId::kVarchar);
    batch.columns[0].AppendString("X");
    scope->items.push_back({"DUAL", "DUMMY", TypeId::kVarchar});
    return std::make_unique<ValuesOp>(
        std::move(batch), std::vector<OutputCol>{{"DUMMY", TypeId::kVarchar}});
  }

  /// Which FROM item do all column refs of `e` belong to? -1 if mixed/none.
  int SingleItemOf(const ExprP& e, const Scope& full,
                   const std::vector<std::pair<int, int>>& ranges) {
    std::vector<const ast::Expr*> refs;
    CollectColumnRefs(e, &refs);
    if (refs.empty()) return -1;
    int item = -1;
    for (const auto* r : refs) {
      auto idx = full.Resolve(r->qualifier, r->name);
      if (!idx.ok()) return -1;
      int owner = -1;
      for (size_t i = 0; i < ranges.size(); ++i) {
        if (*idx >= ranges[i].first && *idx < ranges[i].second) {
          owner = static_cast<int>(i);
          break;
        }
      }
      if (item == -1) item = owner;
      else if (item != owner) return -1;
    }
    return item;
  }

  /// Converts a sargable conjunct (col CMP literal / col BETWEEN lits) into
  /// a storage ColumnPredicate local to the owning table.
  bool TryMakePushdown(const ExprP& conj, const Scope& full,
                       std::pair<int, int> range,
                       const std::vector<ScopeItem>& cols,
                       ColumnPredicate* out, bool* keep_residual) {
    (void)keep_residual;  // caller-owned policy; see has_outer in Bind()
    auto col_of = [&](const ExprP& e) -> int {
      if (e->kind != ExprKind::kColumnRef) return -1;
      auto idx = full.Resolve(e->qualifier, e->name);
      if (!idx.ok() || *idx < range.first || *idx >= range.second) return -1;
      return *idx - range.first;
    };
    auto lit_of = [&](const ExprP& e, TypeId t, Value* v) -> bool {
      if (e->kind != ExprKind::kLiteral) return false;
      auto cast = e->literal.CastTo(t);
      if (!cast.ok()) return false;
      *v = *cast;
      return true;
    };
    auto fill = [&](int local_col, CmpOp op, const Value& v) {
      out->column = local_col;
      TypeId t = cols[local_col].type;
      if (t == TypeId::kVarchar) {
        const std::string& s = v.AsString();
        if (op == CmpOp::kEq || op == CmpOp::kGe || op == CmpOp::kGt) {
          out->str_range.lo = s;
          out->str_range.lo_incl = op != CmpOp::kGt;
        }
        if (op == CmpOp::kEq || op == CmpOp::kLe || op == CmpOp::kLt) {
          out->str_range.hi = s;
          out->str_range.hi_incl = op != CmpOp::kLt;
        }
      } else if (t == TypeId::kDouble) {
        double d = v.AsDouble();
        if (op == CmpOp::kEq || op == CmpOp::kGe || op == CmpOp::kGt) {
          out->dlo = d;
          out->dlo_incl = op != CmpOp::kGt;
        }
        if (op == CmpOp::kEq || op == CmpOp::kLe || op == CmpOp::kLt) {
          out->dhi = d;
          out->dhi_incl = op != CmpOp::kLt;
        }
      } else {
        int64_t i = v.AsInt();
        if (op == CmpOp::kEq || op == CmpOp::kGe || op == CmpOp::kGt) {
          out->int_range.lo = i;
          out->int_range.lo_incl = op != CmpOp::kGt;
        }
        if (op == CmpOp::kEq || op == CmpOp::kLe || op == CmpOp::kLt) {
          out->int_range.hi = i;
          out->int_range.hi_incl = op != CmpOp::kLt;
        }
      }
    };
    if (conj->kind == ExprKind::kBinary) {
      CmpOp op;
      switch (conj->bin_op) {
        case BinOp::kEq: op = CmpOp::kEq; break;
        case BinOp::kLt: op = CmpOp::kLt; break;
        case BinOp::kLe: op = CmpOp::kLe; break;
        case BinOp::kGt: op = CmpOp::kGt; break;
        case BinOp::kGe: op = CmpOp::kGe; break;
        default: return false;
      }
      ExprP l = conj->children[0], r = conj->children[1];
      int c = col_of(l);
      Value v;
      if (c >= 0 && lit_of(r, cols[c].type, &v)) {
        fill(c, op, v);
        return true;
      }
      c = col_of(r);
      if (c >= 0 && lit_of(l, cols[c].type, &v)) {
        // Mirror the operator: lit OP col == col mirrored(OP) lit.
        CmpOp m = op;
        if (op == CmpOp::kLt) m = CmpOp::kGt;
        else if (op == CmpOp::kLe) m = CmpOp::kGe;
        else if (op == CmpOp::kGt) m = CmpOp::kLt;
        else if (op == CmpOp::kGe) m = CmpOp::kLe;
        fill(c, m, v);
        return true;
      }
      return false;
    }
    if (conj->kind == ExprKind::kBetween && !conj->negate) {
      int c = col_of(conj->children[0]);
      if (c < 0) return false;
      Value lo, hi;
      if (!lit_of(conj->children[1], cols[c].type, &lo) ||
          !lit_of(conj->children[2], cols[c].type, &hi)) {
        return false;
      }
      fill(c, CmpOp::kGe, lo);
      fill(c, CmpOp::kLe, hi);
      return true;
    }
    return false;
  }

  bool IsJoinEqui(const ExprP& conj, const Scope& full,
                  const std::vector<std::pair<int, int>>& ranges) {
    if (conj->kind != ExprKind::kBinary || conj->bin_op != BinOp::kEq) {
      return false;
    }
    int a = SingleItemOf(conj->children[0], full, ranges);
    int b = SingleItemOf(conj->children[1], full, ranges);
    return a >= 0 && b >= 0 && a != b;
  }

  Result<OperatorPtr> BuildJoinTree(
      const ast::SelectStmt& stmt,
      const std::vector<std::vector<ScopeItem>>& item_cols,
      std::vector<OperatorPtr> sources,
      const std::vector<Operator*>& source_ptrs,
      const std::vector<RelationEstimate>& estimates,
      const std::vector<std::vector<int>>& pruned,
      std::vector<ExprP>* join_pool, Scope* scope) {
    // Resolves a raw column ref against the pruned per-item scopes of items
    // [0, upto); -1 on miss or ambiguity. Used for NDV lookup and for the
    // Bloom pushdown target (which must be a base scan's output column).
    auto resolve_item_col = [&](const ast::Expr& e, size_t upto, int* item,
                                int* local) -> bool {
      if (e.kind != ExprKind::kColumnRef) return false;
      int fi = -1, fc = -1;
      for (size_t i = 0; i < upto && i < item_cols.size(); ++i) {
        for (size_t c = 0; c < item_cols[i].size(); ++c) {
          const ScopeItem& it = item_cols[i][c];
          if (!e.qualifier.empty() && it.alias != e.qualifier) continue;
          if (it.name != e.name) continue;
          if (fi >= 0) return false;
          fi = static_cast<int>(i);
          fc = static_cast<int>(c);
        }
      }
      if (fi < 0) return false;
      *item = fi;
      *local = fc;
      return true;
    };
    auto key_ndv = [&](int item, int local) -> double {
      if (item < 0 || static_cast<size_t>(item) >= estimates.size() ||
          static_cast<size_t>(item) >= pruned.size() ||
          static_cast<size_t>(local) >= pruned[item].size()) {
        return 0;
      }
      return estimates[item].KeyNdv(pruned[item][local]);
    };

    OperatorPtr root = std::move(sources[0]);
    for (const auto& c : item_cols[0]) scope->items.push_back(c);
    double cur_rows = estimates.empty() || !estimates[0].has_stats
                          ? -1
                          : estimates[0].rows;
    // True while every join so far preserves probe rows exactly (inner or
    // cross). A LEFT join breaks it: Bloom-dropping rows at a downstream
    // scan would then be observable through null extension ordering, so be
    // conservative and stop installing filters past one.
    bool chain_all_inner = true;
    for (size_t i = 1; i < sources.size(); ++i) {
      const ast::TableRef& ref = stmt.from[i];
      Scope new_scope;
      new_scope.items = item_cols[i];
      // Gather equi conjuncts for this join.
      std::vector<ExprP> on_conjs;
      if (ref.join_condition) SplitConjuncts(ref.join_condition, &on_conjs);
      JoinType jt = JoinType::kInner;
      if (ref.join == ast::TableRef::JoinKind::kLeft) jt = JoinType::kLeft;
      bool right_join = ref.join == ast::TableRef::JoinKind::kRight;

      std::vector<ExprP> equi_left, equi_right, on_residual;
      bool oracle_left = false;
      auto side_of = [&](const ExprP& e) -> int {
        // 0 = bound scope, 1 = new item, -1 = mixed, -2 = constant.
        std::vector<const ast::Expr*> refs;
        CollectColumnRefs(e, &refs);
        if (refs.empty()) return -2;
        int side = -3;
        for (const auto* r : refs) {
          int s;
          if (new_scope.Has(r->qualifier, r->name)) s = 1;
          else if (scope->Has(r->qualifier, r->name)) s = 0;
          else return -1;
          if (side == -3) side = s;
          else if (side != s) return -1;
        }
        return side;
      };
      // USING columns become equalities.
      for (const auto& uc : ref.using_cols) {
        equi_left.push_back(ast::MakeColumnRef("", NormalizeIdent(uc)));
        equi_right.push_back(ast::MakeColumnRef(
            !ref.alias.empty() ? ref.alias : NormalizeIdent(ref.table),
            NormalizeIdent(uc)));
      }
      auto classify = [&](std::vector<ExprP>& pool, bool consume_into_on) {
        for (auto it = pool.begin(); it != pool.end();) {
          const ExprP& conj = *it;
          if (conj->kind == ExprKind::kBinary &&
              conj->bin_op == BinOp::kEq) {
            int ls = side_of(conj->children[0]);
            int rs = side_of(conj->children[1]);
            if (ls == 0 && rs == 1) {
              if (conj->children[1]->oracle_outer) oracle_left = true;
              equi_left.push_back(conj->children[0]);
              equi_right.push_back(conj->children[1]);
              it = pool.erase(it);
              continue;
            }
            if (ls == 1 && rs == 0) {
              if (conj->children[0]->oracle_outer) oracle_left = true;
              equi_left.push_back(conj->children[1]);
              equi_right.push_back(conj->children[0]);
              it = pool.erase(it);
              continue;
            }
          }
          if (consume_into_on) {
            on_residual.push_back(conj);
            it = pool.erase(it);
            continue;
          }
          ++it;
        }
      };
      classify(on_conjs, /*consume_into_on=*/true);
      classify(*join_pool, /*consume_into_on=*/false);
      if (oracle_left) jt = JoinType::kLeft;

      // Combined scope (bound + new).
      Scope combined = *scope;
      for (const auto& c : new_scope.items) combined.items.push_back(c);

      if (equi_left.empty() || right_join ||
          (jt == JoinType::kLeft && !on_residual.empty())) {
        // Nested loop with the full condition.
        ExprBinder eb(&combined, b_->session());
        ExprPtr cond;
        std::vector<ExprP> all_conjs = on_residual;
        for (size_t k = 0; k < equi_left.size(); ++k) {
          all_conjs.push_back(ast::MakeBinary(BinOp::kEq, equi_left[k],
                                              equi_right[k]));
        }
        for (const auto& conj : all_conjs) {
          DASHDB_ASSIGN_OR_RETURN(ExprPtr bc, eb.Bind(conj));
          cond = cond ? std::make_shared<LogicExpr>(LogicOp::kAnd, cond, bc)
                      : bc;
        }
        if (right_join) {
          return Status::Unimplemented(
              "RIGHT OUTER JOIN: rewrite as LEFT JOIN");
        }
        JoinType nlt = ref.join == ast::TableRef::JoinKind::kCross && !cond
                           ? JoinType::kCross
                           : jt;
        if (nlt != JoinType::kInner && nlt != JoinType::kCross) {
          chain_all_inner = false;
        }
        double right_rows =
            estimates[i].has_stats || estimates[i].rows > 0
                ? estimates[i].rows
                : -1;
        if (cur_rows >= 0 && right_rows >= 0) {
          cur_rows = cur_rows * std::max(1.0, right_rows);
          if (cond) {
            double sel = CardinalityEstimator::ResidualConjunctSelectivity();
            for (size_t k = 0; k < all_conjs.size(); ++k) cur_rows *= sel;
          }
        } else {
          cur_rows = -1;
        }
        root = std::make_unique<NestedLoopJoinOp>(
            std::move(root), std::move(sources[i]), cond, nlt,
            &b_->session()->exec_ctx());
        if (cur_rows >= 0) root->set_est_rows(cur_rows);
      } else {
        // Hash join: bind probe keys over bound scope, build keys over the
        // new item's scope.
        ExprBinder probe_eb(scope, b_->session());
        ExprBinder build_eb(&new_scope, b_->session());
        std::vector<ExprPtr> pk, bk;
        for (size_t k = 0; k < equi_left.size(); ++k) {
          DASHDB_ASSIGN_OR_RETURN(ExprPtr p, probe_eb.Bind(equi_left[k]));
          DASHDB_ASSIGN_OR_RETURN(ExprPtr q, build_eb.Bind(equi_right[k]));
          pk.push_back(std::move(p));
          bk.push_back(std::move(q));
        }
        // Estimate via distinct-count containment on the first key pair,
        // resolving NDVs through the raw (unbound) column refs.
        int probe_item = -1, probe_local = -1;
        double l_ndv = 0, r_ndv = 0;
        if (resolve_item_col(*equi_left[0], i, &probe_item, &probe_local)) {
          l_ndv = key_ndv(probe_item, probe_local);
        }
        {
          int bi = -1, bc = -1;
          // Build refs resolve only within item i's scope.
          if (equi_right[0]->kind == ExprKind::kColumnRef) {
            for (size_t c = 0; c < item_cols[i].size(); ++c) {
              const ScopeItem& it = item_cols[i][c];
              if (!equi_right[0]->qualifier.empty() &&
                  it.alias != equi_right[0]->qualifier) {
                continue;
              }
              if (it.name != equi_right[0]->name) continue;
              if (bi >= 0) {
                bi = -1;
                break;
              }
              bi = static_cast<int>(i);
              bc = static_cast<int>(c);
            }
          }
          if (bi >= 0) r_ndv = key_ndv(bi, bc);
        }
        double right_rows =
            estimates[i].has_stats || estimates[i].rows > 0
                ? estimates[i].rows
                : -1;
        cur_rows = cur_rows >= 0 && right_rows >= 0
                       ? CardinalityEstimator::JoinRows(cur_rows, right_rows,
                                                        l_ndv, r_ndv)
                       : -1;
        auto hj = std::make_unique<HashJoinOp>(
            std::move(root), std::move(sources[i]), std::move(pk),
            std::move(bk), jt, &b_->session()->exec_ctx());
        // Sideways Bloom pushdown: once the build side materializes, its key
        // set semi-filters the probe-side base scan. Only for single-key
        // inner joins whose probe key is a plain base-scan column, and only
        // while the chain has no outer joins above that scan.
        if (jt == JoinType::kInner && chain_all_inner &&
            equi_left.size() == 1 && probe_item >= 0 &&
            static_cast<size_t>(probe_item) < source_ptrs.size() &&
            source_ptrs[probe_item] != nullptr) {
          hj->SetProbeFilterTarget(source_ptrs[probe_item], probe_local);
        }
        if (jt != JoinType::kInner) chain_all_inner = false;
        root = std::move(hj);
        if (cur_rows >= 0) root->set_est_rows(cur_rows);
        // Inner-join ON residuals become filters over the combined scope.
        if (!on_residual.empty()) {
          ExprBinder eb(&combined, b_->session());
          ExprPtr cond;
          for (const auto& conj : on_residual) {
            DASHDB_ASSIGN_OR_RETURN(ExprPtr bc, eb.Bind(conj));
            cond = cond ? std::make_shared<LogicExpr>(LogicOp::kAnd, cond, bc)
                        : bc;
          }
          if (cur_rows >= 0) {
            double sel = CardinalityEstimator::ResidualConjunctSelectivity();
            for (size_t k = 0; k < on_residual.size(); ++k) cur_rows *= sel;
          }
          root = std::make_unique<FilterOp>(std::move(root), cond,
                                            &b_->session()->exec_ctx());
          if (cur_rows >= 0) root->set_est_rows(cur_rows);
        }
      }
      *scope = std::move(combined);
    }
    join_tree_est_ = cur_rows;
    return root;
  }

  Status ApplyConnectBy(const ast::SelectStmt& stmt, OperatorPtr* root,
                        Scope* scope) {
    // Expect PRIOR col = col (either order).
    std::vector<ExprP> conjs;
    SplitConjuncts(stmt.connect_by, &conjs);
    if (conjs.size() != 1 || conjs[0]->kind != ExprKind::kBinary ||
        conjs[0]->bin_op != BinOp::kEq) {
      return Status::Unimplemented(
          "CONNECT BY supports a single PRIOR equality");
    }
    ExprP l = conjs[0]->children[0], r = conjs[0]->children[1];
    ExprP prior_side, child_side;
    if (l->kind == ExprKind::kFuncCall && l->name == "PRIOR") {
      prior_side = l->children[0];
      child_side = r;
    } else if (r->kind == ExprKind::kFuncCall && r->name == "PRIOR") {
      prior_side = r->children[0];
      child_side = l;
    } else {
      return Status::SemanticError("CONNECT BY requires PRIOR");
    }
    DASHDB_ASSIGN_OR_RETURN(
        int prior_idx, scope->Resolve(prior_side->qualifier, prior_side->name));
    DASHDB_ASSIGN_OR_RETURN(
        int child_idx, scope->Resolve(child_side->qualifier, child_side->name));
    ExprPtr start;
    if (stmt.start_with) {
      ExprBinder eb(scope, b_->session());
      DASHDB_ASSIGN_OR_RETURN(start, eb.Bind(stmt.start_with));
    }
    *root = std::make_unique<ConnectByOp>(std::move(*root), std::move(start),
                                          prior_idx, child_idx,
                                          &b_->session()->exec_ctx());
    scope->items.push_back({"", "LEVEL", TypeId::kInt64});
    return Status::OK();
  }

  Status BindAggregation(const ast::SelectStmt& stmt,
                         std::vector<ast::SelectItem>& items,
                         const std::vector<std::string>& out_names,
                         OperatorPtr* root, Scope* scope) {
    // Resolve GROUP BY entries (expr, output name, or ordinal).
    std::vector<ExprP> group_asts;
    for (const auto& g : stmt.group_by) {
      if (g->kind == ExprKind::kLiteral && !g->literal.is_null() &&
          g->literal.type() == TypeId::kInt64) {
        int ord = static_cast<int>(g->literal.AsInt());
        if (ord < 1 || ord > static_cast<int>(items.size())) {
          return Status::SemanticError("GROUP BY ordinal out of range");
        }
        group_asts.push_back(items[ord - 1].expr);
        continue;
      }
      if (g->kind == ExprKind::kColumnRef && g->qualifier.empty() &&
          !scope->Has("", g->name)) {
        // Netezza: GROUP BY output column name.
        bool found = false;
        for (size_t i = 0; i < items.size(); ++i) {
          if (out_names[i] == g->name) {
            group_asts.push_back(items[i].expr);
            found = true;
            break;
          }
        }
        if (found) continue;
      }
      group_asts.push_back(g);
    }
    // Collect aggregate calls from select items + having.
    std::vector<ExprP> agg_calls;
    std::set<std::string> seen;
    for (const auto& item : items) CollectAggCalls(item.expr, &agg_calls, &seen);
    if (stmt.having) CollectAggCalls(stmt.having, &agg_calls, &seen);

    ExprBinder input_eb(scope, b_->session());
    std::vector<ExprPtr> group_exprs;
    std::vector<std::string> group_names;
    std::map<std::string, int> slot_of;  // serialized AST -> agg output slot
    for (size_t i = 0; i < group_asts.size(); ++i) {
      DASHDB_ASSIGN_OR_RETURN(ExprPtr ge, input_eb.Bind(group_asts[i]));
      group_names.push_back(group_asts[i]->kind == ExprKind::kColumnRef
                                ? group_asts[i]->name
                                : "GROUP_" + std::to_string(i + 1));
      slot_of[AstToString(group_asts[i])] = static_cast<int>(i);
      group_exprs.push_back(std::move(ge));
    }
    std::vector<AggSpec> specs;
    std::vector<std::string> agg_out_names;
    for (size_t i = 0; i < agg_calls.size(); ++i) {
      const ExprP& call = agg_calls[i];
      AggSpec spec;
      AggKindFromName(call->name, &spec.kind);
      spec.distinct = call->distinct_arg;
      if (spec.kind == AggKind::kCount && !call->children.empty() &&
          call->children[0]->kind == ExprKind::kStar) {
        spec.kind = AggKind::kCountStar;
      }
      if (spec.kind == AggKind::kPercentileCont ||
          spec.kind == AggKind::kPercentileDisc) {
        // children = [fraction, target] (WITHIN GROUP form).
        if (call->children.size() != 2) {
          return Status::SemanticError(call->name +
                                       " requires WITHIN GROUP (ORDER BY x)");
        }
        ExprBinder fold_eb(scope, b_->session());
        DASHDB_ASSIGN_OR_RETURN(Value frac,
                                fold_eb.FoldToValue(call->children[0]));
        spec.param = frac.AsDouble();
        DASHDB_ASSIGN_OR_RETURN(spec.arg, input_eb.Bind(call->children[1]));
      } else if (spec.kind != AggKind::kCountStar) {
        if (call->children.empty()) {
          return Status::SemanticError(call->name + " requires an argument");
        }
        DASHDB_ASSIGN_OR_RETURN(spec.arg, input_eb.Bind(call->children[0]));
        if (call->children.size() >= 2) {
          DASHDB_ASSIGN_OR_RETURN(spec.arg2, input_eb.Bind(call->children[1]));
        }
      }
      spec.out_type = AggResultType(
          spec.kind, spec.arg ? spec.arg->out_type() : TypeId::kInt64);
      slot_of[AstToString(call)] =
          static_cast<int>(group_asts.size() + i);
      agg_out_names.push_back("AGG_" + std::to_string(i + 1));
      specs.push_back(std::move(spec));
    }
    *root = std::make_unique<HashAggOp>(
        std::move(*root), std::move(group_exprs), group_names, std::move(specs),
        agg_out_names, &b_->session()->exec_ctx());
    // Post-agg scope.
    Scope agg_scope;
    for (const auto& c : (*root)->output()) {
      agg_scope.items.push_back({"", NormalizeIdent(c.name), c.type});
    }
    // Rewrite select items / having to reference agg outputs.
    auto rewrite = [&](const ExprP& e, auto&& self) -> ExprP {
      auto it = slot_of.find(AstToString(e));
      if (it != slot_of.end()) {
        return ast::MakeColumnRef("", agg_scope.items[it->second].name);
      }
      auto copy = std::make_shared<ast::Expr>(*e);
      for (auto& c : copy->children) c = self(c, self);
      if (copy->else_branch) copy->else_branch = self(copy->else_branch, self);
      return copy;
    };
    ExprBinder out_eb(&agg_scope, b_->session());
    if (stmt.having) {
      ExprP rewritten = rewrite(stmt.having, rewrite);
      DASHDB_ASSIGN_OR_RETURN(ExprPtr h, out_eb.Bind(rewritten));
      *root = std::make_unique<FilterOp>(std::move(*root), h,
                                         &b_->session()->exec_ctx());
    }
    std::vector<ExprPtr> finals;
    for (auto& item : items) {
      ExprP rewritten = rewrite(item.expr, rewrite);
      DASHDB_ASSIGN_OR_RETURN(ExprPtr fe, out_eb.Bind(rewritten));
      finals.push_back(std::move(fe));
    }
    *root = std::make_unique<ProjectOp>(std::move(*root), std::move(finals),
                                        out_names,
                                        &b_->session()->exec_ctx());
    return Status::OK();
  }

  Result<OperatorPtr> BindValues(const ast::SelectStmt& stmt) {
    Scope empty;
    ExprBinder eb(&empty, b_->session());
    RowBatch batch;
    std::vector<OutputCol> cols;
    const size_t width = stmt.values_rows[0].size();
    std::vector<std::vector<Value>> rows;
    for (const auto& row : stmt.values_rows) {
      if (row.size() != width) {
        return Status::SemanticError("VALUES rows have differing widths");
      }
      std::vector<Value> vals;
      for (const auto& e : row) {
        DASHDB_ASSIGN_OR_RETURN(Value v, eb.FoldToValue(e));
        vals.push_back(std::move(v));
      }
      rows.push_back(std::move(vals));
    }
    for (size_t c = 0; c < width; ++c) {
      TypeId t = TypeId::kVarchar;
      for (const auto& row : rows) {
        if (!row[c].is_null()) {
          t = row[c].type();
          break;
        }
      }
      cols.push_back({"COL" + std::to_string(c + 1), t});
      batch.columns.emplace_back(t);
    }
    for (const auto& row : rows) {
      for (size_t c = 0; c < width; ++c) {
        if (row[c].is_null()) {
          batch.columns[c].AppendNull();
        } else {
          DASHDB_ASSIGN_OR_RETURN(Value v, row[c].CastTo(cols[c].type));
          batch.columns[c].AppendValue(v);
        }
      }
    }
    return Result<OperatorPtr>(
        std::make_unique<ValuesOp>(std::move(batch), std::move(cols)));
  }

  Binder* b_;
  size_t hidden_order_cols_ = 0;
  size_t used_hidden_ = 0;
  double join_tree_est_ = -1;  ///< output estimate of the join tree, -1 unknown
};

}  // namespace

Result<OperatorPtr> Binder::BindSelect(const ast::SelectStmt& stmt) {
  SelectBinder sb(this);
  return sb.Bind(stmt);
}

Result<TablePredicates> Binder::SplitTablePredicates(const TableSchema& schema,
                                                      const ast::ExprP& where) {
  TablePredicates out;
  if (!where) return out;
  SelectBinder sb(this);
  std::vector<ExprP> residual_asts;
  DASHDB_RETURN_IF_ERROR(
      sb.SplitForTable(schema, where, &out.pushdown, &residual_asts));
  if (!residual_asts.empty()) {
    Scope scope;
    for (int c = 0; c < schema.num_columns(); ++c) {
      scope.items.push_back({NormalizeIdent(schema.table_name()),
                             NormalizeIdent(schema.column(c).name),
                             schema.column(c).type});
    }
    ExprBinder eb(&scope, session_);
    ExprPtr all;
    for (const auto& conj : residual_asts) {
      DASHDB_ASSIGN_OR_RETURN(ExprPtr bound, eb.Bind(conj));
      all = all ? std::make_shared<LogicExpr>(LogicOp::kAnd, all, bound)
                : bound;
    }
    out.residual = all;
  }
  return out;
}

Result<ExprPtr> Binder::BindScalar(const ast::ExprP& e,
                                   const std::vector<OutputCol>& scope_cols) {
  Scope scope;
  for (const auto& c : scope_cols) {
    scope.items.push_back({"", NormalizeIdent(c.name), c.type});
  }
  ExprBinder eb(&scope, session_);
  return eb.Bind(e);
}

}  // namespace dashdb
