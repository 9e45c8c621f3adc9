// Tests for the vectorized executor: expressions with SQL NULL semantics,
// the polyglot scalar function library, aggregates, and operators.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <map>
#include <numeric>
#include <type_traits>
#include <vector>

#include "common/datetime.h"
#include "common/rng.h"
#include "exec/functions.h"
#include "exec/operator.h"
#include "exec/sort.h"

namespace dashdb {
namespace {

ExecContext Ctx(Dialect d = Dialect::kAnsi) {
  ExecContext c;
  c.dialect = d;
  return c;
}

ExprPtr Lit(Value v) { return std::make_shared<LiteralExpr>(std::move(v)); }
ExprPtr Col(int i, TypeId t) { return std::make_shared<ColumnRefExpr>(i, t); }

Result<Value> CallFn(const std::string& name, std::vector<Value> args,
                     Dialect d = Dialect::kAnsi) {
  const FunctionDef* def = FunctionRegistry::Global().Lookup(name);
  if (!def) return Status::NotFound("fn " + name);
  ExecContext ctx = Ctx(d);
  return def->fn(args, ctx);
}

// ------------------------------------------------------------ expressions --

TEST(ExprTest, ArithmeticPromotion) {
  RowBatch b;
  ExecContext ctx = Ctx();
  auto sum = std::make_shared<ArithExpr>(ArithOp::kAdd, Lit(Value::Int64(2)),
                                         Lit(Value::Int64(3)), TypeId::kInt64);
  b.columns.emplace_back(TypeId::kInt64);
  b.columns[0].AppendInt(0);
  EXPECT_EQ(sum->EvaluateRow(b, 0, ctx)->AsInt(), 5);
  auto div = std::make_shared<ArithExpr>(ArithOp::kDiv, Lit(Value::Int64(7)),
                                         Lit(Value::Int64(2)), TypeId::kDouble);
  EXPECT_DOUBLE_EQ(div->EvaluateRow(b, 0, ctx)->AsDouble(), 3.5);
}

TEST(ExprTest, NullPropagatesThroughArithmetic) {
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns[0].AppendNull();
  ExecContext ctx = Ctx();
  auto e = std::make_shared<ArithExpr>(ArithOp::kAdd, Col(0, TypeId::kInt64),
                                       Lit(Value::Int64(1)), TypeId::kInt64);
  EXPECT_TRUE(e->EvaluateRow(b, 0, ctx)->is_null());
}

TEST(ExprTest, DivisionByZeroIsError) {
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns[0].AppendInt(0);
  ExecContext ctx = Ctx();
  auto e = std::make_shared<ArithExpr>(ArithOp::kDiv, Lit(Value::Int64(1)),
                                       Lit(Value::Int64(0)), TypeId::kDouble);
  EXPECT_FALSE(e->EvaluateRow(b, 0, ctx).ok());
}

TEST(ExprTest, DateArithmetic) {
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns[0].AppendInt(0);
  ExecContext ctx = Ctx();
  auto e = std::make_shared<ArithExpr>(
      ArithOp::kAdd, Lit(Value::Date(DaysFromCivil(2017, 1, 31))),
      Lit(Value::Int64(1)), TypeId::kDate);
  Value v = *e->EvaluateRow(b, 0, ctx);
  EXPECT_EQ(v.ToString(), "2017-02-01");
}

TEST(ExprTest, ThreeValuedLogic) {
  RowBatch b;
  b.columns.emplace_back(TypeId::kBoolean);
  b.columns[0].AppendNull();
  ExecContext ctx = Ctx();
  ExprPtr null_bool = Col(0, TypeId::kBoolean);
  // NULL AND FALSE = FALSE; NULL AND TRUE = NULL; NULL OR TRUE = TRUE.
  auto and_false = std::make_shared<LogicExpr>(
      LogicOp::kAnd, null_bool, Lit(Value::Boolean(false)));
  EXPECT_FALSE(and_false->EvaluateRow(b, 0, ctx)->is_null());
  EXPECT_FALSE(and_false->EvaluateRow(b, 0, ctx)->AsBool());
  auto and_true = std::make_shared<LogicExpr>(LogicOp::kAnd, null_bool,
                                              Lit(Value::Boolean(true)));
  EXPECT_TRUE(and_true->EvaluateRow(b, 0, ctx)->is_null());
  auto or_true = std::make_shared<LogicExpr>(LogicOp::kOr, null_bool,
                                             Lit(Value::Boolean(true)));
  EXPECT_TRUE(or_true->EvaluateRow(b, 0, ctx)->AsBool());
}

TEST(ExprTest, CompareWithNullIsNull) {
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns[0].AppendNull();
  ExecContext ctx = Ctx();
  auto e = std::make_shared<CompareExpr>(CmpOp::kEq, Col(0, TypeId::kInt64),
                                         Lit(Value::Int64(1)));
  EXPECT_TRUE(e->EvaluateRow(b, 0, ctx)->is_null());
}

TEST(ExprTest, LikeMatching) {
  EXPECT_TRUE(LikeExpr::Match("hello", "h%"));
  EXPECT_TRUE(LikeExpr::Match("hello", "%llo"));
  EXPECT_TRUE(LikeExpr::Match("hello", "h_llo"));
  EXPECT_TRUE(LikeExpr::Match("hello", "%"));
  EXPECT_FALSE(LikeExpr::Match("hello", "h_lo"));
  EXPECT_FALSE(LikeExpr::Match("", "_"));
  EXPECT_TRUE(LikeExpr::Match("", "%"));
  EXPECT_TRUE(LikeExpr::Match("a%b", "a%b"));
  EXPECT_TRUE(LikeExpr::Match("abc", "%%c"));
}

TEST(ExprTest, InListWithNullSemantics) {
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns[0].AppendInt(5);
  ExecContext ctx = Ctx();
  // 5 IN (1, NULL) -> NULL (unknown); 5 IN (5, NULL) -> TRUE.
  auto e1 = std::make_shared<InExpr>(
      Col(0, TypeId::kInt64),
      std::vector<Value>{Value::Int64(1), Value::Null(TypeId::kInt64)}, false);
  EXPECT_TRUE(e1->EvaluateRow(b, 0, ctx)->is_null());
  auto e2 = std::make_shared<InExpr>(
      Col(0, TypeId::kInt64),
      std::vector<Value>{Value::Int64(5), Value::Null(TypeId::kInt64)}, false);
  EXPECT_TRUE(e2->EvaluateRow(b, 0, ctx)->AsBool());
}

TEST(ExprTest, CaseExpr) {
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns[0].AppendInt(7);
  b.columns[0].AppendInt(20);
  ExecContext ctx = Ctx();
  std::vector<std::pair<ExprPtr, ExprPtr>> whens;
  whens.emplace_back(
      std::make_shared<CompareExpr>(CmpOp::kLt, Col(0, TypeId::kInt64),
                                    Lit(Value::Int64(10))),
      Lit(Value::String("small")));
  auto e = std::make_shared<CaseExpr>(std::move(whens),
                                      Lit(Value::String("big")),
                                      TypeId::kVarchar);
  EXPECT_EQ(e->EvaluateRow(b, 0, ctx)->AsString(), "small");
  EXPECT_EQ(e->EvaluateRow(b, 1, ctx)->AsString(), "big");
}

TEST(ExprTest, OracleEmptyStringIsNull) {
  // Paper II.C.2: VARCHAR2 semantics — '' IS NULL under the Oracle dialect.
  RowBatch b;
  b.columns.emplace_back(TypeId::kVarchar);
  b.columns[0].AppendString("");
  auto is_null = std::make_shared<IsNullExpr>(Col(0, TypeId::kVarchar), false);
  ExecContext oracle = Ctx(Dialect::kOracle);
  ExecContext ansi = Ctx(Dialect::kAnsi);
  EXPECT_TRUE(is_null->EvaluateRow(b, 0, oracle)->AsBool());
  EXPECT_FALSE(is_null->EvaluateRow(b, 0, ansi)->AsBool());
}

// -------------------------------------------------------------- functions --

TEST(FunctionsTest, OracleNvlDecode) {
  EXPECT_EQ(CallFn("NVL", {Value::Null(TypeId::kInt64), Value::Int64(9)})
                ->AsInt(),
            9);
  EXPECT_EQ(CallFn("NVL", {Value::Int64(3), Value::Int64(9)})->AsInt(), 3);
  EXPECT_EQ(CallFn("NVL2", {Value::Int64(1), Value::String("a"),
                            Value::String("b")})
                ->AsString(),
            "a");
  EXPECT_EQ(CallFn("DECODE", {Value::Int64(2), Value::Int64(1),
                              Value::String("one"), Value::Int64(2),
                              Value::String("two"), Value::String("other")})
                ->AsString(),
            "two");
  EXPECT_EQ(CallFn("DECODE", {Value::Int64(5), Value::Int64(1),
                              Value::String("one"), Value::String("other")})
                ->AsString(),
            "other");
  // Oracle DECODE matches NULL to NULL.
  EXPECT_EQ(CallFn("DECODE", {Value::Null(TypeId::kInt64),
                              Value::Null(TypeId::kInt64),
                              Value::String("isnull"), Value::String("no")})
                ->AsString(),
            "isnull");
}

TEST(FunctionsTest, OracleStringFunctions) {
  EXPECT_EQ(CallFn("SUBSTR", {Value::String("hello"), Value::Int64(2)})
                ->AsString(),
            "ello");
  EXPECT_EQ(CallFn("SUBSTR", {Value::String("hello"), Value::Int64(-3),
                              Value::Int64(2)})
                ->AsString(),
            "ll");
  EXPECT_EQ(CallFn("INSTR", {Value::String("banana"), Value::String("an"),
                             Value::Int64(3)})
                ->AsInt(),
            4);
  EXPECT_EQ(CallFn("LPAD", {Value::String("5"), Value::Int64(3),
                            Value::String("0")})
                ->AsString(),
            "005");
  EXPECT_EQ(CallFn("RPAD", {Value::String("ab"), Value::Int64(5)})
                ->AsString(),
            "ab   ");
  EXPECT_EQ(CallFn("INITCAP", {Value::String("hello world-foo")})->AsString(),
            "Hello World-Foo");
  EXPECT_EQ(CallFn("RAWTOHEX", {Value::String("AB")})->AsString(), "4142");
  EXPECT_EQ(CallFn("HEXTORAW", {Value::String("4142")})->AsString(), "AB");
  EXPECT_EQ(CallFn("LEAST", {Value::Int64(3), Value::Int64(1),
                             Value::Int64(2)})
                ->AsInt(),
            1);
  EXPECT_EQ(CallFn("GREATEST", {Value::Int64(3), Value::Int64(1)})->AsInt(),
            3);
}

TEST(FunctionsTest, OracleConversionFunctions) {
  EXPECT_EQ(CallFn("TO_CHAR", {Value::Int64(42)})->AsString(), "42");
  EXPECT_EQ(CallFn("TO_CHAR", {Value::Date(DaysFromCivil(2017, 4, 1)),
                               Value::String("YYYY-MM-DD")})
                ->AsString(),
            "2017-04-01");
  EXPECT_EQ(CallFn("TO_DATE", {Value::String("2017-04-01")})->ToString(),
            "2017-04-01");
  EXPECT_EQ(CallFn("TO_DATE", {Value::String("20170401"),
                               Value::String("YYYYMMDD")})
                ->ToString(),
            "2017-04-01");
  EXPECT_DOUBLE_EQ(CallFn("TO_NUMBER", {Value::String("3.5")})->AsDouble(),
                   3.5);
}

TEST(FunctionsTest, NetezzaPostgresFunctions) {
  EXPECT_EQ(CallFn("DATE_PART", {Value::String("year"),
                                 Value::Date(DaysFromCivil(2016, 7, 9))})
                ->AsInt(),
            2016);
  EXPECT_EQ(CallFn("DATE_PART", {Value::String("quarter"),
                                 Value::Date(DaysFromCivil(2016, 7, 9))})
                ->AsInt(),
            3);
  EXPECT_DOUBLE_EQ(CallFn("POW", {Value::Int64(2), Value::Int64(10)})
                       ->AsDouble(),
                   1024.0);
  EXPECT_EQ(CallFn("BTRIM", {Value::String("xxhixx"), Value::String("x")})
                ->AsString(),
            "hi");
  EXPECT_EQ(CallFn("STRLEFT", {Value::String("hello"), Value::Int64(2)})
                ->AsString(),
            "he");
  EXPECT_EQ(CallFn("STRRIGHT", {Value::String("hello"), Value::Int64(3)})
                ->AsString(),
            "llo");
  EXPECT_EQ(CallFn("STRPOS", {Value::String("hello"), Value::String("ll")})
                ->AsInt(),
            3);
  EXPECT_EQ(CallFn("INT4AND", {Value::Int64(12), Value::Int64(10)})->AsInt(),
            8);
  EXPECT_EQ(CallFn("TO_HEX", {Value::Int64(255)})->AsString(), "ff");
  EXPECT_EQ(CallFn("HASH", {Value::String("x")})->AsInt(),
            CallFn("HASH8", {Value::String("x")})->AsInt());
  EXPECT_EQ(CallFn("DAYS_BETWEEN",
                   {Value::Date(100), Value::Date(107)})
                ->AsInt(),
            7);
  EXPECT_EQ(CallFn("NEXT_MONTH", {Value::Date(DaysFromCivil(2016, 12, 15))})
                ->ToString(),
            "2017-01-01");
}

TEST(FunctionsTest, NullHandlingIsUniform) {
  // Property: every 1-arg string function returns NULL on NULL input.
  for (const char* name : {"UPPER", "LOWER", "LENGTH", "TRIM", "INITCAP",
                           "BTRIM", "TO_HEX"}) {
    auto r = CallFn(name, {Value::Null(TypeId::kVarchar)});
    ASSERT_TRUE(r.ok()) << name;
    EXPECT_TRUE(r->is_null()) << name;
  }
}

TEST(FunctionsTest, RegistryCoversDialects) {
  const auto& reg = FunctionRegistry::Global();
  EXPECT_GE(reg.NamesByOrigin(Dialect::kOracle).size(), 15u);
  EXPECT_GE(reg.NamesByOrigin(Dialect::kNetezza).size(), 15u);
  EXPECT_GE(reg.NamesByOrigin(Dialect::kDb2).size(), 2u);
  EXPECT_EQ(reg.Lookup("NO_SUCH_FN"), nullptr);
}

// -------------------------------------------------------------- aggregates --

TEST(AggTest, BasicAggregates) {
  AggSpec count{AggKind::kCountStar, nullptr, nullptr, 0.5, false,
                TypeId::kInt64};
  AggSpec sum{AggKind::kSum, nullptr, nullptr, 0.5, false, TypeId::kInt64};
  AggSpec avg{AggKind::kAvg, nullptr, nullptr, 0.5, false, TypeId::kDouble};
  AggState cs(&count), ss(&sum), as(&avg);
  for (int i = 1; i <= 4; ++i) {
    Value v = Value::Int64(i);
    cs.Add(v, v);
    ss.Add(v, v);
    as.Add(v, v);
  }
  EXPECT_EQ(cs.Finish().AsInt(), 4);
  EXPECT_EQ(ss.Finish().AsInt(), 10);
  EXPECT_DOUBLE_EQ(as.Finish().AsDouble(), 2.5);
}

TEST(AggTest, VarianceAndStddev) {
  AggSpec vp{AggKind::kVarPop, nullptr, nullptr, 0.5, false, TypeId::kDouble};
  AggSpec vs{AggKind::kVarSamp, nullptr, nullptr, 0.5, false, TypeId::kDouble};
  AggState sp(&vp), ssamp(&vs);
  for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
    sp.Add(Value::Double(x), Value::Double(x));
    ssamp.Add(Value::Double(x), Value::Double(x));
  }
  EXPECT_NEAR(sp.Finish().AsDouble(), 4.0, 1e-9);
  EXPECT_NEAR(ssamp.Finish().AsDouble(), 32.0 / 7.0, 1e-9);
}

TEST(AggTest, Covariance) {
  AggSpec cp{AggKind::kCovarPop, nullptr, nullptr, 0.5, false,
             TypeId::kDouble};
  AggState s(&cp);
  // y = 2x -> covar_pop(x, y) = 2 * var_pop(x).
  for (double x : {1.0, 2.0, 3.0, 4.0}) {
    s.Add(Value::Double(x), Value::Double(2 * x));
  }
  EXPECT_NEAR(s.Finish().AsDouble(), 2 * 1.25, 1e-9);
}

TEST(AggTest, MedianAndPercentiles) {
  AggSpec med{AggKind::kMedian, nullptr, nullptr, 0.5, false, TypeId::kDouble};
  AggState m(&med);
  for (double x : {1.0, 3.0, 2.0, 10.0}) m.Add(Value::Double(x), x == 0 ? Value::Double(0) : Value::Double(x));
  EXPECT_NEAR(m.Finish().AsDouble(), 2.5, 1e-9);
  AggSpec p90{AggKind::kPercentileDisc, nullptr, nullptr, 0.9, false,
              TypeId::kDouble};
  AggState p(&p90);
  for (int i = 1; i <= 10; ++i) p.Add(Value::Int64(i), Value::Int64(i));
  EXPECT_NEAR(p.Finish().AsDouble(), 9.0, 1e-9);
}

TEST(AggTest, DistinctCount) {
  AggSpec cd{AggKind::kCount, nullptr, nullptr, 0.5, true, TypeId::kInt64};
  AggState s(&cd);
  for (int x : {1, 2, 2, 3, 3, 3}) s.Add(Value::Int64(x), Value::Int64(x));
  EXPECT_EQ(s.Finish().AsInt(), 3);
}

TEST(AggTest, NullsIgnored) {
  AggSpec sum{AggKind::kSum, nullptr, nullptr, 0.5, false, TypeId::kInt64};
  AggState s(&sum);
  s.Add(Value::Null(TypeId::kInt64), Value::Null(TypeId::kInt64));
  EXPECT_TRUE(s.Finish().is_null()) << "SUM of no rows is NULL";
  s.Add(Value::Int64(5), Value::Int64(5));
  EXPECT_EQ(s.Finish().AsInt(), 5);
}

/// Same value, compared bit for bit (a double's sign of zero included).
void ExpectSameValue(const Value& got, const Value& want) {
  ASSERT_EQ(got.is_null(), want.is_null());
  if (want.is_null()) return;
  ASSERT_EQ(got.type(), want.type());
  if (want.type() == TypeId::kDouble) {
    const double g = got.AsDouble(), w = want.AsDouble();
    EXPECT_EQ(std::memcmp(&g, &w, sizeof g), 0) << g << " vs " << w;
  } else {
    EXPECT_EQ(got.AsInt(), want.AsInt());
  }
}

template <typename T>
void CheckTypedFold(const std::vector<T>& x, TypeId type, bool with_nulls) {
  Rng rng(11);
  constexpr size_t kGroups = 7;
  std::vector<uint32_t> gids(x.size());
  for (auto& g : gids) g = static_cast<uint32_t>(rng.Uniform(kGroups));
  constexpr bool kInt = std::is_same_v<T, int64_t>;
  ColumnVector col(type);
  for (size_t j = 0; j < x.size(); ++j) {
    if (with_nulls && j % 5 == 2) {
      col.AppendNull();
    } else if constexpr (kInt) {
      col.AppendInt(x[j]);
    } else {
      col.AppendDouble(x[j]);
    }
  }
  for (AggKind kind :
       {AggKind::kCount, AggKind::kSum, AggKind::kAvg, AggKind::kMin,
        AggKind::kMax, AggKind::kVarPop, AggKind::kStddevSamp,
        AggKind::kMedian}) {
    SCOPED_TRACE("kind " + std::to_string(static_cast<int>(kind)));
    const AggSpec spec{kind, nullptr, nullptr, 0.5, false,
                       AggResultType(kind, type)};
    std::vector<AggState> folded, per_row;
    for (size_t g = 0; g < kGroups; ++g) {
      folded.emplace_back(&spec);
      per_row.emplace_back(&spec);
    }
    // Two morsels, so the second folds into states the first started.
    const size_t half = x.size() / 2;
    AggState::Fold(folded.data(), 1, gids.data(), col, 0, half);
    AggState::Fold(folded.data(), 1, gids.data() + half, col, half,
                   x.size() - half);
    for (size_t j = 0; j < x.size(); ++j) {
      if (col.IsNull(j)) continue;
      per_row[gids[j]].AddNumericFast(static_cast<double>(x[j]),
                                      kInt ? static_cast<int64_t>(x[j]) : 0,
                                      kInt);
    }
    for (size_t g = 0; g < kGroups; ++g) {
      ExpectSameValue(folded[g].Finish(), per_row[g].Finish());
    }
  }
}

TEST(AggTest, TypedFoldMatchesPerRowTypedPath) {
  Rng rng(5);
  std::vector<int64_t> ints;
  std::vector<double> doubles;
  for (int i = 0; i < 1000; ++i) {
    ints.push_back(static_cast<int64_t>(rng.Uniform(2000000)) - 1000000 +
                   (i % 97 == 0 ? int64_t{1} << 50 : 0));
    // Mixed magnitudes exercise the compensated sum; -0.0 the extremes.
    doubles.push_back(i % 13 == 0   ? 1e16
                      : i % 17 == 0 ? -0.0
                                    : rng.NextDouble() * 100 - 50);
  }
  for (bool with_nulls : {false, true}) {
    SCOPED_TRACE(with_nulls ? "with NULLs" : "without NULLs");
    CheckTypedFold(ints, TypeId::kInt64, with_nulls);
    CheckTypedFold(doubles, TypeId::kDouble, with_nulls);
  }
}

/// Folds `col` into G groups of two partials (rows [0, half) and [half, n)),
/// merges the second into the first, then moves every group into a third
/// in reverse — once as AggColumn states and once as AggStates — and checks
/// the finished results bit for bit. Groups G-2 and G-1 stay empty.
void CheckColumnarStates(const AggSpec& spec, const ColumnVector& col) {
  constexpr size_t G = 9;
  Rng rng(23);
  std::vector<uint32_t> gids(col.size());
  for (auto& g : gids) g = static_cast<uint32_t>(rng.Uniform(G - 2));
  const ColumnVector* x = spec.arg ? &col : nullptr;
  const size_t half = col.size() / 2;
  AggColumn a(spec), b(spec), c(spec);
  std::vector<AggState> sa, sb, sc;
  for (size_t g = 0; g < G; ++g) {
    a.AddGroup();
    b.AddGroup();
    sa.emplace_back(&spec);
    sb.emplace_back(&spec);
  }
  a.Fold(gids.data(), x, 0, half);
  b.Fold(gids.data() + half, x, half, col.size() - half);
  for (size_t j = 0; j < col.size(); ++j) {
    AggState& st = (j < half ? sa : sb)[gids[j]];
    if (!x) {
      st.AddCountStarFast();
    } else {
      st.Add(col.GetValue(j), Value::Null(TypeId::kInt64));
    }
  }
  for (uint32_t g = 0; g < G; ++g) {
    a.MergeGroup(b, g, g);
    sa[g].Merge(sb[g]);
  }
  for (uint32_t g = G; g-- > 0;) {
    c.AppendGroup(a, g);
    sc.push_back(std::move(sa[g]));
  }
  ColumnVector got(spec.out_type);
  c.Finish(nullptr, G, &got);
  ASSERT_EQ(got.size(), G);
  for (size_t g = 0; g < G; ++g) {
    SCOPED_TRACE("group " + std::to_string(g));
    ColumnVector want(spec.out_type);
    want.AppendValue(sc[g].Finish());
    ExpectSameValue(got.GetValue(g), want.GetValue(0));
  }
}

TEST(AggTest, ColumnarStatesMatchAggStateBitForBit) {
  Rng rng(17);
  ColumnVector ints(TypeId::kInt64), doubles(TypeId::kDouble);
  for (int i = 0; i < 3000; ++i) {
    if (i % 9 == 4) {
      ints.AppendNull();
      doubles.AppendNull();
      continue;
    }
    ints.AppendInt(static_cast<int64_t>(rng.Uniform(2000000)) - 1000000 +
                   (i % 89 == 0 ? int64_t{1} << 52 : 0));
    // Mixed magnitudes exercise the compensated sum; signed zeros and NaN
    // the extremes.
    doubles.AppendDouble(i % 13 == 0   ? 1e16
                         : i % 17 == 0 ? -0.0
                         : i % 19 == 0 ? 0.0
                         : i % 401 == 0 ? std::nan("")
                                        : rng.NextDouble() * 100 - 50);
  }
  ASSERT_TRUE(AggColumn::Supports(AggSpec{}));
  CheckColumnarStates(AggSpec{}, ints);
  for (const ColumnVector* col : {&ints, &doubles}) {
    for (AggKind kind : {AggKind::kCount, AggKind::kSum, AggKind::kAvg,
                         AggKind::kMin, AggKind::kMax}) {
      SCOPED_TRACE(std::string(TypeName(col->type())) + " kind " +
                   std::to_string(static_cast<int>(kind)));
      AggSpec spec;
      spec.kind = kind;
      spec.arg = std::make_shared<ColumnRefExpr>(0, col->type());
      spec.out_type = AggResultType(kind, col->type());
      ASSERT_TRUE(AggColumn::Supports(spec));
      CheckColumnarStates(spec, *col);
    }
  }
  // Groups whose double sum is -0.0 in the first partial and empty in the
  // second: AggState's merge adds +0.0 into a non-empty sum.
  ColumnVector zeros(TypeId::kDouble);
  for (int i = 0; i < 3000; ++i) {
    if (i < 1500 && i % 3 != 0) {
      zeros.AppendDouble(-0.0);
    } else {
      zeros.AppendNull();
    }
  }
  for (AggKind kind : {AggKind::kSum, AggKind::kAvg, AggKind::kMin}) {
    AggSpec spec;
    spec.kind = kind;
    spec.arg = std::make_shared<ColumnRefExpr>(0, TypeId::kDouble);
    spec.out_type = TypeId::kDouble;
    CheckColumnarStates(spec, zeros);
  }
  // An integer extreme of another integer type finishes through CastTo.
  AggSpec small;
  small.kind = AggKind::kMax;
  small.arg = std::make_shared<ColumnRefExpr>(0, TypeId::kInt64);
  small.out_type = TypeId::kInt32;
  CheckColumnarStates(small, ints);
  // DISTINCT, two-argument and order-statistic aggregates stay boxed.
  AggSpec distinct = small;
  distinct.distinct = true;
  EXPECT_FALSE(AggColumn::Supports(distinct));
  AggSpec median = small;
  median.kind = AggKind::kMedian;
  EXPECT_FALSE(AggColumn::Supports(median));
}

TEST(AggTest, DoubleExtremesFoldInOneTotalOrder) {
  // MIN and MAX over doubles give the same bits whatever order values are
  // folded and partials merged in: -0.0 sorts below +0.0, every NaN above
  // +inf as in ORDER BY, and NaNs of either sign order by their bits.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double neg_nan = std::copysign(nan, -1.0);
  const double inf = std::numeric_limits<double>::infinity();
  struct Case {
    std::vector<double> values;
    double min, max;
  };
  const std::vector<Case> cases = {
      {{-0.0, 0.0}, -0.0, 0.0},
      {{0.0, -0.0, 0.0}, -0.0, 0.0},
      {{nan, 1.0}, 1.0, nan},
      {{-inf, nan, inf}, -inf, nan},
      {{neg_nan, nan, -1.0}, -1.0, neg_nan},
  };
  auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof a) == 0;
  };
  for (const Case& c : cases) {
    for (AggKind kind : {AggKind::kMin, AggKind::kMax}) {
      const double want = kind == AggKind::kMin ? c.min : c.max;
      const AggSpec spec{kind, std::make_shared<ColumnRefExpr>(0, TypeId::kDouble),
                         nullptr, 0.5, false, TypeId::kDouble};
      std::vector<size_t> order(c.values.size());
      std::iota(order.begin(), order.end(), 0);
      do {
        ColumnVector col(TypeId::kDouble);
        for (size_t i : order) col.AppendDouble(c.values[i]);
        // Every split into two partials, merged either way round.
        for (size_t split = 0; split <= col.size(); ++split) {
          for (bool swap : {false, true}) {
            AggState lo(&spec), hi(&spec);
            AggColumn clo(spec), chi(spec);
            clo.AddGroup();
            chi.AddGroup();
            const std::vector<uint32_t> gids(col.size(), 0);
            for (size_t j = 0; j < col.size(); ++j) {
              (j < split ? lo : hi)
                  .Add(col.GetValue(j), Value::Null(TypeId::kInt64));
            }
            clo.Fold(gids.data(), &col, 0, split);
            chi.Fold(gids.data(), &col, split, col.size() - split);
            AggState& into = swap ? hi : lo;
            AggColumn& cinto = swap ? chi : clo;
            into.Merge(swap ? lo : hi);
            cinto.MergeGroup(swap ? clo : chi, 0, 0);
            ColumnVector got(TypeId::kDouble);
            cinto.Finish(nullptr, 1, &got);
            EXPECT_TRUE(same(into.Finish().AsDouble(), want))
                << into.Finish().AsDouble() << " want " << want;
            EXPECT_TRUE(same(got.GetDouble(0), want))
                << got.GetDouble(0) << " want " << want;
          }
        }
      } while (std::next_permutation(order.begin(), order.end()));
    }
  }
}

TEST(AggTest, NameMapping) {
  AggKind k;
  ASSERT_TRUE(AggKindFromName("VARIANCE", &k));  // DB2 spelling
  EXPECT_EQ(k, AggKind::kVarSamp);
  ASSERT_TRUE(AggKindFromName("COVARIANCE", &k));
  EXPECT_EQ(k, AggKind::kCovarPop);
  ASSERT_TRUE(AggKindFromName("STDDEV_POP", &k));
  EXPECT_EQ(k, AggKind::kStddevPop);
  EXPECT_FALSE(AggKindFromName("UPPER", &k));
}

// --------------------------------------------------------------- operators --

/// ORDERS(O_ID, CUST, AMT): CUST cycles through 0..99, times `key_mul`.
std::shared_ptr<ColumnTable> MakeOrders(size_t n, int64_t key_mul = 1) {
  TableSchema s("PUBLIC", "ORDERS",
                {{"O_ID", TypeId::kInt64, false, 0, false},
                 {"CUST", TypeId::kInt64, true, 0, false},
                 {"AMT", TypeId::kDouble, true, 0, false}});
  auto t = std::make_shared<ColumnTable>(s, 100);
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns.emplace_back(TypeId::kInt64);
  b.columns.emplace_back(TypeId::kDouble);
  Rng rng(4);
  for (size_t i = 0; i < n; ++i) {
    b.columns[0].AppendInt(static_cast<int64_t>(i));
    b.columns[1].AppendInt(static_cast<int64_t>(i % 100) * key_mul);
    b.columns[2].AppendDouble(static_cast<double>(rng.Uniform(1000)));
  }
  EXPECT_TRUE(t->Load(b).ok());
  return t;
}

/// CUSTOMERS(C_ID, NAME): C_ID = 0..n-1 times `key_mul`, so the default
/// keys are dense (a direct-address join index) and a large multiplier
/// spreads them onto the hash index.
std::shared_ptr<ColumnTable> MakeCustomers(size_t n, int64_t key_mul = 1) {
  TableSchema s("PUBLIC", "CUSTOMERS",
                {{"C_ID", TypeId::kInt64, false, 0, false},
                 {"NAME", TypeId::kVarchar, true, 0, false}});
  auto t = std::make_shared<ColumnTable>(s, 101);
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns.emplace_back(TypeId::kVarchar);
  for (size_t i = 0; i < n; ++i) {
    b.columns[0].AppendInt(static_cast<int64_t>(i) * key_mul);
    b.columns[1].AppendString("cust" + std::to_string(i));
  }
  EXPECT_TRUE(t->Load(b).ok());
  return t;
}

TEST(OperatorTest, ScanFilterProject) {
  auto orders = MakeOrders(10000);
  ExecContext ctx = Ctx();
  auto scan = std::make_unique<ColumnScanOp>(
      orders, std::vector<ColumnPredicate>{}, std::vector<int>{0, 1, 2},
      ScanOptions{});
  auto filt = std::make_unique<FilterOp>(
      std::move(scan),
      std::make_shared<CompareExpr>(CmpOp::kLt, Col(0, TypeId::kInt64),
                                    Lit(Value::Int64(10))),
      &ctx);
  std::vector<ExprPtr> exprs = {
      Col(0, TypeId::kInt64),
      std::make_shared<ArithExpr>(ArithOp::kMul, Col(2, TypeId::kDouble),
                                  Lit(Value::Double(2)), TypeId::kDouble)};
  auto proj = std::make_unique<ProjectOp>(
      std::move(filt), exprs, std::vector<std::string>{"ID", "DBL"}, &ctx);
  auto r = DrainOperator(proj.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 10u);
  EXPECT_EQ(r->columns.size(), 2u);
}

TEST(OperatorTest, HashJoinInner) {
  auto orders = MakeOrders(5000);
  auto custs = MakeCustomers(100);
  ExecContext ctx = Ctx();
  auto probe = std::make_unique<ColumnScanOp>(
      orders, std::vector<ColumnPredicate>{}, std::vector<int>{0, 1},
      ScanOptions{});
  auto build = std::make_unique<ColumnScanOp>(
      custs, std::vector<ColumnPredicate>{}, std::vector<int>{0, 1},
      ScanOptions{});
  auto join = std::make_unique<HashJoinOp>(
      std::move(probe), std::move(build),
      std::vector<ExprPtr>{Col(1, TypeId::kInt64)},
      std::vector<ExprPtr>{Col(0, TypeId::kInt64)}, JoinType::kInner, &ctx);
  auto r = DrainOperator(join.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 5000u);  // every order matches one customer
  EXPECT_EQ(r->columns.size(), 4u);
  // C_ID = 0..99 spans 100 slots: a direct-address index, decided at build
  // time and reported by EXPLAIN ANALYZE, not by the plan label.
  EXPECT_NE(join->AnalyzeString().find(" index=dense range=100"),
            std::string::npos)
      << join->AnalyzeString();
  EXPECT_EQ(join->label().find("index"), std::string::npos) << join->label();
}

TEST(OperatorTest, HashJoinLeftOuterEmitsNulls) {
  auto orders = MakeOrders(200);    // CUST in [0, 100)
  auto custs = MakeCustomers(50);   // C_ID in [0, 50)
  ExecContext ctx = Ctx();
  auto probe = std::make_unique<ColumnScanOp>(
      orders, std::vector<ColumnPredicate>{}, std::vector<int>{0, 1},
      ScanOptions{});
  auto build = std::make_unique<ColumnScanOp>(
      custs, std::vector<ColumnPredicate>{}, std::vector<int>{0, 1},
      ScanOptions{});
  auto join = std::make_unique<HashJoinOp>(
      std::move(probe), std::move(build),
      std::vector<ExprPtr>{Col(1, TypeId::kInt64)},
      std::vector<ExprPtr>{Col(0, TypeId::kInt64)}, JoinType::kLeft, &ctx);
  auto r = DrainOperator(join.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 200u);
  size_t null_names = 0;
  for (size_t i = 0; i < r->num_rows(); ++i) {
    if (r->columns[3].IsNull(i)) ++null_names;
  }
  EXPECT_EQ(null_names, 100u);  // CUST 50..99 unmatched
}

TEST(OperatorTest, PartitionedAndGlobalJoinAgree) {
  // Keys spread far past 8 slots per build row, so the join builds the
  // radix-partitioned hash index rather than the direct-address one. The
  // reference is one global table kept here: a std::map from key to its
  // build rows, walked in probe order.
  constexpr int64_t kSpread = 1000003;
  auto orders = MakeOrders(3000, kSpread);
  auto custs = MakeCustomers(100, kSpread);
  ExecContext ctx = Ctx();
  auto scan = [](const std::shared_ptr<ColumnTable>& t, std::vector<int> cols) {
    return std::make_unique<ColumnScanOp>(t, std::vector<ColumnPredicate>{},
                                          std::move(cols), ScanOptions{});
  };
  auto join = std::make_unique<HashJoinOp>(
      scan(orders, {0, 1, 2}), scan(custs, {0, 1}),
      std::vector<ExprPtr>{Col(1, TypeId::kInt64)},
      std::vector<ExprPtr>{Col(0, TypeId::kInt64)}, JoinType::kInner, &ctx);
  auto r = DrainOperator(join.get());
  ASSERT_TRUE(r.ok());
  const std::string analyze = join->AnalyzeString();
  EXPECT_NE(analyze.find(" index=hash"), std::string::npos) << analyze;
  EXPECT_EQ(analyze.find("cache-partitioned"), std::string::npos) << analyze;

  auto probe_rows = DrainOperator(scan(orders, {0, 1, 2}).get());
  auto build_rows = DrainOperator(scan(custs, {0, 1}).get());
  ASSERT_TRUE(probe_rows.ok() && build_rows.ok());
  std::map<int64_t, std::vector<size_t>> global;
  for (size_t b = 0; b < build_rows->num_rows(); ++b) {
    global[build_rows->columns[0].GetInt(b)].push_back(b);
  }
  // Same rows in the same order, cell for cell: the join walks probe rows
  // in order and each key's build rows in ascending build-row order.
  std::vector<std::vector<std::string>> want;
  for (size_t p = 0; p < probe_rows->num_rows(); ++p) {
    auto it = global.find(probe_rows->columns[1].GetInt(p));
    if (it == global.end()) continue;
    for (size_t b : it->second) {
      std::vector<std::string> row;
      for (const ColumnVector& c : probe_rows->columns) {
        row.push_back(c.GetValue(p).ToString());
      }
      for (const ColumnVector& c : build_rows->columns) {
        row.push_back(c.GetValue(b).ToString());
      }
      want.push_back(std::move(row));
    }
  }
  const RowBatch& got = *r;
  ASSERT_EQ(got.num_rows(), 3000u);
  ASSERT_EQ(got.num_rows(), want.size());
  ASSERT_EQ(got.num_columns(), 5u);
  for (size_t i = 0; i < got.num_rows(); ++i) {
    for (size_t c = 0; c < got.num_columns(); ++c) {
      ASSERT_EQ(got.columns[c].GetValue(i).ToString(), want[i][c])
          << "row " << i << " col " << c;
    }
  }
}

TEST(OperatorTest, HashAggGroupBy) {
  auto orders = MakeOrders(10000);
  ExecContext ctx = Ctx();
  auto scan = std::make_unique<ColumnScanOp>(
      orders, std::vector<ColumnPredicate>{}, std::vector<int>{1, 2},
      ScanOptions{});
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, nullptr, 0.5, false,
                  TypeId::kInt64});
  aggs.push_back({AggKind::kSum, Col(1, TypeId::kDouble), nullptr, 0.5, false,
                  TypeId::kDouble});
  auto agg = std::make_unique<HashAggOp>(
      std::move(scan), std::vector<ExprPtr>{Col(0, TypeId::kInt64)},
      std::vector<std::string>{"CUST"}, std::move(aggs),
      std::vector<std::string>{"N", "TOTAL"}, &ctx);
  auto r = DrainOperator(agg.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 100u);
  for (size_t i = 0; i < r->num_rows(); ++i) {
    EXPECT_EQ(r->columns[1].GetInt(i), 100);  // 10000 rows / 100 groups
  }
}

TEST(OperatorTest, GlobalAggOnEmptyInputYieldsOneRow) {
  auto orders = MakeOrders(100);
  ExecContext ctx = Ctx();
  ColumnPredicate none;
  none.column = 0;
  none.int_range.lo = 1000000;  // matches nothing
  auto scan = std::make_unique<ColumnScanOp>(
      orders, std::vector<ColumnPredicate>{none}, std::vector<int>{0},
      ScanOptions{});
  std::vector<AggSpec> aggs;
  aggs.push_back({AggKind::kCountStar, nullptr, nullptr, 0.5, false,
                  TypeId::kInt64});
  auto agg = std::make_unique<HashAggOp>(
      std::move(scan), std::vector<ExprPtr>{}, std::vector<std::string>{},
      std::move(aggs), std::vector<std::string>{"N"}, &ctx);
  auto r = DrainOperator(agg.get());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_EQ(r->columns[0].GetInt(0), 0);
}

TEST(OperatorTest, SortAndLimit) {
  auto orders = MakeOrders(1000);
  ExecContext ctx = Ctx();
  auto scan = std::make_unique<ColumnScanOp>(
      orders, std::vector<ColumnPredicate>{}, std::vector<int>{0, 2},
      ScanOptions{});
  std::vector<SortKey> keys;
  keys.push_back({Col(1, TypeId::kDouble), true});  // AMT desc
  auto sort = std::make_unique<SortOp>(std::move(scan), std::move(keys), &ctx);
  auto limit = std::make_unique<LimitOp>(std::move(sort), 10, 5);
  auto r = DrainOperator(limit.get());
  ASSERT_TRUE(r.ok());
  ASSERT_EQ(r->num_rows(), 10u);
  for (size_t i = 1; i < r->num_rows(); ++i) {
    EXPECT_GE(r->columns[1].GetDouble(i - 1), r->columns[1].GetDouble(i));
  }
}

TEST(OperatorTest, NestedLoopCrossJoin) {
  auto custs = MakeCustomers(4);
  ExecContext ctx = Ctx();
  auto l = std::make_unique<ColumnScanOp>(
      custs, std::vector<ColumnPredicate>{}, std::vector<int>{0},
      ScanOptions{});
  auto r_scan = std::make_unique<ColumnScanOp>(
      custs, std::vector<ColumnPredicate>{}, std::vector<int>{0},
      ScanOptions{});
  auto nlj = std::make_unique<NestedLoopJoinOp>(std::move(l), std::move(r_scan),
                                                nullptr, JoinType::kCross, &ctx);
  auto r = DrainOperator(nlj.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 16u);
}

TEST(OperatorTest, UnionAll) {
  auto a = MakeCustomers(3);
  auto b = MakeCustomers(5);
  std::vector<OperatorPtr> kids;
  kids.push_back(std::make_unique<ColumnScanOp>(
      a, std::vector<ColumnPredicate>{}, std::vector<int>{0}, ScanOptions{}));
  kids.push_back(std::make_unique<ColumnScanOp>(
      b, std::vector<ColumnPredicate>{}, std::vector<int>{0}, ScanOptions{}));
  auto u = std::make_unique<UnionAllOp>(std::move(kids));
  auto r = DrainOperator(u.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 8u);
}

TEST(OperatorTest, RowIndexScanOperator) {
  TableSchema s("PUBLIC", "R",
                {{"K", TypeId::kInt64, false, 0, false},
                 {"V", TypeId::kInt64, true, 0, false}});
  auto t = std::make_shared<RowTable>(s, 200);
  RowBatch b;
  b.columns.emplace_back(TypeId::kInt64);
  b.columns.emplace_back(TypeId::kInt64);
  for (int i = 0; i < 1000; ++i) {
    b.columns[0].AppendInt(i);
    b.columns[1].AppendInt(i * 10);
  }
  ASSERT_TRUE(t->Append(b).ok());
  ASSERT_TRUE(t->CreateIndex(0).ok());
  auto op = std::make_unique<RowIndexScanOp>(
      t, 0, 100, 110, std::vector<ColumnPredicate>{}, std::vector<int>{0, 1});
  auto r = DrainOperator(op.get());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r->num_rows(), 11u);
}

}  // namespace
}  // namespace dashdb
