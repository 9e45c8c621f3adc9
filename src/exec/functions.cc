#include "exec/functions.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdio>

#include "common/datetime.h"
#include "common/hash.h"
#include "exec/geo.h"
#include "exec/json.h"

namespace dashdb {

namespace {

// ---- helpers ------------------------------------------------------------

bool AnyNull(const std::vector<Value>& a) {
  for (const auto& v : a) {
    if (v.is_null()) return true;
  }
  return false;
}

Result<std::string> Str(const Value& v) {
  DASHDB_ASSIGN_OR_RETURN(Value s, v.CastTo(TypeId::kVarchar));
  return s.AsString();
}

Result<int64_t> Int(const Value& v) {
  DASHDB_ASSIGN_OR_RETURN(Value s, v.CastTo(TypeId::kInt64));
  return s.AsInt();
}

Result<double> Dbl(const Value& v) {
  DASHDB_ASSIGN_OR_RETURN(Value s, v.CastTo(TypeId::kDouble));
  return s.AsDouble();
}

TypeId RetVarchar(const std::vector<TypeId>&) { return TypeId::kVarchar; }
TypeId RetInt64(const std::vector<TypeId>&) { return TypeId::kInt64; }
TypeId RetDouble(const std::vector<TypeId>&) { return TypeId::kDouble; }
TypeId RetDate(const std::vector<TypeId>&) { return TypeId::kDate; }
TypeId RetFirstArg(const std::vector<TypeId>& a) {
  return a.empty() ? TypeId::kVarchar : a[0];
}

/// SUBSTR with Oracle semantics: 1-based, negative start counts from end.
Result<Value> SubstrImpl(const std::vector<Value>& a, const ExecContext&) {
  if (a[0].is_null() || a[1].is_null()) return Value::Null(TypeId::kVarchar);
  DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
  DASHDB_ASSIGN_OR_RETURN(int64_t start, Int(a[1]));
  int64_t len = static_cast<int64_t>(s.size());
  if (a.size() >= 3 && a[2].is_null()) return Value::Null(TypeId::kVarchar);
  int64_t count = a.size() >= 3 ? 0 : len;
  if (a.size() >= 3) {
    DASHDB_ASSIGN_OR_RETURN(count, Int(a[2]));
  }
  if (count < 0) return Value::Null(TypeId::kVarchar);
  if (start < 0) start = std::max<int64_t>(len + start + 1, 1);
  if (start == 0) start = 1;
  if (start > len) return Value::String("");
  int64_t from = start - 1;
  int64_t take = std::min(count, len - from);
  return Value::String(s.substr(from, take));
}

Result<Value> DecodeImpl(const std::vector<Value>& a, const ExecContext&) {
  // DECODE(expr, s1, r1, s2, r2, ..., [default]); NULL matches NULL.
  const Value& e = a[0];
  size_t i = 1;
  for (; i + 1 < a.size(); i += 2) {
    const Value& search = a[i];
    bool match = (e.is_null() && search.is_null()) ||
                 (!e.is_null() && !search.is_null() && e.Compare(search) == 0);
    if (match) return a[i + 1];
  }
  if (i < a.size()) return a[i];  // default
  return Value::Null(a.size() >= 3 ? a[2].type() : TypeId::kVarchar);
}

Result<Value> ToCharImpl(const std::vector<Value>& a, const ExecContext&) {
  if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
  if (a.size() == 1) return a[0].CastTo(TypeId::kVarchar);
  DASHDB_ASSIGN_OR_RETURN(std::string fmt, Str(a[1]));
  if (a[0].type() == TypeId::kDate || a[0].type() == TypeId::kTimestamp) {
    DASHDB_ASSIGN_OR_RETURN(Value d, a[0].CastTo(TypeId::kDate));
    CivilDate c = CivilFromDays(static_cast<int32_t>(d.AsInt()));
    char buf[32];
    if (fmt == "YYYY-MM-DD") {
      std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", c.year, c.month, c.day);
    } else if (fmt == "YYYYMMDD") {
      std::snprintf(buf, sizeof(buf), "%04d%02d%02d", c.year, c.month, c.day);
    } else if (fmt == "YYYY") {
      std::snprintf(buf, sizeof(buf), "%04d", c.year);
    } else if (fmt == "MM") {
      std::snprintf(buf, sizeof(buf), "%02d", c.month);
    } else if (fmt == "DD") {
      std::snprintf(buf, sizeof(buf), "%02d", c.day);
    } else {
      return Status::Unimplemented("TO_CHAR date format '" + fmt + "'");
    }
    return Value::String(buf);
  }
  // Numeric formats: '9999', 'FM9999' -> plain; anything else unsupported.
  return a[0].CastTo(TypeId::kVarchar);
}

Result<Value> ToDateImpl(const std::vector<Value>& a, const ExecContext&) {
  if (a[0].is_null()) return Value::Null(TypeId::kDate);
  DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
  if (a.size() >= 2 && !a[1].is_null()) {
    DASHDB_ASSIGN_OR_RETURN(std::string fmt, Str(a[1]));
    if (fmt == "YYYYMMDD" && s.size() == 8) {
      s = s.substr(0, 4) + "-" + s.substr(4, 2) + "-" + s.substr(6, 2);
    }
    // 'YYYY-MM-DD' and compatible fall through to the default parser.
  }
  DASHDB_ASSIGN_OR_RETURN(int32_t days, ParseDate(s));
  return Value::Date(days);
}

Result<Value> DatePartImpl(const std::vector<Value>& a, const ExecContext&) {
  if (AnyNull(a)) return Value::Null(TypeId::kInt64);
  DASHDB_ASSIGN_OR_RETURN(std::string part, Str(a[0]));
  std::transform(part.begin(), part.end(), part.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  DASHDB_ASSIGN_OR_RETURN(Value d, a[1].CastTo(TypeId::kDate));
  int32_t days = static_cast<int32_t>(d.AsInt());
  CivilDate c = CivilFromDays(days);
  if (part == "year") return Value::Int64(c.year);
  if (part == "month") return Value::Int64(c.month);
  if (part == "day") return Value::Int64(c.day);
  if (part == "dow") return Value::Int64(DayOfWeek(days));
  if (part == "doy") return Value::Int64(DayOfYear(days));
  if (part == "quarter") return Value::Int64((c.month - 1) / 3 + 1);
  if (part == "week") return Value::Int64((DayOfYear(days) - 1) / 7 + 1);
  return Status::InvalidArgument("DATE_PART: unknown field '" + part + "'");
}

Result<Value> PadImpl(const std::vector<Value>& a, bool left) {
  if (AnyNull(a)) return Value::Null(TypeId::kVarchar);
  DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
  DASHDB_ASSIGN_OR_RETURN(int64_t n, Int(a[1]));
  std::string pad = " ";
  if (a.size() >= 3) {
    DASHDB_ASSIGN_OR_RETURN(pad, Str(a[2]));
    if (pad.empty()) return Value::Null(TypeId::kVarchar);
  }
  if (n <= 0) return Value::String("");
  if (static_cast<size_t>(n) <= s.size()) return Value::String(s.substr(0, n));
  std::string fill;
  while (fill.size() < n - s.size()) fill += pad;
  fill.resize(n - s.size());
  return Value::String(left ? fill + s : s + fill);
}

const char* kHexDigits = "0123456789ABCDEF";

Result<Value> MinMaxImpl(const std::vector<Value>& a, bool want_max) {
  if (AnyNull(a)) return Value::Null(a[0].type());
  const Value* best = &a[0];
  for (size_t i = 1; i < a.size(); ++i) {
    int c = a[i].Compare(*best);
    if (want_max ? c > 0 : c < 0) best = &a[i];
  }
  return *best;
}

}  // namespace

// ---- registry -----------------------------------------------------------

const FunctionRegistry& FunctionRegistry::Global() {
  static FunctionRegistry* reg = new FunctionRegistry();
  return *reg;
}

const FunctionDef* FunctionRegistry::Lookup(
    const std::string& upper_name) const {
  auto it = fns_.find(upper_name);
  return it == fns_.end() ? nullptr : &it->second;
}

std::vector<std::string> FunctionRegistry::NamesByOrigin(Dialect d) const {
  std::vector<std::string> out;
  for (const auto& [name, def] : fns_) {
    if (def.origin == d) out.push_back(name);
  }
  return out;
}

void FunctionRegistry::Register(FunctionDef def) {
  fns_[def.name] = std::move(def);
}

FunctionRegistry::FunctionRegistry() {
  auto reg = [this](std::string name, int mn, int mx, Dialect origin,
                    std::function<TypeId(const std::vector<TypeId>&)> rt,
                    ScalarFnImpl fn) {
    Register(FunctionDef{std::move(name), mn, mx, origin, std::move(rt),
                         std::move(fn), /*pure=*/false, /*vec_fn=*/nullptr});
  };

  // ---- ANSI core --------------------------------------------------------
  reg("UPPER", 1, 1, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        std::transform(s.begin(), s.end(), s.begin(),
                       [](unsigned char c) { return std::toupper(c); });
        return Value::String(s);
      });
  reg("LOWER", 1, 1, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        std::transform(s.begin(), s.end(), s.begin(),
                       [](unsigned char c) { return std::tolower(c); });
        return Value::String(s);
      });
  reg("LENGTH", 1, 1, Dialect::kAnsi, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        return Value::Int64(static_cast<int64_t>(s.size()));
      });
  reg("TRIM", 1, 1, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        size_t b = s.find_first_not_of(' ');
        size_t e = s.find_last_not_of(' ');
        return Value::String(b == std::string::npos
                                 ? ""
                                 : s.substr(b, e - b + 1));
      });
  reg("LTRIM", 1, 1, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        size_t b = s.find_first_not_of(' ');
        return Value::String(b == std::string::npos ? "" : s.substr(b));
      });
  reg("RTRIM", 1, 1, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        size_t e = s.find_last_not_of(' ');
        return Value::String(e == std::string::npos ? "" : s.substr(0, e + 1));
      });
  reg("REPLACE", 3, 3, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(std::string from, Str(a[1]));
        DASHDB_ASSIGN_OR_RETURN(std::string to, Str(a[2]));
        if (from.empty()) return Value::String(s);
        std::string out;
        size_t pos = 0;
        for (;;) {
          size_t hit = s.find(from, pos);
          if (hit == std::string::npos) {
            out += s.substr(pos);
            break;
          }
          out += s.substr(pos, hit - pos);
          out += to;
          pos = hit + from.size();
        }
        return Value::String(out);
      });
  reg("CONCAT", 2, -1, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        std::string out;
        for (const auto& v : a) {
          if (v.is_null()) continue;
          DASHDB_ASSIGN_OR_RETURN(std::string s, Str(v));
          out += s;
        }
        return Value::String(out);
      });
  reg("ABS", 1, 1, Dialect::kAnsi, RetFirstArg,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return a[0];
        if (a[0].type() == TypeId::kDouble) {
          return Value::Double(std::fabs(a[0].AsDouble()));
        }
        return Value::Int64(std::llabs(a[0].AsInt()));
      });
  reg("MOD", 2, 2, Dialect::kAnsi, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(int64_t x, Int(a[0]));
        DASHDB_ASSIGN_OR_RETURN(int64_t y, Int(a[1]));
        if (y == 0) return Status::InvalidArgument("MOD by zero");
        if (y == -1) return Value::Int64(0);  // INT64_MIN % -1 traps
        return Value::Int64(x % y);
      });
  reg("FLOOR", 1, 1, Dialect::kAnsi, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(double d, Dbl(a[0]));
        return Value::Double(std::floor(d));
      });
  reg("CEIL", 1, 1, Dialect::kAnsi, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(double d, Dbl(a[0]));
        return Value::Double(std::ceil(d));
      });
  reg("ROUND", 1, 2, Dialect::kAnsi, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(double d, Dbl(a[0]));
        int64_t places = 0;
        if (a.size() >= 2 && !a[1].is_null()) {
          DASHDB_ASSIGN_OR_RETURN(places, Int(a[1]));
        }
        double scale = std::pow(10.0, static_cast<double>(places));
        return Value::Double(std::round(d * scale) / scale);
      });
  reg("SQRT", 1, 1, Dialect::kAnsi, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(double d, Dbl(a[0]));
        if (d < 0) return Status::InvalidArgument("SQRT of negative");
        return Value::Double(std::sqrt(d));
      });
  reg("EXP", 1, 1, Dialect::kAnsi, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(double d, Dbl(a[0]));
        return Value::Double(std::exp(d));
      });
  reg("LN", 1, 1, Dialect::kAnsi, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(double d, Dbl(a[0]));
        if (d <= 0) return Status::InvalidArgument("LN of non-positive");
        return Value::Double(std::log(d));
      });
  reg("SIGN", 1, 1, Dialect::kAnsi, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(double d, Dbl(a[0]));
        return Value::Int64(d > 0 ? 1 : (d < 0 ? -1 : 0));
      });
  reg("COALESCE", 1, -1, Dialect::kAnsi, RetFirstArg,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        for (const auto& v : a) {
          if (!v.is_null()) return v;
        }
        return a.back();
      });
  reg("NULLIF", 2, 2, Dialect::kAnsi, RetFirstArg,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (!a[0].is_null() && !a[1].is_null() && a[0].Compare(a[1]) == 0) {
          return Value::Null(a[0].type());
        }
        return a[0];
      });
  reg("CURRENT_DATE", 0, 0, Dialect::kAnsi, RetDate,
      [](const std::vector<Value>&, const ExecContext& ctx) -> Result<Value> {
        return Value::Date(static_cast<int32_t>(ctx.current_date_days));
      });
  reg("YEAR", 1, 1, Dialect::kAnsi, RetInt64,
      [](const std::vector<Value>& a, const ExecContext& c) -> Result<Value> {
        return DatePartImpl({Value::String("year"), a[0]}, c);
      });
  reg("MONTH", 1, 1, Dialect::kAnsi, RetInt64,
      [](const std::vector<Value>& a, const ExecContext& c) -> Result<Value> {
        return DatePartImpl({Value::String("month"), a[0]}, c);
      });
  reg("DAY", 1, 1, Dialect::kAnsi, RetInt64,
      [](const std::vector<Value>& a, const ExecContext& c) -> Result<Value> {
        return DatePartImpl({Value::String("day"), a[0]}, c);
      });

  // ---- Oracle (paper II.C.1.a) -------------------------------------------
  auto substr_def = [&](const char* name) {
    reg(name, 2, 3, Dialect::kOracle, RetVarchar, SubstrImpl);
  };
  substr_def("SUBSTR");
  substr_def("SUBSTR2");
  substr_def("SUBSTR4");
  substr_def("SUBSTRB");
  reg("NVL", 2, 2, Dialect::kOracle, RetFirstArg,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        return a[0].is_null() ? a[1] : a[0];
      });
  reg("NVL2", 3, 3, Dialect::kOracle,
      [](const std::vector<TypeId>& t) {
        return t.size() >= 2 ? t[1] : TypeId::kVarchar;
      },
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        return a[0].is_null() ? a[2] : a[1];
      });
  reg("INSTR", 2, 3, Dialect::kOracle, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null() || a[1].is_null()) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(std::string sub, Str(a[1]));
        int64_t from = 1;
        if (a.size() >= 3 && !a[2].is_null()) {
          DASHDB_ASSIGN_OR_RETURN(from, Int(a[2]));
        }
        if (from < 1 || static_cast<size_t>(from) > s.size() + 1) {
          return Value::Int64(0);
        }
        size_t pos = s.find(sub, from - 1);
        return Value::Int64(pos == std::string::npos
                                ? 0
                                : static_cast<int64_t>(pos) + 1);
      });
  reg("LPAD", 2, 3, Dialect::kOracle, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) {
        return PadImpl(a, true);
      });
  reg("RPAD", 2, 3, Dialect::kOracle, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) {
        return PadImpl(a, false);
      });
  reg("INITCAP", 1, 1, Dialect::kOracle, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        bool start = true;
        for (char& c : s) {
          if (std::isalnum(static_cast<unsigned char>(c))) {
            c = start ? std::toupper(static_cast<unsigned char>(c))
                      : std::tolower(static_cast<unsigned char>(c));
            start = false;
          } else {
            start = true;
          }
        }
        return Value::String(s);
      });
  reg("HEXTORAW", 1, 1, Dialect::kOracle, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        if (s.size() % 2) return Status::InvalidArgument("odd hex length");
        std::string out;
        for (size_t i = 0; i < s.size(); i += 2) {
          auto nib = [](char c) -> int {
            if (c >= '0' && c <= '9') return c - '0';
            if (c >= 'A' && c <= 'F') return c - 'A' + 10;
            if (c >= 'a' && c <= 'f') return c - 'a' + 10;
            return -1;
          };
          int h = nib(s[i]), l = nib(s[i + 1]);
          if (h < 0 || l < 0) return Status::InvalidArgument("bad hex digit");
          out.push_back(static_cast<char>((h << 4) | l));
        }
        return Value::String(out);
      });
  reg("RAWTOHEX", 1, 1, Dialect::kOracle, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        std::string out;
        for (unsigned char c : s) {
          out.push_back(kHexDigits[c >> 4]);
          out.push_back(kHexDigits[c & 15]);
        }
        return Value::String(out);
      });
  reg("LEAST", 1, -1, Dialect::kOracle, RetFirstArg,
      [](const std::vector<Value>& a, const ExecContext&) {
        return MinMaxImpl(a, false);
      });
  reg("GREATEST", 1, -1, Dialect::kOracle, RetFirstArg,
      [](const std::vector<Value>& a, const ExecContext&) {
        return MinMaxImpl(a, true);
      });
  reg("DECODE", 3, -1, Dialect::kOracle,
      [](const std::vector<TypeId>& t) {
        return t.size() >= 3 ? t[2] : TypeId::kVarchar;
      },
      DecodeImpl);
  reg("TO_CHAR", 1, 2, Dialect::kOracle, RetVarchar, ToCharImpl);
  reg("TO_DATE", 1, 2, Dialect::kOracle, RetDate, ToDateImpl);
  reg("TO_NUMBER", 1, 1, Dialect::kOracle, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        return a[0].CastTo(TypeId::kDouble);
      });
  reg("SYSDATE", 0, 0, Dialect::kOracle, RetDate,
      [](const std::vector<Value>&, const ExecContext& ctx) -> Result<Value> {
        return Value::Date(static_cast<int32_t>(ctx.current_date_days));
      });

  // ---- Netezza / PostgreSQL (paper II.C.1.b) ------------------------------
  reg("NOW", 0, 0, Dialect::kNetezza,
      [](const std::vector<TypeId>&) { return TypeId::kTimestamp; },
      [](const std::vector<Value>&, const ExecContext& ctx) -> Result<Value> {
        return Value::Timestamp(ctx.now_micros);
      });
  reg("DATE_PART", 2, 2, Dialect::kNetezza, RetInt64, DatePartImpl);
  reg("POW", 2, 2, Dialect::kNetezza, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(double x, Dbl(a[0]));
        DASHDB_ASSIGN_OR_RETURN(double y, Dbl(a[1]));
        return Value::Double(std::pow(x, y));
      });
  auto hash_impl = [](const std::vector<Value>& a,
                      const ExecContext&) -> Result<Value> {
    if (a[0].is_null()) return Value::Null(TypeId::kInt64);
    DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
    return Value::Int64(static_cast<int64_t>(HashString(s)));
  };
  reg("HASH", 1, 1, Dialect::kNetezza, RetInt64, hash_impl);
  reg("HASH8", 1, 1, Dialect::kNetezza, RetInt64, hash_impl);
  reg("HASH4", 1, 1, Dialect::kNetezza, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        return Value::Int64(
            static_cast<int64_t>(static_cast<uint32_t>(HashString(s))));
      });
  reg("BTRIM", 1, 2, Dialect::kNetezza, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        std::string chars = " ";
        if (a.size() >= 2 && !a[1].is_null()) {
          DASHDB_ASSIGN_OR_RETURN(chars, Str(a[1]));
        }
        size_t b = s.find_first_not_of(chars);
        size_t e = s.find_last_not_of(chars);
        return Value::String(b == std::string::npos ? ""
                                                    : s.substr(b, e - b + 1));
      });
  reg("TO_HEX", 1, 1, Dialect::kNetezza, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(int64_t v, Int(a[0]));
        char buf[24];
        std::snprintf(buf, sizeof(buf), "%llx",
                      static_cast<unsigned long long>(v));
        return Value::String(buf);
      });
  auto bitop = [&reg](const char* name, auto op) {
    reg(name, 2, 2, Dialect::kNetezza, RetInt64,
        [op](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
          if (AnyNull(a)) return Value::Null(TypeId::kInt64);
          DASHDB_ASSIGN_OR_RETURN(int64_t x, Int(a[0]));
          DASHDB_ASSIGN_OR_RETURN(int64_t y, Int(a[1]));
          return Value::Int64(op(x, y));
        });
  };
  bitop("INT4AND", [](int64_t x, int64_t y) { return x & y; });
  bitop("INT4OR", [](int64_t x, int64_t y) { return x | y; });
  bitop("INT4XOR", [](int64_t x, int64_t y) { return x ^ y; });
  bitop("INT8AND", [](int64_t x, int64_t y) { return x & y; });
  bitop("INT8OR", [](int64_t x, int64_t y) { return x | y; });
  bitop("INT8XOR", [](int64_t x, int64_t y) { return x ^ y; });
  reg("INT4NOT", 1, 1, Dialect::kNetezza, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(int64_t x, Int(a[0]));
        return Value::Int64(~x);
      });
  reg("INT8NOT", 1, 1, Dialect::kNetezza, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(int64_t x, Int(a[0]));
        return Value::Int64(~x);
      });
  auto strleft = [](const std::vector<Value>& a,
                    const ExecContext&) -> Result<Value> {
    if (AnyNull(a)) return Value::Null(TypeId::kVarchar);
    DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
    DASHDB_ASSIGN_OR_RETURN(int64_t n, Int(a[1]));
    if (n <= 0) return Value::String("");
    return Value::String(s.substr(0, n));
  };
  reg("STRLEFT", 2, 2, Dialect::kNetezza, RetVarchar, strleft);
  reg("STRLFT", 2, 2, Dialect::kNetezza, RetVarchar, strleft);
  reg("STRRIGHT", 2, 2, Dialect::kNetezza, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(int64_t n, Int(a[1]));
        if (n <= 0) return Value::String("");
        size_t take = std::min<size_t>(s.size(), n);
        return Value::String(s.substr(s.size() - take));
      });
  reg("STRPOS", 2, 2, Dialect::kNetezza, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(std::string s, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(std::string sub, Str(a[1]));
        size_t pos = s.find(sub);
        return Value::Int64(pos == std::string::npos
                                ? 0
                                : static_cast<int64_t>(pos) + 1);
      });
  reg("AGE", 2, 2, Dialect::kNetezza, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(Value d1, a[0].CastTo(TypeId::kDate));
        DASHDB_ASSIGN_OR_RETURN(Value d2, a[1].CastTo(TypeId::kDate));
        return Value::Int64(d1.AsInt() - d2.AsInt());  // days
      });
  reg("NEXT_MONTH", 1, 1, Dialect::kNetezza, RetDate,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDate);
        DASHDB_ASSIGN_OR_RETURN(Value d, a[0].CastTo(TypeId::kDate));
        CivilDate c = CivilFromDays(static_cast<int32_t>(d.AsInt()));
        int y = c.year, m = c.month + 1;
        if (m > 12) {
          m = 1;
          ++y;
        }
        return Value::Date(DaysFromCivil(y, m, 1));
      });
  auto between = [&reg](const char* name, int64_t divisor) {
    reg(name, 2, 2, Dialect::kNetezza, RetInt64,
        [divisor](const std::vector<Value>& a,
                  const ExecContext&) -> Result<Value> {
          if (AnyNull(a)) return Value::Null(TypeId::kInt64);
          DASHDB_ASSIGN_OR_RETURN(Value t1, a[0].CastTo(TypeId::kTimestamp));
          DASHDB_ASSIGN_OR_RETURN(Value t2, a[1].CastTo(TypeId::kTimestamp));
          int64_t diff_secs = (t2.AsInt() - t1.AsInt()) / 1000000;
          return Value::Int64(diff_secs / divisor);
        });
  };
  between("SECONDS_BETWEEN", 1);
  between("HOURS_BETWEEN", 3600);
  between("DAYS_BETWEEN", 86400);
  between("WEEKS_BETWEEN", 7 * 86400);

  // ---- DB2 (paper II.C.1.c) -----------------------------------------------
  reg("NORMALIZE_DECFLOAT", 1, 1, Dialect::kDb2, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        return a[0].CastTo(TypeId::kDouble);  // doubles are always normalized
      });
  reg("COMPARE_DECFLOAT", 2, 2, Dialect::kDb2, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(double x, Dbl(a[0]));
        DASHDB_ASSIGN_OR_RETURN(double y, Dbl(a[1]));
        if (std::isnan(x) || std::isnan(y)) return Value::Int64(3);
        return Value::Int64(x < y ? -1 : (x > y ? 1 : 0));
      });

  // ---- Geospatial, SQL/MM style (paper II.C.5) -----------------------------
  reg("ST_POINT", 2, 2, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(double x, Dbl(a[0]));
        DASHDB_ASSIGN_OR_RETURN(double y, Dbl(a[1]));
        geo::Geometry g;
        g.kind = geo::GeomKind::kPoint;
        g.points = {{x, y}};
        return Value::String(g.ToWkt());
      });
  auto coord = [](bool want_x) {
    return [want_x](const std::vector<Value>& a,
                    const ExecContext&) -> Result<Value> {
      if (a[0].is_null()) return Value::Null(TypeId::kDouble);
      DASHDB_ASSIGN_OR_RETURN(std::string w, Str(a[0]));
      DASHDB_ASSIGN_OR_RETURN(geo::Geometry g, geo::ParseWkt(w));
      if (g.kind != geo::GeomKind::kPoint) {
        return Status::InvalidArgument("ST_X/ST_Y require a POINT");
      }
      return Value::Double(want_x ? g.points[0].x : g.points[0].y);
    };
  };
  reg("ST_X", 1, 1, Dialect::kAnsi, RetDouble, coord(true));
  reg("ST_Y", 1, 1, Dialect::kAnsi, RetDouble, coord(false));
  reg("ST_DISTANCE", 2, 2, Dialect::kAnsi, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(std::string wa, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(std::string wb, Str(a[1]));
        DASHDB_ASSIGN_OR_RETURN(geo::Geometry ga, geo::ParseWkt(wa));
        DASHDB_ASSIGN_OR_RETURN(geo::Geometry gb, geo::ParseWkt(wb));
        return Value::Double(geo::Distance(ga, gb));
      });
  auto containment = [](bool polygon_first) {
    return [polygon_first](const std::vector<Value>& a,
                           const ExecContext&) -> Result<Value> {
      if (AnyNull(a)) return Value::Null(TypeId::kBoolean);
      DASHDB_ASSIGN_OR_RETURN(std::string wa, Str(a[0]));
      DASHDB_ASSIGN_OR_RETURN(std::string wb, Str(a[1]));
      DASHDB_ASSIGN_OR_RETURN(geo::Geometry ga, geo::ParseWkt(wa));
      DASHDB_ASSIGN_OR_RETURN(geo::Geometry gb, geo::ParseWkt(wb));
      const geo::Geometry& poly = polygon_first ? ga : gb;
      const geo::Geometry& pt = polygon_first ? gb : ga;
      if (poly.kind != geo::GeomKind::kPolygon ||
          pt.kind != geo::GeomKind::kPoint) {
        return Status::InvalidArgument(
            "containment requires (POLYGON, POINT)");
      }
      return Value::Boolean(geo::Contains(poly, pt.points[0]));
    };
  };
  auto ret_bool = [](const std::vector<TypeId>&) { return TypeId::kBoolean; };
  reg("ST_CONTAINS", 2, 2, Dialect::kAnsi, ret_bool, containment(true));
  reg("ST_WITHIN", 2, 2, Dialect::kAnsi, ret_bool, containment(false));
  reg("ST_AREA", 1, 1, Dialect::kAnsi, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(std::string w, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(geo::Geometry g, geo::ParseWkt(w));
        return Value::Double(geo::Area(g));
      });
  reg("ST_LENGTH", 1, 1, Dialect::kAnsi, RetDouble,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kDouble);
        DASHDB_ASSIGN_OR_RETURN(std::string w, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(geo::Geometry g, geo::ParseWkt(w));
        return Value::Double(geo::Length(g));
      });
  reg("ST_NUMPOINTS", 1, 1, Dialect::kAnsi, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(std::string w, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(geo::Geometry g, geo::ParseWkt(w));
        return Value::Int64(static_cast<int64_t>(g.points.size()));
      });
  reg("ST_ASTEXT", 1, 1, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string w, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(geo::Geometry g, geo::ParseWkt(w));
        return Value::String(g.ToWkt());
      });
  // ---- JSON analytics (paper Section VI future work) ----------------------
  reg("JSON_VALUE", 2, 2, Dialect::kAnsi, RetVarchar,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Null(TypeId::kVarchar);
        DASHDB_ASSIGN_OR_RETURN(std::string doc, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(std::string path, Str(a[1]));
        return json::Extract(doc, path);
      });
  reg("JSON_ARRAY_LENGTH", 1, 2, Dialect::kAnsi, RetInt64,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (a[0].is_null()) return Value::Null(TypeId::kInt64);
        DASHDB_ASSIGN_OR_RETURN(std::string doc, Str(a[0]));
        std::string path = "$";
        if (a.size() >= 2 && !a[1].is_null()) {
          DASHDB_ASSIGN_OR_RETURN(path, Str(a[1]));
        }
        return json::ArrayLength(doc, path);
      });
  auto ret_bool2 = [](const std::vector<TypeId>&) { return TypeId::kBoolean; };
  reg("JSON_EXISTS", 2, 2, Dialect::kAnsi, ret_bool2,
      [](const std::vector<Value>& a, const ExecContext&) -> Result<Value> {
        if (AnyNull(a)) return Value::Boolean(false);
        DASHDB_ASSIGN_OR_RETURN(std::string doc, Str(a[0]));
        DASHDB_ASSIGN_OR_RETURN(std::string path, Str(a[1]));
        return json::Exists(doc, path);
      });

  // ---- purity + columnar kernels ----------------------------------------
  // Pure = deterministic and context-free (beyond dialect string
  // semantics, which the binder's fold context shares with execution):
  // a pure call over all-literal arguments folds at bind time. Functions
  // reading the clock/date context (SYSDATE, NOW, CURRENT_DATE, AGE) and
  // conversion functions with format-model state stay unfoldable.
  for (const char* n :
       {"UPPER",    "LOWER",   "LENGTH",   "TRIM",     "LTRIM",   "RTRIM",
        "REPLACE",  "CONCAT",  "ABS",      "MOD",      "FLOOR",   "CEIL",
        "ROUND",    "SQRT",    "EXP",      "LN",       "SIGN",    "COALESCE",
        "NULLIF",   "YEAR",    "MONTH",    "DAY",      "SUBSTR",  "SUBSTR2",
        "SUBSTR4",  "SUBSTRB", "NVL",      "NVL2",     "INSTR",   "LPAD",
        "RPAD",     "INITCAP", "HEXTORAW", "RAWTOHEX", "LEAST",   "GREATEST",
        "DECODE",   "POW",     "HASH",     "HASH8",    "HASH4",   "BTRIM",
        "TO_HEX",   "INT4NOT", "INT8NOT",  "STRLEFT",  "STRLFT",  "STRRIGHT",
        "STRPOS",   "NEXT_MONTH"}) {
    fns_[n].pure = true;
  }

  // Columnar kernels for the hottest scalar functions. Each mirrors its
  // row implementation exactly — including Oracle empty-string-is-NULL on
  // arguments and results — and declines (returns false) on argument
  // types it does not specialize, falling back to the row loop.
  auto case_map_vec = [](int (*conv)(int)) {
    return [conv](const std::vector<ColumnVector>& args, size_t rows,
                  const ExecContext& ctx, ColumnVector* out) -> Result<bool> {
      const ColumnVector& in = args[0];
      if (in.type() != TypeId::kVarchar) return false;
      const bool oracle = ctx.EmptyStringIsNull();
      out->Reserve(rows);
      for (size_t i = 0; i < rows; ++i) {
        if (in.IsNull(i) || (oracle && in.strings()[i].empty())) {
          out->AppendNull();
          continue;
        }
        std::string s = in.strings()[i];
        std::transform(s.begin(), s.end(), s.begin(),
                       [conv](unsigned char c) { return conv(c); });
        out->AppendString(std::move(s));
      }
      return true;
    };
  };
  fns_["UPPER"].vec_fn = case_map_vec([](int c) { return std::toupper(c); });
  fns_["LOWER"].vec_fn = case_map_vec([](int c) { return std::tolower(c); });
  fns_["LENGTH"].vec_fn = [](const std::vector<ColumnVector>& args,
                             size_t rows, const ExecContext& ctx,
                             ColumnVector* out) -> Result<bool> {
    const ColumnVector& in = args[0];
    if (in.type() != TypeId::kVarchar) return false;
    const bool oracle = ctx.EmptyStringIsNull();
    out->Reserve(rows);
    for (size_t i = 0; i < rows; ++i) {
      if (in.IsNull(i) || (oracle && in.strings()[i].empty())) {
        out->AppendNull();
      } else {
        out->AppendInt(static_cast<int64_t>(in.strings()[i].size()));
      }
    }
    return true;
  };
  fns_["ABS"].vec_fn = [](const std::vector<ColumnVector>& args, size_t rows,
                          const ExecContext&,
                          ColumnVector* out) -> Result<bool> {
    const ColumnVector& in = args[0];
    if (in.type() == TypeId::kDouble) {
      out->Reserve(rows);
      for (size_t i = 0; i < rows; ++i) {
        if (in.IsNull(i)) {
          out->AppendNull();
        } else {
          out->AppendDouble(std::fabs(in.doubles()[i]));
        }
      }
      return true;
    }
    if (IsIntegerBacked(in.type())) {
      out->Reserve(rows);
      for (size_t i = 0; i < rows; ++i) {
        if (in.IsNull(i)) {
          out->AppendNull();
        } else {
          out->AppendInt(std::llabs(in.ints()[i]));
        }
      }
      return true;
    }
    return false;
  };
}

}  // namespace dashdb
