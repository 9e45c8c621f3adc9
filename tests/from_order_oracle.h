// The join-order reference oracle: a SQL rewrite that turns every FROM item
// `T a` into the derived table `(SELECT * FROM T) a`. The binder's
// cost-based path and its runtime join filters both need base column
// tables, so the rewritten query joins in FROM order with no runtime filter
// — the plan the cost optimizer is measured and checked against. Callers
// assert that `exec.bloom_pushdowns` did not move across an oracle run.
//
// Handles the flat test queries only: one FROM clause of comma- or
// JOIN-separated base tables, each with an optional alias, no nested SELECT.
#pragma once

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

namespace dashdb {
namespace oracle {

inline std::string FromOrderSql(const std::string& sql) {
  const size_t from = sql.find(" FROM ");
  if (from == std::string::npos) return sql;
  const size_t body = from + 6;
  size_t end = sql.size();
  for (const char* kw : {" WHERE ", " GROUP BY ", " HAVING ", " ORDER BY ",
                         " LIMIT "}) {
    end = std::min(end, sql.find(kw, body));
  }
  std::string clause = sql.substr(body, end - body);
  std::string spaced;
  for (char c : clause) {
    if (c == ',') {
      spaced += " , ";
    } else {
      spaced += c;
    }
  }
  std::vector<std::string> toks;
  std::istringstream in(spaced);
  for (std::string t; in >> t;) toks.push_back(t);
  auto ends_item = [](const std::string& t) {
    for (const char* kw : {",", "ON", "JOIN", "LEFT", "RIGHT", "INNER",
                           "CROSS", "FULL", "OUTER", "USING"}) {
      if (t == kw) return true;
    }
    return false;
  };
  std::string out;
  bool expect_table = true;
  for (size_t i = 0; i < toks.size(); ++i) {
    if (!out.empty() && toks[i] != ",") out += ' ';
    if (!expect_table) {
      out += toks[i];
      expect_table = toks[i] == "," || toks[i] == "JOIN";
      continue;
    }
    const std::string& table = toks[i];
    std::string alias = table.substr(table.rfind('.') + 1);
    if (i + 1 < toks.size() && toks[i + 1] == "AS") ++i;
    if (i + 1 < toks.size() && !ends_item(toks[i + 1])) alias = toks[++i];
    out += "(SELECT * FROM " + table + ") " + alias;
    expect_table = false;
  }
  return sql.substr(0, body) + out + sql.substr(end);
}

}  // namespace oracle
}  // namespace dashdb
