// Reference ORDER BY for tests and benches: a single-threaded
// std::stable_sort over typed cell comparisons, with no normalized keys,
// runs, merges or heaps. SortOp and TopNOp (exec/sort.h) must match it
// byte for byte at every DOP, and so must the MPP coordinator's merge.
//
// Order, per key: NULLs sort after every value (first under DESC, which
// flips the whole three-way result); doubles order numerically with
// -0.0 == +0.0 and every NaN equal to every other NaN and after +inf;
// strings order bytewise; everything else by its int64 payload.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "exec/sort.h"

namespace dashdb {
namespace sort_oracle {

/// Three-way comparison of cells a and b of one key column: <0, 0, >0.
inline int CompareCells(const ColumnVector& cv, size_t a, size_t b) {
  const bool an = cv.IsNull(a), bn = cv.IsNull(b);
  if (an || bn) return an ? (bn ? 0 : 1) : -1;
  if (cv.type() == TypeId::kVarchar) {
    const std::string& x = cv.GetString(a);
    const std::string& y = cv.GetString(b);
    return x < y ? -1 : (x == y ? 0 : 1);
  }
  if (cv.type() == TypeId::kDouble) {
    const double x = cv.GetDouble(a), y = cv.GetDouble(b);
    const bool xn = std::isnan(x), yn = std::isnan(y);
    if (xn || yn) return xn ? (yn ? 0 : 1) : -1;
    return x < y ? -1 : (x == y ? 0 : 1);
  }
  const int64_t x = cv.GetInt(a), y = cv.GetInt(b);
  return x < y ? -1 : (x == y ? 0 : 1);
}

/// Rows [offset, offset+limit) (limit < 0: to the end) of the dense batch
/// `in` after a stable sort on `key_cols` (parallel to `desc`, one value
/// per row of `in`).
inline RowBatch SortBy(const RowBatch& in,
                       const std::vector<const ColumnVector*>& key_cols,
                       const std::vector<bool>& desc, int64_t limit = -1,
                       int64_t offset = 0) {
  std::vector<uint32_t> order(in.num_rows());
  for (size_t i = 0; i < order.size(); ++i) order[i] = static_cast<uint32_t>(i);
  std::stable_sort(order.begin(), order.end(), [&](uint32_t a, uint32_t b) {
    for (size_t k = 0; k < key_cols.size(); ++k) {
      const int c = CompareCells(*key_cols[k], a, b);
      if (c != 0) return desc[k] ? c > 0 : c < 0;
    }
    return false;
  });
  const size_t first = std::min(static_cast<size_t>(offset), order.size());
  size_t last = order.size();
  if (limit >= 0) last = std::min(last, first + static_cast<size_t>(limit));
  RowBatch out;
  for (const ColumnVector& c : in.columns) {
    out.columns.emplace_back(c.type());
    out.columns.back().Gather(c, order.data() + first, last - first);
  }
  return out;
}

/// One key: a column of the batch being sorted.
struct Key {
  int col;
  bool desc = false;
};

inline RowBatch Sort(const RowBatch& in, const std::vector<Key>& keys,
                     int64_t limit = -1, int64_t offset = 0) {
  std::vector<const ColumnVector*> cols;
  std::vector<bool> desc;
  for (const Key& k : keys) {
    cols.push_back(&in.columns[k.col]);
    desc.push_back(k.desc);
  }
  return SortBy(in, cols, desc, limit, offset);
}

/// The same with SortOp's own keys, each expression evaluated once over
/// `in`.
inline RowBatch Sort(const RowBatch& in, const std::vector<SortKey>& keys,
                     int64_t limit = -1, int64_t offset = 0) {
  ExecContext ctx;
  std::vector<ColumnVector> evaluated;
  for (const SortKey& k : keys) {
    auto cv = k.expr->Evaluate(in, ctx);
    if (!cv.ok()) return RowBatch{};
    evaluated.push_back(std::move(*cv));
  }
  std::vector<const ColumnVector*> cols;
  std::vector<bool> desc;
  for (size_t k = 0; k < keys.size(); ++k) {
    cols.push_back(&evaluated[k]);
    desc.push_back(keys[k].desc);
  }
  return SortBy(in, cols, desc, limit, offset);
}

}  // namespace sort_oracle
}  // namespace dashdb
