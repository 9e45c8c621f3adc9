// Aggregate function machinery: the union of aggregation functions from the
// paper's dialect lists (II.C.1) — COUNT/SUM/AVG/MIN/MAX plus Oracle
// PERCENTILE_DISC/PERCENTILE_CONT/MEDIAN/CUME_DIST/VAR_POP/COVAR_POP/
// STDDEV_POP, Netezza COVAR_SAMP/STDDEV_SAMP, DB2 VARIANCE/STDDEV/
// COVARIANCE/COVARIANCE_SAMP.
#pragma once

#include <memory>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/column_vector.h"
#include "common/status.h"
#include "common/value.h"
#include "exec/expr.h"

namespace dashdb {

enum class AggKind : uint8_t {
  kCountStar = 0,
  kCount,
  kSum,
  kAvg,
  kMin,
  kMax,
  kVarPop,
  kVarSamp,
  kStddevPop,
  kStddevSamp,
  kCovarPop,
  kCovarSamp,
  kMedian,
  kPercentileCont,  ///< param = fraction in [0,1]
  kPercentileDisc,
};

/// Maps a SQL aggregate name (any dialect spelling) to a kind; false when
/// the name is not an aggregate.
bool AggKindFromName(const std::string& upper, AggKind* out);

/// Result type of an aggregate given its input type.
TypeId AggResultType(AggKind kind, TypeId input);

/// MIN and MAX of two doubles in one total order: -0.0 below +0.0, every
/// NaN above +inf (as in ORDER BY), NaNs of either sign by their bits. No
/// two distinct bit patterns tie, so a fold or merge gives the same bits
/// whatever order the values or partials arrive in.
double DoubleMin(double a, double b);
double DoubleMax(double a, double b);

/// One aggregate in a GROUP BY: kind + argument expression(s).
struct AggSpec {
  AggKind kind = AggKind::kCountStar;
  ExprPtr arg;        ///< null for COUNT(*)
  ExprPtr arg2;       ///< second argument (COVAR_*)
  double param = 0.5; ///< percentile fraction
  bool distinct = false;
  TypeId out_type = TypeId::kInt64;
};

/// Streaming accumulator for one (group, aggregate) pair.
class AggState {
 public:
  explicit AggState(const AggSpec* spec) : spec_(spec) {}

  void Add(const Value& v, const Value& v2);

  /// Typed fast-path entries (no Value boxing). The caller guarantees the
  /// input is non-null and that the spec is not DISTINCT and not COVAR.
  void AddCountStarFast() { ++count_; }
  void AddNumericFast(double x, int64_t ix, bool int_domain);

  /// Typed column fold for one aggregate over rows [lo, lo + n) of the
  /// integer-backed or DOUBLE column x: folds each non-NULL x[lo + j] into
  /// states[gids[j] * stride], with no Value boxing; the NULL test runs
  /// only when x has NULLs. The result is bit-identical to calling
  /// AddNumericFast per non-NULL row. The states' spec is neither DISTINCT
  /// nor COVAR. (A group-by whose aggregates are all
  /// COUNT/SUM/AVG/MIN/MAX keeps AggColumn states instead.)
  static void Fold(AggState* states, size_t stride, const uint32_t* gids,
                   const ColumnVector& x, size_t lo, size_t n);

  /// Folds another partial accumulator for the same spec into this one
  /// (parallel aggregation: thread-local partials merged per group). Welford
  /// and covariance states merge via Chan's parallel update; order
  /// statistics concatenate (Finish sorts). Not valid for DISTINCT specs —
  /// per-partial dedup undercounts across partials (see CanMergeParallel).
  void Merge(const AggState& other);

  /// Whether partial states for `spec` can be combined with Merge().
  static bool CanMergeParallel(const AggSpec& spec) { return !spec.distinct; }

  Value Finish() const;

 private:
  template <typename T>
  static void FoldTyped(AggState* states, size_t stride, const uint32_t* gids,
                        const T* v, const ColumnVector& x, size_t lo,
                        size_t n);

  const AggSpec* spec_;
  /// SUM/AVG accumulation: exact in isum_ while every input is an
  /// integer, then a compensated double sum (sum_ + sum_err_).
  void AddSum(double x, int64_t ix, bool is_int);
  /// Typed MIN/MAX: keeps both the double and the integer extremes.
  void AddExtremes(double x, int64_t ix, bool int_domain);
  double Sum() const {
    return int_domain_ ? static_cast<double>(isum_) : sum_ + sum_err_;
  }

  /// State only some aggregates need, allocated on first use: boxed
  /// MIN/MAX, covariance, order statistics and DISTINCT dedup. Keeps the
  /// common state small, since a group-by holds one per (group, aggregate).
  struct Extra {
    std::optional<Value> min, max;
    double mean_x = 0, mean_y = 0, cxy = 0;
    std::vector<double> values;  ///< order statistics (Finish sorts)
    std::set<std::string> seen;
  };
  Extra& extra() {
    if (!extra_) extra_ = std::make_unique<Extra>();
    return *extra_;
  }

  // The fields COUNT and SUM touch come first (after spec_), so a
  // group-by's hot states cost one cache line each.
  int64_t count_ = 0;          // non-null inputs (or all rows for COUNT(*))
  int64_t isum_ = 0;
  double sum_ = 0, sum_err_ = 0;
  bool int_domain_ = true;
  bool fast_minmax_ = false;
  bool fast_int_domain_ = true;
  // Typed fast-path min/max (used instead of Extra's boxed min/max when
  // the fast entries fed this state).
  double dmin_ = 0, dmax_ = 0;
  int64_t imin_ = 0, imax_ = 0;
  // Welford.
  double mean_ = 0, m2_ = 0;
  std::unique_ptr<Extra> extra_;
};

/// The states of one aggregate over every group of a group-by table, in
/// columns: one array per state field (the non-NULL input count, plus an
/// int64 sum or extreme, or a double sum and its Neumaier error, or a
/// double extreme) instead of one AggState per group — 16 bytes per group
/// for an integer SUM. Covers COUNT(*), and COUNT, SUM, AVG, MIN and MAX
/// over an integer-backed or DOUBLE argument, none DISTINCT (Supports).
/// The arithmetic is AggState's bit for bit: exact int64 sums, the same
/// Neumaier steps and merge, the same NULL-on-empty rules, CastTo for an
/// integer extreme of another integer type.
class AggColumn {
 public:
  static bool Supports(const AggSpec& spec);

  /// `spec` must be supported.
  explicit AggColumn(const AggSpec& spec);

  /// Adds an empty group.
  void AddGroup();
  /// Folds each row j of [0, n) into group gids[j]: row lo + j of `x`
  /// unless NULL (every row, for COUNT(*), whose `x` is null).
  void Fold(const uint32_t* gids, const ColumnVector* x, size_t lo,
            size_t n);
  /// Appends group `g` of `src` as a new group.
  void AppendGroup(const AggColumn& src, uint32_t g);
  /// Merges group `g` of `src` into group `into` (AggState::Merge).
  void MergeGroup(const AggColumn& src, uint32_t g, uint32_t into);
  /// Appends the results of groups order[0, n) — of groups [0, n) when
  /// `order` is null — to `out`, a column of the spec's out_type.
  void Finish(const uint32_t* order, size_t n, ColumnVector* out) const;
  /// Bytes each group takes.
  size_t BytesPerGroup() const;

 private:
  /// Which fields a group keeps and how they fold.
  enum class Form : uint8_t {
    kCount,      ///< count_
    kIntSum,     ///< count_, i_ (SUM/AVG of integers)
    kDoubleSum,  ///< count_, d_, err_ (SUM/AVG of doubles)
    kIntMin,     ///< count_, i_
    kIntMax,
    kDoubleMin,  ///< count_, d_
    kDoubleMax,
  };
  Form form_;
  bool avg_;
  TypeId out_type_;
  std::vector<int64_t> count_, i_;
  std::vector<double> d_, err_;
};

}  // namespace dashdb
