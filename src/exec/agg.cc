#include "exec/agg.h"

#include <algorithm>
#include <bit>
#include <cmath>
#include <type_traits>

namespace dashdb {

namespace {

/// Neumaier's compensated step: sum + err stays the correctly rounded
/// total in practice, whatever order the inputs (or partial states) arrive
/// in, so the result does not depend on the degree.
void CompensatedAdd(double* sum, double* err, double y) {
  const double t = *sum + y;
  *err += std::fabs(*sum) >= std::fabs(y) ? (*sum - t) + y : (y - t) + *sum;
  *sum = t;
}

/// The order DoubleMin/DoubleMax pick by. NaNs whose keys tie (same
/// payload, other sign) order by their bits.
bool DoubleBelow(double a, double b) {
  constexpr uint64_t kSign = uint64_t{1} << 63;
  auto key = [](double d, uint64_t u) {
    if (std::isnan(d)) return u | kSign;
    return (u & kSign) != 0 ? ~u : u | kSign;
  };
  const uint64_t ua = std::bit_cast<uint64_t>(a);
  const uint64_t ub = std::bit_cast<uint64_t>(b);
  const uint64_t ka = key(a, ua), kb = key(b, ub);
  return ka < kb || (ka == kb && ua < ub);
}
}  // namespace

double DoubleMin(double a, double b) { return DoubleBelow(b, a) ? b : a; }
double DoubleMax(double a, double b) { return DoubleBelow(a, b) ? b : a; }

bool AggKindFromName(const std::string& u, AggKind* out) {
  if (u == "COUNT") *out = AggKind::kCount;
  else if (u == "SUM") *out = AggKind::kSum;
  else if (u == "AVG" || u == "MEAN") *out = AggKind::kAvg;
  else if (u == "MIN") *out = AggKind::kMin;
  else if (u == "MAX") *out = AggKind::kMax;
  else if (u == "VAR_POP" || u == "VARIANCE_POP") *out = AggKind::kVarPop;
  else if (u == "VAR_SAMP" || u == "VARIANCE" || u == "VARIANCE_SAMP")
    *out = AggKind::kVarSamp;  // DB2 VARIANCE is sample variance
  else if (u == "STDDEV_POP") *out = AggKind::kStddevPop;
  else if (u == "STDDEV" || u == "STDDEV_SAMP") *out = AggKind::kStddevSamp;
  else if (u == "COVAR_POP" || u == "COVARIANCE") *out = AggKind::kCovarPop;
  else if (u == "COVAR_SAMP" || u == "COVARIANCE_SAMP")
    *out = AggKind::kCovarSamp;
  else if (u == "MEDIAN") *out = AggKind::kMedian;
  else if (u == "PERCENTILE_CONT") *out = AggKind::kPercentileCont;
  else if (u == "PERCENTILE_DISC") *out = AggKind::kPercentileDisc;
  else return false;
  return true;
}

TypeId AggResultType(AggKind kind, TypeId input) {
  switch (kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return TypeId::kInt64;
    case AggKind::kSum:
      return input == TypeId::kDouble ? TypeId::kDouble : TypeId::kInt64;
    case AggKind::kMin:
    case AggKind::kMax:
      return input;
    default:
      return TypeId::kDouble;
  }
}

void AggState::Add(const Value& v, const Value& v2) {
  if (spec_->kind == AggKind::kCountStar) {
    ++count_;
    return;
  }
  if (v.is_null()) return;
  if (spec_->distinct) {
    std::string key = TypeName(v.type()) + std::string(":") + v.ToString();
    if (!extra().seen.insert(key).second) return;
  }
  switch (spec_->kind) {
    case AggKind::kCount:
      ++count_;
      return;
    case AggKind::kMin:
    case AggKind::kMax:
      if (v.type() != TypeId::kVarchar) break;
      // Strings keep their boxed extremes.
      if (spec_->kind == AggKind::kMin) {
        if (!extra().min || v.Compare(*extra_->min) < 0) extra_->min = v;
      } else if (!extra().max || v.Compare(*extra_->max) > 0) {
        extra_->max = v;
      }
      return;
    case AggKind::kCovarPop:
    case AggKind::kCovarSamp: {
      if (v2.is_null()) return;
      ++count_;
      double x = v.AsDouble(), y = v2.AsDouble();
      Extra& e = extra();
      double dx = x - e.mean_x;
      e.mean_x += dx / count_;
      e.mean_y += (y - e.mean_y) / count_;
      e.cxy += dx * (y - e.mean_y);
      return;
    }
    default:
      break;
  }
  // Every other input takes the typed path.
  const bool is_int = v.type() != TypeId::kDouble;
  AddNumericFast(v.AsDouble(), is_int ? v.AsInt() : 0, is_int);
}

void AggState::AddSum(double x, int64_t ix, bool is_int) {
  if (is_int && int_domain_) {
    isum_ += ix;
    return;
  }
  if (int_domain_) {
    int_domain_ = false;
    sum_ = static_cast<double>(isum_);
  }
  CompensatedAdd(&sum_, &sum_err_, is_int ? static_cast<double>(ix) : x);
}

void AggState::AddExtremes(double x, int64_t ix, bool int_domain) {
  if (!fast_minmax_) {
    fast_minmax_ = true;
    fast_int_domain_ = int_domain;
    dmin_ = dmax_ = x;
    imin_ = imax_ = ix;
    return;
  }
  if (!int_domain) fast_int_domain_ = false;
  dmin_ = DoubleMin(dmin_, x);
  dmax_ = DoubleMax(dmax_, x);
  imin_ = std::min(imin_, ix);
  imax_ = std::max(imax_, ix);
}

void AggState::AddNumericFast(double x, int64_t ix, bool int_domain) {
  switch (spec_->kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      ++count_;
      break;
    case AggKind::kSum:
    case AggKind::kAvg:
      ++count_;
      AddSum(x, ix, int_domain);
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      AddExtremes(x, ix, int_domain);
      break;
    case AggKind::kVarPop:
    case AggKind::kVarSamp:
    case AggKind::kStddevPop:
    case AggKind::kStddevSamp: {
      ++count_;
      double d = x - mean_;
      mean_ += d / count_;
      m2_ += d * (x - mean_);
      break;
    }
    case AggKind::kMedian:
    case AggKind::kPercentileCont:
    case AggKind::kPercentileDisc:
      ++count_;
      extra().values.push_back(x);
      break;
    case AggKind::kCovarPop:
    case AggKind::kCovarSamp:
      // Two-argument aggregates stay on the boxed path.
      break;
  }
}

void AggState::Fold(AggState* st, size_t stride, const uint32_t* gids,
                    const ColumnVector& x, size_t lo, size_t n) {
  if (x.type() == TypeId::kDouble) {
    FoldTyped(st, stride, gids, x.doubles().data() + lo, x, lo, n);
  } else {
    FoldTyped(st, stride, gids, x.ints().data() + lo, x, lo, n);
  }
}

template <typename T>
void AggState::FoldTyped(AggState* st, size_t stride, const uint32_t* gids,
                         const T* v, const ColumnVector& x, size_t lo,
                         size_t n) {
  // The arguments AddNumericFast gets: a double input feeds the integer
  // side a zero.
  constexpr bool kInt = std::is_same_v<T, int64_t>;
  const bool nulls = x.has_nulls();
  for (size_t j = 0; j < n; ++j) {
    if (nulls && x.IsNull(lo + j)) continue;
    st[gids[j] * stride].AddNumericFast(static_cast<double>(v[j]),
                                        kInt ? static_cast<int64_t>(v[j]) : 0,
                                        kInt);
  }
}

void AggState::Merge(const AggState& o) {
  // Chan et al. parallel updates need the pre-merge counts.
  const double n1 = static_cast<double>(count_);
  const double n2 = static_cast<double>(o.count_);
  switch (spec_->kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      break;  // count_ merged below
    case AggKind::kSum:
    case AggKind::kAvg:
      if (o.int_domain_) {
        AddSum(0.0, o.isum_, true);
      } else {
        AddSum(o.sum_, 0, false);
        sum_err_ += o.sum_err_;
      }
      break;
    case AggKind::kMin:
    case AggKind::kMax:
      if (o.fast_minmax_) {
        if (!fast_minmax_) {
          fast_minmax_ = true;
          fast_int_domain_ = o.fast_int_domain_;
          dmin_ = o.dmin_;
          dmax_ = o.dmax_;
          imin_ = o.imin_;
          imax_ = o.imax_;
        } else {
          fast_int_domain_ = fast_int_domain_ && o.fast_int_domain_;
          dmin_ = DoubleMin(dmin_, o.dmin_);
          dmax_ = DoubleMax(dmax_, o.dmax_);
          imin_ = std::min(imin_, o.imin_);
          imax_ = std::max(imax_, o.imax_);
        }
      }
      if (o.extra_ && o.extra_->min &&
          (!extra().min || o.extra_->min->Compare(*extra_->min) < 0)) {
        extra_->min = o.extra_->min;
      }
      if (o.extra_ && o.extra_->max &&
          (!extra().max || o.extra_->max->Compare(*extra_->max) > 0)) {
        extra_->max = o.extra_->max;
      }
      break;
    case AggKind::kVarPop:
    case AggKind::kVarSamp:
    case AggKind::kStddevPop:
    case AggKind::kStddevSamp:
      if (o.count_ > 0) {
        if (count_ == 0) {
          mean_ = o.mean_;
          m2_ = o.m2_;
        } else {
          double d = o.mean_ - mean_;
          double tot = n1 + n2;
          mean_ += d * n2 / tot;
          m2_ += o.m2_ + d * d * n1 * n2 / tot;
        }
      }
      break;
    case AggKind::kCovarPop:
    case AggKind::kCovarSamp:
      if (o.count_ > 0) {
        const Extra& oe = *o.extra_;
        Extra& e = extra();
        if (count_ == 0) {
          e.mean_x = oe.mean_x;
          e.mean_y = oe.mean_y;
          e.cxy = oe.cxy;
        } else {
          double dx = oe.mean_x - e.mean_x;
          double dy = oe.mean_y - e.mean_y;
          double tot = n1 + n2;
          e.mean_x += dx * n2 / tot;
          e.mean_y += dy * n2 / tot;
          e.cxy += oe.cxy + dx * dy * n1 * n2 / tot;
        }
      }
      break;
    case AggKind::kMedian:
    case AggKind::kPercentileCont:
    case AggKind::kPercentileDisc:
      if (o.extra_) {
        std::vector<double>& v = extra().values;
        v.insert(v.end(), o.extra_->values.begin(), o.extra_->values.end());
      }
      break;
  }
  count_ += o.count_;
}

Value AggState::Finish() const {
  switch (spec_->kind) {
    case AggKind::kCountStar:
    case AggKind::kCount:
      return Value::Int64(count_);
    case AggKind::kSum:
      if (count_ == 0) return Value::Null(spec_->out_type);
      return int_domain_ && spec_->out_type != TypeId::kDouble
                 ? Value::Int64(isum_)
                 : Value::Double(Sum());
    case AggKind::kAvg:
      if (count_ == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(Sum() / count_);
    case AggKind::kMin:
    case AggKind::kMax: {
      if (fast_minmax_) {
        bool want_min = spec_->kind == AggKind::kMin;
        if (fast_int_domain_ && spec_->out_type != TypeId::kDouble) {
          auto cast = Value::Int64(want_min ? imin_ : imax_)
                          .CastTo(spec_->out_type);
          return cast.ok() ? *cast : Value::Int64(want_min ? imin_ : imax_);
        }
        return Value::Double(want_min ? dmin_ : dmax_);
      }
      const std::optional<Value>* v = nullptr;
      if (extra_) {
        v = spec_->kind == AggKind::kMin ? &extra_->min : &extra_->max;
      }
      return v && *v ? **v : Value::Null(spec_->out_type);
    }
    case AggKind::kVarPop:
      if (count_ == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(m2_ / count_);
    case AggKind::kVarSamp:
      if (count_ < 2) return Value::Null(TypeId::kDouble);
      return Value::Double(m2_ / (count_ - 1));
    case AggKind::kStddevPop:
      if (count_ == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(std::sqrt(m2_ / count_));
    case AggKind::kStddevSamp:
      if (count_ < 2) return Value::Null(TypeId::kDouble);
      return Value::Double(std::sqrt(m2_ / (count_ - 1)));
    case AggKind::kCovarPop:
      if (count_ == 0) return Value::Null(TypeId::kDouble);
      return Value::Double(extra_->cxy / count_);
    case AggKind::kCovarSamp:
      if (count_ < 2) return Value::Null(TypeId::kDouble);
      return Value::Double(extra_->cxy / (count_ - 1));
    case AggKind::kMedian:
    case AggKind::kPercentileCont:
    case AggKind::kPercentileDisc: {
      if (!extra_ || extra_->values.empty()) {
        return Value::Null(TypeId::kDouble);
      }
      std::vector<double>& values = extra_->values;
      std::sort(values.begin(), values.end());
      double f = spec_->kind == AggKind::kMedian ? 0.5 : spec_->param;
      double idx = f * (values.size() - 1);
      if (spec_->kind == AggKind::kPercentileDisc) {
        // Smallest value whose cumulative distribution >= f.
        size_t k = static_cast<size_t>(std::ceil(f * values.size()));
        if (k > 0) --k;
        return Value::Double(values[k]);
      }
      size_t lo = static_cast<size_t>(std::floor(idx));
      size_t hi = static_cast<size_t>(std::ceil(idx));
      double frac = idx - lo;
      return Value::Double(values[lo] * (1 - frac) + values[hi] * frac);
    }
  }
  return Value::Null(TypeId::kDouble);
}

// ------------------------------------------------------------ AggColumn --

bool AggColumn::Supports(const AggSpec& spec) {
  if (spec.distinct || spec.arg2) return false;
  switch (spec.kind) {
    case AggKind::kCountStar:
      return true;
    case AggKind::kCount:
    case AggKind::kSum:
    case AggKind::kAvg:
    case AggKind::kMin:
    case AggKind::kMax:
      return spec.arg && (spec.arg->out_type() == TypeId::kDouble ||
                          IsIntegerBacked(spec.arg->out_type()));
    default:
      return false;
  }
}

AggColumn::AggColumn(const AggSpec& spec)
    : avg_(spec.kind == AggKind::kAvg), out_type_(spec.out_type) {
  const bool dbl = spec.arg && spec.arg->out_type() == TypeId::kDouble;
  switch (spec.kind) {
    case AggKind::kSum:
    case AggKind::kAvg:
      form_ = dbl ? Form::kDoubleSum : Form::kIntSum;
      break;
    case AggKind::kMin:
      form_ = dbl ? Form::kDoubleMin : Form::kIntMin;
      break;
    case AggKind::kMax:
      form_ = dbl ? Form::kDoubleMax : Form::kIntMax;
      break;
    default:
      form_ = Form::kCount;
      break;
  }
}

void AggColumn::AddGroup() {
  count_.push_back(0);
  switch (form_) {
    case Form::kCount:
      break;
    case Form::kIntSum:
    case Form::kIntMin:
    case Form::kIntMax:
      i_.push_back(0);
      break;
    case Form::kDoubleSum:
      err_.push_back(0);
      [[fallthrough]];
    case Form::kDoubleMin:
    case Form::kDoubleMax:
      d_.push_back(0);
      break;
  }
}

size_t AggColumn::BytesPerGroup() const {
  switch (form_) {
    case Form::kCount:
      return sizeof(int64_t);
    case Form::kDoubleSum:
      return sizeof(int64_t) + 2 * sizeof(double);
    default:
      return 2 * sizeof(int64_t);
  }
}

namespace {

/// Calls update(gids[j], x[lo + j]) for each non-NULL row j of [0, n) of
/// the T-payload column x; the NULL test runs only when x has NULLs.
template <typename T, typename Update>
void Each(const uint32_t* gids, const ColumnVector& x, size_t lo, size_t n,
          Update update) {
  const T* v;
  if constexpr (std::is_same_v<T, double>) {
    v = x.doubles().data() + lo;
  } else {
    v = x.ints().data() + lo;
  }
  if (!x.has_nulls()) {
    for (size_t j = 0; j < n; ++j) update(gids[j], v[j]);
    return;
  }
  for (size_t j = 0; j < n; ++j) {
    if (!x.IsNull(lo + j)) update(gids[j], v[j]);
  }
}

}  // namespace

void AggColumn::Fold(const uint32_t* gids, const ColumnVector* x, size_t lo,
                     size_t n) {
  int64_t* c = count_.data();
  if (x == nullptr) {
    for (size_t j = 0; j < n; ++j) ++c[gids[j]];
    return;
  }
  int64_t* iv = i_.data();
  double* dv = d_.data();
  double* ev = err_.data();
  switch (form_) {
    case Form::kCount:
      if (x->type() == TypeId::kDouble) {
        Each<double>(gids, *x, lo, n, [c](uint32_t g, double) { ++c[g]; });
      } else {
        Each<int64_t>(gids, *x, lo, n, [c](uint32_t g, int64_t) { ++c[g]; });
      }
      return;
    case Form::kIntSum:
      Each<int64_t>(gids, *x, lo, n, [c, iv](uint32_t g, int64_t v) {
        ++c[g];
        iv[g] += v;
      });
      return;
    case Form::kDoubleSum:
      Each<double>(gids, *x, lo, n, [c, dv, ev](uint32_t g, double v) {
        ++c[g];
        CompensatedAdd(&dv[g], &ev[g], v);
      });
      return;
    case Form::kIntMin:
      Each<int64_t>(gids, *x, lo, n, [c, iv](uint32_t g, int64_t v) {
        iv[g] = c[g]++ == 0 ? v : std::min(iv[g], v);
      });
      return;
    case Form::kIntMax:
      Each<int64_t>(gids, *x, lo, n, [c, iv](uint32_t g, int64_t v) {
        iv[g] = c[g]++ == 0 ? v : std::max(iv[g], v);
      });
      return;
    case Form::kDoubleMin:
      Each<double>(gids, *x, lo, n, [c, dv](uint32_t g, double v) {
        dv[g] = c[g]++ == 0 ? v : DoubleMin(dv[g], v);
      });
      return;
    case Form::kDoubleMax:
      Each<double>(gids, *x, lo, n, [c, dv](uint32_t g, double v) {
        dv[g] = c[g]++ == 0 ? v : DoubleMax(dv[g], v);
      });
      return;
  }
}

void AggColumn::AppendGroup(const AggColumn& src, uint32_t g) {
  count_.push_back(src.count_[g]);
  if (!src.i_.empty()) i_.push_back(src.i_[g]);
  if (!src.d_.empty()) d_.push_back(src.d_[g]);
  if (!src.err_.empty()) err_.push_back(src.err_[g]);
}

void AggColumn::MergeGroup(const AggColumn& src, uint32_t g, uint32_t into) {
  const int64_t n = src.count_[g];
  switch (form_) {
    case Form::kCount:
      break;
    case Form::kIntSum:
      i_[into] += src.i_[g];
      break;
    case Form::kDoubleSum:
      // AggState also adds an empty side's 0.0 into a non-empty sum; that
      // step never changes a bit, because a sum and its error that start
      // at +0.0 never become -0.0.
      if (n > 0) {
        CompensatedAdd(&d_[into], &err_[into], src.d_[g]);
        err_[into] += src.err_[g];
      }
      break;
    case Form::kIntMin:
    case Form::kIntMax:
      if (n > 0) {
        i_[into] = count_[into] == 0          ? src.i_[g]
                   : form_ == Form::kIntMin ? std::min(i_[into], src.i_[g])
                                            : std::max(i_[into], src.i_[g]);
      }
      break;
    case Form::kDoubleMin:
    case Form::kDoubleMax:
      if (n > 0) {
        d_[into] = count_[into] == 0 ? src.d_[g]
                   : form_ == Form::kDoubleMin
                       ? DoubleMin(d_[into], src.d_[g])
                       : DoubleMax(d_[into], src.d_[g]);
      }
      break;
  }
  count_[into] += n;
}

void AggColumn::Finish(const uint32_t* order, size_t n,
                       ColumnVector* out) const {
  out->Reserve(out->size() + n);
  // AggState::Finish's Value goes through AppendValue, which converts by
  // the column's type; a column of the natural type takes the value as is.
  const bool int_out =
      out->type() != TypeId::kDouble && out->type() != TypeId::kVarchar;
  auto emit_int = [&](int64_t v) {
    if (int_out) {
      out->AppendInt(v);
    } else {
      out->AppendValue(Value::Int64(v));
    }
  };
  auto emit_double = [&](double v) {
    if (out->type() == TypeId::kDouble) {
      out->AppendDouble(v);
    } else {
      out->AppendValue(Value::Double(v));
    }
  };
  for (size_t k = 0; k < n; ++k) {
    const uint32_t g = order != nullptr ? order[k] : static_cast<uint32_t>(k);
    const int64_t c = count_[g];
    if (form_ == Form::kCount) {
      emit_int(c);
      continue;
    }
    if (c == 0) {
      out->AppendNull();
      continue;
    }
    switch (form_) {
      case Form::kCount:
        break;
      case Form::kIntSum:
        if (avg_) {
          emit_double(static_cast<double>(i_[g]) / c);
        } else if (out_type_ != TypeId::kDouble) {
          emit_int(i_[g]);
        } else {
          emit_double(static_cast<double>(i_[g]));
        }
        break;
      case Form::kDoubleSum:
        emit_double(avg_ ? (d_[g] + err_[g]) / c : d_[g] + err_[g]);
        break;
      case Form::kIntMin:
      case Form::kIntMax:
        if (out_type_ == TypeId::kDouble) {
          emit_double(static_cast<double>(i_[g]));
        } else if (out_type_ == TypeId::kInt64) {
          emit_int(i_[g]);
        } else {
          auto cast = Value::Int64(i_[g]).CastTo(out_type_);
          out->AppendValue(cast.ok() ? *cast : Value::Int64(i_[g]));
        }
        break;
      case Form::kDoubleMin:
      case Form::kDoubleMax:
        emit_double(d_[g]);
        break;
    }
  }
}

}  // namespace dashdb
