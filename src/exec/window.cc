#include "exec/window.h"

#include <algorithm>

#include "common/threadpool.h"

namespace dashdb {

size_t NextWindowUnits(const Operator& owner, size_t dop, size_t units,
                       int64_t charged) {
  if (dop <= 1) return 1;
  if (units == 0) return 2 * dop;
  const size_t cap = kMaxWindowPerDop * dop;
  if (units >= cap) return cap;
  const QueryContext* q = owner.query_ctx();
  if (q != nullptr && q->mem_budget() > 0 &&
      2 * charged > q->mem_budget() - q->mem_used()) {
    return units;
  }
  return std::min(cap, 2 * units);
}

InputWindow::InputWindow(Operator* owner, Operator* child,
                         std::vector<ExprPtr> exprs, const ExecContext* ctx,
                         const char* what)
    : owner_(owner),
      child_(child),
      exprs_(std::move(exprs)),
      ctx_(ctx),
      what_(what) {
  for (const ExprPtr& e : exprs_) {
    auto* ref = dynamic_cast<const ColumnRefExpr*>(e.get());
    ref_col_.push_back(ref != nullptr ? ref->index() : -1);
  }
}

void InputWindow::Reset() {
  Release();
  next_row_ = windows_ = fanouts_ = 0;
  units_ = 0;
  last_bytes_ = 0;
  done_ = false;
}

void InputWindow::Release() {
  owner_->ReleaseMemory(held_bytes_ + input_bytes_);
  held_bytes_ = input_bytes_ = 0;
  batches_.clear();
  morsels_.clear();
  rows_ = 0;
}

Result<bool> InputWindow::Fill() {
  // The last window's whole charge: its input and the output it parked.
  const int64_t last = last_bytes_ + held_bytes_;
  Release();
  // Sized after the release, so the headroom the growth rule sees is what
  // the next window may take.
  units_ = NextWindowUnits(
      *owner_, ctx_->parallel() ? static_cast<size_t>(ctx_->dop) : 1, units_,
      last);
  int64_t bytes = 0;
  while (!done_ && batches_.size() < units_) {
    Batch b;
    DASHDB_ASSIGN_OR_RETURN(bool more, child_->NextSel(&b.in));
    if (!more) {
      done_ = true;
      break;
    }
    const size_t n = b.in.logical_rows();
    if (n == 0) continue;
    // `owned` never reallocates once pointed into.
    b.owned.reserve(exprs_.size());
    for (size_t e = 0; e < exprs_.size(); ++e) {
      if (ref_col_[e] >= 0 && !b.in.has_selection() &&
          static_cast<size_t>(ref_col_[e]) < b.in.columns.size()) {
        b.cols.push_back(&b.in.columns[ref_col_[e]]);
        continue;
      }
      DASHDB_ASSIGN_OR_RETURN(ColumnVector cv,
                              exprs_[e]->Evaluate(b.in, *ctx_));
      bytes += ColumnMemoryBytes(cv);
      b.owned.push_back(std::move(cv));
      b.cols.push_back(&b.owned.back());
    }
    bytes += BatchMemoryBytes(b.in);
    b.first_row = next_row_;
    next_row_ += n;
    rows_ += n;
    for (size_t lo = 0; lo < n; lo += kMorselRows) {
      morsels_.push_back({batches_.size(), lo, std::min(n, lo + kMorselRows)});
    }
    batches_.push_back(std::move(b));
  }
  if (batches_.empty()) return false;
  // Charged once the window is complete: the whole window is what is held.
  DASHDB_RETURN_IF_ERROR(owner_->ChargeMemory(bytes, what_));
  input_bytes_ = last_bytes_ = bytes;
  return true;
}

Status InputWindow::Run(size_t tasks,
                        const std::function<void(size_t)>& task) {
  ++windows_;
  Status st;
  if (ctx_->parallel() && tasks >= 2 && morsels_.size() >= 2 &&
      rows_ >= kParallelMinRows) {
    ++fanouts_;
    owner_->RunOnPool(ctx_->pool, tasks, task,
                      static_cast<int>(std::min<size_t>(ctx_->dop, tasks)));
    // A governed ParallelFor abandons its tail on cancel/timeout without an
    // error: re-probe, or a cancelled operator would go on with a window
    // that was only partly consumed.
    st = owner_->CheckQueryAlive();
  } else {
    for (size_t t = 0; t < tasks; ++t) task(t);
  }
  batches_.clear();
  owner_->ReleaseMemory(input_bytes_);
  input_bytes_ = 0;
  return st;
}

Status InputWindow::Hold(int64_t bytes) {
  DASHDB_RETURN_IF_ERROR(owner_->ChargeMemory(bytes, what_));
  held_bytes_ += std::max<int64_t>(bytes, 0);
  return Status::OK();
}

std::string InputWindow::FanoutExtra(const char* name) const {
  if (!ctx_->parallel() || windows_ == 0) return std::string();
  return std::string(" ") + name + "=" + std::to_string(fanouts_) + "/" +
         std::to_string(windows_);
}

}  // namespace dashdb
