// Bounded input windows for the operators that consume a whole stream: the
// hash-join probe, hash aggregation and Top-N (paper II.B.6/II.B.7 —
// morsels of one stream scheduled across cores).
//
// A window pulls a run of batches from a child — 2 x dop at first, twice
// as many on each refill up to kMaxWindowPerDop x dop (see
// NextWindowUnits) — evaluates the consumer's expressions over each batch
// on the calling thread (Evaluate is not guaranteed re-entrant), and
// slices every batch into morsels of at most kMorselRows logical rows, so
// one huge batch still fans out. The consumer's kernel then runs over the
// morsels, on the pool when the window is large enough and inline
// otherwise; DOP 1 is a window of one batch. The held input (and any
// output parked with Hold) is charged to the statement's memory budget and
// released once consumed.
#pragma once

#include <functional>

#include "exec/operator.h"

namespace dashdb {

/// Largest window, in units (batches or pages) per degree of parallelism.
/// Windows start at 2 x dop units and double on each refill up to this, so
/// a long stream pays its per-window fan-out and barrier a logarithmic
/// number of times while a short one (or a LIMIT) still stops after the
/// first, small window.
inline constexpr size_t kMaxWindowPerDop = 16;

/// Units in the next window of an operator at degree `dop` (1 when it runs
/// inline), after a window of `units` units (0: none yet) that charged
/// `charged` bytes. The first window is 2 x dop units (one at DOP 1); each
/// later one doubles, up to kMaxWindowPerDop x dop, unless the statement
/// has a memory budget whose headroom cannot hold twice the last charge.
/// The one rule for InputWindow and the column scan.
size_t NextWindowUnits(const Operator& owner, size_t dop, size_t units,
                       int64_t charged);

class InputWindow {
 public:
  /// Largest morsel, in logical rows: one storage page.
  static constexpr size_t kMorselRows = 4096;
  /// Below this many rows (in a window, or a join build) the fan-out costs
  /// more than it wins.
  static constexpr size_t kParallelMinRows = 4096;

  /// One pulled batch and its evaluated expressions.
  struct Batch {
    RowBatch in;  ///< as the child emitted it; may carry a selection
    /// One column per expression, indexed by the batch's logical row. A
    /// column reference over a batch without a selection points into `in`;
    /// every other expression points into `owned`.
    std::vector<const ColumnVector*> cols;
    std::vector<ColumnVector> owned;
    uint64_t first_row = 0;  ///< stream position of logical row 0
  };
  /// Logical rows [begin, end) of the window's batch `batch`.
  struct Morsel {
    size_t batch = 0, begin = 0, end = 0;
  };

  /// `owner` is charged for what the window holds, under the name `what`.
  InputWindow(Operator* owner, Operator* child, std::vector<ExprPtr> exprs,
              const ExecContext* ctx, const char* what);

  /// Releases the previous window, then pulls, evaluates and charges the
  /// next one. Returns false once the child is exhausted.
  Result<bool> Fill();

  /// Runs task(t) for t in [0, tasks) over the window — on the pool when
  /// there are at least two tasks and the window holds two morsels and
  /// kParallelMinRows rows, inline otherwise. Tasks pick their morsels
  /// (one each, or a lane's share). The input is freed (and its charge
  /// released) afterwards.
  Status Run(size_t tasks, const std::function<void(size_t)>& task);

  /// Charges `bytes` of kernel output until the next Fill().
  Status Hold(int64_t bytes);

  /// Forgets the stream position and releases every charge (re-open).
  void Reset();

  const std::vector<Morsel>& morsels() const { return morsels_; }
  const Batch& batch(size_t morsel) const {
    return batches_[morsels_[morsel].batch];
  }

  /// " <name>=fanned-out/windows", for EXPLAIN ANALYZE.
  std::string FanoutExtra(const char* name) const;

 private:
  void Release();

  Operator* owner_;
  Operator* child_;
  std::vector<ExprPtr> exprs_;
  std::vector<int> ref_col_;  ///< input column of a column-ref expr, or -1
  const ExecContext* ctx_;
  const char* what_;
  std::vector<Batch> batches_;
  std::vector<Morsel> morsels_;
  size_t rows_ = 0;          ///< logical rows in the window
  size_t units_ = 0;         ///< batch capacity of the last window (0: none)
  int64_t last_bytes_ = 0;   ///< what the last window charged for input
  uint64_t next_row_ = 0;    ///< stream position of the next pulled row
  bool done_ = false;
  int64_t held_bytes_ = 0;   ///< charged output, released at the next Fill
  int64_t input_bytes_ = 0;  ///< charged input, released after Run
  uint64_t windows_ = 0, fanouts_ = 0;
};

}  // namespace dashdb
