// Parallel sort & Top-N (paper II.B.6/II.B.7 applied to ORDER BY): the
// last serial operator made columnar and parallel.
//
// SortOp encodes all keys per row into one memcmp-able normalized string
// (common/sort_key.h), sorts contiguous runs across the pool with
// ThreadPool::ParallelFor, then merges the runs — splitter-partitioned so
// merge segments also run in parallel, each segment driven by a
// tournament tree — and gathers the output column-wise by order vector.
// Ties always break on the global row index, so the result equals a
// stable sort of the input at any DOP; DOP 1 is the one-run case. The
// reference stable_sort this is checked against lives in
// tests/sort_oracle.h, not here.
//
// TopNOp is the ORDER BY + LIMIT/OFFSET fusion for a small requested
// prefix: bounded (limit+offset)-entry max-heaps — one per lane of an
// InputWindow — admit a row only when it beats the current boundary, with
// a global sequence number as tie-break so the kept prefix matches the
// stable full sort exactly. Once a heap is full, a row whose leading
// integer or DOUBLE key is strictly worse than the boundary's is dropped
// before its normalized key is built.
//
// PlanOrderBy picks between the two. The binder and the MPP coordinator
// both call it, so ORDER BY has one implementation everywhere.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "common/sort_key.h"
#include "exec/operator.h"
#include "exec/window.h"

namespace dashdb {

/// One sort key.
struct SortKey {
  ExprPtr expr;
  bool desc = false;
};

/// Full sort (materializing).
class SortOp : public Operator {
 public:
  SortOp(OperatorPtr child, std::vector<SortKey> keys, const ExecContext* ctx);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override {
    return "Sort(keys=" + std::to_string(keys_.size()) + ")";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 protected:
  std::string AnalyzeExtra() const override;

 private:
  Status Materialize();
  /// Normalized-key run sort + (parallel) tournament-tree merge.
  Status ParallelOrder(const RowBatch& all,
                       const std::vector<ColumnVector>& key_cols,
                       std::vector<uint32_t>* order);

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  const ExecContext* ctx_;
  RowBatch result_;
  bool done_ = false;
  bool materialized_ = false;
  // EXPLAIN ANALYZE detail, filled by Materialize.
  size_t runs_used_ = 0;
  size_t merge_fanin_ = 0;
};

/// Bounded-heap ORDER BY + LIMIT/OFFSET fusion. Streams the child through
/// an InputWindow, keeping only the best (limit+offset) rows: morsel m of
/// every window feeds heap m % dop, and the heaps merge at
/// materialization. Emits rows [offset, offset+limit) of the total order —
/// byte-identical to Sort + Limit.
class TopNOp : public Operator {
 public:
  TopNOp(OperatorPtr child, std::vector<SortKey> keys, int64_t limit,
         int64_t offset, const ExecContext* ctx);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override {
    return "TopN(keys=" + std::to_string(keys_.size()) +
           " k=" + std::to_string(limit_) +
           " offset=" + std::to_string(offset_) + ")";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 protected:
  std::string AnalyzeExtra() const override;

 private:
  /// One bounded heap plus the pool of rows its entries point into.
  struct Heap {
    struct Entry {
      std::string key;    ///< normalized key bytes
      uint64_t seq = 0;   ///< global input row number (stability tie-break)
      uint32_t pool_row = 0;
      /// The leading key's value, when it is a non-NULL integer-backed
      /// (lead_int) or DOUBLE (lead_double) cell.
      bool has_lead = false;
      int64_t lead_int = 0;
      double lead_double = 0;
    };
    std::vector<Entry> entries;  ///< max-heap on (key, seq)
    RowBatch pool;               ///< admitted rows (output schema)
    size_t pool_rows = 0;
    // Per-chunk scratch: the rows that pass the threshold and their keys.
    std::vector<uint32_t> rows;
    NormalizedKeyColumn keys;
  };

  Status Materialize();
  /// Feeds logical rows [lo, hi) of `b` into `h`, a chunk at a time: once
  /// the heap is full, rows the threshold drops never get a key.
  void Feed(Heap* h, const InputWindow::Batch& b, size_t lo, size_t hi);
  /// Feeds the logical rows h->rows of `b`, whose keys are h->keys.
  void Consume(Heap* h, const InputWindow::Batch& b);
  void CompactPool(Heap* h);

  OperatorPtr child_;
  std::vector<SortKey> keys_;
  int64_t limit_, offset_;
  size_t capacity_;  ///< limit + offset: rows every heap retains
  const ExecContext* ctx_;
  std::vector<bool> desc_;  ///< per key
  std::unique_ptr<InputWindow> window_;  ///< key expressions per batch
  std::vector<Heap> heaps_;
  RowBatch result_;
  bool done_ = false;
  bool materialized_ = false;
  size_t heaps_used_ = 0;
};

/// Upper bound on limit+offset for Top-N fusion; above it the full sort's
/// O(n log n) beats maintaining giant heaps.
inline constexpr int64_t kTopNMaxCapacity = 65536;

/// ORDER BY `keys` + LIMIT `limit` (< 0: none) OFFSET `offset` over
/// `child`: a TopNOp when a limit is given and limit+offset <=
/// kTopNMaxCapacity, else a SortOp under a LimitOp (the LimitOp only when
/// a limit or offset is given). With no keys it is the LimitOp alone, or
/// `child` itself when there is nothing to cap.
OperatorPtr PlanOrderBy(OperatorPtr child, std::vector<SortKey> keys,
                        int64_t limit, int64_t offset, const ExecContext* ctx);

}  // namespace dashdb
