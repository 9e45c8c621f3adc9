// Pull-based vectorized operators (paper II.B.7): scans over both table
// organizations, filter/project, hash join (direct-address or
// cache-partitioned index), partitioned hash aggregation, sort, limit,
// values, union.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/column_vector.h"
#include "common/flat_hash.h"
#include "common/query_context.h"
#include "common/status.h"
#include "common/trace.h"
#include "exec/agg.h"
#include "exec/expr.h"
#include "storage/column_table.h"
#include "storage/row_table.h"

namespace dashdb {

/// One column of an operator's output.
struct OutputCol {
  std::string name;
  TypeId type;
};

/// Per-operator runtime metrics, accumulated by the Open()/Next() wrappers.
/// Wall/CPU time is cumulative over the operator's subtree (a parent's
/// Next() nests its children's), so "self" time is wall minus the sum of
/// the children's wall; EXPLAIN ANALYZE renders both. CPU time is the
/// calling thread's (CLOCK_THREAD_CPUTIME_ID) plus the thread CPU of every
/// pool helper that ran the operator's tasks (scan morsels, join build
/// partitions, input-window tasks, merges) through RunOnPool; each helper
/// reads its clock once per task, not per morsel.
struct OperatorMetrics {
  uint64_t open_calls = 0;
  uint64_t next_calls = 0;
  uint64_t batches_out = 0;
  uint64_t rows_out = 0;
  double wall_seconds = 0;
  double cpu_seconds = 0;
};

/// Base pull operator: Open() once, then Next() until it returns false.
///
/// Open()/Next() are non-virtual instrumented wrappers: subclasses
/// implement OpenImpl()/NextImpl(), and the wrappers time each call,
/// count batches/rows, and feed the global metrics registry. Internal
/// operator code pulls children through the public wrappers, so every
/// node in a plan is measured without any per-operator effort.
class Operator {
 public:
  virtual ~Operator();
  Status Open();
  /// Replaces *out with the next batch; returns false at end of stream.
  /// Batches are always dense: any selection vector a child produced is
  /// compacted here, so callers that have not opted in never see one.
  Result<bool> Next(RowBatch* out);
  /// Like Next(), but the batch may carry a selection vector (FilterOp
  /// emits one instead of compacting). Selection-aware consumers pull
  /// through this and defer compaction to their own blow-up points.
  Result<bool> NextSel(RowBatch* out);
  const std::vector<OutputCol>& output() const { return output_; }

  /// EXPLAIN support.
  virtual std::string label() const { return "Operator"; }
  virtual std::vector<const Operator*> children() const { return {}; }
  std::string PlanString(int indent = 0) const;

  /// Stable operator-kind name used for trace spans: the label up to its
  /// parameter list, so span trees compare equal across DOP settings when
  /// the logical plan is unchanged.
  virtual std::string kind() const;

  /// EXPLAIN ANALYZE rendering: the plan tree annotated with per-operator
  /// rows, batches, cumulative and self wall time. Meaningful after the
  /// plan has been drained.
  std::string AnalyzeString(int indent = 0) const;

  const OperatorMetrics& metrics() const { return metrics_; }

  /// Appends one span per plan node (pre-order, children in children()
  /// order — deterministic) under `parent`; returns this node's span id.
  uint32_t AddTraceSpans(Trace* trace, uint32_t parent) const;

  /// Optimizer row estimate, rendered as `est=` in EXPLAIN ANALYZE and fed
  /// to the `exec.card_est_error` histogram after the plan drains. Unset
  /// means the planner had no estimate for this node.
  void set_est_rows(double est) {
    est_rows_ = est;
    has_est_ = true;
  }
  bool has_est_rows() const { return has_est_; }
  double est_rows() const { return est_rows_; }

  /// Governor plumbing: the wrappers probe `qctx` before OpenImpl/NextImpl,
  /// so any plan node stops within one batch of a cancel/timeout. Set by
  /// AttachQueryContext on the whole tree after binding; the context must
  /// outlive the plan (reservations are released on destruction).
  void set_query_ctx(QueryContext* qctx) { qctx_ = qctx; }
  QueryContext* query_ctx() const { return qctx_; }

  /// Peak bytes this operator reserved against the query budget, rendered
  /// as `mem=` in EXPLAIN ANALYZE.
  int64_t mem_peak_bytes() const { return mem_peak_bytes_; }

  /// Sideways information passing: a hash-join build (or the adaptive join
  /// assembler, or the MPP coordinator) offers a filter over its build keys
  /// to a probe-side scan (see ScanRuntimeFilter and MakeRuntimeFilter).
  /// `filter.col` is an output-column index of this operator. Returns true
  /// when the operator will apply the filter; the base class declines.
  virtual bool AcceptRuntimeFilter(ScanRuntimeFilter filter) {
    (void)filter;
    return false;
  }

 protected:
  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(RowBatch* out) = 0;
  /// Extra per-operator detail appended inside the AnalyzeString bracket
  /// (e.g. FilterOp's selectivity).
  virtual std::string AnalyzeExtra() const { return std::string(); }

  /// Reserves `bytes` for this operator's materialized state against the
  /// attached query budget (no-op without one). kResourceExhausted aborts
  /// the query; the reservation is returned when the operator is destroyed.
  /// Call only from the operator's own execution thread — accounting here
  /// is per-operator and unsynchronized (the QueryContext totals are
  /// atomic).
  Status ChargeMemory(int64_t bytes, const char* what);
  /// Returns part of the reservation early (transient state such as a
  /// join's probe window); same threading rule as ChargeMemory.
  void ReleaseMemory(int64_t bytes);

  /// Runs pool->ParallelFor(n, fn, dop) under this operator's query
  /// context, and counts the helpers' thread CPU into cpu_seconds (of this
  /// operator and, through the wrappers, of its ancestors). Call from the
  /// operator's own execution thread.
  void RunOnPool(ThreadPool* pool, size_t n,
                 const std::function<void(size_t)>& fn, int dop);

  /// The governor probe available to operator internals that loop without
  /// pulling a child (morsel workers, build loops).
  Status CheckQueryAlive() {
    return qctx_ != nullptr ? qctx_->CheckAlive() : Status::OK();
  }

  std::vector<OutputCol> output_;

 private:
  /// Windows charge, release and probe on behalf of their operator.
  friend class InputWindow;

  Result<bool> NextInternal(RowBatch* out, bool allow_selection);

  OperatorMetrics metrics_;
  double est_rows_ = 0;
  bool has_est_ = false;
  QueryContext* qctx_ = nullptr;
  int64_t mem_reserved_ = 0;    ///< outstanding bytes, released on destroy
  int64_t mem_peak_bytes_ = 0;  ///< high-water mark of mem_reserved_
};

using OperatorPtr = std::unique_ptr<Operator>;

class InputWindow;  // exec/window.h

/// Storage objects that can produce their own scan operator. The binder
/// uses this for catalog entries that are neither column nor row tables —
/// e.g. Fluid Query nicknames over remote stores (paper II.C.6). The
/// contract: the returned operator applies EVERY given predicate (whether
/// by remote pushdown or local post-filtering is the source's business).
class ScannableStorage : public StorageObject {
 public:
  virtual Result<OperatorPtr> CreateScan(
      const std::vector<ColumnPredicate>& preds,
      const std::vector<int>& projection) const = 0;
};

/// Walks a drained plan and, for every node carrying a planner estimate,
/// records log2(actual / estimated) into the `exec.card_est_error`
/// histogram (0 = perfect, ±1 = off by 2x, ...).
void RecordCardinalityFeedback(const Operator* root);

/// Scan over a column-organized table with pushed-down predicates, one
/// logical operator at every degree (paper II.B.6: strides scheduled
/// across cores). Each NextImpl that runs dry fills a window of pages
/// whose synopsis may match (skipped pages do not take a place) — one, run
/// inline, unless `opts.exec_pool` is set and dop > 1; else 2 x dop pages
/// at first, doubling on each refill by the rule InputWindow follows
/// (NextWindowUnits in exec/window.h) — decodes them into per-page slots
/// across the pool, and emits the slots in page order, so output is
/// identical at every degree and LIMIT stops the scan after the first
/// window. A window of more than one slot is charged to the statement's
/// memory budget, and each slot's charge is released as it is emitted.
class ColumnScanOp : public Operator {
 public:
  ColumnScanOp(std::shared_ptr<const ColumnTable> table,
               std::vector<ColumnPredicate> preds, std::vector<int> projection,
               ScanOptions opts);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;
  const ScanStats& stats() const { return stats_; }

  std::string label() const override {
    return "ColumnScan(" + table_->schema().QualifiedName() +
           " preds=" + std::to_string(preds_.size()) +
           " cols=" + std::to_string(projection_.size()) +
           (parallel() ? " dop=" + std::to_string(opts_.dop) : "") + ")";
  }

  /// Accepted until the first window is dispatched: a build side always
  /// completes before the probe side's first pull.
  bool AcceptRuntimeFilter(ScanRuntimeFilter filter) override;

 protected:
  std::string AnalyzeExtra() const override;

 private:
  bool parallel() const { return opts_.exec_pool != nullptr && opts_.dop > 1; }
  /// Decodes the next window of pages into window_ and charges it.
  Status FillWindow();

  std::shared_ptr<const ColumnTable> table_;
  std::vector<ColumnPredicate> preds_;
  std::vector<int> projection_;
  ScanOptions opts_;
  size_t next_page_ = 0;  ///< next page to probe; num_pages() is the tail
  ScanStats stats_;
  std::vector<ScanRuntimeFilter> runtime_filters_;
  std::vector<RowBatch> window_;  ///< one decoded slot per window page
  size_t next_slot_ = 0;
  size_t window_units_ = 0;   ///< page capacity of the last window (0: none)
  int64_t window_bytes_ = 0;  ///< what the last window charged
};

/// Full scan over the row-organized baseline table.
class RowScanOp : public Operator {
 public:
  RowScanOp(std::shared_ptr<const RowTable> table,
            std::vector<ColumnPredicate> preds, std::vector<int> projection);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override { return "RowScan(" + table_->schema().QualifiedName() + ")"; }

 private:
  std::shared_ptr<const RowTable> table_;
  std::vector<ColumnPredicate> preds_;
  std::vector<int> projection_;
  uint64_t next_row_ = 0;
  static constexpr uint64_t kChunk = 4096;
};

/// B+Tree index range scan over the row table (appliance access path).
class RowIndexScanOp : public Operator {
 public:
  RowIndexScanOp(std::shared_ptr<const RowTable> table, int index_col,
                 int64_t lo, int64_t hi, std::vector<ColumnPredicate> residual,
                 std::vector<int> projection);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override { return "RowIndexScan(" + table_->schema().QualifiedName() + ")"; }

 private:
  std::shared_ptr<const RowTable> table_;
  int index_col_;
  int64_t lo_, hi_;
  std::vector<ColumnPredicate> residual_;
  std::vector<int> projection_;
  RowBatch buffer_;
  bool drained_ = false;
};

/// Residual predicate filter. Emits the child's batch unchanged with a
/// selection vector attached instead of compacting — downstream
/// selection-aware consumers (project, join probe, aggregation, limit)
/// evaluate through the selection and compact only at blow-up points.
class FilterOp : public Operator {
 public:
  FilterOp(OperatorPtr child, ExprPtr pred, const ExecContext* ctx);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override { return "Filter(" + pred_->ToString() + ")"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 protected:
  std::string AnalyzeExtra() const override;

 private:
  OperatorPtr child_;
  ExprPtr pred_;
  const ExecContext* ctx_;
  uint64_t rows_in_ = 0;       ///< logical rows examined
  uint64_t rows_passed_ = 0;   ///< rows selected
  uint64_t sel_batches_ = 0;   ///< batches emitted carrying a selection
};

/// Expression projection.
class ProjectOp : public Operator {
 public:
  ProjectOp(OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names, const ExecContext* ctx);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override { return "Project(" + std::to_string(exprs_.size()) + " exprs)"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  const ExecContext* ctx_;
};

enum class JoinType : uint8_t { kInner = 0, kLeft, kCross };

/// Hash join; the build side (right child) is radix-partitioned into
/// cache-sized partitions, each with its own hash table — the Hybrid Hash
/// Join / BLU-style "partition into L2/L3 chunks" strategy of paper II.B.7.
/// The partitions are also the independent units of the parallel build.
///
/// The probe consumes an InputWindow (exec/window.h) and runs one kernel
/// per morsel — a match phase producing (probe row, build row) index
/// lists, then a column-by-column gather. Output is emitted in probe
/// order, so it is byte-identical at every degree.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(OperatorPtr probe, OperatorPtr build,
             std::vector<ExprPtr> probe_keys, std::vector<ExprPtr> build_keys,
             JoinType type, const ExecContext* ctx);
  ~HashJoinOp() override;
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {probe_.get(), build_.get()};
  }

  /// Arms scan-side Bloom pushdown: when the build side completes, a
  /// filter over the (single) build key column is offered to `target` — a
  /// scan below the probe side — on its output column `target_col`. Only
  /// meaningful for single-key INNER joins (NULL and unmatched probe rows
  /// may be dropped at the scan); the binder enforces that.
  void SetProbeFilterTarget(Operator* target, int target_col) {
    filter_target_ = target;
    filter_target_col_ = target_col;
  }

 protected:
  std::string AnalyzeExtra() const override;

 private:
  static constexpr int kPartitionBits = 6;  // 64 cache-sized partitions
  /// One cache-sized radix partition: a flat open-addressing multimap from
  /// the 64-bit key (combined key hash, or the raw int64 on the fast-int
  /// path) to the build-row chain, fronted by a Bloom-style prefilter so
  /// probe misses reject without touching the table.
  struct Partition {
    FlatJoinIndex table;
    BloomPrefilter bloom;
  };

  /// Whether this build runs on the pool (needs the context's pool and
  /// enough rows to amortize the fan-out; the radix partitions are the
  /// independent units).
  bool ParallelBuildEligible(size_t build_rows) const;

  Status BuildSide();
  /// Builds dense_ when the fast-int build keys span a compact range
  /// (DenseJoinIndex::RangeFor); returns whether it did.
  Result<bool> BuildDense();
  /// Offers the scan-side Bloom filter once the build is complete.
  void InstallProbeFilter();
  /// The probe kernel for morsel `m` of the probe window: a match phase,
  /// then a gather into *out. Reads only state that is immutable after the
  /// build, so morsels probe concurrently.
  void ProbeMorsel(size_t m, RowBatch* out) const;
  /// Typed equality of the probe row's key cells against the build row's
  /// (hash-equal candidates only; never allocates).
  bool KeysEqual(const std::vector<const ColumnVector*>& probe_key_cols,
                 size_t probe_row, uint32_t build_row) const;

  OperatorPtr probe_, build_;
  std::vector<ExprPtr> probe_keys_, build_keys_;
  JoinType type_;
  const ExecContext* ctx_;
  RowBatch build_data_;
  /// Build-side key columns, batch-evaluated once over build_data_
  /// (generic path; the fast-int path reads build_data_ directly).
  std::vector<ColumnVector> build_key_cols_;
  std::vector<Partition> partitions_;
  /// Direct-address index over a compact fast-int build key range; when
  /// built (range() > 0) the probe uses it and partitions_ stay empty.
  DenseJoinIndex dense_;
  bool built_ = false;
  /// Fast path: single integer-backed column-ref key on both sides keys
  /// the index directly on the int64 value.
  bool fast_int_ = false;
  int probe_key_col_ = -1, build_key_col_ = -1;
  /// Scan-side Bloom pushdown target (see SetProbeFilterTarget).
  Operator* filter_target_ = nullptr;
  int filter_target_col_ = -1;
  bool filter_installed_ = false;
  /// Probe window over the probe child (key expressions evaluated per
  /// batch) and its joined output, one batch per morsel in probe order.
  std::unique_ptr<InputWindow> window_;
  std::vector<RowBatch> joined_;
  size_t joined_next_ = 0;
};

/// Cross / non-equi nested-loop join (small inputs: DUAL, dimension
/// cross-products, Oracle (+) conditions that are not equi-joins).
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(OperatorPtr left, OperatorPtr right, ExprPtr condition,
                   JoinType type, const ExecContext* ctx);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override { return "NestedLoopJoin"; }
  std::vector<const Operator*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  OperatorPtr left_, right_;
  ExprPtr condition_;  ///< may be null (pure cross join)
  JoinType type_;
  const ExecContext* ctx_;
  RowBatch right_data_;
  bool built_ = false;
};

/// Wraps an already-drained child: emits the captured batch once per Open.
/// The adaptive join assembler drains relations up front (to observe their
/// true cardinalities) and then feeds them to hash-join builds through
/// this operator, so the child is never re-executed.
class MaterializedOp : public Operator {
 public:
  MaterializedOp(OperatorPtr child, RowBatch data);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override {
    return "Materialized(" + std::to_string(data_.num_rows()) + " rows)";
  }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 private:
  OperatorPtr child_;
  RowBatch data_;
  bool done_ = false;
};

/// One single-column equi-join edge between two FROM items, in the items'
/// local scan-output column indices, plus each side's estimated key NDV
/// (0 = unknown).
struct AdaptiveJoinEdge {
  int left_item = 0;
  int left_col = 0;
  int right_item = 0;
  int right_col = 0;
  double left_ndv = 0;
  double right_ndv = 0;
};

/// Cost-ordered multi-way inner join with runtime adaptivity (paper II.B.7
/// extended): on first Next, picks a join order from the estimates
/// (sql/join_order.h), then materializes the non-driving relations one at
/// a time. After each materialization the OBSERVED cardinality replaces
/// the estimate; if it diverges from the estimate by more than 10x while
/// joins remain, the suffix of the order is re-planned. Materialized
/// relations with an edge to the driving relation push a Bloom filter of
/// their key column into the driving scan (semi-join reduction), then the
/// chain of hash joins is assembled and streamed. Output columns are in
/// the original FROM order regardless of the chosen join order.
class AdaptiveJoinOp : public Operator {
 public:
  AdaptiveJoinOp(std::vector<OperatorPtr> sources,
                 std::vector<AdaptiveJoinEdge> edges,
                 std::vector<double> source_est_rows, const ExecContext* ctx);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override;
  std::string kind() const override { return "AdaptiveJoin"; }
  std::vector<const Operator*> children() const override;

  uint64_t replans() const { return replans_; }

 protected:
  std::string AnalyzeExtra() const override;

 private:
  /// Orders, materializes (re-planning on mis-estimates), pushes Bloom
  /// filters, and builds the hash-join chain. Runs once, on first Next.
  Status Assemble();

  std::vector<OperatorPtr> sources_;
  std::vector<AdaptiveJoinEdge> edges_;
  std::vector<double> source_est_rows_;
  const ExecContext* ctx_;

  OperatorPtr chain_;  ///< assembled join chain (owns all sources)
  /// chain output column -> FROM-order output column.
  std::vector<int> out_perm_;
  bool assembled_ = false;
  uint64_t replans_ = 0;
  uint64_t blooms_ = 0;
};

/// Hash GROUP BY with the aggregate library (paper II.B.7: partitioned
/// hash group-by over all cores). Group and argument expressions are
/// evaluated once per batch by an InputWindow; one kernel folds morsel m
/// of every window into partial m % lanes, and the partials merge
/// hash-partitioned on the pool. Groups come out in order of first
/// appearance, so the output is byte-identical at every degree (DOP 1 is
/// one partial).
class HashAggOp : public Operator {
 public:
  HashAggOp(OperatorPtr child, std::vector<ExprPtr> group_exprs,
            std::vector<std::string> group_names, std::vector<AggSpec> aggs,
            std::vector<std::string> agg_names, const ExecContext* ctx);
  ~HashAggOp() override;
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override;
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

 protected:
  std::string AnalyzeExtra() const override;

 private:
  /// One aggregation table: group ids from a FlatIntMap on a single
  /// integer-backed key, else from normalized key bytes in a FlatKeyIndex
  /// (key_rows keeps those groups' key cells). Group g's states are
  /// cols[a]'s entry g (columnar) or states[g * aggs, (g + 1) * aggs)
  /// (boxed). Cache-line aligned: lanes update neighbouring tables
  /// concurrently.
  struct alignas(64) Partial {
    FlatIntMap ints;
    FlatKeyIndex keys;
    RowBatch key_rows;
    std::vector<AggColumn> cols;  ///< columnar: one per aggregate
    std::vector<AggState> states;  ///< boxed
    std::vector<uint64_t> first;  ///< stream position of each group's first row
    std::vector<uint32_t> gids;   ///< per-morsel scratch
    std::string scratch;
    size_t groups() const { return first.size(); }
    /// Bytes the table holds (key cells counted as their normalized bytes).
    int64_t MemoryBytes() const;
  };

  /// An empty table with this operator's state columns.
  Partial NewPartial() const;
  /// The kernel: folds morsel `m` of the window into `p`.
  void Consume(size_t m, Partial* p);
  /// Adds group `g` of `src` (states moved or merged) to `dst`.
  void MergeGroup(Partial* src, uint32_t g, Partial* dst);
  /// Hash-partitioned merge of partials_: shard s emits its groups into
  /// (*outs)[s] in order of first appearance, each row's stream position
  /// in (*firsts)[s].
  Status Merge(std::vector<RowBatch>* outs,
               std::vector<std::vector<uint64_t>>* firsts);
  /// Appends groups order[0, n) of `p` (groups [0, n) when `order` is
  /// null) to `out`, one column at a time.
  void AppendGroups(const Partial& p, const uint32_t* order, size_t n,
                    RowBatch* out);
  Status Materialize();

  OperatorPtr child_;
  std::vector<ExprPtr> group_exprs_;
  std::vector<AggSpec> aggs_;
  const ExecContext* ctx_;
  /// Window column of each aggregate's argument(s); -1 when absent.
  std::vector<int> arg_col_, arg2_col_;
  bool int_key_ = false;  ///< one integer-backed group key
  /// Every aggregate keeps AggColumn states (AggColumn::Supports), else
  /// every one keeps AggStates.
  bool columnar_ = false;
  bool direct_ids_ = false;  ///< the int maps stayed direct-addressed
  size_t lanes_ = 1;      ///< partials: dop when every state merges
  std::unique_ptr<InputWindow> window_;
  /// Morsel m of every window folds into partials_[m % lanes_].
  std::vector<Partial> partials_;
  int64_t table_bytes_ = 0;  ///< charged for the partials so far
  RowBatch result_;
  bool done_ = false;
  bool materialized_ = false;
};

/// SELECT COUNT(*) fast path over one column table with pushed-down
/// predicates (paper II.B.6, "counting without materialization"): the
/// count comes from the storage layer's code-domain population counts
/// (SwarCount over packed codes), with no match bitmap and no decode.
class CountStarScanOp : public Operator {
 public:
  CountStarScanOp(std::shared_ptr<const ColumnTable> table,
                  std::vector<ColumnPredicate> preds, ScanOptions opts,
                  const std::string& out_name);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;
  const ScanStats& stats() const { return stats_; }

  std::string label() const override {
    return "CountStarScan(" + table_->schema().QualifiedName() +
           " preds=" + std::to_string(preds_.size()) + ")";
  }

 private:
  std::shared_ptr<const ColumnTable> table_;
  std::vector<ColumnPredicate> preds_;
  ScanOptions opts_;
  bool done_ = false;
  ScanStats stats_;
};

// SortKey / SortOp / TopNOp live in exec/sort.h (parallel sort subsystem).

/// LIMIT n OFFSET m (also implements FETCH FIRST and Oracle ROWNUM caps).
/// Once the limit is satisfied the child is never pulled again (done_
/// latches), which `child_pulls()` makes verifiable.
class LimitOp : public Operator {
 public:
  LimitOp(OperatorPtr child, int64_t limit, int64_t offset);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override { return "Limit(" + std::to_string(limit_) + " offset " + std::to_string(offset_) + ")"; }
  std::vector<const Operator*> children() const override {
    return {child_.get()};
  }

  /// Number of child NextSel calls made so far (early-termination probe).
  uint64_t child_pulls() const { return child_pulls_; }

 protected:
  std::string AnalyzeExtra() const override;

 private:
  OperatorPtr child_;
  int64_t limit_, offset_;
  int64_t skipped_ = 0, emitted_ = 0;
  uint64_t child_pulls_ = 0;
  bool done_ = false;  ///< latched when the limit is satisfied
};

/// Emits a constant batch (VALUES clause, DUAL, INSERT source).
class ValuesOp : public Operator {
 public:
  ValuesOp(RowBatch batch, std::vector<OutputCol> cols);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override { return "Values(" + std::to_string(batch_.num_rows()) + " rows)"; }

 private:
  RowBatch batch_;
  bool done_ = false;
};

/// Concatenation of child streams (UNION ALL, CTE fan-in).
class UnionAllOp : public Operator {
 public:
  explicit UnionAllOp(std::vector<OperatorPtr> children);
  Status OpenImpl() override;
  Result<bool> NextImpl(RowBatch* out) override;

  std::string label() const override { return "UnionAll"; }
  std::vector<const Operator*> children() const override {
    std::vector<const Operator*> out;
    for (const auto& c : children_) out.push_back(c.get());
    return out;
  }

 private:
  std::vector<OperatorPtr> children_;
  size_t current_ = 0;
};

/// Resets *out to empty columns typed like `cols`.
void InitBatchFor(const std::vector<OutputCol>& cols, RowBatch* out);
/// Appends row `row` of `src` to `dst` (same column types).
void AppendRowFrom(const RowBatch& src, size_t row, RowBatch* dst);

/// Drains an operator into a single batch (used by the SQL engine, MPP
/// gather, and tests).
Result<RowBatch> DrainOperator(Operator* op);

/// Attaches `qctx` to every node of a bound plan (pre-order). Operators
/// that build sub-plans at runtime (AdaptiveJoinOp) re-attach through
/// their ExecContext's query_ctx.
void AttachQueryContext(Operator* root, QueryContext* qctx);

/// The runtime join filter over build keys `keys` for the probe column
/// `col` of type `probe_type`: an exact DenseKeySet when both are
/// integer-backed and the non-NULL keys span a range
/// DenseJoinIndex::RangeFor accepts, else a Bloom filter of the keys'
/// HashCell hashes. NULL keys are never added.
ScanRuntimeFilter MakeRuntimeFilter(int col, const ColumnVector& keys,
                                    TypeId probe_type);

/// Estimated in-memory footprint of a batch, matching the fluid transfer
/// accounting: 8 bytes per fixed-width cell, string size + 2 per varchar
/// cell. Used by operators to size their budget reservations.
int64_t BatchMemoryBytes(const RowBatch& b);
/// The same estimate for one column.
int64_t ColumnMemoryBytes(const ColumnVector& c);

}  // namespace dashdb
