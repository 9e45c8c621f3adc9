// Column-organized table: the dashDB storage engine's primary object.
//
// A table holds, per column: a global compression decision (frequency
// dictionary or minus/FOR), the encoded pages, and the data-skipping
// synopsis. Bulk loads analyze the data and build dictionaries; trickle
// INSERTs land in an uncompressed tail region that is encoded page-by-page
// as it fills (unseen values become page exceptions). DELETE marks a
// per-table deleted bitmap; UPDATE is delete + re-insert (executor-driven).
#pragma once

#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "bufferpool/bufferpool.h"
#include "storage/io_model.h"
#include "catalog/catalog.h"
#include "catalog/schema.h"
#include "common/column_vector.h"
#include "common/flat_hash.h"
#include "common/status.h"
#include "storage/column_page.h"
#include "synopsis/synopsis.h"

namespace dashdb {

/// A conjunctive range predicate on one column, already translated to the
/// storage domain by the planner.
struct ColumnPredicate {
  int column = 0;
  /// Integer-domain range (integer-backed columns).
  IntRangePred int_range;
  /// String-domain range (VARCHAR columns).
  StrRangePred str_range;
  /// Double-domain range (DOUBLE columns).
  std::optional<double> dlo, dhi;
  bool dlo_incl = true, dhi_incl = true;
};

class ThreadPool;

/// Feature switches for a scan — the paper's architectural levers, each
/// independently toggleable for the ablation bench and the Test-4
/// "naive column store competitor" mode.
struct ScanOptions {
  bool use_synopsis = true;       ///< data skipping (II.B.4)
  bool use_swar = true;           ///< software SIMD (II.B.6)
  bool operate_on_compressed = true;  ///< predicates on codes (II.B.2)
  BufferPool* pool = nullptr;     ///< charge page accesses when set
  /// Intra-query parallelism (II.B.6): a column scan decodes its window of
  /// pages across `exec_pool` workers. The window starts at 2 x `dop` pages
  /// and doubles on each refill up to 16 x `dop` while the statement's
  /// MEM_BUDGET has room (NextWindowUnits, exec/window.h). It is one page,
  /// run inline, when exec_pool is null or dop <= 1; both are independently
  /// settable for the ablation bench.
  ThreadPool* exec_pool = nullptr;
  int dop = 1;
  /// Read by nothing. It exists only because dashbench/targets.cc still
  /// compiles `bopts.scan.shared_scan = s->shared_scan_enabled();`; delete
  /// it together with that line.
  bool shared_scan = false;
};

/// A join-key filter pushed sideways into a scan (semi-join reduction):
/// rows whose `col` cell misses the filter are cleared from the page's
/// match bitmap before the rest of the projection is decoded. Exactly one
/// of two kinds is set:
///  - `dense`, an exact DenseKeySet over an integer-backed key column.
///    NULL keys miss. When the set is full (a range), a page whose key
///    column holds no NULL and whose stride min/max lie inside the range
///    cannot lose a row, and skips the filter untouched.
///  - `bloom`, tested with HashCell hashes, so a filter built over
///    join-build keys (locally or on another MPP node) composes with any
///    scan. NULL keys hash to the NULL sentinel, which join builds never
///    add.
struct ScanRuntimeFilter {
  ScanRuntimeFilter() = default;
  ScanRuntimeFilter(int c, std::shared_ptr<const BloomPrefilter> b)
      : col(c), bloom(std::move(b)) {}
  ScanRuntimeFilter(int c, std::shared_ptr<const DenseKeySet> d)
      : col(c), dense(std::move(d)) {}

  int col = 0;  ///< index into the scan's projection
  std::shared_ptr<const BloomPrefilter> bloom;
  std::shared_ptr<const DenseKeySet> dense;

  /// Whether row `i` of `cv` (the key column) passes the filter.
  bool Keeps(const ColumnVector& cv, size_t i) const {
    if (dense) return !cv.IsNull(i) && dense->Contains(cv.GetInt(i));
    return bloom->MayContain(HashCell(cv, i));
  }
  const char* kind() const { return dense ? "dense" : "bloom"; }
};

/// Per-scan observability counters.
struct ScanStats {
  size_t pages_visited = 0;
  size_t pages_skipped = 0;     ///< all strides of the page were skippable
  size_t strides_skipped = 0;
  size_t rows_matched = 0;      ///< rows passing the predicates
  size_t bloom_dropped = 0;     ///< matched rows a runtime filter dropped
  /// Page visits on which a full dense filter was skipped because the
  /// page's key synopsis lies inside its range (one per filter and page).
  size_t filter_skips = 0;
};

/// Optimizer-facing statistics for one column, derived from data the
/// storage layer already maintains: the per-stride synopsis (min/max +
/// null counts) and the frequency dictionary (distinct-value count).
/// Everything is an estimate — the tail region is covered only by its
/// row/null counts, not by range or distinct information.
struct ColumnStatsView {
  size_t rows = 0;        ///< live rows in the table
  size_t null_count = 0;  ///< NULLs (synopsis strides + tail)
  size_t distinct = 0;    ///< dictionary NDV; 0 = unknown
  bool has_int_range = false;
  int64_t int_min = 0, int_max = 0;
  bool has_str_range = false;
  std::string str_min, str_max;
};

/// Column-organized table.
class ColumnTable : public StorageObject {
 public:
  ColumnTable(TableSchema schema, uint64_t table_id);

  const TableSchema& schema() const { return schema_; }
  uint64_t table_id() const { return table_id_; }

  /// Total rows ever stored (including deleted); live = minus deletions.
  size_t row_count() const { return row_count_; }
  size_t live_row_count() const { return row_count_ - deleted_count_; }

  /// Bulk load: replaces the table content, analyzes `data`, builds the
  /// per-column dictionaries, encodes pages and synopsis.
  Status Load(const RowBatch& data);

  /// Appends rows through the tail region (dictionary exceptions allowed).
  Status Append(const RowBatch& data);
  Status AppendRow(const std::vector<Value>& row);

  /// Marks rows deleted (row ids are the scan-reported global ids).
  Status DeleteRows(const std::vector<uint64_t>& row_ids);
  bool IsDeleted(uint64_t row_id) const;

  /// Removes all rows (TRUNCATE TABLE).
  void Truncate();

  /// Random access to one cell (decodes the owning page run). Used by
  /// UPDATE's key-release path and by tests.
  Value GetCell(uint64_t row_id, int col) const;

  /// Streaming scan: evaluates the conjunction of `preds`, emits one
  /// RowBatch per page (plus one for the tail) containing `projection`
  /// columns and, if `row_ids` non-null per batch, the global row ids.
  /// Thread-compatible (no mutation during scan).
  Status Scan(const std::vector<ColumnPredicate>& preds,
              const std::vector<int>& projection, const ScanOptions& opts,
              const std::function<void(RowBatch&, const std::vector<uint64_t>&)>&
                  emit,
              ScanStats* stats = nullptr) const;

  /// Page-at-a-time scan step for pull-based executors: evaluates `preds`
  /// on page `page_no` (pass num_pages() for the tail region), then the
  /// runtime `filters` on the matched rows' key columns, and appends the
  /// surviving rows to *out / *ids. Only the key columns are decoded for
  /// rows a filter drops. *out must carry one ColumnVector per projected
  /// column.
  Status ScanPage(size_t page_no, const std::vector<ColumnPredicate>& preds,
                  const std::vector<int>& projection,
                  const std::vector<ScanRuntimeFilter>& filters,
                  const ScanOptions& opts, RowBatch* out,
                  std::vector<uint64_t>* ids, ScanStats* stats = nullptr) const;

  /// Metadata-only probe of page `page_no`: false when ScanPage would emit
  /// nothing without decoding — the synopsis skips the whole page (counted
  /// into *stats exactly as ScanPage counts it), or the tail is empty.
  bool PageMayMatch(size_t page_no, const std::vector<ColumnPredicate>& preds,
                    const ScanOptions& opts, ScanStats* stats) const;

  /// Fast COUNT(*) with predicates: zero predicates count from page-row
  /// metadata; a single predicate on an integer-backed column counts
  /// straight off the packed codes via SwarCount (no bitmap, no decode)
  /// when the scan options allow SWAR-on-compressed and the page holds no
  /// deleted rows. Everything else falls back to an empty-projection scan.
  Result<size_t> CountRows(const std::vector<ColumnPredicate>& preds,
                           const ScanOptions& opts,
                           ScanStats* stats = nullptr) const;

  /// Compressed footprint of all pages + dictionaries (bytes).
  size_t CompressedBytes() const;
  /// Uncompressed footprint of the same data (bytes).
  size_t RawBytes() const;
  /// Synopsis footprint in the compressed representation (bytes).
  size_t SynopsisBytes() const;

  size_t num_pages() const { return num_pages_; }

  /// Encoding chosen for a column (after Load).
  PageEncoding column_encoding(int col) const;

  /// Statistics snapshot for one column (cardinality estimation input).
  ColumnStatsView ColumnStats(int col) const;

  /// Attaches the storage I/O model: buffer-pool misses on this table's
  /// pages charge modeled read time into *sink (see storage/io_model.h).
  void ConfigureIo(IoModel model, IoSink* sink, BufferPool* pool) {
    io_model_ = model;
    io_sink_ = sink;
    io_pool_ = pool;
  }

 private:
  struct ColumnData {
    std::shared_ptr<IntFrequencyDict> int_dict;
    std::shared_ptr<StringFrequencyDict> str_dict;
    PageEncoding encoding = PageEncoding::kRawInt;
    std::vector<std::unique_ptr<ColumnPage>> pages;
    IntSynopsis int_synopsis;
    StringSynopsis str_synopsis;
  };

  /// Chooses the encoding for a column from its stats and builds dicts.
  void ChooseEncoding(int col, const RowBatch& data);

  /// Encodes rows [begin, begin+n) of `data` into one page per column and
  /// appends synopsis strides.
  void EncodePageRun(const RowBatch& data, size_t begin, size_t n);

  /// Flushes full pages out of the tail region.
  void MaybeFlushTail();

  Status CheckUnique(const RowBatch& data) const;
  void IndexUnique(const RowBatch& data);

  /// Page-level predicate evaluation; returns match bitmap over page rows.
  void EvalPredsOnPage(const std::vector<ColumnPredicate>& preds,
                       size_t page_no, const ScanOptions& opts,
                       BitVector* match) const;

  /// Applies synopsis skipping for one page (clearing skipped strides from
  /// *match unless it is null); returns false when the whole page is
  /// skippable.
  bool ApplySynopsis(const std::vector<ColumnPredicate>& preds, size_t page_no,
                     BitVector* match, ScanStats* stats) const;

  /// Appends the `sel` rows of column `col` on page `page_no` to *out.
  void DecodeColumn(int col, size_t page_no, const BitVector& sel,
                    ColumnVector* out) const;

  /// A runtime filter's key column as ApplyRuntimeFilters decoded it:
  /// output column `k`, holding the rows of `sel`.
  struct DecodedKey {
    size_t k = 0;
    BitVector sel;
    ColumnVector values;
  };

  /// Clears the `match` bits whose filter key misses a runtime filter
  /// (page_no < num_pages()); returns the number of bits cleared. Each
  /// filter's decoded key column is appended to *keys; a full dense filter
  /// the page's key synopsis lies inside decodes nothing and counts into
  /// *filter_skips.
  size_t ApplyRuntimeFilters(const std::vector<ScanRuntimeFilter>& filters,
                             const std::vector<int>& projection,
                             size_t page_no, BitVector* match,
                             std::vector<DecodedKey>* keys,
                             size_t* filter_skips) const;

  /// True when column `col` of page `page_no` holds no NULL and every
  /// stride's synopsis min/max lies inside [lo, hi].
  bool PageKeysWithin(int col, size_t page_no, int64_t lo, int64_t hi) const;

  /// `attach_codes` keeps the dictionary-code sidecar on fully-selected
  /// kDict* pages so downstream filters can operate on compressed. A
  /// column in `keys` is taken from there — moved when its rows are
  /// exactly `sel`, else compacted to them — instead of decoded again.
  void DecodeProjection(const std::vector<int>& projection, size_t page_no,
                        const BitVector& sel, bool attach_codes,
                        std::vector<DecodedKey>* keys, RowBatch* out) const;

  void ChargePool(BufferPool* pool, int col, size_t page_no) const;

  Value GetCellLocked(uint64_t row_id, int col) const;

  TableSchema schema_;
  uint64_t table_id_;
  std::vector<ColumnData> columns_;
  size_t num_pages_ = 0;
  size_t row_count_ = 0;
  size_t deleted_count_ = 0;
  BitVector deleted_;  ///< sized row_count_ (grown on append)

  /// Global row id of each page's first row / page row counts / first
  /// synopsis-stride index of each page.
  std::vector<size_t> page_start_;
  std::vector<uint32_t> page_rows_;
  std::vector<size_t> page_first_stride_;
  size_t num_strides_ = 0;
  size_t raw_bytes_ = 0;  ///< uncompressed footprint of stored data

  IoModel io_model_;
  IoSink* io_sink_ = nullptr;
  BufferPool* io_pool_ = nullptr;

  /// Uncompressed tail region awaiting encoding.
  RowBatch tail_;

  /// Unique-constraint enforcement sets (column -> value set).
  std::vector<std::unordered_set<int64_t>> unique_ints_;
  std::vector<std::unordered_set<std::string>> unique_strs_;

  mutable std::mutex mu_;  ///< guards mutation paths
};

}  // namespace dashdb
