// The three read workloads over the star schema:
//
//  - star_analytics: one analyst cycling star/snowflake shapes. Operator
//    work at the engine's full degree dominates; parse, bind and wire are
//    noise, and nothing writes or contends.
//  - dashboard_concurrent: four dashboard users firing short interactive
//    queries. 80% come from a fixed panel set that fits the plan cache, 20%
//    carry fresh literals and miss it. Per-statement fixed cost (framing,
//    parse/bind, admission, fan-out on tiny inputs) dominates.
//  - mpp_rollup: four clients running the star shapes against an 8-shard
//    cluster through MppBackend — the only path through the coordinator and
//    the exchange. Results must equal the single-node results byte for
//    byte.
//
// The rows come from the repository's star generator (StarSchemaWorkload),
// run once per run in a child process on a staging instance that also
// computes the expected results; every timed deployment then loads the
// rows read back from it.
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <numeric>

#include "bench.h"
#include "core/dashdb.h"
#include "mpp/mpp.h"
#include "storage/column_table.h"
#include "workloads/star_schema.h"

namespace dashbench {

using namespace dashdb;

namespace {

/// Distributed-safe star/snowflake shapes: every item aliased and every
/// ORDER BY total, so single-node and MPP results compare byte for byte.
std::vector<Stmt> StarShapes() {
  const char* kSql[] = {
      // Star join + rollup on a small dimension.
      "SELECT d.YEAR AS YR, COUNT(*) AS N, SUM(s.AMT) AS AMT FROM SALES s "
      "JOIN DATEDIM d ON s.DATE_ID = d.DATE_ID GROUP BY d.YEAR ORDER BY YR",
      // Three-way star through the cost path; SEGMENT = 0 is the 95% value
      // the estimator gets wrong, so the adaptive join re-plans.
      "SELECT st.REGION AS REGION, COUNT(*) AS N, SUM(s.AMT) AS AMT "
      "FROM SALES s, STORE st, CUSTOMER c WHERE s.STORE_ID = st.STORE_ID "
      "AND s.CUST_ID = c.CUST_ID AND c.SEGMENT = 0 GROUP BY st.REGION "
      "ORDER BY REGION",
      // Snowflake: CATEGORY is reachable only through PRODUCT.
      "SELECT g.KIND AS KIND, COUNT(*) AS N, SUM(s.QTY) AS QTY "
      "FROM SALES s, PRODUCT p, CATEGORY g WHERE s.PROD_ID = p.PROD_ID "
      "AND p.CAT_ID = g.CAT_ID AND p.PRICE < 100 GROUP BY g.KIND "
      "ORDER BY KIND",
      // High-cardinality group-by feeding a Top-N.
      "SELECT CUST_ID, SUM(AMT) AS TOTAL FROM SALES GROUP BY CUST_ID "
      "ORDER BY TOTAL DESC, CUST_ID LIMIT 20",
      // Full sort of ~1000 groups.
      "SELECT STORE_ID, COUNT(*) AS N, SUM(QTY) AS QTY FROM SALES "
      "WHERE DATE_ID >= 1000 GROUP BY STORE_ID ORDER BY N DESC, STORE_ID",
      // Scan feeding a Top-N.
      "SELECT ID, AMT, QTY FROM SALES WHERE DATE_ID < 400 "
      "ORDER BY AMT DESC, ID LIMIT 100",
      // Range count (the counting-without-materialization path).
      "SELECT COUNT(*) AS N FROM SALES WHERE AMT BETWEEN 2500 AND 4999",
      // Fact-to-fact join.
      "SELECT COUNT(*) AS N, SUM(r.RAMT) AS RAMT FROM SALES s "
      "JOIN RETURNS r ON s.ID = r.ID WHERE s.QTY > 5",
      // Two-dimension rollup under a dimension filter.
      "SELECT d.MONTH AS MON, st.REGION AS REGION, SUM(s.AMT) AS AMT "
      "FROM SALES s, DATEDIM d, STORE st WHERE s.DATE_ID = d.DATE_ID "
      "AND s.STORE_ID = st.STORE_ID AND d.YEAR = 2012 "
      "GROUP BY d.MONTH, st.REGION ORDER BY MON, REGION",
  };
  std::vector<Stmt> out;
  for (const char* sql : kSql) {
    Stmt st;
    st.sql = sql;
    st.check = Stmt::Check::kChecksum;
    out.push_back(std::move(st));
  }
  return out;
}

std::vector<Stmt*> Pointers(std::vector<Stmt>* v) {
  std::vector<Stmt*> out;
  for (Stmt& s : *v) out.push_back(&s);
  return out;
}

/// Table sizes at `scale` (1 = 1M SALES rows).
bench::StarScale ScaleOf(uint64_t seed, double scale) {
  auto scaled = [scale](size_t n, size_t min) {
    return std::max(min, static_cast<size_t>(std::llround(n * scale)));
  };
  bench::StarScale s;
  s.fact_rows = scaled(s.fact_rows, 1000);
  s.customers = scaled(s.customers, 100);
  s.products = scaled(s.products, 100);
  s.seed = seed;
  return s;
}

/// One generated table: its schema (the facts hash-distribute on ID under
/// MPP, the dimensions are replicated) and its rows in generation order.
struct StarTable {
  TableSchema schema;
  RowBatch rows;
  bool fact = false;
};

/// Generates the star schema for `scale` on a staging instance, records on
/// it the expected checksum of every statement in `oracle`, and reads the
/// rows back. The staging instance runs at degree 1: its results are the
/// serial reference the parallel deployments must match, and its scans
/// return rows in load order without a sort.
Status StageInProcess(const bench::StarScale& scale,
                      const std::vector<Stmt*>& oracle,
                      std::vector<StarTable>* out) {
  DashDbOptions serial;
  serial.parallelism_override = 1;
  DASHDB_ASSIGN_OR_RETURN(std::unique_ptr<DashDbLocal> db, DashDbLocal::Deploy(serial));
  Engine* engine = db->engine();
  DASHDB_RETURN_IF_ERROR(bench::StarSchemaWorkload(scale).Setup(engine));
  std::shared_ptr<Session> session = engine->CreateSession();
  for (Stmt* st : oracle) {
    Result<QueryResult> r = engine->Execute(session.get(), st->sql);
    if (!r.ok()) return r.status().WithContext("oracle: " + st->sql);
    st->checksum = ResultChecksum(*r);
  }
  for (const char* name : {"SALES", "CUSTOMER", "PRODUCT", "STORE", "DATEDIM",
                           "CATEGORY", "RETURNS"}) {
    DASHDB_ASSIGN_OR_RETURN(auto entry, engine->GetTable("PUBLIC", name));
    StarTable t{entry->schema, RowBatch{},
                std::string(name) == "SALES" || std::string(name) == "RETURNS"};
    DASHDB_ASSIGN_OR_RETURN(
        QueryResult rows,
        engine->Execute(session.get(), std::string("SELECT * FROM ") + name));
    t.rows = std::move(rows.rows);
    out->push_back(std::move(t));
  }
  return Status::OK();
}

// --- staging in a child process ---------------------------------------------
//
// The child sends the oracle checksums, then per table: its name, fact
// flag, column count, each column's name and nullability, the row count,
// and each column's int64 values (the generator makes only BIGINT columns).
// Strings are a u64 length and the bytes. Both ends are one binary on one
// host, so values go in native byte order.

bool WriteAll(int fd, const void* data, size_t n) {
  const char* p = static_cast<const char*>(data);
  while (n > 0) {
    const ssize_t w = write(fd, p, n);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) return false;
    p += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

bool ReadAll(int fd, void* data, size_t n) {
  char* p = static_cast<char*>(data);
  while (n > 0) {
    const ssize_t r = read(fd, p, n);
    if (r < 0 && errno == EINTR) continue;
    if (r <= 0) return false;
    p += r;
    n -= static_cast<size_t>(r);
  }
  return true;
}

constexpr size_t kChunk = 8192;  ///< values per pipe transfer

Status SendStaged(int fd, const std::vector<Stmt*>& oracle,
                  const std::vector<StarTable>& tables) {
  bool ok = true;
  auto u64 = [&](uint64_t v) { ok = ok && WriteAll(fd, &v, sizeof(v)); };
  auto str = [&](const std::string& s) {
    u64(s.size());
    ok = ok && WriteAll(fd, s.data(), s.size());
  };
  for (const Stmt* st : oracle) u64(st->checksum);
  u64(tables.size());
  for (const StarTable& t : tables) {
    str(t.schema.table_name());
    u64(t.fact ? 1 : 0);
    u64(static_cast<uint64_t>(t.schema.num_columns()));
    for (const ColumnDef& c : t.schema.columns()) {
      if (c.type != TypeId::kInt64) return Status::Internal("non-BIGINT column " + c.name);
      str(c.name);
      u64(c.nullable ? 1 : 0);
    }
    const size_t rows = t.rows.num_rows();
    u64(rows);
    std::vector<int64_t> buf;
    for (const ColumnVector& col : t.rows.columns) {
      if (col.has_nulls()) return Status::Internal("NULL in " + t.schema.table_name());
      for (size_t i = 0; i < rows && ok; i += kChunk) {
        buf.clear();
        for (size_t j = i; j < std::min(rows, i + kChunk); ++j) buf.push_back(col.GetInt(j));
        ok = WriteAll(fd, buf.data(), buf.size() * sizeof(int64_t));
      }
    }
  }
  return ok ? Status::OK() : Status::Internal("staging pipe closed");
}

Status ReceiveStaged(int fd, const std::vector<Stmt*>& oracle,
                     std::vector<StarTable>* tables) {
  const Status closed = Status::Internal("staging pipe closed early");
  auto u64 = [&](uint64_t* v) { return ReadAll(fd, v, sizeof(*v)); };
  auto str = [&](std::string* s) {
    uint64_t n = 0;
    if (!u64(&n) || n > 256) return false;
    s->resize(n);
    return ReadAll(fd, s->data(), n);
  };
  for (Stmt* st : oracle) {
    if (!u64(&st->checksum)) return closed;
  }
  uint64_t ntables = 0;
  if (!u64(&ntables) || ntables > 64) return closed;
  for (uint64_t k = 0; k < ntables; ++k) {
    std::string name;
    uint64_t fact = 0, ncols = 0, rows = 0;
    if (!str(&name) || !u64(&fact) || !u64(&ncols) || ncols > 64) return closed;
    std::vector<ColumnDef> defs(ncols);
    for (ColumnDef& d : defs) {
      uint64_t nullable = 0;
      if (!str(&d.name) || !u64(&nullable)) return closed;
      d.type = TypeId::kInt64;
      d.nullable = nullable != 0;
    }
    if (!u64(&rows)) return closed;
    StarTable t{TableSchema("PUBLIC", name, defs), RowBatch{}, fact != 0};
    if (t.fact) t.schema.set_distribution_key(0);
    std::vector<int64_t> buf(kChunk);
    for (uint64_t c = 0; c < ncols; ++c) {
      ColumnVector col(TypeId::kInt64);
      col.Reserve(rows);
      for (uint64_t i = 0; i < rows; i += kChunk) {
        const size_t n = static_cast<size_t>(std::min<uint64_t>(kChunk, rows - i));
        if (!ReadAll(fd, buf.data(), n * sizeof(int64_t))) return closed;
        for (size_t j = 0; j < n; ++j) col.AppendInt(buf[j]);
      }
      t.rows.columns.push_back(std::move(col));
    }
    tables->push_back(std::move(t));
  }
  return Status::OK();
}

/// StageInProcess in a child process: the rows and checksums come back
/// over a pipe, and the staging instance's memory never counts toward this
/// process's peak_rss_mb, which then measures the deployment alone. Call
/// it before this process starts any thread: fork copies only the caller.
Result<std::vector<StarTable>> StageStar(const bench::StarScale& scale,
                                         const std::vector<Stmt*>& oracle) {
  std::fflush(nullptr);  // the child must not flush a copy of our buffers
  int fds[2];
  if (pipe(fds) != 0) return Status::Internal(std::string("pipe: ") + std::strerror(errno));
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return Status::Internal(std::string("fork: ") + std::strerror(errno));
  }
  if (pid == 0) {
    close(fds[0]);
    std::vector<StarTable> tables;
    Status st = StageInProcess(scale, oracle, &tables);
    if (st.ok()) st = SendStaged(fds[1], oracle, tables);
    if (!st.ok()) std::fprintf(stderr, "dashbench: staging: %s\n", st.ToString().c_str());
    _exit(st.ok() ? 0 : 1);
  }
  close(fds[1]);
  std::vector<StarTable> tables;
  const Status received = ReceiveStaged(fds[0], oracle, &tables);
  close(fds[0]);  // a child still writing gets EPIPE and exits
  int wstatus = 0;
  while (waitpid(pid, &wstatus, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0) {
    return Status::Internal("staging process failed");
  }
  DASHDB_RETURN_IF_ERROR(received);
  return tables;
}

void AddFootprint(const ColumnTable& t, LoadStats* stats) {
  stats->raw_bytes += static_cast<double>(t.RawBytes());
  stats->compressed_bytes += static_cast<double>(t.CompressedBytes());
}

/// A single-node instance serving `tables` (ColumnTable::Load each).
Result<std::unique_ptr<Target>> DeployStar(const std::vector<StarTable>& tables,
                                           int clients, LoadStats* stats) {
  return DeploySingleNode(clients, [&](Engine* engine) -> Status {
    for (const StarTable& t : tables) {
      DASHDB_ASSIGN_OR_RETURN(auto table, engine->CreateColumnTable(t.schema));
      const auto t0 = Clock::now();
      DASHDB_RETURN_IF_ERROR(table->Load(t.rows));
      stats->seconds += SecondsBetween(t0, Clock::now());
      stats->rows += t.rows.num_rows();
      AddFootprint(*table, stats);
    }
    return Status::OK();
  });
}

class StarAnalytics : public Workload {
 public:
  explicit StarAnalytics(const WorkloadOptions& opts)
      : opts_(opts), shapes_(StarShapes()) {
    for (const Stmt& s : shapes_) script_.seq.push_back(&s);
  }

  int clients() const override { return 1; }

  Status Prepare() override {
    DASHDB_ASSIGN_OR_RETURN(
        tables_, StageStar(ScaleOf(opts_.seed, opts_.scale), Pointers(&shapes_)));
    return Status::OK();
  }

  Result<std::unique_ptr<Target>> Deploy(LoadStats* load) override {
    return DeployStar(tables_, clients(), load);
  }

  const Script& script(int) const override { return script_; }

  std::vector<const Stmt*> SoloSample() const override { return script_.seq; }

 private:
  WorkloadOptions opts_;
  std::vector<Stmt> shapes_;
  Script script_;
  std::vector<StarTable> tables_;
};

class DashboardConcurrent : public Workload {
 public:
  static constexpr int kClients = 4;
  static constexpr int kPanel = 64;         ///< fits the 256-entry plan cache
  static constexpr int kFreshPerClient = 256;
  static constexpr int kPanelPercent = 80;
  static constexpr size_t kScriptLength = 16384;

  explicit DashboardConcurrent(const WorkloadOptions& opts)
      : opts_(opts), scale_(ScaleOf(opts.seed, opts.scale)) {
    Rng rng(opts.seed * 0x9E3779B97F4A7C15ull + 3);
    const size_t sizes[] = {scale_.fact_rows, scale_.customers, scale_.products};
    for (int t = 0; t < 3; ++t) windows_[t] = Windows(sizes[t], &rng);
    int text = 0;
    for (int i = 0; i < kPanel; ++i) panel_.push_back(Make(text++, &rng));
    fresh_.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      for (int i = 0; i < kFreshPerClient; ++i) {
        fresh_[c].push_back(Make(text++, &rng));
      }
    }
    scripts_.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      Rng pick(opts.seed * 131 + static_cast<uint64_t>(c) + 7);
      size_t next_fresh = 0;
      for (size_t i = 0; i < kScriptLength; ++i) {
        if (pick.Uniform(100) < kPanelPercent) {
          scripts_[c].seq.push_back(&panel_[pick.Uniform(kPanel)]);
        } else {
          scripts_[c].seq.push_back(&fresh_[c][next_fresh++ % kFreshPerClient]);
        }
      }
    }
  }

  int clients() const override { return kClients; }

  Status Prepare() override {
    std::vector<Stmt*> all = Pointers(&panel_);
    for (auto& pool : fresh_) {
      std::vector<Stmt*> p = Pointers(&pool);
      all.insert(all.end(), p.begin(), p.end());
    }
    DASHDB_ASSIGN_OR_RETURN(tables_, StageStar(scale_, all));
    return Status::OK();
  }

  Result<std::unique_ptr<Target>> Deploy(LoadStats* load) override {
    return DeployStar(tables_, clients(), load);
  }

  const Script& script(int client) const override { return scripts_[client]; }

  std::vector<const Stmt*> SoloSample() const override {
    std::vector<const Stmt*> out;
    for (int i = 0; i < 15; ++i) out.push_back(&panel_[i]);
    return out;
  }

 private:
  static constexpr int kTemplates = 5;

  /// Key windows over one table: a tenth of its keys (at most 2000), with
  /// distinct starts for distinct texts — start(u) = (offset + u * stride)
  /// mod (positions), stride coprime to positions — so no two texts repeat
  /// while the table holds more positions than there are texts.
  struct Windows {
    Windows() = default;
    Windows(size_t keys, Rng* rng)
        : width(std::max<int64_t>(1, std::min<int64_t>(2000, keys / 10))),
          positions(static_cast<int64_t>(keys) - width + 1) {
      offset = rng->Int(static_cast<uint64_t>(positions));
      do {
        stride = 1 + rng->Int(static_cast<uint64_t>(positions));
      } while (std::gcd(stride, positions) != 1);
    }
    std::string Range(int text) const {
      const int64_t a = (offset + text * stride) % positions;
      return " BETWEEN " + std::to_string(a) + " AND " +
             std::to_string(a + width - 1);
    }
    int64_t width = 1, positions = 1, offset = 0, stride = 1;
  };

  /// Text number `text` of the panel-then-fresh sequence.
  Stmt Make(int text, Rng* rng) const {
    Stmt st;
    st.check = Stmt::Check::kChecksum;
    const std::string sales = windows_[0].Range(text);
    switch (text % kTemplates) {
      case 0:  // KPI tile over an id range
        st.sql = "SELECT COUNT(*) AS N, SUM(AMT) AS AMT, SUM(QTY) AS QTY "
                 "FROM SALES WHERE ID" + sales;
        break;
      case 1:  // regional breakdown of the same range
        st.sql = "SELECT st.REGION AS REGION, COUNT(*) AS N, "
                 "SUM(s.AMT) AS AMT FROM SALES s JOIN STORE st "
                 "ON s.STORE_ID = st.STORE_ID WHERE s.ID" + sales +
                 " GROUP BY st.REGION ORDER BY REGION";
        break;
      case 2:  // top sales in the range
        st.sql = "SELECT ID, CUST_ID, AMT FROM SALES WHERE ID" + sales +
                 " ORDER BY AMT DESC, ID LIMIT 10";
        break;
      case 3:  // customer-segment rollup over a block of customers
        st.sql = "SELECT SEGMENT, COUNT(*) AS N, MIN(REGION) AS LO, "
                 "MAX(REGION) AS HI FROM CUSTOMER WHERE CUST_ID" +
                 windows_[1].Range(text) +
                 " GROUP BY SEGMENT ORDER BY SEGMENT";
        break;
      default: {  // price-band rollup over a block of products
        const int64_t p = 1 + rng->Int(475);
        st.sql = "SELECT CAT_ID, COUNT(*) AS N, MIN(PRICE) AS LO, "
                 "MAX(PRICE) AS HI FROM PRODUCT WHERE PROD_ID" +
                 windows_[2].Range(text) + " AND PRICE BETWEEN " +
                 std::to_string(p) + " AND " + std::to_string(p + 99) +
                 " GROUP BY CAT_ID ORDER BY CAT_ID";
        break;
      }
    }
    return st;
  }

  WorkloadOptions opts_;
  bench::StarScale scale_;
  Windows windows_[3];  ///< SALES, CUSTOMER, PRODUCT
  std::vector<Stmt> panel_;
  std::vector<std::vector<Stmt>> fresh_;
  std::vector<Script> scripts_;
  std::vector<StarTable> tables_;
};

class MppRollup : public Workload {
 public:
  static constexpr int kClients = 4;
  /// Half of star_analytics' rows: the shards run one after another, and
  /// half the data gives twice the statements per window.
  static constexpr double kDataScale = 0.5;

  explicit MppRollup(const WorkloadOptions& opts)
      : opts_(opts), shapes_(StarShapes()) {
    // The 50k-group Top-N spends half its time merging 8 x 50k partial
    // groups in the coordinator, where no span can reach from outside; a
    // 2000-group rollup keeps the shape while the shard spans still account
    // for the statement.
    shapes_[3].sql =
        "SELECT DATE_ID, SUM(AMT) AS TOTAL FROM SALES GROUP BY DATE_ID "
        "ORDER BY TOTAL DESC, DATE_ID LIMIT 20";
    scripts_.resize(kClients);
    // Each client starts at a different shape so the mix overlaps.
    for (int c = 0; c < kClients; ++c) {
      for (size_t i = 0; i < shapes_.size(); ++i) {
        scripts_[c].seq.push_back(&shapes_[(i + 2 * c) % shapes_.size()]);
      }
    }
  }

  int clients() const override { return kClients; }

  /// The expected results come from the single-node staging instance on
  /// the same rows: distribution must never change a result.
  Status Prepare() override {
    DASHDB_ASSIGN_OR_RETURN(
        tables_, StageStar(ScaleOf(opts_.seed, opts_.scale * kDataScale),
                           Pointers(&shapes_)));
    return Status::OK();
  }

  Result<std::unique_ptr<Target>> Deploy(LoadStats* load) override {
    return DeployMpp(
        /*nodes=*/2, /*shards_per_node=*/4, kClients,
        [&](MppDatabase* db) -> Status {
          for (const StarTable& t : tables_) {
            DASHDB_RETURN_IF_ERROR(db->CreateTable(t.schema, /*replicated=*/!t.fact));
            const auto t0 = Clock::now();
            DASHDB_RETURN_IF_ERROR(
                db->Load(t.schema.schema_name(), t.schema.table_name(), t.rows));
            load->seconds += SecondsBetween(t0, Clock::now());
            load->rows += t.rows.num_rows();
            for (int s = 0; s < db->num_shards(); ++s) {
              DASHDB_ASSIGN_OR_RETURN(
                  auto entry, db->shard_engine(s)->GetTable(
                                  t.schema.schema_name(), t.schema.table_name()));
              if (auto col = std::dynamic_pointer_cast<ColumnTable>(entry->storage)) {
                AddFootprint(*col, load);
              }
            }
          }
          return Status::OK();
        });
  }

  const Script& script(int client) const override { return scripts_[client]; }

  std::vector<const Stmt*> SoloSample() const override {
    return scripts_[0].seq;
  }

 private:
  WorkloadOptions opts_;
  std::vector<Stmt> shapes_;
  std::vector<Script> scripts_;
  std::vector<StarTable> tables_;
};

}  // namespace

std::unique_ptr<Workload> MakeStarAnalytics(const WorkloadOptions& opts) {
  return std::make_unique<StarAnalytics>(opts);
}

std::unique_ptr<Workload> MakeDashboardConcurrent(const WorkloadOptions& opts) {
  return std::make_unique<DashboardConcurrent>(opts);
}

std::unique_ptr<Workload> MakeMppRollup(const WorkloadOptions& opts) {
  return std::make_unique<MppRollup>(opts);
}

}  // namespace dashbench
