// etl_mixed: four clients, each replaying its own synthetic stand-in for the
// paper's financial workload (Table 1 Tests 1-2) over its own schema, in the
// paper's statement mix: INSERT/UPDATE/DROP/SELECT/CREATE/DELETE/WITH/
// EXPLAIN/TRUNCATE. It is the only workload that writes: storage appends and
// deletes, and catalog DDL whose version bumps invalidate the plan cache.
//
// Each client runs a fixed statement count. A closed loop over a time
// window is not stationary here — the tables grow and statements per
// second fall across windows — and a fixed count makes the final state a
// pure function of the seed.
//
// Correctness: while generating a client's stream the benchmark simulates
// its ledger (which base rows are alive, row counts and sums per table), so
// every UPDATE/DELETE's affected_rows and every point lookup's row count is
// known in advance; at the end each table's COUNT/SUM(ID)/SUM(QUANTITY)
// must equal the ledger.
#include <algorithm>
#include <cmath>
#include <cstdio>

#include "bench.h"
#include "catalog/schema.h"

namespace dashbench {

using namespace dashdb;

namespace {

constexpr int kClients = 4;
constexpr int kTables = 6;
constexpr size_t kRowsPerTable = 20000;
/// Statements per client per second of --seconds: sizes the fixed count so
/// the measured part lasts about --seconds on a 4-core host.
constexpr double kStmtsPerClientSecond = 3500;

/// Statement counts of the paper's Test 1, used as mix weights.
constexpr double kMix[] = {86537, 55873, 46383, 44914, 25572, 2453, 12, 12, 5};
enum Kind { kInsertK, kUpdateK, kDropK, kSelectK, kCreateK, kDeleteK, kWithK, kExplainK, kTruncateK };

const char* kStatuses[] = {"OPEN", "SETTLED", "PENDING", "CANCELLED"};

/// Days since 1970-01-01 of a civil date (proleptic Gregorian).
int32_t DaysFromCivil(int y, int m, int d) {
  y -= m <= 2;
  const int era = (y >= 0 ? y : y - 399) / 400;
  const int yoe = y - era * 400;
  const int doy = (153 * (m + (m > 2 ? -3 : 9)) + 2) / 5 + d - 1;
  const int doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

std::string FormatDate(int32_t days) {
  const int z = days + 719468;
  const int era = (z >= 0 ? z : z - 146096) / 146097;
  const int doe = z - era * 146097;
  const int yoe = (doe - doe / 1460 + doe / 36524 - doe / 146096) / 365;
  const int doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
  const int mp = (5 * doy + 2) / 153;
  const int d = doy - (153 * mp + 2) / 5 + 1;
  const int m = mp + (mp < 10 ? 3 : -9);
  const int y = yoe + era * 400 + (m <= 2);
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%04d-%02d-%02d", y, m, d);
  return buf;
}

const int32_t kStartDay = DaysFromCivil(2010, 1, 1);
constexpr int32_t kDays = 7 * 365;  // seven years of positions

TableSchema PositionsSchema(const std::string& schema, int t) {
  return TableSchema(schema, "POSITIONS" + std::to_string(t),
                     {{"ID", TypeId::kInt64, false, 0, false},
                      {"TXN_DATE", TypeId::kDate, true, 0, false},
                      {"ACCOUNT", TypeId::kInt64, true, 0, false},
                      {"INSTRUMENT", TypeId::kInt64, true, 0, false},
                      {"AMOUNT", TypeId::kDouble, true, 0, false},
                      {"QUANTITY", TypeId::kInt64, true, 0, false},
                      {"STATUS", TypeId::kVarchar, true, 0, false},
                      {"BOOK", TypeId::kVarchar, true, 0, false}});
}

/// One base table's rows; `qty` receives QUANTITY by id for the ledger.
RowBatch GeneratePositions(uint64_t seed, int client, int t, size_t rows,
                           std::vector<int64_t>* qty) {
  Rng rng(seed * 1000003 + static_cast<uint64_t>(client) * 101 +
          static_cast<uint64_t>(t));
  const TableSchema schema = PositionsSchema("X", t);
  RowBatch b;
  for (int c = 0; c < schema.num_columns(); ++c) {
    b.columns.emplace_back(schema.column(c).type);
  }
  qty->clear();
  for (size_t i = 0; i < rows; ++i) {
    const int64_t q = rng.Int(10000);
    b.columns[0].AppendInt(static_cast<int64_t>(i));
    // Time-ordered ingest: recent months sit at the end.
    b.columns[1].AppendInt(kStartDay + static_cast<int32_t>(i * kDays / rows));
    b.columns[2].AppendInt(rng.Int(2000));
    b.columns[3].AppendInt(rng.Int(1 + rng.Uniform(500)));  // skewed to small ids
    b.columns[4].AppendDouble(static_cast<double>(rng.Int(2000000)) / 100.0 - 5000);
    b.columns[5].AppendInt(q);
    b.columns[6].AppendString(kStatuses[rng.Uniform(4)]);
    b.columns[7].AppendString("BOOK" + std::to_string(rng.Uniform(20)));
    qty->push_back(q);
  }
  return b;
}

struct Ledger {
  std::vector<int64_t> qty;   ///< base-row QUANTITY by id
  std::vector<bool> alive;    ///< base rows not yet deleted
  int64_t count = 0, sum_id = 0, sum_qty = 0;
};

struct Client {
  std::string schema;
  std::vector<Ledger> tables;
  std::vector<Stmt> stmts;
  std::vector<std::string> staging;  ///< staging tables alive at the end
  Script script;
};

class EtlMixed : public Workload {
 public:
  explicit EtlMixed(const WorkloadOptions& opts) : opts_(opts) {
    rows_ = std::max<size_t>(100, static_cast<size_t>(
                                      std::llround(kRowsPerTable * opts.scale)));
    const size_t warm = static_cast<size_t>(
        std::llround(kStmtsPerClientSecond * WarmupSeconds(opts.seconds)));
    const size_t measured = std::max<size_t>(
        10, static_cast<size_t>(std::llround(kStmtsPerClientSecond * opts.seconds)));
    clients_.resize(kClients);
    for (int c = 0; c < kClients; ++c) {
      Client& cl = clients_[c];
      cl.schema = "C" + std::to_string(c) + "FIN";
      cl.tables.resize(kTables);
      for (int t = 0; t < kTables; ++t) {
        Ledger& l = cl.tables[t];
        GeneratePositions(opts.seed, c, t, rows_, &l.qty);
        l.alive.assign(rows_, true);
        l.count = static_cast<int64_t>(rows_);
        l.sum_id = static_cast<int64_t>(rows_ * (rows_ - 1) / 2);
        for (int64_t q : l.qty) l.sum_qty += q;
      }
      Generate(c, warm + measured);
      for (const Stmt& s : cl.stmts) cl.script.seq.push_back(&s);
      cl.script.warmup = warm;
    }
  }

  int clients() const override { return kClients; }
  bool fixed_count() const override { return true; }

  /// Expectations come from the ledger simulated at generation time.
  Status Prepare() override { return Status::OK(); }

  Result<std::unique_ptr<Target>> Deploy(LoadStats* load) override {
    return DeploySingleNode(kClients, [&](Engine* e) -> Status {
      for (int c = 0; c < kClients; ++c) {
        DASHDB_RETURN_IF_ERROR(e->catalog()->CreateSchema(clients_[c].schema));
        for (int t = 0; t < kTables; ++t) {
          std::vector<int64_t> qty;
          const RowBatch rows = GeneratePositions(opts_.seed, c, t, rows_, &qty);
          DASHDB_ASSIGN_OR_RETURN(
              auto table,
              e->CreateColumnTable(PositionsSchema(clients_[c].schema, t)));
          const auto t0 = Clock::now();
          DASHDB_RETURN_IF_ERROR(table->Load(rows));
          load->seconds += SecondsBetween(t0, Clock::now());
          load->rows += rows.num_rows();
          load->raw_bytes += static_cast<double>(table->RawBytes());
          load->compressed_bytes += static_cast<double>(table->CompressedBytes());
        }
      }
      return Status::OK();
    });
  }

  const Script& script(int client) const override {
    return clients_[client].script;
  }

  /// Read-only statements of client 0 whose results do not matter to the
  /// ledger, so they can repeat after the run.
  std::vector<const Stmt*> SoloSample() const override {
    std::vector<const Stmt*> out;
    for (const Stmt* s : clients_[0].script.seq) {
      if (s->cls == StmtClass::kRead && s->check == Stmt::Check::kNone) {
        out.push_back(s);
        if (out.size() == 12) break;
      }
    }
    return out;
  }

  Status VerifyFinalState(Target* target, std::string* digest) override {
    uint64_t h = 0xcbf29ce484222325ull;
    for (int c = 0; c < kClients; ++c) {
      const Client& cl = clients_[c];
      for (int t = 0; t < kTables; ++t) {
        const Ledger& l = cl.tables[t];
        const std::string name = TableName(c, t);
        DASHDB_ASSIGN_OR_RETURN(
            QueryResult sums,
            target->Execute(c, "SELECT COUNT(*) AS N, SUM(ID) AS SID, "
                               "SUM(QUANTITY) AS SQ FROM " + name));
        const int64_t n = sums.rows.columns[0].GetValue(0).AsInt();
        const int64_t sid = sums.rows.columns[1].GetValue(0).AsInt();
        const int64_t sq = sums.rows.columns[2].GetValue(0).AsInt();
        if (n != l.count || sid != l.sum_id || sq != l.sum_qty) {
          return Status::Internal(
              name + ": final COUNT/SUM(ID)/SUM(QUANTITY) = " +
              std::to_string(n) + "/" + std::to_string(sid) + "/" +
              std::to_string(sq) + ", ledger " + std::to_string(l.count) + "/" +
              std::to_string(l.sum_id) + "/" + std::to_string(l.sum_qty));
        }
        DASHDB_ASSIGN_OR_RETURN(
            QueryResult all,
            target->Execute(c, "SELECT * FROM " + name + " ORDER BY ID"));
        h = (h ^ ResultChecksum(all)) * 0x100000001b3ull;
      }
      for (const std::string& s : cl.staging) {
        DASHDB_ASSIGN_OR_RETURN(
            QueryResult r, target->Execute(c, "SELECT COUNT(*) AS N FROM " + s));
        if (r.rows.columns[0].GetValue(0).AsInt() != 0) {
          return Status::Internal(s + ": staging table is not empty");
        }
      }
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
    *digest = buf;
    return Status::OK();
  }

 private:
  std::string TableName(int c, int t) const {
    return clients_[c].schema + ".POSITIONS" + std::to_string(t);
  }

  /// Emits client `c`'s stream in the paper's mix, updating the ledger as
  /// the statements will when run in order.
  void Generate(int c, size_t n) {
    Client& cl = clients_[c];
    Rng rng(opts_.seed * 7919 + static_cast<uint64_t>(c) + 99);
    double total = 0;
    for (double w : kMix) total += w;
    const int32_t end_day = kStartDay + kDays;
    int staging_seq = 0;
    std::vector<std::string> staging;
    int64_t next_id = static_cast<int64_t>(rows_);
    auto recent = [&] { return end_day - static_cast<int32_t>(rng.Uniform(120)); };
    auto add = [&](std::string sql, StmtClass cls, Stmt::Check check = Stmt::Check::kNone,
                   int64_t expect = 0) {
      Stmt st;
      st.sql = std::move(sql);
      st.cls = cls;
      st.check = check;
      st.expect = expect;
      cl.stmts.push_back(std::move(st));
    };
    auto create_staging = [&] {
      std::string name = cl.schema + ".STAGING" + std::to_string(staging_seq++);
      staging.push_back(name);
      add("CREATE TABLE " + name + " (K BIGINT, V DOUBLE, NOTE VARCHAR(20))",
          StmtClass::kDdl);
    };
    cl.stmts.reserve(n);
    for (size_t i = 0; i < n; ++i) {
      double pick = static_cast<double>(rng.Next() >> 11) * 0x1.0p-53 * total;
      int kind = 0;
      for (; kind < 8; ++kind) {
        if (pick < kMix[kind]) break;
        pick -= kMix[kind];
      }
      const int t = static_cast<int>(rng.Uniform(kTables));
      Ledger& l = cl.tables[t];
      const std::string table = TableName(c, t);
      switch (kind) {
        case kInsertK: {
          const int64_t id = next_id++;
          const int64_t q = rng.Int(100);
          add("INSERT INTO " + table + " VALUES (" + std::to_string(id) +
                  ", DATE '" + FormatDate(recent()) + "', " +
                  std::to_string(rng.Uniform(2000)) + ", " +
                  std::to_string(rng.Uniform(500)) + ", " +
                  std::to_string(rng.Uniform(10000)) + ".25, " +
                  std::to_string(q) + ", 'OPEN', 'BOOK1')",
              StmtClass::kWrite, Stmt::Check::kAffected, 1);
          ++l.count;
          l.sum_id += id;
          l.sum_qty += q;
          break;
        }
        case kUpdateK: {
          const size_t x = rng.Uniform(rows_);
          add("UPDATE " + table +
                  " SET STATUS = 'SETTLED', AMOUNT = AMOUNT * 1.01 WHERE ID = " +
                  std::to_string(x),
              StmtClass::kWrite, Stmt::Check::kAffected, l.alive[x] ? 1 : 0);
          break;
        }
        case kDeleteK: {
          const size_t x = rng.Uniform(rows_);
          add("DELETE FROM " + table + " WHERE ID = " + std::to_string(x),
              StmtClass::kWrite, Stmt::Check::kAffected, l.alive[x] ? 1 : 0);
          if (l.alive[x]) {
            l.alive[x] = false;
            --l.count;
            l.sum_id -= static_cast<int64_t>(x);
            l.sum_qty -= l.qty[x];
          }
          break;
        }
        case kSelectK: {
          const int shape = static_cast<int>(rng.Uniform(4));
          if (shape == 0) {  // the long-running class: recent-window rollup
            add("SELECT STATUS, COUNT(*) AS N, SUM(AMOUNT) AS AMT, "
                "AVG(QUANTITY) AS AVGQ FROM " + table +
                    " WHERE TXN_DATE >= DATE '" + FormatDate(recent() - 90) +
                    "' GROUP BY STATUS ORDER BY STATUS",
                StmtClass::kRead);
          } else if (shape == 1) {
            add("SELECT ACCOUNT, SUM(AMOUNT) AS TOTAL FROM " + table +
                    " WHERE INSTRUMENT < 50 GROUP BY ACCOUNT "
                    "ORDER BY TOTAL DESC, ACCOUNT LIMIT 10",
                StmtClass::kRead);
          } else if (shape == 2) {  // point lookup: the ledger knows the answer
            const size_t x = rng.Uniform(rows_);
            add("SELECT * FROM " + table + " WHERE ID = " + std::to_string(x),
                StmtClass::kRead, Stmt::Check::kRows, l.alive[x] ? 1 : 0);
          } else {
            add("SELECT COUNT(*) AS N FROM " + table +
                    " WHERE AMOUNT BETWEEN 0 AND 500 AND STATUS = 'OPEN'",
                StmtClass::kRead);
          }
          break;
        }
        case kDropK:
          if (staging.empty()) {
            create_staging();
          } else {
            add("DROP TABLE " + staging.back(), StmtClass::kDdl);
            staging.pop_back();
          }
          break;
        case kCreateK:
          create_staging();
          break;
        case kWithK:
          add("WITH recent AS (SELECT ACCOUNT, AMOUNT FROM " + table +
                  " WHERE TXN_DATE >= DATE '" + FormatDate(recent() - 30) +
                  "') SELECT COUNT(*) AS N, SUM(AMOUNT) AS AMT FROM recent",
              StmtClass::kRead);
          break;
        case kExplainK:
          add("EXPLAIN SELECT STATUS, COUNT(*) FROM " + table +
                  " GROUP BY STATUS",
              StmtClass::kExplain);
          break;
        default:  // TRUNCATE
          if (staging.empty()) {
            create_staging();
          } else {
            add("TRUNCATE TABLE " + staging.back(), StmtClass::kDdl);
          }
          break;
      }
    }
    cl.staging = std::move(staging);
  }

  WorkloadOptions opts_;
  size_t rows_;
  std::vector<Client> clients_;
};

}  // namespace

std::unique_ptr<Workload> MakeEtlMixed(const WorkloadOptions& opts) {
  return std::make_unique<EtlMixed>(opts);
}

}  // namespace dashbench
