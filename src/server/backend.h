// Backend abstraction behind the wire server: the server speaks frames,
// a backend executes statements. Two implementations:
//
//  - EngineBackend: fronts one single-node Engine. Sessions are the cheap
//    per-connection Session objects (knobs + current-query pointer); all
//    shared state (catalog, bufferpool, admission, plan cache, metrics)
//    lives in the Engine, so any number of connections execute
//    concurrently.
//  - MppBackend: fronts an MppDatabase. MppDatabase::Execute is
//    thread-safe (queries run concurrently, writes alone), so connections
//    execute concurrently here too; each wire session gets its own cancel
//    handle via the governed Execute overload, so CANCEL/disconnect aborts
//    a statement that waits for the database lock or is mid-flight.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "common/dialect.h"
#include "common/status.h"
#include "sql/engine.h"

namespace dashdb {

class MppDatabase;

/// One connection's execution state. Calls arrive one at a time (the
/// server runs a connection's statements FIFO) except Cancel, which may
/// arrive from any thread at any moment.
class BackendSession {
 public:
  virtual ~BackendSession() = default;

  virtual Status SetDialect(Dialect d) = 0;
  virtual Result<QueryResult> Execute(const std::string& sql) = 0;
  virtual Result<int> Prepare(const std::string& name,
                              const std::string& sql) = 0;
  virtual Result<QueryResult> ExecutePrepared(const std::string& name,
                                              std::vector<Value> params) = 0;

  /// Aborts the statement currently executing on this session, if any.
  /// Thread-safe; returns whether one was running.
  virtual bool Cancel() = 0;
};

class SqlBackend {
 public:
  virtual ~SqlBackend() = default;
  virtual std::unique_ptr<BackendSession> CreateSession() = 0;
};

class EngineBackend : public SqlBackend {
 public:
  explicit EngineBackend(Engine* engine) : engine_(engine) {}
  std::unique_ptr<BackendSession> CreateSession() override;

 private:
  Engine* engine_;
};

class MppBackend : public SqlBackend {
 public:
  explicit MppBackend(MppDatabase* db) : db_(db) {}
  std::unique_ptr<BackendSession> CreateSession() override;

 private:
  friend class MppBackendSession;
  MppDatabase* db_;
};

}  // namespace dashdb
