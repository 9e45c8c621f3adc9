#include "server/backend.h"

#include <mutex>

#include "common/query_context.h"
#include "mpp/mpp.h"

namespace dashdb {

namespace {

class EngineBackendSession : public BackendSession {
 public:
  EngineBackendSession(Engine* engine, std::shared_ptr<Session> session)
      : engine_(engine), session_(std::move(session)) {}

  Status SetDialect(Dialect d) override {
    session_->set_dialect(d);
    return Status::OK();
  }

  Result<QueryResult> Execute(const std::string& sql) override {
    return engine_->Execute(session_.get(), sql);
  }

  Result<int> Prepare(const std::string& name,
                      const std::string& sql) override {
    return engine_->Prepare(session_.get(), name, sql);
  }

  Result<QueryResult> ExecutePrepared(const std::string& name,
                                      std::vector<Value> params) override {
    return engine_->ExecutePrepared(session_.get(), name, std::move(params));
  }

  bool Cancel() override { return session_->CancelCurrentQuery(); }

 private:
  Engine* engine_;
  std::shared_ptr<Session> session_;
};

}  // namespace

std::unique_ptr<BackendSession> EngineBackend::CreateSession() {
  return std::make_unique<EngineBackendSession>(engine_,
                                                engine_->CreateSession());
}

class MppBackendSession : public BackendSession {
 public:
  explicit MppBackendSession(MppBackend* backend) : backend_(backend) {}

  Status SetDialect(Dialect d) override {
    // Shard sessions are created inside MppDatabase per statement; only the
    // default dialect is supported over this backend for now.
    if (d != Dialect::kAnsi) {
      return Status::Unimplemented("MPP backend serves the ANSI dialect only");
    }
    return Status::OK();
  }

  Result<QueryResult> Execute(const std::string& sql) override {
    auto qc = std::make_shared<QueryContext>();
    {
      std::lock_guard<std::mutex> lk(mu_);
      current_ = qc;
    }
    // Published first, so a CANCEL (or disconnect) that lands while the
    // statement waits for the database lock marks the context, and the
    // governed Execute aborts at its first liveness check.
    Result<MppQueryResult> r = backend_->db_->Execute(sql, qc);
    {
      std::lock_guard<std::mutex> lk(mu_);
      current_.reset();
    }
    if (!r.ok()) return r.status();
    return std::move(r).value().result;
  }

  Result<int> Prepare(const std::string&, const std::string&) override {
    return Status::Unimplemented("PREPARE is not supported over MPP backend");
  }

  Result<QueryResult> ExecutePrepared(const std::string&,
                                      std::vector<Value>) override {
    return Status::Unimplemented("EXECUTE is not supported over MPP backend");
  }

  bool Cancel() override {
    std::lock_guard<std::mutex> lk(mu_);
    if (!current_) return false;
    current_->Cancel();
    return true;
  }

 private:
  MppBackend* backend_;
  std::mutex mu_;
  std::shared_ptr<QueryContext> current_;
};

std::unique_ptr<BackendSession> MppBackend::CreateSession() {
  return std::make_unique<MppBackendSession>(this);
}

}  // namespace dashdb
