// Per-query trace: a tree of spans covering operators (one span per plan
// node) and MPP shards (one span per shard attempt group), annotated with
// row counts, wall/CPU time, and integer attributes (attempts, retries,
// dop, ...).
//
// Determinism contract: span ids are assigned sequentially in creation
// order, and every creation site is deterministic — shards run
// concurrently, but the coordinator adds their spans in shard order once
// all have finished, and the operator tree walk is a fixed pre-order — so
// the same query with the same fault seed yields an identical span tree (ids,
// nesting, names, rows, attrs) across runs. Timing fields are excluded
// from StructureDigest for exactly this reason: wall/CPU time is the one
// thing that never replays.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dashdb {

struct TraceSpan {
  uint32_t id = 0;
  /// Parent span id; kNoParent for roots.
  uint32_t parent = 0;
  std::string name;
  uint64_t rows = 0;
  double wall_seconds = 0;
  double cpu_seconds = 0;
  /// Deterministic integer annotations (attempts, retries, dop, ...).
  std::map<std::string, int64_t> attrs;
};

/// Single-threaded span recorder for one query execution. Not thread-safe:
/// the coordinator owns it and appends shard/operator spans from its own
/// thread once the shards have finished.
class Trace {
 public:
  static constexpr uint32_t kNoParent = 0;  ///< ids start at 1

  /// Appends a span with the next sequential id; returns that id.
  uint32_t AddSpan(const std::string& name, uint32_t parent);

  TraceSpan& span(uint32_t id) { return spans_[id - 1]; }
  const std::vector<TraceSpan>& spans() const { return spans_; }
  bool empty() const { return spans_.empty(); }

  /// Splices another trace's spans under `parent`, remapping the child
  /// trace's ids onto this trace's sequence (used to attach per-shard
  /// operator traces to the coordinator's shard span).
  void Graft(const Trace& sub, uint32_t parent);

  /// Human-readable indented tree with rows/time/attrs per span.
  std::string TreeString() const;

  /// Canonical digest of the replay-stable parts: id, parent, name, rows,
  /// and (when `include_attrs`) the attribute map. Never timing. Two runs
  /// with the same seed must produce equal digests; cross-DOP comparisons
  /// pass include_attrs=false since `dop` itself is an attribute.
  std::string StructureDigest(bool include_attrs = true) const;

 private:
  std::vector<TraceSpan> spans_;
};

}  // namespace dashdb
