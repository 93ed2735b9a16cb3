// Benchmark-side spans for the traced run.
//
// Each rank thread owns one SpanLog. The benchmark opens a span around each
// call it makes into a layer (kv.get, coll.alltoallv, ...) and around the
// phase or step that contains those calls, so every span carries its parent
// and the id of the op it belongs to. Durations are kept per span name
// (uncapped, for the per-layer metrics); the span records themselves are
// capped and written at exit as Perfetto-loadable trace-event JSON.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/instr.hpp"
#include "common/timing.hpp"
#include "perfbench.hpp"
#include "trace/trace.hpp"

namespace perfbench {

struct Span {
  const char* name;
  std::uint64_t start_ns, end_ns;
  std::uint64_t id, parent, op;
  int rank;
};

class SpanLog {
 public:
  SpanLog(int rank, std::size_t cap) : rank_(rank), cap_(cap) {}

  std::uint64_t next_id() {
    return (static_cast<std::uint64_t>(rank_ + 1) << 48) | ++ids_;
  }
  void record(const char* name, std::uint64_t t0, std::uint64_t t1,
              std::uint64_t id, std::uint64_t parent, std::uint64_t op);
  /// Durations (ns) of every span named `name` recorded so far.
  Samples& durations(const char* name);

  const std::vector<Span>& spans() const { return spans_; }
  std::uint64_t dropped() const { return dropped_; }

 private:
  int rank_;
  std::size_t cap_;
  std::uint64_t ids_ = 0, dropped_ = 0;
  std::vector<Span> spans_;
  std::vector<std::pair<const char*, Samples>> by_name_;
};

/// RAII span; a null log makes it a no-op (untraced runs).
class Scope {
 public:
  Scope(SpanLog* log, const char* name, std::uint64_t parent,
        std::uint64_t op)
      : log_(log), name_(name), parent_(parent), op_(op) {
    if (log_ != nullptr) {
      id_ = log_->next_id();
      if (op_ == 0) op_ = id_;  // a top-level call is its own op
      t0_ = fompi::now_ns();
    }
  }
  ~Scope() {
    if (log_ != nullptr) {
      log_->record(name_, t0_, fompi::now_ns(), id_, parent_, op_);
    }
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  SpanLog* log_;
  const char* name_;
  std::uint64_t parent_, op_;
  std::uint64_t id_ = 0, t0_ = 0;
};

/// Trace state of one run. Traced runs install a trace::TraceSession (so
/// the program's own events are counted) and one SpanLog per rank; rank
/// threads stay unbound from the session except while a traced half runs.
class Tracing {
 public:
  Tracing(int ranks, bool on);

  /// The rank's span log in a traced half, else null (no spans).
  SpanLog* log(int rank, bool traced) {
    return traced ? &logs_[static_cast<std::size_t>(rank)] : nullptr;
  }
  /// Binds the calling rank thread to its event ring, or unbinds it.
  void bind(int rank, bool traced);
  /// Sets metric `metric` to `scale` x the median duration (us) of the
  /// spans named `name` over all ranks.
  void set_median(Report& rep, const char* metric, const char* name,
                  double scale, const char* kind, const std::string& what);
  /// Sets the trace.* metrics (`ops` = ops issued in traced halves).
  void set_trace_metrics(Report& rep, std::uint64_t ops,
                         double overhead_ratio);
  /// Writes the span file `<out_dir>/<name>.spans.json`.
  void write(Report& rep, const Options& opt, const std::string& name);

 private:
  std::unique_ptr<fompi::trace::TraceSession> session_;
  std::vector<SpanLog> logs_;
};

/// Sets the steady-state health metrics (expected 0) from the counter
/// delta of the timed phases, summed over ranks.
void report_health(Report& rep, const fompi::OpCounters& d);
/// Adds every counter of `d` into `into`.
void add_counters(fompi::OpCounters& into, const fompi::OpCounters& d);

}  // namespace perfbench
