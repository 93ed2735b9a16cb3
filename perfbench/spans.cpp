#include "spans.hpp"

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <map>
#include <unordered_map>

namespace perfbench {

void SpanLog::record(const char* name, std::uint64_t t0, std::uint64_t t1,
                     std::uint64_t id, std::uint64_t parent,
                     std::uint64_t op) {
  durations(name).add(static_cast<double>(t1 - t0));
  if (spans_.size() < cap_) {
    spans_.push_back(Span{name, t0, t1, id, parent, op, rank_});
  } else {
    ++dropped_;
  }
}

Samples& SpanLog::durations(const char* name) {
  for (auto& [n, s] : by_name_) {
    if (n == name || std::strcmp(n, name) == 0) return s;
  }
  by_name_.emplace_back(name, Samples{});
  return by_name_.back().second;
}

namespace {

/// Writes the spans of `logs` as trace-event JSON to `path` and prints the
/// self time per span name (a span's duration minus its children's) as
/// `#` comment lines. Returns false when the file cannot be written.
bool write_spans(const std::vector<SpanLog>& logs, const std::string& path) {
  std::uint64_t origin = ~std::uint64_t{0};
  std::unordered_map<std::uint64_t, std::uint64_t> child_ns;  // by parent id
  std::uint64_t dropped = 0;
  for (const auto& l : logs) {
    dropped += l.dropped();
    for (const auto& s : l.spans()) {
      origin = std::min(origin, s.start_ns);
      if (s.parent != 0) child_ns[s.parent] += s.end_ns - s.start_ns;
    }
  }
  struct Self {
    double total_ns = 0, self_ns = 0;
    std::size_t n = 0;
  };
  std::map<std::string, Self> self;
  std::error_code ec;
  std::filesystem::create_directories(
      std::filesystem::path(path).parent_path(), ec);
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n");
  bool first = true;
  for (const auto& l : logs) {
    for (const auto& s : l.spans()) {
      const std::uint64_t dur = s.end_ns - s.start_ns;
      const auto it = child_ns.find(s.id);
      const std::uint64_t kids = it == child_ns.end() ? 0 : it->second;
      auto& agg = self[s.name];
      agg.total_ns += static_cast<double>(dur);
      agg.self_ns += static_cast<double>(dur > kids ? dur - kids : 0);
      ++agg.n;
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": %d, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %llu, \"parent\": %llu, \"op\": %llu}}",
                   first ? "" : ",\n", s.name, s.rank,
                   static_cast<double>(s.start_ns - origin) / 1e3,
                   static_cast<double>(dur) / 1e3,
                   static_cast<unsigned long long>(s.id),
                   static_cast<unsigned long long>(s.parent),
                   static_cast<unsigned long long>(s.op));
      first = false;
    }
  }
  std::fprintf(f, "\n]}\n");
  const bool ok = std::fclose(f) == 0;
  std::printf("# spans: %s (%llu dropped past the per-rank cap)\n",
              path.c_str(), static_cast<unsigned long long>(dropped));
  std::printf("# %-24s %10s %14s %14s\n", "span", "count", "mean_us",
              "mean_self_us");
  for (const auto& [name, a] : self) {
    std::printf("# %-24s %10zu %14.3f %14.3f\n", name.c_str(), a.n,
                a.total_ns / 1e3 / static_cast<double>(a.n),
                a.self_ns / 1e3 / static_cast<double>(a.n));
  }
  return ok;
}

}  // namespace

Tracing::Tracing(int ranks, bool on) {
  if (!on) return;
  fompi::trace::TraceSession::Config tc;
  tc.ring_capacity = std::size_t{1} << 18;
  tc.postmortem_path.clear();
  session_ = std::make_unique<fompi::trace::TraceSession>(ranks, tc);
  for (int r = 0; r < ranks; ++r) logs_.emplace_back(r, 20000);
}

void Tracing::bind(int rank, bool traced) {
  fompi::trace::bind_thread(traced ? &session_->ring(rank) : nullptr);
}

void Tracing::set_median(Report& rep, const char* metric, const char* name,
                         double scale, const char* kind,
                         const std::string& what) {
  Samples all;
  for (auto& l : logs_) all.append(l.durations(name));
  rep.set(metric, all.quantile(0.5) / 1e3 * scale, kind, all.size(),
          what + " (median of span " + name + ")");
}

void Tracing::set_trace_metrics(Report& rep, std::uint64_t ops,
                                double overhead_ratio) {
  rep.set("trace.overhead_ratio", overhead_ratio, "count", 0,
          "traced / untraced p50 of the workload's headline call");
  const double events = static_cast<double>(session_->total_events() +
                                            session_->total_dropped());
  rep.set("trace.events_per_op",
          ops == 0 ? 0 : events / static_cast<double>(ops), "count", ops,
          "program trace events recorded or dropped per traced op");
  rep.set("trace.dropped", static_cast<double>(session_->total_dropped()),
          "count", 0, "program trace events dropped on full rings");
}

void Tracing::write(Report& rep, const Options& opt, const std::string& name) {
  if (!write_spans(logs_, opt.out_dir + "/" + name + ".spans.json")) {
    rep.note("warning: could not write the span file under " + opt.out_dir);
  }
}

void report_health(Report& rep, const fompi::OpCounters& d) {
  using fompi::Op;
  const auto set = [&](const char* name, Op op, const char* what) {
    rep.set(name, static_cast<double>(d.get(op)), "count", 0, what);
  };
  set("rdma.pool_grow", Op::pool_grow, "NIC pool growths in timed phases");
  set("rdma.rkey_cache_miss", Op::rkey_cache_miss,
      "rkey resolves that took the registry lock in timed phases");
  set("rdma.op_retried", Op::op_retried, "NIC retransmissions");
  set("rdma.op_failed", Op::op_failed, "ops retired with a failure status");
}

void add_counters(fompi::OpCounters& into, const fompi::OpCounters& d) {
  for (int i = 0; i < static_cast<int>(fompi::Op::kCount); ++i) {
    const auto op = static_cast<fompi::Op>(i);
    into.add(op, d.get(op));
  }
}

}  // namespace perfbench
