#include <algorithm>
#include <cmath>
#include <cstdio>
#include <numeric>
#include <thread>

#include "perfbench.hpp"

namespace perfbench {

namespace {

struct Def {
  const char* name;
  const char* unit;
  bool end_to_end;
};

// Every metric the benchmark prints; BENCHMARK.json lists the same names
// (run.py checks that they agree). End-to-end metrics are printed by
// untraced runs, per-layer metrics by traced runs. A per-layer metric of a
// layer the workload never calls reads 0.
constexpr Def kDefs[] = {
    {"setup_s", "s", true},
    {"p50_us", "us", true},
    {"p99_us", "us", true},
    {"write_p50_us", "us", true},
    {"write_p99_us", "us", true},
    {"ops_per_s", "1/s", true},

    {"op_fail_ratio", "ratio", false},
    {"kv.get_amos", "count", false},
    {"kv.get_rgets", "count", false},
    {"kv.get_hit_us", "us", false},
    {"kv.get_miss_us", "us", false},
    {"kv.put_amos", "count", false},
    {"kv.cache_hit_ratio", "ratio", false},
    {"kv.fleet_cache_hit_ratio", "ratio", false},
    {"kv.read_retry_per_get", "count", false},
    {"kv.fleet_mean_latency_us", "us", false},
    {"kv.fleet_read_p50_us", "us", false},
    {"kv.fleet_read_p99_us", "us", false},
    {"kv.fleet_write_p50_us", "us", false},
    {"kv.fleet_write_p99_us", "us", false},
    {"progress.fiber_switch_per_op", "count", false},
    {"simtime.kv_get_ratio", "ratio", false},
    {"simtime.kv_put_ratio", "ratio", false},
    {"datatype.halo_us", "us", false},
    {"datatype.vectored_op_per_step", "count", false},
    {"datatype.flatten_cache_hit_ratio", "ratio", false},
    {"datatype.host_ns_per_block", "ns", false},
    {"rdma.bulk_put_us", "us", false},
    {"rdma.bulk_put_model_ratio", "ratio", false},
    {"rdma.doorbell_per_step", "count", false},
    {"rdma.batched_op_per_step", "count", false},
    {"rdma.channel_stripe_per_step", "count", false},
    {"rdma.bytes_copied_per_step", "B", false},
    {"rdma.amo_per_step", "count", false},
    {"core.notify_us", "us", false},
    {"core.notify_wait_us", "us", false},
    {"progress.notify_retry", "count", false},
    {"core.amo_burst_us", "us", false},
    {"coll.alltoallv_us", "us", false},
    {"coll.alltoallv_puts", "count", false},
    {"coll.alltoallv_amos", "count", false},
    {"fabric.step_imbalance_us", "us", false},
    {"core.host_small_op_ns", "ns", false},
    {"core.host_put_ns", "ns", false},
    {"core.host_get_ns", "ns", false},
    {"core.host_amo_ns", "ns", false},
    {"core.host_flush_ns", "ns", false},
    {"core.validation_check_per_op", "count", false},
    {"rdma.host_doorbell_per_op", "count", false},
    {"rdma.host_msg_rate_mops", "Mops/s", false},
    {"rdma.host_bytes_copied_per_s", "B/s", false},
    {"rdma.host_bulk_gbps", "GB/s", false},
    {"rdma.pool_grow", "count", false},
    {"rdma.rkey_cache_miss", "count", false},
    {"rdma.op_retried", "count", false},
    {"rdma.op_failed", "count", false},
    {"trace.overhead_ratio", "ratio", false},
    {"trace.host_overhead_ratio", "ratio", false},
    {"trace.events_per_op", "count", false},
    {"trace.dropped", "count", false},
};

/// 17 significant digits: reads back as the same double.
std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt) {
  Stream s(seed ^ (salt * 0xd1b54a32d192ed03ull));
  s.next();
  return s.next();
}

ZipfTable::ZipfTable(std::uint64_t n, double s) : cdf_(n) {
  double acc = 0;
  for (std::uint64_t i = 0; i < n; ++i) {
    acc += 1.0 / std::pow(static_cast<double>(i + 1), s);
    cdf_[i] = acc;
  }
  for (auto& c : cdf_) c /= acc;
}

std::uint64_t ZipfTable::sample(Stream& rng) const {
  const double u = rng.uniform();
  const auto it = std::lower_bound(cdf_.begin(), cdf_.end(), u);
  const auto i = static_cast<std::uint64_t>(it - cdf_.begin());
  return std::min<std::uint64_t>(i, cdf_.size() - 1);
}

double Samples::quantile(double q) {
  if (v_.empty()) return 0;
  if (!sorted_) {
    std::sort(v_.begin(), v_.end());
    sorted_ = true;
  }
  const auto n = static_cast<double>(v_.size());
  auto rank = static_cast<std::size_t>(std::ceil(q * n));
  if (rank < 1) rank = 1;
  return v_[std::min(rank, v_.size()) - 1];
}

double Samples::mean() const {
  if (v_.empty()) return 0;
  return std::accumulate(v_.begin(), v_.end(), 0.0) /
         static_cast<double>(v_.size());
}

std::size_t Samples::beyond(double q) const {
  const auto rank =
      static_cast<std::size_t>(std::ceil(q * static_cast<double>(v_.size())));
  return v_.size() - std::min(rank, v_.size());
}

namespace {

double trimmed_mean(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  if (v.size() > 2) v = std::vector<double>(v.begin() + 1, v.end() - 1);
  if (v.empty()) return 0;
  return std::accumulate(v.begin(), v.end(), 0.0) /
         static_cast<double>(v.size());
}

}  // namespace

double PerRep::across(double q) {
  std::vector<double> per;
  for (auto& s : reps_) {
    if (s.size() > 0) per.push_back(s.quantile(q));
  }
  return trimmed_mean(per);
}

double PerRep::across_mean() {
  std::vector<double> per;
  for (auto& s : reps_) {
    if (s.size() > 0) per.push_back(s.mean());
  }
  return trimmed_mean(per);
}

std::size_t PerRep::size() const {
  std::size_t n = 0;
  for (const auto& s : reps_) n += s.size();
  return n;
}

Samples PerRep::pooled() const {
  Samples all;
  for (const auto& s : reps_) all.append(s);
  return all;
}

Report::Report(const Options& opt) : opt_(opt) {
  for (const auto& d : kDefs) {
    if (d.end_to_end == !opt_.trace) {
      metrics_.push_back(Metric{d.name, 0, d.unit, "", "", 0, false});
    }
  }
}

Report::Metric* Report::find(const std::string& name) {
  for (auto& m : metrics_) {
    if (m.name == name) return &m;
  }
  return nullptr;
}

void Report::set(const std::string& name, double value, const char* kind,
                 std::size_t samples, const std::string& what) {
  Metric* m = find(name);
  if (m == nullptr) {
    // End-to-end metrics are computed in traced runs too (the overhead
    // ratio needs them) but printed only by untraced runs, and vice versa.
    bool known = false;
    for (const auto& d : kDefs) known = known || name == d.name;
    if (!known) {
      std::fprintf(stderr, "perfbench: unknown metric %s\n", name.c_str());
      std::abort();
    }
    return;
  }
  if (!std::isfinite(value)) {
    note("warning: " + name + " is not finite; reported as 0");
    value = 0;
  }
  m->value = value;
  m->kind = kind;
  m->samples = samples;
  m->what = what;
  m->measured = true;
}

void Report::quantiles_us(const std::string& prefix, PerRep& ns,
                          const char* kind, const std::string& what) {
  set(prefix + "p50_us", ns.across(0.5) / 1e3, kind, ns.size(),
      what + " p50");
  set(prefix + "p99_us", ns.across(0.99) / 1e3, kind, ns.size(),
      what + " p99");
  std::size_t tail = ~std::size_t{0};
  std::string per = what + " per repetition (n, p50 us, p99 us):";
  for (int r = 0; r < kReps; ++r) {
    tail = std::min(tail, ns[r].beyond(0.99));
    char buf[96];
    std::snprintf(buf, sizeof buf, " (%zu, %.4g, %.4g)", ns[r].size(),
                  ns[r].quantile(0.5) / 1e3, ns[r].quantile(0.99) / 1e3);
    per += buf;
  }
  note(per);
  if (tail < 10) {
    note("warning: " + what + " p99 rests on " + std::to_string(tail) +
         " samples in one repetition (< 10); run longer");
  }
}

void Report::merge(const Tally& t) {
  std::scoped_lock lock(mu);
  attempted_ += t.attempted;
  failed_ += t.failed;
  if (first_error_.empty()) first_error_ = t.first_error;
}

void Report::note(const std::string& line) {
  std::scoped_lock lock(mu);
  notes_.push_back(line);
}

int Report::finish() {
  const double fail_ratio =
      attempted_ == 0 ? 1.0
                      : static_cast<double>(failed_) /
                            static_cast<double>(attempted_);
  if (opt_.trace) {
    set("op_fail_ratio", fail_ratio, "count", attempted_,
        "failed ops / attempted ops (retired not-ok or failed a check)");
  }
  for (const auto& n : notes_) std::printf("# %s\n", n.c_str());
  std::printf("# %-34s %14s %-6s %-8s %9s  %s\n", "metric", "value", "unit",
              "kind", "samples", "what");
  bool complete = true;
  for (auto& m : metrics_) {
    if (!m.measured) {
      if (!opt_.trace) complete = false;  // every end-to-end metric is due
      m.kind = "n/a";
      m.what = "layer not called by this workload";
    }
    std::printf("# %-34s %14.6g %-6s %-8s %9zu  %s\n", m.name.c_str(),
                m.value, m.unit.c_str(), m.kind.c_str(), m.samples,
                m.what.c_str());
  }
  std::printf("# attempted %llu, failed %llu, op_fail_ratio %.6g\n",
              static_cast<unsigned long long>(attempted_),
              static_cast<unsigned long long>(failed_), fail_ratio);
  if (failed_ > 0) {
    std::printf("# FAILED: %s\n", first_error_.c_str());
  }
  if (!complete) {
    std::printf("# ERROR: an end-to-end metric was not measured\n");
    return 2;
  }

  std::string meta = "{\"workload\": \"" + opt_.workload +
                     "\", \"seed\": " + std::to_string(opt_.seed) +
                     ", \"seconds\": " + num(opt_.seconds) +
                     ", \"trace\": " + (opt_.trace ? "1" : "0") +
                     ", \"ranks\": " + std::to_string(ranks_) +
                     ", \"nproc\": " +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ", \"build_type\": \"" PERFBENCH_BUILD_TYPE
                     "\", \"commit\": \"" + opt_.commit + "\", \"kind\": {";
  std::string out = "{\"correct\": ";
  out += failed_ == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted_) +
         ", \"failed\": " + std::to_string(failed_) + ", \"metrics\": {";
  bool first = true;
  for (const auto& m : metrics_) {
    if (!first) {
      out += ", ";
      meta += ", ";
    }
    first = false;
    out += "\"" + m.name + "\": {\"value\": " + num(m.value) +
           ", \"unit\": \"" + m.unit + "\"}";
    meta += "\"" + m.name + "\": \"" + m.kind + "\"";
  }
  out += "}}";
  meta += "}}";
  std::printf("# meta %s\n%s\n", meta.c_str(), out.c_str());
  std::fflush(stdout);
  return failed_ == 0 ? 0 : 1;
}

}  // namespace perfbench
