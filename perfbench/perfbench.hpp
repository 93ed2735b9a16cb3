// Shared pieces of the benchmark: options, the seeded op-stream generator,
// exact-quantile sample sets, pass/fail tallies and the report that prints
// every metric with its unit and kind.
//
// Metric kinds: "modeled" numbers are wall time under Injection::model (the
// NIC busy-waits the Gemini cost model, so wall time tracks modeled time);
// "host" numbers are software time under Injection::none; "count" numbers
// are op-counter deltas or ratios of them.
#pragma once

#include <array>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace fompi::kv {
struct KvConfig;
}

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string commit = "unknown";
  std::string out_dir = ".bench_build/perfbench-out";
};

/// splitmix64 stream. The benchmark draws its op streams from this, not
/// from the library's RNG, so a library change cannot alter the inputs.
class Stream {
 public:
  explicit Stream(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  std::uint64_t below(std::uint64_t n) { return next() % n; }

 private:
  std::uint64_t s_;
};

/// Derives an independent seed for one use (`salt`) of the workload seed.
std::uint64_t mix_seed(std::uint64_t seed, std::uint64_t salt);

/// Zipf(s) sampler over [0, n) by inverse CDF (binary search over the
/// cumulative weights); rank 0 is the hottest.
class ZipfTable {
 public:
  ZipfTable(std::uint64_t n, double s);
  std::uint64_t sample(Stream& rng) const;

 private:
  std::vector<double> cdf_;
};

/// Raw samples with exact (nearest-rank) quantiles.
class Samples {
 public:
  void add(double v) { v_.push_back(v); }
  void append(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
  }
  std::size_t size() const { return v_.size(); }
  double quantile(double q);
  double mean() const;
  /// Samples ranked strictly above quantile q (the tail a percentile
  /// rests on).
  std::size_t beyond(double q) const;

 private:
  std::vector<double> v_;
  bool sorted_ = false;
};

/// Repetitions per run: each sets the workload up afresh, so setup_s is a
/// median over them.
inline constexpr int kReps = 7;

/// Samples kept per repetition. A quantile is computed exactly within each
/// repetition; the metric is the mean of those per-repetition values after
/// dropping the lowest and the highest. One disturbed repetition cannot
/// move it, and the host's load swings (10-30% over seconds on a shared
/// machine) average out over the rest.
class PerRep {
 public:
  Samples& operator[](int rep) { return reps_[static_cast<std::size_t>(rep)]; }
  /// Trimmed mean over repetitions of the per-repetition quantile q.
  double across(double q);
  /// Trimmed mean over repetitions of the per-repetition mean.
  double across_mean();
  std::size_t size() const;
  Samples pooled() const;

 private:
  std::array<Samples, kReps> reps_;
};

/// Ops attempted and failed on one rank thread, merged into the Report.
struct Tally {
  std::uint64_t attempted = 0, failed = 0;
  std::string first_error;
  /// Counts one op; `ok` false counts it failed and keeps the first reason.
  bool op(bool ok, const std::string& what) {
    ++attempted;
    if (!ok) {
      ++failed;
      if (first_error.empty()) first_error = what;
    }
    return ok;
  }
  /// Counts `n` ops of which `bad` failed.
  void ops(std::uint64_t n, std::uint64_t bad, const std::string& what) {
    attempted += n;
    failed += bad;
    if (bad > 0 && first_error.empty()) first_error = what;
  }
};

class Report {
 public:
  /// Lists the metrics this mode prints: end-to-end ones untraced,
  /// per-layer ones traced.
  explicit Report(const Options& opt);

  /// Records one metric. `kind` is modeled | host | count; `samples` is the
  /// sample count behind it (0 when not a sample statistic); `what` says
  /// what was measured.
  void set(const std::string& name, double value, const char* kind,
           std::size_t samples, const std::string& what);
  /// Sets p50 and p99 metrics named `<prefix>p50_us` / `<prefix>p99_us`
  /// from ns samples; warns when a repetition has fewer than 10 samples
  /// beyond its p99.
  void quantiles_us(const std::string& prefix, PerRep& ns, const char* kind,
                    const std::string& what);
  void merge(const Tally& t);
  void note(const std::string& line);
  void set_ranks(int ranks) { ranks_ = ranks; }

  /// Prints the human-readable table, the metadata line and, last, the
  /// one-line JSON result. Returns the process exit code.
  int finish();

  std::mutex mu;  ///< guards merges from rank threads

 private:
  struct Metric {
    std::string name;
    double value = 0;
    std::string unit, kind, what;
    std::size_t samples = 0;
    bool measured = false;
  };
  Metric* find(const std::string& name);

  const Options& opt_;
  std::vector<Metric> metrics_;
  std::vector<std::string> notes_;
  std::uint64_t attempted_ = 0, failed_ = 0;
  std::string first_error_;
  int ranks_ = 0;
};

/// Workload entry points (kv_workload.cpp, rma_workload.cpp).
void run_kv(const Options& opt, Report& rep);
void run_rma_step(const Options& opt, Report& rep);

/// The KV store the kv_* workloads and the count probes run against.
fompi::kv::KvConfig kv_store_config();

/// Single-issuer per-call op counts; a pure function of the seed.
struct Counts {
  std::uint64_t get_miss_amos = 0, get_miss_rgets = 0, get_hit_amos = 0;
  std::uint64_t put_amos = 0;
  std::uint64_t a2av_puts = 0, a2av_amos = 0;
  std::uint64_t pool_grow = 0;  ///< over the probed calls, after warm-up
  bool values_ok = false;       ///< every probed get returned its put
  bool operator==(const Counts&) const = default;
};
/// Runs the probes (3 ranks, Injection::none; rank 0 issues alone).
Counts probe_counts(std::uint64_t seed);

}  // namespace perfbench
