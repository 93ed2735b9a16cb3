// kv_read99 / kv_write50: the sharded KV store (src/kv) under the modeled
// Gemini network, 3 rank threads, Zipf(0.9) keys over 4096 pre-seeded keys.
//
// One repetition: construct the store, seed every key to key*31+7 (the
// value run_fleet writes), run one warm-up fleet pass on a seed of its own
// (setup_s ends here), then
//   1. timed fleet passes: KvStore::run_fleet, closed loop, 8 fibers per
//      rank, timed between barriers -> ops_per_s (median pass);
//   2. a timed blocking phase: one closed-loop client per rank calling
//      KvStore::get / put, every call timed -> p50/p99 and write_p50/p99;
//   3. a read-back that compares every key with its writer's last value.
// In the blocking phase key k is written only by rank (k-1)%3, with values
// tagged by the key, so every read can be checked.
#include <algorithm>
#include <functional>

#include "common/instr.hpp"
#include "kv/kv.hpp"
#include "simtime/sim_kv.hpp"
#include "spans.hpp"
#include "trace/trace.hpp"

namespace perfbench {

namespace {

using fompi::Op;
using fompi::OpCounters;
using fompi::now_ns;
using fompi::fabric::RankCtx;
using fompi::kv::KvStore;
using fompi::rdma::OpStatus;

constexpr int kRanks = 3;
constexpr std::uint64_t kKeys = 4096;
constexpr int kFibers = 8;
constexpr double kZipfS = 0.9;
constexpr double kFleetShare = 0.4;  // of a repetition's time budget

struct Mix {
  double read_ratio;
  int fleet_ops_per_rank;  ///< one timed pass, ~0.1-0.3 s
};

Mix mix_of(const std::string& workload) {
  return workload == "kv_read99" ? Mix{0.99, 40000} : Mix{0.50, 12000};
}

std::uint64_t seed_value(std::uint64_t key) { return key * 31 + 7; }
int writer_of(std::uint64_t key) {
  return static_cast<int>((key - 1) % kRanks);
}
/// The key next to `key` that `rank` writes.
std::uint64_t own_key(std::uint64_t key, int rank) {
  std::uint64_t i = (key - 1) - (key - 1) % kRanks +
                    static_cast<std::uint64_t>(rank);
  if (i >= kKeys) i -= kRanks;
  return i + 1;
}
/// Values a reader may see: the seed/fleet value or a key-tagged write.
bool plausible(std::uint64_t key, std::uint64_t v) {
  return v == seed_value(key) || ((v >> 32) == key && (v & 0xffffffffu) != 0);
}

/// Per-layer tallies of one rank (traced half only).
struct Layers {
  std::uint64_t gets = 0, get_amos = 0, get_rgets = 0, hits = 0,
                retries = 0, puts = 0, put_amos = 0;
  Samples hit_ns, miss_ns;
  std::uint64_t fleet_ops = 0, fleet_reads = 0, fleet_hits = 0,
                fiber_switch = 0;
  fompi::trace::LatencyHisto fleet_read, fleet_write;
  OpCounters health;  ///< whole-phase delta (pool_grow, retries, ...)
};

/// One measured half (untraced, or traced) of all repetitions.
struct Half {
  PerRep get_ns, put_ns, fleet_rate;
};

struct Run {
  Run(const Options& o, Report& r, Tracing& t)
      : opt(o), mix(mix_of(o.workload)), rep(r), tracing(t) {}
  const Options& opt;
  Mix mix;
  Report& rep;
  Samples setup_s;
  Half plain, traced;
  Layers layers;  ///< of the traced halves
  Tracing& tracing;
  std::mutex mu;
};

void add_layers(Layers& into, const Layers& l) {
  into.gets += l.gets;
  into.get_amos += l.get_amos;
  into.get_rgets += l.get_rgets;
  into.hits += l.hits;
  into.retries += l.retries;
  into.puts += l.puts;
  into.put_amos += l.put_amos;
  into.hit_ns.append(l.hit_ns);
  into.miss_ns.append(l.miss_ns);
  into.fleet_ops += l.fleet_ops;
  into.fleet_reads += l.fleet_reads;
  into.fleet_hits += l.fleet_hits;
  into.fiber_switch += l.fiber_switch;
  into.fleet_read.merge(l.fleet_read);
  into.fleet_write.merge(l.fleet_write);
  add_counters(into.health, l.health);
}

KvStore::FleetConfig fleet_config(const Run& run, std::uint64_t seed) {
  KvStore::FleetConfig fc;
  fc.ops_per_rank = run.mix.fleet_ops_per_rank;
  fc.fibers = kFibers;
  fc.read_ratio = run.mix.read_ratio;
  fc.keyspace = kKeys;
  fc.zipf_s = kZipfS;
  fc.seed = seed;
  return fc;
}

void check_fleet(const KvStore::FleetResult& f, Tally& tally) {
  tally.op(f.issued == f.ok_ops + f.peer_dead + f.retry_routing +
                           f.data_loss + f.failed_other,
           "fleet retirement identity broken");
  tally.ops(f.issued, f.issued - std::min(f.ok_ops, f.issued),
            "fleet op retired not-ok");
}

/// Timed fleet passes until `deadline_ns` (rank 0 decides for everyone).
void fleet_phase(Run& run, RankCtx& ctx, KvStore& store, Samples& rates,
                 Layers& lay, SpanLog* log, std::uint64_t budget_ns,
                 std::uint64_t salt, Tally& tally) {
  const std::uint64_t deadline = now_ns() + budget_ns;
  for (std::uint64_t pass = 0;; ++pass) {
    int more = ctx.rank() == 0 && (pass == 0 || now_ns() < deadline);
    ctx.bcast(0, &more, 1);
    if (more == 0) break;
    const auto fc = fleet_config(run, mix_seed(run.opt.seed, salt + pass));
    ctx.barrier();
    const std::uint64_t t0 = now_ns();
    const OpCounters c0 = fompi::op_counters();
    KvStore::FleetResult res;
    {
      Scope span(log, "kv.run_fleet", 0, 0);
      res = store.run_fleet(ctx, fc);
    }
    const OpCounters d = fompi::op_counters().since(c0);
    ctx.barrier();
    const std::uint64_t t1 = now_ns();
    check_fleet(res, tally);
    std::uint64_t mine = res.reads + res.writes, all = 0;
    ctx.allreduce(&mine, &all, 1, std::plus<>());
    if (ctx.rank() == 0) {
      std::scoped_lock lock(run.mu);
      rates.add(static_cast<double>(all) * 1e9 / static_cast<double>(t1 - t0));
    }
    lay.fleet_ops += res.reads + res.writes;
    lay.fleet_reads += res.reads;
    lay.fleet_hits += res.cache_hits;
    lay.fiber_switch += d.get(Op::fiber_switch);
    lay.fleet_read.merge(res.read_hist);
    lay.fleet_write.merge(res.write_hist);
  }
}

/// Closed-loop blocking client until `budget_ns` has passed.
void blocking_phase(RankCtx& ctx, KvStore& store, const Run& run,
                    const ZipfTable& zipf, Samples& get_ns, Samples& put_ns,
                    Layers& lay, SpanLog* log, std::uint64_t budget_ns,
                    std::uint64_t seed, std::vector<std::uint64_t>& last,
                    Tally& tally) {
  const int r = ctx.rank();
  Stream rng(seed);
  std::uint64_t wseq = 0;
  ctx.barrier();
  Scope phase(log, "kv.blocking", 0, 0);
  std::uint64_t now = now_ns();
  const std::uint64_t deadline = now + budget_ns;
  while (now < deadline) {
    const bool is_get = rng.uniform() < run.mix.read_ratio;
    std::uint64_t key = zipf.sample(rng) + 1;
    OpCounters c0;
    if (log != nullptr) c0 = fompi::op_counters();
    Scope span(log, is_get ? "kv.get" : "kv.put", phase.id(), 0);
    if (is_get) {
      std::uint64_t v = 0;
      bool found = false;
      const std::uint64_t t0 = now_ns();
      const OpStatus st = store.get(key, &v, &found);
      now = now_ns();
      get_ns.add(static_cast<double>(now - t0));
      // Own keys must read back this rank's last write.
      tally.op(st == OpStatus::ok && found &&
                   (writer_of(key) == r ? v == last[key] : plausible(key, v)),
               "get returned a wrong value or status");
      if (log != nullptr) {
        const OpCounters d = fompi::op_counters().since(c0);
        ++lay.gets;
        lay.get_amos += d.get(Op::transport_amo);
        lay.get_rgets += d.get(Op::transport_get);
        lay.retries += d.get(Op::kv_read_retry);
        const bool hit = d.get(Op::kv_cache_hit) > 0;
        lay.hits += hit ? 1 : 0;
        (hit ? lay.hit_ns : lay.miss_ns).add(static_cast<double>(now - t0));
      }
    } else {
      key = own_key(key, r);
      const std::uint64_t v = (key << 32) | (++wseq & 0xffffffffu);
      const std::uint64_t t0 = now_ns();
      const OpStatus st = store.put(key, v);
      now = now_ns();
      put_ns.add(static_cast<double>(now - t0));
      if (tally.op(st == OpStatus::ok, "put failed")) last[key] = v;
      if (log != nullptr) {
        ++lay.puts;
        lay.put_amos += fompi::op_counters().since(c0).get(Op::transport_amo);
      }
    }
  }
  ctx.barrier();
}

void rank_body(Run& run, int rep_no, RankCtx& ctx, std::uint64_t t_call,
               std::vector<std::uint64_t>& expected) {
  const int r = ctx.rank();
  const Options& opt = run.opt;
  run.tracing.bind(r, false);  // setup and untraced halves
  Tally tally;
  const ZipfTable zipf(kKeys, kZipfS);
  KvStore store(ctx, kv_store_config());
  std::vector<std::uint64_t> last(kKeys + 1, 0);
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    if (writer_of(key) != r) continue;
    tally.op(store.put(key, seed_value(key)) == OpStatus::ok, "seed put");
    last[key] = seed_value(key);
  }
  ctx.barrier();
  const std::uint64_t warm_seed =
      mix_seed(opt.seed, 0x5e7u + static_cast<unsigned>(rep_no));
  check_fleet(store.run_fleet(ctx, fleet_config(run, warm_seed)), tally);
  ctx.barrier();
  if (r == 0) {
    std::scoped_lock lock(run.mu);
    run.setup_s.add(static_cast<double>(now_ns() - t_call) / 1e9);
  }

  // Both fleet halves run before both blocking halves: fleet puts write
  // key*31+7, so after them `last` is exact again.
  const double rep_s = opt.seconds / kReps / (opt.trace ? 2 : 1);
  const auto fleet_ns = static_cast<std::uint64_t>(rep_s * kFleetShare * 1e9);
  const auto block_ns =
      static_cast<std::uint64_t>(rep_s * (1 - kFleetShare) * 1e9);
  Layers lay;
  Samples get_ns[2], put_ns[2];
  const OpCounters c0 = fompi::op_counters();
  for (const int phase : {0, 1}) {
    for (const int traced : {0, 1}) {
      if (traced != 0 && !opt.trace) break;
      SpanLog* log = run.tracing.log(r, traced != 0);
      run.tracing.bind(r, traced != 0);
      const std::uint64_t salt =
          (static_cast<std::uint64_t>(rep_no) * 2 + traced) << 20;
      Layers scratch;  // untraced halves keep no layer numbers
      Layers& into = traced != 0 ? lay : scratch;
      if (phase == 0) {
        Half& half = traced != 0 ? run.traced : run.plain;
        fleet_phase(run, ctx, store, half.fleet_rate[rep_no], into, log,
                    fleet_ns, salt, tally);
      } else {
        const std::uint64_t seed = mix_seed(
            opt.seed, salt + 0x1000 + static_cast<std::uint64_t>(r));
        blocking_phase(ctx, store, run, zipf, get_ns[traced], put_ns[traced],
                       into, log, block_ns, seed, last, tally);
      }
      run.tracing.bind(r, false);
    }
  }
  lay.health = fompi::op_counters().since(c0);
  {
    std::scoped_lock lock(run.mu);
    for (const int traced : {0, 1}) {
      Half& half = traced != 0 ? run.traced : run.plain;
      half.get_ns[rep_no].append(get_ns[traced]);
      half.put_ns[rep_no].append(put_ns[traced]);
    }
    add_layers(run.layers, lay);
  }

  // Read-back: every key against its writer's last value.
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    if (writer_of(key) == r) expected[key] = last[key];
  }
  ctx.barrier();
  for (std::uint64_t key = 1; key <= kKeys; ++key) {
    if (writer_of(key) != (r + 1) % kRanks) continue;
    std::uint64_t v = 0;
    bool found = false;
    const OpStatus st = store.get(key, &v, &found);
    tally.op(st == OpStatus::ok && found && v == expected[key],
             "read-back differs from the writer's last value");
  }
  ctx.barrier();
  store.destroy(ctx);
  run.rep.merge(tally);
}

double ratio(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : static_cast<double>(a) / static_cast<double>(b);
}

void report_layers(Run& run) {
  Report& rep = run.rep;
  Layers& l = run.layers;
  rep.set("kv.get_amos", ratio(l.get_amos, l.gets), "count", l.gets,
          "remote AMOs per blocking get");
  rep.set("kv.get_rgets", ratio(l.get_rgets, l.gets), "count", l.gets,
          "remote gets per blocking get");
  rep.set("kv.get_hit_us", l.hit_ns.quantile(0.5) / 1e3, "modeled",
          l.hit_ns.size(), "blocking get p50, cache hits");
  rep.set("kv.get_miss_us", l.miss_ns.quantile(0.5) / 1e3, "modeled",
          l.miss_ns.size(), "blocking get p50, cache misses");
  rep.set("kv.put_amos", ratio(l.put_amos, l.puts), "count", l.puts,
          "remote AMOs per blocking put, replica included");
  rep.set("kv.cache_hit_ratio", ratio(l.hits, l.gets), "count", l.gets,
          "blocking gets served by the client cache");
  rep.set("kv.fleet_cache_hit_ratio", ratio(l.fleet_hits, l.fleet_reads),
          "count", l.fleet_reads, "fleet gets served by the client cache");
  rep.set("kv.read_retry_per_get", ratio(l.retries, l.gets), "count", l.gets,
          "seqlock re-reads per blocking get");
  const double rate = run.traced.fleet_rate.across(0.5);
  rep.set("kv.fleet_mean_latency_us",
          rate > 0 ? kRanks * kFibers / rate * 1e6 : 0, "modeled",
          run.traced.fleet_rate.size(),
          "Little's law: 24 ops in flight / fleet ops per second");
  const auto h = [](const fompi::trace::LatencyHisto& x, double q) {
    return static_cast<double>(x.quantile(q)) / 1e3;
  };
  rep.set("kv.fleet_read_p50_us", h(l.fleet_read, 0.5), "modeled",
          l.fleet_read.count(), "fleet get latency, 12.5% histogram");
  rep.set("kv.fleet_read_p99_us", h(l.fleet_read, 0.99), "modeled",
          l.fleet_read.count(), "fleet get latency, 12.5% histogram");
  rep.set("kv.fleet_write_p50_us", h(l.fleet_write, 0.5), "modeled",
          l.fleet_write.count(), "fleet put latency, 12.5% histogram");
  rep.set("kv.fleet_write_p99_us", h(l.fleet_write, 0.99), "modeled",
          l.fleet_write.count(), "fleet put latency, 12.5% histogram");
  rep.set("progress.fiber_switch_per_op", ratio(l.fiber_switch, l.fleet_ops),
          "count", l.fleet_ops, "fiber resumes per fleet op");

  fompi::sim::KvParams p;
  p.shards = kv_store_config().shards;
  p.read_ratio = run.mix.read_ratio;
  p.fibers = kFibers;
  p.hit_rate = ratio(l.hits, l.gets);
  rep.set("simtime.kv_get_ratio",
          run.traced.get_ns.pooled().mean() / 1e3 / fompi::sim::kv_read_us(p),
          "modeled", l.gets, "mean blocking get / sim_kv kv_read_us");
  rep.set("simtime.kv_put_ratio",
          run.traced.put_ns.pooled().mean() / 1e3 / fompi::sim::kv_put_us(p),
          "modeled", run.traced.put_ns.size(),
          "mean blocking put / sim_kv kv_put_us");
}

}  // namespace

fompi::kv::KvConfig kv_store_config() {
  fompi::kv::KvConfig cfg;
  cfg.shards = 12;
  cfg.table_slots = 256;  // 4096 keys over 12 x 256 top slots: some chain
  cfg.heap_slots = 512;
  return cfg;
}

void run_kv(const Options& opt, Report& rep) {
  Tracing tracing(kRanks, opt.trace);
  Run run(opt, rep, tracing);
  rep.set_ranks(kRanks);
  fompi::fabric::FabricOptions fo;
  fo.domain.ranks_per_node = 1;
  fo.domain.inject = fompi::rdma::Injection::model;
  for (int rep_no = 0; rep_no < kReps; ++rep_no) {
    std::vector<std::uint64_t> expected(kKeys + 1, 0);
    const std::uint64_t t_call = now_ns();
    fompi::fabric::run_ranks(
        kRanks,
        [&](RankCtx& ctx) { rank_body(run, rep_no, ctx, t_call, expected); },
        fo);
  }

  rep.set("setup_s", run.setup_s.quantile(0.5), "host", run.setup_s.size(),
          "run_ranks call to first timed op: store, seeding, warm-up pass");
  rep.quantiles_us("", run.plain.get_ns, "modeled", "blocking KvStore::get");
  rep.quantiles_us("write_", run.plain.put_ns, "modeled",
                   "blocking KvStore::put");
  rep.set("ops_per_s", run.plain.fleet_rate.across(0.5), "modeled",
          run.plain.fleet_rate.size(),
          "KvStore::run_fleet ops per second, 3 ranks x 8 fibers, median "
          "pass");
  if (!opt.trace) return;
  report_layers(run);
  const Layers& l = run.layers;
  report_health(rep, l.health);
  const double plain_p50 = run.plain.get_ns.across(0.5);
  tracing.set_trace_metrics(
      rep, l.gets + l.puts + l.fleet_ops,
      plain_p50 > 0 ? run.traced.get_ns.across(0.5) / plain_p50 : 0);
  tracing.write(rep, opt, opt.workload);
}

}  // namespace perfbench
