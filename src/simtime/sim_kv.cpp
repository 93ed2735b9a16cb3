#include "simtime/sim_kv.hpp"

#include <algorithm>
#include <cmath>

namespace fompi::sim {

namespace {

// NIC-served ops of the uncached read: v1, the cell rget, v2.
constexpr int kUncachedOps = 3;
// A top cell: {key, ver, val}.
constexpr std::size_t kCellBytes = 24;
// Dependent rounds of a cold top-cell put; both copies share them.
constexpr int kPutRounds = 4;

double amo_us(const KvParams& p) { return p.net.amo_latency_ns() / 1e3; }

}  // namespace

double kv_uncached_read_us(const KvParams& p) {
  const rdma::NetworkModel& n = p.net;
  return (2.0 * n.amo_latency_ns() + n.get_latency_ns(kCellBytes)) / 1e3;
}

double kv_read_us(const KvParams& p, bool degraded) {
  const double cached = p.cached_amos * amo_us(p);
  const double h = degraded ? 0.0 : p.hit_rate;  // degraded bypasses cache
  return h * cached + (1.0 - h) * kv_uncached_read_us(p);
}

double kv_read_p99_us(const KvParams& p, bool degraded) {
  const double miss_mass = degraded ? 1.0 : 1.0 - p.hit_rate;
  if (miss_mass >= 0.01) return kv_uncached_read_us(p);
  return p.cached_amos * amo_us(p);
}

double kv_put_us(const KvParams& p, bool degraded) {
  const int copies = (p.replicate && !degraded) ? 2 : 1;
  const int extra_ops = copies * p.put_amos - kPutRounds;
  return (kPutRounds * p.net.amo_latency_ns() +
          extra_ops * p.net.inter_overhead_ns) /
         1e3;
}

double kv_fleet_issue_ns(const KvParams& p, int descriptors,
                         bool coalesced) {
  const double o = p.net.inter_overhead_ns;
  if (!coalesced || descriptors <= 1) return o;
  const auto d = static_cast<std::size_t>(descriptors);
  return (o + p.net.chain_latency_ns(d)) / static_cast<double>(d);
}

double kv_hot_shard_mass(const KvParams& p) {
  // Rank-1 mass of a Zipf(s) over the shards: 1 / H(shards, s). s = 0
  // degenerates to the uniform 1/shards.
  double h = 0.0;
  for (int r = 1; r <= p.shards; ++r) {
    h += 1.0 / std::pow(static_cast<double>(r), p.zipf_s);
  }
  return 1.0 / h;
}

double simulate_kv_throughput_mops(int clients, const KvParams& p) {
  const double mean_op_us = p.read_ratio * kv_read_us(p) +
                            (1.0 - p.read_ratio) * kv_put_us(p);
  const double offered = clients * p.fibers / mean_op_us;  // Mops/s

  // The hottest shard's NIC serves its share of every op's remote ops;
  // hot-key replica reads split the read load across two regions.
  double phi = kv_hot_shard_mass(p);
  if (p.replicate) phi *= 1.0 - p.read_ratio / 2.0;
  const double ops_per_op =
      p.read_ratio * ((1.0 - p.hit_rate) * kUncachedOps +
                      p.hit_rate * p.cached_amos) +
      (1.0 - p.read_ratio) * p.put_amos;
  // NIC-side occupancy per served AMO is the per-op injection overhead.
  const double serve_mops = 1e3 / (p.net.inter_overhead_ns * ops_per_op);
  const double hot_cap = serve_mops / phi;

  return std::min(offered, hot_cap);
}

double kv_recovery_us(const KvParams& p, std::uint64_t shard_bytes,
                      std::uint64_t cells, std::uint64_t chunk) {
  if (chunk == 0) chunk = 1;
  const double chunks =
      static_cast<double>((shard_bytes + chunk - 1) / chunk);
  const double bytes = static_cast<double>(shard_bytes);
  const double drain_us =
      (chunks * p.net.bte_setup_ns + bytes * p.net.bte_byte_ns) / 1e3;
  const double scrub_us =
      static_cast<double>(cells) * p.scrub_amos * amo_us(p);
  const double gen_us = 2.0 * amo_us(p);  // claim CAS + release write
  return drain_us + scrub_us + gen_us;
}

double kv_post_recovery_p99_us(const KvParams& p) {
  // The generation check rides the first round's version read (overlapped
  // AMOs), so the healed read path's tail equals the healthy tail.
  return kv_read_p99_us(p, /*degraded=*/false);
}

}  // namespace fompi::sim
