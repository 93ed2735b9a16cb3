// KV-service SLO models (DESIGN.md §12).
//
// The thread-rank runtime drives the real KV store (src/kv) at up to a
// few dozen client ranks; these closed forms extend the serving-workload
// curves to cluster scale. As with the figure models, the supported claims
// are about curve *shape* — cache leverage, tail behavior under failover,
// where a skewed workload saturates on the hottest shard — not absolute
// numbers. Calibration constants are documented inline.
#pragma once

#include <cstdint>

#include "rdma/network_model.hpp"

namespace fompi::sim {

struct KvParams {
  /// The network every term is charged on: AMO round trips, the injection
  /// overhead (which also bounds one shard owner's served-AMO rate), the
  /// cell rget and the BTE drain of recovery.
  rdma::NetworkModel net{};
  /// Remote words touched by a cache-validated hit: the cached cell's
  /// version read.
  int cached_amos = 1;
  /// Remote ops of a cold top-cell put against one copy: {version read,
  /// claim CAS}, lock CAS, value write, release CAS — four dependent
  /// rounds.
  int put_amos = 5;
  bool replicate = true;     ///< puts fan out to the replica region (x2)
  double hit_rate = 0.80;    ///< healthy-mode cache hit fraction
  double read_ratio = 0.95;  ///< fraction of client ops that are gets
  int fibers = 8;            ///< in-flight ops per closed-loop client rank
  int shards = 8;
  double zipf_s = 0.9;       ///< key->shard popularity skew

  // --- recovery constants (DESIGN.md §13) -----------------------------------
  /// Remote words per scrubbed cell pair: {v1, key, value, v2} seqlock
  /// snapshots of BOTH copies (repairs are rare enough not to move the
  /// mean).
  int scrub_amos = 8;
};

/// Modeled uncached get (us), a top-cell snapshot in three rounds: the v1
/// AMO, the 24-byte cell rget, the v2 AMO.
double kv_uncached_read_us(const KvParams& p);

/// Mean modeled get latency (us). Degraded mode (owner dead, replica
/// serving) bypasses the client cache, so every read pays the full
/// versioned-read cost — the SLO degradation bench_kv measures.
double kv_read_us(const KvParams& p, bool degraded = false);

/// Modeled p99 get latency (us): the uncached versioned read whenever the
/// miss mass reaches the tail (1 - hit_rate >= 1%), i.e. always, except
/// for a pathologically perfect cache; degraded mode pins the whole
/// distribution at the uncached cost.
double kv_read_p99_us(const KvParams& p, bool degraded = false);

/// Modeled cold put latency (us): four AMO round trips. The replica
/// copy's ops ride the same rounds while the shard is healthy, so
/// replication adds one injection overhead per extra op in flight, not a
/// round trip; degraded mode writes the surviving replica only.
double kv_put_us(const KvParams& p, bool degraded = false);

/// Origin issue cost (ns) per op of a fleet rank that hands its ops to
/// the NIC `descriptors` at a time. Coalesced, the fibers' rounds of one
/// scheduler pass share a doorbell: the injection overhead once plus
/// chain_ns per extra descriptor, (o + chain_ns * (d - 1)) / d per op.
/// Uncoalesced, every op rings its own: o per op, whatever d is.
double kv_fleet_issue_ns(const KvParams& p, int descriptors, bool coalesced);

/// Probability mass of the hottest shard under the Zipf(s) key popularity
/// folded onto `shards` (rank-1 mass of a Zipf over the shards).
double kv_hot_shard_mass(const KvParams& p);

/// Closed-loop fleet throughput (M ops/s) at `clients` ranks:
///
///   offered = clients * fibers / mean_op_us        (pipelined clients)
///   hot cap = serve_rate / phi                      (hottest shard NIC)
///   T(p)    = min(offered, hot cap)
///
/// with phi the hottest shard's mass — halved for reads when replication
/// is on (hot-key replica reads split the load). Monotone nondecreasing
/// and saturating in `clients`; replication raises the plateau.
double simulate_kv_throughput_mops(int clients, const KvParams& p = {});

/// Modeled time (us) to heal ONE shard whose owner died: drain the frozen
/// image (ceil(bytes/chunk) BTE channel setups + the byte stream), scrub
/// every cell pair (scrub_amos remote words each), plus the generation
/// claim + release CAS pair. Linear in bytes at fixed chunking, linear in
/// cells — and drain-dominated for realistic shard sizes, which is the
/// shape test_simtime pins.
double kv_recovery_us(const KvParams& p, std::uint64_t shard_bytes,
                      std::uint64_t cells, std::uint64_t chunk = 2048);

/// Modeled post-recovery p99 get latency (us): recovery restores the
/// healthy read path exactly (the generation check OVERLAPS the first
/// round's version read — two AMOs in flight together — so it adds no
/// serialized round trip and the healthy cached/uncached AMO budgets are
/// unchanged).
double kv_post_recovery_p99_us(const KvParams& p);

}  // namespace fompi::sim
