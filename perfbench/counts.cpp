// Single-issuer per-call op counts: the op_counters() delta around one
// public call while every other rank is idle, so each count is an exact
// function of the seed (the selftest runs every probe twice and compares).
#include <functional>
#include <vector>

#include "common/instr.hpp"
#include "kv/kv.hpp"
#include "perfbench.hpp"

namespace perfbench {

namespace {

fompi::OpCounters delta_of(const std::function<void()>& fn) {
  const fompi::OpCounters before = fompi::op_counters();
  fn();
  return fompi::op_counters().since(before);
}

}  // namespace

Counts probe_counts(std::uint64_t seed) {
  using fompi::Op;
  using fompi::rdma::OpStatus;
  constexpr int kRanks = 3;
  constexpr std::uint64_t kKeys = 4096;
  constexpr std::size_t kPairWords = 4096 / 8;
  Counts c;
  fompi::fabric::FabricOptions fo;
  fo.domain.ranks_per_node = 1;  // Injection::none: counts need no model
  fompi::fabric::run_ranks(kRanks, [&](fompi::fabric::RankCtx& ctx) {
    const int r = ctx.rank();
    fompi::kv::KvStore store(ctx, kv_store_config());
    std::vector<std::uint64_t> counts(kRanks, kPairWords), displs(kRanks);
    for (int d = 0; d < kRanks; ++d) {
      displs[static_cast<std::size_t>(d)] =
          static_cast<std::uint64_t>(d) * kPairWords;
    }
    auto& coll = ctx.fabric().coll();
    auto plan = coll.plan_alltoallv(r, counts.data(), displs.data(), 8);
    std::vector<std::uint64_t> src(kRanks * kPairWords, 1),
        dst(kRanks * kPairWords);
    for (int i = 0; i < 2; ++i) {  // warm the plan's landing banks
      coll.run_alltoallv(r, *plan, src.data(), dst.data());
    }
    const fompi::OpCounters a2av = delta_of(
        [&] { coll.run_alltoallv(r, *plan, src.data(), dst.data()); });
    ctx.barrier();
    if (r == 0) {
      c.a2av_puts = a2av.get(Op::transport_put);
      c.a2av_amos = a2av.get(Op::transport_amo);
      Stream rng(mix_seed(seed, 0xc0u));
      // A key rank 1 owns: its owner and replica copies (ranks 1 and 2)
      // are both remote to the issuer, so every access is a transport op.
      std::uint64_t key = rng.below(kKeys) + 1;
      while (store.owner_of(store.shard_of(key)) != 1) key = key % kKeys + 1;
      std::uint64_t v = 0;
      bool found = false;
      bool ok = store.put(key, key * 31 + 7) == OpStatus::ok;
      const fompi::OpCounters before = fompi::op_counters();
      const fompi::OpCounters miss = delta_of([&] {
        ok = ok && store.get(key, &v, &found) == OpStatus::ok && found &&
             v == key * 31 + 7;
      });
      const fompi::OpCounters hit = delta_of([&] {
        ok = ok && store.get(key, &v, &found) == OpStatus::ok && found &&
             v == key * 31 + 7;
      });
      const fompi::OpCounters put = delta_of(
          [&] { ok = ok && store.put(key, key * 31 + 8) == OpStatus::ok; });
      ok = ok && store.get(key, &v, &found) == OpStatus::ok && found &&
           v == key * 31 + 8;
      c.get_miss_amos = miss.get(Op::transport_amo);
      c.get_miss_rgets = miss.get(Op::transport_get);
      c.get_hit_amos = hit.get(Op::transport_amo);
      c.put_amos = put.get(Op::transport_amo);
      c.pool_grow = fompi::op_counters().since(before).get(Op::pool_grow);
      c.values_ok = ok && hit.get(Op::kv_cache_hit) == 1 &&
                    miss.get(Op::kv_cache_hit) == 0;
    }
    ctx.barrier();
    plan.reset();
    store.destroy(ctx);
  }, fo);
  return c;
}

}  // namespace perfbench
