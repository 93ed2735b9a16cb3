// The "thin veneer" claims (Sec 2.4/6): the MPI window layer must add only
// a small constant number of critical-path events on top of the raw
// transport. These bounds are the op-count analog of the paper's
// instruction counts (flush 78, put/get fast path 173 x86 instructions):
// regressions that add per-op work on the fast path fail here.
#include <gtest/gtest.h>

#include "core/window.hpp"
#include "kv/kv.hpp"

using namespace fompi;
using core::Win;
using fabric::RankCtx;

namespace {

OpCounters delta_of(const std::function<void()>& fn) {
  const OpCounters before = op_counters();
  fn();
  return op_counters().since(before);
}

}  // namespace

TEST(InstrBounds, PutFastPathIsOneTransportOp) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    std::array<std::uint64_t, 4> buf{};
    if (ctx.rank() == 0) {
      win.lock_all();
      win.put(buf.data(), 8, 1, 0);  // warm
      const auto d = delta_of([&] { win.put(buf.data(), 8, 1, 0); });
      EXPECT_EQ(d.get(Op::transport_put), 1u);
      EXPECT_EQ(d.get(Op::transport_get), 0u);
      EXPECT_EQ(d.get(Op::transport_amo), 0u);
      EXPECT_LE(d.total_ops(), 6u) << "put fast path grew";
      win.unlock_all();
    }
    ctx.barrier();
    win.free();
  });
}

TEST(InstrBounds, GetFastPathIsOneTransportOp) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    std::array<std::uint64_t, 4> buf{};
    if (ctx.rank() == 0) {
      win.lock_all();
      win.get(buf.data(), 8, 1, 0);
      const auto d = delta_of([&] { win.get(buf.data(), 8, 1, 0); });
      EXPECT_EQ(d.get(Op::transport_get), 1u);
      EXPECT_LE(d.total_ops(), 6u) << "get fast path grew";
      win.unlock_all();
    }
    ctx.barrier();
    win.free();
  });
}

TEST(InstrBounds, FlushIsOneBulkSyncPlusFence) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    if (ctx.rank() == 0) {
      win.lock_all();
      win.flush_all();
      const auto d = delta_of([&] { win.flush_all(); });
      EXPECT_EQ(d.get(Op::bulk_sync), 1u);
      EXPECT_GE(d.get(Op::memory_fence), 1u);
      EXPECT_LE(d.total_ops(), 5u) << "flush path grew";
      win.unlock_all();
    }
    ctx.barrier();
    win.free();
  });
}

TEST(InstrBounds, AcceleratedAccumulateIsOneAmoPerElement) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    std::array<std::uint64_t, 8> vals{};
    if (ctx.rank() == 0) {
      win.lock_all();
      win.accumulate(vals.data(), 1, Elem::u64, RedOp::sum, 1, 0);
      const auto d = delta_of(
          [&] { win.accumulate(vals.data(), 8, Elem::u64, RedOp::sum, 1, 0); });
      EXPECT_EQ(d.get(Op::transport_amo), 8u);
      EXPECT_EQ(d.get(Op::transport_put), 0u);
      win.unlock_all();
    }
    ctx.barrier();
    win.free();
  }, opts);
}

TEST(InstrBounds, FallbackAccumulatePaysLockGetPut) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    std::array<std::uint64_t, 4> vals{};
    if (ctx.rank() == 0) {
      win.lock_all();
      const auto d = delta_of(
          [&] { win.accumulate(vals.data(), 4, Elem::u64, RedOp::min, 1, 0); });
      // lock (>=1 AMO) + get + put + unlock (1 AMO).
      EXPECT_GE(d.get(Op::transport_amo), 2u);
      EXPECT_EQ(d.get(Op::transport_get), 1u);
      EXPECT_EQ(d.get(Op::transport_put), 1u);
      win.unlock_all();
    }
    ctx.barrier();
    win.free();
  }, opts);
}

TEST(InstrBounds, UncontendedLocksCostConstantAmos) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    // The global lock lives at the master (rank 0); AMOs to self count as
    // local atomics, so sum both counters.
    auto amos = [](const OpCounters& d) {
      return d.get(Op::transport_amo) + d.get(Op::local_atomic);
    };
    if (ctx.rank() == 0) {
      // Shared lock: one AMO to take, one to release.
      auto d = delta_of([&] {
        win.lock(core::LockType::shared, 1);
        win.unlock(1);
      });
      EXPECT_EQ(amos(d), 2u);
      // First exclusive lock: two AMOs to take (global + local CAS),
      // two to release.
      d = delta_of([&] {
        win.lock(core::LockType::exclusive, 1);
        win.unlock(1);
      });
      EXPECT_EQ(amos(d), 4u);
      // lock_all: one AMO each way (the global word only).
      d = delta_of([&] {
        win.lock_all();
        win.unlock_all();
      });
      EXPECT_EQ(amos(d), 2u);
    }
    ctx.barrier();
    win.free();
  }, opts);
}

TEST(InstrBounds, PscwMessageCountsMatchPaper) {
  // post/complete issue O(k) messages; start/wait issue none (Sec 2.3).
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(3, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    const int p = 3;
    const fabric::Group nb{(ctx.rank() + 1) % p, (ctx.rank() + 2) % p};
    const auto d_post = delta_of([&] { win.post(nb); });
    EXPECT_GE(d_post.get(Op::transport_amo), 2u);  // k CAS insertions
    const auto d_start = delta_of([&] { win.start(nb); });
    EXPECT_EQ(d_start.get(Op::transport_amo), 0u);
    EXPECT_EQ(d_start.get(Op::transport_put), 0u);
    const auto d_complete = delta_of([&] { win.complete(); });
    EXPECT_EQ(d_complete.get(Op::transport_amo), 2u);  // k counter bumps
    const auto d_wait = delta_of([&] { win.wait(); });
    EXPECT_EQ(d_wait.get(Op::transport_amo), 0u);
    EXPECT_EQ(d_wait.get(Op::transport_put), 0u);
    win.free();
  }, opts);
}

// --- KV budgets (DESIGN.md §12) ---------------------------------------------
//
// One issuer against single-shard stores on the inter-node path: every
// count below is an exact function of the protocol. A round is a set of
// ops issued together and awaited together (Op::kv_round).
//
// Gets (rank 1; owner rank 0): a cold get is a cell snapshot — v1, one
// cell rget, v2 — and a chain walk reads each hop's {key, next} with one
// rget. A cached record is validated by its own cell's version alone.
//
// Puts (rank 2; owner rank 0, replica rank 1): both copies advance in
// lockstep, so the replica's ops share every round. Per copy, a cold
// top-cell put is {version, claim CAS} > lock CAS > value > release, and
// a recorded put replaces the first two rounds with one lock CAS. No
// write touches a word outside its own cell.

namespace {

struct KvCost {
  std::uint64_t amos = 0, gets = 0, puts = 0, rounds = 0;
};

KvCost cost_of(const OpCounters& d) {
  return {d.get(Op::transport_amo), d.get(Op::transport_get),
          d.get(Op::transport_put), d.get(Op::kv_round)};
}

/// Runs `body(store)` on rank 1 of a 2-rank fabric holding a one-shard
/// store whose owner is rank 0.
void with_remote_store(kv::KvConfig cfg,
                       const std::function<void(kv::KvStore&)>& body) {
  cfg.shards = 1;  // shard 0 lives on rank 0
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    kv::KvStore store(ctx, cfg);
    if (ctx.rank() == 1) {
      ASSERT_EQ(store.owner_of(0), 0);
      body(store);
    }
    ctx.barrier();
    store.destroy(ctx);
  }, opts);
}

/// Runs `setup(store)` on rank 1, then `body(store)` on rank 2, of a
/// 3-rank fabric holding a one-shard store owned by rank 0 with its
/// replica on rank 1: rank 2 reaches both copies over the network and
/// holds no record of what rank 1 wrote.
void with_replicated_store(kv::KvConfig cfg,
                           const std::function<void(kv::KvStore&)>& setup,
                           const std::function<void(kv::KvStore&)>& body) {
  cfg.shards = 1;
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(3, [&](RankCtx& ctx) {
    kv::KvStore store(ctx, cfg);
    if (ctx.rank() == 1) setup(store);
    ctx.barrier();
    if (ctx.rank() == 2) {
      ASSERT_EQ(store.owner_of(0), 0);
      ASSERT_EQ(store.replica_of(0), 1);
      body(store);
    }
    ctx.barrier();
    store.destroy(ctx);
  }, opts);
}

/// Runs `warm(store)` on rank 1, `write(store)` on rank 2, then
/// `check(store)` on rank 1 again, of the same 3-rank, one-shard layout:
/// rank 1 reads the primary (rank 0) over the network.
void with_reader_and_writer(kv::KvConfig cfg,
                            const std::function<void(kv::KvStore&)>& warm,
                            const std::function<void(kv::KvStore&)>& write,
                            const std::function<void(kv::KvStore&)>& check) {
  cfg.shards = 1;
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  fabric::run_ranks(3, [&](RankCtx& ctx) {
    kv::KvStore store(ctx, cfg);
    if (ctx.rank() == 1) warm(store);
    ctx.barrier();
    if (ctx.rank() == 2) write(store);
    ctx.barrier();
    if (ctx.rank() == 1) check(store);
    ctx.barrier();
    store.destroy(ctx);
  }, opts);
}

/// Op cost of one get of `key`, asserting what it returns.
KvCost get_cost(kv::KvStore& store, std::uint64_t key, bool expect_found,
                std::uint64_t expect_value = 0) {
  std::uint64_t v = 0;
  bool found = !expect_found;
  const auto d = delta_of([&] {
    EXPECT_EQ(store.get(key, &v, &found), rdma::OpStatus::ok);
  });
  EXPECT_EQ(found, expect_found) << "key " << key;
  if (expect_found) {
    EXPECT_EQ(v, expect_value) << "key " << key;
  }
  return cost_of(d);
}

/// Op cost of one put of `key`, asserting it succeeds and reads back.
KvCost put_cost(kv::KvStore& store, std::uint64_t key, std::uint64_t value) {
  const auto d = delta_of(
      [&] { EXPECT_EQ(store.put(key, value), rdma::OpStatus::ok); });
  std::uint64_t v = 0;
  bool found = false;
  EXPECT_EQ(store.get(key, &v, &found), rdma::OpStatus::ok);
  EXPECT_TRUE(found) << "key " << key;
  EXPECT_EQ(v, value) << "key " << key;
  return cost_of(d);
}

}  // namespace

TEST(InstrBounds, KvWarmHitIsOneAmo) {
  with_remote_store({}, [](kv::KvStore& store) {
    ASSERT_EQ(store.put(7, 70), rdma::OpStatus::ok);
    get_cost(store, 7, true, 70);  // fills the cache
    const auto c = get_cost(store, 7, true, 70);
    EXPECT_EQ(c.amos, 1u) << "a warm hit is the cell's version read alone";
    EXPECT_EQ(c.gets, 0u);
    EXPECT_EQ(c.rounds, 1u);
  });
}

TEST(InstrBounds, KvTopCellMissIsThreeAmosAndOneGet) {
  with_remote_store({}, [](kv::KvStore& store) {
    ASSERT_EQ(store.put(7, 70), rdma::OpStatus::ok);
    const auto c = get_cost(store, 7, true, 70);
    EXPECT_EQ(c.amos, 2u) << "v1 + v2";
    EXPECT_EQ(c.gets, 1u) << "one {key, version, value} rget";
    EXPECT_EQ(c.rounds, 3u) << "v1 > rget > v2";
  });
}

TEST(InstrBounds, KvUnclaimedSlotMissIsTwoAmosAndOneGet) {
  with_remote_store({}, [](kv::KvStore& store) {
    const auto c = get_cost(store, 7, false);  // empty store
    EXPECT_EQ(c.amos, 1u) << "v1, no v2 for an empty top cell";
    EXPECT_EQ(c.gets, 1u);
    EXPECT_EQ(c.rounds, 2u);
  });
}

TEST(InstrBounds, KvChainKeyIsFiveAmosAndOneGetPerHopPlusTwo) {
  kv::KvConfig cfg;
  cfg.table_slots = 1;  // every key collides on the one top slot
  cfg.heap_slots = 16;
  with_remote_store(cfg, [](kv::KvStore& store) {
    // Key 1 takes the top cell; later keys link at the chain head, so key
    // 5 is one hop down and key 2 four hops.
    for (std::uint64_t k = 1; k <= 5; ++k) {
      ASSERT_EQ(store.put(k, k * 10), rdma::OpStatus::ok);
    }
    for (std::uint64_t hops = 1; hops <= 4; ++hops) {
      const std::uint64_t key = 6 - hops;
      const auto c = get_cost(store, key, true, key * 10);
      EXPECT_EQ(c.amos, 4u) << "v1 + head + snapshot v1/v2, " << hops
                            << " hops";
      EXPECT_EQ(c.gets, hops + 2) << "top + one per hop + snapshot, "
                                  << hops << " hops";
      EXPECT_EQ(c.rounds, hops + 5)
          << "v1 > top > head > hops > {v1, rget} > v2";
    }
  });
}

TEST(InstrBounds, KvWriteToAnotherKeyKeepsTheHit) {
  with_reader_and_writer(
      {},
      [](kv::KvStore& store) {
        ASSERT_EQ(store.put(7, 70), rdma::OpStatus::ok);
        get_cost(store, 7, true, 70);  // caches key 7
      },
      [](kv::KvStore& store) {
        ASSERT_EQ(store.put(8, 80), rdma::OpStatus::ok);  // the one shard
      },
      [](kv::KvStore& store) {
        const auto c = get_cost(store, 7, true, 70);
        EXPECT_EQ(c.amos, 1u) << "a write to another key invalidated the hit";
        EXPECT_EQ(c.gets, 0u);
        EXPECT_EQ(c.rounds, 1u);
        get_cost(store, 8, true, 80);
      });
}

TEST(InstrBounds, KvStaleChainRecordSkipsTheWalk) {
  kv::KvConfig cfg;
  cfg.table_slots = 1;  // every key collides on the one top slot
  cfg.heap_slots = 16;
  with_reader_and_writer(
      cfg,
      [](kv::KvStore& store) {
        for (std::uint64_t k = 1; k <= 5; ++k) {
          ASSERT_EQ(store.put(k, k * 10), rdma::OpStatus::ok);
        }
        get_cost(store, 2, true, 20);  // walks 4 hops, caches key 2's cell
      },
      [](kv::KvStore& store) {
        ASSERT_EQ(store.put(2, 21), rdma::OpStatus::ok);
      },
      [](kv::KvStore& store) {
        const auto c = get_cost(store, 2, true, 21);
        EXPECT_EQ(c.amos, 2u) << "the recorded cell's version, then v2";
        EXPECT_EQ(c.gets, 1u) << "one rget of the recorded cell, no walk";
        EXPECT_EQ(c.rounds, 3u) << "version > rget > v2";
      });
}

TEST(InstrBounds, KvPutColdTopCellIsTwelveAmosInFourRounds) {
  with_replicated_store({}, [](kv::KvStore&) {}, [](kv::KvStore& store) {
    const auto c = put_cost(store, 7, 70);
    EXPECT_EQ(c.amos, 10u) << "per copy: version + claim, lock, value, release";
    EXPECT_EQ(c.gets + c.puts, 0u);
    EXPECT_EQ(c.rounds, 4u) << "the replica rides the primary's rounds";
  });
}

TEST(InstrBounds, KvPutWarmHintIsEightAmosInThreeRounds) {
  with_replicated_store({}, [](kv::KvStore&) {}, [](kv::KvStore& store) {
    put_cost(store, 7, 70);  // leaves this client's record
    for (std::uint64_t i = 1; i <= 3; ++i) {
      const auto c = put_cost(store, 7, 70 + i);
      EXPECT_EQ(c.amos, 6u) << "per copy: recorded lock, value, release";
      EXPECT_EQ(c.rounds, 3u);
    }
  });
}

TEST(InstrBounds, KvPutOneCopyKeepsTheRoundCount) {
  kv::KvConfig cfg;
  cfg.replicate = false;
  with_replicated_store(cfg, [](kv::KvStore&) {}, [](kv::KvStore& store) {
    const auto cold = put_cost(store, 7, 70);
    EXPECT_EQ(cold.amos, 5u) << "one copy's cold put";
    EXPECT_EQ(cold.rounds, 4u);
    const auto warm = put_cost(store, 7, 71);
    EXPECT_EQ(warm.amos, 3u) << "one copy's recorded put";
    EXPECT_EQ(warm.rounds, 3u);
  });
}

TEST(InstrBounds, KvPutChainKeyIsWalkRoundsPlusThree) {
  kv::KvConfig cfg;
  cfg.table_slots = 1;  // every key collides on the one top slot
  cfg.heap_slots = 16;
  with_replicated_store(
      cfg,
      [](kv::KvStore& store) {
        // Key 1 takes the top cell, key 5 ends up one hop down, key 2 four.
        for (std::uint64_t k = 1; k <= 5; ++k) {
          ASSERT_EQ(store.put(k, k * 10), rdma::OpStatus::ok);
        }
      },
      [](kv::KvStore& store) {
        for (std::uint64_t hops = 1; hops <= 4; ++hops) {
          const std::uint64_t key = 6 - hops;
          const auto c = put_cost(store, key, key * 100);
          // Walk: {version, claim} > head > one rget per hop, both copies.
          const std::uint64_t walk = 2 + hops;
          EXPECT_EQ(c.rounds, walk + 3)
              << "walk > {lock, key} > value > release, " << hops << " hops";
          EXPECT_EQ(c.gets, 2 * hops) << "one rget per hop per copy";
          EXPECT_EQ(c.amos, 14u) << "per copy: version + claim, head, lock + "
                                    "key, value, release";
        }
        // A new key walks the whole 4-hop chain, then fetch-adds a cell,
        // rputs it and links it: walk + 3 as well.
        const auto c = put_cost(store, 6, 600);
        EXPECT_EQ(c.rounds, (2u + 4u) + 3u);
        EXPECT_EQ(c.gets, 2u * 4u);
        EXPECT_EQ(c.puts, 2u) << "one fully formed cell per copy";
      });
}

TEST(InstrBounds, KvFleetSharesDoorbellsAcrossFibers) {
  // A fleet of warm hits on one issuing rank: each get is one 1-AMO round.
  // The fibers' rounds of one scheduler pass ride one chained doorbell, so
  // every transport op is batched and a doorbell covers a pass's rounds
  // (all fibers but the stragglers of the last pass).
  constexpr int kFibers = 8;
  constexpr std::uint64_t kKeys = 16;
  kv::KvConfig cfg;
  cfg.shards = 1;  // shard 0 lives on rank 0
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.inject = rdma::Injection::model;  // fibers park on the wire
  fabric::run_ranks(2, [&](RankCtx& ctx) {
    kv::KvStore store(ctx, cfg);
    if (ctx.rank() == 1) {
      for (std::uint64_t k = 1; k <= kKeys; ++k) {
        ASSERT_EQ(store.put(k, k * 31 + 7), rdma::OpStatus::ok);
        get_cost(store, k, true, k * 31 + 7);  // fills the cache
      }
      kv::KvStore::FleetConfig fc;
      fc.ops_per_rank = 400;
      fc.fibers = kFibers;
      fc.read_ratio = 1.0;
      fc.keyspace = kKeys;
      kv::KvStore::FleetResult res;
      const auto d = delta_of([&] { res = store.run_fleet(ctx, fc); });
      ASSERT_EQ(res.ok_ops, static_cast<std::uint64_t>(fc.ops_per_rank));
      ASSERT_EQ(res.cache_hits, res.reads) << "not a warm-hit fleet";
      const auto c = cost_of(d);
      EXPECT_EQ(c.amos, res.reads) << "a warm hit is one AMO";
      EXPECT_EQ(c.rounds, res.reads);
      EXPECT_EQ(d.get(Op::batched_op), c.amos + c.gets)
          << "every transport op rides a shared doorbell";
      EXPECT_LE(d.get(Op::doorbell_ring) * kFibers, c.rounds + kFibers)
          << d.get(Op::doorbell_ring) << " doorbells for " << c.rounds
          << " rounds";
    }
    ctx.barrier();
    store.destroy(ctx);
  }, opts);
}
