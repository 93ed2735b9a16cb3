// Coverage for the remaining corners: process groups, fabric extension
// slots, abort propagation through every blocking primitive, multi-window
// interactions, and cross-module integration under failure-injection modes.
#include <gtest/gtest.h>

#include <numeric>

#include "apps/dsde.hpp"
#include "apps/hashtable.hpp"
#include "core/window.hpp"
#include "fabric/group.hpp"

using namespace fompi;
using core::Win;
using fabric::Group;
using fabric::RankCtx;

// --- groups -------------------------------------------------------------------

TEST(Group, BasicProperties) {
  const Group g{3, 1, 4};
  EXPECT_EQ(g.size(), 3);
  EXPECT_EQ(g.at(0), 3);
  EXPECT_TRUE(g.contains(4));
  EXPECT_FALSE(g.contains(2));
  int count = 0;
  for (int r : g) {
    (void)r;
    ++count;
  }
  EXPECT_EQ(count, 3);
}

TEST(Group, WorldGroup) {
  const Group w = Group::world(5);
  EXPECT_EQ(w.size(), 5);
  for (int i = 0; i < 5; ++i) EXPECT_TRUE(w.contains(i));
}

TEST(Group, ValidationRejectsBadInput) {
  EXPECT_THROW(Group({1, 1}), Error);    // duplicate
  EXPECT_THROW(Group({0, -1}), Error);   // negative
  EXPECT_NO_THROW(Group{});              // empty group is legal
  EXPECT_EQ(Group{}.size(), 0);
}

TEST(Group, EmptyGroupPscwIsNoop) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.post(Group{});
    win.start(Group{});
    win.complete();
    win.wait();
    win.free();
  });
}

// --- fabric extension slots ---------------------------------------------------

TEST(Fabric, ExtSlotFirstWriterWins) {
  fabric::FabricOptions opts;
  opts.domain.nranks = 1;
  fabric::Fabric fabric(opts);
  EXPECT_EQ(fabric.ext_get("k"), nullptr);
  auto a = std::make_shared<int>(1);
  auto b = std::make_shared<int>(2);
  auto stored = fabric.ext_put_once("k", a);
  EXPECT_EQ(std::static_pointer_cast<int>(stored), a);
  stored = fabric.ext_put_once("k", b);
  EXPECT_EQ(*std::static_pointer_cast<int>(stored), 1) << "first wins";
  EXPECT_EQ(std::static_pointer_cast<int>(fabric.ext_get("k")), a);
}

// --- abort propagation ---------------------------------------------------------

TEST(Abort, PropagatesOutOfPscwStart) {
  EXPECT_THROW(fabric::run_ranks(2,
                                 [](RankCtx& ctx) {
                                   Win win = Win::allocate(ctx, 64);
                                   if (ctx.rank() == 0) {
                                     raise(ErrClass::arg, "boom");
                                   }
                                   win.start(Group{0});  // would block
                                   win.complete();
                                   win.free();
                                 }),
               Error);
}

TEST(Abort, PropagatesOutOfP2PRecv) {
  EXPECT_THROW(fabric::run_ranks(2,
                                 [](RankCtx& ctx) {
                                   if (ctx.rank() == 0) {
                                     raise(ErrClass::arg, "boom");
                                   }
                                   int v = 0;
                                   ctx.recv(0, 0, &v, sizeof(v));
                                 }),
               Error);
}

TEST(Abort, PropagatesOutOfLockWait) {
  EXPECT_THROW(
      fabric::run_ranks(2,
                        [](RankCtx& ctx) {
                          Win win = Win::allocate(ctx, 64);
                          if (ctx.rank() == 0) {
                            win.lock(core::LockType::exclusive, 0);
                            raise(ErrClass::arg, "boom while holding");
                          }
                          // Rank 1 spins on the CAS until the abort lands.
                          win.lock(core::LockType::exclusive, 0);
                          win.unlock(0);
                          win.free();
                        }),
      Error);
}

// --- multi-window interactions ---------------------------------------------------

TEST(MultiWindow, IndependentEpochsAndLocks) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win a = Win::allocate(ctx, 64);
    Win b = Win::allocate(ctx, 64);
    // Different epochs on different windows coexist on one rank.
    a.lock_all();
    b.fence();
    const std::uint64_t va = 1, vb = 2;
    a.put(&va, 8, 1 - ctx.rank(), 0);
    b.put(&vb, 8, 1 - ctx.rank(), 8);
    a.flush_all();
    b.fence();
    a.unlock_all();
    ctx.barrier();
    EXPECT_EQ(static_cast<std::uint64_t*>(a.base())[0], 1u);
    EXPECT_EQ(static_cast<std::uint64_t*>(b.base())[1], 2u);
    a.free();
    b.free();
  });
}

TEST(MultiWindow, LocksOnDifferentWindowsDoNotInterfere) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win a = Win::allocate(ctx, 64);
    Win b = Win::allocate(ctx, 64);
    // Exclusive on window a must not block exclusive on window b.
    a.lock(core::LockType::exclusive, 0);
    b.lock(core::LockType::exclusive, 0);
    b.unlock(0);
    a.unlock(0);
    ctx.barrier();
    a.free();
    b.free();
  });
}

// --- integration under failure injection ----------------------------------------

TEST(Integration, HashtableUnderDeferredShuffledDelivery) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.delivery = rdma::Delivery::deferred;
  opts.domain.shuffle_deferred = true;
  fabric::run_ranks(3, [&](RankCtx& ctx) {
    apps::DistHashtable ht(ctx, apps::HtBackend::rma, 64, 256);
    std::vector<std::uint64_t> keys;
    for (int i = 0; i < 30; ++i) {
      keys.push_back(static_cast<std::uint64_t>(ctx.rank()) * 1000 + i + 1);
    }
    ht.batch_insert(ctx, keys);
    EXPECT_EQ(ht.global_count(ctx), 90u);
    for (const auto k : keys) EXPECT_TRUE(ht.contains(k));
    ctx.barrier();
    ht.destroy(ctx);
  }, opts);
}

TEST(Integration, DsdeUnderDeferredDelivery) {
  fabric::FabricOptions opts;
  opts.domain.ranks_per_node = 1;
  opts.domain.delivery = rdma::Delivery::deferred;
  opts.domain.shuffle_deferred = true;
  fabric::run_ranks(4, [&](RankCtx& ctx) {
    const auto sends = apps::dsde_random_workload(ctx.rank(), 4, 3, 21);
    for (auto proto : {apps::DsdeProto::rma, apps::DsdeProto::nbx}) {
      std::uint64_t got = apps::dsde_exchange(ctx, proto, sends).size();
      std::uint64_t total = 0;
      ctx.allreduce(&got, &total, 1,
                    [](std::uint64_t a, std::uint64_t b) { return a + b; });
      EXPECT_EQ(total, 12u);
    }
  }, opts);
}

TEST(Integration, ManyFabricsSequentially) {
  // Fabric construction/teardown must be leak-free and repeatable.
  for (int i = 0; i < 10; ++i) {
    fabric::run_ranks(3, [](RankCtx& ctx) {
      Win win = Win::allocate(ctx, 128);
      win.fence();
      const std::uint64_t v = 9;
      win.put(&v, 8, (ctx.rank() + 1) % 3, 0);
      win.fence();
      win.free();
    });
  }
}

TEST(Integration, LargeRankCountSmoke) {
  // 24 rank threads on a few cores: scheduling stress for every spin loop.
  fabric::run_ranks(24, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.fence();
    const std::uint64_t v = static_cast<std::uint64_t>(ctx.rank());
    win.put(&v, 8, (ctx.rank() + 1) % 24, 0);
    win.fence();
    const auto* mine = static_cast<const std::uint64_t*>(win.base());
    EXPECT_EQ(mine[0],
              static_cast<std::uint64_t>((ctx.rank() + 23) % 24));
    win.free();
  });
}
