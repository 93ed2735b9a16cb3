// Extensions beyond the MPI-3.0 surface: notified access (Win::put_notify
// over the notification ring), derived-datatype accumulates, and
// request-based accumulates.
#include <gtest/gtest.h>

#include <array>
#include <numeric>

#include "core/window.hpp"
#include "fabric/progress/progress.hpp"

using namespace fompi;
using core::Win;
using dt::Datatype;
using fabric::RankCtx;
using fabric::progress::NotifyRecord;

namespace {

/// A window armed for put_notify inside a lock_all epoch, as the notified
/// access extension prescribes (passive target for the window's lifetime).
Win notify_win(RankCtx& ctx, std::size_t bytes) {
  Win win = Win::allocate(ctx, bytes);
  win.lock_all();
  win.notify_enable(ctx);
  return win;
}

void free_notify_win(RankCtx& ctx, Win& win) {
  win.unlock_all();
  ctx.barrier();
  win.free();
}

/// Class of the Error `f` raises; fails the test when it raises none.
template <class F>
ErrClass raised(F&& f) {
  try {
    f();
  } catch (const Error& e) {
    return e.err_class();
  }
  ADD_FAILURE() << "no fompi::Error raised";
  return ErrClass::internal;
}

}  // namespace

TEST(Notify, PutNotifyDeliversDataBeforeFlag) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = notify_win(ctx, 256);
    const int peer = 1 - ctx.rank();
    std::array<std::uint64_t, 4> payload;
    payload.fill(static_cast<std::uint64_t>(ctx.rank()) + 7);
    EXPECT_EQ(win.put_notify(payload.data(), 32, peer, 0, /*tag=*/2),
              rdma::OpStatus::ok);
    NotifyRecord rec;
    ASSERT_EQ(win.notify_waitsome(2, &rec, 1), 1u);
    EXPECT_EQ(rec.source, peer);
    EXPECT_EQ(rec.tdisp, 0u);
    EXPECT_EQ(rec.bytes, 32u);
    const auto* mine = static_cast<const std::uint64_t*>(win.base());
    EXPECT_EQ(mine[0], static_cast<std::uint64_t>(peer) + 7);
    EXPECT_EQ(mine[3], static_cast<std::uint64_t>(peer) + 7);
    free_notify_win(ctx, win);
  });
}

TEST(Notify, CountersAccumulateAndConsume) {
  // Records of one tag queue up until consumed; waitsome takes at most
  // `max` of them per call.
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = notify_win(ctx, 64);
    if (ctx.rank() == 0) {
      const std::uint64_t v = 1;
      for (int i = 0; i < 5; ++i) win.put_notify(&v, 8, 1, 0, 0);
      ctx.barrier();
    } else {
      ctx.barrier();  // all five records posted
      std::array<NotifyRecord, 5> recs;
      EXPECT_EQ(win.notify_waitsome(0, recs.data(), 3), 3u);
      EXPECT_EQ(win.notify_waitsome(0, recs.data(), 5), 2u);
      EXPECT_FALSE(win.notify_probe(0, recs.data())) << "all consumed";
    }
    free_notify_win(ctx, win);
  });
}

TEST(Notify, IdsAreIndependent) {
  // Tags match independently of arrival order.
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = notify_win(ctx, 64);
    if (ctx.rank() == 0) {
      const std::uint64_t a = 11, b = 22;
      win.put_notify(&a, 8, 1, 0, 0);
      win.put_notify(&b, 8, 1, 8, 2);
    } else {
      NotifyRecord rec;
      ASSERT_EQ(win.notify_waitsome(2, &rec, 1), 1u);  // out of order
      ASSERT_EQ(win.notify_waitsome(0, &rec, 1), 1u);
      const auto* mine = static_cast<const std::uint64_t*>(win.base());
      EXPECT_EQ(mine[0], 11u);
      EXPECT_EQ(mine[1], 22u);
      EXPECT_FALSE(win.notify_probe(1, &rec));
    }
    free_notify_win(ctx, win);
  });
}

TEST(Notify, PipelineLikeMilcScheme) {
  // The MILC pattern with notified access: the halo arrives with its flag.
  const int p = 4;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = notify_win(ctx, 64);
    for (int round = 1; round <= 5; ++round) {
      const std::uint64_t v =
          static_cast<std::uint64_t>(round * 100 + ctx.rank());
      win.put_notify(&v, 8, (ctx.rank() + 1) % p, 0, 0);
      NotifyRecord rec;
      ASSERT_EQ(win.notify_waitsome(0, &rec, 1), 1u);
      const auto* mine = static_cast<const std::uint64_t*>(win.base());
      const int left = (ctx.rank() + p - 1) % p;
      EXPECT_EQ(rec.source, left);
      EXPECT_EQ(mine[0], static_cast<std::uint64_t>(round * 100 + left));
      ctx.barrier();  // buffer reuse across rounds
    }
    free_notify_win(ctx, win);
  });
}

TEST(Notify, Validation) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    const std::uint64_t v = 0;
    NotifyRecord rec;
    // Every notified call made before notify_enable raises.
    EXPECT_EQ(raised([&] { win.put_notify(&v, 8, 1 - ctx.rank(), 0, 0); }),
              ErrClass::op);
    EXPECT_EQ(raised([&] { win.notify_probe(0, &rec); }), ErrClass::op);
    EXPECT_EQ(raised([&] { win.notify_waitsome(0, &rec, 1); }),
              ErrClass::op);
    EXPECT_EQ(win.notify_plane(), nullptr);
    ctx.barrier();  // the plane is shared: no rank enables it early
    win.notify_enable(ctx);
    // The payload put keeps the window's own checks.
    EXPECT_EQ(raised([&] { win.put_notify(&v, 8, 1 - ctx.rank(), 60, 0); }),
              ErrClass::rma_range);
    EXPECT_EQ(raised([&] { win.put_notify(&v, 8, 2, 0, 0); }),
              ErrClass::rank);
    free_notify_win(ctx, win);
  });
}

TEST(DatatypeAccumulate, StridedSumAccelerated) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    auto* mine = static_cast<std::uint64_t*>(win.base());
    for (int i = 0; i < 8; ++i) mine[i] = 100;
    win.fence();
    if (ctx.rank() == 0) {
      // Add {1,2,3,4} into every other word of the target.
      const std::array<std::uint64_t, 4> vals{1, 2, 3, 4};
      const Datatype contig = Datatype::contiguous(4, Datatype::u64());
      const Datatype strided = Datatype::vector(4, 1, 2, Datatype::u64());
      win.accumulate(vals.data(), 1, contig, Elem::u64, RedOp::sum, 1, 0, 1,
                     strided);
    }
    win.fence();
    if (ctx.rank() == 1) {
      EXPECT_EQ(mine[0], 101u);
      EXPECT_EQ(mine[1], 100u);
      EXPECT_EQ(mine[2], 102u);
      EXPECT_EQ(mine[4], 103u);
      EXPECT_EQ(mine[6], 104u);
    }
    win.free();
  });
}

TEST(DatatypeAccumulate, StridedMinFallback) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    auto* mine = static_cast<double*>(win.base());
    for (int i = 0; i < 8; ++i) mine[i] = 50.0;
    win.fence();
    if (ctx.rank() == 0) {
      const std::array<double, 2> vals{10.0, 99.0};
      const Datatype contig = Datatype::contiguous(2, Datatype::f64());
      const Datatype strided = Datatype::vector(2, 1, 4, Datatype::f64());
      win.accumulate(vals.data(), 1, contig, Elem::f64, RedOp::min, 1, 0, 1,
                     strided);
    }
    win.fence();
    if (ctx.rank() == 1) {
      EXPECT_DOUBLE_EQ(mine[0], 10.0);
      EXPECT_DOUBLE_EQ(mine[4], 50.0);  // min(50, 99)
    }
    win.free();
  });
}

TEST(DatatypeAccumulate, MisalignedFragmentRejected) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 256);
    win.fence();
    // 4-byte blocks cannot carry 8-byte elements.
    const std::array<std::uint64_t, 2> vals{1, 2};
    const Datatype o = Datatype::contiguous(4, Datatype::i32());
    const Datatype t = Datatype::vector(4, 1, 2, Datatype::i32());
    EXPECT_THROW(win.accumulate(vals.data(), 1, o, Elem::u64, RedOp::sum,
                                1 - ctx.rank(), 0, 1, t),
                 Error);
    win.fence();
    win.free();
  });
}

TEST(Raccumulate, ExplicitCompletion) {
  const int p = 3;
  fabric::run_ranks(p, [&](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    win.lock_all();
    std::array<std::uint64_t, 4> vals{1, 1, 1, 1};
    core::RmaRequest req =
        win.raccumulate(vals.data(), 4, Elem::u64, RedOp::sum, 0, 0);
    req.wait();
    win.flush(0);
    win.unlock_all();
    ctx.barrier();
    if (ctx.rank() == 0) {
      const auto* mine = static_cast<const std::uint64_t*>(win.base());
      win.sync();
      for (int i = 0; i < 4; ++i) {
        EXPECT_EQ(mine[i], static_cast<std::uint64_t>(p));
      }
    }
    win.free();
  });
}

TEST(Raccumulate, FallbackOpsCompleteEagerly) {
  fabric::run_ranks(2, [](RankCtx& ctx) {
    Win win = Win::allocate(ctx, 64);
    auto* mine = static_cast<double*>(win.base());
    mine[0] = 5.0;
    win.fence();
    if (ctx.rank() == 1) {
      const double v = 2.0;
      core::RmaRequest req =
          win.raccumulate(&v, 1, Elem::f64, RedOp::prod, 0, 0);
      EXPECT_TRUE(req.test());  // fallback: already done
    }
    win.fence();
    if (ctx.rank() == 0) EXPECT_DOUBLE_EQ(mine[0], 10.0);
    win.free();
  });
}
