// rma_step: a modeled bulk-synchronous step on 3 ranks in throughput mode
// (4 NIC channels, auto-batch). Each step, on every rank:
//   1. 512-block strided vector halo puts to both neighbours (datatype
//      lowering -> vectored NIC ops);
//   2. a 64 KiB contiguous put to the right neighbour, then flush_all;
//   3. put_notify to both neighbours, then notify_waitsome for both;
//   4. 32 rfetch_and_op(+1) to ranks drawn from the seeded step stream;
//   5. one persistent run_alltoallv, 4 KiB per pair.
// Steps are separated by a barrier; a step's time is the maximum over ranks
// (the paper's bucket scheme). Halo, bulk and alltoallv payloads and the AMO
// counter totals are checked after every step / repetition.
//
// A traced run also measures the host fast path (see host_layers).
#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>
#include <vector>

#include "core/window.hpp"
#include "fabric/progress/progress.hpp"
#include "spans.hpp"

namespace perfbench {

namespace {

using fompi::Elem;
using fompi::Op;
using fompi::OpCounters;
using fompi::RedOp;
using fompi::now_ns;
using fompi::core::Win;
using fompi::dt::Datatype;
using fompi::fabric::RankCtx;

fompi::fabric::FabricOptions throughput_mode(fompi::rdma::Injection inject) {
  fompi::fabric::FabricOptions fo;
  fo.domain.ranks_per_node = 1;
  fo.domain.inject = inject;
  fo.domain.nic.channels = 4;
  fo.domain.nic.auto_batch = true;
  return fo;
}

/// Word `i` of the payload `src` sends in step `step` on channel `what`.
std::uint64_t word(int src, std::uint64_t step, std::uint64_t what,
                   std::uint64_t i) {
  return ((step * 8 + static_cast<std::uint64_t>(src)) << 24) ^ (what << 56) ^
         i;
}

// ---------------------------------------------------------------- rma_step

constexpr int kStepRanks = 3;
constexpr int kHaloBlocks = 512;
constexpr std::size_t kHaloArea = 8192;  // span of vector(512, 1, 2, u64)
constexpr std::size_t kBulkBytes = std::size_t{64} << 10;
constexpr int kAmoBurst = 32;
constexpr std::size_t kPairWords = 4096 / 8;  // alltoallv: 4 KiB per pair
constexpr std::uint64_t kNotifyTag = 7;
// Window layout: [halo from left | halo from right | bulk | AMO counter |
// notify payload from left | from right].
constexpr std::size_t kBulkOff = 2 * kHaloArea;
constexpr std::size_t kAmoOff = kBulkOff + kBulkBytes;
constexpr std::size_t kNotifyOff = kAmoOff + 64;
constexpr std::size_t kStepWinBytes = kNotifyOff + 128;

struct StepLayers {
  OpCounters step, a2av, health;
  std::uint64_t steps = 0, a2av_runs = 0;
  Samples bulk_ratio;
};

struct StepRun {
  StepRun(const Options& o, Report& r, Tracing& t)
      : opt(o), rep(r), tracing(t) {}
  const Options& opt;
  Report& rep;
  Tracing& tracing;
  Samples setup_s;
  PerRep bulk_ns[2];  // [traced]
  StepLayers layers;
  std::mutex mu;
  // Per-step times of the current repetition, one row per rank.
  std::vector<std::uint64_t> rank_step_ns[kStepRanks][2];
};

void step_body(StepRun& run, int rep_no, RankCtx& ctx, std::uint64_t t_call,
               std::vector<std::uint64_t>& amo_in) {
  const int r = ctx.rank();
  const int left = (r + kStepRanks - 1) % kStepRanks;
  const int right = (r + 1) % kStepRanks;
  run.tracing.bind(r, false);
  Tally tally;
  auto& coll = ctx.fabric().coll();

  Win win = Win::allocate(ctx, kStepWinBytes);
  auto* base = static_cast<std::byte*>(win.base());
  win.lock_all();
  std::uint64_t counter0 = 0;  // AMO counter before any step
  win.get(&counter0, 8, r, kAmoOff);
  win.flush(r);
  win.notify_enable(ctx, 64);  // collective: no AMO lands before the read
  Samples bulk_local[2];
  const Datatype halo = Datatype::vector(kHaloBlocks, 1, 2, Datatype::u64());
  std::vector<std::uint64_t> halo_src(2 * kHaloBlocks);
  std::vector<std::uint64_t> bulk_src(kBulkBytes / 8);
  std::vector<std::uint64_t> a2a_src(kStepRanks * kPairWords),
      a2a_dst(kStepRanks * kPairWords);
  std::vector<std::uint64_t> counts(kStepRanks, kPairWords);
  std::vector<std::uint64_t> displs(kStepRanks);
  for (std::size_t d = 0; d < displs.size(); ++d) displs[d] = d * kPairWords;
  auto plan = coll.plan_alltoallv(r, counts.data(), displs.data(), 8);
  std::array<std::uint64_t, kAmoBurst> fetched{};
  std::vector<std::uint64_t> amo_out(kStepRanks, 0);
  const std::uint64_t one = 1;
  Stream rng(mix_seed(run.opt.seed,
                      0x57e9u + static_cast<unsigned>(rep_no * 8 + r)));

  // One step; `log` non-null records spans and counters (traced half).
  const auto step = [&](std::uint64_t s, SpanLog* log, StepLayers* lay) {
    const OpCounters c0 = fompi::op_counters();
    Scope whole(log, "step", 0, 0);
    const std::uint64_t op = whole.id();
    {
      Scope sp(log, "datatype.halo", whole.id(), op);
      win.put(halo_src.data(), 1, halo, right, 0, 1, halo);
      win.put(halo_src.data(), 1, halo, left, kHaloArea, 1, halo);
    }
    const std::uint64_t b0 = now_ns();
    {
      Scope sp(log, "rdma.bulk_put", whole.id(), op);
      win.put(bulk_src.data(), kBulkBytes, right, kBulkOff);
      const std::uint64_t model_end = ctx.nic().quiesce_deadline();
      win.flush_all();
      if (lay != nullptr && model_end > b0) {
        lay->bulk_ratio.add(static_cast<double>(now_ns() - b0) /
                            static_cast<double>(model_end - b0));
      }
    }
    const std::uint64_t b1 = now_ns();
    bulk_local[log != nullptr].add(static_cast<double>(b1 - b0));
    {
      Scope sp(log, "core.notify", whole.id(), op);
      tally.op(win.put_notify(&s, 8, right, kNotifyOff, kNotifyTag) ==
                   fompi::rdma::OpStatus::ok, "put_notify failed");
      tally.op(win.put_notify(&s, 8, left, kNotifyOff + 64, kNotifyTag) ==
                   fompi::rdma::OpStatus::ok, "put_notify failed");
    }
    {
      Scope sp(log, "core.notify_wait", whole.id(), op);
      bool from_left = false, from_right = false;
      while (!(from_left && from_right)) {
        fompi::fabric::progress::NotifyRecord rec[2];
        const std::size_t n = win.notify_waitsome(kNotifyTag, rec, 2);
        for (std::size_t i = 0; i < n; ++i) {
          from_left = from_left || rec[i].source == left;
          from_right = from_right || rec[i].source == right;
        }
      }
    }
    {
      Scope sp(log, "core.amo_burst", whole.id(), op);
      fompi::core::RmaRequest req[kAmoBurst];
      for (int i = 0; i < kAmoBurst; ++i) {
        const int t = static_cast<int>(rng.below(kStepRanks));
        ++amo_out[static_cast<std::size_t>(t)];
        req[i] = win.rfetch_and_op(&one, &fetched[static_cast<std::size_t>(i)],
                                   Elem::u64, RedOp::sum, t, kAmoOff);
      }
      for (auto& q : req) q.wait();
    }
    {
      Scope sp(log, "coll.alltoallv", whole.id(), op);
      const OpCounters a0 = fompi::op_counters();
      coll.run_alltoallv(r, *plan, a2a_src.data(), a2a_dst.data());
      if (lay != nullptr) {
        add_counters(lay->a2av, fompi::op_counters().since(a0));
        ++lay->a2av_runs;
      }
    }
    if (lay != nullptr) {
      add_counters(lay->step, fompi::op_counters().since(c0));
      ++lay->steps;
    }
  };

  // Fills the step's payloads; checks what the neighbours landed here.
  const auto fill = [&](std::uint64_t s) {
    for (std::size_t i = 0; i < kHaloBlocks; ++i) {
      halo_src[2 * i] = word(r, s, 1, i);
    }
    for (std::size_t i = 0; i < bulk_src.size(); ++i) {
      bulk_src[i] = word(r, s, 2, i);
    }
    for (int d = 0; d < kStepRanks; ++d) {
      for (std::size_t i = 0; i < kPairWords; ++i) {
        a2a_src[static_cast<std::size_t>(d) * kPairWords + i] =
            word(r, s, 3 + static_cast<std::uint64_t>(d), i);
      }
    }
  };
  const auto check = [&](std::uint64_t s) {
    const auto at = [&](std::size_t off) {
      std::uint64_t v;
      std::memcpy(&v, base + off, 8);
      return v;
    };
    bool ok = true;
    for (int i = 0; i < kHaloBlocks; ++i) {
      const auto u = static_cast<std::uint64_t>(i);
      ok = ok && at(16 * u) == word(left, s, 1, u) &&
           at(kHaloArea + 16 * u) == word(right, s, 1, u);
    }
    tally.op(ok, "halo payload differs");
    ok = true;
    for (std::size_t i = 0; i < kBulkBytes / 8; ++i) {
      ok = ok && at(kBulkOff + 8 * i) == word(left, s, 2, i);
    }
    tally.op(ok, "bulk payload differs");
    tally.op(at(kNotifyOff) == s && at(kNotifyOff + 64) == s,
             "notify payload differs");
    ok = true;
    for (int src = 0; src < kStepRanks; ++src) {
      for (std::size_t i = 0; i < kPairWords; ++i) {
        ok = ok && a2a_dst[static_cast<std::size_t>(src) * kPairWords + i] ==
                       word(src, s, 3 + static_cast<std::uint64_t>(r), i);
      }
    }
    tally.op(ok, "alltoallv payload differs");
  };

  // Warm-up steps create the datatype plans, notify ring state and NIC
  // pools before timing; they count in setup_s.
  std::uint64_t s = 1;
  for (; s <= 200; ++s) {
    fill(s);
    ctx.barrier();
    step(s, nullptr, nullptr);
    check(s);
  }
  ctx.barrier();
  if (r == 0) {
    std::scoped_lock lock(run.mu);
    run.setup_s.add(static_cast<double>(now_ns() - t_call) / 1e9);
  }

  // A traced run splits its time three ways: untraced steps (for the
  // overhead ratio), traced steps, and the host fast-path pass.
  const double half_s = run.opt.seconds / kReps / (run.opt.trace ? 3 : 1);
  const OpCounters h0 = fompi::op_counters();
  StepLayers lay;
  for (const int traced : {0, 1}) {
    if (traced != 0 && !run.opt.trace) break;
    SpanLog* log = run.tracing.log(r, traced != 0);
    run.tracing.bind(r, traced != 0);
    auto& times = run.rank_step_ns[r][traced];
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(half_s * 1e9);
    for (;; ++s) {
      int more = r == 0 && now_ns() < deadline;
      ctx.bcast(0, &more, 1);
      if (more == 0) break;
      fill(s);
      ctx.barrier();
      const std::uint64_t t0 = now_ns();
      step(s, log, traced != 0 ? &lay : nullptr);
      times.push_back(now_ns() - t0);
      check(s);
    }
    run.tracing.bind(r, false);
  }
  lay.health = fompi::op_counters().since(h0);

  // AMO totals: every rank's counter equals the increments aimed at it.
  {
    std::scoped_lock lock(run.mu);
    for (int t = 0; t < kStepRanks; ++t) {
      amo_in[static_cast<std::size_t>(t)] +=
          amo_out[static_cast<std::size_t>(t)];
    }
  }
  ctx.barrier();
  win.flush_all();
  std::uint64_t counter = 0;
  win.get(&counter, 8, r, kAmoOff);
  win.flush(r);
  std::uint64_t aimed = 0;
  {
    std::scoped_lock lock(run.mu);
    aimed = amo_in[static_cast<std::size_t>(r)];
  }
  tally.op(counter - counter0 == aimed, "AMO counter total differs");
  win.unlock_all();
  ctx.barrier();
  plan.reset();
  win.free();
  std::scoped_lock lock(run.mu);
  add_counters(run.layers.step, lay.step);
  add_counters(run.layers.a2av, lay.a2av);
  add_counters(run.layers.health, lay.health);
  run.layers.steps += lay.steps;
  run.layers.a2av_runs += lay.a2av_runs;
  run.layers.bulk_ratio.append(lay.bulk_ratio);
  for (const int traced : {0, 1}) {
    run.bulk_ns[traced][rep_no].append(bulk_local[traced]);
  }
  run.rep.merge(tally);
}

// ------------------------------------------------------ host fast path

// Host software cost is hidden under modeled latency in the step, so a
// traced rma_step run also measures the issue path under Injection::none:
// 2 ranks, the step's NIC config, rank 0 alone issuing passive-target ops
// to rank 1 (with every rank issuing, host numbers swing up to 3x): 8-byte
// put / get / fetch_and_op each completed by a flush, 8-byte puts with one
// flush per 64, 1 MiB put and get, and a 1024-block vector put. These are
// per-layer numbers only: host time on a shared machine swings 1.2-1.6x
// between quiet and busy periods, more than any end-to-end bound allows.
constexpr int kHostRanks = 2;
constexpr int kSmallBatch = 32;  // small-op samples are 32-op batch means
constexpr int kNbiBatch = 64;
constexpr std::size_t kBulk = std::size_t{1} << 20;
constexpr int kVecBlocks = 1024;
// Window layout on rank 1: [small-op words | nbi words | vector span |
// bulk].
constexpr std::size_t kNbiOff = 64;
constexpr std::size_t kVecOff = kNbiOff + kNbiBatch * 8;
constexpr std::size_t kHostBulkOff = kVecOff + 2 * kVecBlocks * 8;
constexpr std::size_t kHostWinBytes = kHostBulkOff + kBulk;

struct HostRun {
  Samples small_ns[2];  // [traced]
  Samples nbi_rate, vec_ns;
  std::uint64_t small_ops = 0, small_checks = 0, nbi_ops = 0, doorbells = 0,
                bulk_bytes = 0, copied = 0, bulk_ns = 0;
  std::atomic<bool> issuer_done{false};
};

void host_body(HostRun& run, Tracing& tracing, Report& rep, double seconds,
               RankCtx& ctx) {
  const int r = ctx.rank();
  tracing.bind(r, false);
  Tally tally;
  Win win = Win::allocate(ctx, kHostWinBytes);
  ctx.barrier();
  if (r != 0) {
    // The target only exposes memory. It sleeps rather than spinning in a
    // barrier, so the issuer has a core to itself.
    while (!run.issuer_done.load()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ctx.barrier();
    win.free();
    return;
  }
  constexpr int t = 1;
  win.lock_all();
  const Datatype vec = Datatype::vector(kVecBlocks, 1, 2, Datatype::u64());
  std::vector<std::uint64_t> bulk_src(kBulk / 8), bulk_back(kBulk / 8);
  std::vector<std::uint64_t> vec_src(2 * kVecBlocks), vec_back(2 * kVecBlocks);
  std::array<std::uint64_t, kNbiBatch> nbi_src{}, nbi_back{};
  std::uint64_t serial = 0, fao_expect = 0;
  win.get(&fao_expect, 8, t, 8);
  win.flush(t);
  const std::uint64_t one = 1;

  // One round of every op family; `log` non-null records per-call spans
  // and the counter deltas (traced half).
  const auto round = [&](SpanLog* log, bool timed) {
    const bool traced = log != nullptr;
    std::uint64_t got = 0, last = 0;
    const OpCounters c0 = fompi::op_counters();
    // Timed batches carry no benchmark spans, so the traced/untraced
    // ratio is the program's own tracing cost; a traced half then runs one
    // more batch per kind with a span around every call.
    for (int pass = 0; pass < (traced ? 2 : 1); ++pass) {
      SpanLog* calls = pass == 1 ? log : nullptr;
      for (int kind = 0; kind < 3; ++kind) {
        const std::uint64_t t0 = now_ns();
        for (int i = 0; i < kSmallBatch; ++i) {
          if (kind == 0) {
            last = ++serial;
            Scope sp(calls, "core.put", 0, 0);
            win.put(&last, 8, t, 0);
          } else if (kind == 1) {
            Scope sp(calls, "core.get", 0, 0);
            win.get(&got, 8, t, 0);
          } else {
            Scope sp(calls, "core.fetch_and_op", 0, 0);
            win.fetch_and_op(&one, &got, Elem::u64, RedOp::sum, t, 8);
          }
          {
            Scope sp(calls, "core.flush", 0, 0);
            win.flush(t);
          }
          if (kind == 2) {
            tally.op(got == fao_expect, "fetch_and_op fetched a wrong value");
            ++fao_expect;
          }
        }
        if (timed && pass == 0) {
          run.small_ns[traced].add(static_cast<double>(now_ns() - t0) /
                                   kSmallBatch);
        }
        if (kind == 1) tally.op(got == serial, "get after put differs");
      }
    }
    const OpCounters c1 = fompi::op_counters();

    for (auto& w : nbi_src) w = ++serial;
    const std::uint64_t n0 = now_ns();
    for (int i = 0; i < kNbiBatch; ++i) {
      win.put(&nbi_src[static_cast<std::size_t>(i)], 8, t,
              kNbiOff + 8 * static_cast<std::size_t>(i));
    }
    win.flush(t);
    const std::uint64_t n1 = now_ns();
    const OpCounters c2 = fompi::op_counters();
    win.get(nbi_back.data(), sizeof nbi_back, t, kNbiOff);
    win.flush(t);
    tally.op(nbi_back == nbi_src, "nbi puts landed wrong");

    bulk_src.front() = bulk_src.back() = ++serial;
    const OpCounters c3 = fompi::op_counters();
    const std::uint64_t b0 = now_ns();
    {
      Scope sp(log, "rdma.bulk_put", 0, 0);
      win.put(bulk_src.data(), kBulk, t, kHostBulkOff);
      win.flush(t);
    }
    {
      Scope sp(log, "rdma.bulk_get", 0, 0);
      win.get(bulk_back.data(), kBulk, t, kHostBulkOff);
      win.flush(t);
    }
    const std::uint64_t b2 = now_ns();
    const OpCounters c4 = fompi::op_counters();
    tally.op(bulk_back == bulk_src, "1 MiB get after put differs");

    for (std::size_t i = 0; i < kVecBlocks; ++i) vec_src[2 * i] = ++serial;
    const std::uint64_t v0 = now_ns();
    {
      Scope sp(log, "datatype.vector_put", 0, 0);
      win.put(vec_src.data(), 1, vec, t, kVecOff, 1, vec);
      win.flush(t);
    }
    const std::uint64_t v1 = now_ns();
    win.get(vec_back.data(), 1, vec, t, kVecOff, 1, vec);
    win.flush(t);
    bool ok = true;
    for (int i = 0; i < kVecBlocks; ++i) {
      ok = ok && vec_back[static_cast<std::size_t>(2 * i)] ==
                     vec_src[static_cast<std::size_t>(2 * i)];
    }
    tally.op(ok, "vector get after put differs");
    if (!timed) return;

    if (!traced) {
      run.nbi_rate.add(kNbiBatch * 1e9 / static_cast<double>(n1 - n0));
      return;
    }
    run.vec_ns.add(static_cast<double>(v1 - v0));
    run.small_ops += 6 * kSmallBatch;
    run.small_checks += c1.since(c0).get(Op::validation_check);
    run.nbi_ops += kNbiBatch;
    run.doorbells += c2.since(c1).get(Op::doorbell_ring);
    run.bulk_bytes += 2 * kBulk;
    run.bulk_ns += b2 - b0;
    run.copied += c4.since(c3).get(Op::bytes_copied);
  };

  // Warm-up: NIC pools, rkey cache, datatype lowering, page faults.
  for (int i = 0; i < 64; ++i) round(nullptr, false);
  for (const int traced : {0, 1}) {
    SpanLog* log = tracing.log(r, traced != 0);
    tracing.bind(r, traced != 0);
    const std::uint64_t deadline =
        now_ns() + static_cast<std::uint64_t>(seconds / 2 * 1e9);
    while (now_ns() < deadline) round(log, true);
    tracing.bind(r, false);
  }
  win.unlock_all();
  run.issuer_done.store(true);
  ctx.barrier();
  win.free();
  rep.merge(tally);
}

double per(std::uint64_t a, std::uint64_t b) {
  return b == 0 ? 0 : static_cast<double>(a) / static_cast<double>(b);
}

/// Per-layer host numbers of the issue path (traced runs only).
void host_layers(const Options& opt, Report& rep, double seconds) {
  Tracing tracing(kHostRanks, true);
  HostRun run;
  fompi::fabric::run_ranks(
      kHostRanks,
      [&](RankCtx& ctx) { host_body(run, tracing, rep, seconds, ctx); },
      throughput_mode(fompi::rdma::Injection::none));
  rep.set("core.host_small_op_ns", run.small_ns[0].quantile(0.5), "host",
          run.small_ns[0].size(),
          "8-byte put/get/fetch_and_op + flush, untraced 32-op batch means");
  rep.set("rdma.host_msg_rate_mops", run.nbi_rate.quantile(0.5) / 1e6, "host",
          run.nbi_rate.size(), "8-byte puts, one flush per 64, untraced");
  tracing.set_median(rep, "core.host_put_ns", "core.put", 1e3, "host",
                     "8-byte put call");
  tracing.set_median(rep, "core.host_get_ns", "core.get", 1e3, "host",
                     "8-byte get call");
  tracing.set_median(rep, "core.host_amo_ns", "core.fetch_and_op", 1e3,
                     "host", "8-byte fetch_and_op call");
  tracing.set_median(rep, "core.host_flush_ns", "core.flush", 1e3, "host",
                     "flush after one 8-byte op");
  rep.set("core.validation_check_per_op", per(run.small_checks, run.small_ops),
          "count", run.small_ops, "validation checks per 8-byte op + flush");
  rep.set("rdma.host_doorbell_per_op", per(run.doorbells, run.nbi_ops),
          "count", run.nbi_ops, "doorbells per 8-byte nbi put");
  rep.set("rdma.host_bytes_copied_per_s",
          run.bulk_ns == 0 ? 0 : static_cast<double>(run.copied) * 1e9 /
                                     static_cast<double>(run.bulk_ns),
          "host", 0, "bytes_copied counter over 1 MiB put+get time");
  rep.set("rdma.host_bulk_gbps",
          run.bulk_ns == 0 ? 0 : static_cast<double>(run.bulk_bytes) /
                                     static_cast<double>(run.bulk_ns),
          "host", 0, "1 MiB put+flush and get+flush, GB/s");
  rep.set("datatype.host_ns_per_block", run.vec_ns.quantile(0.5) / kVecBlocks,
          "host", run.vec_ns.size(), "1024-block vector put + flush / 1024");
  const double plain = run.small_ns[0].quantile(0.5);
  rep.set("trace.host_overhead_ratio",
          plain > 0 ? run.small_ns[1].quantile(0.5) / plain : 0, "host",
          run.small_ns[1].size(),
          "traced / untraced 8-byte op + flush (program tracing only)");
  tracing.write(rep, opt, opt.workload + ".host");
}

}  // namespace

void run_rma_step(const Options& opt, Report& rep) {
  if (opt.trace) {
    // Runs first: the step's trace session must not be installed.
    host_layers(opt, rep, opt.seconds / 3);
  }
  Tracing tracing(kStepRanks, opt.trace);
  StepRun run(opt, rep, tracing);
  rep.set_ranks(kStepRanks);
  const auto fo = throughput_mode(fompi::rdma::Injection::model);
  PerRep step_ns[2];
  Samples imbalance;
  for (int rep_no = 0; rep_no < kReps; ++rep_no) {
    std::vector<std::uint64_t> amo_in(kStepRanks, 0);
    for (auto& row : run.rank_step_ns) {
      for (auto& v : row) v.clear();
    }
    const std::uint64_t t_call = now_ns();
    fompi::fabric::run_ranks(
        kStepRanks,
        [&](RankCtx& ctx) { step_body(run, rep_no, ctx, t_call, amo_in); },
        fo);
    for (int traced = 0; traced < 2; ++traced) {
      const std::size_t n = run.rank_step_ns[0][traced].size();
      for (std::size_t i = 0; i < n; ++i) {
        std::array<std::uint64_t, kStepRanks> per_rank{};
        for (std::size_t q = 0; q < per_rank.size(); ++q) {
          per_rank[q] = run.rank_step_ns[q][traced][i];
        }
        std::sort(per_rank.begin(), per_rank.end());
        step_ns[traced][rep_no].add(static_cast<double>(per_rank.back()));
        if (traced == 1) {
          imbalance.add(static_cast<double>(per_rank.back() -
                                            per_rank[kStepRanks / 2]));
        }
      }
    }
  }

  rep.set("setup_s", run.setup_s.quantile(0.5), "host", run.setup_s.size(),
          "run_ranks call to first timed step: window, plan, notify ring, "
          "200 warm-up steps");
  rep.quantiles_us("", step_ns[0], "modeled",
                   "bulk-synchronous step, max over 3 ranks");
  rep.quantiles_us("write_", run.bulk_ns[0], "modeled",
                   "64 KiB put + flush_all (halo puts in flight)");
  rep.set("ops_per_s", 1e9 / step_ns[0].across_mean(), "modeled",
          step_ns[0].size(), "steps per second of step time (1 / mean step)");
  if (!opt.trace) return;

  StepLayers& l = run.layers;
  const auto per_step = [&](const char* name, Op op, const char* what) {
    rep.set(name, per(l.step.get(op), l.steps), "count", l.steps, what);
  };
  tracing.set_median(rep, "datatype.halo_us", "datatype.halo", 1, "modeled",
                     "two 512-block vector put calls");
  per_step("datatype.vectored_op_per_step", Op::vectored_op,
           "vectored NIC ops per rank-step");
  rep.set("datatype.flatten_cache_hit_ratio",
          per(l.step.get(Op::flatten_cache_hit),
              l.step.get(Op::flatten_cache_hit) +
                  l.step.get(Op::flatten_cache_build)),
          "count", l.steps, "datatype lowerings served from the flatten cache");
  tracing.set_median(rep, "rdma.bulk_put_us", "rdma.bulk_put", 1, "modeled",
                     "64 KiB put + flush_all");
  rep.set("rdma.bulk_put_model_ratio", l.bulk_ratio.quantile(0.5), "modeled",
          l.bulk_ratio.size(),
          "bulk put + flush_all / NIC modeled quiesce time (>1: host overrun)");
  per_step("rdma.doorbell_per_step", Op::doorbell_ring,
           "coalesced doorbells per rank-step");
  per_step("rdma.batched_op_per_step", Op::batched_op,
           "ops behind a coalesced doorbell per rank-step");
  per_step("rdma.channel_stripe_per_step", Op::channel_stripe,
           "striped BTE transfers per rank-step");
  per_step("rdma.bytes_copied_per_step", Op::bytes_copied,
           "payload bytes moved per rank-step");
  per_step("rdma.amo_per_step", Op::transport_amo,
           "remote AMOs per rank-step");
  per_step("progress.notify_retry", Op::notify_retry,
           "notify-ring overflow retries per rank-step");
  tracing.set_median(rep, "core.notify_us", "core.notify", 1, "modeled",
                     "two put_notify calls");
  tracing.set_median(rep, "core.notify_wait_us", "core.notify_wait", 1,
                     "modeled", "notify_waitsome until both neighbours");
  tracing.set_median(rep, "core.amo_burst_us", "core.amo_burst", 1,
                     "modeled", "32 rfetch_and_op + waits");
  tracing.set_median(rep, "coll.alltoallv_us", "coll.alltoallv", 1,
                     "modeled", "run_alltoallv, 4 KiB per pair");
  rep.set("coll.alltoallv_puts",
          per(l.a2av.get(Op::transport_put), l.a2av_runs), "count",
          l.a2av_runs, "transport puts per run_alltoallv (budget: p)");
  rep.set("coll.alltoallv_amos",
          per(l.a2av.get(Op::transport_amo), l.a2av_runs), "count",
          l.a2av_runs, "remote AMOs per run_alltoallv (budget: p)");
  rep.set("fabric.step_imbalance_us", imbalance.quantile(0.5) / 1e3,
          "modeled", imbalance.size(), "slowest rank - median rank, per step");
  report_health(rep, l.health);
  const double plain = step_ns[0].across(0.5);
  tracing.set_trace_metrics(rep, l.steps,
                            plain > 0 ? step_ns[1].across(0.5) / plain : 0);
  tracing.write(rep, opt, opt.workload);
}

}  // namespace perfbench
