#include "kv/kv.hpp"

#include <algorithm>
#include <utility>

#include "common/backoff.hpp"
#include "common/instr.hpp"
#include "common/rng.hpp"
#include "common/timing.hpp"
#include "fabric/progress/progress.hpp"
#include "kv/zipf.hpp"

namespace fompi::kv {

namespace {

constexpr std::size_t kTopStride = 24;   // top cell {key, version, value}
constexpr std::size_t kCellStride = 32;  // overflow cell, next link last

// Seqlock spins stuck this long on an odd version check for a dead writer
// before attempting revocation (mirrors the window's dead-lock-holder path).
constexpr int kRevokeSpins = 256;

// A fleet fiber's pause before retrying a cell it found locked or torn.
constexpr std::uint64_t kFiberBackoffNs = 1000;

}  // namespace

KvStore::KvStore(fabric::RankCtx& ctx, KvConfig cfg)
    : cfg_(cfg),
      nranks_(ctx.nranks()),
      rank_(ctx.rank()),
      fabric_(&ctx.fabric()) {
  FOMPI_REQUIRE(cfg_.shards >= 1, ErrClass::arg, "kv needs >= 1 shard");
  FOMPI_REQUIRE(cfg_.table_slots > 0 && cfg_.heap_slots > 0, ErrClass::arg,
                "kv needs nonzero shard capacities");
  FOMPI_REQUIRE(cfg_.routing_rank >= 0 && cfg_.routing_rank < nranks_,
                ErrClass::arg, "kv routing rank out of range");
  FOMPI_REQUIRE(cfg_.drain_chunk >= 8, ErrClass::arg,
                "kv drain chunk too small");
  FOMPI_REQUIRE(cfg_.spare_factor >= 1, ErrClass::arg,
                "kv needs a nonzero spare bank");
  shards_per_rank_ = (cfg_.shards + nranks_ - 1) / nranks_;

  core::WinConfig wc;
  wc.err_mode = core::ErrMode::errors_return;  // service degrades, not dies
  const std::size_t bytes =
      routing_bytes() +
      (2 * static_cast<std::size_t>(shards_per_rank_) +
       static_cast<std::size_t>(spare_slots())) *
          shard_region_bytes();
  win_ = core::Win::allocate(ctx, bytes, wc);

  // The routing home publishes the generation word (offset 0; even =
  // stable, odd = reconfiguration in flight) and the authoritative table
  // into its own region before the barrier; clients fetch the consistent
  // {generation, table} pair one-sided afterwards (MR-fetch idiom: one
  // rget at attach time, no metadata traffic per op).
  if (rank_ == cfg_.routing_rank) {
    auto* words = static_cast<std::uint64_t*>(win_.base());
    words[0] = 0;  // generation
    words[1] = 0;  // pad: keeps the table 16-byte aligned
    for (int s = 0; s < cfg_.shards; ++s) {
      const int owner = s % nranks_;
      const int repl = (owner + 1) % nranks_;
      const int slot = s / nranks_;
      words[2 + s] =
          static_cast<std::uint64_t>(pack_copy(Copy{owner, 0, slot})) |
          (static_cast<std::uint64_t>(pack_copy(Copy{repl, 1, slot})) << 32);
    }
  }
  win_.lock_all();  // passive epoch held for the service's lifetime
  ctx.barrier();

  routing_.assign(static_cast<std::size_t>(cfg_.shards), 0);
  degraded_.assign(static_cast<std::size_t>(cfg_.shards), false);
  records_.assign(static_cast<std::size_t>(cfg_.shards), {});
  const auto st = refresh_routing();
  FOMPI_REQUIRE(st == rdma::OpStatus::ok, ErrClass::internal,
                "kv routing-table fetch failed");
  ctx.barrier();  // no traffic before every client holds the table
}

void KvStore::destroy(fabric::RankCtx& ctx) {
  ctx.barrier();
  win_.unlock_all();
  win_.free();
}

// --- layout -----------------------------------------------------------------

std::size_t KvStore::routing_bytes() const {
  // [generation | pad][8-byte packed entry per shard].
  return 16 + 8 * static_cast<std::size_t>(cfg_.shards);
}

std::size_t KvStore::shard_region_bytes() const {
  return BucketLayout{0, cfg_.table_slots, cfg_.heap_slots, kTopStride,
                      kCellStride}
      .region_bytes();
}

std::size_t KvStore::copy_base(const Copy& c) const {
  // Banks 0 (primary) and 1 (replica) hold shards_per_rank regions each;
  // bank 2 (spares) is spare_factor times wider.
  const std::size_t spr = static_cast<std::size_t>(shards_per_rank_);
  const std::size_t regions =
      c.bank < 2 ? static_cast<std::size_t>(c.bank) * spr +
                       static_cast<std::size_t>(c.slot)
                 : 2 * spr + static_cast<std::size_t>(c.slot);
  return routing_bytes() + regions * shard_region_bytes();
}

BucketLayout KvStore::layout_of(const Copy& c) const {
  return {copy_base(c), cfg_.table_slots, cfg_.heap_slots, kTopStride,
          kCellStride};
}

int KvStore::shard_of(std::uint64_t key) const {
  return static_cast<int>(mix64(key) %
                          static_cast<std::uint64_t>(cfg_.shards));
}

std::size_t KvStore::slot_of(std::uint64_t key) const {
  return static_cast<std::size_t>(mix64(key) >> 32) % cfg_.table_slots;
}

Copy KvStore::copy_of(int shard, bool replica) const {
  const std::uint64_t w = routing_[static_cast<std::size_t>(shard)];
  return unpack_copy(static_cast<std::uint32_t>(replica ? (w >> 32) : w));
}

int KvStore::owner_of(int shard) const { return copy_of(shard, false).rank; }

int KvStore::replica_of(int shard) const { return copy_of(shard, true).rank; }

rdma::OpStatus KvStore::probe_owner(int shard) {
  // Identity accumulate (+0): pure reads are served from a dead rank's
  // frozen memory image under the fail-stop model, so only a mutating AMO
  // yields the typed peer_dead. Adding zero leaves the header word as is.
  return amo_add(owner_of(shard), copy_base(copy_of(shard, false)), 0);
}

// --- typed-status AMO helpers ------------------------------------------------
//
// Every remote word access goes through the request-based ops: faults
// retire as typed statuses instead of raising (or, under errors_return,
// silently recording), so the client can degrade per shard. An awaited
// rput/raccumulate is remotely complete at retire, which the seqlock's
// publish ordering relies on.

rdma::OpStatus KvStore::wait_req(core::RmaRequest& req) {
  rdma::OpStatus st = rdma::OpStatus::ok;
  if (req.handles().empty()) {
    // Eager retirement: under errors_return a dead-peer issue records into
    // the window instead of producing a handle. Consume the sticky status.
    st = win_.last_error();
    if (st != rdma::OpStatus::ok) win_.clear_last_error();
  }
  for (const auto h : req.handles()) {
    const auto s = req.nic()->wait_status(h);
    if (s != rdma::OpStatus::ok && st == rdma::OpStatus::ok) st = s;
  }
  req.dismiss();
  return st;
}

rdma::OpStatus KvStore::amo_read(int t, std::size_t off, std::uint64_t* v) {
  auto req = win_.rfetch_and_op(nullptr, v, Elem::u64, RedOp::no_op, t, off);
  return wait_req(req);
}

rdma::OpStatus KvStore::amo_cas(int t, std::size_t off, std::uint64_t expect,
                                std::uint64_t desired, std::uint64_t* prev) {
  auto req =
      win_.rcompare_and_swap(&desired, &expect, prev, Elem::u64, t, off);
  return wait_req(req);
}

rdma::OpStatus KvStore::amo_add(int t, std::size_t off, std::uint64_t add) {
  auto req = win_.raccumulate(&add, 1, Elem::u64, RedOp::sum, t, off);
  return wait_req(req);
}

rdma::OpStatus KvStore::amo_write(int t, std::size_t off, std::uint64_t v) {
  auto req = win_.raccumulate(&v, 1, Elem::u64, RedOp::replace, t, off);
  return wait_req(req);
}

// --- versioned routing -------------------------------------------------------
//
// The routing table carries a generation word: even = stable, odd = a
// reconfiguration is in flight. Clients that have observed a death validate
// their cached generation with one AMO per op (piggybacked on the op's
// first round); a mismatch retires the op as typed
// retry_routing and — once the generation is stable again — re-fetches a
// consistent {generation, table} pair. Before any death the generation
// cannot have moved, so the healthy fast path skips all of this for the
// cost of one atomic load and a branch.

bool KvStore::routing_suspect() const {
  return fabric_->domain().death_epoch() != 0;
}

std::uint64_t KvStore::generation() {
  std::uint64_t g = 0;
  amo_read(cfg_.routing_rank, 0, &g);
  return g;
}

rdma::OpStatus KvStore::handle_gen_mismatch(std::uint64_t gen) {
  count(Op::kv_retry_routing);
  // Odd generation: the coordinator is mid-reconfiguration. Retire the op
  // typed instead of blocking the client under the coordinator's drain;
  // the caller reissues and refreshes once the generation stabilizes.
  if ((gen & 1) == 0) {
    const auto st = refresh_routing();
    if (st != rdma::OpStatus::ok) return st;
  }
  return rdma::OpStatus::retry_routing;
}

rdma::OpStatus KvStore::check_generation() {
  if (!routing_suspect()) return rdma::OpStatus::ok;
  std::uint64_t g = 0;
  const auto st = amo_read(cfg_.routing_rank, 0, &g);
  if (st != rdma::OpStatus::ok) return st;
  if (g == gen_seen_) return rdma::OpStatus::ok;
  return handle_gen_mismatch(g);
}

rdma::OpStatus KvStore::raw_fetch_table(std::vector<std::uint64_t>* table) {
  // The coordinator republishes routing entries with AMO writes while the
  // generation is odd, so a refetch can race those writes: the table is an
  // AMO-raced region and must be read word-wise through fetch-AMOs (the
  // same rule every other raced word in the store follows), not one rget.
  // All fetches go in flight before any is awaited, so the word-wise read
  // still overlaps into ~one round trip.
  const auto n = static_cast<std::size_t>(cfg_.shards);
  table->assign(n, 0);
  std::vector<core::RmaRequest> reqs(n);
  for (std::size_t s = 0; s < n; ++s) {
    reqs[s] = win_.rfetch_and_op(nullptr, &(*table)[s], Elem::u64,
                                 RedOp::no_op, cfg_.routing_rank, 16 + 8 * s);
  }
  rdma::OpStatus st = rdma::OpStatus::ok;
  for (auto& req : reqs) {
    const auto s = wait_req(req);
    if (s != rdma::OpStatus::ok && st == rdma::OpStatus::ok) st = s;
  }
  return st;
}

rdma::OpStatus KvStore::refresh_routing() {
  // Consistent-pair protocol: generation, table, generation again — accept
  // only a stable (even) generation that did not move across the table
  // get. This is what makes a LATE first fetch safe: a client attaching
  // while a recovery is republishing entries can never install a half-new
  // table under an old generation stamp.
  const std::vector<std::uint64_t> old = routing_;
  std::vector<std::uint64_t> table;
  Backoff bo;
  while (true) {
    std::uint64_t g1 = 0;
    auto st = amo_read(cfg_.routing_rank, 0, &g1);
    if (st != rdma::OpStatus::ok) return st;
    if ((g1 & 1) == 0) {
      st = raw_fetch_table(&table);
      if (st != rdma::OpStatus::ok) return st;
      std::uint64_t g2 = 0;
      st = amo_read(cfg_.routing_rank, 0, &g2);
      if (st != rdma::OpStatus::ok) return st;
      if (g1 == g2) {
        routing_ = table;
        gen_seen_ = g1;
        apply_routing(old);
        return rdma::OpStatus::ok;
      }
    }
    bo.pause();  // reconfiguration in flight: poll politely, never raw-spin
    fabric_->yield_check();
  }
}

void KvStore::apply_routing(const std::vector<std::uint64_t>& old) {
  for (int s = 0; s < cfg_.shards; ++s) {
    const auto i = static_cast<std::size_t>(s);
    if (old.size() == routing_.size() && old[i] != routing_[i]) {
      // The shard's copies moved: records name cells of the old regions.
      records_[i].clear();
    }
    degraded_[i] = !win_.peer_alive(copy_of(s, false).rank);
  }
}

// --- failover ----------------------------------------------------------------

bool KvStore::any_peer_dead() const {
  for (int r = 0; r < nranks_; ++r) {
    if (!win_.peer_alive(r)) return true;
  }
  return false;
}

void KvStore::fail_over(int shard) {
  if (degraded_[static_cast<std::size_t>(shard)]) return;
  degraded_[static_cast<std::size_t>(shard)] = true;
  // A dead primary's frozen versions never move again: drop cached values.
  for (auto& kr : records_[static_cast<std::size_t>(shard)]) {
    kr.second.cached = false;
  }
  count(Op::kv_failover);
}

rdma::OpStatus KvStore::maybe_revoke(int t, std::size_t ver_off,
                                     std::uint64_t stuck_ver) {
  // A writer that died between lock (v -> odd) and release leaves the
  // seqlock wedged. Only ever force-release when a death has actually been
  // observed; the CAS makes revocation race-safe against a live writer's
  // own release. The cell's last in-flight write may or may not have
  // landed — fail-stop semantics, either value is a legal outcome.
  //
  // The status matters to the caller: when the cell's HOST is dead, the
  // version is frozen odd forever and the revocation CAS (a mutating AMO)
  // retires peer_dead without touching the image — the spin can never be
  // released and the caller must retire typed instead of waiting.
  if (!any_peer_dead()) return rdma::OpStatus::ok;
  std::uint64_t prev = 0;
  return amo_cas(t, ver_off, stuck_ver, stuck_ver + 1, &prev);
}


// --- rounds --------------------------------------------------------------------
//
// A KV op is a few rounds: each round's ops overlap on the wire, and the
// next round is issued only once all of them retired. Every op is a state
// machine over its rounds — step() consumes the retired round and issues
// the next — so get()/put() run it on the calling thread and a fleet fiber
// parks once on the very same round. Either way retire() retires a round's
// ops in issue order, which is also the order their effects land under
// deferred delivery; the write protocol below relies on it.

core::RmaRequest KvStore::rget_cell(int t, std::size_t cell_off,
                                    CellWords* c, bool with_next) {
  // Aligned word runs move word-atomically: no word tears against an AMO.
  return win_.rget(c, with_next ? sizeof(CellWords) : 3 * sizeof(std::uint64_t),
                   t, cell_off);
}

struct KvStore::RoundOp {
  explicit RoundOp(KvStore& kv) : kv(kv) {}

  /// Consumes the retire()d round and issues the next; true once the op
  /// retired (`status` and the outputs are then final). With `backoff`
  /// set the round is empty: pause, then step() again.
  virtual bool step() = 0;

  /// Handles of the round in flight, in issue order: what a fleet fiber
  /// parks on (FOMPI_FIBER_AWAIT_ROUND) before it calls retire().
  const rdma::Handle* handles() const noexcept { return hs; }
  std::size_t handle_count() const noexcept { return nh; }
  /// Retires the round's ops in issue order and records their statuses,
  /// blocking on any still in flight. An op that retired at issue already
  /// holds its status.
  void retire() {
    for (std::size_t i = 0; i < n; ++i) {
      if (!reqs[i].handles().empty()) sts[i] = kv.wait_req(reqs[i]);
    }
  }
  /// The round in flight may hold a cell lock other ops wait on.
  virtual bool critical() const { return false; }

  bool backoff = false;
  rdma::OpStatus status = rdma::OpStatus::ok;

 protected:
  ~RoundOp() = default;  // ops live on stacks and in fibers, never deleted
                         // through this base

  static constexpr std::size_t kMaxOps = 6;
  static constexpr std::size_t kUnset = kMaxOps;  ///< op not in the round

  /// Adds `req` to the round being issued (its first op opens the round).
  std::size_t issue(core::RmaRequest req) {
    if (n == 0) {
      count(Op::kv_round);
      nh = 0;
    }
    sts[n] = rdma::OpStatus::ok;
    if (req.handles().empty()) {
      // Retired at issue: under errors_return a dead-peer status went to
      // the window's sticky last_error(), which every op of this rank
      // shares. Take it now, before another fiber's op overwrites it.
      sts[n] = kv.win_.last_error();
      kv.win_.clear_last_error();
      req.dismiss();
    } else {
      // Each KV request is one NIC op; retire() still waits on all of them.
      hs[nh++] = req.handles().front();
    }
    reqs[n] = std::move(req);
    return n++;
  }
  std::size_t read(int t, std::size_t off, std::uint64_t* v) {
    return issue(
        kv.win_.rfetch_and_op(nullptr, v, Elem::u64, RedOp::no_op, t, off));
  }
  std::size_t cas(int t, std::size_t off, std::uint64_t expect,
                  std::uint64_t desired, std::uint64_t* prev) {
    return issue(kv.win_.rcompare_and_swap(&desired, &expect, prev,
                                           Elem::u64, t, off));
  }
  std::size_t write(int t, std::size_t off, std::uint64_t v) {
    return issue(
        kv.win_.raccumulate(&v, 1, Elem::u64, RedOp::replace, t, off));
  }

  KvStore& kv;
  core::RmaRequest reqs[kMaxOps];
  rdma::OpStatus sts[kMaxOps] = {};
  rdma::Handle hs[kMaxOps] = {};
  std::size_t n = 0, nh = 0;
};

rdma::OpStatus KvStore::run(RoundOp& op) {
  Backoff bo;
  while (!op.step()) {
    if (op.backoff) {
      bo.pause();
      fabric_->yield_check();
      continue;
    }
    op.retire();
  }
  return op.status;
}

namespace {
void require_user_key(std::uint64_t key) {
  FOMPI_REQUIRE(key != 0 && key != kTombstone, ErrClass::arg,
                "kv keys must be nonzero and not the tombstone");
}
}  // namespace

rdma::OpStatus KvStore::data_loss_on(int /*shard*/) {
  // The addressed shard's owner AND replica are dead: under fail-stop the
  // frozen images stay readable, but serving them would hand out values
  // that can never be repaired or invalidated — retire typed instead. A
  // stale table can name two dead copies of a shard that was healed onto
  // live ones, so the generation decides first.
  const auto gst = check_generation();
  if (gst != rdma::OpStatus::ok) return gst;
  count(Op::kv_data_loss);
  return rdma::OpStatus::data_loss;
}

// --- get ------------------------------------------------------------------------
//
// GetOp is the whole read: routing, generation check, the key's record,
// cell snapshot, chain walk, seqlock retries, failover. Remote rounds:
//   cache hit        {recorded cell's version}              1 AMO
//   stale record     {recorded cell's version} > rget > v2  2 AMOs + 1 get
//   unclaimed slot   {top v1} > top rget                    1 AMO + 1 get
//   top-cell key     {top v1} > top rget > v2               2 AMOs + 1 get
//   k-hop chain key  {top v1} > top rget > head > k hop rgets
//                    > {v1, cell rget} > v2                 4 AMOs + (k+2) gets
// An unchanged version of a cached record's cell is a hit (see Record); a
// moved one re-snapshots that cell, and a key that left it sends the get
// back to the top cell. Once a death was observed the generation read
// joins the first round. Every later snapshot — a chain cell, a seqlock
// retry — issues v1 and the rget in one round: the round applies them in
// order, so a writer can only tear the one round trip to v2.

KvStore::Record& KvStore::note(int shard, std::uint64_t key, int c,
                               std::size_t cell, std::uint64_t ver) {
  Record& r = records_[static_cast<std::size_t>(shard)][key];
  if (r.cell[c] != cell || ver > r.ver[c]) {
    r.cell[c] = cell;
    r.ver[c] = ver;
    if (c == 0) r.cached = false;
  }
  return r;
}

struct KvStore::GetOp final : RoundOp {
  explicit GetOp(KvStore& kv) : RoundOp(kv) {}

  void start(std::uint64_t k) {
    require_user_key(k);
    key = k;
    phase = Phase::route;
    status = rdma::OpStatus::ok;
    found = hit = backoff = false;
    value = 0;
  }

  bool step() override {
    backoff = false;
    if (phase >= Phase::cell && phase <= Phase::hop) {
      for (std::size_t i = 0; i < n; ++i) {
        if (sts[i] != rdma::OpStatus::ok) return fail(sts[i]);
      }
    }
    switch (phase) {
      case Phase::route:
        shard = kv.shard_of(key);
        slot = kv.slot_of(key);
        entry = kv.routing_[sh()];
        if (!kv.degraded(shard) && !kv.win_.peer_alive(kv.owner_of(shard))) {
          kv.fail_over(shard);
        }
        return open(kv.degraded(shard));
      case Phase::probe:
        return probed();
      case Phase::reread:
        return snapshot(cell_off);
      case Phase::cell:
        if (cell.key != key) {
          // The key left the recorded cell: look it up from the top.
          if (std::exchange(rec.cached, false) &&
              cell_off != l.off_table(slot)) {
            return snapshot(l.off_table(slot));
          }
          // A claimed top slot never empties, so an empty one has no chain;
          // a chain cell rekeyed since the hop was erased: misses both.
          if (in_chain || cell.key == 0) return finish(rdma::OpStatus::ok);
          return read_word(l.off_chain(slot), &head, Phase::head);
        }
        if (v1 == 0) {  // claimed, not linearized yet: a legal miss
          return finish(rdma::OpStatus::ok);
        }
        if ((v1 & 1) == 0) return read_word(cell_off + kVerOff, &v2, Phase::v2);
        // Write in progress. A host that died holding the lock leaves the
        // version odd for good: revocation then fails typed, and we fail over.
        if (++stuck > kRevokeSpins) {
          if (kv.maybe_revoke(t, cell_off + kVerOff, v1) ==
              rdma::OpStatus::peer_dead) {
            return fail(rdma::OpStatus::peer_dead);
          }
          stuck = 0;
        }
        return pause();
      case Phase::v2:
        if (!snapshot_ok(v1, cell, v2)) return pause();  // torn: reread
        found = true;
        value = cell.val;
        return finish(rdma::OpStatus::ok);
      case Phase::hop:
        if (cell.key == key) {  // snapshot the matching chain cell
          in_chain = true;
          return snapshot(l.off_heap(static_cast<std::size_t>(head - 1)));
        }
        head = cell.next;
        [[fallthrough]];
      case Phase::head:
        if (head == 0) return finish(rdma::OpStatus::ok);  // chain end: miss
        return read_cell(l.off_heap(static_cast<std::size_t>(head - 1)),
                         /*with_next=*/true, Phase::hop);
      case Phase::done:
        break;
    }
    return true;
  }

  bool found = false;
  bool hit = false;  ///< served from the version-validated cache
  std::uint64_t value = 0;

 private:
  // Rounds of cell..hop fail on any op's status; route, probe and reread
  // read none.
  enum class Phase { route, probe, reread, cell, v2, head, hop, done };

  std::size_t sh() const { return static_cast<std::size_t>(shard); }
  bool read_word(std::size_t off, std::uint64_t* v, Phase next) {
    n = 0;
    read(t, off, v);
    phase = next;
    return false;
  }
  bool read_cell(std::size_t off, bool with_next, Phase next) {
    n = 0;
    issue(kv.rget_cell(t, off, &cell, with_next));
    phase = next;
    return false;
  }
  /// {v1, cell rget} of the cell at `off`, in that order.
  bool snapshot(std::size_t off) {
    cell_off = off;
    n = 0;
    read(t, off + kVerOff, &v1);
    issue(kv.rget_cell(t, off, &cell, /*with_next=*/false));
    phase = Phase::cell;
    return false;
  }
  bool pause() {
    count(Op::kv_read_retry);
    n = 0;
    backoff = true;
    phase = Phase::reread;
    return false;
  }

  /// First round against one copy: {generation?, v1 of the recorded cell
  /// or the top cell}.
  bool open(bool replica) {
    deg = replica;
    t = deg ? kv.replica_of(shard) : kv.owner_of(shard);
    if (deg && !kv.win_.peer_alive(t)) return finish(kv.data_loss_on(shard));
    l = kv.layout_for(shard, deg);
    cell_off = l.off_table(slot);
    in_chain = false;
    rec = {};
    stuck = 0;
    n = 0;
    gen_i = kUnset;
    if (kv.routing_suspect()) gen_i = read(kv.cfg_.routing_rank, 0, &g);
    // Degraded reads bypass the cache: records name primary cells.
    cache = kv.cfg_.client_cache && !deg;
    if (const auto it = kv.records_[sh()].find(key);
        cache && it != kv.records_[sh()].end() && it->second.cached) {
      rec = it->second;  // a copy: sibling fibers may update the record
      cell_off = rec.cell[0];
    }
    v1_i = read(t, cell_off + kVerOff, &v1);
    phase = Phase::probe;
    return false;
  }

  bool probed() {
    if (gen_i != kUnset) {
      if (sts[gen_i] != rdma::OpStatus::ok) return finish(sts[gen_i]);
      if (g != kv.gen_seen_) return finish(kv.handle_gen_mismatch(g));
    }
    const bool ok = sts[v1_i] == rdma::OpStatus::ok;
    if (cache) {
      if (rec.cached && ok && v1 == rec.ver[0]) {
        value = rec.value;
        found = hit = true;
        count(Op::kv_cache_hit);
        return finish(rdma::OpStatus::ok);
      }
      count(Op::kv_cache_miss);
    }
    if (!ok) return fail(sts[v1_i]);
    return read_cell(cell_off, /*with_next=*/false, Phase::cell);
  }

  bool fail(rdma::OpStatus st) {
    if (st != rdma::OpStatus::peer_dead || deg) return finish(st);
    kv.fail_over(shard);
    return open(/*replica=*/true);
  }

  bool finish(rdma::OpStatus st) {
    status = st;
    n = 0;
    phase = Phase::done;
    // File the snapshot in the key's record, unless the record holds a
    // newer version of the cell or the shard's copies moved meanwhile.
    if (st == rdma::OpStatus::ok && found && !hit && cache &&
        !kv.degraded(shard) && kv.routing_[sh()] == entry) {
      Record& r = kv.note(shard, key, 0, cell_off, v1);
      if (r.cell[0] == cell_off && r.ver[0] == v1) {
        r.value = value;
        r.cached = true;
      }
    }
    return true;
  }

  std::uint64_t key = 0;
  Phase phase = Phase::done;
  int shard = 0, t = 0, stuck = 0;
  bool deg = false, in_chain = false;
  bool cache = false;  ///< this copy's read may use and fill the cache
  std::size_t slot = 0, cell_off = 0;
  std::size_t gen_i = kUnset, v1_i = kUnset;
  BucketLayout l;
  std::uint64_t entry = 0;  ///< the shard's routing entry the op started on
  std::uint64_t g = 0, v1 = 0, v2 = 0, head = 0;
  Record rec;  ///< the cached record cell_off came from (cached = false: none)
  CellWords cell;
};

rdma::OpStatus KvStore::get(std::uint64_t key, std::uint64_t* value,
                            bool* found) {
  GetOp op(*this);
  op.start(key);
  const auto st = run(op);
  *value = op.value;
  *found = op.found;
  return st;
}

// --- put / erase ------------------------------------------------------------------
//
// PutOp is the whole write: routing, generation check, failover, and the
// cell protocol on the primary and the replica copy in lockstep — each
// round carries both copies' ops, so the replica costs injection overhead,
// not round trips. Per copy:
//   cold top-cell put  {version, claim CAS} > lock CAS > value write
//                      > release CAS                      5 AMOs, 4 rounds
//   recorded put       lock CAS > value write > release   3 AMOs, 3 rounds
//   chain key          {version, claim} > head > one {key, ver, val, next}
//                      rget per hop > {lock CAS, key read} > value
//                      > release                          walk + 3 rounds
//   new chain key      walk > fetch-add next_free > cell rput (linked to
//                      the head the walk read) > head CAS; a head that
//                      moved costs a walk of the cells linked meanwhile, a
//                      link rput and another CAS
//   tombstone reclaim  of the first tombstone walked (top cell included),
//                      once the walk reached the chain end without the key;
//                      then as an update whose value round writes the key
//   erase              as a put, with a key read for the claim; the value
//                      round tombstones the key word
// Once a death was observed the generation read joins the first round.
// A key lives in at most one cell of a copy: a get's record of it stays
// valid until that cell changes, so a write to a second cell of the key
// would be invisible to warm readers.
//
// Why one lock CAS per write is enough:
//   * the claim round's version read is issued before the claim, so a lock
//     CAS expecting that version proves nobody locked the cell — hence
//     nobody rekeyed it, only lock holders do — since the claim saw the key;
//   * versions only grow, so a record {cell, version this client released
//     or snapshotted} is self-validating: a lock CAS expecting it succeeds
//     only if nobody touched the cell since. A record is never a reason to
//     skip the lock;
//   * any other expected version — a chain hop's rget, which reads key and
//     version in no guaranteed order, or the version a lost CAS returned —
//     comes with the key re-read behind the CAS, under the lock: a key that
//     moved releases the cell and starts the copy over.
// So a lost lock CAS retries at once with the version it returned (a stale
// record costs no round over the cold path); a locked cell makes the copy
// pause (a fleet fiber backs off through its scheduler), then expect the
// holder's release, revoking a dead writer's lock after kRevokeSpins
// pauses once a death was observed. The value write completes before its
// release is issued. A write touches no word but its own cell's, so it
// invalidates other clients' cached records of its key only.

struct KvStore::PutOp final : RoundOp {
  explicit PutOp(KvStore& kv) : RoundOp(kv) {}

  /// put or erase of `k` through the routing table, both copies.
  void start(std::uint64_t k, std::uint64_t v, bool is_erase) {
    require_user_key(k);
    begin(k, v, is_erase);
  }
  /// put into one copy, without routing checks or failover.
  void start_copy(std::uint64_t k, bool replica, std::uint64_t v) {
    begin(k, v, /*is_erase=*/false);
    one_copy = true;
    copy_replica = replica;
  }

  bool step() override {
    backoff = false;
    rdma::OpStatus got[kMaxOps] = {};
    std::copy(sts, sts + n, got);
    n = 0;
    if (!routed) return route(got);
    if (gen_i != kUnset) {
      const std::size_t gi = std::exchange(gen_i, kUnset);
      if (got[gi] != rdma::OpStatus::ok) return unwind(got[gi], got);
      if (g != kv.gen_seen_) return unwind(kv.handle_gen_mismatch(g), got);
    }
    for (Side& s : sides) {
      if (s.ph != Phase::done && !s.wait) advance(s, got);
    }
    bool waiting = false;
    for (Side& s : sides) waiting = std::exchange(s.wait, false) || waiting;
    if (n > 0) return false;  // a busy copy sat this round out
    if (waiting) {            // only busy copies left: pause, then retry
      backoff = true;
      return false;
    }
    return finish();
  }

  bool critical() const override {
    for (const Side& s : sides) {
      if (s.ph == Phase::lock || s.ph == Phase::value) return true;
    }
    return false;
  }

 private:
  enum class Phase {
    open,     // nothing in flight: issue the first round
    relock,   // paused on a locked cell: expect the holder's release
    claim,    // {version, claim CAS | key read} of the top cell
    lock,     // lock CAS (+ key read behind it, see above)
    value,    // value write (+ key write on a reclaim)
    release,  // release CAS
    head,     // chain head read
    hop,      // one chain cell rget
    alloc,    // fetch-add next_free for a new chain cell
    fill,     // new cell rput
    link,     // head CAS
    relink,   // new cell's next rput after a lost head CAS
    done,
  };

  /// One copy's progress through the cell protocol.
  struct Side {
    Phase ph = Phase::done;
    bool used = false;     ///< this copy takes the write
    bool replica = false;
    bool wait = false;     ///< cell busy: sit a round out, then relock
    bool check = false;    ///< the lock round re-reads the key
    bool reclaim = false;  ///< the locked cell holds a tombstone to rekey
    bool held = false;     ///< the lock is ours
    bool redo = false;     ///< rekeyed before our lock: release, start over
    bool linking = false;  ///< a lost head CAS: walking the cells it missed
    int t = 0, stuck = 0;
    std::size_t first = 0, ops = 0;  ///< this copy's ops in the round
    std::size_t cell = 0, spare = 0;  ///< spare: first tombstone walked
    BucketLayout l;
    std::uint64_t ver = 0;  ///< version the lock CAS expects
    std::uint64_t word = 0, prev = 0, head = 0, hop = 0, idx = 0;
    std::uint64_t spare_ver = 0, stop = 0;  ///< stop: the head walked first
    std::uint64_t fresh[4] = {};  ///< new chain cell {key, ver, val, next}
    CellWords c;
    rdma::OpStatus st = rdma::OpStatus::ok;
  };

  void begin(std::uint64_t k, std::uint64_t v, bool is_erase) {
    key = k;
    value = v;
    erase = is_erase;
    routed = aborted = one_copy = copy_replica = false;
    status = abort_st = rdma::OpStatus::ok;
    gen_i = kUnset;
    n = 0;
    for (Side& s : sides) s = Side{};
  }

  std::size_t sh() const { return static_cast<std::size_t>(shard); }

  bool route(const rdma::OpStatus* got) {
    routed = true;
    shard = kv.shard_of(key);
    slot = kv.slot_of(key);
    entry = kv.routing_[sh()];
    if (one_copy) {
      init(copy_replica);
    } else {
      if (!kv.degraded(shard) && !kv.win_.peer_alive(kv.owner_of(shard))) {
        kv.fail_over(shard);
      }
      if (kv.degraded(shard)) {
        if (!kv.win_.peer_alive(kv.replica_of(shard))) {
          status = kv.data_loss_on(shard);
          return true;
        }
        init(/*replica=*/true);
      } else {
        init(/*replica=*/false);
        if (kv.cfg_.replicate) init(/*replica=*/true);
      }
      if (kv.routing_suspect()) gen_i = read(kv.cfg_.routing_rank, 0, &g);
    }
    for (Side& s : sides) {
      if (s.used) advance(s, got);
    }
    return false;
  }

  void init(bool replica) {
    Side& s = sides[replica ? 1 : 0];
    s = Side{};
    s.used = true;
    s.replica = replica;
    s.t = replica ? kv.replica_of(shard) : kv.owner_of(shard);
    s.l = kv.layout_for(shard, replica);
    s.ph = Phase::open;
  }

  /// Consumes the copy's settled ops and issues its next ones.
  void advance(Side& s, const rdma::OpStatus* got) {
    const std::size_t f = s.first, k = s.ops;
    s.first = n;
    consume(s, got + f, k);
    s.ops = n - s.first;
  }

  void consume(Side& s, const rdma::OpStatus* st, std::size_t k) {
    rdma::OpStatus bad = rdma::OpStatus::ok;
    for (std::size_t i = 0; i < k && bad == rdma::OpStatus::ok; ++i) {
      bad = st[i];
    }
    if (s.ph == Phase::open) return open(s);
    if (s.ph == Phase::relock) return lock(s, s.cell, s.ver, true, s.reclaim);
    if (s.ph == Phase::lock) {
      if (st[0] != rdma::OpStatus::ok) return fail(s, st[0]);
      s.held = s.prev == s.ver;
      if (!s.held) return lost(s);
    }
    if (bad != rdma::OpStatus::ok) return fail(s, bad);
    switch (s.ph) {
      case Phase::claim:
        return claimed(s);
      case Phase::lock:
        if (s.check) {
          // The key under our lock decides: ours is an update, the
          // tombstone we came to reclaim a reclaim; anything else moved in.
          if (s.word == key) {
            s.reclaim = false;
          } else if (!s.reclaim || s.word != kTombstone) {
            s.redo = true;
            return release(s, /*wrote=*/false);
          }
        }
        return write_value(s);
      case Phase::value:
        return release(s, /*wrote=*/true);
      case Phase::release:
        if (s.redo) {
          forget(s, 0);
          return open(s);
        }
        s.ph = Phase::done;
        return;
      case Phase::head:
        return walk(s, s.head);
      case Phase::hop: {
        const std::size_t cell = s.l.off_heap(s.hop - 1);
        if (s.c.key == key) return lock(s, cell, s.c.ver, true, false);
        if (!erase && s.c.key == kTombstone && s.spare == 0) {
          s.spare = cell;
          s.spare_ver = s.c.ver;
        }
        return walk(s, s.c.next);
      }
      case Phase::alloc:
        FOMPI_REQUIRE(s.idx < s.l.heap_slots, ErrClass::no_mem,
                      "kv shard overflow heap exhausted");
        // Published fully formed — version even and nonzero, value in
        // place, linked behind the head the walk read — then made
        // reachable: no seqlock pass needed.
        s.cell = s.l.off_heap(s.idx);
        s.fresh[0] = key;
        s.fresh[1] = 2;
        s.fresh[2] = value;
        s.fresh[3] = s.head;
        s.ph = Phase::fill;
        issue(kv.win_.rput(s.fresh, sizeof(s.fresh), s.t, s.cell));
        return;
      case Phase::fill:
        s.ph = Phase::link;
        cas(s.t, s.l.off_chain(slot), s.head, s.idx + 1, &s.prev);
        return;
      case Phase::link:
        if (s.prev == s.head) {
          remember(s, 2);
          s.ph = Phase::done;
          return;
        }
        // Another insert linked first, maybe of this key: walk its cells,
        // then chain behind them.
        s.linking = true;
        s.stop = s.head;
        s.head = s.prev;
        return walk(s, s.head);
      case Phase::relink:
        s.ph = Phase::link;
        cas(s.t, s.l.off_chain(slot), s.head, s.idx + 1, &s.prev);
        return;
      case Phase::open:
      case Phase::relock:
      case Phase::done:
        return;
    }
  }

  /// First round: the recorded lock CAS, or the top cell's claim round.
  void open(Side& s) {
    s.held = s.redo = s.linking = false;
    s.spare = 0;
    const auto& recs = kv.records_[sh()];
    const int c = s.replica ? 1 : 0;
    if (const auto it = recs.find(key);
        it != recs.end() && it->second.ver[c] != 0) {
      return lock(s, it->second.cell[c], it->second.ver[c], false, false);
    }
    s.cell = s.l.off_table(slot);
    s.ph = Phase::claim;
    read(s.t, s.cell + kVerOff, &s.ver);  // before the claim: see above
    if (erase) {
      read(s.t, s.cell, &s.word);
    } else {
      cas(s.t, s.cell, 0, key, &s.word);
    }
  }

  void claimed(Side& s) {
    const std::uint64_t w = s.word;
    if (w == key || (!erase && w == 0)) {
      return lock(s, s.cell, s.ver, false, false);
    }
    if (w == 0) {  // erase: a claimed top slot never empties, so no chain
      s.ph = Phase::done;
      return;
    }
    if (!erase && w == kTombstone) {
      s.spare = s.cell;
      s.spare_ver = s.ver;
    }
    s.ph = Phase::head;
    read(s.t, s.l.off_chain(slot), &s.head);
  }

  void lock(Side& s, std::size_t cell, std::uint64_t ver, bool check,
            bool reclaim) {
    s.cell = cell;
    s.ver = ver;
    s.check = check;
    s.reclaim = reclaim;
    if ((ver & 1) != 0) return busy(s, ver);
    s.ph = Phase::lock;
    cas(s.t, cell + kVerOff, ver, ver + 1, &s.prev);
    if (check) read(s.t, cell, &s.word);  // behind the CAS: under our lock
  }

  /// The lock CAS lost; s.prev is the cell's current version.
  void lost(Side& s) {
    forget(s, s.ver);  // written since: a record expecting s.ver is stale
    lock(s, s.cell, s.prev, /*check=*/true, s.reclaim);
  }

  /// Locked by another writer: sit out, then expect its release. A writer
  /// that died holding the lock leaves it odd for good; revocation failing
  /// typed means the cell's own host is dead.
  void busy(Side& s, std::uint64_t locked) {
    count(Op::kv_write_retry);
    if (++s.stuck > kRevokeSpins) {
      if (kv.maybe_revoke(s.t, s.cell + kVerOff, locked) ==
          rdma::OpStatus::peer_dead) {
        return fail(s, rdma::OpStatus::peer_dead);
      }
      s.stuck = 0;
    }
    s.ver = locked + 1;
    s.wait = true;
    s.ph = Phase::relock;
  }

  void write_value(Side& s) {
    s.ph = Phase::value;
    if (erase) {
      write(s.t, s.cell, kTombstone);  // readers miss; the value stays
      return;
    }
    write(s.t, s.cell + kValOff, value);
    // Value before key, so no snapshot pairs the new key with the erased
    // key's value — not even after a revoked lock of a writer that died
    // between the two.
    if (s.reclaim) write(s.t, s.cell, key);
  }

  void release(Side& s, bool wrote) {
    s.held = false;
    s.ph = Phase::release;
    cas(s.t, s.cell + kVerOff, s.ver + 1, s.ver + 2, &s.prev);
    if (!wrote) return;
    if (erase) {
      forget(s, 0);
    } else {
      remember(s, s.ver + 2);
    }
  }

  void walk(Side& s, std::uint64_t link) {
    if (s.linking && (link == 0 || link == s.stop)) {
      s.ph = Phase::relink;  // no new cell holds the key
      issue(kv.win_.rput(&s.head, 8, s.t, s.l.off_cell_next(s.idx)));
      return;
    }
    if (link == 0) {  // chain exhausted: the key is absent
      if (erase) {
        s.ph = Phase::done;
        return;
      }
      if (s.spare != 0) return lock(s, s.spare, s.spare_ver, true, true);
      const std::uint64_t one = 1;
      s.ph = Phase::alloc;
      issue(kv.win_.rfetch_and_op(&one, &s.idx, Elem::u64, RedOp::sum, s.t,
                                  s.l.off_next_free()));
      return;
    }
    s.hop = link;
    s.ph = Phase::hop;
    issue(kv.rget_cell(s.t, s.l.off_heap(link - 1), &s.c, /*with_next=*/true));
  }

  void fail(Side& s, rdma::OpStatus st) {
    if (s.st == rdma::OpStatus::ok) s.st = st;
    // Release even on failure so a typed fault does not wedge the cell.
    if (s.held) return release(s, /*wrote=*/false);
    s.ph = Phase::done;
  }

  /// Records the version this client released at s.cell (not the value:
  /// only a get's snapshot caches one) unless the shard's copies moved.
  void remember(const Side& s, std::uint64_t ver) {
    if (kv.routing_[sh()] == entry) {
      kv.note(shard, key, s.replica ? 1 : 0, s.cell, ver);
    }
  }
  /// Drops the copy's record entry when it expects `ver` (any version for
  /// 0); dropping the primary entry drops the cached value with it.
  void forget(const Side& s, std::uint64_t ver) {
    auto& recs = kv.records_[sh()];
    const auto it = recs.find(key);
    if (it == recs.end()) return;
    Record& r = it->second;
    const int c = s.replica ? 1 : 0;
    if (ver == 0 || r.ver[c] == ver) {
      r.ver[c] = 0;
      if (c == 0) r.cached = false;
    }
    if (r.ver[0] == 0 && r.ver[1] == 0) recs.erase(it);
  }

  /// A failed generation check retires the op: the recorded first round may
  /// already hold locks, which are released unwritten.
  bool unwind(rdma::OpStatus st, const rdma::OpStatus* got) {
    aborted = true;
    abort_st = st;
    for (Side& s : sides) {
      const bool held = s.ph == Phase::lock &&
                        got[s.first] == rdma::OpStatus::ok && s.prev == s.ver;
      s.ph = Phase::done;
      if (!held) continue;
      s.first = n;
      release(s, /*wrote=*/false);
      s.ops = n - s.first;
    }
    return n > 0 ? false : finish();
  }

  /// Every copy is done: the op's status by write()'s rule. A dead primary
  /// fails over to the replica's status; a dead replica is absorbed; both
  /// dead is data_loss.
  bool finish() {
    const Side& p = sides[0];
    const Side& r = sides[1];
    if (aborted) {
      status = abort_st;
    } else if (one_copy) {
      status = copy_replica ? r.st : p.st;
    } else if (!p.used) {
      status = r.st;  // degraded: the replica took the write alone
    } else if (p.st == rdma::OpStatus::peer_dead) {
      kv.fail_over(shard);
      if (!kv.win_.peer_alive(kv.replica_of(shard))) {
        status = kv.data_loss_on(shard);
      } else if (!r.used) {  // unreplicated: the replica region takes it
        init(/*replica=*/true);
        const rdma::OpStatus none[kMaxOps] = {};
        advance(sides[1], none);
        return false;
      } else {
        status = r.st;
      }
    } else if (p.st != rdma::OpStatus::ok) {
      status = p.st;
    } else {
      status = r.st == rdma::OpStatus::peer_dead ? rdma::OpStatus::ok : r.st;
    }
    return true;
  }

  std::uint64_t key = 0, value = 0, g = 0;
  bool erase = false, routed = false, aborted = false;
  bool one_copy = false, copy_replica = false;
  int shard = 0;
  std::size_t slot = 0, gen_i = kUnset;
  std::uint64_t entry = 0;  ///< the shard's routing entry the op started on
  rdma::OpStatus abort_st = rdma::OpStatus::ok;
  Side sides[2];  ///< [0] primary copy, [1] replica copy
};

rdma::OpStatus KvStore::put(std::uint64_t key, std::uint64_t value) {
  PutOp op(*this);
  op.start(key, value, /*is_erase=*/false);
  return run(op);
}

rdma::OpStatus KvStore::erase(std::uint64_t key) {
  PutOp op(*this);
  op.start(key, 0, /*is_erase=*/true);
  return run(op);
}

rdma::OpStatus KvStore::debug_write_copy(std::uint64_t key, bool replica,
                                         std::uint64_t value) {
  PutOp op(*this);
  op.start_copy(key, replica, value);
  return run(op);
}

// --- closed-loop client fleet -------------------------------------------------
//
// Each fiber pulls ops off a shared per-rank cursor and runs the GetOp or
// PutOp above, parking once per round, so one rank keeps `fibers` ops in
// flight through cache checks, snapshots, chain walks, lock waits and
// failover alike. The rounds that fibers issue in one scheduler pass share
// one doorbell.

struct KvStore::ClientFiber final : fabric::progress::Fiber {
  struct FleetOp {
    std::uint64_t key;
    bool is_read;
  };

  ClientFiber(KvStore& kv, const std::vector<FleetOp>& ops,
              std::size_t* cursor, FleetResult* res)
      : kv(kv), ops(ops), cursor(cursor), res(res), read(kv), write(kv) {}

  void record(bool is_read, std::uint64_t t0, rdma::OpStatus st) {
    // Retirement identity: every pulled op lands in exactly one bucket, so
    // issued == ok + peer_dead + retry_routing + data_loss + failed_other
    // (the chaos tests assert this).
    switch (st) {
      case rdma::OpStatus::ok: ++res->ok_ops; break;
      case rdma::OpStatus::peer_dead: ++res->peer_dead; break;
      case rdma::OpStatus::retry_routing: ++res->retry_routing; break;
      case rdma::OpStatus::data_loss: ++res->data_loss; break;
      default: ++res->failed_other; break;
    }
    const std::uint64_t dur = now_ns() - t0;
    if (is_read) {
      ++res->reads;
      res->read_hist.add(dur);
    } else {
      ++res->writes;
      res->write_hist.add(dur);
    }
    trace::emit(trace::EvClass::kv, trace::EvPhase::issue, target,
                ops[at].key, dur);
  }

  void step(fabric::progress::Scheduler& s) override {
    FOMPI_FIBER_BEGIN();
    while (*cursor < ops.size()) {
      at = (*cursor)++;
      ++res->issued;
      t0 = now_ns();
      target = kv.owner_of(kv.shard_of(ops[at].key));  // trace label
      if (ops[at].is_read) {
        read.start(ops[at].key);
        op = &read;
      } else {
        write.start(ops[at].key, ops[at].key * 31 + 7, /*is_erase=*/false);
        op = &write;
      }
      while (!op->step()) {
        // A write round that may hold a cell lock jumps the runnable
        // queue on wakeup: readers and writers of that cell wait on it.
        set_urgent(op->critical());
        if (op->backoff) {
          FOMPI_FIBER_BACKOFF(s, kFiberBackoffNs);
          continue;
        }
        FOMPI_FIBER_AWAIT_ROUND(s, op->handles(), op->handle_count());
        op->retire();
      }
      if (ops[at].is_read && read.hit) ++res->cache_hits;
      record(ops[at].is_read, t0, op->status);
    }
    FOMPI_FIBER_END();
  }

  KvStore& kv;
  const std::vector<FleetOp>& ops;
  std::size_t* cursor;
  FleetResult* res;
  GetOp read;
  PutOp write;
  RoundOp* op = nullptr;
  std::size_t at = 0;
  std::uint64_t t0 = 0;
  int target = 0;
};

KvStore::FleetResult KvStore::run_fleet(fabric::RankCtx& ctx,
                                        const FleetConfig& fc) {
  FOMPI_REQUIRE(fc.ops_per_rank >= 0 && fc.fibers >= 1 && fc.keyspace >= 1,
                ErrClass::arg, "bad fleet config");
  // The op stream is an exact function of (seed, rank): the chaos gates
  // compare fleet counter totals across runs.
  Zipf zipf(fc.keyspace, fc.zipf_s,
            fc.seed * 0x9e3779b9u + static_cast<std::uint64_t>(ctx.rank()));
  Rng coin(fc.seed ^ (0xc0ffee + static_cast<std::uint64_t>(ctx.rank())));
  std::vector<ClientFiber::FleetOp> ops(
      static_cast<std::size_t>(fc.ops_per_rank));
  for (auto& op : ops) {
    op.key = zipf.next() + 1;  // keys are 1-based (0 is reserved-empty)
    op.is_read = coin.uniform() < fc.read_ratio;
  }
  FleetResult res;
  fabric::progress::Scheduler sched(*fabric_, rank_);
  std::size_t cursor = 0;
  const std::size_t pool = std::min<std::size_t>(
      static_cast<std::size_t>(fc.fibers),
      std::max<std::size_t>(1, ops.size()));
  for (std::size_t i = 0; i < pool; ++i) {
    sched.spawn<ClientFiber>(*this, ops, &cursor, &res);
  }
  sched.run();
  return res;
}

}  // namespace fompi::kv
