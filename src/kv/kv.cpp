#include "kv/kv.hpp"

#include <algorithm>

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

// A fleet fiber's pause before re-reading a cell it found locked or torn.
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
  cache_.assign(static_cast<std::size_t>(cfg_.shards), {});
  epoch_seen_.assign(static_cast<std::size_t>(cfg_.shards), 0);
  const auto st = fetch_routing();
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
  BucketLayout l;
  l.table_slots = cfg_.table_slots;
  l.heap_slots = cfg_.heap_slots;
  l.table_stride = kTopStride;
  l.cell_stride = kCellStride;
  return 16 + l.region_bytes();  // [epoch][pad] + buckets
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
  BucketLayout l;
  l.base = copy_base(c) + 16;
  l.table_slots = cfg_.table_slots;
  l.heap_slots = cfg_.heap_slots;
  l.table_stride = kTopStride;
  l.cell_stride = kCellStride;
  return l;
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

std::uint64_t KvStore::shard_epoch(int shard, bool replica) {
  std::uint64_t ep = 0;
  amo_read(replica ? replica_of(shard) : owner_of(shard),
           epoch_off(shard, replica), &ep);
  return ep;
}

std::size_t KvStore::cached_entries(int shard) const {
  return cache_[static_cast<std::size_t>(shard)].size();
}

rdma::OpStatus KvStore::probe_owner(int shard) {
  // Identity accumulate (+0): pure reads are served from a dead rank's
  // frozen memory image under the fail-stop model, so only a mutating AMO
  // yields the typed peer_dead. Adding zero leaves the epoch untouched.
  return amo_add(owner_of(shard), epoch_off(shard, false), 0);
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
// their cached generation with one AMO per op (piggybacked on the epoch
// check where one exists); a mismatch retires the op as typed
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
  ++stats_.retry_routing;
  count(Op::kv_retry_routing);
  // Odd generation: the coordinator is mid-reconfiguration. Retire the op
  // typed instead of blocking the client under the coordinator's drain;
  // the caller reissues and refreshes once the generation stabilizes.
  if ((gen & 1) == 0) {
    const auto st = fetch_routing();
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

rdma::OpStatus KvStore::fetch_routing() {
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
      // The shard's copies moved: epoch stamps taken against the old
      // primary region are meaningless against the new one.
      cache_[i].clear();
      epoch_seen_[i] = 0;
    }
    degraded_[i] = !win_.peer_alive(copy_of(s, false).rank);
  }
}

rdma::OpStatus KvStore::refresh_routing() { return fetch_routing(); }

rdma::OpStatus KvStore::debug_write_copy(std::uint64_t key, bool replica,
                                         std::uint64_t value) {
  const int shard = shard_of(key);
  const Copy c = copy_of(shard, replica);
  return write_region(c.rank, shard, replica, key, value, false);
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
  // Primary-stamped epochs can no longer be validated: drop the cache.
  cache_[static_cast<std::size_t>(shard)].clear();
  ++stats_.failovers;
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

// --- seqlock cell protocol ----------------------------------------------------

rdma::OpStatus KvStore::lock_cell(int t, std::size_t cell_off,
                                  std::uint64_t* ver) {
  Backoff bo;
  int stuck = 0;
  while (true) {  // CAS version even -> odd
    auto st = amo_read(t, cell_off + kVerOff, ver);
    if (st != rdma::OpStatus::ok) return st;
    if ((*ver & 1) == 0) {
      std::uint64_t prev = 0;
      st = amo_cas(t, cell_off + kVerOff, *ver, *ver + 1, &prev);
      if (st != rdma::OpStatus::ok) return st;
      if (prev == *ver) return rdma::OpStatus::ok;
    } else if (++stuck > kRevokeSpins) {
      if (maybe_revoke(t, cell_off + kVerOff, *ver) ==
          rdma::OpStatus::peer_dead) {
        return rdma::OpStatus::peer_dead;  // host dead, lock frozen odd
      }
      stuck = 0;
    }
    bo.pause();
    fabric_->yield_check();
  }
}

rdma::OpStatus KvStore::reclaim_cell(int t, std::size_t cell_off,
                                     std::uint64_t key, std::uint64_t value,
                                     bool* won) {
  // Under the version lock, so no snapshot pairs the new key with the
  // erased key's value; and value before key, so that also holds when this
  // writer dies mid-reclaim and a survivor revokes the lock. Only lock
  // holders change a claimed key word, so the key read below is stable.
  *won = false;
  std::uint64_t v = 0;
  auto st = lock_cell(t, cell_off, &v);
  if (st != rdma::OpStatus::ok) return st;
  std::uint64_t k = 0;
  st = amo_read(t, cell_off, &k);
  if (st == rdma::OpStatus::ok && (k == kTombstone || k == key)) {
    *won = true;  // a tombstone, or a racing reclaim for this same key
    st = amo_write(t, cell_off + kValOff, value);
    if (st == rdma::OpStatus::ok && k == kTombstone) {
      st = amo_write(t, cell_off, key);
    }
  }
  // Release even on failure so a typed fault does not wedge the cell.
  const auto rel = amo_write(t, cell_off + kVerOff, v + 2);
  return st != rdma::OpStatus::ok ? st : rel;
}

rdma::OpStatus KvStore::seq_write(int t, int shard, bool replica,
                                  std::size_t cell_off, std::uint64_t value) {
  // value == kTombstone means erase: the KEY word is overwritten (readers
  // then miss), the value word is left alone.
  std::uint64_t v = 0;
  auto st = lock_cell(t, cell_off, &v);
  if (st != rdma::OpStatus::ok) return st;
  st = value == kTombstone ? amo_write(t, cell_off, kTombstone)
                           : amo_write(t, cell_off + kValOff, value);
  // Release even on failure so a typed fault does not wedge the cell.
  const auto rel = amo_write(t, cell_off + kVerOff, v + 2);
  if (st == rdma::OpStatus::ok) st = rel;
  if (st != rdma::OpStatus::ok) return st;
  // Invalidate every client's cached view of the shard: one AMO.
  return amo_add(t, epoch_off(shard, replica), 1);
}

core::RmaRequest KvStore::rget_cell(int t, std::size_t cell_off,
                                    CellWords* c, bool with_next) {
  // Aligned word runs move word-atomically: no word tears against an AMO.
  return win_.rget(c, with_next ? sizeof(CellWords) : 3 * sizeof(std::uint64_t),
                   t, cell_off);
}

// --- cell location ------------------------------------------------------------

rdma::OpStatus KvStore::locate(int t, const BucketLayout& l,
                               std::uint64_t key, bool claim,
                               std::uint64_t value, std::size_t* cell_off,
                               bool* published) {
  const std::size_t slot = slot_of(key);
  *cell_off = 0;
  *published = false;
  Backoff bo;
  while (true) {  // restarted only by tombstone-reclaim races
    if (claim) {
      std::uint64_t prev = 0;
      auto st = amo_cas(t, l.off_table(slot), 0, key, &prev);
      if (st != rdma::OpStatus::ok) return st;
      if (prev == 0 || prev == key) {  // claimed fresh or already ours
        *cell_off = l.off_table(slot);
        return rdma::OpStatus::ok;
      }
      if (prev == kTombstone) {  // reclaim the erased top cell
        bool won = false;
        st = reclaim_cell(t, l.off_table(slot), key, value, &won);
        if (st != rdma::OpStatus::ok) return st;
        if (won) {
          *cell_off = l.off_table(slot);
          *published = true;
          return rdma::OpStatus::ok;
        }
        bo.pause();  // lost the reclaim race: re-examine the slot
        fabric_->yield_check();
        continue;
      }
    } else {
      std::uint64_t top = 0;
      const auto st = amo_read(t, l.off_table(slot), &top);
      if (st != rdma::OpStatus::ok) return st;
      if (top == key) {
        *cell_off = l.off_table(slot);
        return rdma::OpStatus::ok;
      }
      if (top == 0) return rdma::OpStatus::ok;  // slot never claimed: miss
    }

    // Walk the overflow chain (atomic one-sided reads, as fig7a).
    std::uint64_t head = 0;
    auto st = amo_read(t, l.off_chain(slot), &head);
    if (st != rdma::OpStatus::ok) return st;
    while (head != 0) {
      const auto idx = static_cast<std::size_t>(head - 1);
      std::uint64_t k = 0;
      st = amo_read(t, l.off_heap(idx), &k);
      if (st != rdma::OpStatus::ok) return st;
      if (k == key) {
        *cell_off = l.off_heap(idx);
        return rdma::OpStatus::ok;
      }
      if (claim && k == kTombstone) {  // reclaim an erased chain cell
        bool won = false;
        st = reclaim_cell(t, l.off_heap(idx), key, value, &won);
        if (st != rdma::OpStatus::ok) return st;
        if (won) {
          *cell_off = l.off_heap(idx);
          *published = true;
          return rdma::OpStatus::ok;
        }
      }
      st = amo_read(t, l.off_cell_next(idx), &head);
      if (st != rdma::OpStatus::ok) return st;
    }
    if (!claim) return rdma::OpStatus::ok;  // exhausted: miss

    // Fresh overflow insert: acquire a cell, publish it fully formed
    // (version already even and nonzero, value in place), then link it at
    // the chain head — reachable implies readable, no seqlock pass needed.
    const std::uint64_t one = 1;
    std::uint64_t idx = 0;
    auto freq = win_.rfetch_and_op(&one, &idx, Elem::u64, RedOp::sum, t,
                                   l.off_next_free());
    st = wait_req(freq);
    if (st != rdma::OpStatus::ok) return st;
    FOMPI_REQUIRE(idx < l.heap_slots, ErrClass::no_mem,
                  "kv shard overflow heap exhausted");
    const std::uint64_t cell[3] = {key, 2, value};
    auto preq =
        win_.rput(cell, 24, t, l.off_heap(static_cast<std::size_t>(idx)));
    st = wait_req(preq);  // cell words complete before the link lands
    if (st != rdma::OpStatus::ok) return st;
    while (true) {
      std::uint64_t chead = 0;
      st = amo_read(t, l.off_chain(slot), &chead);
      if (st != rdma::OpStatus::ok) return st;
      auto nreq = win_.rput(&chead, 8, t,
                            l.off_cell_next(static_cast<std::size_t>(idx)));
      st = wait_req(nreq);
      if (st != rdma::OpStatus::ok) return st;
      std::uint64_t prev = 0;
      st = amo_cas(t, l.off_chain(slot), chead, idx + 1, &prev);
      if (st != rdma::OpStatus::ok) return st;
      if (prev == chead) break;
      bo.pause();
      fabric_->yield_check();
    }
    *cell_off = l.off_heap(static_cast<std::size_t>(idx));
    *published = true;
    return rdma::OpStatus::ok;
  }
}

// --- region-level ops --------------------------------------------------------

rdma::OpStatus KvStore::write_region(int t, int shard, bool replica,
                                     std::uint64_t key, std::uint64_t value,
                                     bool is_erase) {
  std::size_t cell = 0;
  bool published = false;
  const auto st =
      locate(t, layout_for(shard, replica), key, /*claim=*/!is_erase, value,
             &cell, &published);
  if (st != rdma::OpStatus::ok) return st;
  if (cell == 0) return rdma::OpStatus::ok;  // erase of an absent key
  if (published) {  // the claim wrote the value; just invalidate caches
    return amo_add(t, epoch_off(shard, replica), 1);
  }
  return seq_write(t, shard, replica, cell, is_erase ? kTombstone : value);
}

// --- client ops --------------------------------------------------------------

namespace {
void require_user_key(std::uint64_t key) {
  FOMPI_REQUIRE(key != 0 && key != kTombstone, ErrClass::arg,
                "kv keys must be nonzero and not the tombstone");
}
}  // namespace

rdma::OpStatus KvStore::data_loss_on(int /*shard*/) {
  // The addressed shard's owner AND replica are dead: under fail-stop the
  // frozen images stay readable, but serving them would hand out values
  // that can never be repaired or invalidated — retire typed instead.
  ++stats_.data_loss_ops;
  return rdma::OpStatus::data_loss;
}

rdma::OpStatus KvStore::put(std::uint64_t key, std::uint64_t value) {
  require_user_key(key);
  return write(key, value, /*is_erase=*/false);
}

rdma::OpStatus KvStore::erase(std::uint64_t key) {
  require_user_key(key);
  return write(key, 0, /*is_erase=*/true);
}

rdma::OpStatus KvStore::write(std::uint64_t key, std::uint64_t value,
                              bool is_erase) {
  const auto gst = check_generation();
  if (gst != rdma::OpStatus::ok) return gst;
  const int shard = shard_of(key);
  if (!degraded(shard) && !win_.peer_alive(owner_of(shard))) fail_over(shard);
  if (degraded(shard)) {
    const int rep = replica_of(shard);
    if (!win_.peer_alive(rep)) return data_loss_on(shard);
    return write_region(rep, shard, /*replica=*/true, key, value, is_erase);
  }
  auto st = write_region(owner_of(shard), shard, false, key, value, is_erase);
  if (st == rdma::OpStatus::peer_dead) {
    fail_over(shard);
    const int rep = replica_of(shard);
    if (!win_.peer_alive(rep)) return data_loss_on(shard);
    return write_region(rep, shard, true, key, value, is_erase);
  }
  if (st != rdma::OpStatus::ok || !cfg_.replicate) return st;
  const auto rst =
      write_region(replica_of(shard), shard, true, key, value, is_erase);
  if (rst == rdma::OpStatus::peer_dead) {
    return rdma::OpStatus::ok;  // primary holds the write: absorbed
  }
  return rst;
}

// --- get: one read for blocking and fleet clients ----------------------------
//
// A get is a few rounds; each round's ops (at most three) overlap on the
// wire, and the next round is issued only once all of them retired. GetOp
// is the whole read — routing, generation and cache checks, cell snapshot,
// chain walk, seqlock retries, failover — as a state machine: step()
// consumes the settled round and issues the next. get() runs it on the
// calling thread; a ClientFiber parks on the same handles. Remote rounds:
//   warm hit         {epoch}                            1 AMO
//   unclaimed slot   {epoch, v1} > top rget             2 AMOs + 1 get
//   top-cell key     {epoch, v1} > top rget > v2        3 AMOs + 1 get
//   k-hop chain key  {epoch, v1} > top rget > head > k hop rgets
//                    > v1 > cell rget > v2              5 AMOs + (k+2) gets
// v1 joins the epoch round only for uncached keys (a cached key expects a
// hit); once a death was observed the generation read joins it too.

struct KvStore::GetOp {
  explicit GetOp(KvStore& kv) : kv(kv) {}

  void start(std::uint64_t k) {
    require_user_key(k);
    key = k;
    phase = Phase::route;
    status = rdma::OpStatus::ok;
    found = hit = backoff = false;
    value = 0;
  }

  /// Consumes the settle()d round and issues the next; true once the get
  /// retired (status, found, value and hit are then final). No pending()
  /// ops with `backoff` set means: pause, then step() again.
  bool step() {
    backoff = false;
    if (phase >= Phase::v1 && phase <= Phase::hop &&
        sts[0] != rdma::OpStatus::ok) {
      return fail(sts[0]);
    }
    switch (phase) {
      case Phase::route:
        shard = kv.shard_of(key);
        slot = kv.slot_of(key);
        if (!kv.degraded(shard) && !kv.win_.peer_alive(kv.owner_of(shard))) {
          kv.fail_over(shard);
        }
        return open(kv.degraded(shard));
      case Phase::probe:
        return probed();
      case Phase::reread:
        return read_word(cell_off + kVerOff, &v1, Phase::v1);
      case Phase::v1:
        return read_cell(cell_off, /*with_next=*/false, Phase::cell);
      case Phase::cell:
        if (cell.key != key) {
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
          cell_off = l.off_heap(static_cast<std::size_t>(head - 1));
          return read_word(cell_off + kVerOff, &v1, Phase::v1);
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

  /// Ops of the round in flight: await each, settle() its status.
  std::size_t pending() const noexcept { return n; }
  core::RmaRequest& request(std::size_t i) noexcept { return reqs[i]; }
  void settle(std::size_t i, rdma::OpStatus st) noexcept { sts[i] = st; }

  bool backoff = false;
  bool found = false;
  bool hit = false;  ///< served from the epoch-validated cache
  rdma::OpStatus status = rdma::OpStatus::ok;
  std::uint64_t value = 0;

 private:
  // Single-op rounds are v1..hop; route, probe and reread read no status.
  enum class Phase { route, probe, reread, v1, cell, v2, head, hop, done };
  static constexpr std::size_t kUnset = 3;  ///< op not in the first round

  std::size_t sh() const { return static_cast<std::size_t>(shard); }
  std::size_t amo(int target, std::size_t off, std::uint64_t* v) {
    reqs[n] = kv.win_.rfetch_and_op(nullptr, v, Elem::u64, RedOp::no_op,
                                    target, off);
    return n++;
  }
  bool read_word(std::size_t off, std::uint64_t* v, Phase next) {
    n = 0;
    amo(t, off, v);
    phase = next;
    return false;
  }
  bool read_cell(std::size_t off, bool with_next, Phase next) {
    n = 0;
    reqs[n++] = kv.rget_cell(t, off, &cell, with_next);
    phase = next;
    return false;
  }
  bool pause() {
    count(Op::kv_read_retry);
    n = 0;
    backoff = true;
    phase = Phase::reread;
    return false;
  }

  /// First round against one copy: {generation?, epoch?, top v1?}.
  bool open(bool replica) {
    deg = replica;
    t = deg ? kv.replica_of(shard) : kv.owner_of(shard);
    if (deg && !kv.win_.peer_alive(t)) return finish(kv.data_loss_on(shard));
    l = kv.layout_for(shard, deg);
    cell_off = l.off_table(slot);
    in_chain = ep_valid = false;
    stuck = 0;
    n = 0;
    gen_i = ep_i = v1_i = kUnset;
    if (kv.routing_suspect()) gen_i = amo(kv.cfg_.routing_rank, 0, &g);
    // Degraded reads bypass the cache: primary-stamped epochs cannot be
    // validated against the replica.
    const bool cached = kv.cfg_.client_cache && !deg;
    if (cached) ep_i = amo(t, kv.epoch_off(shard, false), &ep);
    if (!cached || kv.cache_[sh()].count(key) == 0) {
      v1_i = amo(t, cell_off + kVerOff, &v1);
    }
    phase = Phase::probe;
    return false;
  }

  bool probed() {
    if (gen_i != kUnset) {
      if (sts[gen_i] != rdma::OpStatus::ok) return finish(sts[gen_i]);
      if (g != kv.gen_seen_) return finish(kv.handle_gen_mismatch(g));
    }
    if (ep_i != kUnset) {
      auto& entries = kv.cache_[sh()];
      if (sts[ep_i] == rdma::OpStatus::ok) {
        ep_valid = true;
        if (ep != kv.epoch_seen_[sh()]) {  // a writer bumped the epoch
          entries.clear();
          kv.epoch_seen_[sh()] = ep;
        } else if (const auto it = entries.find(key); it != entries.end()) {
          value = it->second;
          found = hit = true;
          ++kv.stats_.cache_hits;
          count(Op::kv_cache_hit);
          return finish(rdma::OpStatus::ok);
        }
      }
      ++kv.stats_.cache_misses;
      count(Op::kv_cache_miss);
    }
    if (v1_i == kUnset) return read_word(cell_off + kVerOff, &v1, Phase::v1);
    if (sts[v1_i] != rdma::OpStatus::ok) return fail(sts[v1_i]);
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
    // Cache only a value read after this get's own epoch check, and only
    // while that epoch is still the stamp: a fiber that read an older
    // epoch must not file its value under a newer one.
    if (st == rdma::OpStatus::ok && found && !hit && ep_valid &&
        !kv.degraded(shard) && kv.epoch_seen_[sh()] == ep) {
      kv.cache_[sh()][key] = value;
    }
    return true;
  }

  KvStore& kv;
  std::uint64_t key = 0;
  Phase phase = Phase::done;
  int shard = 0, t = 0, stuck = 0;
  bool deg = false, in_chain = false;
  bool ep_valid = false;  ///< `ep` was read in this get's first round
  std::size_t slot = 0, cell_off = 0, n = 0;
  std::size_t gen_i = kUnset, ep_i = kUnset, v1_i = kUnset;
  BucketLayout l;
  std::uint64_t g = 0, ep = 0, v1 = 0, v2 = 0, head = 0;
  CellWords cell;
  core::RmaRequest reqs[3];
  rdma::OpStatus sts[3] = {};
};

rdma::OpStatus KvStore::get(std::uint64_t key, std::uint64_t* value,
                            bool* found) {
  GetOp op(*this);
  op.start(key);
  Backoff bo;
  while (!op.step()) {
    if (op.backoff) {
      bo.pause();
      fabric_->yield_check();
      continue;
    }
    for (std::size_t i = 0; i < op.pending(); ++i) {
      op.settle(i, wait_req(op.request(i)));
    }
  }
  *value = op.value;
  *found = op.found;
  return op.status;
}

// --- closed-loop client fleet -------------------------------------------------
//
// Each fiber pulls ops off a shared per-rank cursor. Gets run the GetOp
// above, the fiber parking on each round's handles, so one rank keeps
// `fibers` reads in flight through cache checks, snapshots, chain walks
// and failover alike. Writes run the blocking put, then let the reads
// whose rounds retired during it advance first.

struct KvStore::ClientFiber final : fabric::progress::Fiber {
  struct FleetOp {
    std::uint64_t key;
    bool is_read;
  };

  ClientFiber(KvStore& kv, const std::vector<FleetOp>& ops,
              std::size_t* cursor, FleetResult* res)
      : kv(kv), ops(ops), cursor(cursor), res(res), read(kv) {}

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
      if (!ops[at].is_read) {
        record(false, t0, kv.put(ops[at].key, ops[at].key * 31 + 7));
        // Due now, so the heap wakes the earlier-due parked reads first.
        FOMPI_FIBER_BACKOFF(s, 0);
        continue;
      }
      read.start(ops[at].key);
      while (!read.step()) {
        if (read.backoff) {
          FOMPI_FIBER_BACKOFF(s, kFiberBackoffNs);
          continue;
        }
        for (hi = 0; hi < read.pending(); ++hi) {
          FOMPI_FIBER_AWAIT(s, read.request(hi).handles()[0]);
          read.request(hi).dismiss();
          read.settle(hi, wake_status());
        }
      }
      if (read.hit) ++res->cache_hits;
      record(true, t0, read.status);
    }
    FOMPI_FIBER_END();
  }

  KvStore& kv;
  const std::vector<FleetOp>& ops;
  std::size_t* cursor;
  FleetResult* res;
  GetOp read;
  std::size_t at = 0, hi = 0;
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
