#include "rdma/nic.hpp"

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstring>
#include <thread>

#include "common/backoff.hpp"
#include "common/error.hpp"
#include "common/instr.hpp"
#include "common/timing.hpp"
#include "trace/trace.hpp"

namespace fompi::rdma {

const char* to_string(OpStatus st) noexcept {
  switch (st) {
    case OpStatus::ok:        return "ok";
    case OpStatus::pending:   return "pending";
    case OpStatus::retired:   return "retired";
    case OpStatus::timeout:   return "timeout";
    case OpStatus::cq_error:  return "cq_error";
    case OpStatus::peer_dead: return "peer_dead";
    case OpStatus::retry_routing: return "retry_routing";
    case OpStatus::data_loss:     return "data_loss";
  }
  return "unknown";
}

const char* to_string(FaultKind k) noexcept {
  switch (k) {
    case FaultKind::none:             return "none";
    case FaultKind::nic_timeout:      return "nic_timeout";
    case FaultKind::cq_error:         return "cq_error";
    case FaultKind::dropped_doorbell: return "dropped_doorbell";
    case FaultKind::latency_spike:    return "latency_spike";
  }
  return "unknown";
}

namespace {

/// ErrClass the legacy (errors-are-fatal) completion APIs throw for a
/// typed op failure.
ErrClass err_class_of(OpStatus st) noexcept {
  switch (st) {
    case OpStatus::timeout:   return ErrClass::timeout;
    case OpStatus::cq_error:  return ErrClass::cq;
    case OpStatus::peer_dead: return ErrClass::peer_dead;
    case OpStatus::data_loss: return ErrClass::data_loss;
    default:                  return ErrClass::internal;
  }
}

[[noreturn]] void raise_status(OpStatus st, const char* where) {
  raise(err_class_of(st),
        std::string(where) + ": operation failed (" + to_string(st) + ")");
}

template <class Word>
bool word_aligned(const void* p) noexcept {
  return (reinterpret_cast<std::uintptr_t>(p) & (sizeof(Word) - 1)) == 0;
}

/// The aligned-word atomic dance shared by puts and gets: Gemini commits
/// naturally aligned 4- and 8-byte transfers as single atomic words, which
/// is what lets protocol flags written by puts be polled concurrently
/// without a data race.
template <class Word>
void store_word(void* dst, const void* src) noexcept {
  Word v;
  std::memcpy(&v, src, sizeof(Word));
  std::atomic_ref<Word>(*static_cast<Word*>(dst))
      .store(v, std::memory_order_release);
}

template <class Word>
void load_word(void* dst, const void* src) noexcept {
  const Word v = std::atomic_ref<const Word>(*static_cast<const Word*>(src))
                     .load(std::memory_order_acquire);
  std::memcpy(dst, &v, sizeof(Word));
}

/// Moves `len` bytes; aligned word-multiple spans go word-by-word through
/// CPU atomics, single 4-byte words cover i32 accumulate/CAS fallback
/// traffic. Word-atomic bulk transfers matter beyond flag words: a bulk
/// get can target a region whose words earlier AMOs touched atomically
/// (e.g. a dead rank's frozen shard image being drained), and reading
/// those words with one plain memcpy would be a mixed-atomicity race.
void place_bytes(void* dst, const void* src, std::size_t len) {
  if (len >= 8 && (len & 7) == 0 && word_aligned<std::uint64_t>(dst) &&
      word_aligned<std::uint64_t>(src)) {
    for (std::size_t i = 0; i < len; i += 8) {
      store_word<std::uint64_t>(static_cast<std::byte*>(dst) + i,
                                static_cast<const std::byte*>(src) + i);
    }
    return;
  }
  if (len == 4 && word_aligned<std::uint32_t>(dst) &&
      word_aligned<std::uint32_t>(src)) {
    store_word<std::uint32_t>(dst, src);
    return;
  }
  std::memcpy(dst, src, len);
}

void fetch_bytes(void* dst, const void* src, std::size_t len) {
  if (len >= 8 && (len & 7) == 0 && word_aligned<std::uint64_t>(dst) &&
      word_aligned<std::uint64_t>(src)) {
    for (std::size_t i = 0; i < len; i += 8) {
      load_word<std::uint64_t>(static_cast<std::byte*>(dst) + i,
                               static_cast<const std::byte*>(src) + i);
    }
    return;
  }
  if (len == 4 && word_aligned<std::uint32_t>(dst) &&
      word_aligned<std::uint32_t>(src)) {
    load_word<std::uint32_t>(dst, src);
    return;
  }
  std::memcpy(dst, src, len);
}

}  // namespace

Nic::Nic(Domain& domain, int rank)
    : domain_(domain), rank_(rank), rng_(domain.config().seed + 0x9e37 * rank),
      model_(domain.config().model) {
  // Throughput mode: cache the NicConfig knobs and apply static overrides
  // to this NIC's private model copy (the adaptive tuner mutates only the
  // copy, never the shared DomainConfig).
  const NicConfig& nc = domain.config().nic;
  channels_ = std::max(1, nc.channels);
  auto_batch_ = nc.auto_batch;
  adaptive_ = nc.adaptive;
  batch_capacity_ = std::max<std::size_t>(1, nc.batch_capacity);
  adapt_period_ = std::max<std::uint64_t>(1, nc.adapt_period);
  if (nc.bte_threshold_override != 0) {
    model_.bte_threshold = nc.bte_threshold_override;
  }
  batch_cutoff_pinned_ = nc.batch_cutoff_override != 0;
  batch_cutoff_ =
      batch_cutoff_pinned_ ? nc.batch_cutoff_override : model_.bte_threshold;
  if (auto_batch_) batch_entries_.reserve(batch_capacity_);

  const FaultPlan& plan = domain.config().fault;
  if (!plan.enabled()) return;
  fault_armed_ = true;
  if (plan.transient_faults_per_rank > 0) {
    // Per-rank fault stream: a pure function of (plan.seed, rank),
    // independent of the domain's workload seed so fault schedules don't
    // shift when a test changes its data pattern.
    Rng frng(plan.seed ^
             (0x9e3779b97f4a7c15ull * (static_cast<std::uint64_t>(rank) + 1)));
    fault_sched_.reserve(
        static_cast<std::size_t>(plan.transient_faults_per_rank));
    const std::uint64_t horizon = std::max<std::uint64_t>(1, plan.horizon_ops);
    const std::uint64_t repeat_span =
        static_cast<std::uint64_t>(std::max(1, plan.max_repeats));
    for (int i = 0; i < plan.transient_faults_per_rank; ++i) {
      FaultSite site;
      site.at_op = frng.below(horizon);
      switch (frng.below(4)) {
        case 0:  site.kind = FaultKind::nic_timeout; break;
        case 1:  site.kind = FaultKind::cq_error; break;
        case 2:  site.kind = FaultKind::dropped_doorbell; break;
        default: site.kind = FaultKind::latency_spike; break;
      }
      site.repeats = 1 + static_cast<int>(frng.below(repeat_span));
      fault_sched_.push_back(site);
    }
    std::stable_sort(fault_sched_.begin(), fault_sched_.end(),
                     [](const FaultSite& a, const FaultSite& b) {
                       return a.at_op < b.at_op;
                     });
  }
  update_next_fault_op();
}

void Nic::update_next_fault_op() noexcept {
  const FaultPlan& plan = domain_.config().fault;
  std::uint64_t next = fault_next_ < fault_sched_.size()
                           ? fault_sched_[fault_next_].at_op
                           : ~std::uint64_t{0};
  // The kill stays folded in unconditionally: it only leaves the schedule
  // by firing (which throws or parks), so next_fault_op_ must never move
  // past an unfired kill site.
  const std::uint64_t kill_at = plan.kill_at(rank_);
  if (kill_at < next) next = kill_at;
  next_fault_op_ = next;
}

Nic::FaultVerdict Nic::pre_issue_fault_slow(int target, bool is_read,
                                            std::uint64_t my_op) {
  const FaultPlan& plan = domain_.config().fault;

  // Scheduled death: this rank dies (or silently hangs) at the first
  // issued operation at-or-after its kill site (kill_rank or any
  // kills-list site). At-or-after, not exact equality: the site index is
  // normally hit exactly (issued_ops_ is per-rank monotone), but >= keeps
  // the death guaranteed even if a future issue path consumes op indices
  // without this check — a missed kill strands survivors that wait on the
  // death forever.
  if (my_op >= plan.kill_at(rank_)) {
    if (plan.hang_instead_of_kill) {
      // Park in an abortable spin: a silent hang, broken only by the
      // fabric hang watchdog (progress_check raises once the fleet
      // aborts).
      for (;;) {
        std::this_thread::yield();
        domain_.progress_check();
      }
    }
    domain_.mark_dead(rank_);
    trace::emit(trace::EvClass::fault, trace::EvPhase::complete, rank_,
                static_cast<std::uint64_t>(OpStatus::peer_dead));
    throw RankKilledError(rank_);
  }

  // Writes and mutating AMOs addressed to a dead rank retire with
  // peer_dead; reads of its frozen memory image succeed (fail-stop
  // recovery model, see Domain::alive). death_epoch() is a cheap monotonic
  // pre-filter so the common no-deaths case is one load.
  if (!is_read && domain_.death_epoch() != 0 && !domain_.alive(target)) {
    count(Op::op_failed);
    trace::emit(trace::EvClass::fault, trace::EvPhase::complete, target,
                static_cast<std::uint64_t>(OpStatus::peer_dead));
    return {OpStatus::peer_dead, 1.0};
  }

  // Scheduled faults at fixed op indices. Multiple sites on one index
  // compose in schedule order; sites shadowed by an earlier permanent
  // failure on the same index (at_op < my_op by the time we look again)
  // are consumed without firing.
  FaultVerdict v;
  while (fault_next_ < fault_sched_.size() &&
         fault_sched_[fault_next_].at_op <= my_op) {
    const FaultSite site = fault_sched_[fault_next_++];
    if (site.at_op != my_op) continue;
    if (site.kind == FaultKind::latency_spike) {
      count(Op::fault_injected);
      trace::emit(trace::EvClass::fault, trace::EvPhase::issue, target,
                  static_cast<std::uint64_t>(site.kind));
      v.latency_scale *= plan.spike_scale;
      continue;
    }
    // Bounded retransmission. Attempt k of the op is faulted while
    // k <= site.repeats; each faulted attempt below the retry budget
    // triggers one backed-off retry. The op survives iff
    // repeats <= retry_budget; counters are therefore an exact function
    // of the schedule: injections = min(repeats, budget + 1),
    // retries = min(repeats, budget), failed = (repeats > budget).
    Backoff backoff;
    int remaining = site.repeats;
    int retries = 0;
    while (remaining > 0) {
      --remaining;
      count(Op::fault_injected);
      trace::emit(trace::EvClass::fault, trace::EvPhase::issue, target,
                  static_cast<std::uint64_t>(site.kind));
      if (retries == plan.retry_budget) {
        count(Op::op_failed);
        const OpStatus st = site.kind == FaultKind::cq_error
                                ? OpStatus::cq_error
                                : OpStatus::timeout;
        trace::emit(trace::EvClass::fault, trace::EvPhase::complete, target,
                    static_cast<std::uint64_t>(st));
        v.status = st;
        update_next_fault_op();
        return v;
      }
      ++retries;
      count(Op::op_retried);
      trace::emit(trace::EvClass::fault, trace::EvPhase::retry, target,
                  static_cast<std::uint64_t>(site.kind));
      backoff.pause();
    }
  }
  update_next_fault_op();
  return v;
}

Handle Nic::make_failed_handle(OpStatus st, bool implicit) {
  if (implicit) {
    ++implicit_failed_;
    if (implicit_fail_status_ == OpStatus::ok) implicit_fail_status_ = st;
    return kDoneHandle;
  }
  const std::uint32_t idx = acquire_slot();
  PendingOp& op = slab_[idx].op;
  op.kind = PendingOp::Kind::put;
  op.implicit = false;
  op.applied = true;  // nothing to apply: the op never reached the wire
  op.len = 0;
  op.status = st;
  return encode(idx, slab_[idx].tag);
}

bool Nic::inter_node(int target) const noexcept {
  return !domain_.same_node(rank_, target);
}

// ---------------------------------------------------------------------------
// Throughput mode: doorbell coalescing, channel striping, adaptive tuner
// ---------------------------------------------------------------------------

void Nic::batch_begin() {
  if (batch_open_) {
    batch_explicit_ = true;  // adopt an open auto-batch scope
    return;
  }
  batch_open_ = true;
  batch_explicit_ = true;
  if (batch_entries_.capacity() < batch_capacity_) {
    batch_entries_.reserve(batch_capacity_);
  }
}

bool Nic::batch_accepts(std::size_t len) noexcept {
  // BTE-sized transfers own their doorbell (the bulk engine is not part of
  // an FMA descriptor chain), so they bypass the batch in every mode.
  if (len >= batch_cutoff_) return false;
  if (batch_open_) return true;
  // auto_batch: the first batchable op between sync points opens a scope.
  batch_open_ = true;
  batch_explicit_ = false;
  return true;
}

void Nic::batch_enqueue(const BatchEntry& e, bool inter) {
  count(Op::batched_op);
  if (inter) batch_inter_ = true;
  if (batch_entries_.size() == batch_entries_.capacity()) {
    count(Op::pool_grow);
  }
  batch_entries_.push_back(e);
  if (++batch_ndesc_ >= batch_capacity_) batch_flush();
}

void Nic::batch_flush() {
  if (!batch_open_) return;
  batch_open_ = false;
  batch_explicit_ = false;
  const std::size_t n = batch_ndesc_;
  batch_ndesc_ = 0;
  const bool inter = batch_inter_;
  batch_inter_ = false;
  if (n == 0) return;
  ++doorbells_;
  count(Op::doorbell_ring);

  // One doorbell for the whole chain: the injection overhead is charged
  // once, plus chain_ns per extra descriptor — drained round-robin
  // over the configured channels (per-channel ordering preserved).
  std::uint64_t doorbell_end = 0;
  std::uint64_t doorbell_ns = 0;
  if (domain_.config().inject == Injection::model) {
    const double scale = domain_.config().time_scale;
    const double over =
        inter ? model_.inter_overhead_ns : model_.intra_overhead_ns;
    const double chain = model_.chain_latency_ns(n, channels_);
    doorbell_ns = static_cast<std::uint64_t>((over + chain) * scale);
    doorbell_end = now_ns() + doorbell_ns;
  }
  for (const BatchEntry& e : batch_entries_) {
    PendingOp* op = nullptr;
    if (e.slot != BatchEntry::kNoSlot2) {
      op = &slab_[e.slot].op;
    } else if (e.implicit_idx != BatchEntry::kNoSlot2) {
      op = &implicit_ops_[e.implicit_idx];
    }
    const std::uint64_t done = doorbell_end + e.lat_ns;
    if (op != nullptr) {
      op->batch_pending = false;
      op->complete_at = done;
    }
    if (done > latest_complete_at_) latest_complete_at_ = done;
  }
  batch_entries_.clear();
  trace::emit(trace::EvClass::batch, trace::EvPhase::doorbell, -1, n,
              doorbell_ns, doorbell_end);
  // The origin is busy until the doorbell write retires; the wait routes
  // through the domain progress hook, so a batched spin still aborts on a
  // dead fleet (Fabric::yield_check).
  wait_model_time(doorbell_end);
}

void Nic::note_op_size(std::size_t len) {
  const std::size_t b =
      len == 0 ? 0 : static_cast<std::size_t>(std::bit_width(len));
  ++size_hist_[b];
  if (++ops_since_retune_ >= adapt_period_) retune();
}

void Nic::retune() {
  ops_since_retune_ = 0;
  // Candidate FMA->BTE switch points bracketing the Gemini default. The
  // tuner minimizes the histogram-weighted modeled put cost and moves only
  // on a clear (>0.1%) improvement, so pure small-op traffic — where every
  // candidate is equivalent — never perturbs the default.
  static constexpr std::size_t kCandidates[] = {512,  1024, 2048, 4096,
                                                8192, 16384, 32768};
  const auto cost_at = [this](std::size_t threshold) {
    double cost = 0.0;
    for (std::size_t b = 1; b < size_hist_.size(); ++b) {
      const std::uint64_t cnt = size_hist_[b];
      if (cnt == 0) continue;
      const std::size_t rep = std::size_t{1} << (b - 1);
      const double per = rep >= threshold ? model_.put_bte_cost_ns(rep)
                                          : model_.put_fma_cost_ns(rep);
      cost += per * static_cast<double>(cnt);
    }
    return cost;
  };
  std::size_t best = model_.bte_threshold;
  double best_cost = cost_at(best) * 0.999;
  for (const std::size_t cand : kCandidates) {
    if (cand == model_.bte_threshold) continue;
    const double cost = cost_at(cand);
    if (cost < best_cost) {
      best_cost = cost;
      best = cand;
    }
  }
  if (best != model_.bte_threshold) {
    model_.bte_threshold = best;
    if (!batch_cutoff_pinned_) batch_cutoff_ = best;
    ++retunes_;
    count(Op::adapt_retune);
    trace::emit(trace::EvClass::adapt, trace::EvPhase::issue, -1, best);
  }
  // Decay: the histogram tracks recent traffic, not the full history.
  for (std::uint64_t& h : size_hist_) h >>= 1;
}

void Nic::wait_model_time(std::uint64_t complete_at) {
  if (domain_.config().inject != Injection::model) return;
  const std::uint64_t t = now_ns();
  if (complete_at <= t) return;
  const std::uint64_t ns = complete_at - t;
  // Short waits busy-spin for timing fidelity. Long waits are an unbounded
  // (minutes under large time_scale) completion spin: yield and poll the
  // domain's progress hook so a peer failure aborts the wait instead of
  // letting the fleet hang on a dead rank.
  constexpr std::uint64_t kPoliteThreshold = 5'000;  // 5 us
  if (ns <= kPoliteThreshold) {
    spin_for_ns(ns);
    return;
  }
  while (now_ns() < complete_at) {
    std::this_thread::yield();
    domain_.progress_check();
  }
}

void Nic::charge_model_ns(double ns) {
  if (domain_.config().inject != Injection::model || ns <= 0.0) return;
  const std::uint64_t done =
      now_ns() +
      static_cast<std::uint64_t>(ns * domain_.config().time_scale);
  if (done > latest_complete_at_) latest_complete_at_ = done;
  wait_model_time(done);
}

void Nic::PendingOp::stage_payload(const void* src, std::size_t n) {
  staged_len = n;
  if (n <= kInlineStage) {
    std::memcpy(stage_.data(), src, n);
    return;
  }
  if (n > spill_.capacity()) count(Op::pool_grow);
  spill_.assign(static_cast<const std::byte*>(src),
                static_cast<const std::byte*>(src) + n);
}

void Nic::PendingOp::stage_vector(const std::byte* local_base,
                                  const Frag* frags, std::size_t nfrags,
                                  std::size_t total, bool gather) {
  if (nfrags > frags_.capacity()) count(Op::pool_grow);
  frags_.assign(frags, frags + nfrags);
  if (!gather) return;  // gets carry no payload at issue
  staged_len = total;
  std::byte* dst;
  if (total <= kInlineStage) {
    dst = stage_.data();
  } else {
    if (total > spill_.capacity()) count(Op::pool_grow);
    spill_.resize(total);
    dst = spill_.data();
  }
  std::size_t pos = 0;
  for (std::size_t i = 0; i < nfrags; ++i) {
    std::memcpy(dst + pos, local_base + frags[i].local_off, frags[i].len);
    pos += frags[i].len;
  }
}

void Nic::apply_direct(const OpReq& req, std::byte* remote) {
  switch (req.kind) {
    case PendingOp::Kind::put:
      place_bytes(remote, req.src, req.len);
      break;
    case PendingOp::Kind::get:
      if (req.len != 0) fetch_bytes(req.dst, remote, req.len);
      break;
    case PendingOp::Kind::amo: {
      const std::uint64_t prev =
          apply_amo(remote, req.aop, req.operand, req.compare);
      if (req.fetch_out != nullptr) *req.fetch_out = prev;
      break;
    }
  }
  // Publish the effect: pairs with acquire loads in readers polling the
  // target memory (protocol counters are read with atomics anyway; this
  // fence covers plain payload reads after synchronization).
  std::atomic_thread_fence(std::memory_order_release);
}

void Nic::apply(PendingOp& op) {
  if (op.applied) return;
  op.applied = true;
  if (!op.frags_.empty()) {
    // Deferred vectored op: scatter the gathered put payload / fetch every
    // get fragment now that the vector completes as one unit.
    if (op.kind == PendingOp::Kind::put) {
      std::size_t pos = 0;
      const std::byte* staged = op.staged_data();
      for (const Frag& f : op.frags_) {
        place_bytes(op.remote + f.remote_off, staged + pos, f.len);
        pos += f.len;
      }
    } else {
      auto* lbase = static_cast<std::byte*>(op.local);
      for (const Frag& f : op.frags_) {
        fetch_bytes(lbase + f.local_off, op.remote + f.remote_off, f.len);
      }
    }
    std::atomic_thread_fence(std::memory_order_release);
    return;
  }
  switch (op.kind) {
    case PendingOp::Kind::put:
      if (op.staged_len != 0) {
        place_bytes(op.remote, op.staged_data(), op.len);
      }
      break;
    case PendingOp::Kind::get:
      if (op.len != 0) fetch_bytes(op.local, op.remote, op.len);
      break;
    case PendingOp::Kind::amo: {
      const std::uint64_t prev =
          apply_amo(op.remote, op.aop, op.operand, op.compare);
      if (op.fetch_out != nullptr) *op.fetch_out = prev;
      break;
    }
  }
  std::atomic_thread_fence(std::memory_order_release);
}

std::byte* Nic::resolve_cached(std::uint64_t rkey, int expected_owner,
                               std::size_t offset, std::size_t len) {
  count(Op::validation_check);
  RkeyEntry& e = rkey_cache_[rkey & (kRkeyCacheSize - 1)];
  // Read the generation BEFORE any locked lookup: a register/deregister
  // racing with the fill lands the entry with a stale generation, so the
  // next access revalidates instead of trusting a possibly-freed mapping.
  const std::uint64_t gen = domain_.registry().generation();
  if (e.rkey == rkey && e.gen == gen) {
    count(Op::rkey_cache_hit);
  } else {
    count(Op::rkey_cache_miss);
    RegionSnapshot snap;
    FOMPI_REQUIRE(domain_.registry().snapshot(rkey, &snap),
                  ErrClass::rma_range, "access to unregistered region");
    e.rkey = rkey;
    e.gen = gen;
    e.base = snap.base;
    e.size = snap.size;
    e.owner = snap.owner;
  }
  FOMPI_REQUIRE(e.owner == expected_owner, ErrClass::rma_range,
                "rkey does not belong to the addressed rank");
  FOMPI_REQUIRE(offset <= e.size && len <= e.size - offset,
                ErrClass::rma_range, "RMA access outside registered region");
  return e.base + offset;
}

std::uint32_t Nic::acquire_slot() {
  std::uint32_t idx;
  if (free_head_ != kNoSlot) {
    idx = free_head_;
    free_head_ = slab_[idx].next_free;
  } else {
    count(Op::pool_grow);
    idx = static_cast<std::uint32_t>(slab_.size());
    slab_.emplace_back();
  }
  Slot& s = slab_[idx];
  s.live = true;
  s.op.reset();
  ++explicit_live_;
  return idx;
}

void Nic::release_slot(std::uint32_t index) {
  Slot& s = slab_[index];
  s.live = false;
  if (++s.tag == 0) s.tag = 1;  // tag 0 must stay permanently invalid
  s.next_free = free_head_;
  free_head_ = index;
  --explicit_live_;
}

Nic::Slot* Nic::lookup(Handle h) {
  const std::uint32_t idx = static_cast<std::uint32_t>(h);
  const std::uint32_t tag = static_cast<std::uint32_t>(h >> 32);
  if (idx >= slab_.size()) return nullptr;
  Slot& s = slab_[idx];
  if (!s.live || s.tag != tag) return nullptr;
  return &s;
}

Nic::PendingOp& Nic::acquire_implicit() {
  if (implicit_count_ == implicit_ops_.size()) {
    count(Op::pool_grow);
    implicit_ops_.emplace_back();
  }
  PendingOp& op = implicit_ops_[implicit_count_++];
  op.reset();
  return op;
}

Handle Nic::issue(int target, const RegionDesc& rd, std::size_t offset,
                  const OpReq& req, bool implicit) {
  const DomainConfig& cfg = domain_.config();
  const bool inter = inter_node(target);
  std::byte* remote = resolve_cached(rd.rkey, target, offset, req.len);

  // Fault plan gate: one predictable branch when disarmed. A permanent
  // failure retires the op here — before the transport counters — so the
  // transport_* counts only ever reflect ops that reached the wire.
  double fault_scale = 1.0;
  if (fault_armed_) {
    const bool is_read =
        req.kind == PendingOp::Kind::get ||
        (req.kind == PendingOp::Kind::amo && req.aop == AmoOp::read);
    const FaultVerdict fv = pre_issue_fault(target, is_read);
    if (fv.status != OpStatus::ok) {
      return make_failed_handle(fv.status, implicit);
    }
    fault_scale = fv.latency_scale;
  }

  switch (req.kind) {
    case PendingOp::Kind::put: count(Op::transport_put); break;
    case PendingOp::Kind::get: count(Op::transport_get); break;
    case PendingOp::Kind::amo:
      count(inter ? Op::transport_amo : Op::local_atomic);
      break;
  }
  if (req.len != 0) count(Op::bytes_copied, req.len);
  if (adaptive_) note_op_size(req.len);

  // Throughput mode: an FMA-sized op inside a batch scope (explicit or
  // auto) skips its private doorbell; completion times are assigned when
  // batch_flush rings the shared one. One predictable branch when idle.
  bool batched = false;
  if (batch_open_ || auto_batch_) batched = batch_accepts(req.len);

  // Model time accounting: only the injection mode consults the clock; the
  // functional mode (Injection::none) runs the pure software path.
  std::uint64_t complete_at = 0;
  std::uint64_t model_lat = 0;
  if (cfg.inject == Injection::model) {
    const NetworkModel& m = model_;
    double overhead_ns = 0.0;
    double latency_ns = 0.0;
    if (inter) {
      overhead_ns = m.inter_overhead_ns;
      switch (req.kind) {
        case PendingOp::Kind::put:
          latency_ns = m.put_striped_latency_ns(req.len, channels_);
          break;
        case PendingOp::Kind::get:
          latency_ns = m.get_striped_latency_ns(req.len, channels_);
          break;
        case PendingOp::Kind::amo:
          latency_ns = m.amo_latency_ns();
          break;
      }
      if (channels_ > 1 && req.len >= m.bte_threshold &&
          req.kind != PendingOp::Kind::amo) {
        count(Op::channel_stripe);
        trace::emit(trace::EvClass::channel, trace::EvPhase::issue, target,
                    static_cast<std::uint64_t>(channels_));
      }
    } else {
      overhead_ns = m.intra_overhead_ns;
      latency_ns = req.kind == PendingOp::Kind::amo
                       ? m.intra_amo_ns
                       : m.intra_latency_ns(req.len);
    }
    const double scale = cfg.time_scale;
    model_lat = static_cast<std::uint64_t>(latency_ns * scale * fault_scale);
    if (!batched) {
      const std::uint64_t issue_start = now_ns();
      spin_until_ns(issue_start +
                    static_cast<std::uint64_t>(overhead_ns * scale));
      complete_at = issue_start + model_lat;
      latest_complete_at_ = std::max(latest_complete_at_, complete_at);
    }
  }

  // Data movement -----------------------------------------------------------
  // Intra-node ("XPMEM") ops are CPU loads/stores: always applied at issue.
  // Inter-node ops are applied at issue under immediate delivery, and
  // postponed to completion under deferred delivery.
  const bool defer = inter && cfg.delivery == Delivery::deferred;
  const trace::EvClass ev_cls =
      req.kind == PendingOp::Kind::put   ? trace::EvClass::put
      : req.kind == PendingOp::Kind::get ? trace::EvClass::get
                                         : trace::EvClass::amo;
  // `issue` = data moved at issue; `doorbell` = handed to the wire, remote
  // memory commits at sim_ns (deferred delivery).
  trace::emit(ev_cls, defer ? trace::EvPhase::doorbell : trace::EvPhase::issue,
              target, req.len, model_lat, complete_at);
  if (!defer) {
    apply_direct(req, remote);
    if (implicit) {
      ++implicit_live_;
      if (batched) {
        // No pooled record: only the batch's completion horizon matters.
        batch_enqueue({BatchEntry::kNoSlot2, BatchEntry::kNoSlot2, model_lat},
                      inter);
      }
      return kDoneHandle;
    }
    if (cfg.inject == Injection::model) {
      // Data already placed; the handle still completes at the modeled
      // time.
      const std::uint32_t idx = acquire_slot();
      PendingOp& op = slab_[idx].op;
      op.kind = req.kind;
      op.implicit = false;
      op.applied = true;
      op.len = 0;
      op.complete_at = complete_at;
      const Handle h = encode(idx, slab_[idx].tag);
      if (batched) {
        op.batch_pending = true;
        batch_enqueue({idx, BatchEntry::kNoSlot2, model_lat}, inter);
      }
      return h;
    }
    if (batched) {
      batch_enqueue({BatchEntry::kNoSlot2, BatchEntry::kNoSlot2, 0}, inter);
    }
    return kDoneHandle;
  }

  // Deferred: record the op in the pool; data moves at completion. Real
  // NICs read the put source asynchronously; staging the payload at issue
  // models a NIC that has already DMA-read the source, keeping the (legal)
  // late-visibility behaviour at the target only.
  std::uint32_t idx = kNoSlot;
  PendingOp* op;
  if (implicit) {
    op = &acquire_implicit();
  } else {
    idx = acquire_slot();
    op = &slab_[idx].op;
  }
  op->kind = req.kind;
  op->implicit = implicit;
  op->remote = remote;
  op->local = req.dst;
  op->len = req.len;
  op->aop = req.aop;
  op->operand = req.operand;
  op->compare = req.compare;
  op->fetch_out = req.fetch_out;
  op->complete_at = complete_at;
  if (req.kind == PendingOp::Kind::put) op->stage_payload(req.src, req.len);
  if (batched) op->batch_pending = true;
  if (implicit) {
    ++implicit_live_;
    if (batched) {
      batch_enqueue({BatchEntry::kNoSlot2,
                     static_cast<std::uint32_t>(implicit_count_ - 1),
                     model_lat},
                    inter);
    }
    return kDoneHandle;
  }
  const Handle h = encode(idx, slab_[idx].tag);
  if (batched) batch_enqueue({idx, BatchEntry::kNoSlot2, model_lat}, inter);
  return h;
}

Handle Nic::issue_vec(int target, const RegionDesc& rd, std::size_t base_off,
                      std::size_t span_len, PendingOp::Kind kind,
                      void* local_base, const Frag* frags, std::size_t nfrags,
                      bool implicit) {
  if (nfrags == 0) return kDoneHandle;
  const DomainConfig& cfg = domain_.config();
  const bool inter = inter_node(target);
  // One rkey resolution and one bounds check cover every fragment: the
  // caller passes the span [base_off, base_off + span_len) the vector
  // touches (fragment offsets are relative to base_off).
  std::byte* remote = resolve_cached(rd.rkey, target, base_off, span_len);

  // Fault plan gate (see issue()): the whole vector is one op behind one
  // doorbell, so it faults and retires as one unit.
  double fault_scale = 1.0;
  if (fault_armed_) {
    const FaultVerdict fv =
        pre_issue_fault(target, /*is_read=*/kind == PendingOp::Kind::get);
    if (fv.status != OpStatus::ok) {
      return make_failed_handle(fv.status, implicit);
    }
    fault_scale = fv.latency_scale;
  }

  std::size_t total = 0;
  for (std::size_t i = 0; i < nfrags; ++i) total += frags[i].len;

  // One doorbell: a single transport op regardless of fragment count.
  count(kind == PendingOp::Kind::put ? Op::transport_put : Op::transport_get);
  count(Op::vectored_op);
  if (total != 0) count(Op::bytes_copied, total);
  if (adaptive_) note_op_size(total);

  std::uint64_t complete_at = 0;
  std::uint64_t model_lat = 0;
  if (cfg.inject == Injection::model) {
    const NetworkModel& m = model_;
    double overhead_ns = 0.0;
    double latency_ns = 0.0;
    if (inter) {
      // A vectored op is already one chained doorbell; its payload still
      // stripes over the channels when it crosses into BTE territory.
      overhead_ns = m.inter_overhead_ns;
      latency_ns = (kind == PendingOp::Kind::put
                        ? m.put_striped_latency_ns(total, channels_)
                        : m.get_striped_latency_ns(total, channels_)) +
                   m.chain_latency_ns(nfrags);
      if (channels_ > 1 && total >= m.bte_threshold) {
        count(Op::channel_stripe);
        trace::emit(trace::EvClass::channel, trace::EvPhase::issue, target,
                    static_cast<std::uint64_t>(channels_));
      }
    } else {
      overhead_ns = m.intra_overhead_ns;
      latency_ns = m.intra_vec_latency_ns(nfrags, total);
    }
    const double scale = cfg.time_scale;
    const std::uint64_t issue_start = now_ns();
    spin_until_ns(issue_start +
                  static_cast<std::uint64_t>(overhead_ns * scale));
    model_lat = static_cast<std::uint64_t>(latency_ns * scale * fault_scale);
    complete_at = issue_start + model_lat;
    latest_complete_at_ = std::max(latest_complete_at_, complete_at);
  }

  const bool defer = inter && cfg.delivery == Delivery::deferred;
  trace::emit(trace::EvClass::vectored,
              defer ? trace::EvPhase::doorbell : trace::EvPhase::issue, target,
              total, model_lat, complete_at);
  if (!defer) {
    auto* lbase = static_cast<std::byte*>(local_base);
    if (kind == PendingOp::Kind::put) {
      for (std::size_t i = 0; i < nfrags; ++i) {
        place_bytes(remote + frags[i].remote_off, lbase + frags[i].local_off,
                    frags[i].len);
      }
    } else {
      for (std::size_t i = 0; i < nfrags; ++i) {
        fetch_bytes(lbase + frags[i].local_off, remote + frags[i].remote_off,
                    frags[i].len);
      }
    }
    std::atomic_thread_fence(std::memory_order_release);
    if (implicit) {
      ++implicit_live_;
      return kDoneHandle;
    }
    if (cfg.inject == Injection::model) {
      const std::uint32_t idx = acquire_slot();
      PendingOp& op = slab_[idx].op;
      op.kind = kind;
      op.implicit = false;
      op.applied = true;
      op.len = 0;
      op.complete_at = complete_at;
      return encode(idx, slab_[idx].tag);
    }
    return kDoneHandle;
  }

  // Deferred: one pooled record covers the whole vector; a put gathers its
  // fragment payloads into the staging buffer at issue (the NIC has
  // "already DMA-read" the source, as for contiguous deferred puts).
  std::uint32_t idx = kNoSlot;
  PendingOp* op;
  if (implicit) {
    op = &acquire_implicit();
  } else {
    idx = acquire_slot();
    op = &slab_[idx].op;
  }
  op->kind = kind;
  op->implicit = implicit;
  op->remote = remote;
  op->local = local_base;
  op->len = total;
  op->complete_at = complete_at;
  op->stage_vector(static_cast<const std::byte*>(local_base), frags, nfrags,
                   total, /*gather=*/kind == PendingOp::Kind::put);
  if (implicit) {
    ++implicit_live_;
    return kDoneHandle;
  }
  return encode(idx, slab_[idx].tag);
}

Handle Nic::put_nbv(int target, const RegionDesc& rd, std::size_t base_off,
                    std::size_t span_len, const void* local_base,
                    const Frag* frags, std::size_t nfrags) {
  return issue_vec(target, rd, base_off, span_len, PendingOp::Kind::put,
                   const_cast<void*>(local_base), frags, nfrags,
                   /*implicit=*/false);
}

Handle Nic::get_nbv(int target, const RegionDesc& rd, std::size_t base_off,
                    std::size_t span_len, void* local_base, const Frag* frags,
                    std::size_t nfrags) {
  return issue_vec(target, rd, base_off, span_len, PendingOp::Kind::get,
                   local_base, frags, nfrags, /*implicit=*/false);
}

void Nic::put_nbiv(int target, const RegionDesc& rd, std::size_t base_off,
                   std::size_t span_len, const void* local_base,
                   const Frag* frags, std::size_t nfrags) {
  issue_vec(target, rd, base_off, span_len, PendingOp::Kind::put,
            const_cast<void*>(local_base), frags, nfrags, /*implicit=*/true);
}

void Nic::get_nbiv(int target, const RegionDesc& rd, std::size_t base_off,
                   std::size_t span_len, void* local_base, const Frag* frags,
                   std::size_t nfrags) {
  issue_vec(target, rd, base_off, span_len, PendingOp::Kind::get, local_base,
            frags, nfrags, /*implicit=*/true);
}

Handle Nic::put_nb(int target, const RegionDesc& rd, std::size_t offset,
                   const void* src, std::size_t len) {
  OpReq req;
  req.kind = PendingOp::Kind::put;
  req.src = src;
  req.len = len;
  return issue(target, rd, offset, req, /*implicit=*/false);
}

Handle Nic::get_nb(int target, const RegionDesc& rd, std::size_t offset,
                   void* dst, std::size_t len) {
  OpReq req;
  req.kind = PendingOp::Kind::get;
  req.dst = dst;
  req.len = len;
  return issue(target, rd, offset, req, /*implicit=*/false);
}

Handle Nic::amo_nb(int target, const RegionDesc& rd, std::size_t offset,
                   AmoOp aop, std::uint64_t operand, std::uint64_t compare,
                   std::uint64_t* fetch_out) {
  OpReq req;
  req.kind = PendingOp::Kind::amo;
  req.len = 8;
  req.aop = aop;
  req.operand = operand;
  req.compare = compare;
  req.fetch_out = fetch_out;
  return issue(target, rd, offset, req, /*implicit=*/false);
}

void Nic::put_nbi(int target, const RegionDesc& rd, std::size_t offset,
                  const void* src, std::size_t len) {
  OpReq req;
  req.kind = PendingOp::Kind::put;
  req.src = src;
  req.len = len;
  issue(target, rd, offset, req, /*implicit=*/true);
}

void Nic::get_nbi(int target, const RegionDesc& rd, std::size_t offset,
                  void* dst, std::size_t len) {
  OpReq req;
  req.kind = PendingOp::Kind::get;
  req.dst = dst;
  req.len = len;
  issue(target, rd, offset, req, /*implicit=*/true);
}

void Nic::amo_nbi(int target, const RegionDesc& rd, std::size_t offset,
                  AmoOp aop, std::uint64_t operand, std::uint64_t compare) {
  OpReq req;
  req.kind = PendingOp::Kind::amo;
  req.len = 8;
  req.aop = aop;
  req.operand = operand;
  req.compare = compare;
  issue(target, rd, offset, req, /*implicit=*/true);
}

void Nic::put(int target, const RegionDesc& rd, std::size_t offset,
              const void* src, std::size_t len) {
  wait(put_nb(target, rd, offset, src, len));
}

void Nic::get(int target, const RegionDesc& rd, std::size_t offset, void* dst,
              std::size_t len) {
  wait(get_nb(target, rd, offset, dst, len));
}

std::uint64_t Nic::amo(int target, const RegionDesc& rd, std::size_t offset,
                       AmoOp aop, std::uint64_t operand,
                       std::uint64_t compare) {
  std::uint64_t fetched = 0;
  wait(amo_nb(target, rd, offset, aop, operand, compare, &fetched));
  return fetched;
}

void Nic::trace_retire(const PendingOp& op) noexcept {
  const trace::EvClass cls =
      !op.frags_.empty()                 ? trace::EvClass::vectored
      : op.kind == PendingOp::Kind::put  ? trace::EvClass::put
      : op.kind == PendingOp::Kind::get  ? trace::EvClass::get
                                         : trace::EvClass::amo;
  trace::emit(cls, trace::EvPhase::complete, -1, op.len, 0, op.complete_at);
}

bool Nic::test(Handle h) {
  if (h == kDoneHandle) return true;
  Slot* s = lookup(h);
  FOMPI_REQUIRE(s != nullptr, ErrClass::arg, "test: unknown handle");
  // Probing a batched op forces its doorbell (MPI progress): the op cannot
  // complete while it sits behind an unrung doorbell.
  if (s->op.batch_pending) batch_flush();
  if (s->op.status != OpStatus::ok) {
    const OpStatus st = s->op.status;
    release_slot(static_cast<std::uint32_t>(h));
    raise_status(st, "test");
  }
  if (domain_.config().inject == Injection::model &&
      now_ns() < s->op.complete_at) {
    return false;
  }
  apply(s->op);
  trace_retire(s->op);
  release_slot(static_cast<std::uint32_t>(h));
  return true;
}

void Nic::wait(Handle h) {
  if (h == kDoneHandle) return;
  Slot* s = lookup(h);
  FOMPI_REQUIRE(s != nullptr, ErrClass::arg, "wait: unknown handle");
  if (s->op.batch_pending) batch_flush();
  if (s->op.status != OpStatus::ok) {
    const OpStatus st = s->op.status;
    release_slot(static_cast<std::uint32_t>(h));
    raise_status(st, "wait");
  }
  wait_model_time(s->op.complete_at);
  apply(s->op);
  trace_retire(s->op);
  release_slot(static_cast<std::uint32_t>(h));
}

bool Nic::test_status(Handle h, OpStatus* out) {
  FOMPI_REQUIRE(out != nullptr, ErrClass::arg, "test_status: null out");
  if (h == kDoneHandle) {
    *out = OpStatus::ok;
    return true;
  }
  Slot* s = lookup(h);
  if (s == nullptr) {
    // Stale or double-waited handle: retires with a typed status instead
    // of throwing (or worse, aliasing a recycled slot — the ABA tag rules
    // that out).
    *out = OpStatus::retired;
    return true;
  }
  if (s->op.batch_pending) batch_flush();
  if (s->op.status != OpStatus::ok) {
    *out = s->op.status;
    release_slot(static_cast<std::uint32_t>(h));
    return true;
  }
  if (domain_.config().inject == Injection::model &&
      now_ns() < s->op.complete_at) {
    *out = OpStatus::pending;
    return false;
  }
  apply(s->op);
  trace_retire(s->op);
  release_slot(static_cast<std::uint32_t>(h));
  *out = OpStatus::ok;
  return true;
}

OpStatus Nic::wait_status(Handle h) {
  if (h == kDoneHandle) return OpStatus::ok;
  Slot* s = lookup(h);
  if (s == nullptr) return OpStatus::retired;
  if (s->op.batch_pending) batch_flush();
  if (s->op.status != OpStatus::ok) {
    const OpStatus st = s->op.status;
    release_slot(static_cast<std::uint32_t>(h));
    return st;
  }
  wait_model_time(s->op.complete_at);
  apply(s->op);
  trace_retire(s->op);
  release_slot(static_cast<std::uint32_t>(h));
  return OpStatus::ok;
}

std::uint64_t Nic::completion_deadline(Handle h) {
  if (h == kDoneHandle) return 0;
  Slot* s = lookup(h);
  if (s == nullptr) return 0;  // stale: wait_status retires it immediately
  if (s->op.batch_pending) batch_flush();
  if (s->op.status != OpStatus::ok) return 0;  // typed failure, ready now
  if (domain_.config().inject != Injection::model) return 0;
  return s->op.complete_at;
}

bool Nic::batch_pending(Handle h) {
  if (h == kDoneHandle) return false;
  const Slot* s = lookup(h);
  return s != nullptr && s->op.batch_pending;
}

void Nic::gsync() {
  const OpStatus st = gsync_status();
  if (st != OpStatus::ok) raise_status(st, "gsync");
}

OpStatus Nic::gsync_status() {
  // An open batch (explicit or auto) is flushed before bulk completion:
  // this is what guarantees flush/fence/unlock/complete — which all route
  // through gsync — ring every outstanding doorbell (MPI RMA semantics).
  batch_flush();
  count(Op::bulk_sync);
  const trace::Span sp(trace::EvClass::bulk_sync, -1, outstanding());
  // Drain deferred operations, optionally in shuffled order to model the
  // absence of network ordering guarantees. Explicit handles stay valid for
  // a later test/wait; their data movement happens here at the latest.
  drain_scratch_.clear();
  for (std::size_t i = 0; i < implicit_count_; ++i) {
    drain_scratch_.push_back(&implicit_ops_[i]);
  }
  if (explicit_live_ != 0) {
    for (Slot& s : slab_) {
      if (s.live) drain_scratch_.push_back(&s.op);
    }
  }
  if (domain_.config().shuffle_deferred && drain_scratch_.size() > 1) {
    for (std::size_t i = drain_scratch_.size() - 1; i > 0; --i) {
      std::swap(drain_scratch_[i], drain_scratch_[rng_.below(i + 1)]);
    }
  }
  for (PendingOp* op : drain_scratch_) apply(*op);
  implicit_count_ = 0;
  wait_model_time(latest_complete_at_);
  implicit_live_ = 0;
  local_fence();
  // Surface the first implicit-op failure recorded since the previous
  // gsync, then reset: each bulk-completion epoch reports independently.
  const OpStatus st = implicit_fail_status_;
  implicit_fail_status_ = OpStatus::ok;
  implicit_failed_ = 0;
  return st;
}

void Nic::local_fence() {
  count(Op::memory_fence);
  std::atomic_thread_fence(std::memory_order_seq_cst);
}

Domain::Domain(DomainConfig cfg) : cfg_(cfg) {
  FOMPI_REQUIRE(cfg_.nranks >= 1, ErrClass::arg, "Domain needs >= 1 rank");
  FOMPI_REQUIRE(cfg_.ranks_per_node >= 0, ErrClass::arg,
                "ranks_per_node must be >= 0");
  dead_ = std::make_unique<std::atomic<bool>[]>(
      static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) {
    dead_[static_cast<std::size_t>(r)].store(false, std::memory_order_relaxed);
  }
  nics_.reserve(static_cast<std::size_t>(cfg_.nranks));
  for (int r = 0; r < cfg_.nranks; ++r) {
    nics_.push_back(std::make_unique<Nic>(*this, r));
  }
}

Nic& Domain::nic(int rank) {
  FOMPI_REQUIRE(rank >= 0 && rank < cfg_.nranks, ErrClass::rank,
                "Domain::nic rank out of range");
  return *nics_[static_cast<std::size_t>(rank)];
}

}  // namespace fompi::rdma
