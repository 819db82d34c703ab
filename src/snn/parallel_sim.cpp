#include "snn/parallel_sim.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <bit>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "core/error.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "snn/network.h"
#include "snn/snapshot.h"

namespace sga::snn {

namespace {

/// "no pending event" sentinel — strictly above every representable event
/// time (events are clamped to ≤ kNever = max/4 on the fire side).
constexpr Time kNoTime = std::numeric_limits<Time>::max();

}  // namespace

struct MailBox {
  /// The deliveries of one arrival time, in fire order.
  struct Run {
    Time t = 0;
    std::size_t slot = 0;            ///< its entry in `index`
    std::vector<NeuronId> targets;   ///< local index in the destination shard
    std::vector<SynWeight> weights;
    std::vector<NeuronId> sources;   ///< GLOBAL firing ids; iff record_causes
  };
  /// runs[0, live) hold this window's mail, in order of first arrival;
  /// runs past `live` keep their capacity for later windows.
  std::vector<Run> runs;
  std::size_t live = 0;
  /// Arrival time → run, open addressing on the low bits of the time:
  /// run + 1 per slot, 0 = empty. Sized to twice the runs one window
  /// needs, so it follows traffic, not the delay range.
  std::vector<std::uint32_t> index;

  Run& run_for(Time t) {
    if (2 * (live + 1) > index.size()) grow();
    const std::size_t mask = index.size() - 1;
    std::size_t slot = static_cast<std::size_t>(t) & mask;
    for (; index[slot] != 0; slot = (slot + 1) & mask) {
      Run& r = runs[index[slot] - 1];
      if (r.t == t) return r;
    }
    if (live == runs.size()) runs.emplace_back();
    Run& r = runs[live++];
    r.t = t;
    r.slot = slot;
    index[slot] = static_cast<std::uint32_t>(live);
    return r;
  }

  void grow() {
    index.assign(std::max<std::size_t>(16, 2 * index.size()), 0);
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = 0; i < live; ++i) {
      std::size_t slot = static_cast<std::size_t>(runs[i].t) & mask;
      while (index[slot] != 0) slot = (slot + 1) & mask;
      index[slot] = static_cast<std::uint32_t>(i + 1);
      runs[i].slot = slot;
    }
  }

  void clear() {  // keeps capacity — boxes are reused every window
    for (std::size_t i = 0; i < live; ++i) {
      index[runs[i].slot] = 0;
      runs[i].targets.clear();
      runs[i].weights.clear();
      runs[i].sources.clear();
    }
    live = 0;
  }
};

// One shard: an EventCore over the shard-local store, plus the cross half
// of every fire (EventCore::Remote) and the two ways mail comes back in.
struct ParallelSimulator::Shard final : EventCore::Remote {
  Shard(const CompiledNetwork& local, const ShardCsr& shard_csr,
        Delay max_delay, std::uint32_t shard_index)
      : core(local, shard_csr.global_ids.data(), max_delay, this),
        csr(&shard_csr),
        index(shard_index) {}

  EventCore core;
  const ShardCsr* csr;
  std::uint32_t index;

  // ---- per-window summary, read by the coordinator at the barrier ------
  Time out_min_time_ = kNoTime;  ///< earliest mailbox arrival written
  Time next_time_ = kNoTime;     ///< earliest pending local event
  MailBox* out_ = nullptr;       ///< S outboxes, current parity

  // ---- shared-atomic cross channel (EngineKind::kSharedAtomic) ---------
  // Views into the parent's slot-major ring (parallel_sim.h). All writes
  // are relaxed atomic RMWs; inter-thread ordering comes solely from the
  // window barrier, and the ring sizing guarantees a slot being folded
  // never has a concurrent writer (ARCHITECTURE.md §1.10).
  std::atomic<SynWeight>* aw_ = nullptr;
  std::atomic<std::uint32_t>* ac_ = nullptr;
  std::atomic<std::uint64_t>* atouch_ = nullptr;
  std::atomic<std::uint64_t>* aocc_ = nullptr;
  const std::size_t* entry_base_ = nullptr;  ///< parent-owned, per shard
  const std::size_t* word_base_ = nullptr;
  std::size_t slot_entries_ = 0;
  std::size_t slot_words_ = 0;
  std::size_t occ_words_ = 0;
  Time atom_mask_ = 0;
  bool atomic_cross_ = false;  ///< set per run (off when recording causes)
  /// Earliest arrival still parked in the shared ring (≥ the window end at
  /// the last fold); read by the coordinator at the barrier.
  Time shared_next_ = kNoTime;

  /// Cross-shard fan-out, one run per (dst-shard, delay) segment. Runs are
  /// (shard, delay)-ordered, NOT globally delay-ascending, so a horizon
  /// hit skips the run but keeps scanning.
  ///
  /// kMailbox: appended to the destination outbox's run for the arrival
  /// time — only this shard's worker writes those boxes during the window;
  /// the barrier hands them over. kSharedAtomic: relaxed fetch-ops into
  /// the destination's accumulation slots of the shared ring (weight sum +
  /// delivery count per target, plus touched/occupancy bitmaps); the
  /// destination folds them at its next window start.
  void fan_out(NeuronId lid, Time t, SimStats& st) override {
    const EventCore::RunState& rs = core.state();
    const NeuronId gid = csr->global_ids[lid];
    const NeuronId* clocal = csr->cross_local.data();
    const SynWeight* cwgt = csr->cross_weight.data();
    const std::size_t cse = csr->cross_seg_offsets[lid + 1];
    for (std::size_t s = csr->cross_seg_offsets[lid]; s < cse; ++s) {
      ++st.fanout_segments;
      const Delay d = csr->cross_seg_delay[s];
      if (d > rs.max_time - t) {
        st.hit_time_limit = true;
        continue;
      }
      const Time at = t + d;
      const std::size_t b = csr->cross_seg_begin[s];
      const std::size_t e = csr->cross_seg_end[s];
      if (atomic_cross_) {
        const std::uint32_t ds = csr->cross_seg_shard[s];
        const auto slot = static_cast<std::size_t>(at & atom_mask_);
        std::atomic<SynWeight>* w =
            aw_ + slot * slot_entries_ + entry_base_[ds];
        std::atomic<std::uint32_t>* c =
            ac_ + slot * slot_entries_ + entry_base_[ds];
        std::atomic<std::uint64_t>* tw =
            atouch_ + slot * slot_words_ + word_base_[ds];
        for (std::size_t j = b; j < e; ++j) {
          const NeuronId local = clocal[j];
          w[local].fetch_add(cwgt[j], std::memory_order_relaxed);
          c[local].fetch_add(1, std::memory_order_relaxed);
          tw[local >> 6].fetch_or(1ULL << (local & 63),
                                  std::memory_order_relaxed);
        }
        aocc_[static_cast<std::size_t>(ds) * occ_words_ + (slot >> 6)]
            .fetch_or(1ULL << (slot & 63), std::memory_order_relaxed);
      } else {
        MailBox::Run& run = out_[csr->cross_seg_shard[s]].run_for(at);
        if (e - b == 1) {  // singleton run: push_back, as the core kernel
          run.targets.push_back(clocal[b]);
          run.weights.push_back(cwgt[b]);
          if (rs.record_causes) run.sources.push_back(gid);
        } else {
          run.targets.insert(run.targets.end(), clocal + b, clocal + e);
          run.weights.insert(run.weights.end(), cwgt + b, cwgt + e);
          if (rs.record_causes) {
            run.sources.insert(run.sources.end(), e - b, gid);
          }
        }
      }
      ++st.bulk_appends;
      if (at < out_min_time_) out_min_time_ = at;
    }
  }

  /// Fold the mail delivered at the previous barrier into the local queue:
  /// one bucket_for + bulk append per (source shard, arrival time). Boxes
  /// are drained in source-shard order and each run holds its arrivals in
  /// fire order, which fixes every bucket's order deterministically (the
  /// serial bucket order differs, but bucket order is only observable
  /// through FP summation order — exact for the integer weights of every
  /// paper construction — and cause tie-breaks, which use the order-free
  /// (weight, global source id) rule).
  void drain_inboxes(MailBox* in_boxes, std::size_t stride,
                     std::size_t num_shards) {
    const bool causes = core.state().record_causes;
    for (std::size_t s = 0; s < num_shards; ++s) {
      MailBox& box = in_boxes[s * stride];
      for (std::size_t r = 0; r < box.live; ++r) {
        const MailBox::Run& run = box.runs[r];
        EventCore::Bucket& bucket =
            core.bucket_for(run.t, run.targets.size());
        bucket.targets.insert(bucket.targets.end(), run.targets.begin(),
                              run.targets.end());
        bucket.weights.insert(bucket.weights.end(), run.weights.begin(),
                              run.weights.end());
        if (causes) {
          bucket.sources.insert(bucket.sources.end(), run.sources.begin(),
                                run.sources.end());
        }
      }
      box.clear();
    }
  }

  /// Fold this shard's fully-published shared-atomic slots into the
  /// private queue (kSharedAtomic counterpart of drain_inboxes).
  ///
  /// `base` is a known lower bound on every parked arrival (the window
  /// start, or the global next-event floor at a pause), so a slot's time is
  /// reconstructed uniquely as base + ((slot - base) mod W): the ring
  /// sizing keeps all live arrivals inside [base, base + W). Slots at or
  /// past `bound` (the window end) may still be receiving concurrent
  /// writes from shards already executing the new window — they are left
  /// in place and only contribute to shared_next_. Concurrently-added
  /// occupancy bits this scan misses are covered by the writing shard's
  /// out_min_time_ at the barrier, so the coordinator never loses an
  /// arrival.
  ///
  /// Each folded slot entry becomes one delivery carrying the accumulated
  /// weight sum plus count-1 zero-weight paddings to the same target:
  /// potentials are exact for integer weights (sums are order-free), and
  /// delivery counts, bucket occupancies, touched sets, and probe delivery
  /// counts all match the mailbox engine entry-for-entry.
  void drain_shared(Time base, Time bound) {
    shared_next_ = kNoTime;
    if (aw_ == nullptr) return;
    const std::size_t nloc = csr->num_neurons();
    const std::size_t my_words = (nloc + 63) >> 6;
    const std::size_t occ_base =
        static_cast<std::size_t>(index) * occ_words_;
    for (std::size_t w = 0; w < occ_words_; ++w) {
      std::uint64_t word = aocc_[occ_base + w].load(std::memory_order_relaxed);
      while (word != 0) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        const Time t = base + ((static_cast<Time>(slot) - base) & atom_mask_);
        if (t >= bound) {
          if (t < shared_next_) shared_next_ = t;
          continue;
        }
        aocc_[occ_base + w].fetch_and(~(1ULL << (slot & 63)),
                                      std::memory_order_relaxed);
        std::atomic<std::uint64_t>* tw =
            atouch_ + slot * slot_words_ + word_base_[index];
        std::atomic<SynWeight>* sw =
            aw_ + slot * slot_entries_ + entry_base_[index];
        std::atomic<std::uint32_t>* sc =
            ac_ + slot * slot_entries_ + entry_base_[index];
        for (std::size_t wi = 0; wi < my_words; ++wi) {
          std::uint64_t tword = tw[wi].load(std::memory_order_relaxed);
          if (tword == 0) continue;
          tw[wi].store(0, std::memory_order_relaxed);
          while (tword != 0) {
            const NeuronId local = static_cast<NeuronId>(
                (wi << 6) + static_cast<std::size_t>(std::countr_zero(tword)));
            tword &= tword - 1;
            const SynWeight sum = sw[local].exchange(0, std::memory_order_relaxed);
            const std::uint32_t cnt =
                sc[local].exchange(0, std::memory_order_relaxed);
            EventCore::Bucket& bucket = core.bucket_for(t, cnt);
            bucket.targets.push_back(local);
            bucket.weights.push_back(sum);
            for (std::uint32_t k = 1; k < cnt; ++k) {
              bucket.targets.push_back(local);
              bucket.weights.push_back(0);
            }
          }
        }
      }
    }
  }

  /// Process every pending event with time < wend through the core, then
  /// record the earliest event left for the coordinator.
  void advance_window(Time wend) {
    core.steps().clear();
    out_min_time_ = kNoTime;
    core.run_until(wend);
    Time t = 0;
    next_time_ = core.next_pending_time(&t, wend) ? t : kNoTime;
  }

  void reset() {
    core.reset();
    out_min_time_ = kNoTime;
    shared_next_ = kNoTime;
    atomic_cross_ = false;
    next_time_ = kNoTime;
  }
};

ParallelSimulator::ParallelSimulator(const CompiledNetwork& net,
                                     ParallelConfig config)
    : net_(&net) {
  configure(config);
}

ParallelSimulator::ParallelSimulator(const Network& net, ParallelConfig config)
    : net_(nullptr), owned_(std::make_unique<CompiledNetwork>(net)) {
  net_ = owned_.get();
  configure(config);
}

ParallelSimulator::~ParallelSimulator() = default;

void ParallelSimulator::configure(ParallelConfig config) {
  SGA_REQUIRE(config.max_window >= 1,
              "ParallelSimulator: max_window must be >= 1");
  SGA_REQUIRE(config.steal_skew >= 1.0,
              "ParallelSimulator: steal_skew must be >= 1");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned requested = config.num_threads != 0 ? config.num_threads : hw;
  const std::size_t shards = config.num_shards != 0
                                 ? config.num_shards
                                 : static_cast<std::size_t>(requested);
  threads_ = static_cast<unsigned>(std::min<std::size_t>(requested, shards));
  max_window_ = config.max_window;
  engine_ = config.engine;
  stealing_ = config.work_stealing;
  steal_skew_ = config.steal_skew;
  split_ = net_->shard_split(make_partition(*net_, shards, config.partition));
  lookahead_ = split_.min_cross_delay == 0
                   ? max_window_
                   : std::min<Time>(split_.min_cross_delay, max_window_);
  // Keep wstart_ + window_len_ overflow-free for any config: event times
  // never exceed kNever (= max/4), so this clamp cannot change results.
  lookahead_ = std::min(lookahead_, kNever);
  init();
}

void ParallelSimulator::init() {
  const std::size_t s = split_.partition.num_shards;
  shards_.clear();
  for (std::size_t i = 0; i < s; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        split_.intra[i], split_.shards[i], net_->max_delay(),
        static_cast<std::uint32_t>(i)));
  }
  mail_[0].assign(s * s, {});
  mail_[1].assign(s * s, {});

  // Shared-atomic delivery ring. W ≥ window + max_delay + 1 gives the two
  // invariants §1.10 relies on: (a) every live arrival lies within W slots
  // of the window start, so slot→time reconstruction is unique, and (b) a
  // slot folded this window (time < wend) can never alias a concurrent
  // write (times ≥ wend, all < wend + max_delay ≤ fold time + W).
  atom_slots_ = 0;
  if (engine_ == EngineKind::kSharedAtomic && split_.num_cross_synapses > 0) {
    const auto want = static_cast<std::uint64_t>(lookahead_) +
                      static_cast<std::uint64_t>(net_->max_delay()) + 1;
    const std::uint64_t w = std::bit_ceil(std::max<std::uint64_t>(want, 64));
    const std::size_t n = net_->num_neurons();
    SGA_REQUIRE(w * n <= (1ull << 28),
                "kSharedAtomic: shared ring would need "
                    << w * n << " accumulation slots (" << w
                    << " time slots x " << n
                    << " neurons); use kMailbox for this delay range");
    atom_slots_ = static_cast<std::size_t>(w);
    slot_entries_ = n;
    occ_words_ = atom_slots_ / 64;
    entry_base_.assign(s + 1, 0);
    word_base_.assign(s + 1, 0);
    for (std::size_t i = 0; i < s; ++i) {
      const std::size_t local_n = split_.shards[i].num_neurons();
      entry_base_[i + 1] = entry_base_[i] + local_n;
      word_base_[i + 1] = word_base_[i] + ((local_n + 63) >> 6);
    }
    slot_words_ = word_base_[s];
    atom_weight_ = std::vector<std::atomic<SynWeight>>(atom_slots_ * n);
    atom_count_ =
        std::vector<std::atomic<std::uint32_t>>(atom_slots_ * n);
    atom_touched_ =
        std::vector<std::atomic<std::uint64_t>>(atom_slots_ * slot_words_);
    atom_occ_ = std::vector<std::atomic<std::uint64_t>>(s * occ_words_);
    for (std::size_t i = 0; i < s; ++i) {
      Shard& sh = *shards_[i];
      sh.aw_ = atom_weight_.data();
      sh.ac_ = atom_count_.data();
      sh.atouch_ = atom_touched_.data();
      sh.aocc_ = atom_occ_.data();
      sh.entry_base_ = entry_base_.data();
      sh.word_base_ = word_base_.data();
      sh.slot_entries_ = slot_entries_;
      sh.slot_words_ = slot_words_;
      sh.occ_words_ = occ_words_;
      sh.atom_mask_ = static_cast<Time>(atom_slots_ - 1);
    }
  }
}

void ParallelSimulator::inject_spike(NeuronId id, Time t) {
  SGA_REQUIRE(id < net_->num_neurons(),
              "inject_spike: bad neuron " << id);
  SGA_REQUIRE(t >= 0, "inject_spike: negative time " << t);
  SGA_REQUIRE(t <= kNever, "inject_spike: time " << t << " beyond kNever");
  SGA_REQUIRE(!ran_ || paused_,
              "inject_spike after run() (call reset() first, or pause the "
              "run to inject mid-flight)");
  SGA_REQUIRE(!paused_ || t >= pause_floor_,
              "inject_spike at t=" << t << " into a paused run whose resume "
                                   << "floor is " << pause_floor_);
  Shard& sh = *shards_[split_.partition.shard_of[id]];
  sh.core.inject(split_.partition.local_index[id], t);
}

void ParallelSimulator::attach_probe(obs::Probe& probe) {
  probe.bind(net_->num_neurons());
  probe_ = &probe;
}

void ParallelSimulator::plan_next_window() try {
  const std::size_t s = shards_.size();

  if (!first_plan_) {
    // Fold the finished window: distinct global event times and the last
    // processed step. Shards report sorted per-window time lists; their
    // merged distinct count is what the serial loop counts one bucket at
    // a time.
    merge_scratch_.clear();
    for (const auto& sh : shards_) {
      merge_scratch_.insert(merge_scratch_.end(), sh->core.steps().begin(),
                            sh->core.steps().end());
    }
    if (!merge_scratch_.empty()) {
      std::sort(merge_scratch_.begin(), merge_scratch_.end());
      stats_.event_times += static_cast<std::uint64_t>(
          std::unique(merge_scratch_.begin(), merge_scratch_.end()) -
          merge_scratch_.begin());
      stats_.end_time = merge_scratch_.back();
    }
    // Terminal resolution at the barrier. Window length is 1 whenever
    // terminals are configured, so every terminal fire folded here
    // happened at the single just-executed step wstart_ — the barrier
    // decision is therefore exactly the serial loop's end-of-bucket
    // decision.
    std::uint64_t newly = 0;
    for (const auto& sh : shards_) newly += sh->core.take_terminal_fires();
    if (terminals_remaining_ > 0 && !terminal_fired_) {
      if (newly >= terminals_remaining_) {
        terminal_fired_ = true;
        stats_.hit_terminal = true;
        stats_.execution_time = wstart_;
        terminals_remaining_ = 0;
      } else {
        terminals_remaining_ -= newly;
      }
    }
  }
  first_plan_ = false;

  if (error_) {
    done_ = true;
    return;
  }
  if (terminal_fired_) {
    done_ = true;
    return;
  }

  // Global earliest pending event: shard queues, mail written in the
  // window just finished (it is not in any queue until drained), and
  // arrivals still parked in the shared-atomic ring.
  Time next = kNoTime;
  for (const auto& sh : shards_) {
    next = std::min(next, sh->next_time_);
    next = std::min(next, sh->out_min_time_);
    next = std::min(next, sh->shared_next_);
  }
  if (next == kNoTime) {
    done_ = true;  // quiescence
    return;
  }
  if (next > max_time_) {
    stats_.hit_time_limit = true;  // pending work beyond the horizon
    done_ = true;
    return;
  }
  if (next > pause_time_) {
    // Cooperative pause at the barrier. The window just finished wrote its
    // cross-shard mail into mail_[parity_] (undrained — destinations fold
    // at the START of the next window, which will not run): fold it into
    // the destination shards' queues now, single-threaded, so the COMPLETE
    // pending-event set lives in shard queues — that is the state
    // snapshot() enumerates and run() resumes from. Nothing is dropped.
    // The shared-atomic ring folds the same way: `next` lower-bounds every
    // parked arrival, and with all workers at the barrier there are no
    // concurrent writers, so an unbounded drain empties the ring.
    const std::size_t nshards = shards_.size();
    for (std::size_t i = 0; i < nshards; ++i) {
      shards_[i]->drain_inboxes(mail_[parity_].data() + i, nshards, nshards);
      if (use_atomic_cross_) shards_[i]->drain_shared(next, kNoTime);
      shards_[i]->out_min_time_ = kNoTime;
    }
    paused_ = true;
    stats_.paused = true;
    pause_floor_ = next;
    done_ = true;
    return;
  }
  wstart_ = next;
  wend_ = std::min(wstart_ + window_len_, max_time_ + 1);
  parity_ ^= 1;
  const int p = parity_;
  for (std::size_t i = 0; i < s; ++i) {
    shards_[i]->out_ = mail_[p].data() + i * s;
  }
  assign_shards();
} catch (...) {
  if (!error_) error_ = std::current_exception();
  done_ = true;
}

void ParallelSimulator::assign_shards() {
  const std::size_t s = shards_.size();
  const unsigned workers = workers_;
  assign_.resize(s);
  for (std::size_t i = 0; i < s; ++i) {
    assign_[i] = static_cast<std::uint32_t>(i % workers);
  }
  // Deterministic per-window work stealing: estimate each shard's coming
  // work as its private queue depth (cheap, and a pure function of the
  // simulation state — mail/shared arrivals not yet folded are invisible,
  // identically so on every run). If the static round-robin deal leaves
  // one worker with more than steal_skew × the best achievable (LPT)
  // maximum, adopt the LPT deal; a shard executing away from its static
  // owner counts as one steal. Shard state is self-contained, so WHICH
  // worker runs a shard can never change results — only the metric needs
  // determinism, and it gets it by construction.
  if (!stealing_ || workers < 2 || s <= workers) return;
  est_scratch_.assign(workers, 0);
  std::uint64_t total = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const std::uint64_t e = shards_[i]->core.pending_events();
    est_scratch_[i % workers] += e;
    total += e;
  }
  const std::uint64_t max_static =
      *std::max_element(est_scratch_.begin(), est_scratch_.end());
  if (max_static == 0) return;
  order_scratch_.resize(s);
  for (std::size_t i = 0; i < s; ++i) {
    order_scratch_[i] = static_cast<std::uint32_t>(i);
  }
  std::stable_sort(order_scratch_.begin(), order_scratch_.end(),
                   [&](std::uint32_t a, std::uint32_t b) {
                     return shards_[a]->core.pending_events() >
                            shards_[b]->core.pending_events();
                   });
  est_scratch_.assign(workers, 0);
  deal_scratch_.assign(s, 0);
  for (const std::uint32_t shard : order_scratch_) {
    unsigned best = 0;
    for (unsigned w = 1; w < workers; ++w) {
      if (est_scratch_[w] < est_scratch_[best]) best = w;
    }
    deal_scratch_[shard] = best;
    est_scratch_[best] += shards_[shard]->core.pending_events();
  }
  const std::uint64_t max_lpt =
      *std::max_element(est_scratch_.begin(), est_scratch_.end());
  const double skew = static_cast<double>(max_static) /
                      std::max(1.0, static_cast<double>(total) / workers);
  skew_max_ = std::max(skew_max_, skew);
  if (static_cast<double>(max_static) <=
      steal_skew_ * static_cast<double>(max_lpt)) {
    return;
  }
  for (std::size_t i = 0; i < s; ++i) {
    if (deal_scratch_[i] != assign_[i]) ++steals_;
    assign_[i] = deal_scratch_[i];
  }
}

void ParallelSimulator::advance_owned_shards(unsigned worker) {
  const std::size_t s = shards_.size();
  for (std::size_t i = 0; i < s; ++i) {
    if (assign_[i] != worker) continue;
    // Inboxes for shard i under read parity: mail_[1 - parity_][src*s + i].
    shards_[i]->drain_inboxes(mail_[1 - parity_].data() + i, s, s);
    if (use_atomic_cross_) shards_[i]->drain_shared(wstart_, wend_);
    shards_[i]->advance_window(wend_);
  }
}

SimStats ParallelSimulator::run(const SimConfig& config) {
  SGA_REQUIRE(!ran_ || paused_,
              "ParallelSimulator::run is one-shot (call reset() to reuse, "
              "or pause via SimConfig::pause_time to resume later)");
  obs::MetricsRegistry* caller_metrics = obs::thread_metrics();
  obs::ScopedTimer run_timer(caller_metrics, "psim.run_ns");
  const bool resuming = ran_;
  // Metrics report per-call deltas, so a pause/resume cycle does not
  // double-count the pre-pause portion of the cumulative stats.
  const std::uint64_t spikes0 = stats_.spikes;
  const std::uint64_t deliveries0 = stats_.deliveries;
  const std::uint64_t event_times0 = stats_.event_times;
  ran_ = true;
  if (resuming) {
    // Same resume contract as the serial engine: the recording flags and
    // horizon shaped the pre-pause event stream and cannot change.
    SGA_REQUIRE(shards_.empty() ||
                    (config.record_causes ==
                         shards_[0]->core.state().record_causes &&
                     config.record_spike_log ==
                         shards_[0]->core.state().record_log),
                "resume: record_causes/record_spike_log must match the "
                "paused run");
    SGA_REQUIRE(std::min(config.max_time, kNever) == max_time_,
                "resume: max_time must match the paused run ("
                    << max_time_ << ")");
  } else {
    // Clamped so max_time_ + 1 cannot overflow; events never pass kNever
    // (injections are checked, and the fire-side horizon test drops the
    // rest), so the clamp is unobservable.
    max_time_ = std::min(config.max_time, kNever);
  }
  pause_time_ = config.pause_time;
  paused_ = false;
  stats_.paused = false;

  const Partition& part = split_.partition;
  std::uint64_t distinct_terminals = 0;
  for (const NeuronId t : config.terminal_neurons) {
    SGA_REQUIRE(t < net_->num_neurons(), "bad terminal neuron " << t);
    Shard& sh = *shards_[part.shard_of[t]];
    const NeuronId lid = part.local_index[t];
    if (sh.core.mark_terminal(lid)) ++distinct_terminals;
  }
  if (!resuming) {
    terminals_remaining_ = config.terminate_on_all
                               ? distinct_terminals
                               : std::min<std::uint64_t>(1, distinct_terminals);
    terminal_fired_ = false;
  } else if (distinct_terminals > 0) {
    // Terminals registered before the pause were counted then (the loop
    // above is idempotent); only genuinely new ids adjust the count.
    terminals_remaining_ +=
        config.terminate_on_all
            ? distinct_terminals
            : ((terminals_remaining_ == 0 && !terminal_fired_) ? 1 : 0);
  }
  const bool watch_all = resuming && !shards_.empty()
                             ? shards_[0]->core.state().watch_all
                             : config.watched_neurons.empty();
  for (const NeuronId w : config.watched_neurons) {
    SGA_REQUIRE(w < net_->num_neurons(), "bad watched neuron " << w);
    Shard& sh = *shards_[part.shard_of[w]];
    const NeuronId lid = part.local_index[w];
    sh.core.mark_watched(lid);
  }

  // Per-shard probes: same options as the attached probe, bound to the
  // full network (hooks use global ids). Merged into the user's probe in
  // finalize_run() — only at COMPLETION, so a resume keeps accumulating
  // into the same shard probes rather than recreating (and losing) them.
  if (!resuming) shard_probes_.clear();
  if (probe_ != nullptr && shard_probes_.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shard_probes_.push_back(std::make_unique<obs::Probe>(probe_->options()));
      shard_probes_.back()->bind(net_->num_neurons());
    }
  }

  // The shared-atomic ring cannot carry per-delivery provenance, so a
  // cause-recording run transparently uses the mailbox channel instead
  // (EngineKind::kSharedAtomic doc). The ring is empty at every run entry:
  // fresh/reset()/restored simulators never touched it, and a pause folds
  // it into the shard queues.
  use_atomic_cross_ = atom_slots_ != 0 && !config.record_causes;
  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    EventCore::RunState& rs = sh.core.state();
    rs.record_causes = config.record_causes;
    rs.record_log = config.record_spike_log;
    rs.watch_all = watch_all;
    rs.max_time = max_time_;
    sh.core.set_probe(probe_ != nullptr ? shard_probes_[i].get() : nullptr);
    sh.atomic_cross_ = use_atomic_cross_;
    sh.shared_next_ = kNoTime;
    sh.next_time_ = kNoTime;
    Time t = 0;
    // wend = 0: the pre-run peek must never move the cursor — the first
    // window has not been planned, so every jump would be speculative.
    if (sh.core.next_pending_time(&t, 0)) sh.next_time_ = t;
    sh.out_min_time_ = kNoTime;
  }

  // Terminal detection must stop the run at the end of the terminal's own
  // time step, exactly like the serial loop — so terminal mode degrades
  // the lookahead window to a single step (see header comment).
  window_len_ = terminals_remaining_ > 0 ? 1 : lookahead_;
  done_ = false;
  first_plan_ = true;
  parity_ = 0;
  error_ = nullptr;

  const unsigned workers = std::max(
      1u, std::min<unsigned>(threads_,
                             static_cast<unsigned>(shards_.size())));
  workers_ = workers;
  const std::uint64_t steals0 = steals_;
  if (workers == 1) {
    while (true) {
      plan_next_window();
      if (done_) break;
      try {
        advance_owned_shards(0);
        if (caller_metrics != nullptr) caller_metrics->add("psim.windows");
      } catch (...) {
        if (!error_) error_ = std::current_exception();
        break;
      }
    }
  } else {
    std::vector<obs::MetricsRegistry> worker_metrics(
        caller_metrics != nullptr ? workers : 0);
    std::atomic<bool> error_flag{false};
    std::mutex error_mutex;
    std::barrier bar(static_cast<std::ptrdiff_t>(workers),
                     [this]() noexcept { plan_next_window(); });
    auto work = [&](unsigned tid) {
      const obs::ScopedThreadMetrics install(
          caller_metrics != nullptr ? &worker_metrics[tid] : nullptr);
      obs::ScopedTimer t(obs::thread_metrics(), "psim.worker_ns");
      while (true) {
        bar.arrive_and_wait();  // completion == plan_next_window
        if (done_) break;
        if (error_flag.load(std::memory_order_relaxed)) continue;
        try {
          advance_owned_shards(tid);
          if (obs::MetricsRegistry* m = obs::thread_metrics()) {
            m->add("psim.windows");
          }
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error_) error_ = std::current_exception();
          }
          error_flag.store(true, std::memory_order_relaxed);
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) pool.emplace_back(work, i);
    for (std::thread& th : pool) th.join();
    if (caller_metrics != nullptr) {
      for (const obs::MetricsRegistry& m : worker_metrics) {
        caller_metrics->merge(m);
      }
    }
  }
  if (error_) std::rethrow_exception(error_);

  finalize_run(/*absorb_probes=*/!paused_);
  if (caller_metrics != nullptr) {
    caller_metrics->add("psim.runs");
    caller_metrics->add("sim.spikes", stats_.spikes - spikes0);
    caller_metrics->add("sim.deliveries", stats_.deliveries - deliveries0);
    caller_metrics->add("sim.event_times", stats_.event_times - event_times0);
    caller_metrics->add("psim.steals", steals_ - steals0);
    caller_metrics->gauge("psim.skew", skew_max_);
    caller_metrics->gauge("psim.shards", static_cast<double>(shards_.size()));
    caller_metrics->gauge("psim.threads", static_cast<double>(workers));
  }
  return stats_;
}

void ParallelSimulator::finalize_run(bool absorb_probes) {
  // Engine totals: semantic counters sum exactly; queue counters combine
  // as documented in the header (they are per-queue properties). Counters
  // are ASSIGNED (base_ + per-shard sums), never accumulated into stats_,
  // so finalizing at a pause and again at completion is safe: shard
  // counters persist across the pause, and base_ carries what a restore
  // brought in (shard counters restart from zero there).
  stats_.spikes = base_.spikes;
  stats_.deliveries = base_.deliveries;
  stats_.peak_queue_events = base_.peak_queue_events;
  stats_.max_bucket_occupancy = base_.max_bucket_occupancy;
  stats_.overflow_spills = base_.overflow_spills;
  stats_.empty_bucket_scans = base_.empty_bucket_scans;
  stats_.fanout_segments = base_.fanout_segments;
  stats_.bulk_appends = base_.bulk_appends;
  stats_.pool_hits = base_.pool_hits;
  stats_.pool_misses = base_.pool_misses;
  stats_.decode_blocks = base_.decode_blocks;
  for (const auto& sh : shards_) {
    const SimStats& ss = sh->core.stats();
    stats_.spikes += ss.spikes;
    stats_.deliveries += ss.deliveries;
    stats_.hit_time_limit = stats_.hit_time_limit || ss.hit_time_limit;
    stats_.peak_queue_events += ss.peak_queue_events;
    stats_.max_bucket_occupancy =
        std::max(stats_.max_bucket_occupancy, ss.max_bucket_occupancy);
    stats_.overflow_spills += ss.overflow_spills;
    stats_.empty_bucket_scans += ss.empty_bucket_scans;
    stats_.fanout_segments += ss.fanout_segments;
    stats_.bulk_appends += ss.bulk_appends;
    stats_.pool_hits += ss.pool_hits;
    stats_.pool_misses += ss.pool_misses;
    stats_.decode_blocks += ss.decode_blocks;
  }
  describe_engine(&stats_);

  // Canonical (time, id) spike log: shard logs are time-ordered already;
  // one global sort yields the canonical order (a neuron fires at most
  // once per step, so (time, id) is a total order on log entries). A
  // restore scattered the image's log back into the shard logs, so the
  // rebuild covers pre-restore history too.
  log_.clear();
  for (const auto& sh : shards_) {
    log_.insert(log_.end(), sh->core.spike_log().begin(),
                sh->core.spike_log().end());
  }
  std::sort(log_.begin(), log_.end());

  if (absorb_probes && probe_ != nullptr) {
    std::vector<const obs::Probe*> parts;
    parts.reserve(shard_probes_.size());
    for (const auto& p : shard_probes_) parts.push_back(p.get());
    probe_->absorb_shards(parts);
  }
}

void ParallelSimulator::clear_shared_slots() {
  // A run that stopped at a terminal or the horizon can leave undelivered
  // arrivals parked in the shared ring (exactly as the mailbox engine
  // leaves undrained mail); reset() discards both the same way. O(occupied
  // slots) — single-threaded, plain loads/stores through the atomics.
  if (atom_slots_ == 0) return;
  for (std::size_t s = 0; s < shards_.size(); ++s) {
    const std::size_t local_n = split_.shards[s].num_neurons();
    const std::size_t my_words = (local_n + 63) >> 6;
    for (std::size_t w = 0; w < occ_words_; ++w) {
      std::uint64_t word =
          atom_occ_[s * occ_words_ + w].load(std::memory_order_relaxed);
      if (word == 0) continue;
      atom_occ_[s * occ_words_ + w].store(0, std::memory_order_relaxed);
      while (word != 0) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        for (std::size_t wi = 0; wi < my_words; ++wi) {
          std::atomic<std::uint64_t>& tw =
              atom_touched_[slot * slot_words_ + word_base_[s] + wi];
          std::uint64_t tword = tw.load(std::memory_order_relaxed);
          if (tword == 0) continue;
          tw.store(0, std::memory_order_relaxed);
          while (tword != 0) {
            const std::size_t local =
                (wi << 6) + static_cast<std::size_t>(std::countr_zero(tword));
            tword &= tword - 1;
            const std::size_t e = slot * slot_entries_ + entry_base_[s] + local;
            atom_weight_[e].store(0, std::memory_order_relaxed);
            atom_count_[e].store(0, std::memory_order_relaxed);
          }
        }
      }
    }
  }
}

void ParallelSimulator::reset() {
  for (const auto& sh : shards_) sh->reset();
  for (int p = 0; p < 2; ++p) {
    for (auto& box : mail_[p]) box.clear();
  }
  clear_shared_slots();
  steals_ = 0;
  skew_max_ = 0.0;
  use_atomic_cross_ = false;
  shard_probes_.clear();
  log_.clear();
  stats_ = SimStats{};
  base_ = SimStats{};
  terminals_remaining_ = 0;
  terminal_fired_ = false;
  done_ = false;
  first_plan_ = true;
  parity_ = 0;
  max_time_ = kNever;
  error_ = nullptr;
  ran_ = false;
  paused_ = false;
  pause_time_ = kNever;
  pause_floor_ = 0;
}

std::vector<std::uint8_t> ParallelSimulator::snapshot() const {
  obs::ScopedTimer timer(obs::thread_metrics(), "snap.snapshot_ns");
  SnapshotImage img;
  build_image(&img);
  std::vector<std::uint8_t> bytes = serialize_snapshot(img);
  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("snap.snapshots");
    m->add("snap.bytes", bytes.size());
  }
  return bytes;
}

void ParallelSimulator::build_image(SnapshotImage* img) const {
  img->num_neurons = net_->num_neurons();
  img->num_synapses = net_->num_synapses();
  img->max_delay = net_->max_delay();
  img->widths = net_->storage_widths();
  img->mid_run = ran_;
  // Recording flags live in the shards (uniform across them by
  // construction); a never-run simulator has the defaults, exactly like a
  // fresh serial engine.
  const EventCore::RunState rs =
      shards_.empty() ? EventCore::RunState{} : shards_[0]->core.state();
  img->record_causes = rs.record_causes;
  img->record_log = rs.record_log;
  img->watch_all = rs.watch_all;
  img->terminal_fired = terminal_fired_;
  img->max_time = max_time_;
  img->resume_floor =
      paused_ ? pause_floor_ : (ran_ ? stats_.end_time + 1 : 0);
  img->terminals_remaining = terminals_remaining_;
  // Per-neuron state and pending events: each shard's, in global ids,
  // merged into the id-sorted and time-ascending orders the format
  // requires. At a pause the mailboxes are already folded into the shard
  // queues (plan_next_window's pause path), so this IS the complete
  // pending set. In-bucket order is shard-index order, which is
  // deterministic for a given partition; delivery order inside a bucket is
  // semantically order-free (docs/PERSISTENCE.md).
  std::map<Time, SnapshotBucket> pending;
  for (const auto& sh : shards_) {
    for (const NeuronId lid : sh->core.terminals()) {
      img->terminals.push_back(sh->csr->global_ids[lid]);
    }
    for (const NeuronId lid : sh->core.watched()) {
      img->watched.push_back(sh->csr->global_ids[lid]);
    }
    sh->core.export_neurons(&img->neurons);
    sh->core.export_pending(&pending);
  }
  std::sort(img->terminals.begin(), img->terminals.end());
  std::sort(img->watched.begin(), img->watched.end());
  std::sort(img->neurons.begin(), img->neurons.end(),
            [](const SnapshotNeuron& a, const SnapshotNeuron& b) {
              return a.id < b.id;
            });
  img->queue.reserve(pending.size());
  for (auto& [t, bucket] : pending) img->queue.push_back(std::move(bucket));

  img->log = log_;
  img->stats = stats_;
}

void ParallelSimulator::restore(const std::uint8_t* data, std::size_t size) {
  obs::ScopedTimer timer(obs::thread_metrics(), "snap.restore_ns");
  // ALL-OR-NOTHING, as in Simulator::restore: parse + validate throw
  // before the first mutation.
  const SnapshotImage img = parse_snapshot(data, size);
  validate_snapshot_for(img, *net_);
  apply_image(img);
  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("snap.restores");
  }
}

void ParallelSimulator::apply_image(const SnapshotImage& img) {
  reset();
  const Partition& part = split_.partition;
  for (const auto& sh : shards_) {
    EventCore::RunState& rs = sh->core.state();
    rs.record_causes = img.record_causes;
    rs.record_log = img.record_log;
    rs.watch_all = img.watch_all;
  }
  max_time_ = img.max_time;
  for (const NeuronId t : img.terminals) {
    shards_[part.shard_of[t]]->core.mark_terminal(part.local_index[t]);
  }
  for (const NeuronId w : img.watched) {
    shards_[part.shard_of[w]]->core.mark_watched(part.local_index[w]);
  }
  terminals_remaining_ = img.terminals_remaining;
  terminal_fired_ = img.terminal_fired;

  // Scatter pending events to their owning shards through the normal
  // queue path (ring vs spill follows each shard's own geometry).
  for (const SnapshotBucket& b : img.queue) {
    for (const NeuronId f : b.forced) {
      shards_[part.shard_of[f]]->core.inject(part.local_index[f], b.time);
    }
    for (const SnapshotDelivery& d : b.deliveries) {
      EventCore::Bucket& bk =
          shards_[part.shard_of[d.target]]->core.bucket_for(b.time, 1);
      bk.targets.push_back(part.local_index[d.target]);
      bk.weights.push_back(d.weight);
      if (img.record_causes) bk.sources.push_back(d.source);
    }
  }
  for (const SnapshotNeuron& e : img.neurons) {
    shards_[part.shard_of[e.id]]->core.restore_neuron(part.local_index[e.id],
                                                      e);
  }
  // The re-enqueue above ran through bucket_for/activate, which bump
  // per-shard artifact counters; zero them so the post-restore deltas the
  // shards accumulate start clean (base_ carries the image's cumulative
  // totals — see finalize_run).
  for (const auto& sh : shards_) {
    SimStats& ss = sh->core.stats();
    ss.peak_queue_events = 0;
    ss.overflow_spills = 0;
    ss.pool_hits = 0;
    ss.pool_misses = 0;
  }

  // The merged log lives here; shard logs stay empty (finalize_run
  // concatenates shard logs onto an empty log_, so seed the restored
  // history into ONE shard to keep the rebuild correct).
  log_ = img.log;
  if (!shards_.empty()) shards_[0]->core.spike_log() = img.log;

  // Engine-specific fields reflect the LIVE engine, not the source's.
  base_ = img.stats;
  describe_engine(&base_);
  stats_ = base_;
  ran_ = img.mid_run;
  paused_ = img.mid_run && img.stats.paused;
  pause_floor_ = img.resume_floor;
  pause_time_ = kNever;
}

void ParallelSimulator::describe_engine(SimStats* s) const {
  // One shard's ring size, the bytes of the stores the shards run on, and
  // the encoding of the source artifact (shards may differ).
  s->ring_buckets =
      shards_.empty() ? 0 : shards_[0]->core.stats().ring_buckets;
  s->csr_bytes = split_.storage_bytes();
  s->storage_encoding = encoding_code(net_->storage_widths());
}

std::size_t ParallelSimulator::pool_resident_buckets() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->core.pool_resident_buckets();
  return total;
}

Time ParallelSimulator::first_spike(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "first_spike: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.record(p.local_index[id]).first_spike;
}

std::vector<Time> ParallelSimulator::first_spikes() const {
  std::vector<Time> out(net_->num_neurons(), kNever);
  for (NeuronId id = 0; id < out.size(); ++id) out[id] = first_spike(id);
  return out;
}

Time ParallelSimulator::last_spike(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "last_spike: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.record(p.local_index[id]).last_spike;
}

std::uint32_t ParallelSimulator::spike_count(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "spike_count: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.record(p.local_index[id]).spike_count;
}

NeuronId ParallelSimulator::first_spike_cause(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(),
              "first_spike_cause: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.cause(p.local_index[id]);
}

Voltage ParallelSimulator::potential(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "potential: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.record(p.local_index[id]).v;
}

}  // namespace sga::snn
