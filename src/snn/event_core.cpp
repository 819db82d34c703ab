#include "snn/event_core.h"

#include <algorithm>
#include <bit>
#include <variant>

#include "core/error.h"
#include "obs/probe.h"
#include "snn/snapshot.h"

namespace sga::snn {

namespace {

/// Calendar ring size: a power of two covering the largest synapse delay,
/// clamped to [64, 2^16] slots. Below the clamp every fired event lands in
/// the ring; above it, oversized delays spill (counted in SimStats).
std::size_t ring_size_for(Delay max_delay) {
  const auto want = static_cast<std::uint64_t>(max_delay) + 1;
  return static_cast<std::size_t>(
      std::bit_ceil(std::clamp<std::uint64_t>(want, 64, 1u << 16)));
}

}  // namespace

EventCore::EventCore(const CompiledNetwork& net) : net_(&net) {
  init(net.max_delay());
}

EventCore::EventCore(const CompiledNetwork& local, const NeuronId* global_ids,
                     Delay max_delay, Remote* remote)
    : net_(&local), global_ids_(global_ids), remote_(remote) {
  record_steps_ = true;
  init(max_delay);
}

void EventCore::init(Delay ring_delay) {
  const std::size_t n = net_->num_neurons();
  neurons_.resize(n);
  for (NeuronId i = 0; i < n; ++i) {
    neurons_[i] = NeuronRecord::at_rest(net_->params(i));
  }
  is_terminal_.assign(n, 0);
  is_watched_.assign(n, 0);
  const std::size_t w = ring_size_for(ring_delay);
  ring_.resize(w);
  ring_occupied_.assign(w / 64, 0);
  ring_mask_ = static_cast<Time>(w - 1);
  // Bucket references are u32 segment ids, below the raw-run tag.
  SGA_REQUIRE(net_->num_delay_segments() < kRawRun,
              "event core: " << net_->num_delay_segments()
                             << " delay segments exceed the u32 segment "
                                "references of the delivery buckets");
  generation_ = net_->generation();
  describe_engine();
}

void EventCore::describe_engine() {
  stats_.ring_buckets = static_cast<std::uint32_t>(ring_.size());
  stats_.csr_bytes = net_->csr_storage_bytes();
  stats_.storage_encoding = encoding_code(net_->storage_widths());
}

void EventCore::adopt_stats(const SimStats& s) {
  stats_ = s;
  describe_engine();
}

bool EventCore::mark_terminal(NeuronId id) {
  if (is_terminal_[id]) return false;
  is_terminal_[id] = 1;
  active_terminals_.push_back(id);
  return true;
}

void EventCore::mark_watched(NeuronId id) {
  if (is_watched_[id]) return;
  is_watched_[id] = 1;
  active_watched_.push_back(id);
}

void EventCore::ensure_causes() {
  if (cause_.empty()) {
    cause_.assign(neurons_.size(), kNoNeuron);
    accum_cause_.resize(neurons_.size());
  }
}

template <typename Store>
void EventCore::fanout_segmented(const Store& st, NeuronId id, Time t) {
  // One queue lookup per delay run, then one u32 segment id appended to
  // the bucket (plus the firing id when causes are recorded); the drain
  // reads the run's targets and weights straight from the frozen store. No
  // synapse data is copied.
  const bool causes = run_.record_causes;
  const NeuronId src = global_id(id);
  const std::size_t se = net_->seg_end(id);
  for (std::size_t s = net_->seg_begin(id); s < se; ++s) {
    ++stats_.fanout_segments;
    const auto d = static_cast<Delay>(st.seg_delays[s]);
    if (d > run_.max_time - t) {
      // Segment delays increase along the row, so every remaining run is
      // past the horizon too.
      stats_.hit_time_limit = true;
      break;
    }
    Bucket& bucket = bucket_for(
        t + d, static_cast<std::size_t>(st.seg_syn_begin[s + 1]) -
                   static_cast<std::size_t>(st.seg_syn_begin[s]));
    bucket.runs.push_back(static_cast<std::uint32_t>(s));
    if (causes) bucket.sources.push_back(src);
    ++stats_.bulk_appends;
  }
}

EventCore::Bucket& EventCore::spill_bucket(Time t, std::uint64_t count) {
  stats_.overflow_spills += count;
  const auto [it, inserted] = spill_.try_emplace(t);
  if (inserted) activate(it->second);
  it->second.events += count;
  return it->second;
}

void EventCore::migrate_spill() {
  const auto w = static_cast<Time>(ring_.size());
  while (!spill_.empty()) {
    const auto it = spill_.begin();
    if (it->first - cursor_ >= w) break;
    const auto slot = static_cast<std::size_t>(it->first & ring_mask_);
    Bucket& dst = ring_[slot];
    ring_occupied_[slot >> 6] |= 1ULL << (slot & 63);
    ring_events_ += it->second.size();
    if (dst.empty()) {
      // An unoccupied slot holds no storage (drains donate it to the pool),
      // so adopting the spill node's vectors wholesale loses nothing.
      dst = std::move(it->second);
    } else {
      // Same residue inside one window ⇒ same time: merge, then return the
      // spill node's storage to the pool instead of freeing it. The ring's
      // runs stay ahead of the spill's, whatever their kinds.
      Bucket& src = it->second;
      dst.runs.insert(dst.runs.end(), src.runs.begin(), src.runs.end());
      dst.targets.insert(dst.targets.end(), src.targets.begin(),
                         src.targets.end());
      dst.weights.insert(dst.weights.end(), src.weights.begin(),
                         src.weights.end());
      dst.sources.insert(dst.sources.end(), src.sources.begin(),
                         src.sources.end());
      dst.forced.insert(dst.forced.end(), src.forced.begin(),
                        src.forced.end());
      dst.events += src.events;
      recycle(src);
    }
    spill_.erase(it);
  }
}

bool EventCore::next_pending_time(Time* t, Time bound) {
  migrate_spill();
  if (ring_events_ == 0) {
    if (spill_.empty()) return false;
    const Time head = spill_.begin()->first;
    if (head >= bound) {
      // A shard's queue receives mail at every barrier, always at times
      // >= its window end: a cursor moved past `bound` would strand that
      // mail behind it, in a stale slot the scan never reaches. Report the
      // head without jumping; the next window re-asks with a larger bound.
      *t = head;
      return true;
    }
    cursor_ = head - 1;  // slide the window to the next event
    migrate_spill();
  }
  // Circular occupancy-bitmap scan from cursor_ + 1; slot order equals time
  // order inside the window, so the first set bit is the earliest event.
  const auto start = static_cast<std::size_t>((cursor_ + 1) & ring_mask_);
  const std::size_t word_mask = ring_occupied_.size() - 1;  // W/64 is pow2
  std::size_t w = start >> 6;
  std::uint64_t word = ring_occupied_[w] & (~0ULL << (start & 63));
  while (word == 0) {
    w = (w + 1) & word_mask;
    word = ring_occupied_[w];
  }
  const std::size_t slot =
      (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
  const std::size_t offset =
      (slot - start) & static_cast<std::size_t>(ring_mask_);
  stats_.empty_bucket_scans += offset;
  *t = cursor_ + 1 + static_cast<Time>(offset);
  return true;
}

void EventCore::check_time_order(NeuronId id, Time dt) const {
  SGA_CHECK(dt >= 0, "time went backwards for neuron " << global_id(id));
}

template <typename Store>
void EventCore::fire(const Store& st, NeuronRecord& rec, NeuronId id,
                     Time t) {
  const bool first_fire = rec.first_spike == kNever;
  touch_state(rec, id);
  rec.v = rec.v_reset;  // Eq. (3)
  rec.last_update = t;
  ++rec.spike_count;
  ++stats_.spikes;
  if (first_fire) rec.first_spike = t;
  rec.last_spike = t;
  if (probe_ != nullptr) probe_->on_spike(t, global_id(id));
  if (logged(id)) spike_log_.emplace_back(t, global_id(id));
  if (first_fire && is_terminal_[id]) ++terminal_fires_;
  // CSR fan-out: the fired neuron's synapses are one contiguous, delay-
  // sorted slice of the flat delay/target/weight arrays. The horizon check
  // inside the kernel is in subtraction form: t ≤ max_time always holds
  // here, so max_time - t cannot overflow, while t + delay could (kNever
  // horizon × pseudopolynomial delay). Dropping work past the horizon
  // reports hit_time_limit, consistently with the pop-side check that
  // catches post-horizon injected spikes.
  fanout_segmented(st, id, t);
  if (remote_ != nullptr) remote_->fan_out(id, t, stats_);
}

void EventCore::check_generation() const {
  if (net_->generation() == generation_) return;
  const auto references = [](const Bucket& b) {
    for (std::size_t i = 0; i < b.runs.size(); ++i) {
      if (b.runs[i] != kRawRun) return true;
      ++i;  // skip the raw run's length
    }
    return false;
  };
  bool stale = false;
  for (std::size_t w = 0; w < ring_occupied_.size() && !stale; ++w) {
    for (std::uint64_t word = ring_occupied_[w]; word != 0 && !stale;
         word &= word - 1) {
      stale = references(
          ring_[(w << 6) + static_cast<std::size_t>(std::countr_zero(word))]);
    }
  }
  for (const auto& [t, bucket] : spill_) stale = stale || references(bucket);
  SGA_REQUIRE(!stale,
              "the network was patched while this engine held queued "
              "deliveries that reference its delay segments; patch only "
              "after reset() or a finished run");
}

void EventCore::run_until(Time bound) {
  check_generation();
  generation_ = net_->generation();
  if (run_.record_causes) ensure_causes();
  // Resolve the storage layout ONCE per call: the drain below is the fully
  // typed event loop for the frozen store.
  std::visit([&](const auto& st) { drain(st, bound); }, net_->synapse_store());
}

template <typename Store, typename F>
void EventCore::for_each_delivery(const Store& st, const Bucket& b,
                                  F&& f) const {
  const bool causes = run_.record_causes;
  const NeuronId* rt = b.targets.data();
  const SynWeight* rw = b.weights.data();
  const NeuronId* src = b.sources.data();
  // The store's columns, held in locals: the callers' byte-sized record
  // stores may alias any member, which would reload them per reference.
  const auto* const seg_b = st.seg_syn_begin.data();
  const auto* const tgt = st.targets.data();
  const auto* const wgt = st.weights.data();
  const std::uint32_t* const end = b.runs.data() + b.runs.size();
  for (const std::uint32_t* run = b.runs.data(); run != end; ++run) {
    if (*run == kRawRun) {
      const std::uint32_t len = *++run;
      for (std::uint32_t i = 0; i < len; ++i) {
        f(rt[i], rw[i], causes ? src[i] : kNoNeuron);
      }
      rt += len;
      rw += len;
      if (causes) src += len;
    } else {
      // A reference: the run is the segment's slice of the frozen target
      // and weight columns.
      const NeuronId source = causes ? *src++ : kNoNeuron;
      const auto e = static_cast<std::size_t>(seg_b[*run + 1]);
      for (auto k = static_cast<std::size_t>(seg_b[*run]); k < e; ++k) {
        f(static_cast<NeuronId>(tgt[k]), static_cast<SynWeight>(wgt[k]),
          source);
      }
    }
  }
}

template <typename Store>
void EventCore::drain(const Store& st, Time bound) {
  std::vector<NeuronId>& targets = targets_scratch_;  // deduplicated, per step
  NeuronRecord* const recs = neurons_.data();
  // Fixed for the whole run; held in locals so the byte-sized record
  // stores below (which may alias any member) do not force reloads.
  const bool causes = run_.record_causes;
  while (true) {
    Time t = 0;
    if (!next_pending_time(&t, bound) || t >= bound) break;
    if (t > run_.max_time) {
      stats_.hit_time_limit = true;
      break;
    }
    if (t > run_.pause_time) {
      // Cooperative pause BETWEEN steps: unlike the horizon break above,
      // the bucket at t (and everything after it) stays queued — nothing
      // is dropped, so a later run or a restore-elsewhere continues
      // event-for-event exactly.
      run_.paused = true;
      stats_.paused = true;
      run_.pause_floor = t;
      break;
    }
    // Drain the bucket in place: with delay ≥ 1 and the ring's strict
    // window bound, nothing scheduled during fire() can land back in the
    // bucket being iterated.
    cursor_ = t;
    const auto slot = static_cast<std::size_t>(t & ring_mask_);
    Bucket* const bucket = &ring_[slot];
    ring_events_ -= bucket->size();
    pending_events_ -= bucket->size();
    if (bucket->size() > stats_.max_bucket_occupancy) {
      stats_.max_bucket_occupancy = bucket->size();
    }
    ++stats_.event_times;
    stats_.end_time = t;
    if (record_steps_) steps_.push_back(t);

    // Probe hook, OUTSIDE the accumulation loop below: the per-delivery
    // iteration is duplicated only when a probe is counting, so the
    // uninstrumented hot loop stays untouched (overhead contract).
    if (probe_ != nullptr && probe_->counts_deliveries()) {
      for_each_delivery(st, *bucket, [&](NeuronId target, SynWeight, NeuronId) {
        probe_->on_delivery(global_id(target));
      });
    }

    targets.clear();
    stats_.deliveries += bucket->events - bucket->forced.size();
    for_each_delivery(st, *bucket, [&](NeuronId target, SynWeight weight,
                                       NeuronId source) {
      NeuronRecord& rec = recs[target];
      // A cause is read only at a target's first fire (cause_ is written
      // when first_spike == kNever), and first_spike cannot change during
      // this loop (fires come after it), so a target that has fired skips
      // the cause bookkeeping: accum_cause_ has no other reader.
      const bool unfired_cause = causes && rec.first_spike == kNever;
      if (!rec.touched) {
        rec.touched = 1;
        targets.push_back(target);
        rec.accum = 0;
        if (unfired_cause) accum_cause_[target] = CauseScratch{};
      }
      rec.accum += weight;
      if (unfired_cause) {
        // Deterministic selection: largest weight, ties broken by smallest
        // source id. Sources are global ids, so the rule is independent of
        // delivery order and of sharding: the serial and the sharded engine
        // report the same cause.
        CauseScratch& best = accum_cause_[target];
        if (weight > best.weight ||
            (best.source != kNoNeuron && weight == best.weight &&
             source < best.source)) {
          best.source = source;
          best.weight = weight;
        }
      }
    });

    // Forced (injected) spikes fire unconditionally; synaptic input arriving
    // at the same step is consumed by the fire (the neuron resets). A neuron
    // fires at most once per step (Definition 2), so duplicate injections at
    // the same time collapse.
    for (const NeuronId id : bucket->forced) {
      NeuronRecord& rec = recs[id];
      if (rec.last_spike == t) continue;
      fire(st, rec, id, t);
      if (rec.touched) {
        // Mark as handled so the delivery pass below skips it.
        rec.accum = 0;
        rec.touched = 2;
      }
    }

    for (const NeuronId id : targets) {
      NeuronRecord& rec = recs[id];
      if (rec.touched == 2) {  // already force-fired this step
        rec.touched = 0;
        continue;
      }
      rec.touched = 0;
      // Integrate (Eq. (1)), then the threshold test (Eq. (2)).
      const Voltage v_hat = decayed_potential(rec, id, t) + rec.accum;
      if (v_hat >= rec.v_threshold) {
        if (causes && rec.first_spike == kNever) {
          cause_[id] = accum_cause_[id].source;
        }
        fire(st, rec, id, t);
      } else {
        touch_state(rec, id);
        rec.v = v_hat;
        rec.last_update = t;
      }
    }

    // Membrane sampling after the threshold pass: the record now holds the
    // post-integration potential (or the reset value if the neuron fired).
    if (probe_ != nullptr && probe_->samples_potentials()) {
      for (const NeuronId id : targets) {
        probe_->on_potential(t, global_id(id), recs[id].v);
      }
    }

    // Release the drained bucket: its storage (capacity intact) goes to the
    // pool for the next activation, keeping the steady state allocation-free.
    recycle(*bucket);
    ring_occupied_[slot >> 6] &= ~(1ULL << (slot & 63));

    // Terminal resolution at the end of the terminal's own step — only
    // when this core owns the terminal count.
    if (terminal_fires_ != 0 && run_.terminals_remaining != 0) {
      if (terminal_fires_ >= run_.terminals_remaining) {
        run_.terminals_remaining = 0;
        run_.terminal_fired = true;
        stats_.hit_terminal = true;
        stats_.execution_time = t;
        break;
      }
      run_.terminals_remaining -= std::exchange(terminal_fires_, 0);
    }
  }
}

void EventCore::reset() {
  // Per-neuron state: restore only the entries the previous cycle dirtied.
  for (const NeuronId id : dirty_) neurons_[id].rewind();
  if (!cause_.empty()) {
    for (const NeuronId id : dirty_) cause_[id] = kNoNeuron;
  }
  dirty_.clear();
  if (++epoch_ == 0) {
    // 16-bit stamp wrap: a stale stamp could now equal a future epoch, so
    // forget them all (every record is clean here) and restart at 1.
    for (NeuronRecord& rec : neurons_) rec.stamp = 0;
    epoch_ = 1;
  }
  for (const NeuronId t : active_terminals_) is_terminal_[t] = 0;
  active_terminals_.clear();
  for (const NeuronId w : active_watched_) is_watched_[w] = 0;
  active_watched_.clear();
  // Queue: drained buckets already donated their storage; sweep the
  // occupancy bitmap only when a terminal/horizon stop left events behind,
  // recycling the leftovers so the pool survives reset() intact.
  if (ring_events_ > 0) {
    for (std::size_t w = 0; w < ring_occupied_.size(); ++w) {
      std::uint64_t word = ring_occupied_[w];
      while (word != 0) {
        const auto slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        recycle(ring_[slot]);
      }
      ring_occupied_[w] = 0;
    }
    ring_events_ = 0;
  }
  for (auto& [t, bucket] : spill_) recycle(bucket);
  spill_.clear();
  pending_events_ = 0;
  cursor_ = -1;
  // Pool high-watermark trim (reuse-lifecycle fix; docs/SERVICE.md): with
  // every bucket recycled, the pool holds the ALL-TIME peak concurrent
  // bucket demand — a pooled worker that once served a large request would
  // otherwise pin that footprint forever. Keep the larger of the last two
  // runs' peaks: enough for a same-shaped rerun to stay allocation-free
  // (pool_misses == 0) and for an alternating big/small workload not to
  // thrash, while bounding resident storage by recent rather than all-time
  // demand. Drop from the front — the LIFO back is the warmest storage.
  SGA_CHECK(live_buckets_ == 0,
            "reset: " << live_buckets_ << " buckets still hold storage");
  const std::size_t keep = std::max(peak_live_buckets_, prev_peak_live_);
  if (pool_.size() > keep) {
    pool_.erase(pool_.begin(),
                pool_.begin() +
                    static_cast<std::ptrdiff_t>(pool_.size() - keep));
  }
  prev_peak_live_ = peak_live_buckets_;
  peak_live_buckets_ = 0;
  spike_log_.clear();
  steps_.clear();
  terminal_fires_ = 0;
  stats_ = SimStats{};
  describe_engine();
  run_ = RunState{};
}

void EventCore::export_neurons(std::vector<SnapshotNeuron>* out) const {
  // Sparse: exactly the entries reset() would rewind.
  for (const NeuronId id : dirty_) {
    const NeuronRecord& rec = neurons_[id];
    SnapshotNeuron e;
    e.id = global_id(id);
    e.v = rec.v;
    e.last_update = rec.last_update;
    e.first_spike = rec.first_spike;
    e.last_spike = rec.last_spike;
    e.spike_count = rec.spike_count;
    e.cause = cause(id);
    out->push_back(e);
  }
}

void EventCore::export_pending(std::map<Time, SnapshotBucket>* out) const {
  check_generation();
  // VERBATIM in-bucket order: delivery order is observable through FP
  // summation and serial log order, so a same-engine restore (which queues
  // the image as raw runs) must reproduce the drain order exactly.
  const auto add = [&](Time t, const Bucket& bucket) {
    SnapshotBucket& b = (*out)[t];
    b.time = t;
    for (const NeuronId f : bucket.forced) b.forced.push_back(global_id(f));
    std::visit(
        [&](const auto& st) {
          for_each_delivery(st, bucket, [&](NeuronId target, SynWeight weight,
                                            NeuronId source) {
            b.deliveries.push_back({global_id(target), weight, source});
          });
        },
        net_->synapse_store());
  };
  for (std::size_t w = 0; w < ring_occupied_.size(); ++w) {
    std::uint64_t word = ring_occupied_[w];
    while (word != 0) {
      const std::size_t slot =
          (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
      word &= word - 1;
      // Slot residue → absolute time: ring events live in
      // (cursor_, cursor_ + W), so the offset from the slot after the
      // cursor is unique.
      const auto start = static_cast<std::size_t>((cursor_ + 1) & ring_mask_);
      const std::size_t offset =
          (slot - start) & static_cast<std::size_t>(ring_mask_);
      add(cursor_ + 1 + static_cast<Time>(offset), ring_[slot]);
    }
  }
  for (const auto& [t, bucket] : spill_) add(t, bucket);
}

void EventCore::restore_neuron(NeuronId id, const SnapshotNeuron& e) {
  NeuronRecord& rec = neurons_[id];
  touch_state(rec, id);
  rec.v = e.v;
  rec.last_update = e.last_update;
  rec.first_spike = e.first_spike;
  rec.last_spike = e.last_spike;
  rec.spike_count = e.spike_count;
  if (e.cause != kNoNeuron) {
    ensure_causes();
    cause_[id] = e.cause;
  }
}

}  // namespace sga::snn
