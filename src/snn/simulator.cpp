#include "snn/simulator.h"

#include <algorithm>
#include <bit>
#include <variant>

#include "obs/metrics.h"
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

/// Append [b, e) to `dst`, widening element-wise when the storage type is
/// narrower than the bucket's. Matching types keep the memcpy-grade range
/// insert of the wide layout.
template <typename T, typename U>
void append_widened(std::vector<T>& dst, const U* b, const U* e) {
  if constexpr (std::is_same_v<T, U>) {
    dst.insert(dst.end(), b, e);
  } else {
    dst.reserve(dst.size() + static_cast<std::size_t>(e - b));
    for (const U* p = b; p != e; ++p) dst.push_back(static_cast<T>(*p));
  }
}

}  // namespace

Simulator::Simulator(const CompiledNetwork& net, QueueKind queue,
                     FanoutKind fanout)
    : net_(&net), queue_kind_(queue), fanout_kind_(fanout) {
  init_state();
}

Simulator::Simulator(const Network& net, QueueKind queue, FanoutKind fanout)
    : owned_(std::make_unique<const CompiledNetwork>(net.compile())),
      net_(owned_.get()),
      queue_kind_(queue),
      fanout_kind_(fanout) {
  init_state();
}

void Simulator::init_state() {
  const std::size_t n = net_->num_neurons();
  neurons_.resize(n);
  for (NeuronId i = 0; i < n; ++i) {
    neurons_[i] = NeuronRecord::at_rest(net_->params(i));
  }
  is_terminal_.assign(n, 0);
  is_watched_.assign(n, 0);
  if (queue_kind_ == QueueKind::kCalendar) {
    const std::size_t w = ring_size_for(net_->max_delay());
    ring_.resize(w);
    ring_occupied_.assign(w / 64, 0);
    ring_mask_ = static_cast<Time>(w - 1);
    stats_.ring_buckets = static_cast<std::uint32_t>(w);
  }
  stats_.csr_bytes = net_->csr_storage_bytes();
  stats_.storage_encoding = encoding_code(net_->storage_widths());
}

void Simulator::ensure_causes() {
  if (cause_.empty()) {
    cause_.assign(neurons_.size(), kNoNeuron);
    accum_cause_.resize(neurons_.size());
  }
}

template <typename Store>
void Simulator::decode_row(const Store& st, std::size_t b, std::size_t e) {
  if (decode_scratch_.size() < e - b) decode_scratch_.resize(e - b);
  st.decode_range(b, e, decode_scratch_.data());
  stats_.decode_blocks += (e - 1) / kPackedBlockSize - b / kPackedBlockSize + 1;
}

template <typename Store>
void Simulator::fanout_segmented(const Store& st, NeuronId id, Time t) {
  // One queue lookup per delay run, then a bulk append of the run's
  // (target, weight) pairs; sources only when a cause is being recorded.
  if constexpr (Store::kPackedLayout) {
    // Block-decode path (ARCHITECTURE.md §1.11): the whole row's targets
    // are decoded ONCE into the persistent scratch buffer — lazily, so a
    // row entirely past the horizon decodes nothing — then each delay run
    // bulk-appends its slice exactly like the flat branch below. Weights
    // stay a flat column; delays come from the segment CSR, which is their
    // run-length encoding.
    const std::size_t rb = net_->out_begin(id);
    const auto* wgt = st.weights.data();
    const std::size_t se = net_->seg_end(id);
    bool decoded = false;
    for (std::size_t s = net_->seg_begin(id); s < se; ++s) {
      ++stats_.fanout_segments;
      const auto d = static_cast<Delay>(st.seg_delays[s]);
      if (d > max_time_ - t) {
        // Segment delays increase along the row, so every remaining run
        // is past the horizon too.
        stats_.hit_time_limit = true;
        break;
      }
      if (!decoded) {
        decode_row(st, rb, net_->out_end(id));
        decoded = true;
      }
      const auto b = static_cast<std::size_t>(st.seg_syn_begin[s]);
      const auto e = static_cast<std::size_t>(st.seg_syn_begin[s + 1]);
      Bucket& bucket = bucket_for(t + d, e - b);
      if (e - b == 1) {
        bucket.targets.push_back(decode_scratch_[b - rb]);
        bucket.weights.push_back(static_cast<SynWeight>(wgt[b]));
        if (record_causes_) bucket.sources.push_back(id);
      } else {
        bucket.targets.insert(bucket.targets.end(),
                              decode_scratch_.data() + (b - rb),
                              decode_scratch_.data() + (e - rb));
        append_widened(bucket.weights, wgt + b, wgt + e);
        if (record_causes_) {
          bucket.sources.insert(bucket.sources.end(), e - b, id);
        }
      }
      ++stats_.bulk_appends;
    }
    return;
  } else {
    const auto* tgt = st.targets.data();
    const auto* wgt = st.weights.data();
    const std::size_t se = net_->seg_end(id);
    for (std::size_t s = net_->seg_begin(id); s < se; ++s) {
      ++stats_.fanout_segments;
      const auto d = static_cast<Delay>(st.seg_delays[s]);
      if (d > max_time_ - t) {
        // Segment delays increase along the row, so every remaining run is
        // past the horizon too.
        stats_.hit_time_limit = true;
        break;
      }
      const auto b = static_cast<std::size_t>(st.seg_syn_begin[s]);
      const auto e = static_cast<std::size_t>(st.seg_syn_end[s]);
      Bucket& bucket = bucket_for(t + d, e - b);
      if (e - b == 1) {
        // Singleton run (every delay in the row distinct): push_back beats
        // the range-insert machinery, and rows like this are common in
        // SSSP instances with wide length ranges.
        bucket.targets.push_back(static_cast<NeuronId>(tgt[b]));
        bucket.weights.push_back(static_cast<SynWeight>(wgt[b]));
        if (record_causes_) bucket.sources.push_back(id);
      } else {
        append_widened(bucket.targets, tgt + b, tgt + e);
        append_widened(bucket.weights, wgt + b, wgt + e);
        if (record_causes_) {
          bucket.sources.insert(bucket.sources.end(), e - b, id);
        }
      }
      ++stats_.bulk_appends;
    }
  }
}

template <typename Store>
void Simulator::fanout_per_synapse(const Store& st, NeuronId id, Time t) {
  // Legacy per-synapse kernel (bench ablation + fuzzing oracle).
  if constexpr (Store::kPackedLayout) {
    // Per-synapse oracle over the packed layout: one whole-row decode,
    // then single-element appends in flat order with the delay taken from
    // the enclosing run — event-for-event identical to the flat oracle,
    // including its per-synapse horizon `continue`.
    const std::size_t rb = net_->out_begin(id);
    if (net_->out_end(id) == rb) return;
    decode_row(st, rb, net_->out_end(id));
    const auto* wgt = st.weights.data();
    const std::size_t se = net_->seg_end(id);
    for (std::size_t s = net_->seg_begin(id); s < se; ++s) {
      const auto d = static_cast<Delay>(st.seg_delays[s]);
      const auto e = static_cast<std::size_t>(st.seg_syn_begin[s + 1]);
      if (d > max_time_ - t) {
        stats_.hit_time_limit = true;
        continue;
      }
      for (auto k = static_cast<std::size_t>(st.seg_syn_begin[s]); k < e;
           ++k) {
        Bucket& bucket = bucket_for(t + d, 1);
        bucket.targets.push_back(decode_scratch_[k - rb]);
        bucket.weights.push_back(static_cast<SynWeight>(wgt[k]));
        if (record_causes_) bucket.sources.push_back(id);
      }
    }
    return;
  } else {
    const std::size_t ke = net_->out_end(id);
    for (std::size_t k = net_->out_begin(id); k < ke; ++k) {
      const auto d = static_cast<Delay>(st.delays[k]);
      if (d > max_time_ - t) {
        stats_.hit_time_limit = true;
        continue;
      }
      Bucket& bucket = bucket_for(t + d, 1);
      bucket.targets.push_back(static_cast<NeuronId>(st.targets[k]));
      bucket.weights.push_back(static_cast<SynWeight>(st.weights[k]));
      if (record_causes_) bucket.sources.push_back(id);
    }
  }
}

void Simulator::attach_probe(obs::Probe& probe) {
  probe.bind(net_->num_neurons());
  probe_ = &probe;
}

void Simulator::inject_spike(NeuronId id, Time t) {
  SGA_REQUIRE(id < net_->num_neurons(), "inject_spike: bad neuron " << id);
  SGA_REQUIRE(t >= 0, "inject_spike: negative time " << t);
  SGA_REQUIRE(t <= kNever, "inject_spike: time " << t << " beyond kNever");
  SGA_REQUIRE(!ran_ || paused_,
              "inject_spike after run() (call reset() first, or pause the "
              "run to inject mid-flight)");
  // Mid-run injection (paused only): everything below the resume floor has
  // already been processed — an earlier event would land behind the queue
  // cursor and silently never fire, so refuse it.
  SGA_REQUIRE(!paused_ || t >= pause_floor_,
              "inject_spike at t=" << t << " into a paused run whose resume "
                                   << "floor is " << pause_floor_);
  bucket_for(t, 1).forced.push_back(id);
}

Simulator::Bucket& Simulator::bucket_for(Time t, std::uint64_t count) {
  pending_events_ += count;
  if (pending_events_ > stats_.peak_queue_events) {
    stats_.peak_queue_events = pending_events_;
  }
  if (queue_kind_ == QueueKind::kCalendar) {
    // Strict upper bound: a slot equal to the one currently being drained
    // (t ≡ cursor_ mod W would need t = cursor_ + W) can never be hit, so
    // draining a bucket in place is safe.
    if (t - cursor_ < static_cast<Time>(ring_.size())) {
      const auto slot = static_cast<std::size_t>(t & ring_mask_);
      std::uint64_t& word = ring_occupied_[slot >> 6];
      const std::uint64_t bit = 1ULL << (slot & 63);
      if ((word & bit) == 0) {
        // First event in this slot since it was last drained: hand it
        // pooled storage (drained buckets donate theirs, so only a
        // cold-start activation allocates).
        word |= bit;
        activate(ring_[slot]);
      }
      ring_events_ += count;
      return ring_[slot];
    }
    stats_.overflow_spills += count;
  }
  const auto [it, inserted] = spill_.try_emplace(t);
  if (inserted) activate(it->second);
  return it->second;
}

void Simulator::migrate_spill() {
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
      // spill node's storage to the pool instead of freeing it.
      Bucket& src = it->second;
      dst.targets.insert(dst.targets.end(), src.targets.begin(),
                         src.targets.end());
      dst.weights.insert(dst.weights.end(), src.weights.begin(),
                         src.weights.end());
      dst.sources.insert(dst.sources.end(), src.sources.begin(),
                         src.sources.end());
      dst.forced.insert(dst.forced.end(), src.forced.begin(),
                        src.forced.end());
      recycle(src);
    }
    spill_.erase(it);
  }
}

bool Simulator::next_pending_time(Time* t) {
  if (queue_kind_ == QueueKind::kMap) {
    if (spill_.empty()) return false;
    *t = spill_.begin()->first;
    return true;
  }
  migrate_spill();
  if (ring_events_ == 0) {
    if (spill_.empty()) return false;
    cursor_ = spill_.begin()->first - 1;  // slide the window to the next event
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
  const std::size_t offset = (slot - start) & static_cast<std::size_t>(ring_mask_);
  stats_.empty_bucket_scans += offset;
  *t = cursor_ + 1 + static_cast<Time>(offset);
  return true;
}

Voltage Simulator::decayed_potential(const NeuronRecord& rec, NeuronId id,
                                     Time t) const {
  const Time dt = t - rec.last_update;
  SGA_CHECK(dt >= 0, "time went backwards for neuron " << id);
  return rec.decayed(dt, [&] { return net_->tau(id); });
}

template <typename Store>
void Simulator::fire(const Store& st, NeuronRecord& rec, NeuronId id,
                     Time t) {
  const bool first_fire = rec.first_spike == kNever;
  touch_state(rec, id);
  rec.v = rec.v_reset;  // Eq. (3)
  rec.last_update = t;
  ++rec.spike_count;
  ++stats_.spikes;
  if (first_fire) rec.first_spike = t;
  rec.last_spike = t;
  if (probe_ != nullptr) probe_->on_spike(t, id);
  if (record_log_ && (watch_all_ || is_watched_[id])) {
    spike_log_.emplace_back(t, id);
  }
  if (is_terminal_[id] && !terminal_fired_ && first_fire) {
    --terminals_remaining_;
    if (terminals_remaining_ == 0) {
      terminal_fired_ = true;
      stats_.hit_terminal = true;
      stats_.execution_time = t;
    }
  }
  // CSR fan-out: the fired neuron's synapses are one contiguous, delay-
  // sorted slice of the flat delay/target/weight arrays. The horizon check
  // inside the kernels is in subtraction form: t ≤ max_time_ always holds
  // here, so max_time_ - t cannot overflow, while t + delay could (kNever
  // horizon × pseudopolynomial delay). Dropping work past the horizon
  // reports hit_time_limit, consistently with the pop-side check that
  // catches post-horizon injected spikes.
  if (fanout_kind_ == FanoutKind::kSegmented) {
    fanout_segmented(st, id, t);
  } else {
    fanout_per_synapse(st, id, t);
  }
}

SimStats Simulator::run(const SimConfig& config) {
  SGA_REQUIRE(!ran_ || paused_,
              "Simulator::run is one-shot (call reset() to reuse, or pause "
              "via SimConfig::pause_time to resume later)");
  // Per-run metrics go to the CURRENT THREAD's registry (nullptr = off,
  // the default); multi-threaded drivers install one registry per worker
  // and merge after join, so this line never contends.
  obs::ScopedTimer run_timer(obs::thread_metrics(), "sim.run_ns");
  const bool resuming = ran_;
  // Metrics report per-call deltas: a paused-and-resumed run must not
  // double-count the pre-pause portion of the cumulative stats.
  const std::uint64_t spikes0 = stats_.spikes;
  const std::uint64_t deliveries0 = stats_.deliveries;
  const std::uint64_t event_times0 = stats_.event_times;
  const std::uint64_t spills0 = stats_.overflow_spills;
  ran_ = true;
  if (resuming) {
    // Resume continues the SAME logical run: the recording flags and the
    // horizon shape the event stream itself, so they cannot change
    // mid-flight (deliveries enqueued before the pause already reflect
    // them). The pause point may move; everything else must match.
    SGA_REQUIRE(config.record_causes == record_causes_ &&
                    config.record_spike_log == record_log_,
                "resume: record_causes/record_spike_log must match the "
                "paused run");
    SGA_REQUIRE(config.max_time == max_time_,
                "resume: max_time must match the paused run ("
                    << max_time_ << ")");
  } else {
    record_causes_ = config.record_causes;
    record_log_ = config.record_spike_log;
    max_time_ = config.max_time;
  }
  if (record_causes_) ensure_causes();
  pause_time_ = config.pause_time;
  paused_ = false;
  stats_.paused = false;
  std::uint64_t distinct_terminals = 0;
  for (const NeuronId t : config.terminal_neurons) {
    SGA_REQUIRE(t < net_->num_neurons(), "bad terminal neuron " << t);
    if (!is_terminal_[t]) {
      is_terminal_[t] = 1;
      active_terminals_.push_back(t);
      ++distinct_terminals;
    }
  }
  if (!resuming) {
    terminals_remaining_ = config.terminate_on_all
                               ? distinct_terminals
                               : std::min<std::uint64_t>(1, distinct_terminals);
  } else if (distinct_terminals > 0) {
    // A resume may add terminals; ones already registered before the pause
    // were counted then (registration is idempotent, so only genuinely new
    // ids reach this adjustment).
    terminals_remaining_ +=
        config.terminate_on_all
            ? distinct_terminals
            : ((terminals_remaining_ == 0 && !terminal_fired_) ? 1 : 0);
  }
  if (!resuming) watch_all_ = config.watched_neurons.empty();
  for (const NeuronId w : config.watched_neurons) {
    SGA_REQUIRE(w < net_->num_neurons(), "bad watched neuron " << w);
    if (!is_watched_[w]) {
      is_watched_[w] = 1;
      active_watched_.push_back(w);
    }
  }

  // Resolve the storage layout ONCE per run: the drain below is the fully
  // typed event loop for the frozen store.
  std::visit([this](const auto& st) { drain(st); }, net_->synapse_store());

  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("sim.runs");
    m->add("sim.spikes", stats_.spikes - spikes0);
    m->add("sim.deliveries", stats_.deliveries - deliveries0);
    m->add("sim.event_times", stats_.event_times - event_times0);
    m->add("sim.overflow_spills", stats_.overflow_spills - spills0);
    m->gauge("sim.csr_bytes", static_cast<double>(stats_.csr_bytes));
    m->gauge("sim.storage_encoding",
             static_cast<double>(stats_.storage_encoding));
  }
  return stats_;
}

template <typename Store>
void Simulator::drain(const Store& st) {
  std::vector<NeuronId>& targets = targets_scratch_;  // deduplicated, per step
  NeuronRecord* const recs = neurons_.data();
  // Fixed for the whole run; held in locals so the byte-sized record
  // stores below (which may alias any member) do not force reloads.
  const bool causes = record_causes_;
  while (true) {
    Time t = 0;
    if (!next_pending_time(&t)) break;
    if (t > max_time_) {
      stats_.hit_time_limit = true;
      break;
    }
    if (t > pause_time_) {
      // Cooperative pause BETWEEN steps: unlike the horizon break above,
      // the bucket at t (and everything after it) stays queued — nothing
      // is dropped, so a later run() call or a restore-elsewhere continues
      // event-for-event exactly.
      paused_ = true;
      stats_.paused = true;
      pause_floor_ = t;
      break;
    }
    // Drain the bucket in place: with delay ≥ 1 and the ring's strict
    // window bound, nothing scheduled during fire() can land back in the
    // bucket being iterated (map nodes are reference-stable anyway).
    Bucket* bucket = nullptr;
    auto map_it = spill_.end();
    if (queue_kind_ == QueueKind::kCalendar) {
      cursor_ = t;
      bucket = &ring_[static_cast<std::size_t>(t & ring_mask_)];
      ring_events_ -= bucket->size();
    } else {
      map_it = spill_.begin();
      bucket = &map_it->second;
    }
    pending_events_ -= bucket->size();
    if (bucket->size() > stats_.max_bucket_occupancy) {
      stats_.max_bucket_occupancy = bucket->size();
    }
    ++stats_.event_times;
    stats_.end_time = t;

    // Probe hook, OUTSIDE the accumulation loop below: the per-delivery
    // iteration is duplicated only when a probe is counting, so the
    // uninstrumented hot loop stays untouched (overhead contract).
    if (probe_ != nullptr && probe_->counts_deliveries()) {
      for (const NeuronId target : bucket->targets) {
        probe_->on_delivery(target);
      }
    }

    targets.clear();
    const std::size_t nd = bucket->targets.size();
    const NeuronId* const tgt = bucket->targets.data();
    const SynWeight* const wgt = bucket->weights.data();
    const NeuronId* const src = bucket->sources.data();
    stats_.deliveries += nd;
    for (std::size_t i = 0; i < nd; ++i) {
      const NeuronId target = tgt[i];
      const SynWeight weight = wgt[i];
      NeuronRecord& rec = recs[target];
      if (!rec.touched) {
        rec.touched = 1;
        targets.push_back(target);
        rec.accum = 0;
        if (causes) accum_cause_[target] = CauseScratch{};
      }
      rec.accum += weight;
      if (causes) {
        // Deterministic selection: largest weight, ties broken by smallest
        // source id. Independent of delivery order, so every engine
        // (serial, map-queue, sharded-parallel) reports the same cause.
        // sources is populated exactly when record_causes_ is set.
        const NeuronId source = src[i];
        CauseScratch& best = accum_cause_[target];
        if (weight > best.weight ||
            (best.source != kNoNeuron && weight == best.weight &&
             source < best.source)) {
          best.source = source;
          best.weight = weight;
        }
      }
    }

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
        probe_->on_potential(t, id, recs[id].v);
      }
    }

    // Release the drained bucket: its storage (capacity intact) goes to the
    // pool for the next activation, keeping the steady state allocation-free.
    recycle(*bucket);
    if (queue_kind_ == QueueKind::kCalendar) {
      const auto slot = static_cast<std::size_t>(t & ring_mask_);
      ring_occupied_[slot >> 6] &= ~(1ULL << (slot & 63));
    } else {
      spill_.erase(map_it);
    }

    if (terminal_fired_) break;
  }
}

void Simulator::reset() {
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
  watch_all_ = false;
  // Queue: drained buckets already donated their storage; sweep the
  // occupancy bitmap only when a terminal/horizon stop left events behind,
  // recycling the leftovers so the pool survives reset() intact.
  if (ring_events_ > 0) {
    for (std::size_t w = 0; w < ring_occupied_.size(); ++w) {
      std::uint64_t word = ring_occupied_[w];
      while (word != 0) {
        const auto slot = (w << 6) + static_cast<std::size_t>(
                                         std::countr_zero(word));
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
  stats_ = SimStats{};
  stats_.ring_buckets = queue_kind_ == QueueKind::kCalendar
                            ? static_cast<std::uint32_t>(ring_.size())
                            : 0;
  stats_.csr_bytes = net_->csr_storage_bytes();
  stats_.storage_encoding = encoding_code(net_->storage_widths());
  record_causes_ = false;
  record_log_ = false;
  max_time_ = kNever;
  terminals_remaining_ = 0;
  terminal_fired_ = false;
  paused_ = false;
  pause_time_ = kNever;
  pause_floor_ = 0;
  ran_ = false;
}

std::vector<std::uint8_t> Simulator::snapshot() const {
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

void Simulator::build_image(SnapshotImage* img) const {
  img->num_neurons = net_->num_neurons();
  img->num_synapses = net_->num_synapses();
  img->max_delay = net_->max_delay();
  img->widths = net_->storage_widths();
  img->mid_run = ran_;
  img->record_causes = record_causes_;
  img->record_log = record_log_;
  img->watch_all = watch_all_;
  img->terminal_fired = terminal_fired_;
  img->max_time = max_time_;
  img->resume_floor =
      paused_ ? pause_floor_ : (ran_ ? stats_.end_time + 1 : 0);
  img->terminals_remaining = terminals_remaining_;
  img->terminals = active_terminals_;
  std::sort(img->terminals.begin(), img->terminals.end());
  img->watched = active_watched_;
  std::sort(img->watched.begin(), img->watched.end());

  // Per-neuron state, sparse: exactly the entries reset() would rewind.
  std::vector<NeuronId> ids = dirty_;
  std::sort(ids.begin(), ids.end());
  img->neurons.reserve(ids.size());
  for (const NeuronId id : ids) {
    const NeuronRecord& rec = neurons_[id];
    SnapshotNeuron e;
    e.id = id;
    e.v = rec.v;
    e.last_update = rec.last_update;
    e.first_spike = rec.first_spike;
    e.last_spike = rec.last_spike;
    e.spike_count = rec.spike_count;
    e.cause = cause_.empty() ? kNoNeuron : cause_[id];
    img->neurons.push_back(e);
  }

  // Pending events, ascending by time, VERBATIM in-bucket order (delivery
  // order is observable through FP summation and serial log order, so a
  // same-engine restore must reproduce it exactly).
  std::map<Time, const Bucket*> pending;
  if (queue_kind_ == QueueKind::kCalendar) {
    for (std::size_t w = 0; w < ring_occupied_.size(); ++w) {
      std::uint64_t word = ring_occupied_[w];
      while (word != 0) {
        const std::size_t slot =
            (w << 6) + static_cast<std::size_t>(std::countr_zero(word));
        word &= word - 1;
        // Slot residue → absolute time: ring events live in
        // (cursor_, cursor_ + W), so the offset from the slot after the
        // cursor is unique.
        const std::size_t start =
            static_cast<std::size_t>((cursor_ + 1) & ring_mask_);
        const std::size_t offset =
            (slot - start) & static_cast<std::size_t>(ring_mask_);
        pending.emplace(cursor_ + 1 + static_cast<Time>(offset), &ring_[slot]);
      }
    }
  }
  for (const auto& [t, bucket] : spill_) pending.emplace(t, &bucket);
  img->queue.reserve(pending.size());
  for (const auto& [t, bucket] : pending) {
    SnapshotBucket b;
    b.time = t;
    b.forced = bucket->forced;
    b.deliveries.resize(bucket->targets.size());
    for (std::size_t i = 0; i < bucket->targets.size(); ++i) {
      b.deliveries[i].target = bucket->targets[i];
      b.deliveries[i].weight = bucket->weights[i];
      if (record_causes_) b.deliveries[i].source = bucket->sources[i];
    }
    img->queue.push_back(std::move(b));
  }

  img->log = spike_log_;
  img->stats = stats_;
}

void Simulator::restore(const std::uint8_t* data, std::size_t size) {
  obs::ScopedTimer timer(obs::thread_metrics(), "snap.restore_ns");
  // ALL-OR-NOTHING: parse (structure, CRC) then validate (fingerprint,
  // every id and time) BEFORE the first mutation — a SnapshotError from
  // either leaves this simulator exactly as it was.
  const SnapshotImage img = parse_snapshot(data, size);
  validate_snapshot_for(img, *net_);
  apply_image(img);
  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("snap.restores");
  }
}

void Simulator::apply_image(const SnapshotImage& img) {
  reset();
  record_causes_ = img.record_causes;
  record_log_ = img.record_log;
  watch_all_ = img.watch_all;
  max_time_ = img.max_time;
  for (const NeuronId t : img.terminals) {
    is_terminal_[t] = 1;
    active_terminals_.push_back(t);
  }
  for (const NeuronId w : img.watched) {
    is_watched_[w] = 1;
    active_watched_.push_back(w);
  }
  terminals_remaining_ = img.terminals_remaining;
  terminal_fired_ = img.terminal_fired;

  // Re-enqueue pending events through the normal queue path (so ring vs
  // spill placement follows THIS engine's geometry), then overwrite the
  // counters it perturbed with the image's cumulative values below.
  for (const SnapshotBucket& b : img.queue) {
    Bucket& bk = bucket_for(b.time, b.forced.size() + b.deliveries.size());
    bk.forced.insert(bk.forced.end(), b.forced.begin(), b.forced.end());
    for (const SnapshotDelivery& d : b.deliveries) {
      bk.targets.push_back(d.target);
      bk.weights.push_back(d.weight);
      if (record_causes_) bk.sources.push_back(d.source);
    }
  }

  for (const SnapshotNeuron& e : img.neurons) {
    NeuronRecord& rec = neurons_[e.id];
    touch_state(rec, e.id);
    rec.v = e.v;
    rec.last_update = e.last_update;
    rec.first_spike = e.first_spike;
    rec.last_spike = e.last_spike;
    rec.spike_count = e.spike_count;
    if (e.cause != kNoNeuron) {
      ensure_causes();
      cause_[e.id] = e.cause;
    }
  }

  spike_log_ = img.log;
  stats_ = img.stats;
  // Engine-specific fields reflect the LIVE engine, not the source's.
  stats_.ring_buckets = queue_kind_ == QueueKind::kCalendar
                            ? static_cast<std::uint32_t>(ring_.size())
                            : 0;
  stats_.csr_bytes = net_->csr_storage_bytes();
  stats_.storage_encoding = encoding_code(net_->storage_widths());
  ran_ = img.mid_run;
  paused_ = img.mid_run && img.stats.paused;
  pause_floor_ = img.resume_floor;
  pause_time_ = kNever;
}

Time Simulator::first_spike(NeuronId id) const {
  SGA_REQUIRE(id < neurons_.size(), "first_spike: bad neuron " << id);
  return neurons_[id].first_spike;
}

std::vector<Time> Simulator::first_spikes() const {
  std::vector<Time> out(neurons_.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = neurons_[i].first_spike;
  }
  return out;
}

Time Simulator::last_spike(NeuronId id) const {
  SGA_REQUIRE(id < neurons_.size(), "last_spike: bad neuron " << id);
  return neurons_[id].last_spike;
}

bool Simulator::fired_in(NeuronId id, Time t0, Time t1) const {
  SGA_REQUIRE(id < neurons_.size(), "fired_in: bad neuron " << id);
  SGA_REQUIRE(t0 <= t1, "fired_in: empty window [" << t0 << ", " << t1 << "]");
  const Time f = neurons_[id].first_spike;
  if (f == kNever || f > t1) return false;
  if (f >= t0) return true;
  const Time l = neurons_[id].last_spike;
  if (l < t0) return false;
  if (l <= t1) return true;
  // The neuron fired both before t0 and after t1; only the spike log can
  // tell whether it also fired inside the window.
  SGA_REQUIRE(logged(id),
              "fired_in: neuron " << id << " fired before t0=" << t0
                                  << " and after t1=" << t1
                                  << "; deciding the window needs "
                                     "record_spike_log with this neuron "
                                     "watched");
  // The log is time-ordered, so both window edges resolve by binary search;
  // only entries strictly inside [t0, t1] are scanned.
  const auto lo = std::lower_bound(
      spike_log_.begin(), spike_log_.end(), t0,
      [](const std::pair<Time, NeuronId>& e, Time t) { return e.first < t; });
  const auto hi = std::upper_bound(
      lo, spike_log_.end(), t1,
      [](Time t, const std::pair<Time, NeuronId>& e) { return t < e.first; });
  for (auto i = lo; i != hi; ++i) {
    if (i->second == id) return true;
  }
  return false;
}

std::uint32_t Simulator::spike_count(NeuronId id) const {
  SGA_REQUIRE(id < neurons_.size(), "spike_count: bad neuron " << id);
  return neurons_[id].spike_count;
}

NeuronId Simulator::first_spike_cause(NeuronId id) const {
  SGA_REQUIRE(id < neurons_.size(), "first_spike_cause: bad neuron " << id);
  return cause_.empty() ? kNoNeuron : cause_[id];
}

Voltage Simulator::potential(NeuronId id) const {
  SGA_REQUIRE(id < neurons_.size(), "potential: bad neuron " << id);
  return neurons_[id].v;
}

}  // namespace sga::snn
