// The one event core both engines run (ARCHITECTURE.md §1.5, §1.12).
//
// EventCore is the discrete-time event loop over one frozen store: the
// calendar ring and its sorted spill, the pooled delivery buckets (runs
// that reference the store's delay segments, or raw copies) with their
// high-watermark trim, one 64-byte NeuronRecord per neuron with 16-bit
// reset stamps, and drain<Store> with fire() and the segmented fan-out
// kernel, instantiated once per storage layout. snn::Simulator
// runs one core over the whole network. Each shard of
// snn::ParallelSimulator runs one over its shard-local store
// (CompiledNetwork::shard_split), so both engines execute the same
// per-step code.
//
// What a shard needs is a property of the core, not a second loop:
//   * run_until(bound) processes the events strictly before `bound`, and
//     the cursor never jumps to or past it: mail may still arrive at any
//     time >= bound (the serial engine passes kNoBound);
//   * a core built with global ids reports cause sources, spike-log
//     entries and probe hooks in global ids, so the cause tie-break
//     compares global ids in both engines;
//   * terminal first-fires are counted, and a core resolves them itself
//     only while it owns a terminal count (RunState::terminals_remaining
//     > 0). A shard's core never does; the coordinator resolves the
//     summed count at the barrier;
//   * a Remote, when set, receives every fire after the local fan-out —
//     the sharded engine's cross-shard channel.
#pragma once

#include <cstdint>
#include <limits>
#include <map>
#include <utility>
#include <vector>

#include "core/types.h"
#include "snn/compiled_network.h"
#include "snn/neuron_record.h"

namespace sga::obs {
class Probe;
}  // namespace sga::obs

namespace sga::snn {

struct SnapshotNeuron;  // snn/snapshot.h
struct SnapshotBucket;

struct SimStats {
  std::uint64_t spikes = 0;            ///< total spike events
  std::uint64_t deliveries = 0;        ///< synaptic deliveries processed
  std::uint64_t event_times = 0;       ///< distinct time steps touched
  Time end_time = 0;                   ///< last processed time step
  bool hit_terminal = false;           ///< stopped because a terminal fired
  bool hit_time_limit = false;         ///< work was left beyond max_time
  bool paused = false;                 ///< stopped at config.pause_time; the
                                       ///< run is resumable (nothing dropped)
  /// Execution time T per Definition 3 (first terminal spike), kNever if no
  /// terminal fired.
  Time execution_time = kNever;

  // ---- Queue-level counters (surfaced by bench_simulator) --------------
  /// Maximum number of pending events at any moment (a property of the
  /// event stream, not of the queue that holds it).
  std::uint64_t peak_queue_events = 0;
  /// Largest single-time-step bucket drained.
  std::uint64_t max_bucket_occupancy = 0;
  /// Events that missed the calendar ring's window and went to the sorted
  /// overflow spill.
  std::uint64_t overflow_spills = 0;
  /// Empty ring slots skipped while seeking the next event time (measures
  /// how sparse the workload is relative to the window).
  std::uint64_t empty_bucket_scans = 0;
  /// Calendar ring size in buckets.
  std::uint32_t ring_buckets = 0;

  // ---- Fan-out kernel counters (ARCHITECTURE.md §1.6) ------------------
  /// Delay segments walked by the fan-out kernel. Engine-specific, like the
  /// queue counters: the sharded engine walks intra and cross runs
  /// separately.
  std::uint64_t fanout_segments = 0;
  /// Bulk delivery appends issued (fanout_segments minus horizon-dropped
  /// runs).
  std::uint64_t bulk_appends = 0;
  /// Bucket activations whose delivery storage came from the drained-bucket
  /// pool (hit) vs. had to start from an empty vector (miss). After the
  /// first reset(), a steady-state rerun of the same workload reports
  /// pool_misses == 0 — the allocation-free contract.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Always 0: the retired packed encoding counted its block decodes here.
  /// Kept because benchmark records still carry the field.
  std::uint64_t decode_blocks = 0;

  // ---- Memory footprint (ARCHITECTURE.md §1.8) -------------------------
  /// Resident bytes of the frozen CSR backing this run (row pointers +
  /// segment CSR + the width-narrowed synapse payload). A property of the
  /// CompiledNetwork, surfaced here so the bench trajectory tracks memory
  /// alongside wall clock; a sharded run reports its shard-local stores
  /// plus the cross CSR (ShardSplit::storage_bytes).
  std::uint64_t csr_bytes = 0;
  /// Which encoding backs this run: 0 = wide, 1 = narrow
  /// (snn::encoding_code; 2, packed, is retired). Lets the trajectory
  /// distinguish narrow from wide artifacts without re-deriving it from
  /// the widths.
  std::uint8_t storage_encoding = 0;
};

class EventCore {
 public:
  /// A run_until() bound that never binds (the serial engine's).
  static constexpr Time kNoBound = std::numeric_limits<Time>::max();

  /// A run-stream entry that opens a raw run; the entry after it is the
  /// run's length. Never a segment id (see init()).
  static constexpr std::uint32_t kRawRun = 0xFFFFFFFF;

  /// One time step's pending work: a stream of delivery runs in append
  /// order, of two kinds (ARCHITECTURE.md §1.6):
  ///   * a REFERENCE — one delay-segment id of this core's flat store; the
  ///     run's deliveries are that segment's targets and weights, read from
  ///     the frozen store when the bucket drains. The flat fan-out writes
  ///     only these;
  ///   * a RAW run — kRawRun, its length, and that many (target, weight)
  ///     copies in targets/weights: cross-shard mail and restored images.
  /// The drain walks the stream in order, so deliveries sum in append
  /// order whatever mix of kinds a bucket holds.
  struct Bucket {
    // The fan-out's per-run writes (events, runs, sources) share the
    // object's first cache line.
    std::uint64_t events = 0;  ///< deliveries + forced (bucket_for)
    std::vector<std::uint32_t> runs;
    /// Iff record_causes: the global firing id of each reference and of
    /// each raw delivery, in run order.
    std::vector<NeuronId> sources;
    std::vector<NeuronId> targets;  ///< raw deliveries, in run order
    std::vector<SynWeight> weights;
    std::vector<NeuronId> forced;   ///< injected spikes

    bool empty() const { return events == 0; }
    std::size_t size() const { return static_cast<std::size_t>(events); }
    /// Start a raw run of `n` deliveries, or extend the stream's last run
    /// when it is raw; the caller appends the `n` targets and weights (and
    /// sources).
    void open_raw(std::size_t n) {
      const std::size_t k = runs.size();
      // A length entry never equals kRawRun, so the entry before the last
      // is kRawRun exactly when the last run is raw.
      if (k >= 2 && runs[k - 2] == kRawRun && n < kRawRun - runs[k - 1]) {
        runs[k - 1] += static_cast<std::uint32_t>(n);
      } else {
        runs.push_back(kRawRun);
        runs.push_back(static_cast<std::uint32_t>(n));
      }
    }
    void clear() {  // keeps capacity — cleared buckets are pooled
      runs.clear();
      targets.clear();
      weights.clear();
      sources.clear();
      forced.clear();
      events = 0;
    }
  };

  /// The cross-shard half of a fire. fan_out() runs after the local
  /// fan-out with the firing neuron's LOCAL id; `stats` is the firing
  /// core's, for the fan-out counters and the horizon flag.
  class Remote {
   public:
    virtual void fan_out(NeuronId local, Time t, SimStats& stats) = 0;

   protected:
    ~Remote() = default;
  };

  /// Per-run settings plus the serial engine's terminal and pause state.
  /// The owning engine sets them before run_until(); run_until() writes
  /// back terminal_fired and the pause fields.
  struct RunState {
    bool record_causes = false;
    bool record_log = false;
    bool watch_all = false;
    Time max_time = kNever;
    /// Cooperative pause point (SimConfig::pause_time).
    Time pause_time = kNever;
    bool paused = false;
    Time pause_floor = 0;  ///< next pending time at the pause
    /// Terminal first-fires still needed to stop; 0 = this core does not
    /// resolve terminals (no terminals, or a shard's core).
    std::uint64_t terminals_remaining = 0;
    bool terminal_fired = false;
  };

  /// A core over the whole of `net` (the serial engine). BORROWS `net`.
  explicit EventCore(const CompiledNetwork& net);
  /// A shard's core over its shard-local store `local` (BORROWED, as is
  /// `global_ids`, local → global). The ring is sized for `max_delay`, the
  /// whole network's, since mail arrives with cross-shard delays; `remote`
  /// receives each fire's cross half. Shard cores record the times they
  /// process (steps()).
  EventCore(const CompiledNetwork& local, const NeuronId* global_ids,
            Delay max_delay, Remote* remote);

  const CompiledNetwork& network() const { return *net_; }

  RunState& state() { return run_; }
  const RunState& state() const { return run_; }
  SimStats& stats() { return stats_; }
  const SimStats& stats() const { return stats_; }
  /// Replace the counters with `s` (a snapshot's), keeping the fields that
  /// describe this engine (ring size, CSR bytes, encoding).
  void adopt_stats(const SimStats& s);

  /// Register `id` as a terminal / watched neuron for this run; returns
  /// true when it was not registered yet.
  bool mark_terminal(NeuronId id);
  void mark_watched(NeuronId id);
  const std::vector<NeuronId>& terminals() const { return active_terminals_; }
  const std::vector<NeuronId>& watched() const { return active_watched_; }

  /// Queue an injected spike of `id` at `t` (callers validate).
  void inject(NeuronId id, Time t) { bucket_for(t, 1).forced.push_back(id); }
  /// The bucket of time `t`, about to receive `count` events (bulk appends
  /// update the occupancy stats once per run, not per synapse). Raw
  /// appends go through Bucket::open_raw. The ring append is inline (one
  /// per fan-out run); a time past the ring's window takes spill_bucket.
  Bucket& bucket_for(Time t, std::uint64_t count) {
    pending_events_ += count;
    if (pending_events_ > stats_.peak_queue_events) {
      stats_.peak_queue_events = pending_events_;
    }
    // Strict upper bound: a slot equal to the one currently being drained
    // (t ≡ cursor_ mod W would need t = cursor_ + W) can never be hit, so
    // draining a bucket in place is safe.
    if (t - cursor_ >= static_cast<Time>(ring_.size())) {
      return spill_bucket(t, count);
    }
    const auto slot = static_cast<std::size_t>(t & ring_mask_);
    std::uint64_t& word = ring_occupied_[slot >> 6];
    const std::uint64_t bit = 1ULL << (slot & 63);
    if ((word & bit) == 0) {
      // First event in this slot since it was last drained: hand it pooled
      // storage (drained buckets donate theirs, so only a cold-start
      // activation allocates).
      word |= bit;
      activate(ring_[slot]);
    }
    ring_events_ += count;
    ring_[slot].events += count;
    return ring_[slot];
  }
  /// Process every pending event before `bound` in time order, through
  /// the drain loop instantiated for this core's store.
  void run_until(Time bound);
  /// Earliest pending event time into *t; false when the queue is empty.
  /// Never moves the cursor to or past `bound` (see the file comment).
  bool next_pending_time(Time* t, Time bound);
  /// Rewind to the just-constructed state in O(events processed), trimming
  /// the bucket pool to the larger of the last two runs' peaks.
  void reset();

  // ---- State readout (local ids) ---------------------------------------
  const NeuronRecord& record(NeuronId id) const { return neurons_[id]; }
  std::size_t num_neurons() const { return neurons_.size(); }
  /// First-spike cause (a global id), kNoNeuron when none was recorded.
  NeuronId cause(NeuronId id) const {
    return cause_.empty() ? kNoNeuron : cause_[id];
  }
  /// Spike log in processing order, global ids.
  const std::vector<std::pair<Time, NeuronId>>& spike_log() const {
    return spike_log_;
  }
  std::vector<std::pair<Time, NeuronId>>& spike_log() { return spike_log_; }
  bool logged(NeuronId id) const {
    return run_.record_log && (run_.watch_all || is_watched_[id]);
  }
  std::size_t pool_resident_buckets() const { return pool_.size(); }
  std::uint64_t pending_events() const { return pending_events_; }

  void set_probe(obs::Probe* probe) { probe_ = probe; }
  obs::Probe* probe() const { return probe_; }

  // ---- Shard support ----------------------------------------------------
  /// Terminal first-fires since the last call (the barrier's input).
  std::uint64_t take_terminal_fires() {
    return std::exchange(terminal_fires_, 0);
  }
  /// Times processed since the owner last cleared the list (shard cores).
  std::vector<Time>& steps() { return steps_; }

  // ---- Snapshot support (snn/snapshot.h) --------------------------------
  /// Append the dirty neurons' state, in global ids.
  void export_neurons(std::vector<SnapshotNeuron>* out) const;
  /// Append every pending bucket to the time-keyed map, in global ids and
  /// verbatim in-bucket order (ring before spill at a shared time), each
  /// reference expanded into its segment's deliveries in place.
  void export_pending(std::map<Time, SnapshotBucket>* out) const;
  /// Adopt one image neuron's state for local neuron `id`.
  void restore_neuron(NeuronId id, const SnapshotNeuron& e);

 private:
  template <typename Store>
  void drain(const Store& st, Time bound);
  /// Call f(target, weight, source) for each delivery of `b` in run order
  /// (targets local; source kNoNeuron unless causes are recorded).
  template <typename Store, typename F>
  void for_each_delivery(const Store& st, const Bucket& b, F&& f) const;
  // Forced inline: the drain's per-spike path makes no call of its own
  // (ARCHITECTURE.md §1.12; tools/check_hot_inlining.sh guards it).
  template <typename Store>
  [[gnu::always_inline]] inline void fire(const Store& st, NeuronRecord& rec,
                                          NeuronId id, Time t);
  template <typename Store>
  [[gnu::always_inline]] inline void fanout_segmented(const Store& st,
                                                      NeuronId id, Time t);

  void init(Delay ring_delay);
  NeuronId global_id(NeuronId id) const {
    return global_ids_ == nullptr ? id : global_ids_[id];
  }
  /// bucket_for's slow path: the spill bucket of a time at or past the
  /// ring's window (counted in overflow_spills).
  Bucket& spill_bucket(Time t, std::uint64_t count);
  /// Leak `rec` (neuron `id`) from its last update to t (Eq. (1) without
  /// the input term). Inline, so the drain's τ ∈ {0, 1} path makes no call;
  /// the time check's throw stays out of line.
  Voltage decayed_potential(const NeuronRecord& rec, NeuronId id,
                            Time t) const {
    const Time dt = t - rec.last_update;
    if (dt < 0) [[unlikely]] check_time_order(id, dt);
    return rec.decayed(dt, [&] { return net_->tau(id); });
  }
  /// The SGA_CHECK of decayed_potential: throws InternalError for dt < 0.
  [[gnu::cold, gnu::noinline]] void check_time_order(NeuronId id,
                                                     Time dt) const;
  /// Mark `id`'s record dirty for the O(events) reset().
  void touch_state(NeuronRecord& rec, NeuronId id) {
    if (rec.stamp != epoch_) {
      rec.stamp = epoch_;
      dirty_.push_back(id);
    }
  }
  /// Move spill entries whose time now falls inside the ring window into
  /// the ring.
  void migrate_spill();
  void ensure_causes();
  /// Throw InvalidArgument when the store was patched (its generation
  /// moved) while a pending bucket still references its segments: those
  /// deliveries would silently change. Raw runs are copies and stay valid.
  void check_generation() const;

  /// Bucket-storage pool (ARCHITECTURE.md §1.6). `activate` hands a newly
  /// live bucket the vectors of a previously drained one; `recycle` returns
  /// a drained bucket's storage.
  void activate(Bucket& b) {
    if (!pool_.empty()) {
      ++stats_.pool_hits;
      b = std::move(pool_.back());
      pool_.pop_back();
    } else {
      ++stats_.pool_misses;
    }
    if (++live_buckets_ > peak_live_buckets_) {
      peak_live_buckets_ = live_buckets_;
    }
  }
  void recycle(Bucket& b) {
    b.clear();
    pool_.push_back(std::move(b));
    --live_buckets_;
  }
  /// Engine-describing stats fields, restored after every wipe.
  void describe_engine();

  const CompiledNetwork* net_;
  /// The store generation the pending references were cut from.
  std::uint64_t generation_ = 0;
  const NeuronId* global_ids_ = nullptr;  ///< null: local ids are global
  Remote* remote_ = nullptr;
  obs::Probe* probe_ = nullptr;  ///< cached flag for the disabled fast path
  RunState run_;

  // Calendar ring: ring_.size() is a power of two; slot = time & ring_mask_.
  // Invariant: every ring event's time lies in (cursor_, cursor_ + W), W =
  // ring size, so residues are collision-free and the slot being drained
  // can never receive new events mid-iteration (delay ≥ 1 plus the strict
  // upper bound). Events at or beyond cursor_ + W live in spill_.
  std::vector<Bucket> ring_;
  std::vector<std::uint64_t> ring_occupied_;  ///< 1 bit per slot
  Time ring_mask_ = 0;
  Time cursor_ = -1;                  ///< last processed (or jumped-to) time
  std::uint64_t ring_events_ = 0;     ///< events currently in the ring
  std::map<Time, Bucket> spill_;      ///< overflow, time-keyed
  std::uint64_t pending_events_ = 0;  ///< ring + spill, for the peak stat
  std::vector<Bucket> pool_;          ///< drained bucket storage, LIFO
  // Pool high-watermark trim: buckets currently holding delivery storage
  // and the per-run peak; reset() keeps max(this run's peak, previous
  // run's peak) pooled buckets.
  std::size_t live_buckets_ = 0;
  std::size_t peak_live_buckets_ = 0;
  std::size_t prev_peak_live_ = 0;

  // Per-neuron state: one cache line per neuron (snn/neuron_record.h).
  std::vector<NeuronRecord> neurons_;
  // Cause bookkeeping, sized on the first record_causes run (or restore of
  // a recorded cause) and empty until then: the first-spike causes, and the
  // per-step best (weight, source) of each touched target.
  struct CauseScratch {
    SynWeight weight = 0;
    NeuronId source = kNoNeuron;
  };
  std::vector<NeuronId> cause_;
  std::vector<CauseScratch> accum_cause_;

  // O(events) reset support: neurons whose state diverged from the
  // just-constructed baseline this epoch. Record stamps are 16 bits wide;
  // reset() clears them all when epoch_ wraps (once per 65,535 resets).
  std::vector<NeuronId> dirty_;
  std::uint16_t epoch_ = 1;

  std::vector<NeuronId> targets_scratch_;  ///< per-step deduplicated targets

  std::vector<char> is_terminal_;
  std::vector<char> is_watched_;
  std::vector<NeuronId> active_terminals_;  ///< set flags, for cheap reset
  std::vector<NeuronId> active_watched_;
  std::uint64_t terminal_fires_ = 0;
  bool record_steps_ = false;
  std::vector<Time> steps_;
  std::vector<std::pair<Time, NeuronId>> spike_log_;
  SimStats stats_;
};

}  // namespace sga::snn
