// Discrete-time, event-driven LIF simulator.
//
// Executes the dynamics of Definition 2 exactly, but only touches time steps
// at which at least one spike is delivered (leak between events is applied in
// closed form: v - v_reset decays by (1-τ) per step). This is what makes the
// pseudopolynomial delay-encoded algorithms practical: a synapse with delay
// 10^6 costs one queue operation, not 10^6 idle steps. The paper's
// execution-time metric T (Definition 3: first spike of the terminal neuron)
// is reported exactly regardless of how many steps were skipped.
//
// Event queue (ARCHITECTURE.md §1): the hot path runs on a calendar queue —
// a dense ring of buckets over a sliding time window sized to the network's
// maximum synapse delay (clamped to [64, 2^16] slots, power of two). Any
// event landing inside the window is an O(1) array insert; the next event
// time is found with a per-slot occupancy bitmap (one countr_zero per 64
// slots). Events beyond the window — far-future injections, or synapse
// delays larger than the clamped ring — spill into a sorted std::map and
// migrate into the ring as the window slides past them. The legacy
// std::map<Time, Bucket> queue is retained behind QueueKind::kMap as the
// agreement oracle for tests and the bench ablation.
//
// Reuse: reset() rewinds the simulator for another run over the same
// network in O(processed events), not O(neurons) — per-neuron state is
// epoch-stamped into a dirty list as it is first touched and only those
// entries are restored. spiking_sssp_batch builds on this: one reusable
// Simulator per worker amortizes both the network build and the state
// (re)initialization across a multi-source sweep.
//
// Input (ARCHITECTURE.md §1.3): the simulator runs exclusively against a
// frozen snn::CompiledNetwork — flat CSR synapse arrays and SoA neuron
// parameters, validated once at Network::compile() time. The fan-out of a
// fired neuron is a contiguous slice of three flat arrays, delay-sorted at
// freeze time; the fan-out kernel walks the per-neuron delay segments — one
// queue lookup per distinct delay, then a bulk append of the run's (target,
// weight) pairs into SoA bucket arrays (ARCHITECTURE.md §1.6). Drained
// bucket storage is pooled across ring slots and resets, so the steady
// state allocates nothing. An immutable CompiledNetwork can back many
// Simulators concurrently (one per worker in spiking_sssp_batch).
//
// Per-spike path (ARCHITECTURE.md §1.12): each neuron's dynamic state, its
// v_reset / v_threshold / leak class, and the per-step accumulator live in
// one 64-byte NeuronRecord (snn/neuron_record.h), so a delivery, a
// threshold test and a fire each touch one cache line. run() resolves the
// network's SynStoreVariant once and runs a drain loop instantiated for the
// concrete store, from which fire() and the fan-out kernel are direct,
// fully typed calls — no per-event width, layout or function-pointer
// dispatch.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "core/types.h"
#include "snn/compiled_network.h"
#include "snn/network.h"
#include "snn/neuron_record.h"

namespace sga::obs {
class Probe;
}  // namespace sga::obs

namespace sga::snn {

struct SnapshotImage;  // snn/snapshot.h

/// Pending-event queue implementation (DESIGN.md §4 ablation knob).
enum class QueueKind : std::uint8_t {
  kCalendar,  ///< ring-bucket calendar queue + sorted overflow spill (default)
  kMap,       ///< legacy std::map<Time, Bucket>; kept as the agreement oracle
};

/// Fan-out kernel implementation (DESIGN.md §4 ablation knob). Both run on
/// the same delay-sorted CSR and produce event-for-event identical runs;
/// kPerSynapse is kept for the bench ablation and as a fuzzing oracle.
enum class FanoutKind : std::uint8_t {
  kSegmented,   ///< one queue lookup per delay run, bulk SoA append (default)
  kPerSynapse,  ///< legacy per-synapse queue lookup + single-element append
};

struct SimConfig {
  /// Inclusive time horizon; events scheduled after it are not processed.
  Time max_time = kNever;
  /// Computation terminates when any of these fires (Definition 3's u_t) —
  /// or, with terminate_on_all, when EVERY one of them has fired at least
  /// once (the multi-destination readout of Table 1's caption).
  std::vector<NeuronId> terminal_neurons;
  bool terminate_on_all = false;
  /// Record the full (time, neuron) spike log (memory ∝ total spikes).
  bool record_spike_log = false;
  /// If non-empty (and record_spike_log is set), only spikes of these
  /// neurons are logged — the cheap way to trace algorithm-level outputs
  /// without logging every internal gate.
  std::vector<NeuronId> watched_neurons;
  /// Record, for each neuron's FIRST spike, a presynaptic neuron whose spike
  /// arrived at that step (used for shortest-path predecessor extraction).
  bool record_causes = false;
  /// Cooperative pause point (docs/PERSISTENCE.md): run() returns with
  /// stats.paused set once the NEXT pending event time exceeds this,
  /// leaving every pending event queued. Unlike max_time — which
  /// permanently drops post-horizon work on the fan-out side — a paused
  /// run loses nothing: calling run() again (same recording flags and
  /// max_time, possibly a later pause_time) continues exactly where it
  /// stopped, and snapshot() captures the paused state for restore in
  /// another simulator. This is the service's checkpoint hook.
  Time pause_time = kNever;
};

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
  /// Maximum number of pending events at any moment (identical across
  /// queue kinds: it is a property of the event stream, not the queue).
  std::uint64_t peak_queue_events = 0;
  /// Largest single-time-step bucket drained.
  std::uint64_t max_bucket_occupancy = 0;
  /// Events that missed the calendar ring's window and went to the sorted
  /// overflow spill (always 0 for QueueKind::kMap).
  std::uint64_t overflow_spills = 0;
  /// Empty ring slots skipped while seeking the next event time (calendar
  /// only; measures how sparse the workload is relative to the window).
  std::uint64_t empty_bucket_scans = 0;
  /// Calendar ring size in buckets (0 for QueueKind::kMap).
  std::uint32_t ring_buckets = 0;

  // ---- Fan-out kernel counters (ARCHITECTURE.md §1.6) ------------------
  /// Delay segments walked by the segmented fire() kernel (0 under
  /// FanoutKind::kPerSynapse). Engine-specific, like the queue counters:
  /// the sharded engine walks intra and cross runs separately.
  std::uint64_t fanout_segments = 0;
  /// Bulk delivery appends issued (fanout_segments minus horizon-dropped
  /// runs; 0 under FanoutKind::kPerSynapse).
  std::uint64_t bulk_appends = 0;
  /// Bucket activations whose delivery storage came from the drained-bucket
  /// pool (hit) vs. had to start from an empty vector (miss). After the
  /// first reset(), a steady-state rerun of the same workload reports
  /// pool_misses == 0 — the allocation-free contract. The packed kernels'
  /// row-decode scratch rides the same contract: it is a persistent
  /// per-simulator buffer, so packed steady-state reruns also report
  /// pool_misses == 0.
  std::uint64_t pool_hits = 0;
  std::uint64_t pool_misses = 0;
  /// Packed-target blocks touched by the fan-out kernels' row decodes, +1
  /// per block a decoded row spans (0 for the flat encodings) — the packed
  /// ablation's work counter (ARCHITECTURE.md §1.11).
  std::uint64_t decode_blocks = 0;

  // ---- Memory footprint (ARCHITECTURE.md §1.8, §1.11) ------------------
  /// Resident bytes of the frozen CSR backing this run (row pointers +
  /// segment CSR + the width-narrowed or delta-packed synapse payload —
  /// always the ENCODED footprint). A property of the CompiledNetwork,
  /// surfaced here so the bench trajectory tracks memory alongside wall
  /// clock.
  std::uint64_t csr_bytes = 0;
  /// Which encoding backs this run: 0 = wide, 1 = narrow, 2 = packed
  /// (snn::encoding_code). Lets the trajectory distinguish packed vs
  /// narrow vs wide artifacts without re-deriving it from the widths.
  std::uint8_t storage_encoding = 0;
};

class Simulator {
 public:
  /// Run against a frozen network. The simulator BORROWS `net`; the caller
  /// keeps it alive for the simulator's lifetime. This is the form the
  /// algorithm compilers and the batch driver use — one CompiledNetwork,
  /// many (possibly concurrent) simulators.
  explicit Simulator(const CompiledNetwork& net,
                     QueueKind queue = QueueKind::kCalendar,
                     FanoutKind fanout = FanoutKind::kSegmented);

  /// Convenience for one-shot runs (tests, examples): compiles `net` and
  /// owns the frozen copy. Equivalent to compiling first and keeping the
  /// CompiledNetwork next to the simulator.
  explicit Simulator(const Network& net,
                     QueueKind queue = QueueKind::kCalendar,
                     FanoutKind fanout = FanoutKind::kSegmented);

  /// Not copyable. Movable: a moved-to simulator keeps executing the same
  /// frozen network — the owned copy of the Network constructor lives on
  /// the heap and travels with the move, so nothing points back into the
  /// moved-from object.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&&) = default;
  Simulator& operator=(Simulator&&) = delete;

  /// The frozen network this simulator executes.
  const CompiledNetwork& network() const { return *net_; }

  /// Induce a spike in `id` at time t ≥ 0 (Definition 3: computation is
  /// initiated by inducing spikes in input neurons). The neuron fires
  /// unconditionally at t. Must be called before run().
  void inject_spike(NeuronId id, Time t);

  /// Run to completion (terminal spike, max_time, or quiescence). One-shot
  /// per cycle; call reset() to rewind and run again on the same network.
  SimStats run(const SimConfig& config = {});

  /// Rewind to the just-constructed state in O(events processed): only the
  /// per-neuron entries dirtied by the previous run are restored (epoch-
  /// stamped dirty list), queue buckets keep their capacity, and the spike
  /// log is cleared. After reset() the usual inject_spike()/run() cycle
  /// applies. Repeated runs over the same Network therefore cost
  /// O(events), not O(neurons) per run.
  void reset();

  // ---- Snapshot / restore (snn/snapshot.h; docs/PERSISTENCE.md) --------
  /// Serialize the complete simulation state — membrane potentials, every
  /// pending delivery bucket, the spike log, run configuration, cumulative
  /// counters — into the versioned binary snapshot format. Callable at any
  /// point outside run(): before a run, while paused (the checkpoint case),
  /// or after completion. The image uses global neuron ids and is engine-
  /// agnostic: it restores into either queue kind, either fan-out kind, or
  /// a ParallelSimulator over the same CompiledNetwork.
  std::vector<std::uint8_t> snapshot() const;

  /// Replace this simulator's state with a snapshot taken on the SAME
  /// frozen network (shape + storage widths are fingerprinted). ALL-OR-
  /// NOTHING: the stream is fully parsed and validated before any state is
  /// touched; on SnapshotError the simulator is exactly as it was. After
  /// restoring a paused snapshot, run() (with the original recording flags
  /// and max_time) resumes event-for-event identically to the run the
  /// snapshot was taken from.
  void restore(const std::uint8_t* data, std::size_t size);
  void restore(const std::vector<std::uint8_t>& bytes) {
    restore(bytes.data(), bytes.size());
  }

  /// True when the last run() stopped at config.pause_time (resumable).
  bool paused() const { return paused_; }
  /// While paused (or after restoring a paused snapshot): the earliest
  /// pending event time. Everything strictly below it has been processed;
  /// inject_spike() during a pause must target t ≥ resume_floor().
  Time resume_floor() const { return pause_floor_; }

  QueueKind queue_kind() const { return queue_kind_; }
  FanoutKind fanout_kind() const { return fanout_kind_; }

  /// Buckets currently resident in the drained-storage pool. Bounded across
  /// serve-many reuse: reset() trims the pool to the peak concurrent bucket
  /// demand of the last two runs, so one oversized request does not pin its
  /// peak footprint for the rest of a pooled worker's life (while the
  /// steady-state pool_misses == 0 contract still holds for a same-shaped
  /// rerun). Exposed for the reuse-lifecycle regression tests.
  std::size_t pool_resident_buckets() const { return pool_.size(); }

  // ---- Instrumentation (src/obs; see docs/OBSERVABILITY.md) -----------
  /// Attach an observability probe (spike trace / fire + delivery counters
  /// / potential sampling). The simulator BORROWS the probe; it must
  /// outlive the simulator or be detached first. Binds the probe to this
  /// network's size. Probes never alter simulation semantics; with no
  /// probe attached each hook site costs one branch on the cached pointer
  /// (the overhead contract of docs/OBSERVABILITY.md).
  void attach_probe(obs::Probe& probe);
  void detach_probe() { probe_ = nullptr; }
  obs::Probe* probe() const { return probe_; }

  // ---- Post-run observability ----------------------------------------
  /// First spike time of `id`, kNever if it never fired.
  Time first_spike(NeuronId id) const;
  /// Every neuron's first spike time, indexed by id.
  std::vector<Time> first_spikes() const;
  /// Last spike time, kNever if never fired. fired_at(id, stats.end_time)
  /// implements Definition 3's read-out of output neurons at time T.
  Time last_spike(NeuronId id) const;
  bool fired_at(NeuronId id, Time t) const { return last_spike(id) == t; }
  /// Whether `id` fired anywhere in [t0, t1]. Resolved from first/last
  /// spike times when they are conclusive; when the neuron fired both
  /// before t0 and after t1, the recorded spike log is consulted (requires
  /// record_spike_log with `id` watched — throws otherwise, rather than
  /// silently guessing).
  bool fired_in(NeuronId id, Time t0, Time t1) const;
  std::uint32_t spike_count(NeuronId id) const;
  /// Presynaptic cause of the first spike (requires record_causes);
  /// kNoNeuron for injected/uncaused spikes.
  NeuronId first_spike_cause(NeuronId id) const;
  /// Full spike log (requires record_spike_log), ordered by time.
  const std::vector<std::pair<Time, NeuronId>>& spike_log() const {
    return spike_log_;
  }
  /// True when the previous run() recorded `id`'s spikes in the log.
  bool logged(NeuronId id) const {
    return record_log_ && (watch_all_ || is_watched_[id]);
  }
  /// Membrane potential of `id` as of the last time it was updated.
  Voltage potential(NeuronId id) const;

 private:
  /// One time step's pending work, deliveries in structure-of-arrays form:
  /// targets/weights always populated in lock-step; sources only when the
  /// run records causes (the only consumer), cutting delivery memory
  /// traffic by a third on the default path.
  struct Bucket {
    std::vector<NeuronId> targets;
    std::vector<SynWeight> weights;
    std::vector<NeuronId> sources;  ///< parallel to targets iff record_causes
    std::vector<NeuronId> forced;   ///< injected spikes

    bool empty() const { return targets.empty() && forced.empty(); }
    std::size_t size() const { return targets.size() + forced.size(); }
    void clear() {  // keeps capacity — cleared buckets are pooled
      targets.clear();
      weights.clear();
      sources.clear();
      forced.clear();
    }
  };

  /// The event loop, instantiated per storage layout (snn/storage.h): run()
  /// resolves the network's SynStoreVariant ONCE and calls the drain for
  /// the concrete store, which calls fire() and the fan-out kernels below
  /// directly, fully typed — no per-event width, layout or kernel-pointer
  /// dispatch. Defined in simulator.cpp (the only TU that instantiates
  /// them).
  template <typename Store>
  void drain(const Store& st);
  template <typename Store>
  void fire(const Store& st, NeuronRecord& rec, NeuronId id, Time t);
  template <typename Store>
  void fanout_segmented(const Store& st, NeuronId id, Time t);
  template <typename Store>
  void fanout_per_synapse(const Store& st, NeuronId id, Time t);

  /// Leak `rec` (neuron `id`) from its last update to t (Eq. (1) without
  /// the input term).
  Voltage decayed_potential(const NeuronRecord& rec, NeuronId id,
                            Time t) const;

  /// Packed-layout helper: decode the target ids of the non-empty flat
  /// range [b, e) (one neuron's row) straight into decode_scratch_ with
  /// PackedSynStore::decode_range, counting one decode block per block the
  /// row touches. The scratch is a persistent per-simulator buffer grown
  /// once to the largest row — the steady state decodes allocation-free,
  /// matching the bucket pool's contract.
  template <typename Store>
  void decode_row(const Store& st, std::size_t b, std::size_t e);

  /// Mark `id`'s record dirty for the O(events) reset().
  void touch_state(NeuronRecord& rec, NeuronId id) {
    if (rec.stamp != epoch_) {
      rec.stamp = epoch_;
      dirty_.push_back(id);
    }
  }

  /// Queue ops — each branches once on queue_kind_. `count` is the number
  /// of events about to be appended to the returned bucket (bulk segment
  /// appends update the occupancy stats once per run, not per synapse).
  Bucket& bucket_for(Time t, std::uint64_t count);
  /// Earliest pending event time into *t; false when the queue is empty.
  bool next_pending_time(Time* t);
  /// Move far-future spill entries whose time now falls inside the ring
  /// window into the ring.
  void migrate_spill();

  /// Bucket-storage pool (ARCHITECTURE.md §1.6). `activate` hands a newly
  /// live bucket the vectors of a previously drained one; `recycle` returns
  /// a drained bucket's storage. Steady state is allocation-free: after one
  /// run + reset() the pool holds enough storage for every activation.
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

  void init_state();
  /// Size the cause arrays (no-op once sized).
  void ensure_causes();

  /// Snapshot plumbing (simulator.cpp + snn/snapshot.h): build the engine-
  /// agnostic image of the current state / adopt a validated image.
  void build_image(SnapshotImage* img) const;
  void apply_image(const SnapshotImage& img);

  /// Set by the Network constructor. Heap-held so its address survives a
  /// move of the simulator (net_ then still points at the moved-to
  /// simulator's own copy).
  std::unique_ptr<const CompiledNetwork> owned_;
  const CompiledNetwork* net_;
  const QueueKind queue_kind_;
  const FanoutKind fanout_kind_;
  obs::Probe* probe_ = nullptr;  ///< cached flag for the disabled fast path
  bool ran_ = false;

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
  std::map<Time, Bucket> spill_;      ///< overflow; the whole queue for kMap
  std::uint64_t pending_events_ = 0;  ///< ring + spill, for the peak stat
  std::vector<Bucket> pool_;          ///< drained bucket storage, LIFO
  // Pool high-watermark trim support: buckets currently holding delivery
  // storage (activated, not yet recycled) and the per-run peak; reset()
  // keeps max(this run's peak, previous run's peak) pooled buckets.
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

  // Scratch for per-bucket aggregation (sparse-reset pattern).
  std::vector<NeuronId> targets_scratch_;
  /// Packed-kernel row-decode buffer (see decode_row); unused (and empty)
  /// for flat encodings.
  std::vector<NeuronId> decode_scratch_;

  std::vector<char> is_terminal_;
  std::vector<char> is_watched_;
  std::vector<NeuronId> active_terminals_;  ///< set flags, for cheap reset
  std::vector<NeuronId> active_watched_;
  bool watch_all_ = false;
  std::vector<std::pair<Time, NeuronId>> spike_log_;
  SimStats stats_;
  bool record_causes_ = false;
  bool record_log_ = false;
  Time max_time_ = kNever;
  std::uint64_t terminals_remaining_ = 0;
  bool terminal_fired_ = false;

  // Pause/resume state (docs/PERSISTENCE.md). pause_floor_ is the next
  // pending event time at the moment of the pause: the boundary between
  // processed and pending work, carried into snapshots as the resume floor.
  bool paused_ = false;
  Time pause_time_ = kNever;
  Time pause_floor_ = 0;
};

}  // namespace sga::snn
