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
// migrate into the ring as the window slides past them. The differential
// oracle for this engine is snn::ReferenceSimulator (snn/reference_sim.h).
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
// queue lookup per distinct delay, then one u32 reference to the run's
// segment in the bucket, read from the store when the bucket drains
// (ARCHITECTURE.md §1.6). Drained
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
// dispatch. That loop is snn::EventCore (snn/event_core.h); this class
// validates configs, snapshots and reads out around one core over the
// whole network, and every shard of snn::ParallelSimulator runs the same
// core over its shard-local store.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "core/types.h"
#include "snn/compiled_network.h"
#include "snn/event_core.h"
#include "snn/network.h"

namespace sga::snn {

struct SnapshotImage;  // snn/snapshot.h

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

class Simulator {
 public:
  /// Run against a frozen network. The simulator BORROWS `net`; the caller
  /// keeps it alive for the simulator's lifetime. This is the form the
  /// algorithm compilers and the batch driver use — one CompiledNetwork,
  /// many (possibly concurrent) simulators.
  explicit Simulator(const CompiledNetwork& net);

  /// Convenience for one-shot runs (tests, examples): compiles `net` and
  /// owns the frozen copy. Equivalent to compiling first and keeping the
  /// CompiledNetwork next to the simulator.
  explicit Simulator(const Network& net);

  /// Not copyable. Movable: a moved-to simulator keeps executing the same
  /// frozen network — the owned copy of the Network constructor lives on
  /// the heap and travels with the move, so nothing points back into the
  /// moved-from object.
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  Simulator(Simulator&&) = default;
  Simulator& operator=(Simulator&&) = delete;

  /// The frozen network this simulator executes.
  const CompiledNetwork& network() const { return core_.network(); }

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
  /// agnostic: it restores into another Simulator or a ParallelSimulator
  /// over the same CompiledNetwork.
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
  bool paused() const { return core_.state().paused; }
  /// While paused (or after restoring a paused snapshot): the earliest
  /// pending event time. Everything strictly below it has been processed;
  /// inject_spike() during a pause must target t ≥ resume_floor().
  Time resume_floor() const { return core_.state().pause_floor; }

  /// Buckets currently resident in the drained-storage pool. Bounded across
  /// serve-many reuse: reset() trims the pool to the peak concurrent bucket
  /// demand of the last two runs, so one oversized request does not pin its
  /// peak footprint for the rest of a pooled worker's life (while the
  /// steady-state pool_misses == 0 contract still holds for a same-shaped
  /// rerun). Exposed for the reuse-lifecycle regression tests.
  std::size_t pool_resident_buckets() const {
    return core_.pool_resident_buckets();
  }

  // ---- Instrumentation (src/obs; see docs/OBSERVABILITY.md) -----------
  /// Attach an observability probe (spike trace / fire + delivery counters
  /// / potential sampling). The simulator BORROWS the probe; it must
  /// outlive the simulator or be detached first. Binds the probe to this
  /// network's size. Probes never alter simulation semantics; with no
  /// probe attached each hook site costs one branch on the cached pointer
  /// (the overhead contract of docs/OBSERVABILITY.md).
  void attach_probe(obs::Probe& probe);
  void detach_probe() { core_.set_probe(nullptr); }
  obs::Probe* probe() const { return core_.probe(); }

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
    return core_.spike_log();
  }
  /// True when the previous run() recorded `id`'s spikes in the log.
  bool logged(NeuronId id) const { return core_.logged(id); }
  /// Membrane potential of `id` as of the last time it was updated.
  Voltage potential(NeuronId id) const;

 private:
  /// Snapshot plumbing (simulator.cpp + snn/snapshot.h): build the engine-
  /// agnostic image of the current state / adopt a validated image.
  void build_image(SnapshotImage* img) const;
  void apply_image(const SnapshotImage& img);

  /// Set by the Network constructor. Heap-held so its address survives a
  /// move of the simulator (the core then still points at the moved-to
  /// simulator's own copy).
  std::unique_ptr<const CompiledNetwork> owned_;
  EventCore core_;
  bool ran_ = false;
};

}  // namespace sga::snn
