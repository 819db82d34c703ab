// Sharded conservative-parallel LIF simulator (ARCHITECTURE.md §1.5).
//
// The serial snn::Simulator runs one snn::EventCore over the whole
// network; this engine partitions a CompiledNetwork's neurons into S
// shards (snn/partition.h) and runs one EventCore per shard over the
// shard-local store CompiledNetwork::shard_split froze from its
// intra-shard synapses — the same drain loop, records, queue and fan-out
// kernel, for every store encoding. All shards advance in lock-stepped
// windows of δ time steps, where δ is the smallest CROSS-shard synapse
// delay. Definition 1 guarantees every synaptic delay is ≥ δ_min ≥ 1,
// which is exactly the conservative lookahead condition of parallel
// discrete-event simulation: a spike fired at time t cannot influence
// another shard before t + δ, so within a window shards run fully
// independently — no lock, no atomic, no shared mutable state on the
// per-delivery hot path. Each fire's cross-shard half (EventCore::Remote)
// appends to double-buffered per-(source shard, destination shard)
// mailboxes that group deliveries by arrival time; the barrier hands them
// over and the destination folds each arrival time into its own queue
// with one bulk append at the start of the next window.
//
// One knob attacks the parallel-vs-serial gap (ARCHITECTURE.md §1.10):
// PartitionKind::kCutRefined (default) is a cut-minimizing placement that
// shrinks cross traffic without ever shrinking the δ window; kLpt is the
// edge-blind load-balancing alternative. Shards map to workers statically,
// round-robin (shard i runs on worker i mod threads).
//
// Exactness contract (enforced by tests/test_parallel_agreement.cpp): a
// ParallelSimulator run is event-for-event identical to the serial
// Simulator on the same network and injections — same per-neuron spike
// times, counts, causes, final potentials, and the same semantic SimStats
// (spikes, deliveries, event_times, end_time, execution_time, hit_*).
// Two places need care to keep that true:
//   * spike-log order: within one time step the serial log order is an
//     artifact of global delivery order, which no parallel schedule can
//     reproduce; the parallel spike log is therefore defined to be in
//     canonical (time, neuron id) order. Sorting a serial log by
//     (time, id) — neurons fire at most once per step — yields the same
//     sequence.
//   * termination: a terminal spike must stop the run at the end of its
//     own time step, exactly as the serial loop does. When terminal
//     neurons are configured the window length is clamped to 1 step so
//     the barrier sees the terminal before any shard can run past it;
//     quiescence-driven workloads (batched SSSP) keep the full δ window.
//
// Queue-level SimStats counters are per-queue properties and differ by
// construction from the single-queue serial run: overflow_spills /
// empty_bucket_scans sum over shards, max_bucket_occupancy is the max,
// peak_queue_events sums the per-shard peaks (an upper bound on the true
// instantaneous global peak), ring_buckets is one shard's ring size.
// csr_bytes is the shard-local stores plus the cross CSR
// (ShardSplit::storage_bytes); storage_encoding stays the source
// artifact's.
//
// Observability: attach_probe() records through per-shard internal probes
// that are merged into the attached probe after the run (counts add,
// traces and potential samples merge into canonical (time, id) order);
// worker threads carry their own obs::MetricsRegistry, merged into the
// calling thread's registry after the run — the same contention-free
// pattern as nga::spiking_sssp_batch (docs/OBSERVABILITY.md).
#pragma once

#include <cstdint>
#include <exception>
#include <memory>
#include <vector>

#include "core/types.h"
#include "snn/compiled_network.h"
#include "snn/partition.h"
#include "snn/simulator.h"  // SimConfig, SimStats, EventCore

namespace sga::obs {
class Probe;
}  // namespace sga::obs

namespace sga::snn {

/// One (src shard, dst shard) mailbox: a window's cross-shard deliveries,
/// one SoA run per arrival time in fire order. Defined in parallel_sim.cpp.
struct MailBox;

struct ParallelConfig {
  /// Number of shards S; 0 = the resolved thread count. S may exceed the
  /// thread count (shards are multiplexed round-robin onto workers) and
  /// may exceed the neuron count (surplus shards stay empty).
  std::size_t num_shards = 0;
  /// Worker threads; 0 = std::thread::hardware_concurrency() (≥ 1). Never
  /// more threads than shards. 1 runs the same windowed schedule inline.
  unsigned num_threads = 0;
  /// Upper bound on the lookahead window length in time steps. Caps
  /// per-window buffering when the cross-shard δ is huge (or infinite —
  /// no cross-shard synapses at all). Any window ≤ δ is safe, so the cap
  /// never affects results, only barrier frequency.
  Time max_window = 4096;
  /// Neuron→shard partitioner (snn/partition.h). kCutRefined (default)
  /// minimizes 1/delay-weighted cross edges without ever shrinking the δ
  /// window; kLpt is the edge-blind load-balancing oracle.
  PartitionKind partition = PartitionKind::kCutRefined;
};

class ParallelSimulator {
 public:
  /// Run against a frozen network (BORROWED — caller keeps it alive).
  /// Partitioning and the shard-aware CSR split are computed here, once;
  /// reset() rewinds for another run without re-partitioning. The split
  /// is a copy: after a patch_weights/patch_delays of `net`, run() and
  /// snapshot() throw InvalidArgument — build a new engine instead.
  explicit ParallelSimulator(const CompiledNetwork& net,
                             ParallelConfig config = {});
  /// Convenience for one-shot runs: compiles and owns the frozen copy.
  explicit ParallelSimulator(const Network& net, ParallelConfig config = {});
  ~ParallelSimulator();

  const CompiledNetwork& network() const { return *net_; }
  const Partition& partition() const { return split_.partition; }
  std::size_t num_shards() const { return split_.partition.num_shards; }
  unsigned num_threads() const { return threads_; }
  /// The lock-step window length used outside terminal mode: the minimum
  /// cross-shard delay, clamped to [1, max_window] (max_window when no
  /// cross-shard synapse exists).
  Time lookahead() const { return lookahead_; }
  PartitionKind partition_kind() const { return split_.partition.kind; }

  /// Same contract as Simulator::inject_spike. Must precede run().
  void inject_spike(NeuronId id, Time t);

  /// Run to completion. One-shot per cycle; reset() rewinds.
  SimStats run(const SimConfig& config = {});

  /// Rewind to the just-constructed state; per-shard O(events processed),
  /// mirroring Simulator::reset(). The partition is kept.
  void reset();

  // ---- Snapshot / restore (snn/snapshot.h; docs/PERSISTENCE.md) --------
  /// Serialize the complete simulation state into the SAME engine-agnostic
  /// versioned format as Simulator::snapshot() (global neuron ids; shard
  /// structure is not part of the image). A parallel snapshot restores
  /// into a serial Simulator or a ParallelSimulator with a DIFFERENT shard
  /// count — and vice versa.
  std::vector<std::uint8_t> snapshot() const;
  /// All-or-nothing restore; see Simulator::restore. Probe data is not
  /// part of the image (probes are observers, not simulation state).
  void restore(const std::uint8_t* data, std::size_t size);
  void restore(const std::vector<std::uint8_t>& bytes) {
    restore(bytes.data(), bytes.size());
  }
  /// True when the last run() stopped at config.pause_time (resumable).
  /// A paused run's probe data is merged into the attached probe only when
  /// the run finally COMPLETES (so a pause/resume cycle absorbs it once).
  bool paused() const { return paused_; }
  /// Earliest pending event time while paused; see Simulator::resume_floor.
  Time resume_floor() const { return pause_floor_; }

  /// Attach an observability probe (BORROWED; bind()s it to this network).
  /// Recording happens in per-shard probes merged into this one after
  /// each run — see the header comment for ordering guarantees.
  void attach_probe(obs::Probe& probe);
  void detach_probe() { probe_ = nullptr; }
  obs::Probe* probe() const { return probe_; }

  // ---- Post-run observability (same semantics as Simulator) ------------
  Time first_spike(NeuronId id) const;
  /// Materialized per-neuron first-spike table in global id order.
  std::vector<Time> first_spikes() const;
  Time last_spike(NeuronId id) const;
  std::uint32_t spike_count(NeuronId id) const;
  /// Presynaptic cause of the first spike (requires record_causes). The
  /// deterministic tie-break (largest weight, then smallest source id)
  /// matches the serial simulator exactly.
  NeuronId first_spike_cause(NeuronId id) const;
  Voltage potential(NeuronId id) const;
  /// Full spike log (requires record_spike_log) in canonical
  /// (time, neuron id) order.
  const std::vector<std::pair<Time, NeuronId>>& spike_log() const {
    return log_;
  }
  const SimStats& stats() const { return stats_; }
  /// Buckets resident in the shards' drained-storage pools, summed. Each
  /// shard's core trims its pool on reset() exactly like
  /// Simulator::pool_resident_buckets() describes.
  std::size_t pool_resident_buckets() const;

 private:
  struct Shard;

  /// Shared constructor tail: resolve threads/shards, partition, split,
  /// and build per-shard state.
  void configure(ParallelConfig config);
  /// Coordinator step run at every barrier (and before the first window):
  /// folds the finished window's shard summaries into global stats,
  /// resolves terminals, and either publishes the next window or sets
  /// done_. Never throws (errors latch error_ and stop the run).
  void plan_next_window();
  /// Run this window for the shards of `worker`: i ≡ worker (mod workers_).
  void advance_owned_shards(unsigned worker);
  /// Fold shard counters/logs into stats_/log_. Idempotent: counters are
  /// ASSIGNED as base_ (restored/pre-pause cumulative) + per-shard sums, so
  /// it runs once per pause AND once at completion without double-counting.
  /// Shard probes merge into the attached probe only when absorb_probes is
  /// set (completion, not pause — absorbing is not idempotent).
  void finalize_run(bool absorb_probes);
  /// Snapshot plumbing (snn/snapshot.h): merge shard state into the
  /// engine-agnostic image / scatter a validated image across shards.
  void build_image(SnapshotImage* img) const;
  void apply_image(const SnapshotImage& img);
  /// Set the SimStats fields that describe this engine, not the run.
  void describe_engine(SimStats* s) const;
  /// Throw InvalidArgument when net_ was patched after the split.
  void check_split_generation() const;

  const CompiledNetwork* net_;
  std::unique_ptr<CompiledNetwork> owned_;  ///< Network-ctor form only
  ShardSplit split_;
  std::uint64_t split_generation_ = 0;  ///< net_->generation() at the split
  unsigned threads_ = 1;
  Time lookahead_ = 1;   ///< quiescent-mode window length
  Time max_window_ = 1;  ///< config cap

  std::vector<std::unique_ptr<Shard>> shards_;
  /// Double-buffered mailboxes, flattened [parity][src * S + dst]. During
  /// a window with parity p, source shards append to mail_[p] and
  /// destination shards drain mail_[1 - p]; the barrier flips p, so no box
  /// is ever read and written concurrently. Each box holds one SoA run per
  /// arrival time (fire order within it), so the fold is one bucket_for +
  /// bulk append per (source shard, arrival time). A box's memory follows
  /// its traffic, never max_delay.
  std::vector<MailBox> mail_[2];

  obs::Probe* probe_ = nullptr;
  std::vector<std::unique_ptr<obs::Probe>> shard_probes_;

  bool ran_ = false;
  SimStats stats_;
  std::vector<std::pair<Time, NeuronId>> log_;

  // ---- run-scoped coordinator state (published at barriers) ------------
  Time window_len_ = 1;
  Time wstart_ = 0;
  Time wend_ = 0;   ///< exclusive
  int parity_ = 0;  ///< mailbox parity of the window being executed
  bool done_ = false;
  bool first_plan_ = true;
  unsigned workers_ = 1;  ///< resolved worker count of this run
  Time max_time_ = kNever;
  std::uint64_t terminals_remaining_ = 0;
  bool terminal_fired_ = false;
  std::vector<Time> merge_scratch_;
  std::exception_ptr error_;

  // Pause/resume state (docs/PERSISTENCE.md), mirroring the serial engine.
  bool paused_ = false;
  Time pause_time_ = kNever;
  Time pause_floor_ = 0;
  /// Counter baseline for finalize_run()'s idempotent assignment: zero for
  /// a fresh run, the image's cumulative stats after a restore (shard
  /// counters restart from zero there, so the baseline carries the past).
  SimStats base_;
};

}  // namespace sga::snn
