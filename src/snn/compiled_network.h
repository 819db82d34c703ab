// Immutable, simulation-ready form of an snn::Network.
//
// The two-phase pipeline (ARCHITECTURE.md §1.3) separates construction from
// execution: builders (circuits::CircuitBuilder, the nga compilers, io)
// mutate a Network, then freeze it once with Network::compile(). The frozen
// CompiledNetwork stores
//   * neuron parameters as structure-of-arrays (v_reset / v_threshold / τ),
//   * out-synapses in CSR form: one offsets array (n+1 entries) plus flat,
//     contiguous target and weight arrays in source-id order — the fan-out
//     of a fired neuron is one contiguous slice, no per-neuron heap pointer
//     to chase. Each row is stably sorted by delay at freeze time, so
//     equal-delay synapses form contiguous *delay runs* in builder
//     insertion order; a second CSR (seg_offsets_ + flat segment arrays)
//     records one (delay, begin) segment per run, the begin column ending
//     in an m sentinel so each segment ends where the next begins. Delays
//     live only there. The simulator's fan-out kernel walks segments — one
//     queue lookup per distinct delay, then one append per run — instead of
//     doing per-synapse lookups (ARCHITECTURE.md §1.6),
//   * the synapse payload WIDTH-NARROWED to the observed ranges
//     (ARCHITECTURE.md §1.8): the freeze scans n / max delay / the weight
//     domain and stores u16 or u32 targets, u8/u16 delays, float32 weights
//     when exact — behind a SynStoreVariant dispatch, with the full-width
//     layout kept as the oracle (snn/storage.h),
//   * per-neuron aggregates computed once at freeze time (the positive
//     in-weight table that previously cost a full-graph scan per query).
//
// ONE freeze core produces all of this (stream_compile.cpp), and two
// sources feed it: Network::compile() emits the builder's rows in
// insertion order, and compile_streamed() replays a caller's edge STREAM,
// so million-edge generated families never materialize the nested-vector
// builder. The core is a two-pass counting sort — pass 1 counts
// per-source degrees and scans the ranges that pick the widths, pass 2
// fills the CSR at those widths through a cursor array — so no full-width
// copy of the payload ever exists. It is also the validation pass: every
// delay ≥ δ, every target in range, every weight finite, every τ ∈ [0, 1];
// the builder source adds the group-member range check and the
// cross-check of the builder's max_delay / num_synapses counters against
// the frozen arrays.
//
// CompiledNetwork is deep-value (a handful of vectors): copy to snapshot,
// move for ownership transfer. It is immutable after construction, so one
// instance can back any number of Simulators across threads.
#pragma once

#include <cstddef>
#include <functional>
#include <string>
#include <unordered_map>
#include <utility>
#include <variant>
#include <vector>

#include "core/error.h"
#include "core/types.h"
#include "snn/neuron.h"
#include "snn/storage.h"

namespace sga::snn {

class Network;
struct Partition;
struct ShardSplit;

/// Edge consumer handed to a compile_streamed() emitter: one call per
/// synapse (from, to, weight, delay).
using SynapseSink =
    std::function<void(NeuronId from, NeuronId to, SynWeight weight,
                       Delay delay)>;

/// Memory-footprint record of a streaming freeze (the obs counters of
/// ARCHITECTURE.md §1.8; surfaced by bench_scale and the scale tests).
struct StreamBuildStats {
  std::size_t num_neurons = 0;
  std::size_t num_synapses = 0;
  /// Resident bytes of the finished CSR (row pointers + segment CSR +
  /// narrow payload) — csr_storage_bytes() of the result.
  std::size_t csr_bytes = 0;
  /// High-water resident bytes during the freeze: the final CSR plus the
  /// O(n) counting-sort scratch (degree counts reused as the fill cursor).
  std::size_t peak_resident_bytes = 0;
};

class CompiledNetwork {
 public:
  /// The empty network (0 neurons, 0 synapses) — a valid placeholder so
  /// compile-once artifacts (nga::KHopTtlCompiled, the service cache) can
  /// be built in stages before the real freeze is moved in.
  CompiledNetwork() : offsets_(1, 0), seg_offsets_(1, 0) {}

  /// Freeze `net`. Equivalent to net.compile(policy); see that method for
  /// the validation contract.
  explicit CompiledNetwork(const Network& net,
                           StoragePolicy policy = StoragePolicy::kAuto);

  /// Freeze an edge STREAM without materializing the nested-vector builder
  /// (ARCHITECTURE.md §1.8). `emit` is invoked EXACTLY TWICE with a sink —
  /// once to count per-source degrees and scan the width-choosing ranges,
  /// once to fill the CSR at the chosen widths — and must produce the
  /// identical synapse sequence both times (re-run a deterministic
  /// generator from its seed; a mismatch between the passes throws).
  /// `params` is consulted once per neuron. Validation is the builder
  /// freeze's (one core): every target < n, delay ≥ δ, weight finite,
  /// τ ∈ [0, 1], with the offending index and value in each message.
  /// Groups are not representable in a stream; define them on a builder
  /// if you need ports.
  static CompiledNetwork compile_streamed(
      std::size_t num_neurons,
      const std::function<NeuronParams(NeuronId)>& params,
      const std::function<void(const SynapseSink&)>& emit,
      StoragePolicy policy = StoragePolicy::kAuto,
      StreamBuildStats* build_stats = nullptr);

  std::size_t num_neurons() const { return v_reset_.size(); }
  std::size_t num_synapses() const { return offsets_.back(); }

  /// Largest synapse delay (0 when there are no synapses); the simulator
  /// sizes its calendar-queue ring window from this.
  Delay max_delay() const { return max_delay_; }

  // ---- Neuron parameters (SoA; unchecked hot-path accessors) -----------
  Voltage v_reset(NeuronId id) const { return v_reset_[id]; }
  Voltage v_threshold(NeuronId id) const { return v_threshold_[id]; }
  double tau(NeuronId id) const { return tau_[id]; }

  /// Checked, reconstructing accessor for construction-side consumers.
  NeuronParams params(NeuronId id) const {
    SGA_REQUIRE(id < num_neurons(), "neuron id out of range: " << id);
    return NeuronParams{v_reset_[id], v_threshold_[id], tau_[id]};
  }

  // ---- CSR out-synapses ------------------------------------------------
  // The out-synapses of neuron `id` are the index range
  // [out_begin(id), out_end(id)) into the flat arrays, sorted by delay
  // (stably: insertion order within each delay run). The syn_* accessors
  // widen through the storage variant (one visit per call) — fine for
  // single lookups (io, tests); whole-row loops use for_each_out_synapse()
  // below, and the simulator binds a kernel to the concrete store type
  // once, via synapse_store().
  std::size_t out_begin(NeuronId id) const { return offsets_[id]; }
  std::size_t out_end(NeuronId id) const { return offsets_[id + 1]; }
  std::size_t out_degree(NeuronId id) const {
    return offsets_[id + 1] - offsets_[id];
  }
  NeuronId syn_target(std::size_t k) const {
    return std::visit([k](const auto& st) { return st.target_at(k); },
                      store_);
  }
  SynWeight syn_weight(std::size_t k) const {
    return std::visit([k](const auto& st) { return st.weight_at(k); },
                      store_);
  }
  Delay syn_delay(std::size_t k) const {
    return std::visit([k](const auto& st) { return st.delay_at(k); }, store_);
  }

  /// The width-dispatched payload itself, for kernels that resolve the
  /// concrete store type once (Simulator's templated fan-out) instead of
  /// paying a visit per access.
  const SynStoreVariant& synapse_store() const { return store_; }

  /// The widths this freeze chose (io v2 tags, bench records, tests).
  const StorageWidths& storage_widths() const { return widths_; }

  /// Resident bytes of the CSR: row pointers, segment row pointers, and
  /// the four payload arrays at their frozen widths (SimStats::csr_bytes).
  std::size_t csr_storage_bytes() const {
    return (offsets_.size() + seg_offsets_.size()) * sizeof(std::size_t) +
           std::visit([](const auto& st) { return st.payload_bytes(); },
                      store_);
  }
  /// csr_storage_bytes() normalized per synapse — the scale lane's
  /// machine-independent memory metric (0 for edgeless networks).
  double bytes_per_synapse() const {
    const std::size_t m = num_synapses();
    return m == 0 ? 0.0
                  : static_cast<double>(csr_storage_bytes()) /
                        static_cast<double>(m);
  }

  // ---- Delay segments (CSR-of-segments over the rows above) ------------
  // The delay runs of neuron `id` are the segment-index range
  // [seg_begin(id), seg_end(id)). Segment s covers the synapse-index range
  // [seg_syn_begin(s), seg_syn_end(s)), all of whose synapses share delay
  // seg_delay(s); within a row, segment delays are strictly increasing and
  // the synapse ranges exactly partition [out_begin(id), out_end(id)).
  std::size_t seg_begin(NeuronId id) const { return seg_offsets_[id]; }
  std::size_t seg_end(NeuronId id) const { return seg_offsets_[id + 1]; }
  Delay seg_delay(std::size_t s) const {
    return std::visit([s](const auto& st) { return st.seg_delay_at(s); },
                      store_);
  }
  std::size_t seg_syn_begin(std::size_t s) const {
    return std::visit([s](const auto& st) { return st.seg_syn_begin_at(s); },
                      store_);
  }
  std::size_t seg_syn_end(std::size_t s) const {
    return std::visit([s](const auto& st) { return st.seg_syn_end_at(s); },
                      store_);
  }
  std::size_t num_delay_segments() const { return seg_offsets_.back(); }

  /// Bumped by every patch_weights / patch_delays. An engine whose queued
  /// deliveries reference this network's segments refuses to run or
  /// snapshot once it moves (EventCore::check_generation).
  std::uint64_t generation() const { return generation_; }

  /// Row walk: call f(k, target, weight, delay) for every out-synapse k of
  /// `id`, in flat order, with one variant visit for the whole row. It walks
  /// the row's segments, so each delay is read once per run. Every
  /// whole-row loop off the simulator's hot path (partitioner, shard_split,
  /// verify_invariants, congest, io, unroll) uses this instead of the syn_*
  /// accessors, which pay a visit per synapse and, for the delay, a segment
  /// search. Requires segments that tile the row: every freeze guarantees
  /// it, and verify_invariants checks it before its own walk.
  template <typename F>
  void for_each_out_synapse(NeuronId id, F&& f) const {
    std::visit(
        [&](const auto& st) {
          const std::size_t se = seg_offsets_[id + 1];
          for (std::size_t s = seg_offsets_[id]; s < se; ++s) {
            const Delay d = st.seg_delay_at(s);
            const std::size_t e = st.seg_syn_end_at(s);
            for (std::size_t k = st.seg_syn_begin_at(s); k < e; ++k) {
              f(k, st.target_at(k), st.weight_at(k), d);
            }
          }
        },
        store_);
  }
  // ---- Freeze-time aggregates ------------------------------------------
  /// Total positive in-weight of `id` (Section 3's fire-once sizing bound).
  /// O(1): tabulated once at freeze time.
  SynWeight positive_in_weight(NeuronId id) const {
    SGA_REQUIRE(id < num_neurons(), "positive_in_weight: bad id " << id);
    return pos_in_weight_[id];
  }

  // ---- Untrusted-input defense (snn/io.cpp; docs/SERVICE.md) -----------
  /// Re-check every structural invariant of the compiled form: CSR row
  /// pointers monotone and consistent with the flat arrays, delay segments
  /// exactly partitioning each row with strictly increasing delays, every
  /// delay ≥ δ and every target in range, τ ∈ [0, 1] and all neuron
  /// parameters / weights finite, the positive-in-weight table and
  /// max_delay consistent with the synapse payload, the storage widths
  /// consistent with the ranges they must represent, and group members in
  /// range. compile() establishes all of this by construction; this method
  /// exists for consumers that receive a CompiledNetwork from an untrusted
  /// source (deserialized caches, future binary snapshot loaders) and must
  /// not hand the simulator's unchecked hot-path accessors corrupt indices.
  /// Throws InvalidArgument on the first violation.
  void verify_invariants() const;

  // ---- Incremental recompile (docs/PERSISTENCE.md) ---------------------
  // The ONE sanctioned exception to "immutable after construction": patch
  // the frozen payload in place instead of re-running the full freeze.
  // Both methods are all-or-nothing (every edit is validated against the
  // frozen widths BEFORE the first store mutation) and re-run
  // verify_invariants() on the patched artifact before returning, so a
  // patched network is exactly as trustworthy as a fresh freeze. They are
  // NOT thread-safe: no Simulator may be mid-run on this network while a
  // patch executes. Patch only after reset() or a finished run (one that
  // left nothing queued): a paused or stopped run keeps its queued flat-
  // store deliveries as references to the frozen segments, so each patch
  // bumps generation() and such an engine's next run() or snapshot()
  // throws InvalidArgument instead of delivering patched values. Engines
  // re-read the store each run; a ring sized for the old max_delay stays
  // correct via spill.
  /// Reassign weights by flat synapse index (see out_begin/out_end for the
  /// row ranges). Later duplicates win. Each weight must be finite and,
  /// when the freeze chose float32 storage, round-trip it bit-exactly —
  /// otherwise the patch throws untouched (re-freeze to widen). The
  /// positive-in-weight table is recomputed wholesale in synapse order, so
  /// it stays bit-identical to what a fresh freeze of the patched graph
  /// would tabulate.
  void patch_weights(
      const std::vector<std::pair<std::size_t, SynWeight>>& edits);
  /// Reassign delays by flat synapse index. Each delay must be ≥ δ and fit
  /// the frozen delay width (u8/u16 when narrow — re-freeze to widen).
  /// Touched rows are stably re-sorted by delay and re-segmented (untouched
  /// rows keep their segments verbatim); max_delay() is refreshed, which
  /// may grow or shrink it.
  void patch_delays(const std::vector<std::pair<std::size_t, Delay>>& edits);

  // ---- Sharding (snn/partition.h; ARCHITECTURE.md §1.5) ----------------
  /// Split the CSR under `partition` into per-shard intra/cross synapse
  /// families for the conservative-parallel simulator: each shard's intra
  /// family is frozen through compile_streamed() under kAuto at the shard's
  /// own size, and its cross family is a full-width (shard, delay) CSR. Pure derivation:
  /// this network stays untouched (and shareable).
  ShardSplit shard_split(Partition partition) const;

  // ---- Named groups (ports), carried over from the builder -------------
  bool has_group(const std::string& name) const {
    return groups_.contains(name);
  }
  const std::vector<NeuronId>& group(const std::string& name) const;
  std::vector<std::string> group_names() const;

 private:
  /// The one freeze core behind both public entry points
  /// (stream_compile.cpp): validate the `n` neuron parameters, run
  /// `source(sink)` twice (pass 1 counts degrees and scans the ranges that
  /// choose the widths, pass 2 scatters into those widths and an m-entry
  /// delay transient), then sort each row by delay, cut the segment CSR
  /// and tabulate positive in-weights. `who` prefixes every message.
  /// Returns the bytes of the delay transient, freed before it returns.
  template <typename Params, typename Source>
  std::size_t freeze(const char* who, std::size_t n, const Params& params,
                     const Source& source, StoragePolicy policy);
  /// Retabulate pos_in_weight_ from the payload in flat synapse order (the
  /// same accumulation order compile() and verify_invariants() use).
  void recompute_pos_in_weight();

  std::vector<Voltage> v_reset_;
  std::vector<Voltage> v_threshold_;
  std::vector<double> tau_;

  std::vector<std::size_t> offsets_;      ///< n+1 entries; CSR row pointers
  std::vector<std::size_t> seg_offsets_;  ///< n+1 entries; segment row ptrs
  SynStoreVariant store_;                 ///< width-dispatched payload
  StorageWidths widths_;

  std::vector<SynWeight> pos_in_weight_;
  Delay max_delay_ = 0;
  std::uint64_t generation_ = 0;
  std::unordered_map<std::string, std::vector<NeuronId>> groups_;
};

}  // namespace sga::snn
