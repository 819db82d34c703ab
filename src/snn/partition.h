// Neuron partitioning for the sharded conservative-parallel simulator
// (ARCHITECTURE.md §1.5, §1.10).
//
// A Partition assigns every neuron of a CompiledNetwork to exactly one of S
// shards. Two partitioners are available (PartitionKind):
//
//   * kLpt — degree-balanced greedy: neurons are taken in order of
//     decreasing work weight (1 + out-degree, the per-fire cost model) and
//     each is placed on the currently lightest shard, ties broken by lowest
//     shard index. Balances load but is blind to edges, so it maximizes
//     cross-shard traffic on anything with locality. Kept as the oracle.
//
//   * kCutRefined — the LPT result refined by deterministic greedy label
//     propagation (KL-style single-neuron moves, bounded passes in neuron
//     id order). The objective is lexicographic: never decrease the
//     partition's minimum cross-shard delay (that delay IS the conservative
//     lookahead window δ, so shrinking it would slow every shard), and
//     subject to that, minimize the cut weight Σ 1/delay over cross-shard
//     synapses — small-delay cross edges are the δ killers and mailbox hot
//     spots, so they are weighed heaviest. Moves must also respect the LPT
//     balance cap (below), so the refined partition keeps the same balance
//     bound. A move is accepted only with strictly positive cut gain, so
//     refinement terminates and the refined cut never exceeds the seed's.
//
// Every tie anywhere is broken by neuron id / shard index, so both kinds
// are pure functions of (network, S) — two processes that compile the same
// network partition it identically, which is what makes the parallel
// engine's event order reproducible.
//
// Balance bound (property-tested in tests/test_partition.cpp): when a
// neuron is placed by LPT, the lightest shard carries at most total/S, so
// every shard load is ≤ total/S + w_max where w_max is the largest single
// neuron weight. kCutRefined moves are capped by the same bound, so it
// holds for both kinds. Partition over S = 1 is the identity assignment.
//
// ShardSplit is the shard-aware split the parallel simulator runs on: for
// each shard, every member neuron's out-synapses go to one of two families —
//   * intra-shard: frozen as a CompiledNetwork of the shard's own (LOCAL
//     ids, the members' parameters, under kAuto at the shard's size),
//     which the shard's snn::EventCore runs exactly like the serial engine
//     runs the whole network — every store layout included;
//   * cross-shard: target expressed as (destination shard, local index)
//     (delivered through the window-barrier mailboxes).
// The split also computes min_cross_delay, the conservative lookahead δ:
// no spike fired at time t can arrive at another shard before t + δ, so
// all shards may advance δ time steps between barriers without ever
// receiving a message from the past (Definition 1 guarantees δ ≥ 1).
#pragma once

#include <cstdint>
#include <vector>

#include "core/types.h"
#include "snn/compiled_network.h"

namespace sga::snn {

enum class PartitionKind : std::uint8_t {
  kLpt,         ///< degree-balanced greedy, edge-blind (the oracle)
  kCutRefined,  ///< LPT seed + deterministic cut-minimizing refinement
};

struct Partition {
  std::size_t num_shards = 0;
  PartitionKind kind = PartitionKind::kLpt;
  /// neuron id -> owning shard.
  std::vector<std::uint32_t> shard_of;
  /// neuron id -> index within its shard's local arrays.
  std::vector<NeuronId> local_index;
  /// shard -> member neuron ids, ascending (local_index order).
  std::vector<std::vector<NeuronId>> shard_neurons;
  /// shard -> Σ (1 + out_degree) over members (the balance metric).
  std::vector<std::uint64_t> shard_load;

  /// Refinement telemetry (kCutRefined only; empty for kLpt): entry 0
  /// describes the LPT seed, entry i the partition after refinement pass i.
  /// min-cross-delay uses 0 for "no cross synapses" (infinite lookahead).
  /// Property-tested: pass_cut_weight is non-increasing and
  /// pass_min_cross_delay non-decreasing (0 ordered above every delay).
  std::vector<Delay> pass_min_cross_delay;
  std::vector<double> pass_cut_weight;

  std::size_t num_neurons() const { return shard_of.size(); }
};

/// Deterministic partition of `net` into `num_shards` ≥ 1 shards (shards
/// may be empty when S > n). See the file comment for the two kinds.
Partition make_partition(const CompiledNetwork& net, std::size_t num_shards,
                         PartitionKind kind = PartitionKind::kLpt);

/// The refinement objective: Σ 1/delay over cross-shard synapses of `p`
/// (self-loops can never be cross). Lower is better; 0 when none exist.
double partition_cut_weight(const CompiledNetwork& net, const Partition& p);

/// Smallest delay on any cross-shard synapse of `p` — the conservative
/// lookahead δ the parallel engine gets. 0 when no cross synapse exists.
Delay partition_min_cross_delay(const CompiledNetwork& net,
                                const Partition& p);

/// One shard's cross-shard out-synapses (see file comment). Neuron k of
/// the shard is global id `global_ids[k]`; its intra-shard synapses live
/// in ShardSplit::intra.
///
/// Segmented layout (ARCHITECTURE.md §1.6): the cross family inherits the
/// CompiledNetwork's delay-sorted row order, stably re-sorted by
/// destination shard, so a neuron's cross row is one sequence of
/// (shard, delay) runs. The cross_seg_* arrays record those runs CSR-style
/// (offsets indexed by local neuron), letting a fire do one mailbox append
/// per run instead of per synapse. A synapse's destination shard and delay
/// are its run's, so the per-synapse payload is only target and weight.
struct ShardCsr {
  std::vector<NeuronId> global_ids;

  std::vector<NeuronId> cross_local;  ///< local index in the dest shard
  std::vector<SynWeight> cross_weight;

  // Cross (shard, delay) runs: neuron k's runs are segments
  // [cross_seg_offsets[k], cross_seg_offsets[k+1]); segment s covers cross
  // synapses [cross_seg_begin[s], cross_seg_begin[s+1]), all bound for
  // shard cross_seg_shard[s] with delay cross_seg_delay[s]; per neuron the
  // (shard, delay) pairs are strictly increasing lexicographically. So
  // neuron k's cross synapses are [cross_seg_begin[cross_seg_offsets[k]],
  // cross_seg_begin[cross_seg_offsets[k+1]]). Both index columns are u32,
  // as the shard stores' segment bounds are: the split requires each
  // shard's cross segments and cross synapses to number below 2^32.
  std::vector<std::uint32_t> cross_seg_offsets;  ///< local_n + 1 entries
  std::vector<std::uint32_t> cross_seg_shard;
  std::vector<Delay> cross_seg_delay;
  std::vector<std::uint32_t> cross_seg_begin;  ///< segments + 1 (sentinel)

  std::size_t num_neurons() const { return global_ids.size(); }
  /// Resident bytes of the cross family: row pointers, runs and payload.
  std::size_t cross_bytes() const;
};

/// The full shard-aware CSR split of one CompiledNetwork under one
/// Partition. Produced by CompiledNetwork::shard_split().
struct ShardSplit {
  Partition partition;
  /// Per shard, its intra-shard synapses frozen through
  /// CompiledNetwork::compile_streamed (see the file comment).
  std::vector<CompiledNetwork> intra;
  std::vector<ShardCsr> shards;
  /// Smallest delay of any cross-shard synapse — the conservative
  /// lookahead window δ. 0 when there are no cross-shard synapses
  /// (shards are then fully independent).
  Delay min_cross_delay = 0;
  std::size_t num_cross_synapses = 0;

  /// Resident bytes the sharded engine runs on: every shard-local store
  /// plus every cross family (SimStats::csr_bytes of a sharded run).
  std::size_t storage_bytes() const;
};

}  // namespace sga::snn
