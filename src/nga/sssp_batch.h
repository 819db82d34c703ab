// Batched multi-source spiking SSSP (the headline workload of large-scale
// neuromorphic graph search: one Section-3 network, many source sweeps).
//
// A naive multi-source sweep pays, per source, a full network rebuild
// (O(n + m) allocations) plus a fresh simulator (O(n) state vectors). This
// driver builds the network ONCE, fans the sources out over a small thread
// pool, and gives every worker one reusable Simulator whose reset() rewinds
// in O(events) — so source i + 1 costs only its own event traffic. The
// per-worker simulators share the immutable Network by const reference;
// there is no cross-thread mutable state beyond an atomic work index.
//
// This is also the substrate future sharding/scale PRs build on: a shard is
// "a batch of sources against one resident network".
#pragma once

#include <vector>

#include "core/types.h"
#include "graph/graph.h"
#include "obs/metrics.h"
#include "snn/simulator.h"

namespace sga::nga {

struct SsspBatchOptions {
  /// Record shortest-path predecessors per source (doubles the per-run
  /// bookkeeping; off by default for sweeps that only need distances).
  bool record_parents = false;
  /// Safety horizon applied to every run; kNever = none.
  Time max_time = kNever;
  /// Worker threads; 0 = std::thread::hardware_concurrency() (≥ 1). The
  /// pool never exceeds the number of sources.
  unsigned num_threads = 0;
  /// Shard-parallelism mode (snn/parallel_sim.h): when > 0, the batch runs
  /// each source SEQUENTIALLY on one reusable sharded ParallelSimulator
  /// with this many shards and `num_threads` workers, instead of fanning
  /// sources out over per-worker serial simulators. Parallelism then comes
  /// from inside a single run — the right trade when sources are few but
  /// the network is large (per-source fan-out saturates at |sources|).
  /// `queue` is ignored in this mode (the sharded engine is calendar-only).
  std::size_t shards = 0;
  /// Optional metrics sink. Each worker thread accumulates into its OWN
  /// registry (installed as that thread's obs::thread_metrics(), so the
  /// per-worker simulator's `sim.*` counters land there too); the workers'
  /// registries are merged into this one after join — aggregation with no
  /// cross-thread contention. Untouched when nullptr.
  obs::MetricsRegistry* metrics = nullptr;
};

/// One source's solution, same semantics as SpikingSsspResult in
/// all-destinations mode.
struct SsspSourceRun {
  VertexId source = kNoVertex;
  std::vector<Weight> dist;      ///< kInfiniteDistance where unreached
  std::vector<VertexId> parent;  ///< kNoVertex at source / unreached
  Time execution_time = 0;       ///< last first-spike time (Definition 3)
  snn::SimStats sim;

  bool reachable(VertexId v) const { return dist[v] < kInfiniteDistance; }
};

struct SsspBatchResult {
  std::vector<SsspSourceRun> runs;  ///< one per source, in input order
  std::size_t neurons = 0;          ///< of the single shared network
  std::size_t synapses = 0;
  unsigned threads_used = 0;
};

/// Run spiking SSSP from every vertex in `sources` (duplicates allowed)
/// over one shared Section-3 network. Equivalent to |sources| independent
/// spiking_sssp calls in all-destinations mode, but amortizing the network
/// build and simulator state across runs.
SsspBatchResult spiking_sssp_batch(const Graph& g,
                                   const std::vector<VertexId>& sources,
                                   const SsspBatchOptions& opt = {});

}  // namespace sga::nga
