// Nested-vector reference simulator: the pre-CSR execution model, kept as
// a living artifact for two jobs.
//
//   1. Agreement oracle. It runs directly on the MUTABLE snn::Network —
//      chasing the per-neuron std::vector<Synapse> on every fired neuron,
//      std::map bucket queue — with step semantics identical to
//      snn::Simulator (same per-step delivery aggregation, forced-spike
//      handling, closed-form leak, horizon rules). It is the one
//      differential oracle of both production engines: the fuzz, property
//      and golden suites assert that the CSR simulator (calendar queue,
//      segmented fan-out) and the sharded engine reproduce its spike
//      traces and final potentials, which is what certifies the
//      compile()/CSR rewrite preserved semantics.
//   2. Ablation baseline. bench_simulator measures it against the CSR
//      simulator on the same workload, so the flat-layout win is a number,
//      not an assertion.
//
// It is intentionally NOT an entry point for algorithms: everything
// production-facing consumes a CompiledNetwork.
#pragma once

#include <map>
#include <vector>

#include "core/types.h"
#include "snn/network.h"
#include "snn/simulator.h"

namespace sga::snn {

/// Minimal event-driven LIF interpreter over a Network's nested synapse
/// vectors. One-shot: construct, inject, run once.
class ReferenceSimulator {
 public:
  explicit ReferenceSimulator(const Network& net);

  void inject_spike(NeuronId id, Time t);

  /// Same contract as Simulator::run for the fields it fills: spikes,
  /// deliveries, event_times, end_time, execution_time, hit_terminal,
  /// hit_time_limit (queue-level counters stay 0 — they are a property of
  /// the production queues).
  SimStats run(const SimConfig& config = {});

  Time first_spike(NeuronId id) const;
  const std::vector<Time>& first_spikes() const { return first_spike_; }
  /// Membrane potential as of each neuron's last update, indexed by id
  /// (Simulator::potential's semantics).
  const std::vector<Voltage>& potentials() const { return v_; }
  const std::vector<std::pair<Time, NeuronId>>& spike_log() const {
    return spike_log_;
  }

 private:
  struct Delivery {
    NeuronId target;
    SynWeight weight;
  };
  struct Bucket {
    std::vector<Delivery> deliveries;
    std::vector<NeuronId> forced;
  };

  void fire(NeuronId id, Time t);
  Voltage decayed_potential(NeuronId id, Time t) const;

  const Network& net_;
  bool ran_ = false;
  std::map<Time, Bucket> queue_;

  std::vector<Voltage> v_;
  std::vector<Time> last_update_;
  std::vector<Time> first_spike_;
  std::vector<Time> last_spike_;

  // Per-bucket aggregation scratch, mirroring the production simulator so
  // the bench comparison isolates synapse layout, not loop structure.
  std::vector<SynWeight> accum_;
  std::vector<char> touched_;
  std::vector<NeuronId> targets_scratch_;

  std::vector<char> is_terminal_;
  std::vector<char> is_watched_;
  bool watch_all_ = false;
  bool record_log_ = false;
  std::vector<std::pair<Time, NeuronId>> spike_log_;
  SimStats stats_;
  Time max_time_ = kNever;
  std::uint64_t terminals_remaining_ = 0;
  bool terminal_fired_ = false;
};

}  // namespace sga::snn
