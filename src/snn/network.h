// Spiking neural network structure (Definition 3): a directed, possibly
// cyclic multigraph of LIF neurons with weighted, delayed synapses, plus
// named neuron groups used as input/output ports by circuits and algorithms.
//
// Network is the MUTABLE BUILDER half of the two-phase pipeline
// (ARCHITECTURE.md §1.3): circuits and algorithm compilers grow it with
// add_neuron / add_synapse / define_group, then freeze it once with
// compile(), which validates the construction and packs it into the
// immutable, CSR-laid-out snn::CompiledNetwork the simulator runs on.
// Mutation ends at that freeze point.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <unordered_map>
#include <vector>

#include "core/error.h"
#include "core/types.h"
#include "snn/neuron.h"
#include "snn/storage.h"

namespace sga::snn {

class CompiledNetwork;

class Network {
 public:
  /// Add a neuron; returns its id. Threshold test is v̂ ≥ v_threshold.
  NeuronId add_neuron(NeuronParams p = {});

  /// Convenience: neuron with given threshold, reset 0, no decay — the
  /// default configuration of every circuit in Section 5.
  NeuronId add_threshold_neuron(Voltage threshold) {
    return add_neuron(NeuronParams{0, threshold, 0.0});
  }

  /// Add a synapse from -> to. Delay must be ≥ kMinDelay (δ); zero-delay
  /// synapses are prohibited (Section 2.2).
  void add_synapse(NeuronId from, NeuronId to, SynWeight weight,
                   Delay delay = kMinDelay);

  std::size_t num_neurons() const { return params_.size(); }
  std::size_t num_synapses() const { return num_synapses_; }

  /// Largest synapse delay in the network (0 when there are no synapses).
  /// The simulator sizes its calendar-queue ring window from this.
  Delay max_delay() const { return max_delay_; }

  const NeuronParams& params(NeuronId id) const {
    SGA_REQUIRE(id < params_.size(), "neuron id out of range: " << id);
    return params_[id];
  }

  /// Builder-side introspection of a neuron's out-synapses (insertion
  /// order). Construction-time only: the simulator runs on the flat CSR
  /// arrays of a CompiledNetwork, never on these nested vectors.
  std::span<const Synapse> out_synapses(NeuronId id) const {
    SGA_REQUIRE(id < out_.size(), "neuron id out of range: " << id);
    return out_[id];
  }

  /// Total in-weight a neuron can receive in one step if every presynaptic
  /// neuron fires once; used to size inhibitory "fire-once" weights.
  /// O(1): maintained incrementally by add_synapse.
  SynWeight positive_in_weight(NeuronId id) const {
    SGA_REQUIRE(id < pos_in_weight_.size(),
                "positive_in_weight: bad id " << id);
    return pos_in_weight_[id];
  }

  /// Freeze: validate the construction (delay ≥ δ, in-range targets, finite
  /// weights, τ ∈ [0, 1], group ids valid, counter consistency) and pack it
  /// into the immutable CSR form the simulator consumes — width-narrowed to
  /// the observed ranges under the default StoragePolicy::kAuto, or at full
  /// width under kWide (snn/storage.h; ARCHITECTURE.md §1.8). The rows are
  /// the synapse source, emitted in insertion order, of the same freeze
  /// core that CompiledNetwork::compile_streamed() feeds from an edge
  /// stream: a builder and a stream carrying the same synapse sequence
  /// freeze to the same artifact, bit for bit. The Network remains usable
  /// afterwards — compile again after further mutation for a new snapshot.
  CompiledNetwork compile(StoragePolicy policy = StoragePolicy::kAuto) const;

  // ---- Named groups (ports) -------------------------------------------
  // Circuits and algorithm builders register the neuron vectors that encode
  // λ-bit messages (Definition 4) under stable names, so tests and probes
  // can find them.

  void define_group(const std::string& name, std::vector<NeuronId> ids);
  bool has_group(const std::string& name) const {
    return groups_.contains(name);
  }
  const std::vector<NeuronId>& group(const std::string& name) const;
  std::vector<std::string> group_names() const;

 private:
  std::vector<NeuronParams> params_;
  std::vector<std::vector<Synapse>> out_;
  std::vector<SynWeight> pos_in_weight_;  ///< incremental Σ positive in-weight
  std::size_t num_synapses_ = 0;
  Delay max_delay_ = 0;
  std::unordered_map<std::string, std::vector<NeuronId>> groups_;
};

}  // namespace sga::snn
