#include "snn/unroll.h"

#include <algorithm>

#include "core/error.h"

namespace sga::snn {

UnrolledCircuit unroll_to_threshold_circuit(const CompiledNetwork& net,
                                            Time horizon) {
  SGA_REQUIRE(horizon >= 1, "unroll: horizon must be >= 1");
  const std::size_t n = net.num_neurons();
  for (NeuronId i = 0; i < n; ++i) {
    const NeuronParams p = net.params(i);
    SGA_REQUIRE(p.tau == 1.0 && p.v_reset == 0,
                "unroll: neuron " << i
                                  << " is not a pure threshold gate (τ=1, "
                                     "reset 0); general LIF unrolling is "
                                     "not supported");
  }

  UnrolledCircuit uc;
  uc.horizon = horizon;

  // Layer 0: free inputs (no incoming synapses; fired only by injection).
  for (NeuronId j = 0; j < n; ++j) {
    uc.layer0.push_back(uc.circuit.add_neuron(NeuronParams{0, 1, 1.0}));
  }
  // Layers 1..T: copies with the original thresholds.
  uc.layers.assign(static_cast<std::size_t>(horizon) + 1, {});
  for (Time t = 1; t <= horizon; ++t) {
    auto& layer = uc.layers[static_cast<std::size_t>(t)];
    for (NeuronId j = 0; j < n; ++j) {
      layer.push_back(
          uc.circuit.add_neuron(NeuronParams{0, net.params(j).v_threshold, 1.0}));
    }
  }

  auto gate_at = [&](NeuronId j, Time t) -> NeuronId {
    return t == 0 ? uc.layer0[j] : uc.layers[static_cast<std::size_t>(t)][j];
  };

  // Wiring: spike of i at time s drives j's decision at s + d.
  for (NeuronId i = 0; i < n; ++i) {
    net.for_each_out_synapse(
        i, [&](std::size_t, NeuronId tgt, SynWeight w, Delay d) {
          for (Time src = 0; src + d <= horizon; ++src) {
            uc.circuit.add_synapse(gate_at(i, src), gate_at(tgt, src + d), w,
                                   d);
          }
        });
  }
  return uc;
}

std::vector<std::pair<Time, NeuronId>> run_unrolled(
    const UnrolledCircuit& uc,
    const std::vector<std::pair<NeuronId, Time>>& injections) {
  const CompiledNetwork compiled = uc.circuit.compile();
  Simulator sim(compiled);
  for (const auto& [id, t] : injections) {
    SGA_REQUIRE(id < uc.layer0.size(), "run_unrolled: bad injection neuron");
    SGA_REQUIRE(t >= 0 && t <= uc.horizon, "run_unrolled: bad injection time");
    if (t == 0) {
      sim.inject_spike(uc.layer0[id], 0);
    } else {
      sim.inject_spike(uc.layers[static_cast<std::size_t>(t)][id], t);
    }
  }
  SimConfig cfg;
  cfg.max_time = uc.horizon;
  sim.run(cfg);

  std::vector<std::pair<Time, NeuronId>> spikes;
  for (NeuronId j = 0; j < uc.layer0.size(); ++j) {
    if (sim.first_spike(uc.layer0[j]) == 0) spikes.emplace_back(0, j);
  }
  for (Time t = 1; t <= uc.horizon; ++t) {
    const auto& layer = uc.layers[static_cast<std::size_t>(t)];
    for (NeuronId j = 0; j < layer.size(); ++j) {
      // A layer-t gate can only fire at time t (its inputs all arrive
      // exactly then); check that time explicitly.
      if (sim.fired_at(layer[j], t)) spikes.emplace_back(t, j);
    }
  }
  std::sort(spikes.begin(), spikes.end());
  return spikes;
}

}  // namespace sga::snn
