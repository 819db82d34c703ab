// One neuron's simulation state in one cache line (ARCHITECTURE.md §1.12).
//
// The serial engine's per-spike path touches, for each delivery target and
// each fired neuron, the potential, the leak inputs, the threshold, the
// spike bookkeeping, the per-step accumulator and the reset stamp. Kept as
// parallel per-neuron arrays plus the CompiledNetwork's parameter columns,
// one threshold test touched a dozen cache lines; NeuronRecord packs all of
// it into one 64-byte line, so a delivery, a threshold test and a fire cost
// one line each. The record is engine-agnostic (no queue, no network
// pointer) so any event loop can adopt it.
#pragma once

#include <cstdint>

#include "core/types.h"
#include "snn/neuron.h"

namespace sga::snn {

struct alignas(64) NeuronRecord {
  /// Leak classes of Definition 1's τ, resolved once from the network:
  /// τ = 0 never leaks, τ = 1 leaks back to v_reset after any step, and
  /// everything else takes the closed form with τ read from the network.
  static constexpr std::uint8_t kLeakNone = 0;
  static constexpr std::uint8_t kLeakFull = 1;
  static constexpr std::uint8_t kLeakGeneral = 2;

  Voltage v = 0;            ///< membrane potential as of last_update
  Time last_update = 0;
  Time first_spike = kNever;
  Time last_spike = kNever;
  Voltage v_reset = 0;      ///< Eq. (3) reset value (network parameter)
  Voltage v_threshold = 0;  ///< Eq. (2) threshold (network parameter)
  SynWeight accum = 0;      ///< this step's summed input (drain scratch)
  std::uint32_t spike_count = 0;
  /// Reset epoch that last dirtied this record, narrowed to 16 bits; the
  /// owner clears every stamp when its epoch counter wraps.
  std::uint16_t stamp = 0;
  std::uint8_t leak = kLeakNone;
  /// Drain scratch: 0 idle, 1 received input this step, 2 force-fired.
  std::uint8_t touched = 0;

  static std::uint8_t leak_class(double tau) {
    if (tau == 0.0) return kLeakNone;
    if (tau == 1.0) return kLeakFull;
    return kLeakGeneral;
  }

  /// The just-constructed record of a neuron with parameters `p`.
  static NeuronRecord at_rest(const NeuronParams& p) {
    NeuronRecord r;
    r.v = p.v_reset;
    r.v_reset = p.v_reset;
    r.v_threshold = p.v_threshold;
    r.leak = leak_class(p.tau);
    return r;
  }

  /// Potential after `dt` ≥ 0 leak-only steps; bit-identical to
  /// decay_potential(v, v_reset, τ, dt). `tau()` is called only for the
  /// general class, so the common τ ∈ {0, 1} path never leaves the line.
  template <typename TauFn>
  Voltage decayed(Time dt, TauFn tau) const {
    if (leak == kLeakNone || dt == 0) return v;
    if (leak == kLeakFull) return v_reset;
    return decay_potential(v, v_reset, tau(), dt);
  }

  /// Rewind the run state to at_rest (parameters and stamp are kept).
  void rewind() {
    v = v_reset;
    last_update = 0;
    first_spike = kNever;
    last_spike = kNever;
    spike_count = 0;
  }
};

static_assert(sizeof(NeuronRecord) == 64, "NeuronRecord must fill one line");

}  // namespace sga::snn
