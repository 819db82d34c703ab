// Incremental recompile tests: CompiledNetwork::patch_weights /
// patch_delays (docs/PERSISTENCE.md).
//
// The oracle is a FRESH FREEZE of the edited builder network. patch_weights
// never reorders, so the patched payload must equal the fresh freeze array
// for array; patch_delays re-sorts touched rows from an already-sorted
// starting permutation, so equal-delay tie order may legitimately differ
// from a fresh freeze — those tests compare what the contract actually
// promises: simulation behavior (integer weights keep it FP-exact), the
// positive-in-weight table, max_delay, and verbatim segments on untouched
// rows.
#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>
#include <cstdint>
#include <tuple>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/random.h"
#include "snn/compiled_network.h"
#include "snn/network.h"
#include "snn/parallel_sim.h"
#include "snn/simulator.h"

namespace sga::snn {
namespace {

Network random_net(std::uint64_t seed, std::size_t n, std::size_t m,
                   Delay max_delay) {
  Rng rng(seed);
  Network net;
  for (std::size_t i = 0; i < n; ++i) {
    NeuronParams p;
    p.v_threshold = static_cast<Voltage>(rng.uniform_int(1, 3));
    net.add_neuron(p);
  }
  const auto last = static_cast<std::int64_t>(n) - 1;
  for (std::size_t e = 0; e < m; ++e) {
    net.add_synapse(static_cast<NeuronId>(rng.uniform_int(0, last)),
                    static_cast<NeuronId>(rng.uniform_int(0, last)),
                    static_cast<SynWeight>(rng.uniform_int(1, 3)),
                    rng.uniform_int(1, max_delay));
  }
  return net;
}

/// Full payload equality (targets, weights, delays, segments, aggregates).
void expect_payload_eq(const CompiledNetwork& a, const CompiledNetwork& b) {
  ASSERT_EQ(a.num_neurons(), b.num_neurons());
  ASSERT_EQ(a.num_synapses(), b.num_synapses());
  EXPECT_EQ(a.max_delay(), b.max_delay());
  EXPECT_EQ(a.num_delay_segments(), b.num_delay_segments());
  for (std::size_t k = 0; k < a.num_synapses(); ++k) {
    EXPECT_EQ(a.syn_target(k), b.syn_target(k)) << "synapse " << k;
    EXPECT_EQ(a.syn_weight(k), b.syn_weight(k)) << "synapse " << k;
    EXPECT_EQ(a.syn_delay(k), b.syn_delay(k)) << "synapse " << k;
  }
  for (NeuronId i = 0; i < a.num_neurons(); ++i) {
    EXPECT_EQ(a.out_begin(i), b.out_begin(i));
    EXPECT_EQ(a.positive_in_weight(i), b.positive_in_weight(i))
        << "neuron " << i;
  }
  for (std::size_t s = 0; s < a.num_delay_segments(); ++s) {
    EXPECT_EQ(a.seg_delay(s), b.seg_delay(s)) << "segment " << s;
    EXPECT_EQ(a.seg_syn_begin(s), b.seg_syn_begin(s)) << "segment " << s;
    EXPECT_EQ(a.seg_syn_end(s), b.seg_syn_end(s)) << "segment " << s;
  }
}

/// Behavioral equality: same run on the same injections, full state compare.
void expect_sim_eq(const CompiledNetwork& a, const CompiledNetwork& b,
                   std::uint64_t seed) {
  Rng rng(seed);
  SimConfig cfg;
  cfg.record_spike_log = true;
  cfg.max_time = 400;
  Simulator sa(a);
  Simulator sb(b);
  const auto last = static_cast<std::int64_t>(a.num_neurons()) - 1;
  for (int i = 0; i < 4; ++i) {
    const auto id = static_cast<NeuronId>(rng.uniform_int(0, last));
    const Time t = rng.uniform_int(0, 3);
    sa.inject_spike(id, t);
    sb.inject_spike(id, t);
  }
  const SimStats ra = sa.run(cfg);
  const SimStats rb = sb.run(cfg);
  EXPECT_EQ(ra.spikes, rb.spikes);
  EXPECT_EQ(ra.deliveries, rb.deliveries);
  EXPECT_EQ(ra.end_time, rb.end_time);
  EXPECT_EQ(sa.spike_log(), sb.spike_log());
  for (NeuronId i = 0; i < a.num_neurons(); ++i) {
    EXPECT_EQ(sa.potential(i), sb.potential(i)) << "neuron " << i;
  }
}

// ---- patch_weights -------------------------------------------------------

TEST(PatchWeights, MatchesAFreshFreezeExactly) {
  for (const StoragePolicy policy :
       {StoragePolicy::kAuto, StoragePolicy::kWide}) {
    Network orig = random_net(0x11, 30, 160, 6);
    CompiledNetwork patched(orig, policy);

    // Edit ~1/4 of the synapses, including sign flips (the positive
    // in-weight table must track membership changes, not just magnitudes).
    Rng rng(0x12);
    std::vector<std::pair<std::size_t, SynWeight>> edits;
    for (std::size_t k = 0; k < patched.num_synapses(); k += 4) {
      SynWeight w = static_cast<SynWeight>(rng.uniform_int(1, 3));
      if (rng.bernoulli(0.3)) w = -w;
      edits.emplace_back(k, w);
    }
    patched.patch_weights(edits);
    patched.verify_invariants();

    // Fresh-freeze oracle: rebuild the edited graph row-major from the
    // patched artifact and freeze it from scratch. patch_weights never
    // reorders, and each row is already delay-sorted, so the fresh freeze's
    // stable sort reproduces the identical flat layout — full payload
    // equality is the honest comparison here.
    Network edited;
    for (NeuronId i = 0; i < patched.num_neurons(); ++i) {
      edited.add_neuron(patched.params(i));
    }
    for (NeuronId i = 0; i < patched.num_neurons(); ++i) {
      for (std::size_t k = patched.out_begin(i); k < patched.out_end(i);
           ++k) {
        edited.add_synapse(i, patched.syn_target(k), patched.syn_weight(k),
                           patched.syn_delay(k));
      }
    }
    const CompiledNetwork oracle(edited, policy);
    expect_payload_eq(patched, oracle);
    expect_sim_eq(patched, oracle, 0x13);

    // Independent pos_in_weight check against a direct tabulation.
    std::vector<SynWeight> expect_pw(patched.num_neurons(), 0);
    for (std::size_t k = 0; k < patched.num_synapses(); ++k) {
      const SynWeight w = patched.syn_weight(k);
      if (w > 0) expect_pw[patched.syn_target(k)] += w;
    }
    for (NeuronId i = 0; i < patched.num_neurons(); ++i) {
      EXPECT_EQ(patched.positive_in_weight(i), expect_pw[i]) << "neuron " << i;
    }
  }
}

TEST(PatchWeights, LaterDuplicateWins) {
  Network net = random_net(0x21, 10, 40, 3);
  CompiledNetwork cn(net);
  cn.patch_weights({{5, 2.0}, {5, -1.0}});
  EXPECT_EQ(cn.syn_weight(5), -1.0);
}

TEST(PatchWeights, RejectsBadEditsUntouched) {
  Network net = random_net(0x22, 10, 40, 3);
  CompiledNetwork cn(net, StoragePolicy::kAuto);
  ASSERT_TRUE(cn.storage_widths().narrow);
  const SynWeight before = cn.syn_weight(3);

  // Out-of-range index: nothing applied, not even the valid first edit.
  EXPECT_THROW(cn.patch_weights({{3, 2.0}, {cn.num_synapses(), 1.0}}), Error);
  EXPECT_EQ(cn.syn_weight(3), before);

  // Non-finite weight.
  EXPECT_THROW(cn.patch_weights({{3, std::nan("")}}), Error);
  EXPECT_EQ(cn.syn_weight(3), before);

  if (cn.storage_widths().weight_bytes == 4) {
    // 0.3 does not round-trip float32: the narrow store must refuse it
    // rather than silently store a perturbed weight.
    EXPECT_THROW(cn.patch_weights({{3, 0.3}}), Error);
    EXPECT_EQ(cn.syn_weight(3), before);
  }

  // The wide store takes anything finite.
  CompiledNetwork wide(net, StoragePolicy::kWide);
  wide.patch_weights({{3, 0.3}});
  EXPECT_EQ(wide.syn_weight(3), 0.3);
  wide.verify_invariants();
}

// ---- patch_delays --------------------------------------------------------

TEST(PatchDelays, BehavesLikeAFreshFreeze) {
  for (const StoragePolicy policy :
       {StoragePolicy::kAuto, StoragePolicy::kWide}) {
    Network orig = random_net(0x31, 30, 160, 6);
    const CompiledNetwork frozen(orig, policy);

    Rng rng(0x32);
    std::vector<std::pair<std::size_t, Delay>> edits;
    for (std::size_t k = 0; k < frozen.num_synapses(); k += 5) {
      edits.emplace_back(k, rng.uniform_int(1, 6));
    }

    CompiledNetwork patched = frozen;
    patched.patch_delays(edits);
    patched.verify_invariants();

    // Fresh-freeze oracle: rebuild the edited graph in the PATCHED row
    // order (row-major over the patched artifact) so tie order matches.
    Network edited;
    for (NeuronId i = 0; i < frozen.num_neurons(); ++i) {
      edited.add_neuron(frozen.params(i));
    }
    for (NeuronId i = 0; i < patched.num_neurons(); ++i) {
      for (std::size_t k = patched.out_begin(i); k < patched.out_end(i);
           ++k) {
        edited.add_synapse(i, patched.syn_target(k), patched.syn_weight(k),
                           patched.syn_delay(k));
      }
    }
    const CompiledNetwork oracle(edited, policy);
    expect_payload_eq(patched, oracle);
    expect_sim_eq(patched, oracle, 0x33);
  }
}

TEST(PatchDelays, UntouchedRowsKeepTheirSegmentsVerbatim) {
  Network net = random_net(0x41, 24, 140, 6);
  CompiledNetwork cn(net);
  // Edit only row 0's synapses.
  ASSERT_GT(cn.out_degree(0), 0u);
  std::vector<std::pair<std::size_t, Delay>> edits;
  for (std::size_t k = cn.out_begin(0); k < cn.out_end(0); ++k) {
    edits.emplace_back(k, 6 - cn.syn_delay(k) + 1);
  }
  // Record every other row's segment triples first.
  std::vector<std::tuple<Delay, std::size_t, std::size_t>> before;
  for (NeuronId i = 1; i < cn.num_neurons(); ++i) {
    for (std::size_t s = cn.seg_begin(i); s < cn.seg_end(i); ++s) {
      before.emplace_back(cn.seg_delay(s), cn.seg_syn_begin(s),
                          cn.seg_syn_end(s));
    }
  }
  cn.patch_delays(edits);
  std::vector<std::tuple<Delay, std::size_t, std::size_t>> after;
  for (NeuronId i = 1; i < cn.num_neurons(); ++i) {
    for (std::size_t s = cn.seg_begin(i); s < cn.seg_end(i); ++s) {
      after.emplace_back(cn.seg_delay(s), cn.seg_syn_begin(s),
                         cn.seg_syn_end(s));
    }
  }
  EXPECT_EQ(before, after);
  cn.verify_invariants();
}

TEST(PatchDelays, MaxDelayGrowsAndShrinks) {
  Network net;
  for (int i = 0; i < 4; ++i) net.add_neuron();
  net.add_synapse(0, 1, 1.0, 2);
  net.add_synapse(0, 2, 1.0, 5);
  net.add_synapse(1, 3, 1.0, 3);
  CompiledNetwork cn(net, StoragePolicy::kWide);
  ASSERT_EQ(cn.max_delay(), 5);

  cn.patch_delays({{1, 90}});  // the delay-5 synapse grows
  EXPECT_EQ(cn.max_delay(), 90);
  cn.verify_invariants();

  cn.patch_delays({{1, 4}});  // shrinks, but still above the delay-3 edge
  EXPECT_EQ(cn.max_delay(), 4);

  cn.patch_delays({{1, 1}});  // now delay 3 is the global max again
  EXPECT_EQ(cn.max_delay(), 3);
  cn.verify_invariants();

  // A simulator built AFTER the patches sees the new horizon and still
  // computes the right result.
  Simulator sim(cn);
  sim.inject_spike(0, 0);
  SimConfig cfg;
  cfg.record_spike_log = true;
  const SimStats st = sim.run(cfg);
  EXPECT_EQ(sim.first_spike(2), 1);  // patched delay 1
  EXPECT_EQ(sim.first_spike(1), 2);
  EXPECT_EQ(sim.first_spike(3), 5);  // 2 + 3
  EXPECT_EQ(st.end_time, 5);
}

TEST(PatchDelays, SegmentCountChanges) {
  Network net;
  for (int i = 0; i < 3; ++i) net.add_neuron();
  net.add_synapse(0, 1, 1.0, 2);
  net.add_synapse(0, 2, 1.0, 2);
  net.add_synapse(0, 1, 1.0, 4);
  CompiledNetwork cn(net, StoragePolicy::kWide);
  ASSERT_EQ(cn.num_delay_segments(), 2u);  // {2,2} and {4}

  cn.patch_delays({{0, 1}, {1, 3}});  // delays now 1, 3, 4 — three runs
  EXPECT_EQ(cn.num_delay_segments(), 3u);
  cn.verify_invariants();

  cn.patch_delays({{0, 4}, {1, 4}});  // all collapse into one run of 4
  EXPECT_EQ(cn.num_delay_segments(), 1u);
  EXPECT_EQ(cn.max_delay(), 4);
  cn.verify_invariants();
}

TEST(PatchDelays, RejectsBadEditsUntouched) {
  Network net = random_net(0x51, 10, 40, 3);
  CompiledNetwork narrow(net, StoragePolicy::kAuto);
  ASSERT_TRUE(narrow.storage_widths().narrow);
  ASSERT_EQ(narrow.storage_widths().delay_bytes, 2u);
  const Delay before = narrow.syn_delay(3);

  EXPECT_THROW(narrow.patch_delays({{3, 0}}), Error);  // below δ
  EXPECT_EQ(narrow.syn_delay(3), before);
  EXPECT_THROW(narrow.patch_delays({{narrow.num_synapses(), 2}}), Error);
  EXPECT_THROW(narrow.patch_delays({{3, 65536}}), Error);  // u16 overflow
  EXPECT_EQ(narrow.syn_delay(3), before);
  narrow.verify_invariants();
  CompiledNetwork at_cap = narrow;  // the cap itself still fits
  at_cap.patch_delays({{3, kNarrowDelayCap}});
  EXPECT_TRUE(at_cap.storage_widths().narrow);
  EXPECT_EQ(at_cap.max_delay(), kNarrowDelayCap);
  at_cap.verify_invariants();

  CompiledNetwork wide(net, StoragePolicy::kWide);
  // Locate index 3's row first: the patch re-sorts that row by delay, so
  // the edited synapse lands at the row's END, not necessarily at index 3.
  NeuronId row = 0;
  while (wide.out_end(row) <= 3) ++row;
  wide.patch_delays({{3, 65536}});
  EXPECT_EQ(wide.syn_delay(wide.out_end(row) - 1), 65536);
  EXPECT_EQ(wide.max_delay(), 65536);
  wide.verify_invariants();
}

// ---- Patching under a paused run ----------------------------------------
//
// A paused run keeps its queued deliveries as references to the frozen
// delay segments. Every patch bumps the network's generation, and an
// engine holding references from an older generation refuses to resume or
// snapshot rather than deliver patched (or re-cut) values. Raw runs — a
// restored image, cross-shard mail — are copies and stay valid.

/// Neuron 0 fans out to 1 and 2 at delay 2 and to 3 at delay 7; 1 relays
/// to 3 at delay 1. Every neuron has threshold 1.
Network guard_net() {
  Network net;
  for (int i = 0; i < 4; ++i) net.add_threshold_neuron(1);
  net.add_synapse(0, 1, 1, 2);
  net.add_synapse(0, 2, 1, 2);
  net.add_synapse(0, 3, 1, 7);
  net.add_synapse(1, 3, 1, 1);
  return net;
}

struct GuardRun {
  std::vector<std::pair<Time, NeuronId>> log;
  std::vector<Time> first;
};

GuardRun guard_run(Simulator& sim, const SimConfig& cfg) {
  sim.run(cfg);
  return {sim.spike_log(), sim.first_spikes()};
}

/// Pause `sim` at t = 1, with the t = 2 and t = 7 buckets queued.
SimConfig pause_guard_run(Simulator& sim) {
  SimConfig cfg;
  cfg.record_spike_log = true;
  cfg.pause_time = 1;
  sim.inject_spike(0, 0);
  EXPECT_TRUE(sim.run(cfg).paused);
  cfg.pause_time = kNever;
  return cfg;
}

template <typename Patch>
void expect_guarded(const Patch& patch) {
  const Network net = guard_net();
  const CompiledNetwork pristine(net);
  Simulator want_sim(pristine);
  want_sim.inject_spike(0, 0);
  SimConfig full;
  full.record_spike_log = true;
  const GuardRun want = guard_run(want_sim, full);

  CompiledNetwork cn(net);
  ASSERT_TRUE(cn.storage_widths().narrow);
  Simulator sim(cn);
  const SimConfig cfg = pause_guard_run(sim);
  const std::vector<std::uint8_t> image = sim.snapshot();
  const std::uint64_t generation = cn.generation();
  patch(cn);
  EXPECT_EQ(cn.generation(), generation + 1);
  EXPECT_THROW(sim.run(cfg), InvalidArgument);
  EXPECT_THROW(sim.snapshot(), InvalidArgument);

  // The image restores as raw copies of what was queued before the patch,
  // so the engine resumes and finishes exactly like the unpatched run.
  sim.restore(image);
  const GuardRun got = guard_run(sim, cfg);
  EXPECT_EQ(got.log, want.log);
  EXPECT_EQ(got.first, want.first);

  // A finished run holds nothing: patching again is fine, and after
  // reset() the engine runs the patched network.
  patch(cn);
  sim.reset();
  sim.inject_spike(0, 0);
  EXPECT_NO_THROW(sim.run(cfg));
}

TEST(PatchWeights, PausedRunHoldingReferencesRefusesToResume) {
  // Synapse 0 is 0 -> 1 (row 0 is delay-sorted and stable).
  expect_guarded([](CompiledNetwork& cn) { cn.patch_weights({{0, 0.5}}); });
}

// A sharded engine splits the network into shard stores once, when it is
// built; a later patch never reaches them. It refuses to run or snapshot
// on a patched network instead of running the old values, while a serial
// engine on the same network runs the patch.
TEST(PatchWeights, ShardedEngineBuiltBeforeThePatchRefusesToRun) {
  Network net;
  net.add_threshold_neuron(1);
  net.add_threshold_neuron(1);
  net.add_synapse(0, 1, 1, 1);
  CompiledNetwork cn(net);
  Simulator serial(cn);
  ParallelConfig pcfg;
  pcfg.num_shards = 2;
  pcfg.num_threads = 2;
  ParallelSimulator sharded(cn, pcfg);

  cn.patch_weights({{0, 0.5}});
  serial.inject_spike(0, 0);
  serial.run();
  EXPECT_EQ(serial.first_spike(1), kNever);

  sharded.inject_spike(0, 0);
  EXPECT_THROW(sharded.snapshot(), InvalidArgument);
  EXPECT_THROW(sharded.run(), InvalidArgument);
  sharded.reset();
  sharded.inject_spike(0, 0);
  EXPECT_THROW(sharded.run(), InvalidArgument);

  // An engine built on the patched network runs the patch.
  ParallelSimulator rebuilt(cn, pcfg);
  rebuilt.inject_spike(0, 0);
  rebuilt.run();
  EXPECT_EQ(rebuilt.first_spike(0), 0);
  EXPECT_EQ(rebuilt.first_spike(1), kNever);
}

TEST(PatchDelays, PausedRunHoldingReferencesRefusesToResume) {
  // Moving 0 -> 1 to delay 3 re-cuts row 0's delay-2 segment, which the
  // queued t = 2 bucket references; max_delay stays 7, so the pre-patch
  // image still matches the network's fingerprint.
  expect_guarded([](CompiledNetwork& cn) {
    cn.patch_delays({{0, 3}});
    ASSERT_EQ(cn.max_delay(), 7);
  });
}

}  // namespace
}  // namespace sga::snn
