// Snapshot / restore / replay-journal tests (snn/snapshot.h;
// docs/PERSISTENCE.md).
//
// The load-bearing tests are DIFFERENTIAL: a run that pauses, snapshots,
// restores into a fresh simulator (same engine, the sharded engine, a
// different shard count) and resumes must be event-for-event identical to
// the uninterrupted run —
// same spike log, same per-neuron state, same semantic SimStats. The
// malformed-stream tests pin the all-or-nothing failure contract: every
// corrupt byte stream throws SnapshotError naming the failing section and
// leaves the target simulator untouched.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/random.h"
#include "snn/compiled_network.h"
#include "snn/network.h"
#include "snn/parallel_sim.h"
#include "snn/reference_sim.h"
#include "snn/simulator.h"
#include "snn/snapshot.h"

namespace sga::snn {
namespace {

struct Workload {
  Network net;
  std::vector<std::pair<NeuronId, Time>> injections;
};

/// Random integer-weight LIF network + injections. Integer weights and
/// thresholds keep every engine bit-exact regardless of delivery order, so
/// differential comparisons can demand full equality.
Workload make_workload(std::uint64_t seed, std::size_t n, std::size_t m,
                       Delay max_delay) {
  Rng rng(seed);
  Workload w;
  for (std::size_t i = 0; i < n; ++i) {
    NeuronParams p;
    p.v_threshold = static_cast<Voltage>(rng.uniform_int(1, 3));
    p.tau = rng.bernoulli(0.3) ? 1.0 : 0.0;
    w.net.add_neuron(p);
  }
  const auto last = static_cast<std::int64_t>(n) - 1;
  for (std::size_t e = 0; e < m; ++e) {
    const auto from = static_cast<NeuronId>(rng.uniform_int(0, last));
    const auto to = static_cast<NeuronId>(rng.uniform_int(0, last));
    SynWeight wt = static_cast<SynWeight>(rng.uniform_int(1, 3));
    if (rng.bernoulli(0.15)) wt = -wt;
    w.net.add_synapse(from, to, wt, rng.uniform_int(1, max_delay));
  }
  const std::size_t ni = 2 + n / 8;
  for (std::size_t i = 0; i < ni; ++i) {
    w.injections.emplace_back(static_cast<NeuronId>(rng.uniform_int(0, last)),
                              rng.uniform_int(0, 4));
  }
  return w;
}

SimConfig recording_config() {
  SimConfig cfg;
  cfg.record_spike_log = true;
  cfg.record_causes = true;
  cfg.max_time = 500;  // bound cyclic workloads
  return cfg;
}

void expect_core_stats_eq(const SimStats& a, const SimStats& b) {
  EXPECT_EQ(a.spikes, b.spikes);
  EXPECT_EQ(a.deliveries, b.deliveries);
  EXPECT_EQ(a.event_times, b.event_times);
  EXPECT_EQ(a.end_time, b.end_time);
  EXPECT_EQ(a.hit_terminal, b.hit_terminal);
  EXPECT_EQ(a.hit_time_limit, b.hit_time_limit);
  EXPECT_EQ(a.paused, b.paused);
  EXPECT_EQ(a.execution_time, b.execution_time);
}

std::vector<std::pair<Time, NeuronId>> sorted_log(
    std::vector<std::pair<Time, NeuronId>> log) {
  std::sort(log.begin(), log.end());
  return log;
}

/// Full per-neuron state equality across any two engines.
template <typename SimA, typename SimB>
void expect_state_eq(const SimA& a, const SimB& b, std::size_t n) {
  for (NeuronId i = 0; i < n; ++i) {
    EXPECT_EQ(a.first_spike(i), b.first_spike(i)) << "neuron " << i;
    EXPECT_EQ(a.last_spike(i), b.last_spike(i)) << "neuron " << i;
    EXPECT_EQ(a.spike_count(i), b.spike_count(i)) << "neuron " << i;
    EXPECT_EQ(a.potential(i), b.potential(i)) << "neuron " << i;
    EXPECT_EQ(a.first_spike_cause(i), b.first_spike_cause(i))
        << "neuron " << i;
  }
}

// ---- Format constants (pinned against docs/PERSISTENCE.md) --------------

TEST(SnapshotFormat, ConstantsMatchTheDocumentedLayout) {
  EXPECT_EQ(kSnapshotMagic, 0x53414753u);  // "SGAS" little-endian
  EXPECT_EQ(kSnapshotVersion, 1);
  EXPECT_EQ(kJournalMagic, 0x4a414753u);  // "SGAJ" little-endian
  EXPECT_EQ(kJournalVersion, 1);
  EXPECT_EQ(kSecFingerprint, 1);
  EXPECT_EQ(kSecConfig, 2);
  EXPECT_EQ(kSecNeuron, 3);
  EXPECT_EQ(kSecQueue, 4);
  EXPECT_EQ(kSecLog, 5);
  EXPECT_EQ(kSecStats, 6);
  EXPECT_EQ(kFlagMidRun, 1u << 0);
  EXPECT_EQ(kFlagRecordCauses, 1u << 1);
  EXPECT_EQ(kFlagRecordLog, 1u << 2);
  EXPECT_EQ(kFlagWatchAll, 1u << 3);
  EXPECT_EQ(kFlagTerminalFired, 1u << 4);

  Workload w = make_workload(0xF0, 8, 20, 4);
  const CompiledNetwork net(w.net);
  const Simulator sim(net);
  const std::vector<std::uint8_t> bytes = sim.snapshot();
  ASSERT_GE(bytes.size(), 12u);
  EXPECT_EQ(bytes[0], 'S');
  EXPECT_EQ(bytes[1], 'G');
  EXPECT_EQ(bytes[2], 'A');
  EXPECT_EQ(bytes[3], 'S');
  EXPECT_EQ(bytes[4], 1);  // version lo byte
  EXPECT_EQ(bytes[5], 0);  // version hi byte
  // Trailing CRC-32 covers everything before it.
  const std::uint32_t crc = snapshot_crc32(bytes.data(), bytes.size() - 4);
  const std::uint32_t stored =
      static_cast<std::uint32_t>(bytes[bytes.size() - 4]) |
      (static_cast<std::uint32_t>(bytes[bytes.size() - 3]) << 8) |
      (static_cast<std::uint32_t>(bytes[bytes.size() - 2]) << 16) |
      (static_cast<std::uint32_t>(bytes[bytes.size() - 1]) << 24);
  EXPECT_EQ(crc, stored);
  // Identical state serializes to identical bytes (pure function).
  EXPECT_EQ(bytes, sim.snapshot());
}

// ---- Round trips ---------------------------------------------------------

TEST(Snapshot, PreRunRoundTripPreservesInjections) {
  Workload w = make_workload(0xA1, 24, 90, 5);
  const CompiledNetwork net(w.net);
  Simulator a(net);
  for (const auto& [id, t] : w.injections) a.inject_spike(id, t);
  const std::vector<std::uint8_t> bytes = a.snapshot();

  Simulator b(net);
  b.restore(bytes);
  const SimConfig cfg = recording_config();
  Simulator ref(net);
  for (const auto& [id, t] : w.injections) ref.inject_spike(id, t);
  const SimStats sa = ref.run(cfg);
  const SimStats sb = b.run(cfg);
  expect_core_stats_eq(sa, sb);
  EXPECT_EQ(ref.spike_log(), b.spike_log());
  expect_state_eq(ref, b, net.num_neurons());
}

TEST(Snapshot, PauseResumeInPlaceMatchesStraightThrough) {
  Workload w = make_workload(0xA2, 40, 200, 6);
  const CompiledNetwork net(w.net);
  const SimConfig cfg = recording_config();

  Simulator ref(net);
  for (const auto& [id, t] : w.injections) ref.inject_spike(id, t);
  const SimStats sref = ref.run(cfg);
  ASSERT_GE(sref.end_time, 2) << "workload too quiet to pause mid-run";

  Simulator sim(net);
  for (const auto& [id, t] : w.injections) sim.inject_spike(id, t);
  SimConfig paused_cfg = cfg;
  paused_cfg.pause_time = sref.end_time / 2;
  const SimStats mid = sim.run(paused_cfg);
  ASSERT_TRUE(sim.paused());
  ASSERT_TRUE(mid.paused);
  EXPECT_GT(sim.resume_floor(), paused_cfg.pause_time);
  // A paused run lost nothing: resuming completes it exactly.
  const SimStats fin = sim.run(cfg);
  EXPECT_FALSE(sim.paused());
  expect_core_stats_eq(sref, fin);
  EXPECT_EQ(ref.spike_log(), sim.spike_log());
  expect_state_eq(ref, sim, net.num_neurons());
}

TEST(Snapshot, InjectWhilePausedRespectsTheResumeFloor) {
  Workload w = make_workload(0xA3, 30, 140, 5);
  const CompiledNetwork net(w.net);
  const SimConfig cfg = recording_config();
  Simulator probe_sim(net);
  for (const auto& [id, t] : w.injections) probe_sim.inject_spike(id, t);
  const SimStats sref = probe_sim.run(cfg);
  ASSERT_GE(sref.end_time, 4);
  const Time pause = sref.end_time / 2;

  // Both sims pause at the same step and receive the same late injection;
  // one takes the snapshot detour. They must agree completely.
  Simulator a(net);
  Simulator b(net);
  for (const auto& [id, t] : w.injections) {
    a.inject_spike(id, t);
    b.inject_spike(id, t);
  }
  SimConfig pc = cfg;
  pc.pause_time = pause;
  a.run(pc);
  b.run(pc);
  ASSERT_TRUE(a.paused() && b.paused());
  EXPECT_THROW(a.inject_spike(0, 0), Error);  // below the floor
  const Time at = a.resume_floor();
  a.inject_spike(w.injections[0].first, at + 1);
  b.inject_spike(w.injections[0].first, at + 1);

  Simulator c(net);
  c.restore(a.snapshot());
  const SimStats sa = a.run(cfg);
  const SimStats sc = c.run(cfg);
  const SimStats sb = b.run(cfg);
  expect_core_stats_eq(sa, sc);
  expect_core_stats_eq(sa, sb);
  EXPECT_EQ(a.spike_log(), c.spike_log());
  EXPECT_EQ(a.spike_log(), b.spike_log());
  expect_state_eq(a, c, net.num_neurons());
}

// ---- The serial differential matrix -------------------------------------

/// One cell of the serial matrix. `spill` adds injections past the ring
/// window, so pauses leave pending events parked in the overflow spill;
/// `causes_off` drops the kernels' sources column. The workload seed is
/// derived from both flags.
struct SerialVariant {
  bool spill;
  bool causes_off;
  StoragePolicy policy;
};

class SnapshotSerialMatrix : public ::testing::TestWithParam<SerialVariant> {};

TEST_P(SnapshotSerialMatrix, RestoreThenResumeEqualsStraightThrough) {
  const SerialVariant v = GetParam();
  Workload w = make_workload(0xB0 + (v.spill ? 7 : 0) + (v.causes_off ? 3 : 0),
                             48, 260, 7);
  if (v.spill) {
    // Max delay 7 ⇒ a 64-slot ring: injections from t = 100 on spill and
    // migrate back as the window slides.
    for (Time t = 100; t < 400; t += 60) w.injections.emplace_back(0, t);
  }
  const CompiledNetwork net(w.net, v.policy);
  SimConfig cfg = recording_config();
  cfg.record_causes = !v.causes_off;

  Simulator ref(net);
  for (const auto& [id, t] : w.injections) ref.inject_spike(id, t);
  const SimStats sref = ref.run(cfg);
  ASSERT_GE(sref.end_time, 2);
  EXPECT_EQ(sref.overflow_spills > 0, v.spill);

  // The straight-through run itself matches the reference interpreter.
  ReferenceSimulator oracle(w.net);
  for (const auto& [id, t] : w.injections) oracle.inject_spike(id, t);
  SimConfig oracle_cfg = cfg;
  oracle_cfg.record_causes = false;
  const SimStats so = oracle.run(oracle_cfg);
  EXPECT_EQ(oracle.spike_log(), ref.spike_log());
  EXPECT_EQ(oracle.potentials().size(), net.num_neurons());
  for (NeuronId i = 0; i < net.num_neurons(); ++i) {
    EXPECT_EQ(oracle.potentials()[i], ref.potential(i)) << "neuron " << i;
  }
  EXPECT_EQ(so.deliveries, sref.deliveries);
  EXPECT_EQ(so.end_time, sref.end_time);

  for (const Time frac : {4L, 2L, 1L}) {
    Simulator run_a(net);
    for (const auto& [id, t] : w.injections) run_a.inject_spike(id, t);
    SimConfig pc = cfg;
    pc.pause_time = sref.end_time * (4 - frac + 1) / 5;
    run_a.run(pc);
    if (!run_a.paused()) continue;  // paused past the last event: nothing new

    Simulator run_b(net);
    run_b.restore(run_a.snapshot());
    ASSERT_TRUE(run_b.paused());
    EXPECT_EQ(run_a.resume_floor(), run_b.resume_floor());
    const SimStats sb = run_b.run(cfg);
    expect_core_stats_eq(sref, sb);
    // Same-engine restore also preserves the queue/fan-out counters (the
    // engine/allocation artifacts empty_bucket_scans and pool_* are
    // explicitly excluded — docs/PERSISTENCE.md).
    EXPECT_EQ(sref.peak_queue_events, sb.peak_queue_events);
    EXPECT_EQ(sref.max_bucket_occupancy, sb.max_bucket_occupancy);
    EXPECT_EQ(sref.fanout_segments, sb.fanout_segments);
    EXPECT_EQ(sref.bulk_appends, sb.bulk_appends);
    EXPECT_EQ(ref.spike_log(), run_b.spike_log());
    expect_state_eq(ref, run_b, net.num_neurons());
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllVariants, SnapshotSerialMatrix,
    ::testing::Values(SerialVariant{false, false, StoragePolicy::kAuto},
                      SerialVariant{false, false, StoragePolicy::kWide},
                      SerialVariant{false, true, StoragePolicy::kAuto},
                      SerialVariant{true, false, StoragePolicy::kAuto},
                      SerialVariant{true, true, StoragePolicy::kWide}));

TEST(Snapshot, TerminalStateSurvivesRestore) {
  Workload w = make_workload(0xC2, 36, 200, 5);
  const CompiledNetwork net(w.net);
  SimConfig cfg = recording_config();
  // Pick a terminal that actually fires, from a reference run.
  Simulator probe_sim(net);
  for (const auto& [id, t] : w.injections) probe_sim.inject_spike(id, t);
  const SimStats sp = probe_sim.run(cfg);
  ASSERT_GE(sp.end_time, 4);
  // Terminal = the latest-firing neuron, so the pause lands before it.
  NeuronId terminal = kNoNeuron;
  Time latest = -1;
  for (NeuronId i = 0; i < net.num_neurons(); ++i) {
    const Time fs = probe_sim.first_spike(i);
    if (fs != kNever && fs > latest) {
      latest = fs;
      terminal = i;
    }
  }
  ASSERT_NE(terminal, kNoNeuron);
  ASSERT_GE(latest, 2) << "workload too quiet for a mid-run pause";
  cfg.terminal_neurons = {terminal};

  Simulator ref(net);
  for (const auto& [id, t] : w.injections) ref.inject_spike(id, t);
  const SimStats sref = ref.run(cfg);
  ASSERT_TRUE(sref.hit_terminal);

  Simulator a(net);
  for (const auto& [id, t] : w.injections) a.inject_spike(id, t);
  SimConfig pc = cfg;
  pc.pause_time = probe_sim.first_spike(terminal) / 2;
  a.run(pc);
  ASSERT_TRUE(a.paused());
  Simulator b(net);
  b.restore(a.snapshot());
  const SimStats sb = b.run(cfg);
  EXPECT_TRUE(sb.hit_terminal);
  EXPECT_EQ(sref.execution_time, sb.execution_time);
  expect_core_stats_eq(sref, sb);
}

// ---- Bucket run order across the spill and the ring ---------------------
//
// Flat-store fires queue segment references; restored images queue raw
// copies. A bucket mixing both must drain in append order — the ring's runs
// ahead of the spill's when the spill merges in — exactly as the
// uninterrupted run drains it. Non-dyadic weights make the FP sum of the
// merged bucket order-sensitive, so potentials expose any reordering.

/// A (0) fires into X (2) and Z (3) at delay 70,000 — beyond the 2^16-slot
/// ring, so into the spill — and B (1), injected at t = 10,000, fires into
/// the same time T = 70,000 through the ring (delay 60,000). X's threshold
/// is out of reach, so its potential is the bucket's FP sum; Z fires on a
/// weight tie, so its cause is the smaller source.
struct MixedBucketCase {
  Network net;
  static constexpr Time kB = 10000;
  static constexpr Time kT = 70000;
  MixedBucketCase() {
    for (int i = 0; i < 2; ++i) net.add_threshold_neuron(1);
    net.add_threshold_neuron(100);  // X
    net.add_threshold_neuron(1);    // Z
    net.add_synapse(0, 2, 0.1, kT);
    net.add_synapse(0, 2, 0.2, kT);
    net.add_synapse(0, 3, 0.5, kT);
    net.add_synapse(1, 2, 0.3, kT - kB);
    net.add_synapse(1, 2, 0.6, kT - kB);
    net.add_synapse(1, 3, 0.5, kT - kB);
  }
  void inject(Simulator& sim) const {
    sim.inject_spike(0, 0);
    sim.inject_spike(1, kB);
  }
  static SimConfig config(Time pause_time) {
    SimConfig cfg;
    cfg.record_spike_log = true;
    cfg.record_causes = true;
    cfg.pause_time = pause_time;
    return cfg;
  }
};

TEST(Snapshot, SpilledImageBucketMergesBehindRingFiresInAppendOrder) {
  // The merge order is observable: ring-first and spill-first sums differ.
  ASSERT_NE((0.3 + 0.6) + 0.1 + 0.2, (0.1 + 0.2) + 0.3 + 0.6);
  const MixedBucketCase c;
  const CompiledNetwork net(c.net);
  Simulator ref(net);
  c.inject(ref);
  const SimStats sref = ref.run(MixedBucketCase::config(kNever));
  ASSERT_EQ(sref.ring_buckets, 1u << 16);
  ASSERT_GT(sref.overflow_spills, 0u);
  EXPECT_EQ(ref.potential(2), (0.3 + 0.6) + 0.1 + 0.2);
  EXPECT_EQ(ref.first_spike(3), MixedBucketCase::kT);
  EXPECT_EQ(ref.first_spike_cause(3), 0u);

  // Pause after A's fire: the image's T bucket restores as a raw run in
  // the spill; B's fire then reaches T through the ring as a reference.
  Simulator a(net);
  c.inject(a);
  a.run(MixedBucketCase::config(5));
  ASSERT_TRUE(a.paused());
  Simulator b(net);
  b.restore(a.snapshot());
  const SimStats sb = b.run(MixedBucketCase::config(kNever));
  expect_core_stats_eq(sref, sb);
  EXPECT_EQ(ref.spike_log(), b.spike_log());
  expect_state_eq(ref, b, net.num_neurons());
}

TEST(Snapshot, ResnapshotOfRestoredMixedBucketIsByteIdentical) {
  const MixedBucketCase c;
  const CompiledNetwork net(c.net);
  // Straight through to just after B's fire: the T bucket holds B's
  // reference ahead of A's (merged in from the spill).
  Simulator ref(net);
  c.inject(ref);
  ref.run(MixedBucketCase::config(MixedBucketCase::kB + 1));
  ASSERT_TRUE(ref.paused());
  const SnapshotImage want = parse_snapshot(ref.snapshot());

  // Restored at t = 5 and resumed to the same pause: the T bucket now
  // holds B's reference ahead of A's raw run.
  Simulator a(net);
  c.inject(a);
  a.run(MixedBucketCase::config(5));
  Simulator b(net);
  b.restore(a.snapshot());
  b.run(MixedBucketCase::config(MixedBucketCase::kB + 1));
  ASSERT_TRUE(b.paused());
  const std::vector<std::uint8_t> mixed = b.snapshot();

  // export_pending expands each reference where it sits in the run order,
  // so both buckets export the same delivery sequence…
  const SnapshotImage got = parse_snapshot(mixed);
  ASSERT_EQ(got.queue.size(), want.queue.size());
  for (std::size_t i = 0; i < want.queue.size(); ++i) {
    const SnapshotBucket& g = got.queue[i];
    const SnapshotBucket& w = want.queue[i];
    EXPECT_EQ(g.time, w.time);
    EXPECT_EQ(g.forced, w.forced);
    ASSERT_EQ(g.deliveries.size(), w.deliveries.size());
    for (std::size_t k = 0; k < w.deliveries.size(); ++k) {
      EXPECT_EQ(g.deliveries[k].target, w.deliveries[k].target) << k;
      EXPECT_EQ(g.deliveries[k].weight, w.deliveries[k].weight) << k;
      EXPECT_EQ(g.deliveries[k].source, w.deliveries[k].source) << k;
    }
  }
  // …and the image re-snapshots byte for byte after its own restore.
  Simulator again(net);
  again.restore(mixed);
  EXPECT_EQ(again.snapshot(), mixed);
}

// ---- Cross-engine: serial <-> sharded -----------------------------------

TEST(Snapshot, SerialSnapshotRestoresIntoParallel) {
  Workload w = make_workload(0xD1, 48, 260, 6);
  const CompiledNetwork net(w.net);
  const SimConfig cfg = recording_config();
  Simulator ref(net);
  for (const auto& [id, t] : w.injections) ref.inject_spike(id, t);
  const SimStats sref = ref.run(cfg);
  ASSERT_GE(sref.end_time, 2);

  Simulator a(net);
  for (const auto& [id, t] : w.injections) a.inject_spike(id, t);
  SimConfig pc = cfg;
  pc.pause_time = sref.end_time / 2;
  a.run(pc);
  ASSERT_TRUE(a.paused());
  const std::vector<std::uint8_t> bytes = a.snapshot();

  for (const std::size_t shards : {2u, 3u}) {
    ParallelConfig pcfg;
    pcfg.num_shards = shards;
    pcfg.num_threads = 2;
    ParallelSimulator par(net, pcfg);
    par.restore(bytes);
    ASSERT_TRUE(par.paused());
    EXPECT_EQ(par.resume_floor(), a.resume_floor());
    const SimStats sp = par.run(cfg);
    expect_core_stats_eq(sref, sp);
    EXPECT_EQ(sorted_log(ref.spike_log()), par.spike_log());
    expect_state_eq(ref, par, net.num_neurons());
  }
}

TEST(Snapshot, ParallelSnapshotRestoresIntoSerialAndOtherShardCounts) {
  Workload w = make_workload(0xD2, 48, 260, 6);
  const CompiledNetwork net(w.net);
  const SimConfig cfg = recording_config();
  Simulator ref(net);
  for (const auto& [id, t] : w.injections) ref.inject_spike(id, t);
  const SimStats sref = ref.run(cfg);
  ASSERT_GE(sref.end_time, 2);

  ParallelConfig pcfg;
  pcfg.num_shards = 3;
  pcfg.num_threads = 2;
  ParallelSimulator a(net, pcfg);
  for (const auto& [id, t] : w.injections) a.inject_spike(id, t);
  SimConfig pc = cfg;
  pc.pause_time = sref.end_time / 2;
  a.run(pc);
  ASSERT_TRUE(a.paused());
  const std::vector<std::uint8_t> bytes = a.snapshot();

  // Parallel -> serial.
  Simulator b(net);
  b.restore(bytes);
  const SimStats sb = b.run(cfg);
  expect_core_stats_eq(sref, sb);
  EXPECT_EQ(sorted_log(ref.spike_log()), sorted_log(b.spike_log()));
  expect_state_eq(ref, b, net.num_neurons());

  // Parallel(3) -> parallel(2): shard structure is not part of the image.
  ParallelConfig pcfg2;
  pcfg2.num_shards = 2;
  pcfg2.num_threads = 2;
  ParallelSimulator c(net, pcfg2);
  c.restore(bytes);
  const SimStats sc = c.run(cfg);
  expect_core_stats_eq(sref, sc);
  EXPECT_EQ(sorted_log(ref.spike_log()), c.spike_log());
  expect_state_eq(ref, c, net.num_neurons());

  // In-place resume of the original paused run still works after the
  // snapshot was taken (snapshot() is const).
  const SimStats sa = a.run(cfg);
  expect_core_stats_eq(sref, sa);
  EXPECT_EQ(sorted_log(ref.spike_log()), a.spike_log());
}

TEST(Snapshot, RestoreIntoEveryEngineConfigReplaysBitIdentically) {
  // The snapshot image is engine-agnostic, so a paused serial image must
  // resume bit-identically under every parallel configuration —
  // {kLpt, kCutRefined} × S ∈ {1, 3, 8} on 2 real worker threads (S = 8
  // multiplexes four shards per worker).
  Workload w = make_workload(0xE9, 48, 260, 6);
  const CompiledNetwork net(w.net);
  SimConfig cfg = recording_config();
  cfg.record_causes = false;
  Simulator ref(net);
  for (const auto& [id, t] : w.injections) ref.inject_spike(id, t);
  const SimStats sref = ref.run(cfg);
  ASSERT_GE(sref.end_time, 2);

  Simulator a(net);
  for (const auto& [id, t] : w.injections) a.inject_spike(id, t);
  SimConfig pc = cfg;
  pc.pause_time = sref.end_time / 2;
  a.run(pc);
  ASSERT_TRUE(a.paused());
  const std::vector<std::uint8_t> bytes = a.snapshot();

  for (const PartitionKind part :
       {PartitionKind::kLpt, PartitionKind::kCutRefined}) {
    for (const std::size_t shards : {1u, 3u, 8u}) {
      SCOPED_TRACE(::testing::Message()
                   << "partition "
                   << (part == PartitionKind::kLpt ? "lpt" : "cut") << " S "
                   << shards);
      ParallelConfig pcfg;
      pcfg.num_shards = shards;
      pcfg.num_threads = 2;
      pcfg.partition = part;
      ParallelSimulator par(net, pcfg);
      par.restore(bytes);
      ASSERT_TRUE(par.paused());
      const SimStats sp = par.run(cfg);
      expect_core_stats_eq(sref, sp);
      EXPECT_EQ(sorted_log(ref.spike_log()), par.spike_log());
      expect_state_eq(ref, par, net.num_neurons());
    }
  }
}

// ---- Journal -------------------------------------------------------------

TEST(SpikeJournal, RoundTripAndReplay) {
  Workload w = make_workload(0xE1, 24, 110, 5);
  const CompiledNetwork net(w.net);
  const SimConfig cfg = recording_config();

  SpikeJournal journal;
  Simulator ref(net);
  for (const auto& [id, t] : w.injections) {
    ref.inject_spike(id, t);
    journal.record(id, t);
  }
  const SimStats sref = ref.run(cfg);

  // Serialize -> deserialize preserves entries in record order.
  const std::vector<std::uint8_t> bytes = journal.serialize();
  ASSERT_GE(bytes.size(), 20u);
  EXPECT_EQ(bytes[0], 'S');
  EXPECT_EQ(bytes[1], 'G');
  EXPECT_EQ(bytes[2], 'A');
  EXPECT_EQ(bytes[3], 'J');
  const SpikeJournal back = SpikeJournal::deserialize(bytes);
  EXPECT_EQ(back.entries(), journal.entries());

  // Replaying the journal into a fresh simulator reproduces the run.
  Simulator replay(net);
  back.replay_into(replay);
  const SimStats sr = replay.run(cfg);
  expect_core_stats_eq(sref, sr);
  EXPECT_EQ(ref.spike_log(), replay.spike_log());

  // Tail replay: snapshot mid-journal, replay only the entries after it.
  Simulator half(net);
  SpikeJournal tail_journal;
  const std::size_t half_count = journal.size() / 2;
  for (std::size_t i = 0; i < journal.size(); ++i) {
    const auto& [id, t] = journal.entries()[i];
    if (i < half_count) half.inject_spike(id, t);
    tail_journal.record(id, t);
  }
  const std::vector<std::uint8_t> snap = half.snapshot();
  Simulator resumed(net);
  resumed.restore(snap);
  tail_journal.replay_into(resumed, half_count);
  const SimStats st = resumed.run(cfg);
  expect_core_stats_eq(sref, st);
  EXPECT_EQ(ref.spike_log(), resumed.spike_log());
}

TEST(SpikeJournal, MalformedStreamsThrow) {
  SpikeJournal j;
  j.record(3, 7);
  j.record(1, 0);
  std::vector<std::uint8_t> bytes = j.serialize();

  for (const std::size_t len : {std::size_t{0}, std::size_t{4},
                                std::size_t{19}, bytes.size() - 1}) {
    EXPECT_THROW(SpikeJournal::deserialize(bytes.data(), len), SnapshotError);
  }
  std::vector<std::uint8_t> bad_magic = bytes;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW(SpikeJournal::deserialize(bad_magic), SnapshotError);
  std::vector<std::uint8_t> bad_crc = bytes;
  bad_crc[bytes.size() / 2] ^= 0x01;
  try {
    SpikeJournal::deserialize(bad_crc);
    FAIL() << "corrupt journal accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "journal");
  }
}

// ---- Malformed snapshots -------------------------------------------------

class SnapshotMalformed : public ::testing::Test {
 protected:
  void SetUp() override {
    Workload w = make_workload(0xF1, 20, 80, 4);
    net_ = std::make_unique<CompiledNetwork>(w.net);
    sim_ = std::make_unique<Simulator>(*net_);
    for (const auto& [id, t] : w.injections) sim_->inject_spike(id, t);
    SimConfig cfg = recording_config();
    cfg.pause_time = 2;
    sim_->run(cfg);
    bytes_ = sim_->snapshot();
  }

  /// Re-stamp the trailing CRC after a deliberate mutation, so the stream
  /// fails on the TARGET check, not on the integrity check.
  void restamp(std::vector<std::uint8_t>& b) {
    const std::uint32_t crc = snapshot_crc32(b.data(), b.size() - 4);
    b[b.size() - 4] = static_cast<std::uint8_t>(crc);
    b[b.size() - 3] = static_cast<std::uint8_t>(crc >> 8);
    b[b.size() - 2] = static_cast<std::uint8_t>(crc >> 16);
    b[b.size() - 1] = static_cast<std::uint8_t>(crc >> 24);
  }

  std::string section_of(const std::vector<std::uint8_t>& b) {
    try {
      parse_snapshot(b);
      return "<accepted>";
    } catch (const SnapshotError& e) {
      return e.section();
    }
  }

  std::unique_ptr<CompiledNetwork> net_;
  std::unique_ptr<Simulator> sim_;
  std::vector<std::uint8_t> bytes_;
};

TEST_F(SnapshotMalformed, TruncationsThrowEverywhere) {
  // Every proper prefix must be rejected (CRC or framing, never a crash or
  // a silent partial parse).
  for (std::size_t len = 0; len < bytes_.size(); len += 7) {
    EXPECT_THROW(parse_snapshot(bytes_.data(), len), SnapshotError)
        << "prefix of " << len << " bytes accepted";
  }
  EXPECT_THROW(parse_snapshot(bytes_.data(), bytes_.size() - 1),
               SnapshotError);
}

TEST_F(SnapshotMalformed, FlippedByteFailsTheCrc) {
  std::vector<std::uint8_t> b = bytes_;
  b[b.size() / 2] ^= 0x20;
  EXPECT_EQ(section_of(b), "crc");
}

TEST_F(SnapshotMalformed, BadMagicAndVersionSkewAreHeaderErrors) {
  std::vector<std::uint8_t> bad_magic = bytes_;
  bad_magic[3] = 'X';
  restamp(bad_magic);
  EXPECT_EQ(section_of(bad_magic), "header");

  std::vector<std::uint8_t> future = bytes_;
  future[4] = 0x7F;  // version 127
  restamp(future);
  try {
    parse_snapshot(future);
    FAIL() << "future version accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "header");
    EXPECT_NE(std::string(e.what()).find("version"), std::string::npos);
  }
}

TEST_F(SnapshotMalformed, TrailingGarbageRejected) {
  std::vector<std::uint8_t> b = bytes_;
  b.insert(b.end() - 4, {0xDE, 0xAD});
  restamp(b);
  EXPECT_THROW(parse_snapshot(b), SnapshotError);
}

TEST_F(SnapshotMalformed, WrongNetworkAndWidthMismatchFailTheFingerprint) {
  // Different shape.
  Workload other = make_workload(0xF2, 21, 80, 4);
  const CompiledNetwork other_net(other.net);
  Simulator other_sim(other_net);
  try {
    other_sim.restore(bytes_);
    FAIL() << "restore accepted a snapshot of a different network";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "fingerprint");
  }

  // Same shape, different frozen widths (kAuto narrow vs kWide oracle).
  Workload same = make_workload(0xF1, 20, 80, 4);
  const CompiledNetwork wide_net(same.net, StoragePolicy::kWide);
  ASSERT_FALSE(wide_net.storage_widths() == net_->storage_widths());
  Simulator wide_sim(wide_net);
  try {
    wide_sim.restore(bytes_);
    FAIL() << "restore accepted a snapshot frozen at different widths";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "fingerprint");
  }
}

TEST_F(SnapshotMalformed, ForgedPackedFlagFailsTheFingerprint) {
  // The fingerprint byte after the widths once flagged a packed-encoded
  // network. Writers put 0 there; no network has that encoding any more,
  // so an image that sets it is refused with the typed fingerprint tag.
  // Header (8 bytes), section frame (12), n, m and max_delay (24), then
  // the narrow flag and the four width bytes (5).
  constexpr std::size_t kFlag = 8 + 12 + 24 + 5;
  ASSERT_EQ(bytes_[8], kSecFingerprint);
  ASSERT_EQ(bytes_[kFlag], 0);
  std::vector<std::uint8_t> forged = bytes_;
  forged[kFlag] = 1;
  restamp(forged);
  try {
    parse_snapshot(forged);
    FAIL() << "image with the packed flag set was parsed";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.typed_section(), SnapshotError::kFingerprint);
    EXPECT_EQ(e.section(), "fingerprint");
  }
  Simulator target(*net_);
  EXPECT_THROW(target.restore(forged), SnapshotError);
}

TEST_F(SnapshotMalformed, RestoreIsAllOrNothing) {
  // Build a structurally valid stream whose SEMANTIC validation fails, and
  // prove the target simulator is untouched: it must still be paused and
  // resume identically to an undisturbed control.
  SnapshotImage img = parse_snapshot(bytes_);
  ASSERT_FALSE(img.neurons.empty());
  img.neurons[0].id = 1u << 20;  // out of range for this network
  const std::vector<std::uint8_t> corrupt = serialize_snapshot(img);
  try {
    sim_->restore(corrupt);
    FAIL() << "semantically invalid snapshot accepted";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.section(), "neuron");
  }
  ASSERT_TRUE(sim_->paused());

  // Bad queue target: the error names the queue section.
  SnapshotImage img2 = parse_snapshot(bytes_);
  if (!img2.queue.empty() && !img2.queue[0].deliveries.empty()) {
    img2.queue[0].deliveries[0].target = 1u << 20;
    const std::vector<std::uint8_t> corrupt2 = serialize_snapshot(img2);
    try {
      sim_->restore(corrupt2);
      FAIL() << "bad queue target accepted";
    } catch (const SnapshotError& e) {
      EXPECT_EQ(e.section(), "queue");
    }
  }

  // The simulator still resumes exactly like an undisturbed restore.
  Simulator control(*net_);
  control.restore(bytes_);
  const SimConfig cfg = recording_config();
  const SimStats sa = sim_->run(cfg);
  const SimStats sb = control.run(cfg);
  expect_core_stats_eq(sa, sb);
  EXPECT_EQ(sim_->spike_log(), control.spike_log());
}

// ---- Fuzz: restore-then-run == straight-through across random configs ---

TEST(SnapshotFuzz, RandomConfigsResumeExactly) {
  Rng rng(0x5EED);
  int paused_cases = 0;
  for (int iter = 0; iter < 24; ++iter) {
    const std::size_t n = 8 + static_cast<std::size_t>(rng.uniform_int(0, 56));
    const std::size_t m = n * static_cast<std::size_t>(rng.uniform_int(2, 6));
    const Delay max_d = 1 + rng.uniform_int(0, 7);
    Workload w = make_workload(0x1000 + iter, n, m, max_d);
    const StoragePolicy policy =
        rng.bernoulli(0.5) ? StoragePolicy::kAuto : StoragePolicy::kWide;
    const CompiledNetwork net(w.net, policy);

    SimConfig cfg = recording_config();
    cfg.record_causes = rng.bernoulli(0.7);
    Simulator ref(net);
    for (const auto& [id, t] : w.injections) ref.inject_spike(id, t);
    const SimStats sref = ref.run(cfg);
    if (sref.end_time < 2) continue;

    Simulator a(net);
    for (const auto& [id, t] : w.injections) a.inject_spike(id, t);
    SimConfig pc = cfg;
    pc.pause_time = rng.uniform_int(0, sref.end_time - 1);
    a.run(pc);
    if (!a.paused()) continue;
    ++paused_cases;

    // Restore into a randomly different engine.
    const bool to_parallel = rng.bernoulli(0.3);
    const std::vector<std::uint8_t> bytes = a.snapshot();
    SimStats got;
    std::vector<std::pair<Time, NeuronId>> got_log;
    if (to_parallel) {
      ParallelConfig pcfg;
      pcfg.num_shards = 1 + static_cast<std::size_t>(rng.uniform_int(0, 3));
      pcfg.num_threads = 2;
      ParallelSimulator b(net, pcfg);
      b.restore(bytes);
      got = b.run(cfg);
      got_log = b.spike_log();
    } else {
      Simulator b(net);
      b.restore(bytes);
      got = b.run(cfg);
      got_log = sorted_log(b.spike_log());
    }
    expect_core_stats_eq(sref, got);
    EXPECT_EQ(sorted_log(ref.spike_log()), got_log) << "iter " << iter;

    // The straight-through run matches the reference interpreter.
    ReferenceSimulator oracle(w.net);
    for (const auto& [id, t] : w.injections) oracle.inject_spike(id, t);
    SimConfig oracle_cfg = cfg;
    oracle_cfg.record_causes = false;
    oracle.run(oracle_cfg);
    EXPECT_EQ(oracle.spike_log(), ref.spike_log()) << "iter " << iter;
  }
  // The harness must actually exercise the restore path, not skip it all.
  EXPECT_GE(paused_cases, 12);
}

}  // namespace
}  // namespace sga::snn
