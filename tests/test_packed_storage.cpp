// Delta-packed storage tests (ARCHITECTURE.md §1.11; ISSUE 10).
//
// The load-bearing suite is DIFFERENTIAL: the packed encoding must be
// event-for-event identical to the flat narrow and wide oracles across
// every engine variant — both queue kinds, both fan-out kinds, cause
// recording on and off, and the sharded engine at S ∈ {1, 2, 8} — because
// packing only changes how target columns are STORED, never what is
// delivered. On top of that: the range decoder against the column it
// encoded (every bit width 0..32, mid-block and block-aligned ranges,
// wrapping deltas, the short final block), the anchored row decode the
// event core starts at each row's own slot (the same widths, rows from
// block slots 0, 1, 31, 32, 33 and 63, empty to three blocks long, and
// through both fan-out kernels), the row walk against the
// per-synapse accessors, the kAuto rule (never packs), the
// steady-state allocation-free contract (pool_misses == 0 with the decode
// scratch in play), the patch surface (weights yes, delays no), the
// snapshot fingerprint (a packed image refuses a flat-frozen network, with
// a typed section tag), and the io text v3 surface including four hostile
// inputs that must die in validation, not in a decode loop.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "core/error.h"
#include "core/random.h"
#include "snn/compiled_network.h"
#include "snn/io.h"
#include "snn/network.h"
#include "snn/parallel_sim.h"
#include "snn/reference_sim.h"
#include "snn/simulator.h"
#include "snn/snapshot.h"
#include "snn/storage.h"

namespace sga::snn {
namespace {

struct Workload {
  Network net;
  std::vector<std::pair<NeuronId, Time>> injections;
};

/// Random integer-weight LIF network + injections (the test_snapshot
/// recipe): integer weights and thresholds keep every engine bit-exact
/// regardless of delivery order, so differential comparisons can demand
/// full equality — and the weights round-trip through f32, so the packed
/// freeze keeps its narrow weight column.
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

SimConfig recording_config(bool causes) {
  SimConfig cfg;
  cfg.record_spike_log = true;
  cfg.record_causes = causes;
  cfg.max_time = 400;  // bound cyclic workloads
  return cfg;
}

struct RunResult {
  SimStats stats;
  std::vector<std::pair<Time, NeuronId>> log;
  std::vector<Time> first;
};

RunResult run_serial(const CompiledNetwork& net, const Workload& w,
                     bool causes) {
  Simulator sim(net);
  for (const auto& [id, t] : w.injections) sim.inject_spike(id, t);
  RunResult r;
  r.stats = sim.run(recording_config(causes));
  r.log = sim.spike_log();
  r.first = sim.first_spikes();
  return r;
}

std::vector<std::pair<Time, NeuronId>> sorted_log(
    std::vector<std::pair<Time, NeuronId>> log) {
  std::sort(log.begin(), log.end());
  return log;
}

void expect_runs_eq(const RunResult& a, const RunResult& b,
                    const std::string& what) {
  EXPECT_EQ(a.stats.spikes, b.stats.spikes) << what;
  EXPECT_EQ(a.stats.deliveries, b.stats.deliveries) << what;
  EXPECT_EQ(a.stats.event_times, b.stats.event_times) << what;
  EXPECT_EQ(a.stats.end_time, b.stats.end_time) << what;
  EXPECT_EQ(a.log, b.log) << what;
  EXPECT_EQ(a.first, b.first) << what;
}

// ---- Width selection ----------------------------------------------------

TEST(PackedStorage, AutoNeverPacksAndExplicitPackedPacksAtAnySize) {
  // kAuto keeps the flat narrow layout at every size: only flat stores are
  // delivered by segment reference, and packed is slower at every size
  // measured (EXPERIMENTS.md). An explicit kPacked request packs at any
  // size, and kNarrow / kWide stay the explicit oracles.
  for (const auto& [seed, n, m] :
       {std::tuple<std::uint64_t, NeuronId, std::size_t>{0xA0, 60, 400},
        {0xA1, 400, 16384 + 500},
        {0xA2, 3000, 60000}}) {
    SCOPED_TRACE(m);
    Workload w = make_workload(seed, n, m, 8);
    const CompiledNetwork aut(w.net, StoragePolicy::kAuto);
    EXPECT_TRUE(aut.storage_widths().narrow);
    EXPECT_FALSE(aut.storage_widths().packed);
    EXPECT_EQ(encoding_code(aut.storage_widths()), 1);
    EXPECT_STREQ(encoding_name(aut.storage_widths()), "narrow");
    const CompiledNetwork nar(w.net, StoragePolicy::kNarrow);
    EXPECT_EQ(aut.storage_widths(), nar.storage_widths());
    EXPECT_EQ(aut.csr_storage_bytes(), nar.csr_storage_bytes());

    const CompiledNetwork packed(w.net, StoragePolicy::kPacked);
    EXPECT_TRUE(packed.storage_widths().packed);
    EXPECT_EQ(encoding_code(packed.storage_widths()), 2);
    EXPECT_STREQ(encoding_name(packed.storage_widths()), "packed");

    const CompiledNetwork wide(w.net, StoragePolicy::kWide);
    EXPECT_FALSE(wide.storage_widths().narrow);
    EXPECT_FALSE(wide.storage_widths().packed);
    EXPECT_EQ(encoding_code(wide.storage_widths()), 0);
    if (m > 16384) {
      // The opt-in exists because it shrinks at scale.
      EXPECT_LT(packed.csr_storage_bytes(), aut.csr_storage_bytes());
    }
  }
}

// ---- The range decoder against its input column -------------------------

/// A flat column of `len` u32 targets whose every block (of ≥ 2 entries)
/// packs at exactly `bits` bits: random zigzag deltas below 2^bits, the
/// block's first delta with its top bit forced. Values wrap mod 2^32.
std::vector<std::uint32_t> column_at_width(std::uint64_t seed,
                                           std::size_t len, unsigned bits) {
  Rng rng(seed);
  std::vector<std::uint32_t> col(len);
  for (std::size_t k = 0; k < len; ++k) {
    if (k % kPackedBlockSize == 0) {
      col[k] = static_cast<std::uint32_t>(rng());
      continue;
    }
    std::uint32_t z = 0;
    if (bits > 0) {
      z = static_cast<std::uint32_t>(rng()) >> (32 - bits);
      if (k % kPackedBlockSize == 1) z |= 1u << (bits - 1);
    }
    col[k] = col[k - 1] + packed_unzigzag(z);
  }
  return col;
}

/// Every range [b, e) over the cut points (block boundaries, one either
/// side of them, mid-block points, the column ends) decodes to exactly the
/// column's slice and writes nothing past out[e − b − 1].
void expect_ranges_decode(const PackedSynStore<std::uint8_t, float>& st,
                          const std::vector<std::uint32_t>& col,
                          const std::string& what) {
  std::vector<std::size_t> cuts;
  for (const std::size_t c :
       {0, 1, 2, 17, 31, 32, 33, 63, 64, 65, 100, 127, 128, 129, 150, 191,
        192, 193}) {
    if (c <= col.size()) cuts.push_back(c);
  }
  if (col.size() >= 1) cuts.push_back(col.size() - 1);
  cuts.push_back(col.size());
  constexpr std::uint32_t kGuard = 0xDEADBEEF;
  for (const std::size_t b : cuts) {
    for (const std::size_t e : cuts) {
      if (e <= b) continue;
      std::vector<std::uint32_t> out(e - b + 1, kGuard);
      st.decode_range(b, e, out.data());
      EXPECT_EQ(out.back(), kGuard) << what << " [" << b << ", " << e << ")";
      out.pop_back();
      EXPECT_EQ(out, std::vector<std::uint32_t>(col.begin() + b,
                                                col.begin() + e))
          << what << " [" << b << ", " << e << ")";
    }
  }
}

TEST(PackedStorage, DecodeRangeReturnsTheColumnAtEveryBitWidth) {
  // 209 = three full blocks and a short final block of 17; 128 ends on a
  // block boundary; 65 leaves a final block of one entry (no deltas).
  for (const std::size_t len : {std::size_t{209}, std::size_t{128},
                                std::size_t{65}, std::size_t{2}}) {
    for (unsigned bits = 0; bits <= 32; ++bits) {
      const std::vector<std::uint32_t> col =
          column_at_width(0xD0 + bits * 7 + len, len, bits);
      PackedSynStore<std::uint8_t, float> st;
      st.pack_targets(col);
      const std::string what =
          "len " + std::to_string(len) + " bits " + std::to_string(bits);
      for (std::size_t j = 0; j < st.num_blocks(); ++j) {
        if (len - j * kPackedBlockSize >= 2) {
          ASSERT_EQ(st.block_bits[j], bits) << what << " block " << j;
        }
      }
      expect_ranges_decode(st, col, what);
      for (std::size_t k = 0; k < len; ++k) {
        ASSERT_EQ(st.target_at(k), col[k]) << what << " k " << k;
      }
    }
  }
}

TEST(PackedStorage, DecodeRangeInvertsWrappingDeltas) {
  // 0 → 0xFFFFFFFF is the wrapping delta −1 (zigzag 1) and back is +1;
  // 0 → 0x80000000 is INT32_MIN (zigzag 0xFFFFFFFF, a 32-bit block).
  std::vector<std::uint32_t> col;
  for (std::size_t k = 0; k < 150; ++k) {
    col.push_back(k % 2 == 0 ? 0u : 0xFFFFFFFFu);
  }
  for (std::size_t k = 0; k < 70; ++k) {
    col.push_back(k % 3 == 0 ? 0x80000000u : k % 3 == 1 ? 0u : 0x7FFFFFFFu);
  }
  PackedSynStore<std::uint8_t, float> st;
  st.pack_targets(col);
  EXPECT_EQ(st.block_bits[0], 2u);
  EXPECT_EQ(st.block_bits.back(), 32u);
  expect_ranges_decode(st, col, "wrap");
}

// ---- Anchored row decodes ------------------------------------------------

/// The rows the anchored-decode tests cut from a column: starts at block
/// slots 0, 1, 31, 32, 33 and 63 of the second block, each single-entry,
/// short, and spanning two and three blocks. (Empty rows never decode;
/// AnchoredRowsFanOutTheirOwnTargets runs them through the engine.)
std::vector<std::pair<std::size_t, std::size_t>> anchored_rows() {
  std::vector<std::pair<std::size_t, std::size_t>> rows;
  for (const std::size_t slot : {0, 1, 31, 32, 33, 63}) {
    const std::size_t b = kPackedBlockSize + slot;
    for (const std::size_t e :
         {b + 1, std::min(b + 2, 2 * kPackedBlockSize),
          2 * kPackedBlockSize + 1, 3 * kPackedBlockSize + 1}) {
      rows.emplace_back(b, e);
    }
  }
  return rows;
}

/// decode_from started at each row's own slot from the row's first value
/// returns exactly the row's slice of the column and writes nothing past
/// it.
void expect_anchored_rows_decode(const PackedSynStore<std::uint8_t, float>& st,
                                 const std::vector<std::uint32_t>& col,
                                 const std::string& what) {
  constexpr std::uint32_t kGuard = 0xDEADBEEF;
  for (const auto& [b, e] : anchored_rows()) {
    std::vector<std::uint32_t> out(e - b + 1, kGuard);
    st.decode_from(b, col[b], e, out.data());
    EXPECT_EQ(out.back(), kGuard) << what << " row [" << b << ", " << e << ")";
    out.pop_back();
    EXPECT_EQ(out, std::vector<std::uint32_t>(col.begin() + b,
                                              col.begin() + e))
        << what << " row [" << b << ", " << e << ")";
  }
}

TEST(PackedStorage, AnchoredRowDecodeReturnsTheColumnAtEveryBitWidth) {
  // 4 blocks + 9: the three-block rows end in the fourth block, and the
  // short final block follows.
  const std::size_t len = 4 * kPackedBlockSize + 9;
  for (unsigned bits = 0; bits <= 32; ++bits) {
    const std::vector<std::uint32_t> col =
        column_at_width(0xE0 + bits * 11, len, bits);
    PackedSynStore<std::uint8_t, float> st;
    st.pack_targets(col);
    ASSERT_EQ(st.block_bits[1], bits);
    expect_anchored_rows_decode(st, col, "bits " + std::to_string(bits));
  }
}

TEST(PackedStorage, AnchoredRowDecodeInvertsWrappingDeltas) {
  // Alternating 0 / 0xFFFFFFFF: every delta wraps (−1 and +1 mod 2^32).
  std::vector<std::uint32_t> col;
  for (std::size_t k = 0; k < 4 * kPackedBlockSize + 9; ++k) {
    col.push_back(k % 2 == 0 ? 0u : 0xFFFFFFFFu);
  }
  col[kPackedBlockSize + 40] = 0x80000000u;  // INT32_MIN both ways: 32 bits
  PackedSynStore<std::uint8_t, float> st;
  st.pack_targets(col);
  EXPECT_EQ(st.block_bits[0], 2u);
  EXPECT_EQ(st.block_bits[1], 32u);
  expect_anchored_rows_decode(st, col, "wrap");
}

TEST(PackedStorage, AnchoredRowsFanOutTheirOwnTargets) {
  // Rows laid out so their starts hit block slots 0, 1, 31, 32, 33 and 63,
  // each empty, single, short and spanning two and three blocks, with a
  // filler row before each to reach the slot. Every source fires once;
  // thresholds are out of reach and no neuron leaks, so each target ends
  // holding exactly the sum of its in-weights — the oracle is the edge
  // list itself, for the fan-out kernel over the anchors init() builds.
  constexpr std::size_t kTargets = 97;
  std::vector<std::size_t> degrees;
  std::size_t pos = 0;
  for (const std::size_t slot : {0, 1, 31, 32, 33, 63}) {
    for (const std::size_t len :
         {std::size_t{0}, std::size_t{1}, std::size_t{2},
          kPackedBlockSize - slot + 1, 2 * kPackedBlockSize - slot + 1}) {
      const std::size_t gap =
          (slot + kPackedBlockSize - pos % kPackedBlockSize) %
          kPackedBlockSize;
      if (gap != 0) degrees.push_back(gap);
      degrees.push_back(len);
      pos += gap + len;
    }
  }
  Network net;
  NeuronParams p;
  p.v_threshold = 1e9;
  for (std::size_t i = 0; i < degrees.size() + kTargets; ++i) {
    net.add_neuron(p);
  }
  Rng rng(0xE7);
  std::vector<SynWeight> expect(kTargets, 0);
  for (std::size_t r = 0; r < degrees.size(); ++r) {
    for (std::size_t k = 0; k < degrees[r]; ++k) {
      const auto t = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(kTargets) - 1));
      const auto wt = static_cast<SynWeight>(rng.uniform_int(1, 5));
      net.add_synapse(static_cast<NeuronId>(r),
                      static_cast<NeuronId>(degrees.size() + t), wt,
                      rng.uniform_int(1, 3));
      expect[t] += wt;
    }
  }
  const CompiledNetwork packed(net, StoragePolicy::kPacked);
  ASSERT_TRUE(packed.storage_widths().packed);
  ASSERT_EQ(packed.num_synapses(), pos);
  Simulator sim(packed);
  for (NeuronId r = 0; r < degrees.size(); ++r) sim.inject_spike(r, 0);
  const SimStats stats = sim.run();
  EXPECT_EQ(stats.deliveries, pos);
  for (std::size_t t = 0; t < kTargets; ++t) {
    EXPECT_EQ(sim.potential(static_cast<NeuronId>(degrees.size() + t)),
              expect[t])
        << "target " << t;
  }
}

TEST(PackedStorage, RowWalkMatchesThePerSynapseAccessors) {
  Workload w = make_workload(0xD7, 120, 3000, 12);
  for (const StoragePolicy policy :
       {StoragePolicy::kPacked, StoragePolicy::kNarrow,
        StoragePolicy::kWide}) {
    const CompiledNetwork net(w.net, policy);
    std::size_t walked = 0;
    for (NeuronId id = 0; id < net.num_neurons(); ++id) {
      std::size_t expect_k = net.out_begin(id);
      net.for_each_out_synapse(
          id, [&](std::size_t k, NeuronId tgt, SynWeight wt, Delay d) {
            ASSERT_EQ(k, expect_k++);
            EXPECT_EQ(tgt, net.syn_target(k)) << "syn " << k;
            EXPECT_EQ(wt, net.syn_weight(k)) << "syn " << k;
            EXPECT_EQ(d, net.syn_delay(k)) << "syn " << k;
            ++walked;
          });
      EXPECT_EQ(expect_k, net.out_end(id));
    }
    EXPECT_EQ(walked, net.num_synapses())
        << encoding_name(net.storage_widths());
  }
}

// ---- The differential fuzz ----------------------------------------------

TEST(PackedStorageFuzz, SerialEnginesAgreeEventForEvent) {
  for (const std::uint64_t seed : {0xF1ull, 0xF2ull, 0xF3ull}) {
    Workload w = make_workload(seed, 160, 1400, 10);
    const CompiledNetwork packed(w.net, StoragePolicy::kPacked);
    const CompiledNetwork narrow(w.net, StoragePolicy::kNarrow);
    const CompiledNetwork wide(w.net, StoragePolicy::kWide);
    ASSERT_TRUE(packed.storage_widths().packed);
    packed.verify_invariants();

    // The reference interpreter runs off the mutable network and never
    // records causes: both cause modes must reproduce its trace.
    ReferenceSimulator oracle(w.net);
    for (const auto& [id, t] : w.injections) oracle.inject_spike(id, t);
    RunResult oref;
    oref.stats = oracle.run(recording_config(false));
    oref.log = oracle.spike_log();
    oref.first = oracle.first_spikes();

    for (const bool causes : {false, true}) {
      const std::string what =
          "seed " + std::to_string(seed) + (causes ? " causes" : "");
      const RunResult ref = run_serial(narrow, w, causes);
      const RunResult wref = run_serial(wide, w, causes);
      const RunResult p = run_serial(packed, w, causes);
      expect_runs_eq(ref, oref, "narrow vs reference " + what);
      expect_runs_eq(wref, ref, "wide " + what);
      expect_runs_eq(p, ref, "packed " + what);
      EXPECT_EQ(p.stats.storage_encoding, 2);
      EXPECT_GT(p.stats.decode_blocks, 0u);
      EXPECT_EQ(ref.stats.decode_blocks, 0u);
    }
  }
}

TEST(PackedStorageFuzz, ParallelEngineAgrees) {
  Workload w = make_workload(0xAB, 220, 2000, 9);
  const CompiledNetwork packed(w.net, StoragePolicy::kPacked);
  const CompiledNetwork narrow(w.net, StoragePolicy::kNarrow);
  const RunResult ref = run_serial(narrow, w, true);

  for (const std::size_t shards : {std::size_t{1}, std::size_t{2},
                                   std::size_t{8}}) {
    ParallelConfig pcfg;
    pcfg.num_shards = shards;
    ParallelSimulator psim(packed, pcfg);
    for (const auto& [id, t] : w.injections) psim.inject_spike(id, t);
    const SimStats stats = psim.run(recording_config(true));
    EXPECT_EQ(stats.spikes, ref.stats.spikes) << "S=" << shards;
    EXPECT_EQ(stats.deliveries, ref.stats.deliveries) << "S=" << shards;
    EXPECT_EQ(stats.end_time, ref.stats.end_time) << "S=" << shards;
    EXPECT_EQ(stats.storage_encoding, 2) << "S=" << shards;
    EXPECT_EQ(sorted_log(psim.spike_log()), sorted_log(ref.log))
        << "S=" << shards;
    for (NeuronId i = 0; i < 220; ++i) {
      EXPECT_EQ(psim.first_spike(i), ref.first[i]) << "S=" << shards
                                                   << " neuron " << i;
    }
  }
}

// ---- Steady-state allocation-free contract ------------------------------

TEST(PackedStorage, SteadyStateRerunHasZeroPoolMisses) {
  Workload w = make_workload(0xB0, 160, 1400, 10);
  const CompiledNetwork packed(w.net, StoragePolicy::kPacked);
  Simulator sim(packed);
  for (const auto& [id, t] : w.injections) sim.inject_spike(id, t);
  const SimStats first = sim.run(recording_config(false));
  EXPECT_GT(first.decode_blocks, 0u);

  // Same-shaped rerun: the bucket pool AND the row-decode scratch are both
  // warm, so nothing allocates.
  sim.reset();
  for (const auto& [id, t] : w.injections) sim.inject_spike(id, t);
  const SimStats second = sim.run(recording_config(false));
  EXPECT_EQ(second.pool_misses, 0u);
  EXPECT_EQ(second.spikes, first.spikes);
  EXPECT_EQ(second.deliveries, first.deliveries);
  EXPECT_EQ(second.decode_blocks, first.decode_blocks);
}

// ---- Patch surface ------------------------------------------------------

TEST(PackedStorage, PatchWeightsWorksPatchDelaysRefuses) {
  Workload w = make_workload(0xC0, 80, 600, 6);
  CompiledNetwork packed(w.net, StoragePolicy::kPacked);
  CompiledNetwork narrow(w.net, StoragePolicy::kNarrow);

  // Weights stay a flat column under packing, so in-place weight patching
  // keeps working — and keeps matching the narrow oracle.
  const std::vector<std::pair<std::size_t, SynWeight>> edits = {
      {0, 2.0}, {7, -1.0}, {packed.num_synapses() - 1, 3.0}};
  packed.patch_weights(edits);
  narrow.patch_weights(edits);
  for (const auto& [k, v] : edits) {
    EXPECT_EQ(packed.syn_weight(k), v);
    EXPECT_EQ(narrow.syn_weight(k), v);
  }
  const RunResult p = run_serial(packed, w, false);
  const RunResult n = run_serial(narrow, w, false);
  expect_runs_eq(p, n, "after patch_weights");

  // Delay patching would have to re-run the delta packer (runs can merge or
  // split); the packed encoding refuses instead of silently re-encoding.
  EXPECT_THROW(packed.patch_delays({{0, 3}}), InvalidArgument);
  narrow.patch_delays({{0, 3}});  // the flat encodings keep the capability
}

// ---- Snapshot fingerprint -----------------------------------------------

TEST(PackedSnapshot, EncodingIsFingerprintedAndTyped) {
  Workload w = make_workload(0xD0, 100, 900, 8);
  const CompiledNetwork packed(w.net, StoragePolicy::kPacked);
  const CompiledNetwork narrow(w.net, StoragePolicy::kNarrow);

  Simulator src(packed);
  for (const auto& [id, t] : w.injections) src.inject_spike(id, t);
  src.run(recording_config(true));
  const std::vector<std::uint8_t> bytes = src.snapshot();

  // Same graph, flat freeze: the encoding flag alone must refuse the
  // restore, with the typed section tag (no string matching needed).
  Simulator flat(narrow);
  try {
    flat.restore(bytes);
    FAIL() << "packed snapshot restored into a narrow-frozen network";
  } catch (const SnapshotError& e) {
    EXPECT_EQ(e.typed_section(), SnapshotError::kFingerprint);
    EXPECT_EQ(e.section(), "fingerprint");
  }

  // A malformed stream that lies about the encoding is equally refused:
  // parse, flip the packed flag, re-serialize (parse_snapshot does no
  // semantic validation, so the forgery survives to validate_snapshot_for).
  SnapshotImage img = parse_snapshot(bytes);
  EXPECT_TRUE(img.widths.packed);
  img.widths.packed = false;
  const std::vector<std::uint8_t> forged = serialize_snapshot(img);
  Simulator target(packed);
  EXPECT_THROW(target.restore(forged), SnapshotError);

  // The honest stream restores into a packed-frozen simulator exactly.
  Simulator dst(packed);
  dst.restore(bytes);
  for (NeuronId i = 0; i < 100; ++i) {
    EXPECT_EQ(dst.first_spike(i), src.first_spike(i)) << "neuron " << i;
    EXPECT_EQ(dst.spike_count(i), src.spike_count(i)) << "neuron " << i;
  }
}

// ---- io text v3 ---------------------------------------------------------

std::vector<std::string> split_tokens(const std::string& text) {
  std::istringstream is(text);
  std::vector<std::string> toks;
  std::string t;
  while (is >> t) toks.push_back(t);
  return toks;
}

std::string join_tokens(const std::vector<std::string>& toks) {
  std::string out;
  for (const auto& t : toks) {
    out += t;
    out += ' ';
  }
  return out;
}

std::size_t find_token(const std::vector<std::string>& toks,
                       const std::string& want, std::size_t from = 0) {
  for (std::size_t i = from; i < toks.size(); ++i) {
    if (toks[i] == want) return i;
  }
  ADD_FAILURE() << "token '" << want << "' not found";
  return toks.size();
}

CompiledNetwork parse_text(const std::string& text) {
  std::istringstream is(text);
  return read_compiled_network(is);
}

TEST(PackedIo, V3RoundTripKeepsTheEncodingAndTheEvents) {
  Workload w = make_workload(0xE0, 120, 1000, 8);
  w.net.define_group("inputs", {0, 1, 2});
  const CompiledNetwork packed(w.net, StoragePolicy::kPacked);

  std::ostringstream os;
  write_network(os, packed);
  const std::string text = os.str();
  EXPECT_EQ(text.rfind("snn 3\n", 0), 0u) << "packed artifacts write v3";
  EXPECT_NE(text.find("storage packed target u32"), std::string::npos);

  const CompiledNetwork back = parse_text(text);
  EXPECT_TRUE(back.storage_widths().packed);
  EXPECT_EQ(back.storage_widths(), packed.storage_widths());
  EXPECT_EQ(back.num_neurons(), packed.num_neurons());
  EXPECT_EQ(back.num_synapses(), packed.num_synapses());
  EXPECT_EQ(back.csr_storage_bytes(), packed.csr_storage_bytes());
  EXPECT_EQ(back.group("inputs"), packed.group("inputs"));
  const RunResult a = run_serial(packed, w, false);
  const RunResult b = run_serial(back, w, false);
  expect_runs_eq(a, b, "io v3 round trip");

  // read_network (builder form) decodes through the verified compiled
  // artifact; re-freezing it flat must still agree event-for-event.
  std::istringstream is(text);
  Network builder = read_network(is);
  const CompiledNetwork flat(builder, StoragePolicy::kNarrow);
  EXPECT_FALSE(flat.storage_widths().packed);
  const RunResult c = run_serial(flat, w, false);
  expect_runs_eq(a, c, "io v3 via builder");

  // Non-packed artifacts keep writing version 2 byte-for-byte.
  std::ostringstream os2;
  write_network(os2, CompiledNetwork(w.net, StoragePolicy::kNarrow));
  EXPECT_EQ(os2.str().rfind("snn 2\n", 0), 0u);
}

TEST(PackedIo, HostilePackedInputsDieInValidation) {
  Workload w = make_workload(0xE1, 90, 800, 8);
  const CompiledNetwork packed(w.net, StoragePolicy::kPacked);
  std::ostringstream os;
  write_network(os, packed);
  const std::vector<std::string> good = split_tokens(os.str());
  ASSERT_NO_THROW(parse_text(join_tokens(good)));  // surgery baseline

  const std::size_t words_at = find_token(good, "words");
  const std::size_t nwords = std::stoul(good[words_at + 1]);
  ASSERT_GE(nwords, 1u) << "workload must produce at least one pack word";
  const std::size_t blocks_at = find_token(good, "blocks");

  // (1) Truncated block words: one word shaved off (header adjusted so the
  // token stream still parses) — the exact per-block word sum catches it.
  {
    std::vector<std::string> t = good;
    t[words_at + 1] = std::to_string(nwords - 1);
    t.erase(t.begin() + static_cast<std::ptrdiff_t>(words_at + 1 + nwords));
    EXPECT_THROW(parse_text(join_tokens(t)), InvalidArgument);
  }

  // (2) A block's bit width edited to 0: legal value, wrong word sum.
  {
    std::vector<std::string> t = good;
    std::size_t b = find_token(t, "b", blocks_at);
    while (b < t.size() && t[b + 2] == "0") b = find_token(t, "b", b + 1);
    ASSERT_LT(b, t.size());
    t[b + 2] = "0";
    EXPECT_THROW(parse_text(join_tokens(t)), InvalidArgument);
  }

  // (3) Bit width above 32: rejected outright, before any table is sized.
  {
    std::vector<std::string> t = good;
    const std::size_t b = find_token(t, "b", blocks_at);
    t[b + 2] = "33";
    EXPECT_THROW(parse_text(join_tokens(t)), InvalidArgument);
  }

  // (4) A block base pushed past the neuron count: every decoded target is
  // range-checked before the network is handed out.
  {
    std::vector<std::string> t = good;
    const std::size_t b = find_token(t, "b", blocks_at);
    t[b + 1] = std::to_string(packed.num_neurons());
    EXPECT_THROW(parse_text(join_tokens(t)), InvalidArgument);
  }
}

}  // namespace
}  // namespace sga::snn
