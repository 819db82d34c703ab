// Million-neuron streamed-build scale lane (ARCHITECTURE.md §1.8; the
// ISSUE 7 acceptance workloads): two n ≈ 10^6, m ≈ 10^7 instances — a
// relay chain and an R-MAT (Graph500-style skewed) graph — are frozen
// straight from their generators into the narrow (kAuto, which selects
// narrow at this scale) and wide (kWide) CSR layouts, then SSSP runs to
// completion on each.
//
// Emitted to BENCH_scale.json for the bench_compare trajectory. Semantic
// keys — n, m, csr_bytes, bytes_per_synapse, peak_resident_bytes,
// storage_encoding, decode_blocks, T, spikes, events — are
// machine-independent (the streams replay from fixed seeds and narrowing
// is value-preserving), so any change is DRIFT and blocks. Freeze/run wall
// time and the derived deliveries_per_sec use the *_ns / *_per_sec
// suffixes bench_compare treats as noise-tolerant. The narrow SSSP run
// repeats kTimedRuns times and reports its median run_ns; the wide oracle
// runs once.
//
// Hard gates (exit 1):
//   * kAuto selects narrow at this scale; kWide stays wide;
//   * the narrow freeze must be ≥ 30% smaller than the wide one;
//   * every relay vertex fires exactly once (SSSP completed);
//   * narrow and wide runs agree event-for-event on both instances, and
//     every repeated narrow run agrees with its first.
#include <cstdint>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "core/stats.h"
#include "core/timer.h"
#include "graph/generators.h"
#include "nga/sssp_event.h"
#include "obs/report.h"
#include "snn/simulator.h"

using namespace sga;

namespace {

constexpr std::size_t kN = 1000000;
constexpr std::size_t kExtraPerVertex = 8;
constexpr std::size_t kMaxSkip = 1000;
constexpr std::uint64_t kSeed = 0x5CA1E;
constexpr WeightRange kWeights{1, 16};

constexpr int kTimedRuns = 5;  ///< repeated narrow runs, odd

constexpr std::size_t kRmatScale = 20;  // n = 2^20 = 1048576
constexpr std::size_t kRmatEdges = 10000000;
constexpr std::uint64_t kRmatSeed = 0x5CA1E2;

void relay_edges(const EdgeStream& emit) {
  stream_relay_chain(kN, kExtraPerVertex, kMaxSkip, kWeights, kSeed, emit);
}

void rmat_edges(const EdgeStream& emit) {
  stream_rmat(kRmatScale, kRmatEdges, 0.57, 0.19, 0.19, kWeights, kRmatSeed,
              emit);
}

struct Frozen {
  snn::CompiledNetwork net;
  snn::StreamBuildStats build;
  std::uint64_t freeze_ns = 0;
};

Frozen freeze(std::size_t n, void (*edges)(const EdgeStream&),
              snn::StoragePolicy policy) {
  WallTimer w;
  snn::StreamBuildStats bs;
  snn::CompiledNetwork net = nga::compile_sssp_streamed(n, edges, policy, &bs);
  return Frozen{std::move(net), bs,
                static_cast<std::uint64_t>(w.seconds() * 1e9)};
}

struct Solved {
  snn::SimStats stats;
  std::uint64_t run_ns = 0;
};

Solved solve(const snn::CompiledNetwork& net) {
  snn::Simulator sim(net);
  sim.inject_spike(0, 0);
  WallTimer w;
  Solved s;
  s.stats = sim.run();
  s.run_ns = static_cast<std::uint64_t>(w.seconds() * 1e9);
  return s;
}

double rate_per_sec(std::uint64_t count, std::uint64_t wall_ns) {
  return wall_ns == 0
             ? 0.0
             : static_cast<double>(count) * 1e9 / static_cast<double>(wall_ns);
}

void record_freeze(obs::BenchReport& report, const std::string& name,
                   const Frozen& f) {
  report.record(name)
      .set("n", static_cast<std::uint64_t>(f.build.num_neurons))
      .set("m", static_cast<std::uint64_t>(f.build.num_synapses))
      .set("csr_bytes", static_cast<std::uint64_t>(f.build.csr_bytes))
      .set("peak_resident_bytes",
           static_cast<std::uint64_t>(f.build.peak_resident_bytes))
      .set("bytes_per_synapse", f.net.bytes_per_synapse())
      .set("storage_encoding", static_cast<std::uint64_t>(snn::encoding_code(
                                   f.net.storage_widths())))
      .set("freeze_ns", f.freeze_ns);
}

void record_run(obs::BenchReport& report, const std::string& name,
                const Solved& s) {
  report.record(name)
      .T(s.stats.end_time)
      .spikes(s.stats.spikes)
      .events(s.stats.deliveries)
      .set("decode_blocks", s.stats.decode_blocks)
      .set("run_ns", s.run_ns)
      .set("deliveries_per_sec", rate_per_sec(s.stats.deliveries, s.run_ns));
}

/// True when encoding matches; complains and fails otherwise.
bool expect_encoding(const char* lane, const Frozen& f,
                     std::uint8_t want_code) {
  const std::uint8_t got = snn::encoding_code(f.net.storage_widths());
  if (got == want_code) return true;
  std::cerr << "bench_scale: " << lane << " froze as "
            << snn::encoding_name(f.net.storage_widths())
            << " (code " << static_cast<int>(got) << "), expected code "
            << static_cast<int>(want_code) << "\n";
  return false;
}

bool runs_agree(const char* what, const Solved& a, const Solved& b) {
  if (a.stats.spikes == b.stats.spikes &&
      a.stats.deliveries == b.stats.deliveries &&
      a.stats.event_times == b.stats.event_times &&
      a.stats.end_time == b.stats.end_time) {
    return true;
  }
  std::cerr << "bench_scale: " << what << " runs disagree\n";
  return false;
}

/// Solve `net` kTimedRuns times; the result carries the median run_ns.
/// False when a repeat disagrees with the first run (the runs are
/// deterministic).
bool solve_median(const snn::CompiledNetwork& net, Solved* out) {
  std::vector<double> ns;
  for (int r = 0; r < kTimedRuns; ++r) {
    const Solved run = solve(net);
    if (r == 0) {
      *out = run;
    } else if (!runs_agree("repeated", run, *out)) {
      return false;
    }
    ns.push_back(static_cast<double>(run.run_ns));
  }
  out->run_ns = static_cast<std::uint64_t>(median(std::move(ns)));
  return true;
}

struct Instance {
  const char* tag;           ///< record-name segment ("" for relay)
  std::size_t n;
  void (*edges)(const EdgeStream&);
  Frozen narrow, wide;
  Solved sn, sw;
};

}  // namespace

int main() {
  obs::BenchReport report("scale");
  report.context("workload",
                 "streamed relay chain n=1e6 extra_per_vertex=8 "
                 "max_skip=1000 lengths=[1,16] seed=0x5CA1E; rmat scale=20 "
                 "m=1e7 (a,b,c)=(0.57,0.19,0.19) lengths=[1,16] "
                 "seed=0x5CA1E2");
  report.context("paths", "generator -> compile_streamed; no Graph, no "
                          "nested-vector Network ever materialized; narrow "
                          "lane freezes under kAuto (selects narrow at this "
                          "scale)");

  Instance relay{"", kN, relay_edges, {}, {}, {}, {}};
  Instance rmat{"rmat/", std::size_t{1} << kRmatScale, rmat_edges, {}, {},
                {}, {}};

  bool ok = true;
  for (Instance* inst : {&relay, &rmat}) {
    inst->narrow = freeze(inst->n, inst->edges, snn::StoragePolicy::kAuto);
    inst->wide = freeze(inst->n, inst->edges, snn::StoragePolicy::kWide);
    ok = expect_encoding("kAuto-at-scale", inst->narrow, 1) && ok;
    ok = expect_encoding("kWide", inst->wide, 0) && ok;
  }
  if (!ok) return 1;

  if (relay.narrow.build.num_synapses < 8000000 + kN) {
    std::cerr << "bench_scale: only " << relay.narrow.build.num_synapses
              << " synapses — below the m >= 8e6 acceptance floor\n";
    return 1;
  }
  const auto nb = static_cast<double>(relay.narrow.build.csr_bytes);
  const auto wb = static_cast<double>(relay.wide.build.csr_bytes);
  if (nb > 0.7 * wb) {
    std::cerr << "bench_scale: narrow freeze " << relay.narrow.build.csr_bytes
              << " B is not >= 30% smaller than wide "
              << relay.wide.build.csr_bytes << " B\n";
    return 1;
  }
  for (Instance* inst : {&relay, &rmat}) {
    const std::string base = std::string("scale/") + inst->tag;
    record_freeze(report, base + "freeze/narrow", inst->narrow);
    record_freeze(report, base + "freeze/wide", inst->wide);

    if (!solve_median(inst->narrow.net, &inst->sn)) return 1;
    inst->sw = solve(inst->wide.net);
    if (!runs_agree((base + "narrow-vs-wide").c_str(), inst->sn, inst->sw)) {
      return 1;
    }
    record_run(report, base + "sssp/narrow", inst->sn);
    record_run(report, base + "sssp/wide", inst->sw);
  }
  if (relay.sn.stats.spikes != kN) {
    std::cerr << "bench_scale: " << relay.sn.stats.spikes
              << " spikes, expected " << kN << " (SSSP did not complete)\n";
    return 1;
  }

  for (const Instance* inst : {&relay, &rmat}) {
    const char* tag = inst->tag[0] ? "rmat" : "relay";
    std::cout << tag << ": n=" << inst->n
              << " m=" << inst->narrow.build.num_synapses << "\n  narrow "
              << inst->narrow.build.csr_bytes << " B ("
              << inst->narrow.net.bytes_per_synapse() << " B/syn), wide "
              << inst->wide.build.csr_bytes << " B\n"
              << "  sssp T=" << inst->sn.stats.end_time
              << " spikes=" << inst->sn.stats.spikes
              << " deliveries=" << inst->sn.stats.deliveries << "\n  narrow "
              << rate_per_sec(inst->sn.stats.deliveries, inst->sn.run_ns)
              << " deliveries/sec, wide "
              << rate_per_sec(inst->sw.stats.deliveries, inst->sw.run_ns)
              << " deliveries/sec\n";
  }
  const std::string path = report.write();
  if (!path.empty()) std::cout << "wrote " << path << "\n";
  return 0;
}
