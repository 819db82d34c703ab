// Serial-vs-sharded simulator benchmark on a bench-scale SSSP instance
// (ISSUE 4 acceptance workload). Edge lengths are drawn from [8, 64], so
// every synapse delay — and therefore the conservative cross-shard
// lookahead δ — is at least 8 steps: shards run 8+ steps between barriers,
// which is the regime the windowed design targets.
//
// Two layers, as in bench_simulator:
//   * google-benchmark microbenchmarks (BM_*) for interactive tuning runs;
//   * a deterministic one-shot summary emitted to BENCH_parallel_sim.json
//     for the bench_compare trajectory. Shard AND thread counts are pinned
//     (never derived from std::thread::hardware_concurrency()), so the
//     semantic observables — T, spikes, events, windows, the cut
//     statistics — are machine-independent; only wall_ns is noise. The
//     serial record and every parallel record must agree on T/spikes/
//     events, which makes the trajectory file itself a standing drift
//     check on the exactness contract.
//
// Timing discipline (ISSUE 9): every record times sim.run() ONLY — the
// network build, partitioning, shard split, and injections happen outside
// the timed region (the persistent-service design compiles once and runs
// many times, so steady-state run cost is the number that matters). The
// machine's hardware_concurrency is recorded in the context: wall numbers
// from different core counts are not comparable, and bench_compare
// downgrades *_ns/*_per_sec checks to informational when the counts
// differ. The s4/lpt record flips the engine's one knob, the
// partitioner, at S = 4.
//
// Set SGA_REQUIRE_PARALLEL_WIN=1 (multi-core CI lane) to exit non-zero
// unless the default s4 configuration beats the serial engine's wall
// clock; on boxes with fewer than 4 cores the check is skipped.
#include <benchmark/benchmark.h>

#include <cstdlib>
#include <iostream>
#include <thread>

#include "core/random.h"
#include "core/timer.h"
#include "graph/generators.h"
#include "nga/sssp_event.h"
#include "obs/metrics.h"
#include "obs/report.h"
#include "snn/parallel_sim.h"
#include "snn/simulator.h"

using namespace sga;

namespace {

// Bench-scale SSSP instance: 20k vertices, 160k edges, lengths in [8, 64]
// (δ_cross ≥ 8). Built once and compiled once; both engines share the
// frozen network.
constexpr std::size_t kVertices = 20'000;
constexpr std::size_t kEdges = 160'000;

const snn::CompiledNetwork& sssp_network() {
  static const snn::CompiledNetwork net = [] {
    Rng rng(0xBEEF08);
    const Graph g = make_random_graph(kVertices, kEdges, {8, 64}, rng);
    return nga::build_sssp_network(g).compile();
  }();
  return net;
}

struct TimedRun {
  snn::SimStats stats;
  std::uint64_t wall_ns = 0;
};

/// Steady-state serial run: construction and injection outside the timer.
TimedRun run_serial() {
  snn::Simulator sim(sssp_network());
  sim.inject_spike(0, 0);
  WallTimer w;
  TimedRun r;
  r.stats = sim.run();
  r.wall_ns = static_cast<std::uint64_t>(w.seconds() * 1e9);
  return r;
}

/// Steady-state parallel run: partitioning, the shard split, and the
/// injection happen before the timer starts; only run() is timed.
TimedRun run_parallel(const snn::ParallelConfig& pcfg,
                      obs::MetricsRegistry* metrics = nullptr) {
  snn::ParallelSimulator sim(sssp_network(), pcfg);
  sim.inject_spike(0, 0);
  const obs::ScopedThreadMetrics install(metrics);
  WallTimer w;
  TimedRun r;
  r.stats = sim.run();
  r.wall_ns = static_cast<std::uint64_t>(w.seconds() * 1e9);
  return r;
}

snn::ParallelConfig make_config(std::size_t shards) {
  snn::ParallelConfig pcfg;
  pcfg.num_shards = shards;
  pcfg.num_threads = static_cast<unsigned>(shards);
  return pcfg;
}

void BM_SsspSerialCalendar(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_serial().stats.spikes);
  }
}
BENCHMARK(BM_SsspSerialCalendar);

void BM_SsspParallelShards(benchmark::State& state) {
  // Arg = shard count; threads pinned equal to shards.
  const auto s = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_parallel(make_config(s)).stats.spikes);
  }
}
BENCHMARK(BM_SsspParallelShards)->Arg(1)->Arg(2)->Arg(4)->Arg(8);

// --- deterministic JSON summary (consumed by bench_compare) -------------

/// Derived throughput: deliveries per wall second. bench_compare treats
/// *_per_sec keys as noisy with the regression direction inverted.
double rate_per_sec(std::uint64_t events, std::uint64_t wall_ns) {
  return wall_ns == 0
             ? 0.0
             : static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns);
}

std::size_t count_cross_synapses(const snn::CompiledNetwork& net,
                                 const snn::Partition& p) {
  std::size_t cross = 0;
  for (NeuronId id = 0; id < net.num_neurons(); ++id) {
    for (std::size_t k = net.out_begin(id); k < net.out_end(id); ++k) {
      cross += p.shard_of[id] != p.shard_of[net.syn_target(k)] ? 1 : 0;
    }
  }
  return cross;
}

/// One parallel record: semantic observables (machine-independent) plus
/// the noisy wall/rate pair. `name` is the bench_compare join key.
void record_parallel(obs::BenchReport& report, const std::string& name,
                     const snn::ParallelConfig& pcfg,
                     std::uint64_t* wall_out = nullptr) {
  // Partition statistics come from an untimed probe simulator so the
  // record describes the exact layout the timed run used.
  snn::ParallelSimulator probe(sssp_network(), pcfg);
  const snn::Partition& part = probe.partition();

  obs::MetricsRegistry reg;
  const TimedRun r = run_parallel(pcfg, &reg);
  if (wall_out != nullptr) *wall_out = r.wall_ns;
  report.record(name)
      .T(r.stats.end_time)
      .spikes(r.stats.spikes)
      .events(r.stats.deliveries)
      .wall_ns(r.wall_ns)
      .set("deliveries_per_sec", rate_per_sec(r.stats.deliveries, r.wall_ns))
      .set("event_times", r.stats.event_times)
      .set("windows", reg.counter("psim.windows"))
      .set("threads", static_cast<std::uint64_t>(pcfg.num_threads))
      .set("cross_synapses",
           static_cast<std::uint64_t>(count_cross_synapses(sssp_network(), part)))
      .set("min_cross_delay",
           static_cast<std::int64_t>(
               partition_min_cross_delay(sssp_network(), part)));
}

/// Returns {serial wall, default-s4 wall} for the SGA_REQUIRE_PARALLEL_WIN
/// gate.
std::pair<std::uint64_t, std::uint64_t> emit_summary(obs::BenchReport& report) {
  report.context("workload.sssp",
                 "n=20000 m=160000 lengths=[8,64] source=0 seed=0xBEEF08");
  report.context("pinning",
                 "threads = shards, pinned per record (never hardware)");
  report.context("timing", "sim.run() only; build/partition/inject untimed");
  report.context("hardware_concurrency",
                 static_cast<std::uint64_t>(
                     std::thread::hardware_concurrency()));

  // Warm-up: force the lazy network build + one full run outside every
  // timer, so the serial record does not pay construction and first-touch
  // page faults that the later records skip.
  (void)run_serial();

  std::uint64_t serial_wall = 0;
  {
    const TimedRun r = run_serial();
    serial_wall = r.wall_ns;
    report.record("sssp/serial")
        .T(r.stats.end_time)
        .spikes(r.stats.spikes)
        .events(r.stats.deliveries)
        .wall_ns(r.wall_ns)
        .set("deliveries_per_sec",
             rate_per_sec(r.stats.deliveries, r.wall_ns))
        .set("event_times", r.stats.event_times);
  }

  // Shard sweep under the default kCutRefined partition.
  std::uint64_t s4_wall = 0;
  for (const std::size_t s : {std::size_t{1}, std::size_t{2}, std::size_t{4},
                              std::size_t{8}}) {
    record_parallel(report, "sssp/parallel/s" + std::to_string(s),
                    make_config(s), s == 4 ? &s4_wall : nullptr);
  }

  // The edge-blind partitioner at S = 4.
  {
    snn::ParallelConfig pcfg = make_config(4);
    pcfg.partition = snn::PartitionKind::kLpt;
    record_parallel(report, "sssp/parallel/s4/lpt", pcfg);
  }
  return {serial_wall, s4_wall};
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obs::BenchReport report("parallel_sim");
  const auto [serial_wall, s4_wall] = emit_summary(report);
  const std::string path = report.write();
  if (!path.empty()) std::cout << "wrote " << path << "\n";

  // Multi-core acceptance gate (ISSUE 9): on a ≥ 4-core runner the default
  // s4 configuration must beat the serial engine's steady-state wall clock.
  const char* require = std::getenv("SGA_REQUIRE_PARALLEL_WIN");
  if (require != nullptr && require[0] == '1') {
    const unsigned cores = std::thread::hardware_concurrency();
    if (cores < 4) {
      std::cout << "parallel-win gate: skipped (" << cores
                << " hardware threads < 4)\n";
    } else if (s4_wall >= serial_wall) {
      std::cerr << "parallel-win gate: FAILED — s4 " << s4_wall
                << " ns >= serial " << serial_wall << " ns on " << cores
                << " hardware threads\n";
      return 1;
    } else {
      std::cout << "parallel-win gate: ok — s4 " << s4_wall
                << " ns < serial " << serial_wall << " ns ("
                << static_cast<double>(serial_wall) /
                       static_cast<double>(s4_wall)
                << "x)\n";
    }
  }
  return 0;
}
