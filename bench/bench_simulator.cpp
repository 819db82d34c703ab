// google-benchmark microbenchmarks of the substrate itself: event-driven
// simulator throughput (deliveries/sec) across workload shapes, circuit
// evaluation latency, the spiking-SSSP end-to-end rate, the calendar queue
// across delay spreads (DESIGN.md §4), the synapse-layout comparison
// against the nested-vector ReferenceSimulator, the segmented fan-out
// kernel across delay-run lengths (ARCHITECTURE.md §1.6), plus the batched
// multi-source SSSP driver vs 64 fresh single-source runs.
#include <benchmark/benchmark.h>

#include <iostream>

#include "core/timer.h"
#include "obs/report.h"
#include "circuits/builder.h"
#include "circuits/harness.h"
#include "circuits/max_circuits.h"
#include "core/random.h"
#include "graph/dijkstra.h"
#include "graph/generators.h"
#include "nga/khop_poly.h"
#include "nga/sssp_batch.h"
#include "nga/sssp_event.h"
#include "snn/reference_sim.h"
#include "snn/simulator.h"

using namespace sga;

namespace {

void BM_SpikeChain(benchmark::State& state) {
  // A chain of relays: pure event-propagation throughput.
  const auto len = static_cast<std::size_t>(state.range(0));
  snn::Network net;
  for (std::size_t i = 0; i < len; ++i) net.add_threshold_neuron(1);
  for (std::size_t i = 0; i + 1 < len; ++i) {
    net.add_synapse(static_cast<NeuronId>(i), static_cast<NeuronId>(i + 1), 1,
                    1 + static_cast<Delay>(i % 7));
  }
  for (auto _ : state) {
    snn::Simulator sim(net);
    sim.inject_spike(0, 0);
    const auto st = sim.run();
    benchmark::DoNotOptimize(st.spikes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(len));
}
BENCHMARK(BM_SpikeChain)->Arg(1 << 10)->Arg(1 << 14)->Arg(1 << 17);

void BM_DenseFanout(benchmark::State& state) {
  // One source fanning out to many targets at staggered delays: stresses
  // bucket churn.
  const auto fan = static_cast<std::size_t>(state.range(0));
  snn::Network net;
  const NeuronId src = net.add_threshold_neuron(1);
  for (std::size_t i = 0; i < fan; ++i) {
    const NeuronId t = net.add_threshold_neuron(1);
    net.add_synapse(src, t, 1, 1 + static_cast<Delay>(i % 97));
  }
  for (auto _ : state) {
    snn::Simulator sim(net);
    sim.inject_spike(src, 0);
    benchmark::DoNotOptimize(sim.run().deliveries);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(fan));
}
BENCHMARK(BM_DenseFanout)->Arg(1 << 10)->Arg(1 << 15);

void BM_SpikingSssp(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(0xBEEF01 + n);
  const Graph g = make_random_graph(n, 8 * n, {1, 32}, rng);
  for (auto _ : state) {
    nga::SpikingSsspOptions opt;
    opt.source = 0;
    opt.record_parents = false;
    benchmark::DoNotOptimize(nga::spiking_sssp(g, opt).execution_time);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(8 * n));
}
BENCHMARK(BM_SpikingSssp)->Arg(256)->Arg(1024)->Arg(4096);

void BM_DijkstraReference(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Rng rng(0xBEEF02 + n);
  const Graph g = make_random_graph(n, 8 * n, {1, 32}, rng);
  for (auto _ : state) {
    benchmark::DoNotOptimize(dijkstra(g, 0).dist.data());
  }
}
BENCHMARK(BM_DijkstraReference)->Arg(256)->Arg(1024)->Arg(4096);

void BM_MaxCircuitEval(benchmark::State& state) {
  const int d = static_cast<int>(state.range(0));
  snn::Network net;
  circuits::CircuitBuilder cb(net);
  const auto c = circuits::build_max_wired_or(cb, d, 8);
  const snn::CompiledNetwork compiled = cb.freeze();  // pay validation once
  Rng rng(0xBEEF03);
  std::vector<std::uint64_t> vals(static_cast<std::size_t>(d));
  for (auto& v : vals) v = static_cast<std::uint64_t>(rng.uniform_int(0, 255));
  for (auto _ : state) {
    benchmark::DoNotOptimize(circuits::eval_max_circuit(compiled, c, vals));
  }
}
BENCHMARK(BM_MaxCircuitEval)->Arg(4)->Arg(16)->Arg(64);

void BM_KhopPolyGateLevel(benchmark::State& state) {
  const auto k = static_cast<std::uint32_t>(state.range(0));
  Rng rng(0xBEEF04);
  const Graph g = make_random_graph(16, 64, {1, 6}, rng);
  for (auto _ : state) {
    nga::KHopPolyOptions opt;
    opt.source = 0;
    opt.k = k;
    benchmark::DoNotOptimize(nga::khop_sssp_poly(g, opt).execution_time);
  }
}
BENCHMARK(BM_KhopPolyGateLevel)->Arg(2)->Arg(8);

// --- event queue (DESIGN.md §4) -----------------------------------------
// The REAL simulator on a dense-delay recurrent workload. Arg = max synapse
// delay: larger spread means more distinct live time buckets for the
// calendar ring to slot and scan. items/sec = synaptic deliveries processed
// per second, so the reported per-item time is ns/event.

snn::Network make_dense_delay_net(std::size_t n, std::size_t fan,
                                  Delay max_delay) {
  Rng rng(0xBEEF06);
  snn::Network net;
  for (std::size_t i = 0; i < n; ++i) net.add_threshold_neuron(1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t f = 0; f < fan; ++f) {
      net.add_synapse(static_cast<NeuronId>(i),
                      static_cast<NeuronId>(rng.uniform_int(
                          0, static_cast<std::int64_t>(n) - 1)),
                      1, rng.uniform_int(1, max_delay));
    }
  }
  return net;
}

void BM_SimQueueCalendar(benchmark::State& state) {
  const auto max_delay = static_cast<Delay>(state.range(0));
  const snn::Network net = make_dense_delay_net(512, 8, max_delay);
  std::uint64_t deliveries = 0;
  snn::Simulator sim(net);
  for (auto _ : state) {
    sim.reset();
    for (NeuronId i = 0; i < 8; ++i) sim.inject_spike(i, 0);
    snn::SimConfig cfg;
    cfg.max_time = 200 + 4 * max_delay;  // keep volume up at large spreads
    const auto st = sim.run(cfg);
    deliveries += st.deliveries;
    benchmark::DoNotOptimize(st.spikes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deliveries));
}
BENCHMARK(BM_SimQueueCalendar)->Arg(16)->Arg(64)->Arg(512);

// --- synapse-layout ablation (nested vectors vs CSR) --------------------
// The same dense-delay recurrent workload, two execution models, both
// constructing a fresh simulator per iteration so setup costs are charged
// equally:
//   NestedVector — ReferenceSimulator: per-neuron std::vector<Synapse>
//                  chased on every fired neuron, std::map bucket queue
//                  (the pre-compile() execution model);
//   CsrCalendar  — compiled network on the calendar queue: the production
//                  hot path end to end.
// items/sec = synaptic deliveries, so per-item time is ns/delivery.

void run_layout_ablation_reference(benchmark::State& state) {
  const auto max_delay = static_cast<Delay>(state.range(0));
  const snn::Network net = make_dense_delay_net(512, 8, max_delay);
  std::uint64_t deliveries = 0;
  for (auto _ : state) {
    snn::ReferenceSimulator sim(net);  // one-shot: rebuilt per iteration
    for (NeuronId i = 0; i < 8; ++i) sim.inject_spike(i, 0);
    snn::SimConfig cfg;
    cfg.max_time = 200 + 4 * max_delay;
    const auto st = sim.run(cfg);
    deliveries += st.deliveries;
    benchmark::DoNotOptimize(st.spikes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deliveries));
}

void run_layout_ablation_csr(benchmark::State& state) {
  const auto max_delay = static_cast<Delay>(state.range(0));
  const snn::CompiledNetwork net =
      make_dense_delay_net(512, 8, max_delay).compile();
  std::uint64_t deliveries = 0;
  for (auto _ : state) {
    snn::Simulator sim(net);
    for (NeuronId i = 0; i < 8; ++i) sim.inject_spike(i, 0);
    snn::SimConfig cfg;
    cfg.max_time = 200 + 4 * max_delay;
    const auto st = sim.run(cfg);
    deliveries += st.deliveries;
    benchmark::DoNotOptimize(st.spikes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deliveries));
}

void BM_SimLayoutNestedVector(benchmark::State& state) {
  run_layout_ablation_reference(state);
}
BENCHMARK(BM_SimLayoutNestedVector)->Arg(16)->Arg(64)->Arg(512);

void BM_SimLayoutCsrCalendar(benchmark::State& state) {
  run_layout_ablation_csr(state);
}
BENCHMARK(BM_SimLayoutCsrCalendar)->Arg(16)->Arg(64)->Arg(512);

// --- fire kernel across delay-run lengths -------------------------------
// ARCHITECTURE.md §1.6: the segmented kernel does one bucket_for() + one
// bulk SoA append per delay RUN. Arg = max synapse delay at fixed fan-out
// 64, so Arg is the expected number of runs per row and 64/Arg their
// length: small Arg = long runs (where segmentation collapses almost all
// queue traffic), Arg ≥ 512 degenerates toward one-synapse runs (the
// kernel's worst case). items/sec = deliveries, so per-item time is
// ns/delivery.

void BM_SimFanoutSegmented(benchmark::State& state) {
  const auto max_delay = static_cast<Delay>(state.range(0));
  const snn::CompiledNetwork net =
      make_dense_delay_net(512, 64, max_delay).compile();
  std::uint64_t deliveries = 0;
  snn::Simulator sim(net);
  for (auto _ : state) {
    sim.reset();
    for (NeuronId i = 0; i < 8; ++i) sim.inject_spike(i, 0);
    snn::SimConfig cfg;
    cfg.max_time = 50 + 4 * max_delay;
    const auto st = sim.run(cfg);
    deliveries += st.deliveries;
    benchmark::DoNotOptimize(st.spikes);
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(deliveries));
}
BENCHMARK(BM_SimFanoutSegmented)->Arg(8)->Arg(64)->Arg(512);

// --- batched multi-source SSSP vs 64 fresh runs -------------------------
// The batch driver builds the network once and reuses epoch-reset
// simulators; the fresh loop pays network construction + simulator
// allocation per source.

Graph batch_bench_graph() {
  Rng rng(0xBEEF07);
  return make_random_graph(256, 2048, {1, 32}, rng);
}

std::vector<VertexId> batch_bench_sources() {
  std::vector<VertexId> s(64);
  for (std::size_t i = 0; i < s.size(); ++i) s[i] = static_cast<VertexId>(i);
  return s;
}

void BM_SsspBatch64Sources(benchmark::State& state) {
  const Graph g = batch_bench_graph();
  const auto sources = batch_bench_sources();
  for (auto _ : state) {
    nga::SsspBatchOptions opt;
    benchmark::DoNotOptimize(
        nga::spiking_sssp_batch(g, sources, opt).runs.size());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sources.size()));
}
BENCHMARK(BM_SsspBatch64Sources);

void BM_SsspFresh64Sources(benchmark::State& state) {
  const Graph g = batch_bench_graph();
  const auto sources = batch_bench_sources();
  for (auto _ : state) {
    for (const VertexId s : sources) {
      nga::SpikingSsspOptions opt;
      opt.source = s;
      opt.record_parents = false;
      benchmark::DoNotOptimize(nga::spiking_sssp(g, opt).execution_time);
    }
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()) *
                          static_cast<std::int64_t>(sources.size()));
}
BENCHMARK(BM_SsspFresh64Sources);

// --- deterministic JSON summary (consumed by bench_compare) -------------
// google-benchmark's own numbers vary with iteration count and CPU load;
// the perf-trajectory gate instead wants a handful of FIXED workloads run
// once each, with the semantic observables (T, spikes, events) exactly
// reproducible across commits and only wall_ns subject to noise. That is
// what bench_compare's drift-vs-regression split keys on.

/// The derived throughput field: deliveries per wall-clock second.
/// bench_compare treats *_per_sec keys as noisy (wall-derived) with the
/// regression direction inverted.
double rate_per_sec(std::uint64_t events, std::uint64_t wall_ns) {
  return wall_ns == 0
             ? 0.0
             : static_cast<double>(events) * 1e9 / static_cast<double>(wall_ns);
}

void emit_summary(obs::BenchReport& report) {
  report.context("workload.dense_delay", "n=512 fan=8 seeds=8 horizon=456");
  report.context("workload.sssp", "n=256 m=2048 U=32 sources=64");
  report.context("workload.sssp_high_fanout", "n=512 m=32768 U=8 sources=64");

  // Dense-delay recurrent workload on the calendar queue, one
  // deterministic run.
  {
    const snn::CompiledNetwork dense =
        make_dense_delay_net(512, 8, 64).compile();
    snn::Simulator sim(dense);
    for (NeuronId i = 0; i < 8; ++i) sim.inject_spike(i, 0);
    snn::SimConfig cfg;
    cfg.max_time = 200 + 4 * 64;
    WallTimer w;
    const auto st = sim.run(cfg);
    const auto wall = static_cast<std::uint64_t>(w.seconds() * 1e9);
    report.record("dense_delay/calendar")
        .T(st.end_time)
        .spikes(st.spikes)
        .events(st.deliveries)
        .wall_ns(wall)
        .set("deliveries_per_sec", rate_per_sec(st.deliveries, wall))
        .set("event_times", st.event_times)
        .set("peak_queue_events", st.peak_queue_events);
  }

  // Single-source spiking SSSP: all four canonical observables.
  const Graph g = batch_bench_graph();
  {
    nga::SpikingSsspOptions opt;
    opt.source = 0;
    opt.record_parents = false;
    WallTimer w;
    const auto r = nga::spiking_sssp(g, opt);
    const auto wall = static_cast<std::uint64_t>(w.seconds() * 1e9);
    report.record("sssp/single")
        .T(r.execution_time)
        .spikes(r.sim.spikes)
        .events(r.sim.deliveries)
        .wall_ns(wall)
        .set("deliveries_per_sec", rate_per_sec(r.sim.deliveries, wall));
  }

  // High-fan-out SSSP: 32 out-edges per vertex over only 8 distinct
  // lengths, so each relay's fan-out is a few long delay runs — the
  // workload the segmented kernel exists for. The network is compiled
  // OUTSIDE the timer and a 64-source sweep reuses one simulator through
  // reset(), so wall_ns measures the simulation hot path (and the
  // steady-state bucket pool), not graph loading.
  {
    Rng rng(0xBEEF08);
    const Graph hg = make_random_graph(512, 32768, {1, 8}, rng);
    const snn::CompiledNetwork hnet = nga::build_sssp_network(hg).compile();
    snn::Simulator sim(hnet);
    std::uint64_t spikes = 0, deliveries = 0;
    Time t_sum = 0;
    snn::SimStats last;
    // One throwaway source outside the timer: fills the bucket pool so
    // the timed sweep runs allocation-free, like the batch driver.
    sim.inject_spike(0, 0);
    sim.run();
    WallTimer w;
    for (VertexId s = 0; s < 64; ++s) {
      sim.reset();
      sim.inject_spike(s, 0);
      last = sim.run();
      spikes += last.spikes;
      deliveries += last.deliveries;
      t_sum += last.end_time;
    }
    const auto wall = static_cast<std::uint64_t>(w.seconds() * 1e9);
    report.record("sssp/high_fanout/segmented")
        .T(t_sum)
        .spikes(spikes)
        .events(deliveries)
        .wall_ns(wall)
        .set("deliveries_per_sec", rate_per_sec(deliveries, wall))
        .set("fanout_segments", last.fanout_segments)
        .set("bulk_appends", last.bulk_appends)
        .set("pool_misses", last.pool_misses);
  }

  // Batched 64-source sweep with the driver's merged metrics attached.
  // Thread count pinned: hardware_concurrency() would leak the runner's
  // core count into threads_used / batch.workers, and bench_compare now
  // fails on any semantic drift.
  {
    obs::MetricsRegistry reg;
    nga::SsspBatchOptions opt;
    opt.num_threads = 2;
    opt.metrics = &reg;
    WallTimer w;
    const auto r = nga::spiking_sssp_batch(g, batch_bench_sources(), opt);
    std::uint64_t spikes = 0, deliveries = 0;
    Time t_sum = 0;
    for (const auto& run : r.runs) {
      spikes += run.sim.spikes;
      deliveries += run.sim.deliveries;
      t_sum += run.execution_time;
    }
    const auto wall = static_cast<std::uint64_t>(w.seconds() * 1e9);
    report.record("sssp/batch64")
        .T(t_sum)  // summed Definition-3 times: deterministic per commit
        .spikes(spikes)
        .events(deliveries)
        .wall_ns(wall)
        .set("deliveries_per_sec", rate_per_sec(deliveries, wall))
        .set("threads_used", static_cast<std::uint64_t>(r.threads_used));
    report.metrics(reg);
  }
}

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  obs::BenchReport report("simulator");
  emit_summary(report);
  const std::string path = report.write();
  if (!path.empty()) std::cout << "wrote " << path << "\n";
  return 0;
}
