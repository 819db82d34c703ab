// sssp_scale and sssp_sharded: all-destination spiking SSSP with parents
// on one R-MAT graph, through a reusable serial Simulator (sssp_scale) or
// a reusable 2-shard ParallelSimulator on one thread (sssp_sharded). Both
// workloads build identical inputs from the seed and query the same
// sources in the same order, so their rows compare the engines directly.
#include <algorithm>
#include <cstdio>
#include <memory>
#include <optional>
#include <unordered_set>

#include "common.h"
#include "core/stats.h"
#include "graph/generators.h"
#include "nga/sssp_event.h"
#include "obs/metrics.h"
#include "reference.h"
#include "snn/parallel_sim.h"
#include "snn/simulator.h"

namespace perfbench {
namespace {

using sga::Graph;
using sga::Time;
using sga::VertexId;
using sga::Weight;
using sga::snn::CompiledNetwork;
using sga::snn::ParallelSimulator;
using sga::snn::SimStats;
using sga::snn::Simulator;

// One Graph500-style R-MAT graph: just large enough that the kAuto freeze
// picks the packed encoding (16,384 edges + 1,024 self-inhibition synapses
// >= 16,384), small enough that a query's working set stays in the
// per-core L2. At scale 12 (45,056 synapses) the simulator's round times
// swung 2x within a run on the shared host, against 1.3x for the reference
// (README.md, "Noise and bounds").
constexpr std::size_t kScale = 10;
constexpr std::size_t kVertices = std::size_t{1} << kScale;
constexpr std::size_t kEdges = 16 * kVertices;
constexpr double kA = 0.57, kB = 0.19, kC = 0.19;
constexpr sga::WeightRange kLengths{1, 16};
// Distinct sources, queried round-robin; a run repeats each many times.
constexpr std::size_t kSources = 100;
constexpr std::size_t kShards = 2;
// One worker thread: the engine then runs the shards' windows in turn on
// the calling thread. With two, run() starts two threads per query and
// meets at a barrier every window (41 per query here); on the shared host
// each wake-up of an idle virtual CPU cost up to milliseconds, and
// same-code runs spread 0.2-0.6 (README.md, "Noise and bounds").
constexpr unsigned kThreads = 1;

struct Setup {
  Graph graph;
  std::vector<VertexId> sources;
  std::unique_ptr<CompiledNetwork> net;
  std::unique_ptr<Simulator> sim;
  std::unique_ptr<ParallelSimulator> psim;
  SetupTimes times;
};

struct Query {
  bool traced = false;
  double latency_ms = 0;  ///< the four library calls
  SimStats stats;
  Time T = 0;
  std::uint64_t dist_hash = 0, parent_hash = 0;
  // Traced queries only.
  double reset_us = 0, run_ms = 0, readout_us = 0;
  std::uint64_t windows = 0, steals = 0;
};

/// What a traced run keeps of one query.
struct Sample {
  std::size_t source = 0;  ///< index into Setup::sources
  bool traced = false;
  double latency_ms = 0;
  double cost_ms = 0;  ///< the whole loop iteration, tracing work included
  double reset_us = 0, run_ms = 0, readout_us = 0;  ///< traced queries only
};

std::vector<VertexId> draw_sources(const Graph& g, std::uint64_t seed) {
  sga::Rng rng(seed);
  std::vector<VertexId> out;
  std::unordered_set<VertexId> seen;
  while (out.size() < kSources) {
    const auto v = static_cast<VertexId>(
        rng.uniform_int(0, static_cast<std::int64_t>(g.num_vertices()) - 1));
    if (g.out_degree(v) > 0 && seen.insert(v).second) out.push_back(v);
  }
  return out;
}

// Span names per engine, so the self-time table separates the layers.
struct Names {
  const char* reset;
  const char* inject;
  const char* run;
};
constexpr Names kSerialNames{"sim.reset", "sim.inject_spike", "sim.run"};
constexpr Names kShardedNames{"psim.reset", "psim.inject_spike", "psim.run"};

// reset -> inject -> run -> read_sssp_solution on a reusable engine. The
// latency covers exactly these four calls; with a tracer each call gets a
// span under one "query" root.
template <typename Engine>
Query run_query(Engine& engine, const Graph& g, VertexId source,
                std::vector<Weight>& dist, std::vector<VertexId>& parent,
                Tracer* tracer, const Names& names) {
  sga::snn::SimConfig cfg;
  cfg.record_causes = true;
  Query q;
  q.traced = tracer != nullptr;
  const Clock::time_point t0 = Clock::now();
  engine.reset();
  const Clock::time_point t1 = q.traced ? Clock::now() : t0;
  engine.inject_spike(source, 0);
  const Clock::time_point t2 = q.traced ? Clock::now() : t0;
  q.stats = engine.run(cfg);
  const Clock::time_point t3 = q.traced ? Clock::now() : t0;
  q.T = sga::nga::read_sssp_solution(engine, g, source, true, dist, parent);
  const Clock::time_point t4 = Clock::now();
  q.latency_ms = ms_between(t0, t4);
  q.dist_hash = hash_values(dist);
  q.parent_hash = hash_values(parent);
  if (q.traced) {
    const std::uint64_t root = tracer->record("query", 0, t0, t4);
    tracer->record(names.reset, root, t0, t1);
    tracer->record(names.inject, root, t1, t2);
    tracer->record(names.run, root, t2, t3);
    tracer->record("nga.readout", root, t3, t4);
    q.reset_us = ms_between(t0, t1) * 1e3;
    q.run_ms = ms_between(t2, t3);
    q.readout_us = ms_between(t3, t4) * 1e3;
  }
  return q;
}

std::unique_ptr<Setup> build_setup(std::uint64_t seed, bool sharded,
                                   Tracer* tracer) {
  auto s = std::make_unique<Setup>();
  const ScopedSpan root(tracer, "setup");
  const Clock::time_point t0 = Clock::now();
  {
    const ScopedSpan span(tracer, "graph.generate", root.id());
    s->graph = Graph(kVertices);
    sga::stream_rmat(kScale, kEdges, kA, kB, kC, kLengths,
                     derive_seed(seed, 1),
                     [&g = s->graph](VertexId u, VertexId v, Weight w) {
                       g.add_edge(u, v, w);
                     });
    s->sources = draw_sources(s->graph, derive_seed(seed, 2));
  }
  const Clock::time_point t1 = Clock::now();
  {
    const ScopedSpan span(tracer, "snn.freeze", root.id());
    s->net = std::make_unique<CompiledNetwork>(sga::nga::compile_sssp_streamed(
        kVertices, [&g = s->graph](const sga::EdgeStream& emit) {
          for (const sga::Edge& e : g.edges()) emit(e.from, e.to, e.length);
        }));
  }
  const Clock::time_point t2 = Clock::now();
  if (sharded) {
    const ScopedSpan span(tracer, "partition.build", root.id());
    sga::snn::ParallelConfig cfg;
    cfg.num_shards = kShards;
    cfg.num_threads = kThreads;
    s->psim = std::make_unique<ParallelSimulator>(*s->net, cfg);
  } else {
    s->sim = std::make_unique<Simulator>(*s->net);
  }
  const Clock::time_point t3 = Clock::now();
  {
    // One query warms the bucket pools and decode scratch.
    const ScopedSpan span(tracer, "warmup", root.id());
    std::vector<Weight> dist;
    std::vector<VertexId> parent;
    if (sharded) {
      run_query(*s->psim, s->graph, s->sources[0], dist, parent, nullptr,
                kShardedNames);
    } else {
      run_query(*s->sim, s->graph, s->sources[0], dist, parent, nullptr,
                kSerialNames);
    }
  }
  const Clock::time_point t4 = Clock::now();
  s->times.generate_ms = ms_between(t0, t1);
  s->times.freeze_ms = ms_between(t1, t2);
  s->times.partition_ms = sharded ? ms_between(t2, t3) : 0.0;
  s->times.total_s = ms_between(t0, t4) / 1e3;
  return s;
}

bool same_work(const Query& a, const Query& b) {
  return a.stats.spikes == b.stats.spikes &&
         a.stats.deliveries == b.stats.deliveries &&
         a.stats.event_times == b.stats.event_times && a.T == b.T &&
         a.dist_hash == b.dist_hash && a.parent_hash == b.parent_hash;
}

}  // namespace

RunResult run_sssp(const Options& opt, bool sharded) {
  const char* name = sharded ? "sssp_sharded" : "sssp_scale";
  const Names& names = sharded ? kShardedNames : kSerialNames;
  Tracer tracer(opt.trace);
  Tracer* const setup_tracer = opt.trace ? &tracer : nullptr;

  // ---- setup: extra ones in child processes, then the one that serves
  // the timed phase -------------------------------------------------------
  std::vector<SetupTimes> setups = time_setups_in_children(
      [&] { return build_setup(opt.seed, sharded, nullptr)->times; });
  const std::unique_ptr<Setup> setup =
      build_setup(opt.seed, sharded, setup_tracer);
  setups.push_back(setup->times);
  const Graph& g = setup->graph;

  // ---- timed phase: closed loop, one query at a time -------------------
  // Round-robin over the sources; a round is one query per source. Each
  // query is followed by the reference Dijkstra from the same source
  // (reference.h). The first answer of each source is checked against
  // Dijkstra right away, and every repeat against the first answer, outside
  // the latency spans. Traced runs trace alternate rounds; comparing the
  // iteration cost of traced and untraced rounds (span recording and the
  // metrics registry included) gives the tracing overhead. Only a traced
  // run keeps per-query records, so an untraced run's peak_rss_mb does not
  // grow with the number of queries.
  ReferenceSssp reference(g);
  RoundStats rounds;
  std::vector<Sample> samples;
  std::size_t queries = 0;
  std::vector<Weight> dist;
  std::vector<VertexId> parent;
  std::vector<std::optional<Query>> first(kSources);  ///< first answers
  std::vector<bool> answer_ok(kSources, false);
  std::vector<std::uint64_t> bad_repeats(kSources, 0), count(kSources, 0);
  sga::obs::MetricsRegistry reg;
  double timed_ms = 0.0, deliveries = 0.0, pool_misses = 0.0;
  const Clock::time_point phase_start = Clock::now();
  for (std::size_t i = 0; ms_between(phase_start, Clock::now()) <
                              opt.seconds * 1e3 ||
                          rounds.rounds() < kMinRounds;
       ++i) {
    const std::size_t si = i % kSources;
    const bool traced = opt.trace && (i / kSources) % 2 == 0;
    const Clock::time_point c0 = Clock::now();
    reg.clear();
    Query q;
    {
      const sga::obs::ScopedThreadMetrics install(traced ? &reg : nullptr);
      Tracer* const t = traced ? &tracer : nullptr;
      q = sharded ? run_query(*setup->psim, g, setup->sources[si], dist,
                              parent, t, names)
                  : run_query(*setup->sim, g, setup->sources[si], dist,
                              parent, t, names);
    }
    if (traced && sharded) {
      // Every worker counts each window it runs.
      q.windows = reg.counter("psim.windows") / setup->psim->num_threads();
      q.steals = reg.counter("psim.steals");
    }
    const double cost_ms = ms_between(c0, Clock::now());
    rounds.add(q.latency_ms, reference.time_ms(setup->sources[si]));
    if (si + 1 == kSources) rounds.end_round();
    timed_ms += q.latency_ms;
    deliveries += static_cast<double>(q.stats.deliveries);
    pool_misses += static_cast<double>(q.stats.pool_misses);
    ++count[si];
    if (!first[si]) {
      answer_ok[si] = sssp_answer_ok(g, setup->sources[si], dist, parent);
      first[si] = q;
    } else if (!same_work(q, *first[si])) {
      ++bad_repeats[si];
    }
    ++queries;
    if (opt.trace) {
      samples.push_back({si, traced, q.latency_ms, cost_ms, q.reset_us,
                         q.run_ms, q.readout_us});
    }
  }
  const double peak_mb = peak_rss_mb();

  // ---- checks, outside the timed phase ---------------------------------
  // A source whose first answer missed Dijkstra fails all its queries, a
  // repeat that differs from the first answer fails alone. sssp_sharded
  // also replays each source on a serial Simulator and must match it
  // exactly, query for query: the serial-vs-parallel exactness contract.
  RunResult r;
  r.attempted = queries;
  std::unique_ptr<Simulator> serial;
  if (sharded) serial = std::make_unique<Simulator>(*setup->net);
  std::uint64_t fp_spikes = 0, fp_deliveries = 0;
  std::int64_t fp_T = 0;
  std::size_t covered = 0;
  for (std::size_t si = 0; si < kSources; ++si) {
    if (!first[si]) continue;
    ++covered;
    const Query& q = *first[si];
    bool ok = answer_ok[si];
    if (sharded) {
      ok = ok && same_work(q, run_query(*serial, g, setup->sources[si], dist,
                                        parent, nullptr, kSerialNames));
    }
    r.failed += ok ? bad_repeats[si] : count[si];
    fp_spikes += q.stats.spikes;
    fp_deliveries += q.stats.deliveries;
    fp_T += q.T;
  }
  r.correct = r.failed == 0;
  std::printf("%s seed=%llu: %zu queries over %zu/%zu sources, %llu failed\n",
              name, static_cast<unsigned long long>(opt.seed), queries,
              covered, kSources, static_cast<unsigned long long>(r.failed));
  std::printf("%s fingerprint (one query per source): deliveries=%llu "
              "spikes=%llu T=%lld\n",
              name, static_cast<unsigned long long>(fp_deliveries),
              static_cast<unsigned long long>(fp_spikes),
              static_cast<long long>(fp_T));

  // ---- metrics ---------------------------------------------------------
  auto collect = [&](double Sample::*field, bool want_traced) {
    std::vector<double> v;
    for (const Sample& x : samples) {
      if (x.traced == want_traced) v.push_back(x.*field);
    }
    return v;
  };
  // Raw host times, for reading alongside the gated ratios.
  std::printf("%s raw: %.1f queries/s and %.4g deliveries/s over the summed "
              "latencies; median round %.2f ms; reference checksum %llu\n",
              name, queries / (timed_ms / 1e3), deliveries / (timed_ms / 1e3),
              rounds.round_ms(),
              static_cast<unsigned long long>(reference.checksum()));
  if (!opt.trace) {
    r.set("setup_s", median_of(setups, &SetupTimes::total_s));
    r.set("peak_rss_mb", peak_mb);
    r.set("rel_query_cost", rounds.rel_query_cost());
    r.set("rel_latency_p50", rounds.rel_latency(50));
    r.set("rel_latency_p90", rounds.rel_latency(90));
    std::printf("%s latency samples: %zu rounds of %zu sources; %zu setups\n",
                name, rounds.rounds(), kSources, setups.size());
    return r;
  }

  // Per-source counts come from each source's first (traced) query, so
  // they are exact and repeat across runs of one seed.
  double decode = 0, segments = 0, scans = 0, spills = 0, psim_windows = 0,
         steals = 0, run_ms = 0, run_deliveries = 0;
  for (const std::optional<Query>& q : first) {
    if (!q) continue;
    decode += q->stats.decode_blocks;
    segments += q->stats.fanout_segments;
    scans += q->stats.empty_bucket_scans;
    spills += q->stats.overflow_spills;
    psim_windows += q->windows;
    steals += q->steals;
  }
  for (const Sample& x : samples) {
    if (!x.traced) continue;
    run_ms += x.run_ms;
    run_deliveries += first[x.source]->stats.deliveries;
  }
  const double per = covered == 0 ? 0.0 : 1.0 / covered;

  r.set("graph.generate_ms", median_of(setups, &SetupTimes::generate_ms));
  r.set("snn.freeze_ms", median_of(setups, &SetupTimes::freeze_ms));
  r.set("snn.csr_bytes_per_synapse", setup->net->bytes_per_synapse());
  r.set("snn.storage_encoding",
        sga::snn::encoding_code(setup->net->storage_widths()));
  const auto reset_us = collect(&Sample::reset_us, true);
  const auto run_ms_v = collect(&Sample::run_ms, true);
  if (sharded) {
    r.set("partition.build_ms",
          median_of(setups, &SetupTimes::partition_ms));
    r.set("partition.cross_synapses",
          static_cast<double>(
              setup->net->shard_split(setup->psim->partition())
                  .num_cross_synapses));
    r.set("partition.lookahead",
          static_cast<double>(setup->psim->lookahead()));
    r.set("psim.reset_us_p50", sga::median(reset_us));
    r.set("psim.run_ms_p50", sga::median(run_ms_v));
    r.set("psim.windows_per_query", psim_windows * per);
    r.set("psim.steals", steals);
  } else {
    r.set("sim.reset_us_p50", sga::median(reset_us));
    r.set("sim.run_ms_p50", sga::median(run_ms_v));
  }
  r.set("sim.ns_per_delivery",
        run_deliveries == 0 ? 0.0 : run_ms * 1e6 / run_deliveries);
  r.set("sim.decode_blocks_per_query", decode * per);
  r.set("sim.fanout_segments_per_query", segments * per);
  r.set("sim.empty_bucket_scans_per_query", scans * per);
  r.set("sim.overflow_spills", spills);
  r.set("sim.pool_misses_after_warmup", pool_misses);
  r.set("nga.readout_us_p50", sga::median(collect(&Sample::readout_us, true)));
  r.set("trace.overhead_pct",
        100.0 * (sga::median(collect(&Sample::cost_ms, true)) /
                     sga::median(collect(&Sample::cost_ms, false)) -
                 1.0));

  const std::string stem = opt.out_dir + "/" + name + "-seed" +
                           std::to_string(opt.seed);
  report_trace(tracer, stem);
  return r;
}

}  // namespace perfbench
