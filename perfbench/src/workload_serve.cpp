// serve_mix: a QueryService with one worker driven by one closed-loop
// client calling query() synchronously, with bench_service's 6:3:1 mix of
// SSSP / k-hop / max-flow requests over three resident graphs. The cache
// is warmed in setup, so the timed phase re-freezes nothing.
//
// One client, so one request is in flight at a time and the reference it
// runs between requests shares the CPU its requests were served on
// (main.cpp pins the process to one CPU). With two clients, requests and
// references overlapped on different CPUs, whose speeds on the shared host
// differ and change independently; rel_query_cost then spread 0.15 over
// five seeds. One worker, since with one request in flight a second one
// only doubles the simulator state the requests touch (every worker keeps
// its own simulators); with two, rel_latency_p50 spread 0.18 against 0.06
// over the same five seeds (README.md, "Noise and bounds").
#include <algorithm>
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "common.h"
#include "core/stats.h"
#include "graph/bellman_ford.h"
#include "graph/generators.h"
#include "nga/maxflow.h"
#include "obs/metrics.h"
#include "reference.h"
#include "svc/service.h"

namespace perfbench {
namespace {

using sga::Graph;
using sga::Time;
using sga::VertexId;
using sga::svc::QueryKind;
using sga::svc::QueryRequest;
using sga::svc::QueryResult;
using sga::svc::QueryService;
using sga::svc::QueryStatus;

constexpr unsigned kWorkers = 1;
// SSSP graph: m < 16384 synapses, so the freeze picks the narrow encoding
// (sssp_scale covers the packed one).
constexpr std::size_t kSsspN = 2000, kSsspM = 12000;
// k-hop graph: k in {5, 8} shares one TTL fabric (ceil(log2 k) = 3). Its
// fabric (6,360 neurons, 13,200 synapses) is narrow like the SSSP one and
// stays in the per-core L2; k-hop requests are 95% of the client time, and
// at n = 100 (22,000 synapses, packed) a stream period took 5 s of client
// time on the shared host, too few periods per run for a steady median.
constexpr std::size_t kKhopN = 60, kKhopM = 300;
constexpr std::uint32_t kHopBudgets[2] = {5, 8};
// Max-flow graph: small, since every phase re-freezes a residual network.
constexpr std::size_t kFlowN = 24, kFlowM = 96;
// Distinct requests (keys) the stream cycles through; a run repeats each
// many times and checks every repeat against the key's first answer. The
// first 110 requests cover every key.
constexpr std::size_t kSsspKeys = 64, kKhopSources = 16, kFlowKeys = 8;
constexpr std::size_t kKhopKeys = 2 * kKhopSources;
constexpr std::size_t kKeys = kSsspKeys + kKhopKeys + kFlowKeys;
// The stream's period, which is also a round (reference.h): 192 SSSP, 96
// k-hop and 32 max-flow requests, i.e. every key of each kind the same
// number of times, so every round does the same work.
constexpr std::size_t kStreamLength = 320;

struct Request {
  QueryKind kind = QueryKind::kSssp;
  VertexId source = 0;
  VertexId target = 0;   ///< max-flow sink
  std::uint32_t k = 0;   ///< k-hop budget
  std::size_t key = 0;   ///< distinct-request index in [0, kKeys)
};

struct Setup {
  std::unique_ptr<QueryService> service;
  std::uint64_t handle[3] = {0, 0, 0};  ///< indexed by QueryKind
  std::vector<Request> keys;            ///< the distinct requests
  std::vector<std::size_t> stream;      ///< key index per request
  std::uint64_t hits_after_warmup = 0, misses_after_warmup = 0;
  SetupTimes times;
};

std::size_t kind_index(QueryKind k) { return static_cast<std::size_t>(k); }

std::vector<VertexId> distinct_vertices(sga::Rng& rng, std::size_t n,
                                        std::size_t count) {
  std::vector<VertexId> all(n);
  for (std::size_t v = 0; v < n; ++v) all[v] = static_cast<VertexId>(v);
  rng.shuffle(all);
  all.resize(count);
  return all;
}

// The distinct requests and the 6:3:1 stream over them, all from the seed.
void make_requests(std::uint64_t seed, Setup& s) {
  sga::Rng rng(derive_seed(seed, 14));
  for (const VertexId v : distinct_vertices(rng, kSsspN, kSsspKeys)) {
    s.keys.push_back({QueryKind::kSssp, v, 0, 0, s.keys.size()});
  }
  for (const VertexId v : distinct_vertices(rng, kKhopN, kKhopSources)) {
    for (const std::uint32_t k : kHopBudgets) {
      s.keys.push_back({QueryKind::kKHop, v, 0, k, s.keys.size()});
    }
  }
  while (s.keys.size() < kKeys) {
    const auto src = static_cast<VertexId>(rng.uniform_int(0, kFlowN - 1));
    const auto dst = static_cast<VertexId>(rng.uniform_int(0, kFlowN - 1));
    if (src != dst) {
      s.keys.push_back({QueryKind::kMaxFlow, src, dst, 0, s.keys.size()});
    }
  }
  std::size_t next[3] = {0, 0, 0};
  const std::size_t base[3] = {0, kSsspKeys, kSsspKeys + kKhopKeys};
  const std::size_t count[3] = {kSsspKeys, kKhopKeys, kFlowKeys};
  for (std::size_t i = 0; i < kStreamLength; ++i) {
    const std::size_t slot = i % 10;
    const QueryKind kind = slot < 6   ? QueryKind::kSssp
                           : slot < 9 ? QueryKind::kKHop
                                      : QueryKind::kMaxFlow;
    const std::size_t ki = kind_index(kind);
    s.stream.push_back(base[ki] + next[ki]++ % count[ki]);
  }
}

QueryRequest to_request(const Setup& s, const Request& r) {
  QueryRequest q;
  q.kind = r.kind;
  q.graph = s.handle[kind_index(r.kind)];
  q.source = r.source;
  if (r.kind == QueryKind::kKHop) q.k = r.k;
  if (r.kind == QueryKind::kMaxFlow) q.target = r.target;
  return q;
}

std::unique_ptr<Setup> build_setup(std::uint64_t seed, Tracer* tracer) {
  auto s = std::make_unique<Setup>();
  const ScopedSpan root(tracer, "setup");
  const Clock::time_point t0 = Clock::now();
  Graph graphs[3];
  {
    const ScopedSpan span(tracer, "graph.generate", root.id());
    sga::Rng r_sssp(derive_seed(seed, 11));
    sga::Rng r_khop(derive_seed(seed, 12));
    sga::Rng r_flow(derive_seed(seed, 13));
    graphs[kind_index(QueryKind::kSssp)] =
        sga::make_random_graph(kSsspN, kSsspM, {1, 16}, r_sssp);
    graphs[kind_index(QueryKind::kKHop)] =
        sga::make_random_graph(kKhopN, kKhopM, {1, 9}, r_khop);
    graphs[kind_index(QueryKind::kMaxFlow)] =
        sga::make_random_graph(kFlowN, kFlowM, {1, 6}, r_flow);
    make_requests(seed, *s);
  }
  const Clock::time_point t1 = Clock::now();
  {
    const ScopedSpan span(tracer, "svc.start", root.id());
    sga::svc::ServiceOptions so;
    so.num_workers = kWorkers;
    s->service = std::make_unique<QueryService>(so);
    for (std::size_t k = 0; k < 3; ++k) {
      s->handle[k] = s->service->add_graph(std::move(graphs[k]));
    }
  }
  {
    // One request per cached artifact (the SSSP fabric and the shared
    // k-hop fabric) plus one max-flow, which owns no artifact.
    const ScopedSpan span(tracer, "warmup", root.id());
    for (const std::size_t key : {std::size_t{0}, kSsspKeys, kKeys - 1}) {
      const QueryResult r = s->service->query(to_request(*s, s->keys[key]));
      if (!r.ok()) throw std::runtime_error("warm-up query failed: " + r.error);
    }
  }
  const Clock::time_point t2 = Clock::now();
  const sga::svc::CacheStats cs = s->service->stats().cache;
  s->hits_after_warmup = cs.hits;
  s->misses_after_warmup = cs.misses;
  s->times.generate_ms = ms_between(t0, t1);
  s->times.total_s = ms_between(t0, t2) / 1e3;
  return s;
}

struct Served {
  std::size_t key = 0;
  bool traced = false;
  QueryStatus status = QueryStatus::kOk;
  double client_ms = 0, request_ms = 0, sim_run_ms = 0;
  /// The client's whole iteration around query(), tracing work included.
  double cost_ms = 0;
  double reference_ms = 0;  ///< the reference Dijkstra run after it
  std::uint64_t deliveries = 0, spikes = 0, phases = 0, pool_misses = 0;
  Time T = 0;
  std::uint64_t answer_hash = 0;
};
/// Records reserved up front: more than a 60 s run takes, so
/// peak_rss_mb does not grow with the number of requests (untouched
/// reserved pages are not resident).
constexpr std::size_t kRecordCapacity = std::size_t{1} << 18;

std::uint64_t answer_hash(const QueryResult& r) {
  return hash_values(r.dist) ^ (hash_values(r.parent) * 3) ^
         (hash_values(r.hops) * 5) ^ (hash_values(r.flow) * 7) ^
         static_cast<std::uint64_t>(r.flow_value);
}

double timer_ms(const sga::obs::MetricsRegistry& m, const char* name) {
  const auto it = m.timers().find(name);
  return it == m.timers().end() ? 0.0 : it->second.total_ns / 1e6;
}

bool sssp_ok(const Graph& g, const Request& q, const QueryResult& r) {
  return sssp_answer_ok(g, q.source, r.dist, r.parent);
}

bool khop_ok(const Graph& g, const Request& q, const QueryResult& r) {
  const sga::KHopResult ref = sga::bellman_ford_khop(g, q.source, q.k);
  if (r.dist != ref.dist || r.hops.size() != g.num_vertices()) return false;
  return std::all_of(r.hops.begin(), r.hops.end(),
                     [&q](std::uint32_t h) { return h <= q.k; });
}

// Value equals the reference Edmonds-Karp; the per-edge flow respects the
// capacities (edge lengths) and is conserved at every inner vertex.
bool maxflow_ok(const Graph& g, const Request& q, const QueryResult& r) {
  if (r.flow_value != sga::nga::reference_max_flow(g, q.source, q.target) ||
      r.flow.size() != g.num_edges()) {
    return false;
  }
  std::vector<std::int64_t> net_out(g.num_vertices(), 0);
  for (std::size_t e = 0; e < g.num_edges(); ++e) {
    const sga::Edge& edge = g.edge(e);
    if (r.flow[e] < 0 || r.flow[e] > edge.length) return false;
    net_out[edge.from] += r.flow[e];
    net_out[edge.to] -= r.flow[e];
  }
  for (VertexId v = 0; v < g.num_vertices(); ++v) {
    const std::int64_t want = v == q.source   ? r.flow_value
                              : v == q.target ? -r.flow_value
                                              : 0;
    if (net_out[v] != want) return false;
  }
  return true;
}

}  // namespace

RunResult run_serve_mix(const Options& opt) {
  Tracer tracer(opt.trace);
  Tracer* const setup_tracer = opt.trace ? &tracer : nullptr;

  // Extra setups in child processes, then the one that serves the timed
  // phase.
  std::vector<SetupTimes> setups = time_setups_in_children(
      [&] { return build_setup(opt.seed, nullptr)->times; });
  const std::unique_ptr<Setup> setup = build_setup(opt.seed, setup_tracer);
  setups.push_back(setup->times);
  QueryService& service = *setup->service;

  // ---- timed phase: one closed-loop client -----------------------------
  // The client sends the next request of the stream once the previous one
  // returned, then runs the reference Dijkstra on the SSSP graph
  // (reference.h) from the source of SSSP key (stream index mod 64), until
  // the phase has run opt.seconds and kMinRounds rounds completed. Traced
  // runs trace a pseudo-random half of the requests; comparing the
  // iteration cost of traced and untraced requests (span recording
  // included) gives the tracing overhead.
  ReferenceSssp reference(
      *service.graph(setup->handle[kind_index(QueryKind::kSssp)]));
  std::vector<Served> served;
  served.reserve(kRecordCapacity);
  std::vector<std::unique_ptr<QueryResult>> first(kKeys);
  const Clock::time_point phase_start = Clock::now();
  for (std::size_t i = 0;
       ms_between(phase_start, Clock::now()) < opt.seconds * 1e3 ||
       i < kMinRounds * kStreamLength;
       ++i) {
    const Request& req = setup->keys[setup->stream[i % kStreamLength]];
    const bool traced = opt.trace && (derive_seed(i, 99) & 1) != 0;
    const Clock::time_point t0 = Clock::now();
    QueryResult r = service.query(to_request(*setup, req));
    const Clock::time_point t1 = Clock::now();
    Served s;
    s.key = req.key;
    s.traced = traced;
    s.status = r.status;
    s.client_ms = ms_between(t0, t1);
    s.request_ms = timer_ms(r.metrics, "svc.request_ns");
    s.sim_run_ms = timer_ms(r.metrics, "sim.run_ns");
    s.deliveries = r.metrics.counter("sim.deliveries");
    s.spikes = r.total_spikes;
    s.phases = r.phases;
    s.T = r.execution_time;
    s.answer_hash = answer_hash(r);
    s.pool_misses = r.sim.pool_misses;
    if (traced) {
      static constexpr const char* kNames[3] = {
          "svc.query.sssp", "svc.query.khop", "svc.query.maxflow"};
      const std::uint64_t root =
          tracer.record(kNames[kind_index(req.kind)], 0, t0, t1);
      // The registry gives durations only; these children are placed at
      // the end of their parent.
      auto before_end = [t1](double ms) {
        return t1 - std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double, std::milli>(ms));
      };
      const std::uint64_t rq =
          tracer.record("svc.request", root, before_end(s.request_ms), t1);
      tracer.record("sim.run", rq, before_end(s.sim_run_ms), t1);
    }
    s.cost_ms = ms_between(t0, Clock::now());
    s.reference_ms = reference.time_ms(setup->keys[i % kSsspKeys].source);
    if (r.ok() && !first[req.key]) {
      first[req.key] = std::make_unique<QueryResult>(std::move(r));
    }
    served.push_back(s);
  }
  const double phase_s = ms_between(phase_start, Clock::now()) / 1e3;
  const double peak_mb = peak_rss_mb();
  const QueryService::Stats st = service.stats();

  // ---- checks, outside the timed phase ---------------------------------
  RunResult r;
  r.attempted = served.size();
  std::vector<const Served*> first_served(kKeys, nullptr);
  std::vector<bool> key_ok(kKeys, false);
  for (std::size_t key = 0; key < kKeys; ++key) {
    if (!first[key]) continue;
    const Request& q = setup->keys[key];
    const std::shared_ptr<const Graph> g =
        service.graph(setup->handle[kind_index(q.kind)]);
    key_ok[key] = q.kind == QueryKind::kSssp   ? sssp_ok(*g, q, *first[key])
                  : q.kind == QueryKind::kKHop ? khop_ok(*g, q, *first[key])
                                               : maxflow_ok(*g, q, *first[key]);
  }
  std::uint64_t rejected = 0;
  for (const Served& s : served) {
    if (s.status != QueryStatus::kOk) {
      ++r.failed;
      if (s.status == QueryStatus::kRejected) ++rejected;
      continue;
    }
    if (first_served[s.key] == nullptr) first_served[s.key] = &s;
    const Served& f = *first_served[s.key];
    const bool same = s.answer_hash == f.answer_hash &&
                      s.deliveries == f.deliveries && s.spikes == f.spikes &&
                      s.T == f.T;
    if (!same || !key_ok[s.key]) ++r.failed;
  }
  const std::uint64_t refreezes = st.cache.misses - setup->misses_after_warmup;
  const std::uint64_t hits = st.cache.hits - setup->hits_after_warmup;
  r.correct = r.failed == 0 && refreezes == 0;

  std::uint64_t fp_deliveries = 0, fp_spikes = 0;
  std::int64_t fp_T = 0;
  std::size_t covered = 0;
  for (const Served* f : first_served) {
    if (f == nullptr) continue;
    ++covered;
    fp_deliveries += f->deliveries;
    fp_spikes += f->spikes;
    fp_T += f->T;
  }
  double khop_ms = 0, all_ms = 0;
  for (const Served& s : served) {
    all_ms += s.client_ms;
    if (setup->keys[s.key].kind == QueryKind::kKHop) khop_ms += s.client_ms;
  }
  std::printf("serve_mix seed=%llu: %zu queries, %llu failed, %llu rejected, "
              "%llu refreezes after warm-up\n",
              static_cast<unsigned long long>(opt.seed), served.size(),
              static_cast<unsigned long long>(r.failed),
              static_cast<unsigned long long>(rejected),
              static_cast<unsigned long long>(refreezes));
  std::printf("serve_mix fingerprint (one query per key, %zu/%zu keys): "
              "deliveries=%llu spikes=%llu T=%lld\n",
              covered, kKeys, static_cast<unsigned long long>(fp_deliveries),
              static_cast<unsigned long long>(fp_spikes),
              static_cast<long long>(fp_T));
  std::printf("serve_mix k-hop share of client time: %.3f\n",
              all_ms == 0 ? 0.0 : khop_ms / all_ms);

  // served[i] is stream index i; only whole rounds count.
  RoundStats rounds;
  double deliveries = 0;
  for (std::size_t i = 0;
       i < served.size() / kStreamLength * kStreamLength; ++i) {
    rounds.add(served[i].client_ms, served[i].reference_ms);
    if ((i + 1) % kStreamLength == 0) rounds.end_round();
  }
  for (const Served& s : served) deliveries += s.deliveries;
  std::printf("serve_mix raw: %.1f queries/s and %.4g deliveries/s over "
              "%.3f s; median round %.1f ms of client latency; reference "
              "checksum %llu\n",
              served.size() / phase_s, deliveries / phase_s, phase_s,
              rounds.round_ms(),
              static_cast<unsigned long long>(reference.checksum()));
  if (!opt.trace) {
    r.set("setup_s", median_of(setups, &SetupTimes::total_s));
    r.set("peak_rss_mb", peak_mb);
    r.set("rel_query_cost", rounds.rel_query_cost());
    r.set("rel_latency_p50", rounds.rel_latency(50));
    r.set("rel_latency_p90", rounds.rel_latency(90));
    std::printf("serve_mix latency samples: %zu rounds of %zu requests; "
                "%zu setups\n",
                rounds.rounds(), kStreamLength, setups.size());
    return r;
  }

  // ---- per-layer metrics (traced requests) -----------------------------
  std::vector<double> client_ms[3], traced_sssp_cost, untraced_sssp_cost,
      request_ms, wait_ms, run_ms;
  double sum_run = 0, sum_request = 0, sum_deliveries = 0;
  double pool_misses = 0;
  for (const Served& s : served) {
    const std::size_t ki = kind_index(setup->keys[s.key].kind);
    if (ki == kind_index(QueryKind::kSssp)) {
      (s.traced ? traced_sssp_cost : untraced_sssp_cost).push_back(s.cost_ms);
    }
    if (!s.traced) continue;
    client_ms[ki].push_back(s.client_ms);
    request_ms.push_back(s.request_ms);
    wait_ms.push_back(s.client_ms - s.request_ms);
    if (ki != kind_index(QueryKind::kMaxFlow)) run_ms.push_back(s.sim_run_ms);
    sum_run += s.sim_run_ms;
    sum_request += s.request_ms;
    sum_deliveries += s.deliveries;
    pool_misses += s.pool_misses;
  }
  // Per-key counts from each key's first answer: exact for a given seed.
  double decode = 0, segments = 0, scans = 0, spills = 0, sim_keys = 0;
  double phases = 0, flow_keys = 0, csr_bytes = 0, encoding = 0;
  for (const Served* f : first_served) {
    if (f == nullptr) continue;
    const QueryKind kind = setup->keys[f->key].kind;
    if (kind == QueryKind::kMaxFlow) {
      phases += f->phases;
      ++flow_keys;
      continue;
    }
    const sga::snn::SimStats& sim = first[f->key]->sim;
    decode += sim.decode_blocks;
    segments += sim.fanout_segments;
    scans += sim.empty_bucket_scans;
    spills += sim.overflow_spills;
    ++sim_keys;
    if (kind == QueryKind::kSssp) {
      csr_bytes = sim.csr_bytes;
      encoding = sim.storage_encoding;
    }
  }
  const double per_sim = sim_keys == 0 ? 0.0 : 1.0 / sim_keys;
  r.set("graph.generate_ms", median_of(setups, &SetupTimes::generate_ms));
  // The SSSP fabric has one synapse per edge plus one self-inhibition per
  // vertex (nga/sssp_event.h).
  r.set("snn.csr_bytes_per_synapse", csr_bytes / (kSsspN + kSsspM));
  r.set("snn.storage_encoding", encoding);
  r.set("sim.run_ms_p50", sga::median(run_ms));
  r.set("sim.ns_per_delivery",
        sum_deliveries == 0 ? 0.0 : sum_run * 1e6 / sum_deliveries);
  r.set("sim.decode_blocks_per_query", decode * per_sim);
  r.set("sim.fanout_segments_per_query", segments * per_sim);
  r.set("sim.empty_bucket_scans_per_query", scans * per_sim);
  r.set("sim.overflow_spills", spills);
  r.set("sim.pool_misses_after_warmup", pool_misses);
  r.set("nga.maxflow_phases_per_query",
        flow_keys == 0 ? 0.0 : phases / flow_keys);
  r.set("svc.client_ms_p50.sssp", sga::median(client_ms[0]));
  r.set("svc.client_ms_p50.khop", sga::median(client_ms[1]));
  r.set("svc.client_ms_p50.maxflow", sga::median(client_ms[2]));
  r.set("svc.request_ms_p50", sga::median(request_ms));
  r.set("svc.queue_wait_ms_p90", percentile(wait_ms, 90));
  r.set("svc.sim_share", sum_request == 0 ? 0.0 : sum_run / sum_request);
  r.set("svc.cache_hit_ratio",
        hits + refreezes == 0
            ? 0.0
            : static_cast<double>(hits) / static_cast<double>(hits + refreezes));
  r.set("svc.refreezes_after_warmup", static_cast<double>(refreezes));
  // On SSSP requests, the most sensitive to a fixed per-request cost.
  r.set("trace.overhead_pct",
        100.0 * (sga::median(traced_sssp_cost) /
                     sga::median(untraced_sssp_cost) -
                 1.0));
  report_trace(tracer, opt.out_dir + "/serve_mix-seed" +
                           std::to_string(opt.seed));
  return r;
}

}  // namespace perfbench
