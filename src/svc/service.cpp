#include "svc/service.h"

#include <utility>

#include "core/bitops.h"
#include "core/error.h"
#include "nga/maxflow.h"
#include "obs/metrics.h"
#include "nga/sssp_event.h"
#include "snn/snapshot.h"
#include "svc/hash.h"

namespace sga::svc {

QueryService::QueryService(ServiceOptions options)
    : opt_(options),
      default_shedder_(options.max_queue_depth),
      shedder_(options.shedder != nullptr ? options.shedder
                                          : &default_shedder_),
      cache_(options.cache_capacity) {
  SGA_REQUIRE(opt_.num_workers >= 1, "QueryService: need >= 1 worker");
  workers_.reserve(opt_.num_workers);
  for (unsigned i = 0; i < opt_.num_workers; ++i) {
    workers_.emplace_back([this] { worker_main(); });
  }
}

QueryService::~QueryService() {
  {
    const std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_.notify_all();
  for (std::thread& w : workers_) w.join();
}

std::uint64_t QueryService::add_graph(Graph g) {
  const std::uint64_t h = graph_content_hash(g);
  const std::lock_guard<std::mutex> lock(graphs_mu_);
  // First registration wins: resident artifacts hold shared_ptrs into the
  // first copy, and an identical graph is, by content hash, the same graph.
  graphs_.try_emplace(h, std::make_shared<const Graph>(std::move(g)));
  return h;
}

std::shared_ptr<const Graph> QueryService::graph(std::uint64_t handle) const {
  const std::lock_guard<std::mutex> lock(graphs_mu_);
  const auto it = graphs_.find(handle);
  return it != graphs_.end() ? it->second : nullptr;
}

std::future<QueryResult> QueryService::submit(QueryRequest req) {
  std::promise<QueryResult> promise;
  std::future<QueryResult> fut = promise.get_future();
  {
    const std::lock_guard<std::mutex> lock(mu_);
    SGA_REQUIRE(!stop_, "QueryService::submit after shutdown began");
    ++submitted_;
    if (shedder_->shed(queue_.size())) {
      ++rejected_;
      QueryResult r;
      r.status = QueryStatus::kRejected;
      r.error = "shed by admission policy";
      promise.set_value(std::move(r));
      return fut;
    }
    Job job;
    job.request = std::move(req);
    job.promise = std::move(promise);
    queue_.push_back(std::move(job));
  }
  cv_.notify_one();
  return fut;
}

QueryResult QueryService::query(QueryRequest req) {
  return submit(std::move(req)).get();
}

void QueryService::drain() {
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
}

void QueryService::worker_main() {
  WorkerSlots slots(opt_.slots_per_worker);
  while (true) {
    Job job;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) return;  // stop_ set and nothing left to drain
      job = std::move(queue_.front());
      queue_.pop_front();
      ++active_;
    }
    QueryResult res = serve(slots, job.request);
    job.promise.set_value(std::move(res));
    {
      const std::lock_guard<std::mutex> lock(mu_);
      --active_;
      if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
    }
  }
}

QueryResult QueryService::serve(WorkerSlots& slots, const QueryRequest& req) {
  QueryResult res;
  obs::MetricsRegistry req_metrics;
  {
    // The reuse-lifecycle contract of pooled workers: the per-request
    // registry is installed as this thread's sink for EXACTLY the duration
    // of the serve — RAII restore runs before any result bookkeeping, so
    // two back-to-back requests on one worker can never bleed counters
    // into each other, and neither can the merge below.
    const obs::ScopedThreadMetrics install(&req_metrics);
    const obs::ScopedTimer timer(&req_metrics, "svc.request_ns");
    try {
      serve_impl(slots, req, res);
    } catch (const std::exception& e) {
      res.status = QueryStatus::kFailed;
      res.error = e.what();
    }
  }
  req_metrics.add("svc.requests");
  if (res.status == QueryStatus::kFailed) req_metrics.add("svc.failures");
  {
    const std::lock_guard<std::mutex> lock(done_mu_);
    metrics_.merge(req_metrics);
    if (res.status == QueryStatus::kOk) {
      ++served_;
    } else {
      ++failed_;
    }
  }
  res.metrics = std::move(req_metrics);
  return res;
}

void QueryService::serve_impl(WorkerSlots& slots, const QueryRequest& req,
                              QueryResult& res) {
  const std::shared_ptr<const Graph> g = graph(req.graph);
  SGA_REQUIRE(g != nullptr, "serve: unknown graph handle " << req.graph
                                                           << " (add_graph "
                                                              "first)");
  switch (req.kind) {
    case QueryKind::kSssp:
      serve_sssp(slots, req, g, res);
      return;
    case QueryKind::kKHop:
      serve_khop(slots, req, g, res);
      return;
    case QueryKind::kMaxFlow:
      serve_maxflow(req, g, res);
      return;
  }
  SGA_CHECK(false, "serve: unknown query kind "
                       << static_cast<int>(req.kind));
}

void QueryService::serve_sssp(WorkerSlots& slots, const QueryRequest& req,
                              const std::shared_ptr<const Graph>& g,
                              QueryResult& res) {
  SGA_REQUIRE(req.source < g->num_vertices(), "sssp: bad source");
  SGA_REQUIRE(!req.target || *req.target < g->num_vertices(),
              "sssp: bad target");
  const ArtifactKey key{req.graph, QueryKind::kSssp, 0, 0};
  const NetworkCache::ArtifactPtr artifact =
      cache_.get_or_build(key, [&key, &g] {
        auto a = std::make_shared<CompiledArtifact>();
        a->key = key;
        a->graph = g;
        a->network = nga::build_sssp_network(*g).compile();
        return a;
      });
  if (obs::MetricsRegistry* mr = obs::thread_metrics()) {
    // Resident footprint of the (possibly cached) frozen artifact this
    // request runs on — the service-side view of SimStats::csr_bytes.
    mr->gauge("svc.artifact_csr_bytes",
              static_cast<double>(artifact->network.csr_storage_bytes()));
    // Which encoding that footprint was measured under (0 = wide,
    // 1 = narrow) — without it a csr_bytes shift between two
    // service runs is ambiguous between a graph change and a re-freeze
    // under a different StoragePolicy.
    mr->gauge("svc.artifact_storage_encoding",
              static_cast<double>(snn::encoding_code(
                  artifact->network.storage_widths())));
  }

  snn::Simulator& sim = slots.acquire(artifact);
  obs::Probe* probe =
      req.want_probe ? &slots.attach_probe(req.probe) : nullptr;
  snn::SimConfig cfg;
  cfg.record_causes = req.record_parents;
  if (req.target) cfg.terminal_neurons = {*req.target};

  // Periodic checkpointing + crash recovery (docs/PERSISTENCE.md). Opt-in
  // per request (ticket != 0) on an opted-in service; unticketed requests
  // take the plain single-run path below.
  const bool checkpointing = opt_.checkpoint_interval > 0 &&
                             opt_.checkpoints != nullptr && req.ticket != 0;
  snn::SpikeJournal journal;
  std::uint64_t seq = 0;
  Time pause_at = opt_.checkpoint_interval;
  if (checkpointing && req.resume) {
    // Resume: the snapshot carries the injected history (processed state +
    // pending queue), so the source spike is NOT re-injected; the journal
    // rides along for snapshot-free replay.
    const std::optional<Checkpoint> cp = opt_.checkpoints->get(req.ticket);
    SGA_REQUIRE(cp.has_value(), "sssp: resume requested but ticket "
                                    << req.ticket << " has no checkpoint");
    sim.restore(cp->snapshot);
    journal = snn::SpikeJournal::deserialize(cp->journal);
    seq = cp->sequence;
    pause_at = cp->next_pause;
    if (obs::MetricsRegistry* mr = obs::thread_metrics()) {
      mr->add("svc.recoveries");
    }
  } else {
    SGA_REQUIRE(!req.resume,
                "sssp: resume requires a ticketed request on a service "
                "built with a CheckpointStore and a checkpoint_interval");
    sim.inject_spike(req.source, 0);
    if (checkpointing) journal.record(req.source, 0);
  }

  if (checkpointing) {
    while (true) {
      cfg.pause_time = pause_at;
      res.sim = sim.run(cfg);
      if (!sim.paused()) break;
      pause_at += opt_.checkpoint_interval;
      Checkpoint cp;
      cp.snapshot = sim.snapshot();
      cp.journal = journal.serialize();
      cp.sequence = ++seq;
      cp.next_pause = pause_at;
      opt_.checkpoints->put(req.ticket, std::move(cp));
      if (obs::MetricsRegistry* mr = obs::thread_metrics()) {
        mr->add("svc.checkpoints");
      }
      if (opt_.checkpoints->on_checkpoint) {
        // May throw: the serve fails with the checkpoint already stored —
        // the crash-recovery tests kill the request exactly here.
        opt_.checkpoints->on_checkpoint(req.ticket, seq);
      }
    }
    // Completed: the recovery point is obsolete.
    opt_.checkpoints->erase(req.ticket);
  } else {
    res.sim = sim.run(cfg);
  }
  const Time last = nga::read_sssp_solution(sim, *g, req.source,
                                            req.record_parents, res.dist,
                                            res.parent);
  res.execution_time =
      req.target && res.sim.hit_terminal ? res.sim.execution_time : last;
  res.total_spikes = res.sim.spikes;
  if (probe != nullptr) res.probe_data = *probe;
}

void QueryService::serve_khop(WorkerSlots& slots, const QueryRequest& req,
                              const std::shared_ptr<const Graph>& g,
                              QueryResult& res) {
  SGA_REQUIRE(req.k >= 1, "khop: k must be >= 1");
  const ArtifactKey key{req.graph, QueryKind::kKHop,
                        static_cast<std::uint32_t>(bits_for(req.k - 1)),
                        static_cast<std::uint32_t>(req.max_kind)};
  const NetworkCache::ArtifactPtr artifact =
      cache_.get_or_build(key, [&key, &g, &req] {
        auto a = std::make_shared<CompiledArtifact>();
        a->key = key;
        a->graph = g;
        a->khop = nga::compile_khop_ttl(*g, req.k, req.max_kind);
        return a;
      });

  snn::Simulator& sim = slots.acquire(artifact);
  obs::Probe* probe =
      req.want_probe ? &slots.attach_probe(req.probe) : nullptr;
  nga::KHopTtlRunOptions ropt;
  ropt.source = req.source;
  ropt.k = req.k;
  ropt.target = req.target;
  nga::KHopTtlResult r = nga::run_khop_ttl(*artifact->khop, sim, ropt);
  res.dist = std::move(r.dist);
  res.hops = std::move(r.hops);
  res.execution_time = r.execution_time;
  res.sim = r.sim;
  res.total_spikes = r.sim.spikes;
  if (probe != nullptr) res.probe_data = *probe;
}

void QueryService::serve_maxflow(const QueryRequest& req,
                                 const std::shared_ptr<const Graph>& g,
                                 QueryResult& res) {
  SGA_REQUIRE(req.target.has_value(), "maxflow: target (the sink) required");
  // No cached fabric: Edmonds–Karp re-freezes the residual network per
  // phase INSIDE the algorithm — that is algorithmic cost, not a cache
  // miss, and the per-phase networks are residual-state-dependent so they
  // cannot be memoized. The request still gets service benefits (queueing,
  // admission, per-request metrics).
  nga::MaxFlowOptions mopt;
  mopt.source = req.source;
  mopt.sink = *req.target;
  nga::MaxFlowResult r = nga::spiking_max_flow(*g, mopt);
  res.flow_value = r.value;
  res.phases = r.phases;
  res.flow = std::move(r.flow);
  res.total_spikes = r.total_spikes;
  res.execution_time = r.total_snn_steps;
}

QueryService::Stats QueryService::stats() const {
  Stats s;
  {
    const std::lock_guard<std::mutex> lock(mu_);
    s.submitted = submitted_;
    s.rejected = rejected_;
  }
  {
    const std::lock_guard<std::mutex> lock(done_mu_);
    s.served = served_;
    s.failed = failed_;
  }
  s.cache = cache_.stats();
  return s;
}

obs::MetricsRegistry QueryService::metrics() const {
  const std::lock_guard<std::mutex> lock(done_mu_);
  return metrics_;
}

}  // namespace sga::svc
