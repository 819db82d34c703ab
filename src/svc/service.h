// QueryService: the persistent compile-once, serve-many query layer
// (docs/SERVICE.md; ARCHITECTURE.md §1.7).
//
// The one-shot drivers in src/nga pay a full network build + freeze per
// call. A long-lived service amortizes that across every query that shares
// a fabric: graphs are registered once (content-hashed), compiled artifacts
// are memoized in a NetworkCache, and a pool of worker threads serves
// queries on reusable epoch-reset simulators (WorkerSlots). After warmup a
// steady query mix triggers ZERO re-freezes — every request is a cache hit
// served for the cost of its own event traffic.
//
// Request lifecycle:
//   submit() ──admission (LoadShedder)──► queue ──worker──► serve ──► future
//        └─► kRejected immediately when the shedder says so
// Each request is served under its own obs::MetricsRegistry (installed
// RAII-scoped as the worker thread's registry for exactly the duration of
// the request), returned in the QueryResult and merged into the service-
// level registry — per-request attribution and service-wide totals from the
// same counters. Optional per-request probes ride the worker's pooled
// probe, cleared per request.
//
// Thread safety: submit()/query()/stats()/drain() may be called from any
// thread. Results come back through std::future; the service never calls
// back into user code except the injected LoadShedder (under the queue
// lock) and the NetworkCache builders (on a worker, outside all locks).
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "circuits/max_circuits.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "svc/cache.h"
#include "svc/checkpoint.h"
#include "svc/congestion.h"
#include "svc/worker_pool.h"

namespace sga::svc {

struct ServiceOptions {
  /// Worker threads serving queries (≥ 1).
  unsigned num_workers = 2;
  /// NetworkCache capacity: compiled artifacts kept resident.
  std::size_t cache_capacity = 8;
  /// Reusable simulators kept per worker (WorkerSlots capacity).
  std::size_t slots_per_worker = 4;
  /// Default admission policy: reject once this many requests are queued.
  /// Ignored when `shedder` is set.
  std::size_t max_queue_depth = 64;
  /// Injected admission policy (BORROWED; must outlive the service).
  /// nullptr = QueueDepthShedder(max_queue_depth).
  LoadShedder* shedder = nullptr;
  /// Periodic checkpointing for SSSP queries (docs/PERSISTENCE.md): when
  /// > 0 AND `checkpoints` is set AND the request carries a non-zero
  /// ticket, the worker pauses the run every this-many time steps and
  /// files a (snapshot, journal) checkpoint under the ticket.
  Time checkpoint_interval = 0;
  /// Checkpoint store (BORROWED; must outlive the service). nullptr
  /// disables checkpointing.
  CheckpointStore* checkpoints = nullptr;
};

/// One query. `graph` is a handle returned by add_graph(). Fields beyond
/// (kind, graph, source) are kind-specific — see the comments.
struct QueryRequest {
  QueryKind kind = QueryKind::kSssp;
  std::uint64_t graph = 0;
  VertexId source = 0;
  /// SSSP / k-hop: optional early-termination target. Max-flow: the SINK
  /// (required).
  std::optional<VertexId> target;
  /// k-hop only: hop budget (≥ 1). Requests whose ⌈log k⌉ matches share
  /// one compiled fabric.
  std::uint32_t k = 1;
  /// k-hop only: which Section-5 max circuit the fabric instantiates.
  circuits::MaxKind max_kind = circuits::MaxKind::kWiredOr;
  /// SSSP only: record shortest-path predecessors.
  bool record_parents = true;
  /// Attach a per-request probe with these options and return its recorded
  /// data (SSSP / k-hop; max-flow manages its own simulators internally
  /// and ignores probes).
  bool want_probe = false;
  obs::ProbeOptions probe;
  /// Crash-recovery identity (SSSP only): a non-zero ticket opts this
  /// request into periodic checkpointing when the service was built with a
  /// CheckpointStore and a checkpoint_interval. Tickets are caller-chosen;
  /// reusing one overwrites its checkpoints.
  std::uint64_t ticket = 0;
  /// Re-serve from the ticket's stored checkpoint instead of starting
  /// fresh (the answer is event-for-event identical to an uninterrupted
  /// run). Fails kFailed when the ticket has no checkpoint.
  bool resume = false;
};

enum class QueryStatus : std::uint8_t {
  kOk,
  kRejected,  ///< shed at admission; the request was never queued
  kFailed,    ///< serve raised; see QueryResult::error
};

struct QueryResult {
  QueryStatus status = QueryStatus::kOk;
  std::string error;  ///< set iff status == kFailed / kRejected

  // ---- SSSP / k-hop payload -------------------------------------------
  std::vector<Weight> dist;          ///< kInfiniteDistance where unreached
  std::vector<VertexId> parent;      ///< SSSP with record_parents
  std::vector<std::uint32_t> hops;   ///< k-hop: edges used per vertex

  // ---- Max-flow payload -----------------------------------------------
  std::int64_t flow_value = 0;
  std::uint64_t phases = 0;               ///< augmenting paths
  std::vector<std::int64_t> flow;         ///< per input edge

  // ---- Cost accounting -------------------------------------------------
  Time execution_time = 0;      ///< SNN steps (Σ over phases for max-flow)
  std::uint64_t total_spikes = 0;
  snn::SimStats sim;            ///< final run's stats (zero for max-flow)

  // ---- Per-request observability --------------------------------------
  /// Everything instrumented code recorded while serving THIS request
  /// (sim.* counters, sim.run_ns timer, svc.request_ns, ...).
  obs::MetricsRegistry metrics;
  /// Copy of the per-request probe's recordings (want_probe only).
  std::optional<obs::Probe> probe_data;

  bool ok() const { return status == QueryStatus::kOk; }
};

class QueryService {
 public:
  explicit QueryService(ServiceOptions options = {});
  /// Graceful shutdown: queued requests are served, then workers exit.
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Register a graph; returns its content hash — the handle QueryRequest
  /// refers to. Idempotent: re-adding an identical graph returns the same
  /// handle and keeps the first copy (so resident artifacts stay valid).
  std::uint64_t add_graph(Graph g);
  /// The registered graph behind a handle (nullptr if unknown).
  std::shared_ptr<const Graph> graph(std::uint64_t handle) const;

  /// Enqueue a query. Returns immediately: a ready kRejected future when
  /// the admission policy sheds it, a pending one otherwise.
  std::future<QueryResult> submit(QueryRequest req);
  /// submit() + wait. The calling thread blocks until a worker serves it.
  QueryResult query(QueryRequest req);

  /// Block until every queued request has been served.
  void drain();

  struct Stats {
    std::uint64_t submitted = 0;  ///< all submit() calls
    std::uint64_t served = 0;     ///< completed OK
    std::uint64_t rejected = 0;   ///< shed at admission
    std::uint64_t failed = 0;     ///< completed with an error
    CacheStats cache;
  };
  Stats stats() const;

  const NetworkCache& cache() const { return cache_; }
  /// Snapshot of the service-level registry (all requests' metrics merged).
  obs::MetricsRegistry metrics() const;

 private:
  struct Job {
    QueryRequest request;
    std::promise<QueryResult> promise;
  };

  void worker_main();
  QueryResult serve(WorkerSlots& slots, const QueryRequest& req);
  void serve_impl(WorkerSlots& slots, const QueryRequest& req,
                  QueryResult& res);
  void serve_sssp(WorkerSlots& slots, const QueryRequest& req,
                  const std::shared_ptr<const Graph>& graph, QueryResult& res);
  void serve_khop(WorkerSlots& slots, const QueryRequest& req,
                  const std::shared_ptr<const Graph>& graph, QueryResult& res);
  void serve_maxflow(const QueryRequest& req,
                     const std::shared_ptr<const Graph>& graph,
                     QueryResult& res);

  const ServiceOptions opt_;
  QueueDepthShedder default_shedder_;
  LoadShedder* shedder_;  ///< opt_.shedder or &default_shedder_
  NetworkCache cache_;

  mutable std::mutex graphs_mu_;
  std::unordered_map<std::uint64_t, std::shared_ptr<const Graph>> graphs_;

  mutable std::mutex mu_;  ///< queue + admission + submit-side counters
  std::condition_variable cv_;
  std::condition_variable idle_cv_;
  std::deque<Job> queue_;
  std::size_t active_ = 0;  ///< requests currently being served
  bool stop_ = false;
  std::uint64_t submitted_ = 0;
  std::uint64_t rejected_ = 0;

  mutable std::mutex done_mu_;  ///< serve-side counters + merged metrics
  std::uint64_t served_ = 0;
  std::uint64_t failed_ = 0;
  obs::MetricsRegistry metrics_;

  std::vector<std::thread> workers_;
};

}  // namespace sga::svc
