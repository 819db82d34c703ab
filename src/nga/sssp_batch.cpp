#include "nga/sssp_batch.h"

#include <algorithm>
#include <atomic>
#include <exception>
#include <limits>
#include <mutex>
#include <optional>
#include <thread>

#include "core/error.h"
#include "nga/sssp_event.h"
#include "snn/parallel_sim.h"

namespace sga::nga {

SsspBatchResult spiking_sssp_batch(const Graph& g,
                                   const std::vector<VertexId>& sources,
                                   const SsspBatchOptions& opt) {
  for (const VertexId s : sources) {
    SGA_REQUIRE(s < g.num_vertices(), "spiking_sssp_batch: bad source " << s);
  }

  // Build and freeze ONCE; the immutable compiled form is then shared
  // read-only by every worker's simulator.
  const snn::CompiledNetwork net = build_sssp_network(g).compile();
  SsspBatchResult out;
  out.runs.resize(sources.size());
  out.neurons = net.num_neurons();
  out.synapses = net.num_synapses();
  if (sources.empty()) {
    out.threads_used = 0;
    return out;
  }

  // Shard-parallelism mode: one sharded engine, sources in sequence. The
  // differential harness (test_parallel_agreement / BatchShardedMode)
  // pins this path to the serial path result-for-result.
  if (opt.shards > 0) {
    snn::ParallelConfig pcfg;
    pcfg.num_shards = opt.shards;
    pcfg.num_threads = opt.num_threads;
    snn::ParallelSimulator sim(net, pcfg);
    out.threads_used = sim.num_threads();
    for (std::size_t i = 0; i < sources.size(); ++i) {
      if (i > 0) sim.reset();
      const VertexId s = sources[i];
      sim.inject_spike(s, 0);
      snn::SimConfig cfg;
      cfg.max_time = opt.max_time;
      cfg.record_causes = opt.record_parents;
      SsspSourceRun& r = out.runs[i];
      r.source = s;
      const obs::ScopedThreadMetrics install_metrics(opt.metrics);
      r.sim = sim.run(cfg);
      r.execution_time = read_sssp_solution(sim, g, s, opt.record_parents,
                                            r.dist, r.parent);
      if (opt.metrics != nullptr) {
        opt.metrics->add("batch.sources_done");
        if (r.sim.hit_time_limit) opt.metrics->add("batch.horizon_hits");
      }
    }
    if (opt.metrics != nullptr) {
      opt.metrics->add("batch.sources", sources.size());
      opt.metrics->gauge("batch.workers",
                         static_cast<double>(out.threads_used));
    }
    return out;
  }

  // Pool size: requested (or hardware) thread count, never more than there
  // are sources — the index race below hands each worker at most one claim
  // past the end, so surplus workers would only burn a simulator build.
  // The clamp works in std::size_t and only then narrows: sources.size()
  // can exceed unsigned on LP64, the requested count cannot.
  std::size_t workers =
      opt.num_threads != 0
          ? static_cast<std::size_t>(opt.num_threads)
          : static_cast<std::size_t>(
                std::max(1u, std::thread::hardware_concurrency()));
  workers = std::min(workers, sources.size());
  SGA_CHECK(workers >= 1 && workers <= sources.size(),
            "spiking_sssp_batch: worker clamp failed");
  out.threads_used = static_cast<unsigned>(std::min<std::size_t>(
      workers, std::numeric_limits<unsigned>::max()));

  std::atomic<std::size_t> next{0};
  std::mutex error_mutex;
  std::exception_ptr first_error;
  // One registry per worker slot, merged (single-threaded) after join.
  std::vector<obs::MetricsRegistry> worker_metrics(
      opt.metrics != nullptr ? workers : 0);

  const auto work = [&](std::size_t worker_index) {
    const obs::ScopedThreadMetrics install_metrics(
        opt.metrics != nullptr ? &worker_metrics[worker_index] : nullptr);
    // One simulator per worker, reset()-reused across sources: the O(n)
    // state vectors are paid once per worker, every subsequent source
    // costs O(its events). Construction is deferred to the first claimed
    // index so a worker that loses every claim (all sources taken before
    // it starts) allocates nothing.
    std::optional<snn::Simulator> sim;
    while (true) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= sources.size()) break;
      try {
        if (!sim) {
          sim.emplace(net);
        } else {
          sim->reset();
        }
        const VertexId s = sources[i];
        sim->inject_spike(s, 0);
        snn::SimConfig cfg;
        cfg.max_time = opt.max_time;
        cfg.record_causes = opt.record_parents;
        SsspSourceRun& r = out.runs[i];
        r.source = s;
        r.sim = sim->run(cfg);
        r.execution_time = read_sssp_solution(*sim, g, s, opt.record_parents,
                                              r.dist, r.parent);
        if (obs::MetricsRegistry* m = obs::thread_metrics()) {
          m->add("batch.sources_done");
          if (r.sim.hit_time_limit) m->add("batch.horizon_hits");
        }
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mutex);
        if (!first_error) first_error = std::current_exception();
        return;  // a failed worker stops pulling work; others finish
      }
    }
  };

  if (workers == 1) {
    work(0);
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t i = 0; i < workers; ++i) {
      pool.emplace_back(work, i);
    }
    for (std::thread& th : pool) th.join();
  }
  if (first_error) std::rethrow_exception(first_error);
  if (opt.metrics != nullptr) {
    for (const obs::MetricsRegistry& m : worker_metrics) {
      opt.metrics->merge(m);
    }
    opt.metrics->add("batch.sources", sources.size());
    opt.metrics->gauge("batch.workers", static_cast<double>(workers));
  }
  return out;
}

}  // namespace sga::nga
