// Crash-recovery tests for the query service's checkpointing loop
// (svc/checkpoint.h; docs/PERSISTENCE.md).
//
// The contract under test: a ticketed SSSP query served through periodic
// pause/snapshot checkpoints answers EXACTLY like an uncheckpointed run;
// a worker killed at a checkpoint boundary (injected via the store's
// on_checkpoint hook) leaves a recoverable checkpoint behind, and
// resubmitting with resume = true completes the query with the identical
// answer — on whatever worker picks it up.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/random.h"
#include "graph/generators.h"
#include "nga/sssp_event.h"
#include "snn/snapshot.h"
#include "svc/checkpoint.h"
#include "svc/service.h"

namespace sga::svc {
namespace {

Graph test_graph(std::uint64_t seed, std::size_t n, std::size_t m,
                 Weight max_len = 9) {
  Rng rng(seed);
  return make_random_graph(n, m, {1, max_len}, rng);
}

/// Interval that guarantees several checkpoints for `source` on `g`.
Time interval_for(const Graph& g, VertexId source) {
  nga::SpikingSsspOptions opt;
  opt.source = source;
  const nga::SpikingSsspResult ref = nga::spiking_sssp(g, opt);
  const Time interval = ref.execution_time / 5;
  return interval > 0 ? interval : 1;
}

TEST(CheckpointStore, PutGetEraseLatestWins) {
  CheckpointStore store;
  EXPECT_EQ(store.size(), 0u);
  EXPECT_FALSE(store.get(7).has_value());
  Checkpoint a;
  a.sequence = 1;
  a.snapshot = {1, 2, 3};
  store.put(7, a);
  Checkpoint b;
  b.sequence = 2;
  b.snapshot = {4, 5};
  store.put(7, b);
  EXPECT_EQ(store.size(), 1u);
  const auto got = store.get(7);
  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->sequence, 2u);
  EXPECT_EQ(got->snapshot, (std::vector<std::uint8_t>{4, 5}));
  EXPECT_TRUE(store.erase(7));
  EXPECT_FALSE(store.erase(7));
  EXPECT_EQ(store.size(), 0u);
}

TEST(QueryServiceCheckpoint, CheckpointedAnswersMatchPlain) {
  const Graph g = test_graph(0x61, 40, 160);
  CheckpointStore store;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.checkpoint_interval = interval_for(g, 0);
  opt.checkpoints = &store;
  QueryService service(opt);
  const std::uint64_t handle = service.add_graph(g);

  for (VertexId s = 0; s < 8; ++s) {
    nga::SpikingSsspOptions ref_opt;
    ref_opt.source = s;
    const nga::SpikingSsspResult ref = nga::spiking_sssp(g, ref_opt);

    QueryRequest req;
    req.kind = QueryKind::kSssp;
    req.graph = handle;
    req.source = s;
    req.ticket = 100 + s;
    const QueryResult res = service.query(std::move(req));
    ASSERT_TRUE(res.ok()) << res.error;
    EXPECT_EQ(res.dist, ref.dist) << "source " << s;
    EXPECT_EQ(res.parent, ref.parent) << "source " << s;
    EXPECT_EQ(res.execution_time, ref.execution_time);
    // Event-for-event through the pauses: the run's final stats count
    // everything from t = 0, exactly like the uninterrupted reference.
    EXPECT_EQ(res.sim.spikes, ref.sim.spikes) << "source " << s;
    EXPECT_EQ(res.sim.deliveries, ref.sim.deliveries);
    EXPECT_EQ(res.sim.event_times, ref.sim.event_times);
  }

  // Completed queries dropped their recovery points.
  EXPECT_EQ(store.size(), 0u);
  // And checkpoints really happened.
  EXPECT_GT(service.metrics().counter("svc.checkpoints"), 0u);
  EXPECT_EQ(service.metrics().counter("svc.recoveries"), 0u);
}

TEST(QueryServiceCheckpoint, WorkerCrashRecoversFromTheLastCheckpoint) {
  const Graph g = test_graph(0x62, 40, 160);
  CheckpointStore store;
  ServiceOptions opt;
  opt.num_workers = 2;
  opt.checkpoint_interval = interval_for(g, 3);
  opt.checkpoints = &store;
  QueryService service(opt);
  const std::uint64_t handle = service.add_graph(g);

  nga::SpikingSsspOptions ref_opt;
  ref_opt.source = 3;
  const nga::SpikingSsspResult ref = nga::spiking_sssp(g, ref_opt);

  // Kill the serving worker at the SECOND checkpoint boundary — after the
  // checkpoint is durable, mid-query. (The hook throws on the worker; the
  // serve fails kFailed; the worker itself survives to serve again, which
  // models crash-recovery without needing a process kill in-test.)
  store.on_checkpoint = [](std::uint64_t /*ticket*/, std::uint64_t seq) {
    if (seq == 2) throw std::runtime_error("injected worker crash");
  };

  QueryRequest req;
  req.kind = QueryKind::kSssp;
  req.graph = handle;
  req.source = 3;
  req.ticket = 42;
  const QueryResult crashed = service.query(QueryRequest{req});
  EXPECT_EQ(crashed.status, QueryStatus::kFailed);
  EXPECT_FALSE(crashed.error.empty());
  // The recovery point survived the crash.
  const auto cp = store.get(42);
  ASSERT_TRUE(cp.has_value());
  EXPECT_EQ(cp->sequence, 2u);
  EXPECT_FALSE(cp->snapshot.empty());
  EXPECT_FALSE(cp->journal.empty());

  // Resume. The stored sequence continues (3, 4, ...), so the seq == 2
  // crash hook never re-fires; the query must complete with the identical
  // answer to an uninterrupted run.
  QueryRequest again = req;
  again.resume = true;
  const QueryResult res = service.query(std::move(again));
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.dist, ref.dist);
  EXPECT_EQ(res.parent, ref.parent);
  EXPECT_EQ(res.execution_time, ref.execution_time);
  EXPECT_EQ(res.sim.spikes, ref.sim.spikes);
  EXPECT_EQ(res.sim.deliveries, ref.sim.deliveries);
  EXPECT_EQ(res.sim.event_times, ref.sim.event_times);
  EXPECT_EQ(store.size(), 0u);  // completed: recovery point dropped
  EXPECT_GE(service.metrics().counter("svc.recoveries"), 1u);

  // The crashed worker's slot is not poisoned: a fresh un-ticketed query
  // on the same service still answers correctly.
  QueryRequest plain;
  plain.kind = QueryKind::kSssp;
  plain.graph = handle;
  plain.source = 3;
  const QueryResult pres = service.query(std::move(plain));
  ASSERT_TRUE(pres.ok()) << pres.error;
  EXPECT_EQ(pres.dist, ref.dist);
}

TEST(QueryServiceCheckpoint, OldU8DelayCheckpointIsRefusedCleanly) {
  // A checkpoint taken while narrow stores held u8 delays records
  // delay_bytes 1 in its snapshot fingerprint. The u16 freeze the service
  // runs on refuses it: the resumed request fails with the fingerprint
  // error, and the worker serves the next request normally.
  const Graph g = test_graph(0x65, 40, 160);
  CheckpointStore store;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.checkpoint_interval = interval_for(g, 2);
  opt.checkpoints = &store;
  store.on_checkpoint = [](std::uint64_t, std::uint64_t seq) {
    if (seq == 1) throw std::runtime_error("injected worker crash");
  };
  QueryService service(opt);
  const std::uint64_t handle = service.add_graph(g);

  QueryRequest req;
  req.kind = QueryKind::kSssp;
  req.graph = handle;
  req.source = 2;
  req.ticket = 77;
  ASSERT_EQ(service.query(QueryRequest{req}).status, QueryStatus::kFailed);
  std::optional<Checkpoint> cp = store.get(77);
  ASSERT_TRUE(cp.has_value());

  // Header (8 bytes), section frame (12), n, m and max_delay (24), the
  // narrow flag and the target width (2), then the delay width; the CRC
  // is re-stamped so the image fails on the fingerprint, not the CRC.
  std::vector<std::uint8_t>& b = cp->snapshot;
  constexpr std::size_t kDelayBytes = 8 + 12 + 24 + 2;
  ASSERT_EQ(b[kDelayBytes], 2);
  b[kDelayBytes] = 1;
  const std::uint32_t crc = snn::snapshot_crc32(b.data(), b.size() - 4);
  for (int i = 0; i < 4; ++i) {
    b[b.size() - 4 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  }
  store.put(77, *cp);

  QueryRequest again = req;
  again.resume = true;
  const QueryResult res = service.query(std::move(again));
  EXPECT_EQ(res.status, QueryStatus::kFailed);
  EXPECT_NE(res.error.find("snapshot [fingerprint]"), std::string::npos)
      << res.error;

  nga::SpikingSsspOptions ref_opt;
  ref_opt.source = 2;
  QueryRequest plain;
  plain.kind = QueryKind::kSssp;
  plain.graph = handle;
  plain.source = 2;
  const QueryResult pres = service.query(std::move(plain));
  ASSERT_TRUE(pres.ok()) << pres.error;
  EXPECT_EQ(pres.dist, nga::spiking_sssp(g, ref_opt).dist);
}

TEST(QueryServiceCheckpoint, ResumeWithUnknownTicketFails) {
  const Graph g = test_graph(0x63, 20, 80);
  CheckpointStore store;
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.checkpoint_interval = 4;
  opt.checkpoints = &store;
  QueryService service(opt);
  const std::uint64_t handle = service.add_graph(g);

  QueryRequest req;
  req.kind = QueryKind::kSssp;
  req.graph = handle;
  req.source = 0;
  req.ticket = 999;
  req.resume = true;  // nothing was ever checkpointed under 999
  const QueryResult res = service.query(std::move(req));
  EXPECT_EQ(res.status, QueryStatus::kFailed);
  EXPECT_FALSE(res.error.empty());

  // resume without checkpointing configured at all is also a clean failure.
  QueryService bare;
  const std::uint64_t h2 = bare.add_graph(g);
  QueryRequest r2;
  r2.kind = QueryKind::kSssp;
  r2.graph = h2;
  r2.source = 0;
  r2.resume = true;
  EXPECT_EQ(bare.query(std::move(r2)).status, QueryStatus::kFailed);
}

TEST(QueryServiceCheckpoint, UnticketedRequestsBypassCheckpointing) {
  const Graph g = test_graph(0x64, 30, 120);
  CheckpointStore store;
  int hook_calls = 0;
  store.on_checkpoint = [&](std::uint64_t, std::uint64_t) { ++hook_calls; };
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.checkpoint_interval = 2;
  opt.checkpoints = &store;
  QueryService service(opt);
  const std::uint64_t handle = service.add_graph(g);

  nga::SpikingSsspOptions ref_opt;
  ref_opt.source = 5;
  const nga::SpikingSsspResult ref = nga::spiking_sssp(g, ref_opt);

  QueryRequest req;  // ticket stays 0: no checkpoint opt-in
  req.kind = QueryKind::kSssp;
  req.graph = handle;
  req.source = 5;
  const QueryResult res = service.query(std::move(req));
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.dist, ref.dist);
  EXPECT_EQ(hook_calls, 0);
  EXPECT_EQ(store.size(), 0u);
  EXPECT_EQ(service.metrics().counter("svc.checkpoints"), 0u);
}

TEST(QueryServiceCheckpoint, TicketWithoutStoreServesPlainly) {
  // Interval set but no store: the ticket is inert, answers still correct.
  const Graph g = test_graph(0x65, 20, 80);
  ServiceOptions opt;
  opt.num_workers = 1;
  opt.checkpoint_interval = 2;  // checkpoints == nullptr disables it
  QueryService service(opt);
  const std::uint64_t handle = service.add_graph(g);

  nga::SpikingSsspOptions ref_opt;
  ref_opt.source = 1;
  const nga::SpikingSsspResult ref = nga::spiking_sssp(g, ref_opt);
  QueryRequest req;
  req.kind = QueryKind::kSssp;
  req.graph = handle;
  req.source = 1;
  req.ticket = 5;
  const QueryResult res = service.query(std::move(req));
  ASSERT_TRUE(res.ok()) << res.error;
  EXPECT_EQ(res.dist, ref.dist);
  EXPECT_EQ(res.sim.spikes, ref.sim.spikes);
}

}  // namespace
}  // namespace sga::svc
