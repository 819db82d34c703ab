#include "snn/parallel_sim.h"

#include <algorithm>
#include <atomic>
#include <barrier>
#include <limits>
#include <map>
#include <mutex>
#include <thread>

#include "core/error.h"
#include "obs/metrics.h"
#include "obs/probe.h"
#include "snn/network.h"
#include "snn/snapshot.h"

namespace sga::snn {

namespace {

/// "no pending event" sentinel — strictly above every representable event
/// time (events are clamped to ≤ kNever = max/4 on the fire side).
constexpr Time kNoTime = std::numeric_limits<Time>::max();

}  // namespace

struct MailBox {
  /// The deliveries of one arrival time, in fire order.
  /// The columns are sized to their capacity and only [0, size) holds
  /// mail, so a fan-out run appends with one capacity check (extend) and
  /// plain element writes, never a per-element push_back.
  struct Run {
    Time t = 0;
    std::size_t slot = 0;            ///< its entry in `index`
    std::size_t size = 0;            ///< deliveries held
    std::vector<NeuronId> targets;   ///< local index in the destination shard
    std::vector<SynWeight> weights;
    std::vector<NeuronId> sources;   ///< GLOBAL firing ids; iff causes

    /// Room for `n` more deliveries; returns the first new index.
    std::size_t extend(std::size_t n, bool causes) {
      const std::size_t at = size;
      size += n;
      if (size > targets.size() || (causes && size > sources.size()))
          [[unlikely]] {
        grow(causes);
      }
      return at;
    }
    [[gnu::noinline]] void grow(bool causes) {
      const std::size_t cap =
          std::max<std::size_t>({size, 2 * targets.size(), 16});
      targets.resize(cap);
      weights.resize(cap);
      if (causes) sources.resize(cap);
    }
  };
  /// runs[0, live) hold this window's mail, in order of first arrival;
  /// runs past `live` keep their capacity for later windows.
  std::vector<Run> runs;
  std::size_t live = 0;
  /// Arrival time → run, open addressing on the low bits of the time:
  /// run + 1 per slot, 0 = empty. Sized to twice the runs one window
  /// needs, so it follows traffic, not the delay range.
  std::vector<std::uint32_t> index;

  Run& run_for(Time t) {
    if (2 * (live + 1) > index.size()) grow();
    const std::size_t mask = index.size() - 1;
    std::size_t slot = static_cast<std::size_t>(t) & mask;
    for (; index[slot] != 0; slot = (slot + 1) & mask) {
      Run& r = runs[index[slot] - 1];
      if (r.t == t) return r;
    }
    if (live == runs.size()) runs.emplace_back();
    Run& r = runs[live++];
    r.t = t;
    r.slot = slot;
    index[slot] = static_cast<std::uint32_t>(live);
    return r;
  }

  void grow() {
    index.assign(std::max<std::size_t>(16, 2 * index.size()), 0);
    const std::size_t mask = index.size() - 1;
    for (std::size_t i = 0; i < live; ++i) {
      std::size_t slot = static_cast<std::size_t>(runs[i].t) & mask;
      while (index[slot] != 0) slot = (slot + 1) & mask;
      index[slot] = static_cast<std::uint32_t>(i + 1);
      runs[i].slot = slot;
    }
  }

  void clear() {  // keeps capacity — boxes are reused every window
    for (std::size_t i = 0; i < live; ++i) {
      index[runs[i].slot] = 0;
      runs[i].size = 0;
    }
    live = 0;
  }
};

// One shard: an EventCore over the shard-local store, plus the cross half
// of every fire (EventCore::Remote) and the fold of the mail it receives.
struct ParallelSimulator::Shard final : EventCore::Remote {
  Shard(const CompiledNetwork& local, const ShardCsr& shard_csr,
        Delay max_delay)
      : core(local, shard_csr.global_ids.data(), max_delay, this),
        csr(&shard_csr) {}

  EventCore core;
  const ShardCsr* csr;

  // ---- per-window summary, read by the coordinator at the barrier ------
  Time out_min_time_ = kNoTime;  ///< earliest mailbox arrival written
  Time next_time_ = kNoTime;     ///< earliest pending local event
  MailBox* out_ = nullptr;       ///< S outboxes, current parity

  /// Cross-shard fan-out, one run per (dst-shard, delay) segment. Runs are
  /// (shard, delay)-ordered, NOT globally delay-ascending, so a horizon
  /// hit skips the run but keeps scanning. Each run is appended to the
  /// destination outbox's run for the arrival time — only this shard's
  /// worker writes those boxes during the window; the barrier hands them
  /// over.
  void fan_out(NeuronId lid, Time t, SimStats& st) override {
    const EventCore::RunState& rs = core.state();
    const bool causes = rs.record_causes;
    const NeuronId gid = csr->global_ids[lid];
    const NeuronId* clocal = csr->cross_local.data();
    const SynWeight* cwgt = csr->cross_weight.data();
    const std::size_t cse = csr->cross_seg_offsets[lid + 1];
    for (std::size_t s = csr->cross_seg_offsets[lid]; s < cse; ++s) {
      ++st.fanout_segments;
      const Delay d = csr->cross_seg_delay[s];
      if (d > rs.max_time - t) {
        st.hit_time_limit = true;
        continue;
      }
      const Time at = t + d;
      const std::size_t b = csr->cross_seg_begin[s];
      const std::size_t len = csr->cross_seg_begin[s + 1] - b;
      MailBox::Run& run = out_[csr->cross_seg_shard[s]].run_for(at);
      const std::size_t k = run.extend(len, causes);
      NeuronId* const tgt = run.targets.data() + k;
      SynWeight* const wgt = run.weights.data() + k;
      for (std::size_t i = 0; i < len; ++i) {
        tgt[i] = clocal[b + i];
        wgt[i] = cwgt[b + i];
      }
      if (causes) std::fill_n(run.sources.data() + k, len, gid);
      ++st.bulk_appends;
      if (at < out_min_time_) out_min_time_ = at;
    }
  }

  /// Fold the mail delivered at the previous barrier into the local queue:
  /// one bucket_for + raw-run append per (source shard, arrival time). Boxes
  /// are drained in source-shard order and each run holds its arrivals in
  /// fire order, which fixes every bucket's order deterministically (the
  /// serial bucket order differs, but bucket order is only observable
  /// through FP summation order — exact for the integer weights of every
  /// paper construction — and cause tie-breaks, which use the order-free
  /// (weight, global source id) rule).
  void drain_inboxes(MailBox* in_boxes, std::size_t stride,
                     std::size_t num_shards) {
    const bool causes = core.state().record_causes;
    for (std::size_t s = 0; s < num_shards; ++s) {
      MailBox& box = in_boxes[s * stride];
      for (std::size_t r = 0; r < box.live; ++r) {
        const MailBox::Run& run = box.runs[r];
        const std::size_t n = run.size;
        EventCore::Bucket& bucket = core.bucket_for(run.t, n);
        bucket.open_raw(n);
        bucket.targets.insert(bucket.targets.end(), run.targets.data(),
                              run.targets.data() + n);
        bucket.weights.insert(bucket.weights.end(), run.weights.data(),
                              run.weights.data() + n);
        if (causes) {
          bucket.sources.insert(bucket.sources.end(), run.sources.data(),
                                run.sources.data() + n);
        }
      }
      box.clear();
    }
  }

  /// Process every pending event with time < wend through the core, then
  /// record the earliest event left for the coordinator.
  void advance_window(Time wend) {
    core.steps().clear();
    out_min_time_ = kNoTime;
    core.run_until(wend);
    Time t = 0;
    next_time_ = core.next_pending_time(&t, wend) ? t : kNoTime;
  }

  void reset() {
    core.reset();
    out_min_time_ = kNoTime;
    next_time_ = kNoTime;
  }
};

ParallelSimulator::ParallelSimulator(const CompiledNetwork& net,
                                     ParallelConfig config)
    : net_(&net) {
  configure(config);
}

ParallelSimulator::ParallelSimulator(const Network& net, ParallelConfig config)
    : net_(nullptr), owned_(std::make_unique<CompiledNetwork>(net)) {
  net_ = owned_.get();
  configure(config);
}

ParallelSimulator::~ParallelSimulator() = default;

void ParallelSimulator::configure(ParallelConfig config) {
  SGA_REQUIRE(config.max_window >= 1,
              "ParallelSimulator: max_window must be >= 1");
  const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
  const unsigned requested = config.num_threads != 0 ? config.num_threads : hw;
  const std::size_t shards = config.num_shards != 0
                                 ? config.num_shards
                                 : static_cast<std::size_t>(requested);
  threads_ = static_cast<unsigned>(std::min<std::size_t>(requested, shards));
  max_window_ = config.max_window;
  split_ = net_->shard_split(make_partition(*net_, shards, config.partition));
  split_generation_ = net_->generation();
  lookahead_ = split_.min_cross_delay == 0
                   ? max_window_
                   : std::min<Time>(split_.min_cross_delay, max_window_);
  // Keep wstart_ + window_len_ overflow-free for any config: event times
  // never exceed kNever (= max/4), so this clamp cannot change results.
  lookahead_ = std::min(lookahead_, kNever);
  shards_.clear();
  for (std::size_t i = 0; i < shards; ++i) {
    shards_.push_back(std::make_unique<Shard>(
        split_.intra[i], split_.shards[i], net_->max_delay()));
  }
  mail_[0].assign(shards * shards, {});
  mail_[1].assign(shards * shards, {});
}

void ParallelSimulator::inject_spike(NeuronId id, Time t) {
  SGA_REQUIRE(id < net_->num_neurons(),
              "inject_spike: bad neuron " << id);
  SGA_REQUIRE(t >= 0, "inject_spike: negative time " << t);
  SGA_REQUIRE(t <= kNever, "inject_spike: time " << t << " beyond kNever");
  SGA_REQUIRE(!ran_ || paused_,
              "inject_spike after run() (call reset() first, or pause the "
              "run to inject mid-flight)");
  SGA_REQUIRE(!paused_ || t >= pause_floor_,
              "inject_spike at t=" << t << " into a paused run whose resume "
                                   << "floor is " << pause_floor_);
  Shard& sh = *shards_[split_.partition.shard_of[id]];
  sh.core.inject(split_.partition.local_index[id], t);
}

void ParallelSimulator::attach_probe(obs::Probe& probe) {
  probe.bind(net_->num_neurons());
  probe_ = &probe;
}

void ParallelSimulator::plan_next_window() try {
  const std::size_t s = shards_.size();

  if (!first_plan_) {
    // Fold the finished window: distinct global event times and the last
    // processed step. Shards report sorted per-window time lists; their
    // merged distinct count is what the serial loop counts one bucket at
    // a time.
    merge_scratch_.clear();
    for (const auto& sh : shards_) {
      merge_scratch_.insert(merge_scratch_.end(), sh->core.steps().begin(),
                            sh->core.steps().end());
    }
    if (!merge_scratch_.empty()) {
      std::sort(merge_scratch_.begin(), merge_scratch_.end());
      stats_.event_times += static_cast<std::uint64_t>(
          std::unique(merge_scratch_.begin(), merge_scratch_.end()) -
          merge_scratch_.begin());
      stats_.end_time = merge_scratch_.back();
    }
    // Terminal resolution at the barrier. Window length is 1 whenever
    // terminals are configured, so every terminal fire folded here
    // happened at the single just-executed step wstart_ — the barrier
    // decision is therefore exactly the serial loop's end-of-bucket
    // decision.
    std::uint64_t newly = 0;
    for (const auto& sh : shards_) newly += sh->core.take_terminal_fires();
    if (terminals_remaining_ > 0 && !terminal_fired_) {
      if (newly >= terminals_remaining_) {
        terminal_fired_ = true;
        stats_.hit_terminal = true;
        stats_.execution_time = wstart_;
        terminals_remaining_ = 0;
      } else {
        terminals_remaining_ -= newly;
      }
    }
  }
  first_plan_ = false;

  if (error_) {
    done_ = true;
    return;
  }
  if (terminal_fired_) {
    done_ = true;
    return;
  }

  // Global earliest pending event: shard queues and the mail written in
  // the window just finished (it is not in any queue until drained).
  Time next = kNoTime;
  for (const auto& sh : shards_) {
    next = std::min(next, sh->next_time_);
    next = std::min(next, sh->out_min_time_);
  }
  if (next == kNoTime) {
    done_ = true;  // quiescence
    return;
  }
  if (next > max_time_) {
    stats_.hit_time_limit = true;  // pending work beyond the horizon
    done_ = true;
    return;
  }
  if (next > pause_time_) {
    // Cooperative pause at the barrier. The window just finished wrote its
    // cross-shard mail into mail_[parity_] (undrained — destinations fold
    // at the START of the next window, which will not run): fold it into
    // the destination shards' queues now, single-threaded, so the COMPLETE
    // pending-event set lives in shard queues — that is the state
    // snapshot() enumerates and run() resumes from. Nothing is dropped.
    for (std::size_t i = 0; i < s; ++i) {
      shards_[i]->drain_inboxes(mail_[parity_].data() + i, s, s);
      shards_[i]->out_min_time_ = kNoTime;
    }
    paused_ = true;
    stats_.paused = true;
    pause_floor_ = next;
    done_ = true;
    return;
  }
  wstart_ = next;
  wend_ = std::min(wstart_ + window_len_, max_time_ + 1);
  parity_ ^= 1;
  const int p = parity_;
  for (std::size_t i = 0; i < s; ++i) {
    shards_[i]->out_ = mail_[p].data() + i * s;
  }
} catch (...) {
  if (!error_) error_ = std::current_exception();
  done_ = true;
}

void ParallelSimulator::advance_owned_shards(unsigned worker) {
  // Static round-robin: shard state is self-contained, so which worker
  // runs a shard never changes results.
  const std::size_t s = shards_.size();
  for (std::size_t i = worker; i < s; i += workers_) {
    // Inboxes for shard i under read parity: mail_[1 - parity_][src*s + i].
    shards_[i]->drain_inboxes(mail_[1 - parity_].data() + i, s, s);
    shards_[i]->advance_window(wend_);
  }
}

void ParallelSimulator::check_split_generation() const {
  SGA_REQUIRE(net_->generation() == split_generation_,
              "ParallelSimulator: the network was patched after this engine "
              "split it into shard stores, which still hold the old values; "
              "build a new ParallelSimulator on the patched network");
}

SimStats ParallelSimulator::run(const SimConfig& config) {
  check_split_generation();
  SGA_REQUIRE(!ran_ || paused_,
              "ParallelSimulator::run is one-shot (call reset() to reuse, "
              "or pause via SimConfig::pause_time to resume later)");
  obs::MetricsRegistry* caller_metrics = obs::thread_metrics();
  obs::ScopedTimer run_timer(caller_metrics, "psim.run_ns");
  const bool resuming = ran_;
  // Metrics report per-call deltas, so a pause/resume cycle does not
  // double-count the pre-pause portion of the cumulative stats.
  const std::uint64_t spikes0 = stats_.spikes;
  const std::uint64_t deliveries0 = stats_.deliveries;
  const std::uint64_t event_times0 = stats_.event_times;
  ran_ = true;
  if (resuming) {
    // Same resume contract as the serial engine: the recording flags and
    // horizon shaped the pre-pause event stream and cannot change.
    SGA_REQUIRE(shards_.empty() ||
                    (config.record_causes ==
                         shards_[0]->core.state().record_causes &&
                     config.record_spike_log ==
                         shards_[0]->core.state().record_log),
                "resume: record_causes/record_spike_log must match the "
                "paused run");
    SGA_REQUIRE(std::min(config.max_time, kNever) == max_time_,
                "resume: max_time must match the paused run ("
                    << max_time_ << ")");
  } else {
    // Clamped so max_time_ + 1 cannot overflow; events never pass kNever
    // (injections are checked, and the fire-side horizon test drops the
    // rest), so the clamp is unobservable.
    max_time_ = std::min(config.max_time, kNever);
  }
  pause_time_ = config.pause_time;
  paused_ = false;
  stats_.paused = false;

  const Partition& part = split_.partition;
  std::uint64_t distinct_terminals = 0;
  for (const NeuronId t : config.terminal_neurons) {
    SGA_REQUIRE(t < net_->num_neurons(), "bad terminal neuron " << t);
    Shard& sh = *shards_[part.shard_of[t]];
    const NeuronId lid = part.local_index[t];
    if (sh.core.mark_terminal(lid)) ++distinct_terminals;
  }
  if (!resuming) {
    terminals_remaining_ = config.terminate_on_all
                               ? distinct_terminals
                               : std::min<std::uint64_t>(1, distinct_terminals);
    terminal_fired_ = false;
  } else if (distinct_terminals > 0) {
    // Terminals registered before the pause were counted then (the loop
    // above is idempotent); only genuinely new ids adjust the count.
    terminals_remaining_ +=
        config.terminate_on_all
            ? distinct_terminals
            : ((terminals_remaining_ == 0 && !terminal_fired_) ? 1 : 0);
  }
  const bool watch_all = resuming && !shards_.empty()
                             ? shards_[0]->core.state().watch_all
                             : config.watched_neurons.empty();
  for (const NeuronId w : config.watched_neurons) {
    SGA_REQUIRE(w < net_->num_neurons(), "bad watched neuron " << w);
    Shard& sh = *shards_[part.shard_of[w]];
    const NeuronId lid = part.local_index[w];
    sh.core.mark_watched(lid);
  }

  // Per-shard probes: same options as the attached probe, bound to the
  // full network (hooks use global ids). Merged into the user's probe in
  // finalize_run() — only at COMPLETION, so a resume keeps accumulating
  // into the same shard probes rather than recreating (and losing) them.
  if (!resuming) shard_probes_.clear();
  if (probe_ != nullptr && shard_probes_.empty()) {
    for (std::size_t i = 0; i < shards_.size(); ++i) {
      shard_probes_.push_back(std::make_unique<obs::Probe>(probe_->options()));
      shard_probes_.back()->bind(net_->num_neurons());
    }
  }

  for (std::size_t i = 0; i < shards_.size(); ++i) {
    Shard& sh = *shards_[i];
    EventCore::RunState& rs = sh.core.state();
    rs.record_causes = config.record_causes;
    rs.record_log = config.record_spike_log;
    rs.watch_all = watch_all;
    rs.max_time = max_time_;
    sh.core.set_probe(probe_ != nullptr ? shard_probes_[i].get() : nullptr);
    sh.next_time_ = kNoTime;
    Time t = 0;
    // wend = 0: the pre-run peek must never move the cursor — the first
    // window has not been planned, so every jump would be speculative.
    if (sh.core.next_pending_time(&t, 0)) sh.next_time_ = t;
    sh.out_min_time_ = kNoTime;
  }

  // Terminal detection must stop the run at the end of the terminal's own
  // time step, exactly like the serial loop — so terminal mode degrades
  // the lookahead window to a single step (see header comment).
  window_len_ = terminals_remaining_ > 0 ? 1 : lookahead_;
  done_ = false;
  first_plan_ = true;
  parity_ = 0;
  error_ = nullptr;

  const unsigned workers = std::max(
      1u, std::min<unsigned>(threads_,
                             static_cast<unsigned>(shards_.size())));
  workers_ = workers;
  if (workers == 1) {
    while (true) {
      plan_next_window();
      if (done_) break;
      try {
        advance_owned_shards(0);
        if (caller_metrics != nullptr) caller_metrics->add("psim.windows");
      } catch (...) {
        if (!error_) error_ = std::current_exception();
        break;
      }
    }
  } else {
    std::vector<obs::MetricsRegistry> worker_metrics(
        caller_metrics != nullptr ? workers : 0);
    std::atomic<bool> error_flag{false};
    std::mutex error_mutex;
    std::barrier bar(static_cast<std::ptrdiff_t>(workers),
                     [this]() noexcept { plan_next_window(); });
    auto work = [&](unsigned tid) {
      const obs::ScopedThreadMetrics install(
          caller_metrics != nullptr ? &worker_metrics[tid] : nullptr);
      obs::ScopedTimer t(obs::thread_metrics(), "psim.worker_ns");
      while (true) {
        bar.arrive_and_wait();  // completion == plan_next_window
        if (done_) break;
        if (error_flag.load(std::memory_order_relaxed)) continue;
        try {
          advance_owned_shards(tid);
          if (obs::MetricsRegistry* m = obs::thread_metrics()) {
            m->add("psim.windows");
          }
        } catch (...) {
          {
            const std::lock_guard<std::mutex> lock(error_mutex);
            if (!error_) error_ = std::current_exception();
          }
          error_flag.store(true, std::memory_order_relaxed);
        }
      }
    };
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned i = 0; i < workers; ++i) pool.emplace_back(work, i);
    for (std::thread& th : pool) th.join();
    if (caller_metrics != nullptr) {
      for (const obs::MetricsRegistry& m : worker_metrics) {
        caller_metrics->merge(m);
      }
    }
  }
  if (error_) std::rethrow_exception(error_);

  finalize_run(/*absorb_probes=*/!paused_);
  if (caller_metrics != nullptr) {
    caller_metrics->add("psim.runs");
    caller_metrics->add("sim.spikes", stats_.spikes - spikes0);
    caller_metrics->add("sim.deliveries", stats_.deliveries - deliveries0);
    caller_metrics->add("sim.event_times", stats_.event_times - event_times0);
    caller_metrics->gauge("psim.shards", static_cast<double>(shards_.size()));
    caller_metrics->gauge("psim.threads", static_cast<double>(workers));
  }
  return stats_;
}

void ParallelSimulator::finalize_run(bool absorb_probes) {
  // Engine totals: semantic counters sum exactly; queue counters combine
  // as documented in the header (they are per-queue properties). Counters
  // are ASSIGNED (base_ + per-shard sums), never accumulated into stats_,
  // so finalizing at a pause and again at completion is safe: shard
  // counters persist across the pause, and base_ carries what a restore
  // brought in (shard counters restart from zero there).
  stats_.spikes = base_.spikes;
  stats_.deliveries = base_.deliveries;
  stats_.peak_queue_events = base_.peak_queue_events;
  stats_.max_bucket_occupancy = base_.max_bucket_occupancy;
  stats_.overflow_spills = base_.overflow_spills;
  stats_.empty_bucket_scans = base_.empty_bucket_scans;
  stats_.fanout_segments = base_.fanout_segments;
  stats_.bulk_appends = base_.bulk_appends;
  stats_.pool_hits = base_.pool_hits;
  stats_.pool_misses = base_.pool_misses;
  for (const auto& sh : shards_) {
    const SimStats& ss = sh->core.stats();
    stats_.spikes += ss.spikes;
    stats_.deliveries += ss.deliveries;
    stats_.hit_time_limit = stats_.hit_time_limit || ss.hit_time_limit;
    stats_.peak_queue_events += ss.peak_queue_events;
    stats_.max_bucket_occupancy =
        std::max(stats_.max_bucket_occupancy, ss.max_bucket_occupancy);
    stats_.overflow_spills += ss.overflow_spills;
    stats_.empty_bucket_scans += ss.empty_bucket_scans;
    stats_.fanout_segments += ss.fanout_segments;
    stats_.bulk_appends += ss.bulk_appends;
    stats_.pool_hits += ss.pool_hits;
    stats_.pool_misses += ss.pool_misses;
  }
  describe_engine(&stats_);

  // Canonical (time, id) spike log: shard logs are time-ordered already;
  // one global sort yields the canonical order (a neuron fires at most
  // once per step, so (time, id) is a total order on log entries). A
  // restore scattered the image's log back into the shard logs, so the
  // rebuild covers pre-restore history too.
  log_.clear();
  for (const auto& sh : shards_) {
    log_.insert(log_.end(), sh->core.spike_log().begin(),
                sh->core.spike_log().end());
  }
  std::sort(log_.begin(), log_.end());

  if (absorb_probes && probe_ != nullptr) {
    std::vector<const obs::Probe*> parts;
    parts.reserve(shard_probes_.size());
    for (const auto& p : shard_probes_) parts.push_back(p.get());
    probe_->absorb_shards(parts);
  }
}

void ParallelSimulator::reset() {
  for (const auto& sh : shards_) sh->reset();
  for (int p = 0; p < 2; ++p) {
    for (auto& box : mail_[p]) box.clear();
  }
  shard_probes_.clear();
  log_.clear();
  stats_ = SimStats{};
  base_ = SimStats{};
  terminals_remaining_ = 0;
  terminal_fired_ = false;
  done_ = false;
  first_plan_ = true;
  parity_ = 0;
  max_time_ = kNever;
  error_ = nullptr;
  ran_ = false;
  paused_ = false;
  pause_time_ = kNever;
  pause_floor_ = 0;
}

std::vector<std::uint8_t> ParallelSimulator::snapshot() const {
  check_split_generation();
  obs::ScopedTimer timer(obs::thread_metrics(), "snap.snapshot_ns");
  SnapshotImage img;
  build_image(&img);
  std::vector<std::uint8_t> bytes = serialize_snapshot(img);
  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("snap.snapshots");
    m->add("snap.bytes", bytes.size());
  }
  return bytes;
}

void ParallelSimulator::build_image(SnapshotImage* img) const {
  img->num_neurons = net_->num_neurons();
  img->num_synapses = net_->num_synapses();
  img->max_delay = net_->max_delay();
  img->widths = net_->storage_widths();
  img->mid_run = ran_;
  // Recording flags live in the shards (uniform across them by
  // construction); a never-run simulator has the defaults, exactly like a
  // fresh serial engine.
  const EventCore::RunState rs =
      shards_.empty() ? EventCore::RunState{} : shards_[0]->core.state();
  img->record_causes = rs.record_causes;
  img->record_log = rs.record_log;
  img->watch_all = rs.watch_all;
  img->terminal_fired = terminal_fired_;
  img->max_time = max_time_;
  img->resume_floor =
      paused_ ? pause_floor_ : (ran_ ? stats_.end_time + 1 : 0);
  img->terminals_remaining = terminals_remaining_;
  // Per-neuron state and pending events: each shard's, in global ids,
  // merged into the id-sorted and time-ascending orders the format
  // requires. At a pause the mailboxes are already folded into the shard
  // queues (plan_next_window's pause path), so this IS the complete
  // pending set. In-bucket order is shard-index order, which is
  // deterministic for a given partition; delivery order inside a bucket is
  // semantically order-free (docs/PERSISTENCE.md).
  std::map<Time, SnapshotBucket> pending;
  for (const auto& sh : shards_) {
    for (const NeuronId lid : sh->core.terminals()) {
      img->terminals.push_back(sh->csr->global_ids[lid]);
    }
    for (const NeuronId lid : sh->core.watched()) {
      img->watched.push_back(sh->csr->global_ids[lid]);
    }
    sh->core.export_neurons(&img->neurons);
    sh->core.export_pending(&pending);
  }
  std::sort(img->terminals.begin(), img->terminals.end());
  std::sort(img->watched.begin(), img->watched.end());
  std::sort(img->neurons.begin(), img->neurons.end(),
            [](const SnapshotNeuron& a, const SnapshotNeuron& b) {
              return a.id < b.id;
            });
  img->queue.reserve(pending.size());
  for (auto& [t, bucket] : pending) img->queue.push_back(std::move(bucket));

  img->log = log_;
  img->stats = stats_;
}

void ParallelSimulator::restore(const std::uint8_t* data, std::size_t size) {
  obs::ScopedTimer timer(obs::thread_metrics(), "snap.restore_ns");
  // ALL-OR-NOTHING, as in Simulator::restore: parse + validate throw
  // before the first mutation.
  const SnapshotImage img = parse_snapshot(data, size);
  validate_snapshot_for(img, *net_);
  apply_image(img);
  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("snap.restores");
  }
}

void ParallelSimulator::apply_image(const SnapshotImage& img) {
  reset();
  const Partition& part = split_.partition;
  for (const auto& sh : shards_) {
    EventCore::RunState& rs = sh->core.state();
    rs.record_causes = img.record_causes;
    rs.record_log = img.record_log;
    rs.watch_all = img.watch_all;
  }
  max_time_ = img.max_time;
  for (const NeuronId t : img.terminals) {
    shards_[part.shard_of[t]]->core.mark_terminal(part.local_index[t]);
  }
  for (const NeuronId w : img.watched) {
    shards_[part.shard_of[w]]->core.mark_watched(part.local_index[w]);
  }
  terminals_remaining_ = img.terminals_remaining;
  terminal_fired_ = img.terminal_fired;

  // Scatter pending events to their owning shards through the normal
  // queue path (ring vs spill follows each shard's own geometry).
  for (const SnapshotBucket& b : img.queue) {
    for (const NeuronId f : b.forced) {
      shards_[part.shard_of[f]]->core.inject(part.local_index[f], b.time);
    }
    for (const SnapshotDelivery& d : b.deliveries) {
      EventCore::Bucket& bk =
          shards_[part.shard_of[d.target]]->core.bucket_for(b.time, 1);
      bk.open_raw(1);
      bk.targets.push_back(part.local_index[d.target]);
      bk.weights.push_back(d.weight);
      if (img.record_causes) bk.sources.push_back(d.source);
    }
  }
  for (const SnapshotNeuron& e : img.neurons) {
    shards_[part.shard_of[e.id]]->core.restore_neuron(part.local_index[e.id],
                                                      e);
  }
  // The re-enqueue above ran through bucket_for/activate, which bump
  // per-shard artifact counters; zero them so the post-restore deltas the
  // shards accumulate start clean (base_ carries the image's cumulative
  // totals — see finalize_run).
  for (const auto& sh : shards_) {
    SimStats& ss = sh->core.stats();
    ss.peak_queue_events = 0;
    ss.overflow_spills = 0;
    ss.pool_hits = 0;
    ss.pool_misses = 0;
  }

  // The merged log lives here; shard logs stay empty (finalize_run
  // concatenates shard logs onto an empty log_, so seed the restored
  // history into ONE shard to keep the rebuild correct).
  log_ = img.log;
  if (!shards_.empty()) shards_[0]->core.spike_log() = img.log;

  // Engine-specific fields reflect the LIVE engine, not the source's.
  base_ = img.stats;
  describe_engine(&base_);
  stats_ = base_;
  ran_ = img.mid_run;
  paused_ = img.mid_run && img.stats.paused;
  pause_floor_ = img.resume_floor;
  pause_time_ = kNever;
}

void ParallelSimulator::describe_engine(SimStats* s) const {
  // One shard's ring size, the bytes of the stores the shards run on, and
  // the encoding of the source artifact (shards may differ).
  s->ring_buckets =
      shards_.empty() ? 0 : shards_[0]->core.stats().ring_buckets;
  s->csr_bytes = split_.storage_bytes();
  s->storage_encoding = encoding_code(net_->storage_widths());
}

std::size_t ParallelSimulator::pool_resident_buckets() const {
  std::size_t total = 0;
  for (const auto& sh : shards_) total += sh->core.pool_resident_buckets();
  return total;
}

Time ParallelSimulator::first_spike(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "first_spike: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.record(p.local_index[id]).first_spike;
}

std::vector<Time> ParallelSimulator::first_spikes() const {
  std::vector<Time> out(net_->num_neurons(), kNever);
  for (NeuronId id = 0; id < out.size(); ++id) out[id] = first_spike(id);
  return out;
}

Time ParallelSimulator::last_spike(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "last_spike: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.record(p.local_index[id]).last_spike;
}

std::uint32_t ParallelSimulator::spike_count(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "spike_count: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.record(p.local_index[id]).spike_count;
}

NeuronId ParallelSimulator::first_spike_cause(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(),
              "first_spike_cause: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.cause(p.local_index[id]);
}

Voltage ParallelSimulator::potential(NeuronId id) const {
  SGA_REQUIRE(id < net_->num_neurons(), "potential: bad neuron " << id);
  const Partition& p = split_.partition;
  return shards_[p.shard_of[id]]->core.record(p.local_index[id]).v;
}

}  // namespace sga::snn
