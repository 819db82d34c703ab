#include "snn/simulator.h"

#include <algorithm>
#include <map>

#include "obs/metrics.h"
#include "obs/probe.h"
#include "snn/snapshot.h"

namespace sga::snn {

Simulator::Simulator(const CompiledNetwork& net) : core_(net) {}

Simulator::Simulator(const Network& net)
    : owned_(std::make_unique<const CompiledNetwork>(net.compile())),
      core_(*owned_) {}

void Simulator::attach_probe(obs::Probe& probe) {
  probe.bind(network().num_neurons());
  core_.set_probe(&probe);
}

void Simulator::inject_spike(NeuronId id, Time t) {
  SGA_REQUIRE(id < network().num_neurons(), "inject_spike: bad neuron " << id);
  SGA_REQUIRE(t >= 0, "inject_spike: negative time " << t);
  SGA_REQUIRE(t <= kNever, "inject_spike: time " << t << " beyond kNever");
  SGA_REQUIRE(!ran_ || paused(),
              "inject_spike after run() (call reset() first, or pause the "
              "run to inject mid-flight)");
  // Mid-run injection (paused only): everything below the resume floor has
  // already been processed — an earlier event would land behind the queue
  // cursor and silently never fire, so refuse it.
  SGA_REQUIRE(!paused() || t >= resume_floor(),
              "inject_spike at t=" << t << " into a paused run whose resume "
                                   << "floor is " << resume_floor());
  core_.inject(id, t);
}

SimStats Simulator::run(const SimConfig& config) {
  SGA_REQUIRE(!ran_ || paused(),
              "Simulator::run is one-shot (call reset() to reuse, or pause "
              "via SimConfig::pause_time to resume later)");
  // Per-run metrics go to the CURRENT THREAD's registry (nullptr = off,
  // the default); multi-threaded drivers install one registry per worker
  // and merge after join, so this line never contends.
  obs::ScopedTimer run_timer(obs::thread_metrics(), "sim.run_ns");
  const bool resuming = ran_;
  EventCore::RunState& rs = core_.state();
  SimStats& stats = core_.stats();
  // Metrics report per-call deltas: a paused-and-resumed run must not
  // double-count the pre-pause portion of the cumulative stats.
  const std::uint64_t spikes0 = stats.spikes;
  const std::uint64_t deliveries0 = stats.deliveries;
  const std::uint64_t event_times0 = stats.event_times;
  const std::uint64_t spills0 = stats.overflow_spills;
  ran_ = true;
  if (resuming) {
    // Resume continues the SAME logical run: the recording flags and the
    // horizon shape the event stream itself, so they cannot change
    // mid-flight (deliveries enqueued before the pause already reflect
    // them). The pause point may move; everything else must match.
    SGA_REQUIRE(config.record_causes == rs.record_causes &&
                    config.record_spike_log == rs.record_log,
                "resume: record_causes/record_spike_log must match the "
                "paused run");
    SGA_REQUIRE(config.max_time == rs.max_time,
                "resume: max_time must match the paused run ("
                    << rs.max_time << ")");
  } else {
    rs.record_causes = config.record_causes;
    rs.record_log = config.record_spike_log;
    rs.max_time = config.max_time;
  }
  rs.pause_time = config.pause_time;
  rs.paused = false;
  stats.paused = false;
  std::uint64_t distinct_terminals = 0;
  for (const NeuronId t : config.terminal_neurons) {
    SGA_REQUIRE(t < network().num_neurons(), "bad terminal neuron " << t);
    if (core_.mark_terminal(t)) ++distinct_terminals;
  }
  if (!resuming) {
    rs.terminals_remaining =
        config.terminate_on_all
            ? distinct_terminals
            : std::min<std::uint64_t>(1, distinct_terminals);
  } else if (distinct_terminals > 0) {
    // A resume may add terminals; ones already registered before the pause
    // were counted then (registration is idempotent, so only genuinely new
    // ids reach this adjustment).
    rs.terminals_remaining +=
        config.terminate_on_all
            ? distinct_terminals
            : ((rs.terminals_remaining == 0 && !rs.terminal_fired) ? 1 : 0);
  }
  if (!resuming) rs.watch_all = config.watched_neurons.empty();
  for (const NeuronId w : config.watched_neurons) {
    SGA_REQUIRE(w < network().num_neurons(), "bad watched neuron " << w);
    core_.mark_watched(w);
  }

  core_.run_until(EventCore::kNoBound);

  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("sim.runs");
    m->add("sim.spikes", stats.spikes - spikes0);
    m->add("sim.deliveries", stats.deliveries - deliveries0);
    m->add("sim.event_times", stats.event_times - event_times0);
    m->add("sim.overflow_spills", stats.overflow_spills - spills0);
    m->gauge("sim.csr_bytes", static_cast<double>(stats.csr_bytes));
    m->gauge("sim.storage_encoding",
             static_cast<double>(stats.storage_encoding));
  }
  return stats;
}

void Simulator::reset() {
  core_.reset();
  ran_ = false;
}

std::vector<std::uint8_t> Simulator::snapshot() const {
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

void Simulator::build_image(SnapshotImage* img) const {
  const CompiledNetwork& net = network();
  const EventCore::RunState& rs = core_.state();
  img->num_neurons = net.num_neurons();
  img->num_synapses = net.num_synapses();
  img->max_delay = net.max_delay();
  img->widths = net.storage_widths();
  img->mid_run = ran_;
  img->record_causes = rs.record_causes;
  img->record_log = rs.record_log;
  img->watch_all = rs.watch_all;
  img->terminal_fired = rs.terminal_fired;
  img->max_time = rs.max_time;
  img->resume_floor =
      rs.paused ? rs.pause_floor : (ran_ ? core_.stats().end_time + 1 : 0);
  img->terminals_remaining = rs.terminals_remaining;
  img->terminals = core_.terminals();
  std::sort(img->terminals.begin(), img->terminals.end());
  img->watched = core_.watched();
  std::sort(img->watched.begin(), img->watched.end());

  core_.export_neurons(&img->neurons);
  std::sort(img->neurons.begin(), img->neurons.end(),
            [](const SnapshotNeuron& a, const SnapshotNeuron& b) {
              return a.id < b.id;
            });
  std::map<Time, SnapshotBucket> pending;
  core_.export_pending(&pending);
  img->queue.reserve(pending.size());
  for (auto& [t, bucket] : pending) img->queue.push_back(std::move(bucket));

  img->log = core_.spike_log();
  img->stats = core_.stats();
}

void Simulator::restore(const std::uint8_t* data, std::size_t size) {
  obs::ScopedTimer timer(obs::thread_metrics(), "snap.restore_ns");
  // ALL-OR-NOTHING: parse (structure, CRC) then validate (fingerprint,
  // every id and time) BEFORE the first mutation — a SnapshotError from
  // either leaves this simulator exactly as it was.
  const SnapshotImage img = parse_snapshot(data, size);
  validate_snapshot_for(img, network());
  apply_image(img);
  if (obs::MetricsRegistry* m = obs::thread_metrics()) {
    m->add("snap.restores");
  }
}

void Simulator::apply_image(const SnapshotImage& img) {
  reset();
  EventCore::RunState& rs = core_.state();
  rs.record_causes = img.record_causes;
  rs.record_log = img.record_log;
  rs.watch_all = img.watch_all;
  rs.max_time = img.max_time;
  for (const NeuronId t : img.terminals) core_.mark_terminal(t);
  for (const NeuronId w : img.watched) core_.mark_watched(w);
  rs.terminals_remaining = img.terminals_remaining;
  rs.terminal_fired = img.terminal_fired;

  // Re-enqueue pending events through the normal queue path (so ring vs
  // spill placement follows THIS engine's geometry), then overwrite the
  // counters it perturbed with the image's cumulative values below.
  for (const SnapshotBucket& b : img.queue) {
    EventCore::Bucket& bk =
        core_.bucket_for(b.time, b.forced.size() + b.deliveries.size());
    bk.forced.insert(bk.forced.end(), b.forced.begin(), b.forced.end());
    if (!b.deliveries.empty()) bk.open_raw(b.deliveries.size());
    for (const SnapshotDelivery& d : b.deliveries) {
      bk.targets.push_back(d.target);
      bk.weights.push_back(d.weight);
      if (img.record_causes) bk.sources.push_back(d.source);
    }
  }
  for (const SnapshotNeuron& e : img.neurons) core_.restore_neuron(e.id, e);

  core_.spike_log() = img.log;
  // Engine-specific fields reflect the LIVE engine, not the source's.
  core_.adopt_stats(img.stats);
  ran_ = img.mid_run;
  rs.paused = img.mid_run && img.stats.paused;
  rs.pause_floor = img.resume_floor;
  rs.pause_time = kNever;
}

Time Simulator::first_spike(NeuronId id) const {
  SGA_REQUIRE(id < core_.num_neurons(), "first_spike: bad neuron " << id);
  return core_.record(id).first_spike;
}

std::vector<Time> Simulator::first_spikes() const {
  std::vector<Time> out(core_.num_neurons());
  for (NeuronId i = 0; i < out.size(); ++i) {
    out[i] = core_.record(i).first_spike;
  }
  return out;
}

Time Simulator::last_spike(NeuronId id) const {
  SGA_REQUIRE(id < core_.num_neurons(), "last_spike: bad neuron " << id);
  return core_.record(id).last_spike;
}

bool Simulator::fired_in(NeuronId id, Time t0, Time t1) const {
  SGA_REQUIRE(id < core_.num_neurons(), "fired_in: bad neuron " << id);
  SGA_REQUIRE(t0 <= t1, "fired_in: empty window [" << t0 << ", " << t1 << "]");
  const Time f = core_.record(id).first_spike;
  if (f == kNever || f > t1) return false;
  if (f >= t0) return true;
  const Time l = core_.record(id).last_spike;
  if (l < t0) return false;
  if (l <= t1) return true;
  // The neuron fired both before t0 and after t1; only the spike log can
  // tell whether it also fired inside the window.
  SGA_REQUIRE(logged(id),
              "fired_in: neuron " << id << " fired before t0=" << t0
                                  << " and after t1=" << t1
                                  << "; deciding the window needs "
                                     "record_spike_log with this neuron "
                                     "watched");
  // The log is time-ordered, so both window edges resolve by binary search;
  // only entries strictly inside [t0, t1] are scanned.
  const auto& log = core_.spike_log();
  const auto lo = std::lower_bound(
      log.begin(), log.end(), t0,
      [](const std::pair<Time, NeuronId>& e, Time t) { return e.first < t; });
  const auto hi = std::upper_bound(
      lo, log.end(), t1,
      [](Time t, const std::pair<Time, NeuronId>& e) { return t < e.first; });
  for (auto i = lo; i != hi; ++i) {
    if (i->second == id) return true;
  }
  return false;
}

std::uint32_t Simulator::spike_count(NeuronId id) const {
  SGA_REQUIRE(id < core_.num_neurons(), "spike_count: bad neuron " << id);
  return core_.record(id).spike_count;
}

NeuronId Simulator::first_spike_cause(NeuronId id) const {
  SGA_REQUIRE(id < core_.num_neurons(),
              "first_spike_cause: bad neuron " << id);
  return core_.cause(id);
}

Voltage Simulator::potential(NeuronId id) const {
  SGA_REQUIRE(id < core_.num_neurons(), "potential: bad neuron " << id);
  return core_.record(id).v;
}

}  // namespace sga::snn
