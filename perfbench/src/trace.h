// In-memory spans recorded by the benchmark around its calls into the
// library (the program itself is not instrumented for this). Each span has
// a name, start, end, parent span and recording thread. At the end of a
// traced run they are written as Chrome trace-event JSON (opens offline in
// Perfetto or chrome://tracing) and folded into a per-name self-time table.
#pragma once

#include <chrono>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }

  /// Open a span now; returns its id (0 when tracing is off). `name` must
  /// be a string literal. `parent` 0 makes a root span.
  std::uint64_t begin(const char* name, std::uint64_t parent);
  void end(std::uint64_t id);
  /// Record a span whose interval was measured elsewhere (for example a
  /// duration the library reported in its metrics registry).
  std::uint64_t record(const char* name, std::uint64_t parent,
                       Clock::time_point start, Clock::time_point end);

  struct Row {
    std::string name;
    std::uint64_t count = 0;
    double total_ms = 0.0;
    double self_ms = 0.0;  ///< total minus the time covered by children
  };
  /// Per-name totals, largest self time first.
  std::vector<Row> self_times() const;

  /// Write Chrome trace-event JSON; false when the file cannot be written.
  bool write_chrome(const std::string& path) const;
  /// Write the self-time table as tab-separated text; false on failure.
  bool write_self_times(const std::string& path) const;

 private:
  struct Span {
    const char* name;
    std::uint64_t parent;
    std::uint32_t tid;
    Clock::time_point start;
    Clock::time_point end;
  };
  static double ms(const Span& s) {
    return std::chrono::duration<double, std::milli>(s.end - s.start).count();
  }

  const bool enabled_;
  const Clock::time_point epoch_ = Clock::now();
  mutable std::mutex mu_;
  std::vector<Span> spans_;  ///< span id = index + 1
};

/// RAII span; does nothing when `tracer` is null or disabled.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, const char* name, std::uint64_t parent = 0)
      : tracer_(tracer != nullptr && tracer->enabled() ? tracer : nullptr),
        id_(tracer_ != nullptr ? tracer_->begin(name, parent) : 0) {}
  ~ScopedSpan() {
    if (tracer_ != nullptr) tracer_->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::uint64_t id() const { return id_; }

 private:
  Tracer* tracer_;
  std::uint64_t id_;
};

}  // namespace perfbench
