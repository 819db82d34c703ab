#include "trace.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>

namespace perfbench {

namespace {

std::uint32_t this_thread_tid() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t tid = next.fetch_add(1);
  return tid;
}

double us_since(Clock::time_point epoch, Clock::time_point t) {
  return std::chrono::duration<double, std::micro>(t - epoch).count();
}

}  // namespace

std::uint64_t Tracer::begin(const char* name, std::uint64_t parent) {
  if (!enabled_) return 0;
  const Clock::time_point now = Clock::now();
  return record(name, parent, now, now);
}

void Tracer::end(std::uint64_t id) {
  if (id == 0) return;
  const Clock::time_point now = Clock::now();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[id - 1].end = now;
}

std::uint64_t Tracer::record(const char* name, std::uint64_t parent,
                             Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return 0;
  const std::uint32_t tid = this_thread_tid();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_.push_back({name, parent, tid, start, end});
  return spans_.size();
}

std::vector<Tracer::Row> Tracer::self_times() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> child_ms(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) {
    if (s.parent != 0) child_ms[s.parent] += ms(s);
  }
  std::map<std::string, Row> rows;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    Row& r = rows[s.name];
    r.name = s.name;
    ++r.count;
    r.total_ms += ms(s);
    r.self_ms += std::max(0.0, ms(s) - child_ms[i + 1]);
  }
  std::vector<Row> out;
  for (auto& [name, row] : rows) out.push_back(row);
  std::sort(out.begin(), out.end(), [](const Row& a, const Row& b) {
    return a.self_ms > b.self_ms;
  });
  return out;
}

bool Tracer::write_chrome(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  const std::lock_guard<std::mutex> lock(mu_);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%llu}}\n",
                  i == 0 ? "" : ",", s.name, s.tid, us_since(epoch_, s.start),
                  us_since(s.start, s.end), i + 1,
                  static_cast<unsigned long long>(s.parent));
    f << buf;
  }
  f << "]}\n";
  return static_cast<bool>(f);
}

bool Tracer::write_self_times(const std::string& path) const {
  std::ofstream f(path);
  if (!f) return false;
  f << "span\tcount\ttotal_ms\tself_ms\n";
  for (const Row& r : self_times()) {
    f << r.name << '\t' << r.count << '\t' << r.total_ms << '\t' << r.self_ms
      << '\n';
  }
  return static_cast<bool>(f);
}

}  // namespace perfbench
