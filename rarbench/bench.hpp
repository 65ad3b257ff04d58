// Shared machinery of the RAR setup benchmark: run configuration, the
// fixed-work window series every timing comes from, the benchmark-side span
// recorder of the traced run, per-layer counter snapshots and the report
// each workload fills in.
#pragma once

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/rng.hpp"
#include "obs/metrics.hpp"

namespace rarbench {

namespace obs = e2e::obs;
using Clock = std::chrono::steady_clock;

inline double us_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::micro>(b - a).count();
}

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  /// main() entry; setup_s runs from here to the first timed operation.
  Clock::time_point process_start;
};

/// Share of a run's windows, fastest first, whose samples every time and
/// rate metric is taken from. The host's speed swings by 1.5-1.8x within
/// fractions of a second, and for stretches of minutes the fast phases
/// grow rare; the fastest 3% of a run's windows still fall in fast phases
/// then, where the fastest quarter did not.
inline constexpr double kFastShare = 0.03;

/// Sample kinds recorded per operation.
enum Kind : int { kRar = 0, kFlow, kRelease, kKinds };

// --- statistics ----------------------------------------------------------

inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const auto hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile with at least ten samples beyond it (p99 from
/// 1000 samples, p90 from 100); 0 below forty samples, where a tail
/// percentile would be no tail.
struct Tail {
  double pct = 0;
  double value = 0;
};
inline Tail tail_of(const std::vector<double>& v) {
  if (v.size() < 40) return {};
  for (double pct : {99.9, 99.0, 90.0, 75.0}) {
    if (static_cast<double>(v.size()) * (1 - pct / 100) >= 10) {
      return {pct, quantile(v, pct / 100)};
    }
  }
  return {};
}

// --- fixed-work windows ----------------------------------------------------

/// A timed phase cut into windows of equal work. Each window holds the wall
/// time of its main operations (which rank the windows by host speed) and
/// the per-operation latency samples taken in it or right after it.
class WindowSeries {
 public:
  struct Window {
    double us = 0;
    std::uint64_t ops = 0;
    bool traced = false;
    std::vector<double> samples[kKinds];
  };

  Window& open(bool traced) {
    windows_.emplace_back();
    windows_.back().traced = traced;
    return windows_.back();
  }
  const std::vector<Window>& all() const { return windows_; }

  /// The fastest kFastShare of the windows (by time per main operation)
  /// among those whose traced flag matches `traced` (any when null).
  std::vector<const Window*> fastest(const bool* traced = nullptr) const {
    std::vector<const Window*> pool;
    for (const Window& w : windows_) {
      if (w.ops == 0) continue;
      if (traced != nullptr && w.traced != *traced) continue;
      pool.push_back(&w);
    }
    std::sort(pool.begin(), pool.end(), [](const Window* a, const Window* b) {
      return a->us / static_cast<double>(a->ops) <
             b->us / static_cast<double>(b->ops);
    });
    const auto keep = std::max<std::size_t>(
        1, static_cast<std::size_t>(
               std::ceil(static_cast<double>(pool.size()) * kFastShare)));
    pool.resize(std::min(keep, pool.size()));
    return pool;
  }

  /// Median latency of `kind` within the fastest windows.
  static double median_of(const std::vector<const Window*>& ws, int kind) {
    std::vector<double> v;
    for (const Window* w : ws) {
      v.insert(v.end(), w->samples[kind].begin(), w->samples[kind].end());
    }
    return median(std::move(v));
  }
  /// Main operations per second within the fastest windows.
  static double rate_of(const std::vector<const Window*>& ws) {
    double us = 0;
    double ops = 0;
    for (const Window* w : ws) {
      us += w->us;
      ops += static_cast<double>(w->ops);
    }
    return us > 0 ? ops / (us / 1e6) : 0;
  }
  /// Every sample of `kind` in the run (for the printed tail).
  std::vector<double> all_samples(int kind) const {
    std::vector<double> v;
    for (const Window& w : windows_) {
      v.insert(v.end(), w.samples[kind].begin(), w.samples[kind].end());
    }
    return v;
  }

 private:
  std::vector<Window> windows_;
};

/// Spreads a timed phase's windows evenly over the run: window i starts no
/// earlier than i/windows of the run. Workloads whose fixed work is done
/// sooner (kept small because the program retains memory per operation)
/// still sample the host over the whole run.
class Pacer {
 public:
  Pacer(int seconds, std::size_t windows)
      : start_(Clock::now()),
        step_(std::chrono::duration<double>(static_cast<double>(seconds) /
                                            static_cast<double>(windows))) {}
  void wait_for(std::size_t window) const {
    std::this_thread::sleep_until(
        start_ + std::chrono::duration_cast<Clock::duration>(
                     step_ * static_cast<double>(window)));
  }
  double elapsed_s() const { return us_between(start_, Clock::now()) / 1e6; }

 private:
  Clock::time_point start_;
  std::chrono::duration<double> step_;
};

// --- benchmark-side spans (traced run) -------------------------------------

/// Spans the benchmark records around each call it makes into a layer.
/// Kept in memory; written out with per-name self times when the run ends.
class SpanLog {
 public:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  // index + 1 of the parent span; 0 = root
    std::uint64_t request = 0;
    double start_us = 0;
    double end_us = 0;
  };

  explicit SpanLog(Clock::time_point epoch) : epoch_(epoch) {}

  /// Tracing switches per window; a disabled log records nothing.
  void set_enabled(bool on) { enabled_ = on; }

  std::uint32_t begin(const char* name, std::uint64_t request,
                      std::uint32_t parent = 0) {
    if (!enabled_) return 0;
    Span s;
    s.name = intern(name);
    s.parent = parent;
    s.request = request;
    s.start_us = now_us();
    spans_.push_back(s);
    return static_cast<std::uint32_t>(spans_.size());
  }
  void end(std::uint32_t id) {
    if (id != 0) spans_[id - 1].end_us = now_us();
  }

  /// RAII span: opens on construction, closes on destruction.
  class Scope {
   public:
    Scope(SpanLog& log, const char* name, std::uint64_t request,
          std::uint32_t parent = 0)
        : log_(&log), id_(log.begin(name, request, parent)) {}
    ~Scope() { log_->end(id_); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    std::uint32_t id() const { return id_; }

   private:
    SpanLog* log_;
    std::uint32_t id_;
  };

  struct SelfTime {
    std::uint64_t count = 0;
    double total_us = 0;
    double self_us = 0;
    std::vector<double> durations;
  };
  /// Per span name: count, total and self time (duration minus the part of
  /// it covered by its children), and every duration.
  std::map<std::string, SelfTime> self_times() const;

  /// Append another log's spans, re-indexing their names and parents.
  void absorb(const SpanLog& other) {
    const auto offset = static_cast<std::uint32_t>(spans_.size());
    for (Span s : other.spans_) {
      s.name = intern(other.names_[s.name].c_str());
      if (s.parent != 0) s.parent += offset;
      spans_.push_back(s);
    }
  }

  /// Write every span and the per-name self times as JSON.
  bool write_json(const std::string& path) const;

  std::size_t size() const { return spans_.size(); }

 private:
  double now_us() const { return us_between(epoch_, Clock::now()); }
  std::uint32_t intern(const char* name) {
    for (std::uint32_t i = 0; i < names_.size(); ++i) {
      if (names_[i] == name) return i;
    }
    names_.emplace_back(name);
    return static_cast<std::uint32_t>(names_.size() - 1);
  }

  Clock::time_point epoch_;
  bool enabled_ = false;
  std::vector<std::string> names_;
  std::vector<Span> spans_;
};

// --- per-layer counters ----------------------------------------------------

/// Reads one series of the program's metrics registry: in process from
/// MetricsRegistry::global(), for the daemon through kMetricQuery.
/// field: "counter" | "gauge" | "sum" | "count".
using SeriesReader = std::function<double(
    const std::string& name, const obs::Labels& labels,
    const std::string& field)>;

/// The in-process reader.
SeriesReader local_reader();

/// One snapshot of the registry series the per-layer metrics are built
/// from, each summed over its label values.
struct CounterSnapshot {
  double modexp = 0;
  double signs = 0;
  double mont_ctx_miss = 0;
  double verify_hit = 0, verify_lookups = 0;
  double chain_hit = 0, chain_lookups = 0;
  double fabric_msgs = 0, fabric_bytes = 0;
  double policy_decisions = 0;
  double admission_us_sum = 0, admission_count = 0;
  double pool_boundaries = 0;
  double pool_commits = 0;
  double audit_records = 0;
  double net_frames = 0, net_bytes = 0;

  static CounterSnapshot read(const SeriesReader& reader,
                              const std::vector<std::string>& domains);
  /// This snapshot less an earlier one; the gauge keeps this reading.
  CounterSnapshot minus(const CounterSnapshot& before) const;
  /// Add a later delta; the gauge takes the delta's reading.
  void add(const CounterSnapshot& delta);
};

// --- process measurements ---------------------------------------------------

/// Resident-set high-water mark (VmHWM) of `pid` ("self" for this
/// process), in MB; 0 if unreadable.
double rss_hwm_mb(const std::string& pid);
/// User + system CPU seconds consumed by `pid` so far.
double cpu_seconds(const std::string& pid);

// --- the report ------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one workload run hands back to main().
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> end_to_end;
  std::vector<Metric> per_layer;
  std::vector<std::string> lines;  // human-readable, printed before the JSON

  /// Record a correctness check; a failed one makes the run incorrect.
  void check(bool ok, const std::string& what) {
    if (!ok) {
      correct = false;
      lines.push_back("CHECK FAILED: " + what);
    }
  }
  /// Record an operation the program failed or refused. It counts in
  /// `failed`; the checks speak of the operations that did not fail.
  void fail_op(const std::string& what) {
    ++failed;
    if (failed <= 8) lines.push_back("FAILED OPERATION: " + what);
  }
  void note(const std::string& line) { lines.push_back(line); }
  void e2e(const std::string& name, double value, const std::string& unit) {
    end_to_end.push_back({name, value, unit});
  }
  void layer(const std::string& name, double value, const std::string& unit) {
    per_layer.push_back({name, value, unit});
  }
};

std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// The end-to-end metrics, reported the same way by every workload:
/// rar_us, flow_us and ops_per_s from the fastest windows of `series`, with
/// the run's set-up time, RSS and median RAR size; plus the printed tails.
void report_end_to_end(Report& report, const WindowSeries& series,
                       double setup_s, double rss_mb, double rar_bytes);

/// Uniform integer in [lo, hi] from the workload's seeded generator.
inline std::uint64_t uniform(e2e::Rng& rng, std::uint64_t lo,
                             std::uint64_t hi) {
  return lo + rng.next_u64() % (hi - lo + 1);
}

}  // namespace rarbench
