// rarbench: the RAR setup benchmark.
//
//   rarbench --workload hop8_fresh|tunnel_churn|bbd_mixed --seed N
//            --seconds S --trace 0|1
//   rarbench --self-test
//
// Prints a human-readable report, then as its last line one JSON object
// {"correct", "attempted", "failed", "metrics"}: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. See README.md.
#include <sys/stat.h>
#include <unistd.h>

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <set>
#include <string>
#include <thread>

#include "daemon.hpp"
#include "workloads.hpp"

namespace rarbench {
namespace {

struct MetricDef {
  const char* name;
  const char* unit;
};

constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},       {"rar_us", "us"}, {"flow_us", "us"},
    {"ops_per_s", "ops/s"}, {"rss_mb", "MB"}, {"rar_bytes", "bytes"},
};

constexpr MetricDef kPerLayer[] = {
    {"kit.world_build_s", "s"},
    {"crypto.modexp_per_op", "count"},
    {"crypto.signs_per_op", "count"},
    {"crypto.mont_ctx_miss_per_op", "count"},
    {"crypto.verify_hit_ratio", "ratio"},
    {"crypto.verify_lookups_per_op", "count"},
    {"crypto.chain_hit_ratio", "ratio"},
    {"crypto.chain_lookups_per_op", "count"},
    {"sig.build_request_us", "us"},
    {"sig.reserve_us", "us"},
    {"sig.release_us", "us"},
    {"sig.rar_decode_us", "us"},
    {"sig.verify_rar_us", "us"},
    {"sig.append_layer_us", "us"},
    {"sig.rar_encode_us", "us"},
    {"sig.fabric_msgs_per_op", "count"},
    {"sig.fabric_bytes_per_op", "bytes"},
    {"sig.flow_reserve_us", "us"},
    {"sig.flow_release_us", "us"},
    {"policy.decisions_per_op", "count"},
    {"policy.decide_us", "us"},
    {"bb.admission_us_mean", "us"},
    {"bb.pool_boundaries", "count"},
    {"bb.pool_commits_per_op", "count"},
    {"obs.spans_retained", "count"},
    {"obs.audit_records_per_op", "count"},
    {"net.ping_us", "us"},
    {"net.frames_per_op", "count"},
    {"net.bytes_per_op", "bytes"},
    {"net.daemon_cpu_us_per_op", "us"},
    {"net.daemon_cores_busy", "cores"},
    {"net.client_wait_us", "us"},
    {"trace.op_us", "us"},
    {"trace.overhead_us", "us"},
};

/// A run that has not finished by now is abandoned: the daemon is killed
/// and reaped, its socket removed, and the process exits without a result.
constexpr unsigned kWatchdogSeconds = 170;

void on_watchdog(int) {
  kill_daemon_from_signal();
  static const char msg[] = "rarbench: watchdog expired, run abandoned\n";
  (void)!::write(STDERR_FILENO, msg, sizeof msg - 1);
  ::_exit(3);
}

int usage() {
  std::fprintf(stderr,
               "usage: rarbench --workload hop8_fresh|tunnel_churn|bbd_mixed "
               "--seed N --seconds S --trace 0|1\n"
               "       rarbench --self-test\n");
  return 2;
}

/// Every metric of `defs` must be present exactly once, with its unit.
bool emit(const Report& r, const MetricDef* defs, std::size_t n,
          const std::vector<Metric>& got) {
  std::string json;
  std::set<std::string> seen;
  for (const Metric& m : got) {
    if (!seen.insert(m.name).second) {
      std::fprintf(stderr, "rarbench: metric %s reported twice\n", m.name.c_str());
      return false;
    }
  }
  std::printf("\n%-30s %18s  %s\n", "metric", "value", "unit");
  for (std::size_t i = 0; i < n; ++i) {
    const Metric* found = nullptr;
    for (const Metric& m : got) {
      if (m.name == defs[i].name) found = &m;
    }
    if (found == nullptr ||
        (!found->unit.empty() && found->unit != defs[i].unit) ||
        !std::isfinite(found->value)) {
      std::fprintf(stderr, "rarbench: metric %s missing or malformed\n",
                   defs[i].name);
      return false;
    }
    std::printf("%-30s %18.6f  %s\n", defs[i].name, found->value, defs[i].unit);
    json += format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   json.empty() ? "" : ", ", defs[i].name, found->value,
                   defs[i].unit);
  }
  if (seen.size() != n) {
    std::fprintf(stderr, "rarbench: unexpected metrics reported\n");
    return false;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {%s}}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), json.c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace

void report_trace(Report& report, const WindowSeries& series, int kind,
                  const std::string& e2e_name, const SpanLog& spans,
                  const RunConfig& cfg) {
  const bool on = true;
  const bool off = false;
  const double traced = WindowSeries::median_of(series.fastest(&on), kind);
  const double untraced = WindowSeries::median_of(series.fastest(&off), kind);
  report.layer("trace.op_us", traced, "us");
  report.layer("trace.overhead_us", traced - untraced, "us");
  report.note(format("traced %s %.2f us, untraced windows of the same run "
                     "%.2f us: tracing overhead %.2f us (%.1f%%)",
                     e2e_name.c_str(), traced, untraced, traced - untraced,
                     untraced > 0 ? 100 * (traced - untraced) / untraced : 0));
  ::mkdir(kOutDir, 0755);
  const std::string path =
      std::string(kOutDir) + "/trace-" + cfg.workload + ".json";
  report.check(spans.write_json(path), "writing " + path);
  report.note(format("%zu spans written to %s; self time per layer:",
                     spans.size(), path.c_str()));
  for (const auto& [name, st] : spans.self_times()) {
    report.note(format("  %-28s n=%-7llu total %12.0f us  self %12.0f us  "
                       "median %10.2f us",
                       name.c_str(), static_cast<unsigned long long>(st.count),
                       st.total_us, st.self_us, median(st.durations)));
  }
}

}  // namespace rarbench

int main(int argc, char** argv) {
  using namespace rarbench;
  RunConfig cfg;
  cfg.process_start = Clock::now();
  bool trace_given = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--self-test") return self_test();
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        cfg.workload = value;
      } else if (arg == "--seed") {
        cfg.seed = std::stoull(value);
      } else if (arg == "--seconds") {
        cfg.seconds = std::stoi(value);
      } else if (arg == "--trace") {
        cfg.trace = std::stoi(value) != 0;
        trace_given = true;
      } else {
        return usage();
      }
    } catch (const std::exception&) {
      return usage();
    }
  }
  if (cfg.workload.empty() || !trace_given || cfg.seconds < 1 ||
      cfg.seconds > 60) {
    return usage();
  }

  std::signal(SIGALRM, on_watchdog);
  ::alarm(kWatchdogSeconds);
  std::printf("rarbench %s seed=%llu seconds=%d trace=%d nproc=%u\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0,
              std::thread::hardware_concurrency());
  Report report;
  try {
    if (cfg.workload == "hop8_fresh") {
      report = run_hop8_fresh(cfg);
    } else if (cfg.workload == "tunnel_churn") {
      report = run_tunnel_churn(cfg);
    } else if (cfg.workload == "bbd_mixed") {
      report = run_bbd_mixed(cfg);
    } else {
      return usage();
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rarbench: %s\n", e.what());
    return 1;
  }
  ::alarm(0);
  for (const std::string& line : report.lines) std::printf("%s\n", line.c_str());
  const bool ok =
      cfg.trace ? emit(report, kPerLayer, std::size(kPerLayer), report.per_layer)
                : emit(report, kEndToEnd, std::size(kEndToEnd), report.end_to_end);
  if (!ok) return 1;
  return report.correct ? 0 : 1;
}
