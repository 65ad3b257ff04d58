#include "bench.hpp"

#include <unistd.h>

#include <cstdarg>
#include <fstream>
#include <sstream>

namespace rarbench {

std::string format(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof buf, fmt, args);
  va_end(args);
  return buf;
}

namespace {

/// A timing with its tail and sample counts, for the report lines.
std::string timing_line(const std::string& name, double fast_median,
                        const std::vector<double>& all_samples,
                        std::size_t fast_samples) {
  const Tail tail = tail_of(all_samples);
  std::string line = format("%-10s %10.2f us  (median of %zu in the fastest windows)",
                            name.c_str(), fast_median, fast_samples);
  line += format("  run median %.2f us", median(all_samples));
  if (tail.pct > 0) {
    line += format("  p%g %.2f us", tail.pct, tail.value);
  }
  line += format("  n=%zu", all_samples.size());
  return line;
}

}  // namespace

void report_end_to_end(Report& report, const WindowSeries& series,
                       double setup_s, double rss_mb, double rar_bytes) {
  const auto fast = series.fastest();
  report.e2e("setup_s", setup_s, "s");
  report.e2e("rar_us", WindowSeries::median_of(fast, kRar), "us");
  report.e2e("flow_us", WindowSeries::median_of(fast, kFlow), "us");
  report.e2e("ops_per_s", WindowSeries::rate_of(fast), "ops/s");
  report.e2e("rss_mb", rss_mb, "MB");
  report.e2e("rar_bytes", rar_bytes, "bytes");
  report.note(format("fastest %zu of %zu windows used", fast.size(),
                     series.all().size()));
  for (const auto& [kind, name] : {std::pair{kRar, "rar_us"}, {kFlow, "flow_us"}}) {
    std::size_t n = 0;
    for (const auto* w : fast) n += w->samples[kind].size();
    report.note(timing_line(name, WindowSeries::median_of(fast, kind),
                            series.all_samples(kind), n));
  }
}

// --- spans -------------------------------------------------------------------

std::map<std::string, SpanLog::SelfTime> SpanLog::self_times() const {
  // Children of one span may overlap each other (pipelined calls), so the
  // covered part is the union of their intervals clipped to the parent.
  std::vector<std::vector<std::pair<double, double>>> children(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent != 0) {
      children[s.parent - 1].emplace_back(s.start_us, s.end_us);
    }
  }
  std::map<std::string, SelfTime> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0;
    double reach = s.start_us;
    for (auto [a, b] : kids) {
      a = std::max(a, reach);
      b = std::min(b, s.end_us);
      if (b > a) {
        covered += b - a;
        reach = b;
      }
    }
    SelfTime& st = out[names_[s.name]];
    const double duration = s.end_us - s.start_us;
    st.count++;
    st.total_us += duration;
    st.self_us += duration - covered;
    st.durations.push_back(duration);
  }
  return out;
}

bool SpanLog::write_json(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  out << "{\"self_time_us\": {";
  bool first = true;
  for (const auto& [name, st] : self_times()) {
    out << (first ? "" : ", ") << "\"" << name << "\": {\"count\": "
        << st.count << ", \"total\": " << st.total_us
        << ", \"self\": " << st.self_us << "}";
    first = false;
  }
  out << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\": " << i + 1 << ", \"name\": \""
        << names_[s.name] << "\", \"parent\": " << s.parent
        << ", \"request\": " << s.request << ", \"start_us\": " << s.start_us
        << ", \"end_us\": " << s.end_us << "}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

// --- counters ----------------------------------------------------------------

SeriesReader local_reader() {
  return [](const std::string& name, const obs::Labels& labels,
            const std::string& field) -> double {
    auto& registry = obs::MetricsRegistry::global();
    if (field == "counter") {
      return static_cast<double>(registry.counter(name, labels).value());
    }
    if (field == "gauge") return registry.gauge(name, labels).value();
    if (field == "sum") return registry.histogram(name, labels).sum();
    return static_cast<double>(registry.histogram(name, labels).count());
  };
}

CounterSnapshot CounterSnapshot::read(const SeriesReader& r,
                                      const std::vector<std::string>& domains) {
  CounterSnapshot s;
  auto counter = [&](const char* name, const obs::Labels& labels) {
    return r(name, labels, "counter");
  };
  s.modexp = counter("e2e_crypto_modexp_total", {{"kernel", "montgomery"}}) +
             counter("e2e_crypto_modexp_total", {{"kernel", "reference"}});
  s.signs = counter("e2e_crypto_signs_total", {{"path", "crt"}}) +
            counter("e2e_crypto_signs_total", {{"path", "plain"}});
  s.mont_ctx_miss =
      counter("e2e_crypto_mont_ctx_lookups_total", {{"result", "miss"}});
  s.verify_hit =
      counter("e2e_crypto_verify_cache_lookups_total", {{"result", "hit"}});
  s.verify_lookups =
      s.verify_hit +
      counter("e2e_crypto_verify_cache_lookups_total", {{"result", "miss"}});
  s.chain_hit =
      counter("e2e_crypto_chain_cache_lookups_total", {{"result", "hit"}});
  s.chain_lookups =
      s.chain_hit +
      counter("e2e_crypto_chain_cache_lookups_total", {{"result", "miss"}});
  s.fabric_msgs = counter("e2e_sig_fabric_messages_total", {});
  s.fabric_bytes = counter("e2e_sig_fabric_bytes_total", {});
  s.pool_commits = counter("e2e_bb_pool_commits_total", {});
  for (const char* kind : {"peer_auth", "verify", "policy", "delegation",
                           "admission", "recovery", "shutdown"}) {
    s.audit_records += counter("e2e_obs_audit_records_total", {{"kind", kind}});
  }
  for (const std::string& d : domains) {
    for (const char* decision : {"grant", "deny"}) {
      s.policy_decisions += counter("e2e_policy_decisions_total",
                                    {{"decision", decision}, {"domain", d}});
    }
    s.admission_us_sum += r("e2e_bb_admission_us", {{"domain", d}}, "sum");
    s.admission_count += r("e2e_bb_admission_us", {{"domain", d}}, "count");
    s.pool_boundaries += r("e2e_bb_pool_boundaries", {{"domain", d}}, "gauge");
  }
  for (const char* dir : {"rx", "tx"}) {
    s.net_frames += counter("e2e_net_frames_total", {{"dir", dir}});
    s.net_bytes += counter("e2e_net_stream_bytes_total", {{"dir", dir}});
  }
  return s;
}

namespace {

/// Every counter field; pool_boundaries, a gauge, is handled apart.
constexpr double CounterSnapshot::*kCounterFields[] = {
    &CounterSnapshot::modexp,           &CounterSnapshot::signs,
    &CounterSnapshot::mont_ctx_miss,    &CounterSnapshot::verify_hit,
    &CounterSnapshot::verify_lookups,   &CounterSnapshot::chain_hit,
    &CounterSnapshot::chain_lookups,    &CounterSnapshot::fabric_msgs,
    &CounterSnapshot::fabric_bytes,     &CounterSnapshot::policy_decisions,
    &CounterSnapshot::admission_us_sum, &CounterSnapshot::admission_count,
    &CounterSnapshot::pool_commits,     &CounterSnapshot::audit_records,
    &CounterSnapshot::net_frames,       &CounterSnapshot::net_bytes,
};

}  // namespace

CounterSnapshot CounterSnapshot::minus(const CounterSnapshot& before) const {
  CounterSnapshot d = *this;
  for (auto field : kCounterFields) d.*field -= before.*field;
  return d;
}

void CounterSnapshot::add(const CounterSnapshot& delta) {
  for (auto field : kCounterFields) this->*field += delta.*field;
  pool_boundaries = delta.pool_boundaries;
}

// --- /proc -------------------------------------------------------------------

double rss_hwm_mb(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0;
}

double cpu_seconds(const std::string& pid) {
  std::ifstream in("/proc/" + pid + "/stat");
  std::string stat;
  std::getline(in, stat);
  // Fields after the parenthesised command name; utime and stime are the
  // 14th and 15th fields of the whole line.
  const auto close = stat.rfind(')');
  if (close == std::string::npos) return 0;
  std::istringstream fields(stat.substr(close + 2));
  std::string field;
  double utime = 0;
  double stime = 0;
  for (int i = 3; i <= 15 && fields >> field; ++i) {
    if (i == 14) utime = std::stod(field);
    if (i == 15) stime = std::stod(field);
  }
  return (utime + stime) / static_cast<double>(::sysconf(_SC_CLK_TCK));
}

}  // namespace rarbench
