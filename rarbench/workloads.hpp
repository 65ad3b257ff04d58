// The three workloads, the traced-run summary they share, and the checks'
// self-test.
#pragma once

#include <string>

#include "bench.hpp"

namespace rarbench {

Report run_hop8_fresh(const RunConfig& cfg);
Report run_tunnel_churn(const RunConfig& cfg);
Report run_bbd_mixed(const RunConfig& cfg);

/// Where the traced run writes its spans (relative to the checkout root).
inline constexpr char kOutDir[] = ".rarbench_out";

/// The traced run's own per-operation time: the median `kind` latency in
/// the fastest traced windows (trace.op_us), and its difference from the
/// same statistic over the untraced windows interleaved with them
/// (trace.overhead_us). Writes the spans and prints the self times.
void report_trace(Report& report, const WindowSeries& series, int kind,
                  const std::string& e2e_name, const SpanLog& spans,
                  const RunConfig& cfg);

/// Feed every correctness check a tampered ledger and show that it fails
/// (and that the untampered ledger passes). Returns the process exit code.
int self_test();

}  // namespace rarbench
