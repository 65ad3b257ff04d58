// hop8_fresh: end-to-end hop-by-hop RAR setup across eight domains, in
// process, one thread, closed loop. Every RAR is built fresh (its own user,
// rate, interval and submission time), so no two share signed bytes, and is
// released a fixed number of operations later. Between windows a few
// per-flow reservations run through one A->H tunnel for flow_us.
#include <deque>

#include "inproc.hpp"
#include "workloads.hpp"

namespace rarbench {

using namespace e2e;

namespace {

constexpr std::size_t kDomains = 8;
/// The user pool. Minting it (two key pairs per user) is most of the
/// set-up and makes it long enough, about 2 s, for one cold timing of it to
/// average over the host's sub-second swings in speed.
constexpr std::size_t kUsers = 1024;
/// A RAR is released this many steps after it was set up.
constexpr std::size_t kLiveRars = 16;
/// One step = build + reserve one RAR, release the oldest (two ops).
constexpr std::size_t kStepsPerWindow = 8;
/// Windows of fixed work per --seconds (~25 ms each at the host's fast
/// speed, so the work fills half the run and a slow stretch still fits).
constexpr std::size_t kWindowsPerSecond = 20;
/// Side flows in the A->H tunnel after every window, and its live set.
constexpr std::size_t kSideFlowsPerWindow = 8;
constexpr std::size_t kLiveSideFlows = 32;


}  // namespace

Report run_hop8_fresh(const RunConfig& cfg) {
  Report report;
  Rng rng(cfg.seed);
  SpanLog spans(cfg.process_start);

  kit::ChainWorldConfig wc;
  wc.domains = kDomains;
  double world_build_s = 0;
  auto world_ptr = build_world(wc, &world_build_s);
  kit::ChainWorld& world = *world_ptr;
  const auto users_start = Clock::now();
  std::vector<kit::WorldUser> users;
  std::vector<sig::UserCredentials> creds;
  for (std::size_t i = 0; i < kUsers; ++i) {
    users.push_back(world.make_user(format("u%04zu", i), 0));
    creds.push_back(users.back().credentials());
  }
  const double users_s = us_between(users_start, Clock::now()) / 1e6;

  Ledger ledger;
  const std::vector<TunnelRef> tunnels = {
      establish_tunnel(world, "tunnel-op", 40e6, kHorizon, ledger)};
  const TunnelRef& tunnel = tunnels.front();
  const Observed observed = observe_world(world, tunnels, 0);
  EngineCalls calls(world, spans, ledger, report);
  std::deque<LiveRar> live;
  std::vector<std::string> side;

  auto setup_rar = [&](WindowSeries::Window* window) {
    const std::size_t u = rng.next_below(users.size());
    const FlowSpec f = draw_flow(rng, 1000, kHorizon, minutes(10), hours(6));
    if (auto rar = calls.setup_rar(users[u], creds[u], f, window)) {
      live.push_back(std::move(*rar));
    }
  };
  auto release_oldest = [&](WindowSeries::Window* window) {
    // A setup that failed left nothing to release; it counted as failed.
    if (live.empty()) return;
    calls.release_rar(live.front(), window);
    live.pop_front();
  };
  // One side flow in, and once the live set is full a random one out.
  auto side_flow = [&](WindowSeries::Window* window) {
    const FlowSpec f = draw_flow(rng, 500, kHorizon, minutes(10), hours(6));
    auto sub = calls.reserve_flow(tunnel, f, window);
    if (!sub.has_value()) return;
    if (side.size() < kLiveSideFlows) {
      side.push_back(std::move(*sub));
      return;
    }
    const std::size_t victim = rng.next_below(side.size());
    calls.release_flow(tunnel, side[victim], nullptr);
    side[victim] = std::move(*sub);
  };

  // Prefill: the live RAR set and the tunnel's live side flows.
  for (std::size_t i = 0; i < kLiveRars; ++i) setup_rar(nullptr);
  for (std::size_t i = 0; i < kLiveSideFlows; ++i) side_flow(nullptr);
  const std::uint64_t setup_ops = calls.requests();
  const double setup_s = us_between(cfg.process_start, Clock::now()) / 1e6;
  report.note(format("setup %.3f s: world %.3f s, users %.3f s", setup_s,
                     world_build_s, users_s));

  // Timed phase: fixed work, cut into windows of equal work.
  const auto reader = local_reader();
  const CounterSnapshot phase_before = CounterSnapshot::read(reader, world.names());
  CounterSnapshot counted;
  WindowSeries series;
  const std::size_t windows = static_cast<std::size_t>(cfg.seconds) * kWindowsPerSecond;
  std::uint64_t main_ops = 0;
  const Pacer pacer(cfg.seconds, windows);
  for (std::size_t w = 0; w < windows; ++w) {
    pacer.wait_for(w);
    const bool traced = cfg.trace && w % 2 == 0;
    spans.set_enabled(traced);
    WindowSeries::Window& window = series.open(traced);
    const CounterSnapshot before = CounterSnapshot::read(reader, world.names());
    const auto t0 = Clock::now();
    for (std::size_t s = 0; s < kStepsPerWindow; ++s) {
      setup_rar(&window);
      release_oldest(&window);
    }
    window.us = us_between(t0, Clock::now());
    window.ops = 2 * kStepsPerWindow;
    main_ops += window.ops;
    counted.add(CounterSnapshot::read(reader, world.names()).minus(before));
    for (std::size_t s = 0; s < kSideFlowsPerWindow; ++s) side_flow(&window);
  }
  spans.set_enabled(false);
  const CounterSnapshot phase =
      CounterSnapshot::read(reader, world.names()).minus(phase_before);
  const double rss_mb = rss_hwm_mb("self");
  report.attempted = calls.requests() - setup_ops;
  report.note(format("%zu windows of %zu RAR setups + %zu releases, %.2f s",
                     windows, kStepsPerWindow, kStepsPerWindow, pacer.elapsed_s()));

  // State checks against the ledger, then the admission bound of the
  // tunnel, then the drain.
  const std::vector<SimTime> probes = ledger.probe_times(cfg.seed, 16, kHorizon.end);
  for (const auto& f : check_state(ledger, observed, probes)) report.check(false, f);
  const FlowSpec bound_probe = draw_flow(rng, 1, kHorizon, hours(1), hours(8));
  for (const auto& f : check_admission_bound(ledger, observed, tunnel.id,
                                             tunnel.aggregate, bound_probe.interval)) {
    report.check(false, f);
  }
  if (cfg.trace) {
    spans.set_enabled(true);
    replay_destination_stages(world, users, rng, spans, calls.requests() + 1);
    spans.set_enabled(false);
  }
  while (!live.empty()) release_oldest(nullptr);
  for (const std::string& sub : side) calls.release_flow(tunnel, sub, nullptr);
  if (world.engine().release_end_to_end(tunnel.reply).ok()) {
    ledger.drop_reservation(tunnel.id);
  }
  for (const auto& f : check_drained(ledger, observed, probes)) report.check(false, f);

  if (!cfg.trace) {
    report_end_to_end(report, series, setup_s, rss_mb, median(calls.rar_bytes()));
    return report;
  }
  const auto st = spans.self_times();
  report_inproc_layers(report, counted, phase, static_cast<double>(main_ops),
                       world, world_build_s);
  report_engine_layers(report, st);
  report_absent_layers(report, {"net.ping_us", "net.frames_per_op", "net.bytes_per_op",
                                "net.daemon_cpu_us_per_op", "net.daemon_cores_busy",
                                "net.client_wait_us"});
  report_trace(report, series, kRar, "rar_us", spans, cfg);
  return report;
}

}  // namespace rarbench
