// tunnel_churn: per-flow sub-reservations inside aggregate tunnels of a
// three-domain world, in process, one thread, closed loop. Setup
// establishes the tunnels and prefills them to a large live set; each timed
// step reserves a new flow in a seeded tunnel and releases a random live
// flow of it, so the live set stays constant. No RSA runs in the windows.
// Between windows two hop-by-hop RARs are set up (each releasing the one
// before) for rar_us and rar_bytes.
#include <optional>

#include "inproc.hpp"
#include "workloads.hpp"

namespace rarbench {

using namespace e2e;

namespace {

constexpr std::size_t kDomains = 3;
constexpr std::size_t kTunnels = 4;
constexpr std::size_t kLivePerTunnel = 1024;
constexpr double kAggregate = 10e9;
/// One step = reserve one flow, release one (two ops).
constexpr std::size_t kStepsPerWindow = 64;
/// Windows of fixed work per --seconds (~6 ms each at the fast speed);
/// the program retains memory per flow, which bounds the work.
constexpr std::size_t kWindowsPerSecond = 32;
/// The user pool. Minting it (two key pairs per user) is most of the
/// set-up and makes it long enough, about 2 s, for one cold timing of it to
/// average over the host's sub-second swings in speed.
constexpr std::size_t kUsers = 1024;


}  // namespace

Report run_tunnel_churn(const RunConfig& cfg) {
  Report report;
  Rng rng(cfg.seed);
  SpanLog spans(cfg.process_start);

  kit::ChainWorldConfig wc;
  wc.domains = kDomains;
  wc.domain_capacity = 100e9;
  wc.sla_rate = 100e9;
  double world_build_s = 0;
  auto world_ptr = build_world(wc, &world_build_s);
  kit::ChainWorld& world = *world_ptr;

  Ledger ledger;
  std::vector<TunnelRef> tunnels;
  for (std::size_t t = 0; t < kTunnels; ++t) {
    tunnels.push_back(establish_tunnel(world, format("tunnel-op%zu", t),
                                       kAggregate, kHorizon, ledger));
  }
  std::vector<kit::WorldUser> users;
  std::vector<sig::UserCredentials> creds;
  for (std::size_t i = 0; i < kUsers; ++i) {
    users.push_back(world.make_user(format("u%04zu", i), 0));
    creds.push_back(users.back().credentials());
  }
  const Observed observed = observe_world(world, tunnels, 0);
  EngineCalls calls(world, spans, ledger, report);
  std::vector<std::vector<std::string>> live(kTunnels);
  std::optional<LiveRar> side_rar;

  auto reserve_flow = [&](std::size_t t, WindowSeries::Window* window) {
    const FlowSpec f = draw_flow(rng, 1000, kHorizon, minutes(1), hours(4));
    if (auto sub = calls.reserve_flow(tunnels[t], f, window)) {
      live[t].push_back(std::move(*sub));
    }
  };
  auto release_flow = [&](std::size_t t, WindowSeries::Window* window) {
    // A reserve that failed left nothing to release; it counted as failed.
    if (live[t].empty()) return;
    const std::size_t victim = rng.next_below(live[t].size());
    calls.release_flow(tunnels[t], live[t][victim], window);
    live[t][victim] = std::move(live[t].back());
    live[t].pop_back();
  };
  // A fresh side RAR, replacing the previous one.
  auto side_rar_setup = [&](WindowSeries::Window* window) {
    if (side_rar.has_value()) calls.release_rar(*side_rar, nullptr);
    const std::size_t u = rng.next_below(users.size());
    const FlowSpec f = draw_flow(rng, 1000, kHorizon, minutes(10), hours(6));
    side_rar = calls.setup_rar(users[u], creds[u], f, window);
  };

  // Prefill every tunnel to its live set.
  for (std::size_t t = 0; t < kTunnels; ++t) {
    for (std::size_t i = 0; i < kLivePerTunnel; ++i) reserve_flow(t, nullptr);
  }
  const std::uint64_t setup_ops = calls.requests();
  const double setup_s = us_between(cfg.process_start, Clock::now()) / 1e6;

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
      const std::size_t t = rng.next_below(kTunnels);
      reserve_flow(t, &window);
      release_flow(t, &window);
    }
    window.us = us_between(t0, Clock::now());
    window.ops = 2 * kStepsPerWindow;
    main_ops += window.ops;
    counted.add(CounterSnapshot::read(reader, world.names()).minus(before));
    side_rar_setup(&window);
    side_rar_setup(&window);
  }
  spans.set_enabled(false);
  const CounterSnapshot phase =
      CounterSnapshot::read(reader, world.names()).minus(phase_before);
  const double rss_mb = rss_hwm_mb("self");
  report.attempted = calls.requests() - setup_ops;
  report.note(format("%zu windows of %zu flow reserves + %zu releases over %zu "
                     "tunnels x %zu live flows, %.2f s",
                     windows, kStepsPerWindow, kStepsPerWindow, kTunnels,
                     kLivePerTunnel, pacer.elapsed_s()));

  // The per-flow path inside the windows is the control with no RSA.
  for (const auto& f : check_no_rsa(counted.modexp, counted.signs)) {
    report.check(false, f);
  }
  const std::vector<SimTime> probes = ledger.probe_times(cfg.seed, 16, kHorizon.end);
  for (const auto& f : check_state(ledger, observed, probes)) report.check(false, f);
  for (const TunnelRef& tunnel : tunnels) {
    const FlowSpec probe = draw_flow(rng, 1, kHorizon, hours(1), hours(8));
    for (const auto& f : check_admission_bound(ledger, observed, tunnel.id,
                                               tunnel.aggregate, probe.interval)) {
      report.check(false, f);
    }
  }
  if (cfg.trace) {
    spans.set_enabled(true);
    replay_destination_stages(world, users, rng, spans, calls.requests() + 1);
    spans.set_enabled(false);
  }
  if (side_rar.has_value()) calls.release_rar(*side_rar, nullptr);
  for (std::size_t t = 0; t < kTunnels; ++t) {
    while (!live[t].empty()) release_flow(t, nullptr);
    if (world.engine().release_end_to_end(tunnels[t].reply).ok()) {
      ledger.drop_reservation(tunnels[t].id);
    }
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
  report_trace(report, series, kFlow, "flow_us", spans, cfg);
  return report;
}

}  // namespace rarbench
