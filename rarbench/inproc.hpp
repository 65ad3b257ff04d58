// Helpers shared by the in-process workloads (hop8_fresh, tunnel_churn):
// one ChainWorld driven through the public engine API, its aggregate
// tunnels, and the checks' view of its state.
#pragma once

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "bench.hpp"
#include "kit/chain_world.hpp"
#include "ledger.hpp"

namespace rarbench {

/// Every interval the workloads draw lies inside this one virtual day.
inline constexpr TimeInterval kHorizon{0, e2e::hours(24)};

/// An established aggregate tunnel, as the benchmark knows it.
struct TunnelRef {
  std::string id;       // engine tunnel id (reply.tunnel_id)
  std::string user_dn;  // the one user authorized to use it
  double aggregate = 0;
  TimeInterval interval;
  e2e::sig::RarReply reply;  // the grant of the aggregate, for release
};

/// Build a world and time its construction.
std::unique_ptr<e2e::kit::ChainWorld> build_world(
    const e2e::kit::ChainWorldConfig& config, double* seconds);

/// Establish an aggregate tunnel end to end for a freshly minted user and
/// enter it in the ledger. Throws on denial: the workloads size every
/// aggregate below the SLAs it crosses.
TunnelRef establish_tunnel(e2e::kit::ChainWorld& world,
                           const std::string& user_name, double rate,
                           TimeInterval interval, Ledger& ledger);

/// The checks' view of an in-process world. `at` is the virtual time of
/// admission probes.
Observed observe_world(e2e::kit::ChainWorld& world,
                       const std::vector<TunnelRef>& tunnels, SimTime at);

/// Seeded per-flow request parameters: rate in [1, max_quanta] quanta,
/// start in [lo, hi), length in [min_len, max_len], clipped to `within`.
struct FlowSpec {
  double rate = 0;
  TimeInterval interval;
};
FlowSpec draw_flow(e2e::Rng& rng, std::uint64_t max_quanta,
                   TimeInterval within, SimTime min_len, SimTime max_len);

/// Spans of the traced run, in per-layer names.
inline constexpr char kSpanBuild[] = "sig.build_user_request";
inline constexpr char kSpanReserve[] = "sig.reserve";
inline constexpr char kSpanRelease[] = "sig.release_end_to_end";
inline constexpr char kSpanFlowReserve[] = "sig.reserve_in_tunnel";
inline constexpr char kSpanFlowRelease[] = "sig.release_in_tunnel";

/// A granted hop-by-hop RAR the benchmark holds.
struct LiveRar {
  std::string key;  // its ledger key
  e2e::sig::RarReply reply;
};

/// The timed, traced calls into the engine the in-process workloads make.
/// Each is one operation with its own request id; a grant or release is
/// entered in the ledger, a failure counted in the report, and the wall
/// time of a reserve recorded in `window` (when given).
class EngineCalls {
 public:
  EngineCalls(e2e::kit::ChainWorld& world, SpanLog& spans, Ledger& ledger,
              Report& report)
      : world_(world), spans_(spans), ledger_(ledger), report_(report) {}

  /// Build and reserve one RAR over the whole chain (its submission time
  /// is the request id, so its delegation serial is fresh).
  std::optional<LiveRar> setup_rar(const e2e::kit::WorldUser& user,
                                   const e2e::sig::UserCredentials& cred,
                                   const FlowSpec& f,
                                   WindowSeries::Window* window);
  void release_rar(const LiveRar& rar, WindowSeries::Window* window);
  /// Reserve one flow; returns its sub-reservation id.
  std::optional<std::string> reserve_flow(const TunnelRef& tunnel,
                                          const FlowSpec& f,
                                          WindowSeries::Window* window);
  void release_flow(const TunnelRef& tunnel, const std::string& sub,
                    WindowSeries::Window* window);

  /// The last request id issued.
  std::uint64_t requests() const { return request_; }
  /// final_wire_bytes of every granted RAR.
  const std::vector<double>& rar_bytes() const { return rar_bytes_; }

 private:
  e2e::kit::ChainWorld& world_;
  SpanLog& spans_;
  Ledger& ledger_;
  Report& report_;
  std::uint64_t request_ = 0;
  std::vector<double> rar_bytes_;
};

/// Destination-stage replays per traced run.
inline constexpr std::size_t kReplays = 64;

/// Replay the destination hop's stages on kReplays RARs over the whole
/// chain, each built the way the engine builds one: a fresh user request,
/// then one signed layer (with a capability delegation) per forwarding
/// broker, each verified at the next hop so the verification cache holds
/// what it holds on the real path. Only the destination's stages are
/// spanned: decode, verify_rar, the policy decision, appending a layer as
/// a forwarding hop would, and encoding.
void replay_destination_stages(e2e::kit::ChainWorld& world,
                               const std::vector<e2e::kit::WorldUser>& users,
                               e2e::Rng& rng, SpanLog& spans,
                               std::uint64_t first_request);

/// The engine-call and stage timings (sig.*_us, policy.decide_us): the
/// median duration of each one's spans.
void report_engine_layers(Report& report,
                          const std::map<std::string, SpanLog::SelfTime>& st);

/// Per-layer metrics every in-process workload reports the same way: the
/// counter deltas over the main operations inside the windows (`counted`),
/// broker admission time over the whole timed phase (`phase`, which also
/// holds the side operations), and the world's retained state.
void report_inproc_layers(Report& report, const CounterSnapshot& counted,
                          const CounterSnapshot& phase, double main_ops,
                          e2e::kit::ChainWorld& world, double world_build_s);

/// Metrics of layers a workload does not exercise, reported as 0.
void report_absent_layers(Report& report, const std::vector<std::string>& names);

/// Per-layer timing of one span name: the median duration of its spans.
double span_median_us(const std::map<std::string, SpanLog::SelfTime>& st,
                      const std::string& name);

}  // namespace rarbench
