// The forked bbd of the bbd_mixed workload and its lifecycle: launched on a
// private UNIX socket inside the checkout, shut down with kShutdown and
// reaped on success; killed, reaped and its socket removed on every other
// path (destructor, failed shutdown, and the watchdog's signal handler), so
// no process or socket file outlives a run.
#pragma once

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>

#include "net/bbd_client.hpp"

namespace rarbench {

/// Directory (relative to the checkout root) holding the daemon's socket.
inline constexpr char kRunDir[] = ".rarbench_run";

class Daemon {
 public:
  /// Fork a child hosting net::BbdService on a fresh UNIX socket. Call
  /// before the process starts any thread.
  static std::unique_ptr<Daemon> launch();

  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  /// Dial (retrying while the child builds its startup world) and
  /// complete the handshake; `window` > 1 negotiates pipelining.
  e2e::Result<e2e::net::BbdClient> connect(std::uint64_t window) const;

  /// Graceful stop: kShutdown over `control`, then reap. Falls back to
  /// kill + reap if the daemon does not exit in time. True if the daemon
  /// shut down on request.
  bool shutdown(e2e::net::BbdClient& control);

  pid_t pid() const { return pid_; }

 private:
  Daemon() = default;
  /// SIGKILL (if still running), reap, remove the socket.
  void kill_and_reap();

  pid_t pid_ = -1;
  std::string socket_path_;
};

/// For the watchdog's signal handler: kill and reap the running daemon
/// and remove its socket, using only async-signal-safe calls.
void kill_daemon_from_signal();

}  // namespace rarbench
