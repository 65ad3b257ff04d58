#include "daemon.hpp"

#include <signal.h>
#include <sys/prctl.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <csignal>
#include <cstring>
#include <thread>

#include "net/bbd_service.hpp"

namespace rarbench {

using namespace e2e;

namespace {

// The running daemon, for the signal handler (which may only read plain
// globals).
volatile sig_atomic_t g_daemon_pid = 0;
char g_socket_path[256] = {0};

/// waitpid with a deadline; true if the child was reaped.
bool reap_within(pid_t pid, std::chrono::milliseconds patience) {
  const auto deadline = std::chrono::steady_clock::now() + patience;
  while (true) {
    const pid_t r = ::waitpid(pid, nullptr, WNOHANG);
    if (r == pid || r < 0) return true;
    if (std::chrono::steady_clock::now() >= deadline) return false;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
}

}  // namespace

void kill_daemon_from_signal() {
  const pid_t pid = g_daemon_pid;
  if (pid > 0) {
    ::kill(pid, SIGKILL);
    ::waitpid(pid, nullptr, 0);
    ::unlink(g_socket_path);
    g_daemon_pid = 0;
  }
}

std::unique_ptr<Daemon> Daemon::launch() {
  std::unique_ptr<Daemon> d(new Daemon());
  ::mkdir(kRunDir, 0755);
  d->socket_path_ = std::string(kRunDir) + "/bbd-" +
                    std::to_string(static_cast<long>(::getpid())) + ".sock";
  if (d->socket_path_.size() >= sizeof g_socket_path) {
    throw std::runtime_error("socket path too long");
  }
  ::unlink(d->socket_path_.c_str());
  const pid_t parent = ::getpid();
  d->pid_ = ::fork();
  if (d->pid_ < 0) throw std::runtime_error("fork failed");
  if (d->pid_ == 0) {
    // Die with the benchmark, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(1);
    net::BbdService::Options options;
    options.listen_on = {
        net::Endpoint::parse("unix:" + d->socket_path_).value()};
    net::BbdService service(std::move(options));
    if (!service.start().ok()) ::_exit(1);
    service.wait();
    ::_exit(0);
  }
  std::strcpy(g_socket_path, d->socket_path_.c_str());
  g_daemon_pid = d->pid_;
  return d;
}

Daemon::~Daemon() { kill_and_reap(); }

void Daemon::kill_and_reap() {
  if (pid_ <= 0) return;
  g_daemon_pid = 0;
  ::kill(pid_, SIGKILL);
  ::waitpid(pid_, nullptr, 0);
  ::unlink(socket_path_.c_str());
  pid_ = -1;
}

Result<net::BbdClient> Daemon::connect(std::uint64_t window) const {
  net::BbdClient::Options options;
  options.connect_to = net::Endpoint::parse("unix:" + socket_path_).value();
  options.pipeline_depth = window;
  options.call_timeout = std::chrono::milliseconds(60000);
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (true) {
    auto client = net::BbdClient::connect(options);
    if (client.ok()) return client;
    if (std::chrono::steady_clock::now() >= deadline) return client;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

bool Daemon::shutdown(net::BbdClient& control) {
  if (pid_ <= 0) return false;
  const bool asked = control.shutdown_daemon().ok();
  if (asked && reap_within(pid_, std::chrono::seconds(10))) {
    g_daemon_pid = 0;
    pid_ = -1;
    ::unlink(socket_path_.c_str());
    return true;
  }
  kill_and_reap();
  return false;
}

}  // namespace rarbench
