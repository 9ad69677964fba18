#pragma once

#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <string>
#include <utility>

#include "util/status.h"

namespace wmsketch::net {

/// The socket layer of both network tiers: the only place that listens,
/// connects and accepts, over Unix-domain and TCP sockets.

/// An owned descriptor, closed when it is destroyed or replaced. Move-only.
class UniqueFd {
 public:
  UniqueFd() = default;
  explicit UniqueFd(int fd) : fd_(fd) {}
  UniqueFd(UniqueFd&& other) noexcept : fd_(std::exchange(other.fd_, -1)) {}
  UniqueFd& operator=(UniqueFd&& other) noexcept {
    reset(std::exchange(other.fd_, -1));
    return *this;
  }
  ~UniqueFd() { reset(); }

  /// The descriptor, or -1 when none is held.
  int get() const { return fd_; }
  /// Closes the descriptor held, if any, and holds `fd` instead.
  void reset(int fd = -1) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = fd;
  }

 private:
  int fd_ = -1;
};

/// A listening socket, and the one accept both daemons (the serving
/// acceptor and the sync aggregator) take connections through. Closing it
/// unlinks a Unix-domain socket's path. Move-only.
class Listener {
 public:
  /// Listens on the Unix-domain socket `path`, unlinking a stale socket
  /// file a dead daemon left there.
  static Result<Listener> Unix(const std::string& path, int backlog);
  /// Listens on TCP `port` (0: kernel-assigned) of 127.0.0.1, or of every
  /// interface when `any`.
  static Result<Listener> Tcp(int port, bool any, int backlog);

  Listener() = default;
  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  /// Takes at most one pending connection and returns its fd, with
  /// SetIoTimeouts(io_timeout_ms) applied, or -1 when it took none. One
  /// failure rule: a connection the process has no descriptor for is shed
  /// (the spare descriptor kept for this is closed, the connection accepted
  /// and closed, the spare reopened), a connection whose timeouts cannot be
  /// set is closed, and an error the pending connection caused drops only
  /// it. None of these is the caller's error, and each takes the connection
  /// out of the backlog, so a caller that polls the listener neither stops
  /// nor spins.
  int Accept(int io_timeout_ms);

  /// The listening fd (-1 when closed), for the caller's poll set.
  int fd() const { return fd_.get(); }
  /// The bound TCP port (-1 for a Unix-domain listener).
  int port() const { return port_; }

 private:
  void Close();

  UniqueFd fd_;
  /// A descriptor held in reserve, so a connection can still be accepted
  /// (and shed) when the process has run out of descriptors.
  UniqueFd spare_;
  int port_ = -1;
  std::string unix_path_;
};

/// Connects to the Unix-domain socket `path`; returns the socket with
/// SetIoTimeouts(io_timeout_ms) applied.
Result<UniqueFd> DialUnix(const std::string& path, int io_timeout_ms);
/// Connects to the IPv4 `host`:`port`, as DialUnix.
Result<UniqueFd> DialTcp(const std::string& host, int port, int io_timeout_ms);

/// Arms SO_RCVTIMEO/SO_SNDTIMEO on `fd` (no-op for timeout_ms <= 0), so a
/// hung peer surfaces as a timed-out IOError instead of a stuck thread.
Status SetIoTimeouts(int fd, int timeout_ms);

/// Polls `fds` with a zero timeout until one of them has an event or
/// `until` passes. The wait costs CPU instead of a thread wake-up, which is
/// worth it only where the event is expected within microseconds. Returns
/// what poll(2) returned last: the ready count, 0 once `until` has passed,
/// or -1 with errno set (EINTR is retried).
int SpinPoll(pollfd* fds, size_t n, std::chrono::steady_clock::time_point until);

}  // namespace wmsketch::net
