#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace wmsketch::net {

namespace {

Status Errno(const std::string& what) {
  return Status::IOError(what + " failed: " + std::strerror(errno));
}

Status UnixAddress(const std::string& path, sockaddr_un* addr) {
  *addr = sockaddr_un{};
  addr->sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr->sun_path)) {
    return Status::InvalidArgument("unix socket path too long: " + path);
  }
  std::memcpy(addr->sun_path, path.c_str(), path.size() + 1);
  return Status::OK();
}

Result<UniqueFd> Dial(int family, const void* addr, socklen_t len, const std::string& name,
                      int io_timeout_ms) {
  UniqueFd fd(::socket(family, SOCK_STREAM, 0));
  if (fd.get() < 0) return Errno("socket");
  if (::connect(fd.get(), static_cast<const sockaddr*>(addr), len) != 0) {
    return Errno("connect " + name);
  }
  WMS_RETURN_NOT_OK(SetIoTimeouts(fd.get(), io_timeout_ms));
  return fd;
}

// The listening socket is nonblocking, so an accept the poll promised but a
// vanished connection took back returns at once instead of blocking the loop.
Result<UniqueFd> Listen(int family, const void* addr, socklen_t len, const std::string& name,
                        int backlog) {
  UniqueFd fd(::socket(family, SOCK_STREAM | SOCK_NONBLOCK, 0));
  if (fd.get() < 0) return Errno("socket");
  const int one = 1;
  if (family == AF_INET) {
    (void)::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  }
  if (::bind(fd.get(), static_cast<const sockaddr*>(addr), len) != 0 ||
      ::listen(fd.get(), backlog) != 0) {
    return Errno("bind/listen " + name);
  }
  return fd;
}

UniqueFd OpenSpare() { return UniqueFd(::open("/dev/null", O_RDONLY)); }

}  // namespace

Result<Listener> Listener::Unix(const std::string& path, int backlog) {
  sockaddr_un addr;
  WMS_RETURN_NOT_OK(UnixAddress(path, &addr));
  ::unlink(path.c_str());  // a stale socket file from a dead daemon
  Listener listener;
  WMS_ASSIGN_OR_RETURN(listener.fd_, Listen(AF_UNIX, &addr, sizeof(addr), path, backlog));
  listener.unix_path_ = path;
  listener.spare_ = OpenSpare();
  if (listener.spare_.get() < 0) return Errno("open spare descriptor");
  return listener;
}

Result<Listener> Listener::Tcp(int port, bool any, int backlog) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  addr.sin_addr.s_addr = htonl(any ? INADDR_ANY : INADDR_LOOPBACK);
  Listener listener;
  WMS_ASSIGN_OR_RETURN(listener.fd_, Listen(AF_INET, &addr, sizeof(addr), "tcp", backlog));
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  if (::getsockname(listener.fd(), reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    return Errno("getsockname");
  }
  listener.port_ = static_cast<int>(ntohs(bound.sin_port));
  listener.spare_ = OpenSpare();
  if (listener.spare_.get() < 0) return Errno("open spare descriptor");
  return listener;
}

Listener::Listener(Listener&& other) noexcept { *this = std::move(other); }

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = std::move(other.fd_);
    spare_ = std::move(other.spare_);
    port_ = std::exchange(other.port_, -1);
    unix_path_ = std::exchange(other.unix_path_, {});
  }
  return *this;
}

Listener::~Listener() { Close(); }

void Listener::Close() {
  fd_.reset();
  spare_.reset();
  if (!unix_path_.empty()) ::unlink(std::exchange(unix_path_, {}).c_str());
}

int Listener::Accept(int io_timeout_ms) {
  if (spare_.get() < 0) spare_ = OpenSpare();
  for (;;) {
    const int fd = ::accept(fd_.get(), nullptr, nullptr);
    if (fd >= 0) {
      if (SetIoTimeouts(fd, io_timeout_ms).ok()) return fd;
      ::close(fd);
      return -1;
    }
    if (errno == EINTR) continue;
    if ((errno == EMFILE || errno == ENFILE) && spare_.get() >= 0) {
      // Left in the backlog, the connection would keep the listener
      // readable and the caller's poll spinning: spend the spare on it.
      spare_.reset();
      const int shed = ::accept(fd_.get(), nullptr, nullptr);
      if (shed >= 0) ::close(shed);
      spare_ = OpenSpare();
    }
    return -1;
  }
}

Result<UniqueFd> DialUnix(const std::string& path, int io_timeout_ms) {
  sockaddr_un addr;
  WMS_RETURN_NOT_OK(UnixAddress(path, &addr));
  return Dial(AF_UNIX, &addr, sizeof(addr), path, io_timeout_ms);
}

Result<UniqueFd> DialTcp(const std::string& host, int port, int io_timeout_ms) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    return Status::InvalidArgument("not an IPv4 address: " + host);
  }
  return Dial(AF_INET, &addr, sizeof(addr), host + ":" + std::to_string(port), io_timeout_ms);
}

Status SetIoTimeouts(int fd, int timeout_ms) {
  if (timeout_ms <= 0) return Status::OK();
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  if (setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) != 0 ||
      setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv)) != 0) {
    return Errno("setsockopt");
  }
  return Status::OK();
}

int SpinPoll(pollfd* fds, size_t n, std::chrono::steady_clock::time_point until) {
  for (;;) {
    const int ready = ::poll(fds, n, 0);
    if (ready < 0 && errno == EINTR) continue;
    if (ready != 0 || std::chrono::steady_clock::now() >= until) return ready;
  }
}

}  // namespace wmsketch::net
