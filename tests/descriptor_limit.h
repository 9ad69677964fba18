// In-process tools for driving a daemon past the descriptor limit: a scoped
// lower soft RLIMIT_NOFILE, and sockets created before it that connect
// without needing a descriptor of their own.
#pragma once

#include <gtest/gtest.h>

#include <dirent.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

namespace wmsketch::descriptors {

// The highest descriptor this process has open.
inline int HighestOpenDescriptor() {
  int highest = -1;
  DIR* dir = ::opendir("/proc/self/fd");
  if (dir == nullptr) {
    ADD_FAILURE() << "cannot list /proc/self/fd";
    return 1024;
  }
  while (const dirent* entry = ::readdir(dir)) {
    if (entry->d_name[0] != '.') highest = std::max(highest, std::atoi(entry->d_name));
  }
  ::closedir(dir);
  return highest;
}

// Lowers the soft RLIMIT_NOFILE so that only `spare` more descriptors can be
// opened above those open now, and restores it on destruction.
class DescriptorLimit {
 public:
  explicit DescriptorLimit(int spare) {
    EXPECT_EQ(::getrlimit(RLIMIT_NOFILE, &saved_), 0);
    rlimit lowered = saved_;
    lowered.rlim_cur = static_cast<rlim_t>(HighestOpenDescriptor() + 1 + spare);
    EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &lowered), 0);
  }
  ~DescriptorLimit() { EXPECT_EQ(::setrlimit(RLIMIT_NOFILE, &saved_), 0); }
  DescriptorLimit(const DescriptorLimit&) = delete;
  DescriptorLimit& operator=(const DescriptorLimit&) = delete;

 private:
  rlimit saved_{};
};

// Nonblocking Unix-domain stream sockets, created unconnected and closed
// on destruction.
class Sockets {
 public:
  explicit Sockets(int n) {
    for (int i = 0; i < n; ++i) fds_.push_back(::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0));
  }
  ~Sockets() {
    for (const int fd : fds_) ::close(fd);
  }
  Sockets(const Sockets&) = delete;
  Sockets& operator=(const Sockets&) = delete;

  // Connects every socket to `path`; a connect that finds the listener's
  // backlog full fails at once. Returns how many connected.
  int ConnectAll(const std::string& path) const {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, path.c_str(), path.size() + 1);
    int connected = 0;
    for (const int fd : fds_) {
      if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) == 0) ++connected;
    }
    return connected;
  }

 private:
  std::vector<int> fds_;
};

}  // namespace wmsketch::descriptors
