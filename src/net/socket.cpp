#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netdb.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>
#include <vector>

#include "util/errno_string.h"
#include "util/error.h"

namespace neutral::net {

namespace {

[[noreturn]] void fail_errno(const std::string& what) {
  throw Error(what + ": " + errno_string(errno));
}

/// Resolve host:port to every usable IPv4/IPv6 address, in resolver
/// order.  Callers try each in turn: a dual-stack name like `localhost`
/// may list ::1 first while the peer bound 127.0.0.1 only.
struct Resolved {
  sockaddr_storage addr{};
  socklen_t len = 0;
  int family = AF_INET;
};

std::vector<Resolved> resolve(const std::string& host, std::uint16_t port) {
  addrinfo hints{};
  hints.ai_family = AF_UNSPEC;
  hints.ai_socktype = SOCK_STREAM;
  addrinfo* list = nullptr;
  const int rc =
      getaddrinfo(host.c_str(), std::to_string(port).c_str(), &hints, &list);
  NEUTRAL_REQUIRE(rc == 0 && list != nullptr,
                  "cannot resolve '" + host + "': " +
                      (rc == 0 ? "no addresses" : gai_strerror(rc)));
  std::vector<Resolved> out;
  for (const addrinfo* ai = list; ai != nullptr; ai = ai->ai_next) {
    Resolved entry;
    std::memcpy(&entry.addr, ai->ai_addr, ai->ai_addrlen);
    entry.len = static_cast<socklen_t>(ai->ai_addrlen);
    entry.family = ai->ai_family;
    out.push_back(entry);
  }
  freeaddrinfo(list);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// TcpStream
// ---------------------------------------------------------------------------

TcpStream::TcpStream(TcpStream&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)), buffer_(std::move(o.buffer_)) {}

TcpStream& TcpStream::operator=(TcpStream&& o) noexcept {
  if (this != &o) {
    close();
    fd_ = std::exchange(o.fd_, -1);
    buffer_ = std::move(o.buffer_);
  }
  return *this;
}

TcpStream::~TcpStream() { close(); }

void TcpStream::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

TcpStream TcpStream::connect(const std::string& host, std::uint16_t port) {
  int last_err = ECONNREFUSED;
  for (const Resolved& to : resolve(host, port)) {
    const int fd = ::socket(to.family, SOCK_STREAM, 0);
    if (fd < 0) {
      last_err = errno;
      continue;
    }
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&to.addr),
                  to.len) == 0) {
      return TcpStream(fd);
    }
    last_err = errno;
    ::close(fd);
  }
  errno = last_err;
  fail_errno("connect to " + host + ":" + std::to_string(port));
}

void TcpStream::set_read_timeout(std::chrono::milliseconds timeout) {
  NEUTRAL_REQUIRE(valid(), "set_read_timeout on a closed stream");
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout.count() / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout.count() % 1000) * 1000);
  if (::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv) != 0) {
    fail_errno("setsockopt(SO_RCVTIMEO)");
  }
}

ReadStatus TcpStream::read_line(std::string& line, std::size_t max_bytes) {
  NEUTRAL_REQUIRE(valid(), "read_line on a closed stream");
  while (true) {
    const std::size_t nl = buffer_.find('\n');
    if (nl != std::string::npos) {
      line.assign(buffer_, 0, nl);
      if (!line.empty() && line.back() == '\r') line.pop_back();
      buffer_.erase(0, nl + 1);
      return ReadStatus::kLine;
    }
    NEUTRAL_REQUIRE(buffer_.size() <= max_bytes,
                    "frame exceeds " + std::to_string(max_bytes) + " bytes");
    char chunk[4096];
    const ssize_t n = ::recv(fd_, chunk, sizeof chunk, 0);
    if (n > 0) {
      buffer_.append(chunk, static_cast<std::size_t>(n));
      continue;
    }
    if (n == 0) {
      // Clean EOF; a buffered partial line means the peer died mid-frame.
      NEUTRAL_REQUIRE(buffer_.empty(),
                      "connection closed mid-frame (partial line)");
      return ReadStatus::kEof;
    }
    if (errno == EINTR) continue;
    if (errno == EAGAIN || errno == EWOULDBLOCK) return ReadStatus::kTimedOut;
    fail_errno("recv");
  }
}

void TcpStream::write_all(const std::string& data) {
  NEUTRAL_REQUIRE(valid(), "write_all on a closed stream");
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      fail_errno("send");
    }
    sent += static_cast<std::size_t>(n);
  }
}

// ---------------------------------------------------------------------------
// TcpListener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(const std::string& host, std::uint16_t port,
                         int backlog) {
  // Try every resolved address: a dual-stack name may list a family this
  // host cannot bind first (mirrors TcpStream::connect).
  int last_err = EADDRNOTAVAIL;
  for (const Resolved& at : resolve(host, port)) {
    fd_ = ::socket(at.family, SOCK_STREAM, 0);
    if (fd_ < 0) {
      last_err = errno;
      continue;
    }
    const int one = 1;
    (void)::setsockopt(fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
    if (::bind(fd_, reinterpret_cast<const sockaddr*>(&at.addr), at.len) ==
        0) {
      break;
    }
    last_err = errno;
    ::close(fd_);
    fd_ = -1;
  }
  if (fd_ < 0) {
    errno = last_err;
    fail_errno("bind " + host + ":" + std::to_string(port));
  }
  if (::listen(fd_, backlog) != 0) {
    const int err = errno;
    ::close(fd_);
    fd_ = -1;
    errno = err;
    fail_errno("listen");
  }
  sockaddr_storage bound{};
  socklen_t len = sizeof bound;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
    fail_errno("getsockname");
  }
  port_ = bound.ss_family == AF_INET6
              ? ntohs(reinterpret_cast<const sockaddr_in6&>(bound).sin6_port)
              : ntohs(reinterpret_cast<const sockaddr_in&>(bound).sin_port);
}

TcpListener::TcpListener(TcpListener&& o) noexcept
    : fd_(std::exchange(o.fd_, -1)), port_(std::exchange(o.port_, 0)) {}

TcpListener::~TcpListener() { close(); }

void TcpListener::close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) fail_errno("fcntl(F_GETFL)");
  if (::fcntl(fd, F_SETFL, flags | O_NONBLOCK) != 0) {
    fail_errno("fcntl(F_SETFL, O_NONBLOCK)");
  }
}

}  // namespace neutral::net
