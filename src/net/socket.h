// Thin RAII wrappers over POSIX TCP sockets.
//
// The blocking TcpStream serves the *client* side (NeutralClient, tests),
// where a thread per conversation is the natural shape: reads carry
// timeouts so a client cannot wedge in a syscall, and writes use
// MSG_NOSIGNAL so a peer that vanished mid-reply surfaces as an Error
// instead of killing the process with SIGPIPE.
//
// neutrald's serving path is different: it runs a non-blocking epoll event
// loop (net/poller.h, net/server.cpp) over raw fds it owns — protocol and
// /metrics listeners alike — so the only affordances it needs from here
// are TcpListener's bind, its fd() and the set_nonblocking() helper below.
//
// Loopback and real interfaces look identical from here; tests bind
// 127.0.0.1 port 0 and read the ephemeral port back from the listener.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>

namespace neutral::net {

/// Outcome of a buffered line read.
enum class ReadStatus : std::uint8_t {
  kLine,     ///< one full line delivered (terminator stripped)
  kEof,      ///< peer closed with no buffered partial line
  kTimedOut  ///< read timeout expired first (set_read_timeout)
};

/// One connected TCP stream (move-only; closes on destruction).
class TcpStream {
 public:
  TcpStream() = default;
  explicit TcpStream(int fd) : fd_(fd) {}
  TcpStream(TcpStream&& o) noexcept;
  TcpStream& operator=(TcpStream&& o) noexcept;
  TcpStream(const TcpStream&) = delete;
  TcpStream& operator=(const TcpStream&) = delete;
  ~TcpStream();

  /// Blocking connect to host:port (numeric or resolvable name); throws
  /// neutral::Error on failure.
  static TcpStream connect(const std::string& host, std::uint16_t port);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }

  /// Bound any single blocking read; zero restores "wait forever".
  void set_read_timeout(std::chrono::milliseconds timeout);

  /// Read up to the next '\n' (stripped, along with a preceding '\r') into
  /// `line`.  Throws Error on socket errors or when a line exceeds
  /// `max_bytes` (an unframed or hostile peer).
  ReadStatus read_line(std::string& line, std::size_t max_bytes);

  /// Write the whole buffer; throws Error on failure (SIGPIPE suppressed).
  void write_all(const std::string& data);

  void close();

 private:
  int fd_ = -1;
  std::string buffer_;  ///< bytes past the last delivered '\n'
};

/// A listening TCP socket (move-only; closes on destruction).
class TcpListener {
 public:
  /// Bind + listen on host:port; port 0 picks an ephemeral port (read it
  /// back with port()).  SO_REUSEADDR is set so restarts don't trip over
  /// TIME_WAIT.  Throws neutral::Error on failure.
  TcpListener(const std::string& host, std::uint16_t port, int backlog = 16);
  TcpListener(TcpListener&& o) noexcept;
  TcpListener& operator=(TcpListener&&) = delete;
  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;
  ~TcpListener();

  /// The bound port (resolves port 0 requests).
  [[nodiscard]] std::uint16_t port() const { return port_; }

  /// The listening fd, for event-loop registration (epoll).  The listener
  /// keeps ownership; callers must not close it.
  [[nodiscard]] int fd() const { return fd_; }

  void close();

 private:
  int fd_ = -1;
  std::uint16_t port_ = 0;
};

/// Put `fd` into non-blocking mode (O_NONBLOCK); throws Error on failure.
void set_nonblocking(int fd);

}  // namespace neutral::net
