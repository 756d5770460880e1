#include "common/net.h"

#include <arpa/inet.h>
#include <csignal>
#include <cstring>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <thread>

#include "common/fault.h"

namespace causer::net {

namespace {

/// Micro-batched serving wants request frames on the wire immediately,
/// not Nagle-coalesced: the engine does its own batching server-side.
void DisableNagle(int fd) {
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

}  // namespace

int ListenTcp(const std::string& host, int port, int backlog,
              int* bound_port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    CloseSocket(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, backlog) != 0) {
    CloseSocket(fd);
    return -1;
  }
  if (bound_port != nullptr) {
    sockaddr_in bound{};
    socklen_t len = sizeof(bound);
    if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &len) != 0) {
      CloseSocket(fd);
      return -1;
    }
    *bound_port = ntohs(bound.sin_port);
  }
  return fd;
}

int ConnectTcp(const std::string& host, int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    CloseSocket(fd);
    return -1;
  }
  int rc;
  do {
    rc = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  } while (rc != 0 && errno == EINTR);
  if (rc != 0) {
    CloseSocket(fd);
    return -1;
  }
  DisableNagle(fd);
  return fd;
}

int AcceptConnection(int listen_fd) {
  for (;;) {
    int fd = ::accept(listen_fd, nullptr, nullptr);
    if (fd >= 0) {
      DisableNagle(fd);
      return fd;
    }
    if (errno == EINTR || errno == ECONNABORTED) continue;
    return -1;
  }
}

void ShutdownSocket(int fd) {
  if (fd >= 0) ::shutdown(fd, SHUT_RDWR);
}

void CloseSocket(int fd) {
  if (fd < 0) return;
  int rc;
  do {
    rc = ::close(fd);
  } while (rc != 0 && errno == EINTR);
}

bool SetRecvTimeout(int fd, double seconds) {
  if (fd < 0 || seconds < 0) return false;
  timeval tv{};  // zero = clear the timeout (block forever again)
  tv.tv_sec = static_cast<time_t>(seconds);
  tv.tv_usec = static_cast<suseconds_t>((seconds - tv.tv_sec) * 1e6);
  return ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv)) == 0;
}

bool ReadFull(int fd, void* buf, size_t n, ReadError* error) {
  if (error != nullptr) *error = ReadError::kNone;
  uint8_t* p = static_cast<uint8_t*>(buf);
  while (n > 0) {
    ssize_t got = ::recv(fd, p, n, 0);
    if (got > 0) {
      p += got;
      n -= static_cast<size_t>(got);
      continue;
    }
    if (got < 0 && errno == EINTR) continue;
    if (error != nullptr) {
      if (got == 0) {
        *error = ReadError::kClosed;
      } else if (errno == EAGAIN || errno == EWOULDBLOCK) {
        *error = ReadError::kTimeout;  // SO_RCVTIMEO expired
      } else {
        *error = ReadError::kError;
      }
    }
    return false;
  }
  return true;
}

bool WriteFull(int fd, const void* buf, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(buf);
  while (n > 0) {
    ssize_t put = ::send(fd, p, n, MSG_NOSIGNAL);
    if (put > 0) {
      p += put;
      n -= static_cast<size_t>(put);
      continue;
    }
    if (put < 0 && errno == EINTR) continue;
    return false;
  }
  return true;
}

bool ReadFrame(int fd, std::vector<uint8_t>* payload, uint32_t max_bytes,
               ReadError* error) {
  if (error != nullptr) *error = ReadError::kNone;
  if (fault::ShouldFail("net.conn_reset")) {
    // Simulate the peer resetting the connection right before our read.
    ShutdownSocket(fd);
    if (error != nullptr) *error = ReadError::kError;
    return false;
  }
  uint8_t header[4];
  if (!ReadFull(fd, header, sizeof(header), error)) return false;
  const uint32_t len = static_cast<uint32_t>(header[0]) |
                       static_cast<uint32_t>(header[1]) << 8 |
                       static_cast<uint32_t>(header[2]) << 16 |
                       static_cast<uint32_t>(header[3]) << 24;
  if (len > max_bytes) {
    if (error != nullptr) *error = ReadError::kTooLarge;
    return false;
  }
  if (fault::ShouldFail("net.slow_reader")) {
    // Stall between header and payload: the window a slow-loris peer
    // leaves a reader thread dangling in, and the one the server's read
    // deadline must cover.
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  payload->resize(len);
  return len == 0 || ReadFull(fd, payload->data(), len, error);
}

bool WriteFrame(int fd, const uint8_t* payload, size_t len) {
  uint8_t header[4] = {static_cast<uint8_t>(len),
                       static_cast<uint8_t>(len >> 8),
                       static_cast<uint8_t>(len >> 16),
                       static_cast<uint8_t>(len >> 24)};
  if (fault::ShouldFail("net.torn_write")) {
    // Emit the header plus a truncated payload, then report failure: the
    // peer's decoder must reject the torn frame, and the writer must treat
    // the connection as dead.
    if (WriteFull(fd, header, sizeof(header)) && len > 1) {
      WriteFull(fd, payload, len / 2);
    }
    return false;
  }
  if (!WriteFull(fd, header, sizeof(header))) return false;
  return len == 0 || WriteFull(fd, payload, len);
}

void PutU8(std::vector<uint8_t>* out, uint8_t v) { out->push_back(v); }

void PutU16(std::vector<uint8_t>* out, uint16_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
}

void PutU32(std::vector<uint8_t>* out, uint32_t v) {
  out->push_back(static_cast<uint8_t>(v));
  out->push_back(static_cast<uint8_t>(v >> 8));
  out->push_back(static_cast<uint8_t>(v >> 16));
  out->push_back(static_cast<uint8_t>(v >> 24));
}

void PutF32(std::vector<uint8_t>* out, float v) {
  uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  PutU32(out, bits);
}

uint8_t Cursor::U8() {
  if (pos + 1 > len) {
    ok = false;
    return 0;
  }
  return data[pos++];
}

uint16_t Cursor::U16() {
  if (pos + 2 > len) {
    ok = false;
    return 0;
  }
  uint16_t v = static_cast<uint16_t>(data[pos]) |
               static_cast<uint16_t>(data[pos + 1]) << 8;
  pos += 2;
  return v;
}

uint32_t Cursor::U32() {
  if (pos + 4 > len) {
    ok = false;
    return 0;
  }
  uint32_t v = static_cast<uint32_t>(data[pos]) |
               static_cast<uint32_t>(data[pos + 1]) << 8 |
               static_cast<uint32_t>(data[pos + 2]) << 16 |
               static_cast<uint32_t>(data[pos + 3]) << 24;
  pos += 4;
  return v;
}

float Cursor::F32() {
  uint32_t bits = U32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

namespace {

// Self-pipe shutdown/reload plumbing: the handlers only do
// async-signal-safe work (a flag store and one write); waiters block on
// the pipe's read end.
std::atomic<bool> g_shutdown_requested{false};
std::atomic<int> g_reload_requests{0};
int g_shutdown_pipe[2] = {-1, -1};

void WakeSignalPipe() {
  if (g_shutdown_pipe[1] >= 0) {
    const uint8_t byte = 1;
    [[maybe_unused]] ssize_t n = ::write(g_shutdown_pipe[1], &byte, 1);
  }
}

extern "C" void ShutdownSignalHandler(int /*signum*/) {
  g_shutdown_requested.store(true, std::memory_order_relaxed);
  WakeSignalPipe();
}

extern "C" void ReloadSignalHandler(int /*signum*/) {
  g_reload_requests.fetch_add(1, std::memory_order_relaxed);
  WakeSignalPipe();
}

bool EnsureSignalPipe() {
  return g_shutdown_pipe[0] >= 0 || ::pipe(g_shutdown_pipe) == 0;
}

}  // namespace

bool InstallShutdownHandler() {
  if (!EnsureSignalPipe()) return false;
  struct sigaction action{};
  action.sa_handler = ShutdownSignalHandler;
  sigemptyset(&action.sa_mask);
  return ::sigaction(SIGINT, &action, nullptr) == 0 &&
         ::sigaction(SIGTERM, &action, nullptr) == 0;
}

bool ShutdownRequested() {
  return g_shutdown_requested.load(std::memory_order_relaxed);
}

bool InstallReloadHandler() {
  if (!EnsureSignalPipe()) return false;
  struct sigaction action{};
  action.sa_handler = ReloadSignalHandler;
  sigemptyset(&action.sa_mask);
  return ::sigaction(SIGHUP, &action, nullptr) == 0;
}

SignalKind WaitForSignal(double timeout_seconds) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_seconds);
  for (;;) {
    // Shutdown wins over queued reloads: a draining process must not start
    // loading a new model.
    if (ShutdownRequested()) return SignalKind::kShutdown;
    int pending = g_reload_requests.load(std::memory_order_relaxed);
    while (pending > 0) {
      if (g_reload_requests.compare_exchange_weak(
              pending, pending - 1, std::memory_order_relaxed)) {
        return SignalKind::kReload;
      }
    }
    if (g_shutdown_pipe[0] < 0) return SignalKind::kNone;
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return SignalKind::kNone;
    const auto left =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    pollfd pfd{g_shutdown_pipe[0], POLLIN, 0};
    const int rc = ::poll(&pfd, 1, static_cast<int>(left.count()) + 1);
    if (rc < 0 && errno != EINTR) return SignalKind::kNone;
    if (rc > 0 && (pfd.revents & POLLIN) != 0) {
      uint8_t byte;
      [[maybe_unused]] ssize_t n = ::read(g_shutdown_pipe[0], &byte, 1);
    }
  }
}

}  // namespace causer::net
