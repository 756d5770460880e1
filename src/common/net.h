#ifndef CAUSER_COMMON_NET_H_
#define CAUSER_COMMON_NET_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace causer::net {

// Dependency-free TCP + framing layer shared by the serving front-end
// (src/serve/server.cc), its client (src/serve/client.cc) and the load
// generator (tools/causer_loadgen.cc). All frames on a causer socket are
// [u32 little-endian payload length][payload]; payload layouts live in
// src/serve/protocol.h.

// ---- sockets ----------------------------------------------------------

/// Opens a listening TCP socket bound to host:port (port 0 = ephemeral)
/// with SO_REUSEADDR. Returns the fd, or -1 on failure; `*bound_port`
/// (may be null) receives the actually bound port.
int ListenTcp(const std::string& host, int port, int backlog,
              int* bound_port);

/// Blocking connect to host:port (numeric IPv4 host). Returns fd or -1.
int ConnectTcp(const std::string& host, int port);

/// accept() retrying EINTR. Returns the connection fd, or -1 once the
/// listener was shut down or failed.
int AcceptConnection(int listen_fd);

/// shutdown(fd, SHUT_RDWR): wakes any thread blocked reading the socket.
void ShutdownSocket(int fd);

/// close() retrying EINTR. Safe on -1 (no-op).
void CloseSocket(int fd);

/// SO_RCVTIMEO: blocking reads fail after `seconds` instead of hanging
/// (the load generator's hung-connection detector, the server's
/// slow-loris guard). 0 clears the timeout. False on failure.
bool SetRecvTimeout(int fd, double seconds);

// ---- length-prefixed framing ------------------------------------------

/// Why a read-side call returned false. `kTimeout` is only reported on
/// sockets with SetRecvTimeout() applied; the server's slow-loris guard
/// uses it to tell an idle/stalled peer apart from a clean disconnect.
enum class ReadError : uint8_t {
  kNone = 0,      // the call succeeded
  kClosed,        // EOF before any/all bytes arrived
  kTimeout,       // SO_RCVTIMEO expired mid-read
  kError,         // other socket error
  kTooLarge,      // frame declared a length above max_bytes
};

/// Reads exactly `n` bytes (retries EINTR and short reads). False on EOF
/// or error; `*error` (may be null) receives the cause.
bool ReadFull(int fd, void* buf, size_t n, ReadError* error = nullptr);

/// Writes exactly `n` bytes; uses MSG_NOSIGNAL so a closed peer yields an
/// error instead of SIGPIPE. False on error.
bool WriteFull(int fd, const void* buf, size_t n);

/// Reads one frame into `*payload`. False on EOF, error, or a declared
/// length above `max_bytes` (corruption / protocol-confusion guard);
/// `*error` (may be null) receives the cause. Fault points:
/// `net.conn_reset` resets the socket before the read, `net.slow_reader`
/// stalls between the length header and the payload.
bool ReadFrame(int fd, std::vector<uint8_t>* payload, uint32_t max_bytes,
               ReadError* error = nullptr);

/// Writes one frame. Fault point `net.torn_write` emits the header plus a
/// truncated payload and reports failure — the peer sees a torn frame.
bool WriteFrame(int fd, const uint8_t* payload, size_t len);

// ---- little-endian scalar packing (the wire byte order) ---------------

void PutU8(std::vector<uint8_t>* out, uint8_t v);
void PutU16(std::vector<uint8_t>* out, uint16_t v);
void PutU32(std::vector<uint8_t>* out, uint32_t v);
void PutF32(std::vector<uint8_t>* out, float v);

/// Bounds-checked little-endian reader: every getter past the end flips
/// `ok` to false and returns 0, so decoders can check once at the end.
struct Cursor {
  const uint8_t* data = nullptr;
  size_t len = 0;
  size_t pos = 0;
  bool ok = true;

  uint8_t U8();
  uint16_t U16();
  uint32_t U32();
  float F32();
  bool AtEnd() const { return pos == len; }
};

// ---- signal-driven shutdown (self-pipe) -------------------------------

/// Installs SIGINT/SIGTERM handlers that record the request and write one
/// byte to an internal pipe (async-signal-safe). Idempotent; returns
/// false if the pipe or handlers could not be installed.
bool InstallShutdownHandler();

/// True once a shutdown signal arrived.
bool ShutdownRequested();

// ---- signal-driven reload (SIGHUP, same self-pipe) --------------------

/// Installs a SIGHUP handler that records a reload request on the same
/// self-pipe. Call after InstallShutdownHandler(). Idempotent; false if
/// the pipe or handler could not be installed.
bool InstallReloadHandler();

enum class SignalKind : uint8_t {
  kNone = 0,   // timeout expired with no signal
  kShutdown,   // SIGINT/SIGTERM
  kReload,     // SIGHUP
};

/// Blocks up to `timeout_seconds` for a shutdown or reload request.
/// Consumes one pending reload per kReload return; kShutdown is sticky.
/// Lets the serve loop interleave signal handling with periodic work
/// (checkpoint-directory polling for `--reload-watch`).
SignalKind WaitForSignal(double timeout_seconds);

}  // namespace causer::net

#endif  // CAUSER_COMMON_NET_H_
