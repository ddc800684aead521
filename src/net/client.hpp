// Client — the one blocking client of the frame protocol (net/frame.hpp):
// fedtune_ctl, the JournalReplicator's per-peer links and the network
// tests all talk to a Server through it.
//
// A Client owns at most one connection (Unix or TCP; TCP_NODELAY on TCP).
// The timeout passed to connect bounds the connect itself and every later
// send and receive (SO_SNDTIMEO/SO_RCVTIMEO); 0 blocks indefinitely.
// request() sends one frame stamped with the client's tenant and waits for
// its kOk/kErr answer, rendered as `ok PAYLOAD` / `err PAYLOAD` (a bare
// `ok` / `err` when the payload is empty):
//   - nullopt: no answer (connect, send or receive failure, timeout, EOF);
//     the connection is closed, and a caller may retry on a new one;
//   - `err protocol: bad response (...)`: the peer answered bytes that are
//     not a response frame; the connection is closed.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

namespace fedtune::net {

class Client {
 public:
  Client() = default;
  ~Client() { close(); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  // Blocking connect; false (and not connected) on failure. Any previous
  // connection is closed first.
  bool connect_unix(const std::string& path, double timeout_s = 0.0);
  bool connect_tcp(const std::string& host, std::uint16_t port,
                   double timeout_s = 0.0);
  bool connected() const { return fd_ >= 0; }
  void close();

  // Tenant id stamped into every request header (the server adopts it when
  // it runs without an auth table). hello() sets it too.
  void set_tenant(std::uint64_t tenant) { tenant_ = tenant; }

  // kHello handshake: `ok hello tenant=N` on success.
  std::optional<std::string> hello(std::uint64_t tenant,
                                   const std::string& token);
  // One request: `verb` maps to its opcode, `args` is the payload. A verb
  // with no opcode answers `err unknown verb 'VERB'` without touching the
  // connection.
  std::optional<std::string> request(const std::string& verb,
                                     const std::string& args = "");

  // The two halves of request(), for tests that split, pipeline or corrupt
  // frames on the wire.
  bool send_bytes(std::string_view bytes);
  std::optional<std::string> read_response();

 private:
  bool finish_connect(int fd, const void* addr, unsigned addr_len,
                      double timeout_s);

  int fd_ = -1;
  std::uint64_t tenant_ = 0;
  std::string in_;  // response bytes received past the last frame
};

}  // namespace fedtune::net
