#include "net/client.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "net/frame.hpp"

namespace fedtune::net {

bool Client::connect_unix(const std::string& path, double timeout_s) {
  close();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  if (path.size() >= sizeof(addr.sun_path)) return false;
  std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
  return finish_connect(::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0),
                        &addr, sizeof(addr), timeout_s);
}

bool Client::connect_tcp(const std::string& host, std::uint16_t port,
                         double timeout_s) {
  close();
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) return false;
  const int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  const int one = 1;
  if (fd >= 0) ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return finish_connect(fd, &addr, sizeof(addr), timeout_s);
}

bool Client::finish_connect(int fd, const void* addr, unsigned addr_len,
                            double timeout_s) {
  if (fd < 0) return false;
  if (timeout_s > 0.0) {
    // Set before connect(): Linux bounds a blocking connect by SO_SNDTIMEO.
    timeval tv{};
    tv.tv_sec = static_cast<time_t>(timeout_s);
    tv.tv_usec = static_cast<suseconds_t>((timeout_s - tv.tv_sec) * 1e6);
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    ::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
  }
  if (::connect(fd, static_cast<const sockaddr*>(addr), addr_len) < 0) {
    ::close(fd);
    return false;
  }
  fd_ = fd;
  return true;
}

void Client::close() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  in_.clear();
}

std::optional<std::string> Client::hello(std::uint64_t tenant,
                                         const std::string& token) {
  tenant_ = tenant;
  return request("hello", token);
}

std::optional<std::string> Client::request(const std::string& verb,
                                           const std::string& args) {
  const auto opcode = opcode_for_verb(verb);
  if (!opcode.has_value()) return "err unknown verb '" + verb + "'";
  Frame frame;
  frame.opcode = *opcode;
  frame.tenant = tenant_;
  frame.payload = args;
  if (!send_bytes(encode_frame(frame))) return std::nullopt;
  return read_response();
}

bool Client::send_bytes(std::string_view bytes) {
  while (fd_ >= 0 && !bytes.empty()) {
    const ssize_t w = ::send(fd_, bytes.data(), bytes.size(), MSG_NOSIGNAL);
    if (w < 0 && errno == EINTR) continue;
    if (w <= 0) {
      close();
      return false;
    }
    bytes.remove_prefix(static_cast<std::size_t>(w));
  }
  return fd_ >= 0;
}

std::optional<std::string> Client::read_response() {
  char buf[8192];
  while (fd_ >= 0) {
    DecodeResult r = decode_frame(in_);
    if (r.status == DecodeStatus::kFrame) {
      in_.erase(0, r.consumed);
      const Opcode op = r.frame.opcode;
      if (op == Opcode::kOk || op == Opcode::kErr) {
        std::string out = op == Opcode::kOk ? "ok" : "err";
        if (!r.frame.payload.empty()) out += " " + r.frame.payload;
        return out;
      }
      r.error = "unexpected opcode " + std::to_string(static_cast<int>(op));
    }
    if (r.status != DecodeStatus::kNeedMore) {
      close();
      return "err protocol: bad response (" + r.error + ")";
    }
    const ssize_t n = ::recv(fd_, buf, sizeof(buf), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;  // closed, failed, or SO_RCVTIMEO expired
    in_.append(buf, static_cast<std::size_t>(n));
  }
  close();
  return std::nullopt;
}

}  // namespace fedtune::net
