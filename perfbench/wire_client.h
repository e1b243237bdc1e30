// Blocking loopback client for the dpcopula_serve line protocol, used by
// the benchmark's serve_census workload. One persistent connection; one
// request in flight at a time (closed loop).
#ifndef DPCOPULA_PERFBENCH_WIRE_CLIENT_H_
#define DPCOPULA_PERFBENCH_WIRE_CLIENT_H_

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <string>

namespace perfbench {

class WireClient {
 public:
  WireClient() = default;
  ~WireClient() { Close(); }
  WireClient(const WireClient&) = delete;
  WireClient& operator=(const WireClient&) = delete;

  bool Connect(int port) {
    Close();
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) !=
        0) {
      Close();
      return false;
    }
    return true;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

  /// Sends `line` (a newline is appended) and reads the whole reply into
  /// `reply`: through "END\n" for "OK SAMPLE", otherwise one line. Returns
  /// false on a transport failure.
  bool Call(const std::string& line, std::string* reply) {
    reply->clear();
    const std::string request = line + "\n";
    std::size_t sent = 0;
    while (sent < request.size()) {
      const ssize_t n = ::send(fd_, request.data() + sent,
                               request.size() - sent, MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      sent += static_cast<std::size_t>(n);
    }
    bool sample = false;
    bool header_seen = false;
    while (true) {
      if (!header_seen) {
        const std::size_t eol = reply->find('\n');
        if (eol != std::string::npos) {
          header_seen = true;
          sample = reply->compare(0, 9, "OK SAMPLE") == 0;
          if (!sample) return reply->size() == eol + 1;
        }
      }
      if (header_seen && EndsWithEnd(*reply)) return true;
      const ssize_t n = ::recv(fd_, chunk_, sizeof(chunk_), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      reply->append(chunk_, static_cast<std::size_t>(n));
    }
  }

 private:
  static bool EndsWithEnd(const std::string& s) {
    return s.size() >= 5 && s.compare(s.size() - 5, 5, "\nEND\n") == 0;
  }

  int fd_ = -1;
  char chunk_[1 << 16];
};

}  // namespace perfbench

#endif  // DPCOPULA_PERFBENCH_WIRE_CLIENT_H_
