#include "tcp_client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>

namespace servebench {

TcpClient::~TcpClient() {
  if (fd_ >= 0) ::close(fd_);
}

bool TcpClient::Connect(int port, int timeout_s) {
  fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd_ < 0) return false;
  timeval timeout{};
  timeout.tv_sec = timeout_s;
  ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
         0;
}

bool TcpClient::SendLine(const std::string& line) {
  const std::string data = line + "\n";
  std::size_t sent = 0;
  while (sent < data.size()) {
    const ssize_t n =
        ::send(fd_, data.data() + sent, data.size() - sent, MSG_NOSIGNAL);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

bool TcpClient::ReadReply(std::string* reply) {
  // The reply ends at the first "\n.\n": no rendered table line is a
  // lone '.', and the status line always precedes the terminator.
  std::size_t scanned = 0;
  char chunk[16384];
  while (true) {
    const std::size_t from = scanned >= 2 ? scanned - 2 : 0;
    const std::size_t end = buffer_.find("\n.\n", from);
    if (end != std::string::npos) {
      *reply = buffer_.substr(0, end + 3);
      buffer_.erase(0, end + 3);
      return true;
    }
    scanned = buffer_.size();
    const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return false;
    buffer_.append(chunk, static_cast<std::size_t>(n));
  }
}

std::string OkReply(std::size_t rows, const std::string& rendered) {
  std::string reply = "OK " + std::to_string(rows) + "\n";
  if (!rendered.empty()) {
    reply += rendered;
    if (reply.back() != '\n') reply += '\n';
  }
  return reply + ".\n";
}

}  // namespace servebench
