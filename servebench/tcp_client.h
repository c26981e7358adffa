#ifndef SERVEBENCH_TCP_CLIENT_H_
#define SERVEBENCH_TCP_CLIENT_H_

#include <string>

namespace servebench {

/// A blocking client of serve/tcp_server.h's line protocol: one request
/// per line, every reply ends with a line holding a single '.'. Sending
/// and receiving may run on two threads at once (the ingest writer
/// pipelines its batches), but each direction on one thread only.
class TcpClient {
 public:
  TcpClient() = default;
  ~TcpClient();
  TcpClient(const TcpClient&) = delete;
  TcpClient& operator=(const TcpClient&) = delete;

  /// Connects to 127.0.0.1:`port`. A reply that takes longer than
  /// `timeout_s` fails ReadReply.
  bool Connect(int port, int timeout_s);

  /// Sends `line` plus the newline. False when the connection is gone.
  bool SendLine(const std::string& line);

  /// Reads one whole reply, terminator included, into `reply`. False on
  /// a dropped connection or a timeout.
  bool ReadReply(std::string* reply);

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// The exact bytes TcpServer sends for a statement whose result renders
/// as `rendered` with `rows` rows.
std::string OkReply(std::size_t rows, const std::string& rendered);

}  // namespace servebench

#endif  // SERVEBENCH_TCP_CLIENT_H_
