// Thin client library for the SQL server: one blocking connection
// speaking the wire protocol, one request/response in flight at a time.
//
// Every server error arrives as a structured Status with the same code
// and message an embedded caller would have seen (ERROR frames carry
// the StatusCode + exact engine text), so callers can switch between
// embedded and remote execution without changing their error handling.
#ifndef RFID_SERVER_CLIENT_H_
#define RFID_SERVER_CLIENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "server/protocol.h"

namespace rfid::server {

class Client {
 public:
  /// Connects, performs the HELLO/WELCOME handshake, and returns a ready
  /// client. A refusing (shutting down) or full server yields the
  /// server's structured error.
  static Result<std::unique_ptr<Client>> Connect(const std::string& host,
                                                 int port);

  /// Takes ownership of an already-connected stream socket (TCP, or one
  /// end of a socketpair from Server::ConnectLocal) and performs the same
  /// HELLO/WELCOME handshake as Connect.
  static Result<std::unique_ptr<Client>> Open(int fd);

  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  uint64_t session_id() const { return session_id_; }

  /// Runs one SQL query (rewritten per the session's strategy).
  Result<RowsPayload> Query(const std::string& sql);

  /// Validates and registers a statement server-side; returns its id.
  Result<uint64_t> Prepare(const std::string& sql);

  /// Executes a prepared statement (this is the plan-cache fast path on
  /// repeat executions).
  Result<RowsPayload> Execute(uint64_t statement_id);

  Status CloseStatement(uint64_t statement_id);

  /// SET key value — strategy, pushdown, explain, candidates,
  /// deadline_ms, max_rows, snapshot. Returns the server's confirmation.
  Result<std::string> Set(const std::string& key, const std::string& value);

  /// Runs a dot-command (".gen 20 10", ".rule DEFINE ...", ".tables",
  /// ...) and returns its text output.
  Result<std::string> Command(const std::string& line);

  /// Orderly goodbye; the connection is unusable afterwards.
  Status Quit();

 private:
  explicit Client(int fd) : fd_(fd) {}

  /// Sends one frame and reads the response. ERROR frames become the
  /// returned status; anything else is handed to the caller.
  Result<std::pair<FrameType, std::string>> RoundTrip(
      FrameType type, const std::string& payload);

  Result<RowsPayload> RowsRoundTrip(FrameType type,
                                    const std::string& payload);
  Result<std::string> TextRoundTrip(FrameType type,
                                    const std::string& payload);

  int fd_ = -1;
  uint64_t session_id_ = 0;
};

}  // namespace rfid::server

#endif  // RFID_SERVER_CLIENT_H_
