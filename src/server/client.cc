#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "common/string_util.h"

namespace rfid::server {

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                int port) {
  int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(
        StrFormat("socket failed: %s", std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument(
        StrFormat("bad server address: %s", host.c_str()));
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status st = Status::Internal(StrFormat(
        "connect %s:%d failed: %s", host.c_str(), port, std::strerror(errno)));
    ::close(fd);
    return st;
  }
  return Open(fd);
}

Result<std::unique_ptr<Client>> Client::Open(int fd) {
  std::unique_ptr<Client> client(new Client(fd));
  std::string hello;
  PutU32(&hello, kProtocolVersion);
  auto response = client->RoundTrip(FrameType::kHello, hello);
  if (!response.ok()) return response.status();
  if (response->first != FrameType::kWelcome) {
    return Status::Internal(StrFormat("expected WELCOME, got %s frame",
                                      FrameTypeName(response->first)));
  }
  WireReader reader(response->second);
  uint32_t version = 0;
  Status st = reader.GetU32(&version);
  if (st.ok()) st = reader.GetU64(&client->session_id_);
  if (st.ok()) st = reader.ExpectDone();
  if (!st.ok()) return st;
  if (version != kProtocolVersion) {
    return Status::InvalidArgument(
        StrFormat("protocol version mismatch: server v%u, client v%u",
                  version, kProtocolVersion));
  }
  return client;
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<std::pair<FrameType, std::string>> Client::RoundTrip(
    FrameType type, const std::string& payload) {
  if (fd_ < 0) return Status::Internal("connection already closed");
  Status st = WriteFrame(fd_, type, payload);
  if (!st.ok()) return st;
  FrameType response_type;
  std::string response;
  st = ReadFrame(fd_, &response_type, &response);
  if (!st.ok()) return st;
  if (response_type == FrameType::kError) {
    return DecodeErrorPayload(response);
  }
  return std::make_pair(response_type, std::move(response));
}

Result<RowsPayload> Client::RowsRoundTrip(FrameType type,
                                          const std::string& payload) {
  auto response = RoundTrip(type, payload);
  if (!response.ok()) return response.status();
  if (response->first != FrameType::kRows) {
    return Status::Internal(StrFormat("expected ROWS, got %s frame",
                                      FrameTypeName(response->first)));
  }
  RowsPayload rows;
  Status st = DecodeRowsPayload(response->second, &rows);
  if (!st.ok()) return st;
  return rows;
}

Result<std::string> Client::TextRoundTrip(FrameType type,
                                          const std::string& payload) {
  auto response = RoundTrip(type, payload);
  if (!response.ok()) return response.status();
  if (response->first != FrameType::kOk) {
    return Status::Internal(StrFormat("expected OK, got %s frame",
                                      FrameTypeName(response->first)));
  }
  WireReader reader(response->second);
  std::string text;
  Status st = reader.GetString(&text);
  if (st.ok()) st = reader.ExpectDone();
  if (!st.ok()) return st;
  return text;
}

Result<RowsPayload> Client::Query(const std::string& sql) {
  std::string payload;
  PutString(&payload, sql);
  return RowsRoundTrip(FrameType::kQuery, payload);
}

Result<uint64_t> Client::Prepare(const std::string& sql) {
  std::string payload;
  PutString(&payload, sql);
  auto response = RoundTrip(FrameType::kPrepare, payload);
  if (!response.ok()) return response.status();
  if (response->first != FrameType::kPrepared) {
    return Status::Internal(StrFormat("expected PREPARED, got %s frame",
                                      FrameTypeName(response->first)));
  }
  WireReader reader(response->second);
  uint64_t id = 0;
  Status st = reader.GetU64(&id);
  if (st.ok()) st = reader.ExpectDone();
  if (!st.ok()) return st;
  return id;
}

Result<RowsPayload> Client::Execute(uint64_t statement_id) {
  std::string payload;
  PutU64(&payload, statement_id);
  return RowsRoundTrip(FrameType::kExecute, payload);
}

Status Client::CloseStatement(uint64_t statement_id) {
  std::string payload;
  PutU64(&payload, statement_id);
  return TextRoundTrip(FrameType::kCloseStmt, payload).status();
}

Result<std::string> Client::Set(const std::string& key,
                                const std::string& value) {
  std::string payload;
  PutString(&payload, key);
  PutString(&payload, value);
  return TextRoundTrip(FrameType::kSet, payload);
}

Result<std::string> Client::Command(const std::string& line) {
  std::string payload;
  PutString(&payload, line);
  return TextRoundTrip(FrameType::kCommand, payload);
}

Status Client::Quit() {
  Status st = TextRoundTrip(FrameType::kQuit, std::string()).status();
  ::close(fd_);
  fd_ = -1;
  return st;
}

}  // namespace rfid::server
