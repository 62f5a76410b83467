// rfidsql — an interactive shell over the deferred-cleansing engine.
//
// Every mode runs the same server session. Embedded (no arguments), the
// shell starts an in-process server::Server that listens on no port and
// talks to it over a socketpair; --connect talks to a remote server over
// TCP. Either way each dot-command below is answered by the server's one
// dispatcher and each query runs its one query path (plan cache, rewrite,
// fragment stitch, admission), so the two modes print the same thing.
//
//   .gen <pallets> [dirty%]      generate RFIDGen data (+ anomalies)
//   .feed <batches> <rows>       stream micro-batches through the ingest
//                                pipeline (epoch snapshots published per
//                                batch; queries pin the latest snapshot;
//                                WAL-backed when .wal is active)
//   .wal <dir> [always|epoch|off]
//                                attach durability: fresh dir checkpoints
//                                the current data as the base image;
//                                existing dir recovers (checkpoint +
//                                committed WAL epochs, torn tail dropped)
//   .checkpoint                  write a checkpoint + truncate the log
//   .recover <dir> [policy]      recovery-only .wal (errors if <dir> has
//                                no durability manifest)
//   .rule DEFINE ...             define a cleansing rule (SQL-TS) in this
//                                session's catalog; a bare DEFINE ...;
//                                statement (multi-line, ';'-terminated)
//                                does the same
//   .droprule <name>             drop a rule from this session's catalog
//   .rules                       list this session's rules
//   .lint                        static checks over the rule catalog
//                                (duplicate names, unsatisfiable
//                                conditions, DELETE/KEEP overlap,
//                                correction-order races); the same
//                                findings print as warnings before a
//                                query result, once per set of findings
//   .strategy auto|expanded|joinback|naive|off
//   .set <key> <value>           strategy, pushdown, explain, candidates
//                                (on|off), deadline_ms, max_rows (0 = no
//                                limit), snapshot hold|latest
//   .explain on|off              print executed plans (with a
//                                "fragments: hit=N miss=M" header when
//                                the cleansed-fragment cache applied)
//   .candidates on|off           print costed rewrite candidates and
//                                per-region fragment hit/miss detail
//   .cache on|off|clear          plan cache control
//   .cache fragment on|off|clear cleansed-fragment cache control
//   .cache [stats]               plan- and fragment-cache counters
//   .stats                       sessions, admission, cache and columnar
//                                counters
//   .tables / .schema <table>    catalog inspection
//   .save <dir> / .load <dir>    persist / restore the database
//   SELECT ...;                  run a query (rewritten per strategy)
//   .quit                        leave; the server drains, writing a
//                                final checkpoint when a WAL is attached
//
// Also usable in batch mode: rfidsql < script.sql
//
// Server modes:
//   rfidsql --serve [host:]port      serve the engine over TCP (SIGINT /
//                                    SIGTERM drain in-flight queries,
//                                    flush the WAL, and exit cleanly)
//   rfidsql --connect host:port      the same shell against a remote
//                                    server, each connection being its
//                                    own session with its own rule
//                                    catalog
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "server/client.h"
#include "server/server.h"

using namespace rfid;

namespace {

void PrintRows(const server::RowsPayload& rows, size_t max_rows = 40) {
  if (!rows.rewrite_note.empty()) printf("%s\n", rows.rewrite_note.c_str());
  std::vector<size_t> widths;
  for (const Field& f : rows.fields) widths.push_back(f.name.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t r = 0; r < rows.rows.size() && r < max_rows; ++r) {
    std::vector<std::string> row;
    for (size_t c = 0; c < rows.rows[r].size(); ++c) {
      row.push_back(rows.rows[r][c].ToString());
      widths[c] = std::max(widths[c], row.back().size());
    }
    cells.push_back(std::move(row));
  }
  for (size_t i = 0; i < widths.size(); ++i) {
    printf("%-*s  ", static_cast<int>(widths[i]), rows.fields[i].name.c_str());
  }
  printf("\n");
  for (size_t i = 0; i < widths.size(); ++i) {
    printf("%s  ", std::string(widths[i], '-').c_str());
  }
  printf("\n");
  for (const auto& row : cells) {
    for (size_t c = 0; c < row.size(); ++c) {
      printf("%-*s  ", static_cast<int>(widths[c]), row[c].c_str());
    }
    printf("\n");
  }
  if (rows.rows.size() > max_rows) {
    printf("... (%zu more rows)\n", rows.rows.size() - max_rows);
  }
  printf("(%zu rows)\n", rows.rows.size());
  printf("%.1f ms [%s]\n", static_cast<double>(rows.elapsed_micros) / 1000.0,
         server::CacheOutcomeName(rows.cache));
  if (!rows.explain.empty()) printf("\n%s", rows.explain.c_str());
}

void PrintCommand(server::Client& client, const std::string& line) {
  auto text = client.Command(line);
  if (text.ok()) {
    printf("%s\n", text->c_str());
  } else {
    printf("error: %s\n", text.status().ToString().c_str());
  }
}

/// The one REPL: dot-commands and rule definitions go to the server's
/// dispatcher, ';'-terminated statements to its query path.
void RunShell(server::Client& client, const std::string& banner) {
  bool interactive = isatty(0);
  if (interactive) printf("%s '.quit' to leave.\n", banner.c_str());
  // Lint findings belong to the rule catalog, not to one query: a set is
  // printed before the first result it accompanies and again only after
  // the catalog's findings change.
  std::string last_warnings;
  std::string buffer;
  std::string line;
  while (true) {
    if (interactive) {
      printf(buffer.empty() ? "rfid> " : "  ... ");
      fflush(stdout);
    }
    if (!std::getline(std::cin, line)) break;
    size_t comment = line.find("--");
    if (comment != std::string::npos) line = line.substr(0, comment);
    std::string trimmed = line;
    while (!trimmed.empty() &&
           isspace(static_cast<unsigned char>(trimmed.front()))) {
      trimmed.erase(trimmed.begin());
    }
    if (buffer.empty() && trimmed.empty()) continue;
    if (buffer.empty() && trimmed[0] == '.') {
      if (trimmed.rfind(".quit", 0) == 0 || trimmed.rfind(".exit", 0) == 0) {
        break;
      }
      PrintCommand(client, trimmed);
      continue;
    }
    buffer += line + "\n";
    if (trimmed.empty() || trimmed.back() != ';') continue;
    std::string stmt = buffer;
    buffer.clear();
    while (!stmt.empty() && (isspace(static_cast<unsigned char>(stmt.back())) ||
                             stmt.back() == ';')) {
      stmt.pop_back();
    }
    if (stmt.empty()) continue;
    std::string head = stmt.substr(0, stmt.find_first_of(" \t\n"));
    if (EqualsIgnoreCase(head, "define")) {
      PrintCommand(client, ".rule " + stmt);
      continue;
    }
    auto rows = client.Query(stmt);
    if (!rows.ok()) {
      printf("error: %s\n", rows.status().ToString().c_str());
      continue;
    }
    if (rows->warnings != last_warnings) {
      std::istringstream lines(rows->warnings);
      std::string w;
      while (std::getline(lines, w)) printf("warning: %s\n", w.c_str());
      last_warnings = rows->warnings;
    }
    PrintRows(*rows);
  }
  (void)client.Quit();
}

/// Splits "host:port" or bare "port" (host defaults to 127.0.0.1).
bool ParseEndpoint(const std::string& arg, std::string* host, int* port) {
  std::string port_str = arg;
  *host = "127.0.0.1";
  size_t colon = arg.rfind(':');
  if (colon != std::string::npos) {
    *host = arg.substr(0, colon);
    port_str = arg.substr(colon + 1);
  }
  char* endp = nullptr;
  long n = std::strtol(port_str.c_str(), &endp, 10);
  if (endp == port_str.c_str() || *endp != '\0' || n < 0 || n > 65535) {
    return false;
  }
  *port = static_cast<int>(n);
  return true;
}

/// Reports the drain's final WAL flush; the exit code of both server-
/// owning modes.
int FlushStatusExit(const server::Server& srv) {
  Status flush = srv.final_flush_status();
  if (!flush.ok()) {
    fprintf(stderr, "shutdown flush error: %s\n", flush.ToString().c_str());
    return 1;
  }
  return 0;
}

int RunServe(const std::string& endpoint) {
  server::ServerOptions options;
  options.port = 20060;  // default; --serve host:port overrides
  if (!endpoint.empty() &&
      !ParseEndpoint(endpoint, &options.host, &options.port)) {
    fprintf(stderr, "bad endpoint: %s (expected [host:]port)\n",
            endpoint.c_str());
    return 1;
  }
  auto srv = server::Server::Start(options);
  if (!srv.ok()) {
    fprintf(stderr, "error: %s\n", srv.status().ToString().c_str());
    return 1;
  }
  printf("rfidsql serving on %s:%d (SIGINT/SIGTERM to stop)\n",
         options.host.c_str(), (*srv)->port());
  fflush(stdout);
  (*srv)->InstallSignalHandlers();
  (*srv)->WaitForShutdown();
  if (FlushStatusExit(**srv) != 0) return 1;
  printf("server stopped\n");
  return 0;
}

int RunConnect(const std::string& endpoint) {
  std::string host;
  int port = 0;
  if (!ParseEndpoint(endpoint, &host, &port) || port == 0) {
    fprintf(stderr, "bad endpoint: %s (expected host:port)\n",
            endpoint.c_str());
    return 1;
  }
  auto client = server::Client::Connect(host, port);
  if (!client.ok()) {
    fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }
  RunShell(**client, StrFormat("rfidsql — connected (session %llu).",
                                static_cast<unsigned long long>(
                                    (*client)->session_id())));
  return 0;
}

/// Embedded mode: an in-process server that listens on no port, one
/// local session on it, and the same REPL as --connect.
int RunEmbedded() {
  std::unique_ptr<server::Server> srv =
      server::Server::StartLocal(server::ServerOptions());
  auto client = srv->ConnectLocal();
  if (!client.ok()) {
    fprintf(stderr, "error: %s\n", client.status().ToString().c_str());
    return 1;
  }
  RunShell(**client,
           "rfidsql — deferred cleansing shell. '.gen 20 10' to make data,");
  srv->Shutdown();
  return FlushStatusExit(*srv);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc >= 2 && std::string(argv[1]) == "--serve") {
    return RunServe(argc >= 3 ? argv[2] : "");
  }
  if (argc >= 2 && std::string(argv[1]) == "--connect") {
    if (argc < 3) {
      fprintf(stderr, "usage: rfidsql --connect host:port\n");
      return 1;
    }
    return RunConnect(argv[2]);
  }
  if (argc >= 2) {
    fprintf(stderr,
            "usage: rfidsql [--serve [host:]port | --connect host:port]\n");
    return 1;
  }
  return RunEmbedded();
}
