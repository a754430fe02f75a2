// remote_client: command-line client for a running hiqued server.
//
//   $ ./build/remote_client HOST PORT [SQL ...]
//   $ ./build/remote_client HOST PORT --server-stats
//
// With SQL arguments, runs each statement in order and prints up to 10
// rows plus a summary. Without any, runs a small TPC-H demo set (Q6 and
// Q1). With --server-stats, prints the server's metrics dump (Prometheus
// text exposition format, protocol v5) to stdout and exits. Exits nonzero
// on connection or query failure.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "net/client.h"
#include "tpch/tpch.h"

namespace {

int RunOne(hique::net::Client* client, const std::string& sql) {
  using namespace hique;
  std::printf("> %s\n", sql.c_str());
  auto rs = client->Query(sql);
  if (!rs.ok()) {
    std::fprintf(stderr, "query failed: %s\n", rs.status().ToString().c_str());
    return 1;
  }
  net::RemoteResultSet cursor = std::move(rs).value();
  const Schema& schema = cursor.schema();
  for (size_t c = 0; c < schema.NumColumns(); ++c) {
    std::printf(c ? "\t%s" : "%s", schema.ColumnAt(c).name.c_str());
  }
  std::printf("\n");
  int64_t shown = 0;
  while (cursor.Next()) {
    if (shown < 10) {
      std::vector<Value> row = cursor.Row();
      for (size_t c = 0; c < row.size(); ++c) {
        std::printf(c ? "\t%s" : "%s", row[c].ToString().c_str());
      }
      std::printf("\n");
    } else if (shown == 10) {
      std::printf("...\n");
    }
    ++shown;
  }
  if (!cursor.status().ok()) {
    std::fprintf(stderr, "stream failed: %s\n",
                 cursor.status().ToString().c_str());
    return 1;
  }
  std::printf("(%lld rows, server execute %.2f ms, %s, -O%d)\n\n",
              static_cast<long long>(cursor.rows_read()),
              cursor.server_execute_ms(),
              cursor.cache_hit() ? "cache hit" : "cold compile",
              cursor.library_opt_level());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hique;
  if (argc < 3) {
    std::fprintf(stderr, "usage: %s HOST PORT [SQL ...]\n", argv[0]);
    return 2;
  }
  std::string host = argv[1];
  int port = std::atoi(argv[2]);

  auto connected = net::Client::Connect(host, static_cast<uint16_t>(port));
  if (!connected.ok()) {
    std::fprintf(stderr, "connect failed: %s\n",
                 connected.status().ToString().c_str());
    return 1;
  }
  net::Client client = std::move(connected).value();

  if (argc == 4 && std::string(argv[3]) == "--server-stats") {
    // Keep stdout pure Prometheus text so scrapers can pipe it.
    auto stats = client.ServerStats();
    if (!stats.ok()) {
      std::fprintf(stderr, "server-stats failed: %s\n",
                   stats.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "server uptime: %.1f s\n",
                 stats.value().uptime_seconds);
    std::fputs(stats.value().prometheus_text.c_str(), stdout);
    (void)client.Close();
    return 0;
  }

  std::printf("connected to %s:%d (%s)\n\n", host.c_str(), port,
              client.server_banner().c_str());

  std::vector<std::string> queries;
  for (int i = 3; i < argc; ++i) queries.emplace_back(argv[i]);
  if (queries.empty()) {
    queries = {tpch::Query6Sql(), tpch::Query1Sql()};
  }

  for (const std::string& sql : queries) {
    int rc = RunOne(&client, sql);
    if (rc != 0) return rc;
  }

  auto stats = client.Close();
  if (stats.ok()) {
    std::printf(
        "session: %llu streams\n",
        static_cast<unsigned long long>(stats.value().streams_opened));
  }
  return 0;
}
