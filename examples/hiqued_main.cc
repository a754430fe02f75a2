// hiqued: the HIQUE wire-protocol server. Loads a TPC-H dataset, opens the
// holistic engine on it and serves remote clients over TCP until SIGINT /
// SIGTERM.
//
//   $ ./build/hiqued --sf 0.01 --port 5433
//   hiqued listening on 127.0.0.1:5433 (tpch sf=0.01, threads=4)
//
//   $ ./build/hiqued --port 0 --port-file /tmp/hiqued.port &   # ephemeral
//   $ ./build/remote_client 127.0.0.1 $(cat /tmp/hiqued.port) \
//       "select count(*) from lineitem"
//
// Flags:
//   --address A     listen address            (default 127.0.0.1)
//   --port N        listen port, 0=ephemeral  (default 5433)
//   --port-file P   write the resolved port to P (for scripts/CI)
//   --sf X          TPC-H scale factor        (default 0.01)
//   --threads N     intra-query parallelism   (default HQ_THREADS or 1)
//   --max-conn N    max concurrent clients    (default 64)
//
// SIGUSR1 dumps the full metrics registry (Prometheus text) plus a
// one-line server summary to stderr without disturbing the server.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include <unistd.h>

#include "exec/engine.h"
#include "net/server.h"
#include "storage/catalog.h"
#include "tpch/tpch.h"
#include "util/env.h"

namespace {

volatile std::sig_atomic_t g_stop = 0;
volatile std::sig_atomic_t g_dump = 0;

void OnSignal(int) { g_stop = 1; }
void OnDumpSignal(int) { g_dump = 1; }

void DumpStats(hique::HiqueEngine* engine, hique::net::Server* server) {
  hique::net::ServerStats s = server->stats();
  std::fprintf(stderr,
               "hiqued stats: %llu conns active, %llu queries started "
               "(%llu ok, %llu failed, %llu cancelled), %llu rows streamed\n",
               static_cast<unsigned long long>(s.connections_active),
               static_cast<unsigned long long>(s.queries_started),
               static_cast<unsigned long long>(s.queries_finished),
               static_cast<unsigned long long>(s.queries_failed),
               static_cast<unsigned long long>(s.queries_cancelled),
               static_cast<unsigned long long>(s.rows_streamed));
  std::string text = engine->RenderStats();
  std::fwrite(text.data(), 1, text.size(), stderr);
  std::fflush(stderr);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace hique;

  net::ServerOptions server_options;
  server_options.port = 5433;
  std::string port_file;
  double scale_factor = 0.01;
  uint32_t threads = 0;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", flag);
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--address") {
      server_options.address = next("--address");
    } else if (arg == "--port") {
      server_options.port = static_cast<uint16_t>(std::atoi(next("--port")));
    } else if (arg == "--port-file") {
      port_file = next("--port-file");
    } else if (arg == "--sf") {
      scale_factor = std::atof(next("--sf"));
    } else if (arg == "--threads") {
      threads = static_cast<uint32_t>(std::atoi(next("--threads")));
    } else if (arg == "--max-conn") {
      server_options.max_connections =
          static_cast<uint32_t>(std::atoi(next("--max-conn")));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return 2;
    }
  }

  std::printf("hiqued: loading TPC-H at sf=%g ...\n", scale_factor);
  std::fflush(stdout);
  Catalog catalog;
  tpch::TpchOptions tpch_options;
  tpch_options.scale_factor = scale_factor;
  Status loaded = tpch::LoadTpch(&catalog, tpch_options);
  if (!loaded.ok()) {
    std::fprintf(stderr, "TPC-H load failed: %s\n", loaded.ToString().c_str());
    return 1;
  }

  EngineOptions options;
  options.threads = threads;
  HiqueEngine engine(&catalog, options);

  net::Server server(&engine, server_options);
  Status started = server.Start();
  if (!started.ok()) {
    std::fprintf(stderr, "server start failed: %s\n",
                 started.ToString().c_str());
    return 1;
  }
  std::printf("hiqued listening on %s:%u (tpch sf=%g, threads=%u)\n",
              server.address().c_str(), server.port(), scale_factor,
              engine.threads());
  std::fflush(stdout);
  if (!port_file.empty()) {
    Status wrote =
        env::WriteFile(port_file, std::to_string(server.port()) + "\n");
    if (!wrote.ok()) {
      std::fprintf(stderr, "cannot write port file: %s\n",
                   wrote.ToString().c_str());
      return 1;
    }
  }

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  std::signal(SIGUSR1, OnDumpSignal);
  while (g_stop == 0) {
    if (g_dump != 0) {
      g_dump = 0;
      DumpStats(&engine, &server);  // off the signal handler, in the loop
    }
    usleep(50 * 1000);
  }

  server.Stop();
  net::ServerStats stats = server.stats();
  std::printf(
      "hiqued shut down: %llu connections, %llu queries "
      "(%llu ok, %llu failed, %llu cancelled), %llu rows / %llu pages "
      "streamed, %llu bytes sent\n",
      static_cast<unsigned long long>(stats.connections_accepted),
      static_cast<unsigned long long>(stats.queries_started),
      static_cast<unsigned long long>(stats.queries_finished),
      static_cast<unsigned long long>(stats.queries_failed),
      static_cast<unsigned long long>(stats.queries_cancelled),
      static_cast<unsigned long long>(stats.rows_streamed),
      static_cast<unsigned long long>(stats.pages_streamed),
      static_cast<unsigned long long>(stats.bytes_sent));
  return 0;
}
