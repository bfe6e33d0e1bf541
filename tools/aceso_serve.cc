// aceso_serve: the long-lived planning daemon (DESIGN.md §14).
//
//   aceso_serve [--host 127.0.0.1] [--port 8700] [--workers N]
//               [--eval-threads N] [--cache-capacity N] [--max-inflight N]
//               [--http-workers N] [--idle-timeout SECONDS]
//               [--snapshot-dir DIR] [--save-on-exit] [--no-neighbor-seed]
//
// Accepts plan requests over HTTP (POST /plan), serves duplicates from the
// plan cache, and — with --snapshot-dir — warm-starts profile databases
// from saved snapshots so the first request on a profiled cluster runs
// zero measurements. --save-on-exit persists every materialized profile
// database back to the snapshot directory on clean shutdown (SIGINT/
// SIGTERM), so the next daemon run starts warm.

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <atomic>
#include <chrono>
#include <string>
#include <thread>

#include "src/aceso.h"
#include "tools/cli_flags.h"

namespace {

struct Args {
  std::string host = "127.0.0.1";
  int port = 8700;
  int workers = 0;  // 0 = auto (see ServeOptions)
  int eval_threads = aceso::serve::ServeOptions{}.eval_threads;
  int cache_capacity = 64;
  int max_inflight = 4;
  int http_workers = 2;        // epoll event-loop workers
  double idle_timeout = 30.0;  // keep-alive idle eviction (seconds)
  std::string snapshot_dir;
  bool save_on_exit = false;
  // Escape hatch for neighbor-seeded incremental planning (DESIGN.md §17):
  // off restores strictly request-deterministic answers.
  bool neighbor_seed = true;
};

void PrintUsage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s [--host ADDR] [--port N] [--workers N] "
               "[--eval-threads N] [--cache-capacity N]\n"
               "          [--max-inflight N] [--http-workers N] "
               "[--idle-timeout SECONDS]\n"
               "          [--snapshot-dir DIR] [--save-on-exit] "
               "[--no-neighbor-seed]\n",
               argv0);
}

bool ParseArgs(int argc, char** argv, Args& args) {
  using aceso::cli::ParseInt;
  using aceso::cli::ParsePositiveInt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (flag == "--host") {
      const char* v = next();
      if (v == nullptr) return false;
      args.host = v;
    } else if (flag == "--port") {
      // 0 is allowed: bind an ephemeral port and print it.
      if (!ParseInt("--port", next(), &args.port) || args.port < 0) {
        return false;
      }
    } else if (flag == "--workers") {
      if (!ParsePositiveInt("--workers", next(), &args.workers)) return false;
    } else if (flag == "--eval-threads") {
      if (!ParsePositiveInt("--eval-threads", next(), &args.eval_threads)) {
        return false;
      }
    } else if (flag == "--cache-capacity") {
      if (!ParseInt("--cache-capacity", next(), &args.cache_capacity) ||
          args.cache_capacity < 0) {
        return false;
      }
    } else if (flag == "--max-inflight") {
      if (!ParsePositiveInt("--max-inflight", next(), &args.max_inflight)) {
        return false;
      }
    } else if (flag == "--http-workers") {
      if (!ParsePositiveInt("--http-workers", next(), &args.http_workers)) {
        return false;
      }
    } else if (flag == "--idle-timeout") {
      if (!aceso::cli::ParsePositiveDouble("--idle-timeout", next(),
                                           &args.idle_timeout)) {
        return false;
      }
    } else if (flag == "--snapshot-dir") {
      const char* v = next();
      if (v == nullptr) return false;
      args.snapshot_dir = v;
    } else if (flag == "--save-on-exit") {
      args.save_on_exit = true;
    } else if (flag == "--no-neighbor-seed") {
      args.neighbor_seed = false;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", flag.c_str());
      return false;
    }
  }
  if (args.save_on_exit && args.snapshot_dir.empty()) {
    std::fprintf(stderr, "--save-on-exit requires --snapshot-dir\n");
    return false;
  }
  return true;
}

std::atomic<bool> g_stop{false};

void OnSignal(int) { g_stop.store(true); }

}  // namespace

int main(int argc, char** argv) {
  using namespace aceso;
  Args args;
  if (!ParseArgs(argc, argv, args)) {
    PrintUsage(argv[0]);
    return 2;
  }

  serve::ServeOptions options;
  options.worker_threads = args.workers;
  options.eval_threads = args.eval_threads;
  options.plan_cache_capacity = static_cast<size_t>(args.cache_capacity);
  options.max_inflight_searches = args.max_inflight;
  options.http_workers = args.http_workers;
  options.http_idle_timeout_seconds = args.idle_timeout;
  options.snapshot_dir = args.snapshot_dir;
  options.neighbor_seed = args.neighbor_seed;

  serve::PlanDaemon daemon(options);
  const Status started = daemon.Start(args.host, args.port);
  if (!started.ok()) {
    std::fprintf(stderr, "%s\n", started.ToString().c_str());
    return 1;
  }
  std::printf("aceso_serve listening on %s:%d (cache=%d, max-inflight=%d%s)\n",
              args.host.c_str(), daemon.port(), args.cache_capacity,
              args.max_inflight,
              args.snapshot_dir.empty()
                  ? ""
                  : (", snapshots=" + args.snapshot_dir).c_str());
  std::fflush(stdout);  // readiness marker for scripts tailing our output

  std::signal(SIGINT, OnSignal);
  std::signal(SIGTERM, OnSignal);
  while (!g_stop.load(std::memory_order_relaxed)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }

  std::printf("shutting down\n");
  daemon.Stop();
  if (args.save_on_exit) {
    const Status saved = daemon.service().SaveProfiles();
    if (!saved.ok()) {
      std::fprintf(stderr, "profile save failed: %s\n",
                   saved.ToString().c_str());
      return 1;
    }
    std::printf("profiles saved to %s\n", args.snapshot_dir.c_str());
  }
  std::printf("final stats: %s\n", daemon.StatsJson().c_str());
  return 0;
}
