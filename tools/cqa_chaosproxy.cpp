// cqa_chaosproxy: a seeded wire-chaos man-in-the-middle for cqa_served.
//
//   cqa_served --tcp 7411 &
//   cqa_chaosproxy --listen 7412 --upstream-port 7411 --seed 7 --rate 0.2 &
//   cqa_servedctl --tcp 7412 ping     # through the gauntlet
//
// Forwards every connection to the upstream server while injecting
// deterministic faults per forwarded chunk: torn frames, stalled
// writes, abrupt disconnects, bit flips (caught by the frame checksum),
// and black-holed connections. The same --seed replays the same fault
// schedule, so a drill that found a bug is a repro, not an anecdote.

#include <signal.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "cqa/served/chaos.h"

namespace {

std::atomic<bool> g_stop{false};

void on_signal(int) { g_stop.store(true); }

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--listen PORT | --listen-unix PATH]\n"
      "          [--upstream-port PORT | --upstream-unix PATH]\n"
      "          [--upstream-host ADDR] [--seed N] [--rate R]\n"
      "          [--torn R] [--stall R] [--disconnect R] [--bitflip R]\n"
      "          [--blackhole R] [--stall-ms MS]\n"
      "\n"
      "  --listen PORT        listen on TCP (default; 0 = ephemeral)\n"
      "  --listen-unix PATH   listen on a unix-domain socket\n"
      "  --upstream-port PORT forward to 127.0.0.1:PORT (see --upstream-host)\n"
      "  --upstream-unix PATH forward to a unix-domain socket\n"
      "  --upstream-host ADDR upstream TCP host (default 127.0.0.1)\n"
      "  --seed N             fault schedule seed (default 1)\n"
      "  --rate R             one rate for all five wire faults\n"
      "  --torn/--stall/--disconnect/--bitflip/--blackhole R\n"
      "                       per-site rates (override --rate)\n"
      "  --stall-ms MS        stalled-write nap (default 200)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  cqa::served::ChaosOptions options;
  options.plan.seed = 1;
  using cqa::guard::FaultSite;
  auto rate_slot = [&](FaultSite s) -> double& {
    return options.plan.rate[static_cast<std::size_t>(s)];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--listen") {
      options.listen_port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--listen-unix") {
      options.listen_unix = next();
    } else if (arg == "--upstream-port") {
      options.upstream_port = static_cast<std::uint16_t>(std::atoi(next()));
    } else if (arg == "--upstream-unix") {
      options.upstream_unix = next();
    } else if (arg == "--upstream-host") {
      options.upstream_host = next();
    } else if (arg == "--seed") {
      options.plan.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else if (arg == "--rate") {
      const double r = std::atof(next());
      rate_slot(FaultSite::kWireTornFrame) = r;
      rate_slot(FaultSite::kWireStalledWrite) = r;
      rate_slot(FaultSite::kWireDisconnect) = r;
      rate_slot(FaultSite::kWireBitFlip) = r;
      rate_slot(FaultSite::kWireBlackhole) = r;
    } else if (arg == "--torn") {
      rate_slot(FaultSite::kWireTornFrame) = std::atof(next());
    } else if (arg == "--stall") {
      rate_slot(FaultSite::kWireStalledWrite) = std::atof(next());
    } else if (arg == "--disconnect") {
      rate_slot(FaultSite::kWireDisconnect) = std::atof(next());
    } else if (arg == "--bitflip") {
      rate_slot(FaultSite::kWireBitFlip) = std::atof(next());
    } else if (arg == "--blackhole") {
      rate_slot(FaultSite::kWireBlackhole) = std::atof(next());
    } else if (arg == "--stall-ms") {
      options.stall_ms = std::atoll(next());
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (options.upstream_unix.empty() && options.upstream_port == 0) {
    std::fprintf(stderr, "cqa_chaosproxy: need --upstream-port or "
                         "--upstream-unix\n");
    usage(argv[0]);
    return 2;
  }

  signal(SIGINT, on_signal);
  signal(SIGTERM, on_signal);
  signal(SIGPIPE, SIG_IGN);

  cqa::served::ChaosProxy proxy(options);
  cqa::Status started = proxy.start();
  if (!started.is_ok()) {
    std::fprintf(stderr, "cqa_chaosproxy: %s\n",
                 started.to_string().c_str());
    return 1;
  }
  if (!options.listen_unix.empty()) {
    std::printf("cqa_chaosproxy: listening on unix:%s\n",
                options.listen_unix.c_str());
  } else {
    std::printf("cqa_chaosproxy: listening on tcp:%s:%u\n",
                options.listen_host.c_str(), proxy.port());
  }
  std::printf("cqa_chaosproxy: seed %llu\n",
              static_cast<unsigned long long>(options.plan.seed));
  std::fflush(stdout);

  while (!g_stop.load()) {
    usleep(100 * 1000);
  }
  proxy.stop();
  const cqa::served::ChaosStats s = proxy.stats();
  std::printf(
      "cqa_chaosproxy: %llu connections, %llu chunks, faults: "
      "%llu torn, %llu stalled, %llu disconnects, %llu bit-flips, "
      "%llu blackholes\n",
      static_cast<unsigned long long>(s.connections),
      static_cast<unsigned long long>(s.chunks),
      static_cast<unsigned long long>(s.torn),
      static_cast<unsigned long long>(s.stalled),
      static_cast<unsigned long long>(s.disconnects),
      static_cast<unsigned long long>(s.bit_flips),
      static_cast<unsigned long long>(s.blackholes));
  return 0;
}
