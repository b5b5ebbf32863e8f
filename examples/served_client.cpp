// Serving across processes: spin up a sharded cqa_served fleet
// in-process, talk to it over a unix socket, and watch the degradation
// ladder hold across the wire.
//
// The same Request/Answer values used with a local Session travel the
// binary protocol unchanged: answers keep their error bars, plan choice,
// degradation status, and guard report. Duplicate-heavy traffic routes
// by fingerprint to one shard (so it coalesces there) and full-fidelity
// answers persist in the disk cache across server restarts.

#include <unistd.h>

#include <cstdio>
#include <string>

#include "cqa/served/client.h"
#include "cqa/served/server.h"

using namespace cqa;

namespace {

void show(const char* label, const Result<Answer>& result) {
  if (!result.is_ok()) {
    std::printf("%-28s -> %s\n", label, result.status().to_string().c_str());
    return;
  }
  const Answer& a = result.value();
  if (a.kind == RequestKind::kVolume) {
    if (a.volume.exact) {
      std::printf("%-28s -> vol %.4f (exact)\n", label, a.volume.value());
      return;
    }
    std::printf("%-28s -> vol %.4f in [%.4f, %.4f]%s%s\n", label,
                a.volume.value(), a.volume.lower.value_or(0.0),
                a.volume.upper.value_or(1.0),
                a.degraded() ? " (degraded)" : "",
                a.guard.shed ? " [shed]" : "");
  } else if (a.kind == RequestKind::kAsk) {
    std::printf("%-28s -> %s\n", label,
                a.truth.value_or(false) ? "true" : "false");
  }
}

}  // namespace

int main() {
  const std::string sock =
      "/tmp/cqa_served_example." + std::to_string(getpid()) + ".sock";
  const std::string cache =
      "/tmp/cqa_served_example." + std::to_string(getpid()) + ".cache";

  served::ServedOptions options;
  options.workers = 2;
  options.unix_path = sock;
  options.cache_path = cache;
  served::Server server(options);
  if (!server.start().is_ok()) {
    std::printf("failed to start fleet\n");
    return 1;
  }
  std::printf("fleet up: %zu workers behind unix:%s\n\n",
              server.worker_count(), sock.c_str());

  {
    auto connected = served::Client::connect_unix(sock);
    CQA_CHECK(connected.is_ok());
    served::Client client = std::move(connected).take();

    // A decision, an exact volume, and a pinned Monte-Carlo estimate --
    // one protocol, full answers.
    show("ask E x. x^2 = 2",
         client.call(Request::ask("E x. x * x = 2")));
    show("vol quarter square",
         client.call(Request::volume("0 <= x & x <= 1/2 & 0 <= y & y <= 1/2")
                         .vars({"x", "y"})));
    Request mc = Request::volume("x^2 + y^2 <= 9/10")
                     .vars({"x", "y"})
                     .strategy(VolumeStrategy::kMonteCarlo)
                     .epsilon(0.05)
                     .vc_dim(3.0)
                     .seed(7);
    show("vol disc (MC, seed 7)", client.call(mc));
    // The identical request again: served from the persistent result
    // cache at the router without touching a worker.
    show("vol disc (repeat)", client.call(mc));
    std::printf("\ncache hits so far: %llu\n\n",
                static_cast<unsigned long long>(server.stats().cache_hits));
  }

  // Restart the whole fleet: the disk cache survives, so the hot set
  // does not recompute.
  server.stop();
  served::Server second(options);
  if (!second.start().is_ok()) {
    std::printf("failed to restart fleet\n");
    return 1;
  }
  {
    auto connected = served::Client::connect_unix(sock);
    CQA_CHECK(connected.is_ok());
    served::Client client = std::move(connected).take();
    Request mc = Request::volume("x^2 + y^2 <= 9/10")
                     .vars({"x", "y"})
                     .strategy(VolumeStrategy::kMonteCarlo)
                     .epsilon(0.05)
                     .vc_dim(3.0)
                     .seed(7);
    show("vol disc (after restart)", client.call(mc));
    std::printf("\nrestarted fleet served it from disk: %llu hit(s)\n",
                static_cast<unsigned long long>(second.stats().cache_hits));
  }
  second.stop();
  unlink(cache.c_str());
  return 0;
}
