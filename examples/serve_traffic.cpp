// The serving layer in one example: submit() returns a Ticket
// immediately, a Scheduler drains per-priority lanes on background
// executors, duplicate requests coalesce into one computation, and
// compatible Monte-Carlo requests queued together run concurrently.
//
// Build & run:  ./build/examples/serve_traffic

#include <cstdio>
#include <vector>

#include "cqa/runtime/session.h"
#include "cqa/serve/scheduler.h"

int main() {
  using namespace cqa;
  ConstraintDatabase db;
  db.add_region("Parcel", {"x", "y"},
                "0 <= x & x <= 2 & 0 <= y & y <= 1");

  SessionOptions opts;
  opts.serve_executors = 2;
  Session session(&db, opts);

  // Ten clients ask the same exact-volume question at once. submit()
  // never blocks: each caller gets a Ticket and the scheduler notices
  // the queued duplicates, running the computation exactly once.
  std::vector<serve::Ticket> tickets;
  for (int i = 0; i < 10; ++i) {
    tickets.push_back(
        session.submit(Request::volume("Parcel(x, y) & y <= 1/2")
                           .vars({"x", "y"})
                           .priority(Priority::kInteractive)));
  }
  for (auto& t : tickets) {
    auto a = t.wait().value_or_die();
    std::printf("parcel strip area = %s\n",
                a.volume.exact->to_string().c_str());
  }
  std::printf("10 tickets -> %llu computation(s), %llu coalesced\n\n",
              static_cast<unsigned long long>(
                  session.metrics().counter_value("volume_calls_total")),
              static_cast<unsigned long long>(
                  session.metrics().counter_value("serve_coalesced_total")));

  // Monte-Carlo traffic with distinct seeds can't coalesce -- the seeds
  // promise different sample streams -- but compatible requests queued
  // together are dequeued as one group and run side by side on the
  // pool. Each goes through run(), so its answer is exactly what a solo
  // run() with that seed produces.
  std::vector<serve::Ticket> mc;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    mc.push_back(session.submit(Request::volume("x^2 + y^2 <= 1")
                                    .vars({"x", "y"})
                                    .strategy(VolumeStrategy::kMonteCarlo)
                                    .epsilon(0.05)
                                    .vc_dim(3.0)
                                    .seed(seed)
                                    .priority(Priority::kBatch)));
  }
  for (std::size_t i = 0; i < mc.size(); ++i) {
    auto a = mc[i].wait().value_or_die();
    std::printf("seed %zu: quarter-disk MC area ~ %.4f\n", i + 1,
                *a.volume.estimate);
  }
  std::printf("MC requests batched: %llu\n\n",
              static_cast<unsigned long long>(
                  session.metrics().counter_value("serve_mc_batched_total")));

  // Tickets are cancellable up to (and during) execution; a ticket
  // cancelled before its turn resolves with kCancelled instead of
  // blocking forever.
  serve::Ticket doomed =
      session.submit(Request::volume("x^3 + y^3 <= 1 & x >= 0 & y >= 0")
                         .vars({"x", "y"})
                         .strategy(VolumeStrategy::kMonteCarlo)
                         .epsilon(0.01));
  doomed.cancel();
  auto gone = doomed.wait();
  std::printf("cancelled ticket -> %s\n",
              gone.is_ok() ? "finished first" : gone.status().to_string().c_str());

  std::printf("\n-- serve metrics --\n%s", session.metrics_dump().c_str());
  return 0;
}
