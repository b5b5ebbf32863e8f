// The fleet under test in the traced run's served section: a 2-worker
// cqa::served fleet with a disk cache, the pipelined frame generator
// that drives it, and the in-process oracle its answers are checked
// against.

#ifndef CQA_PERFBENCH_FLEET_H_
#define CQA_PERFBENCH_FLEET_H_

#include <memory>
#include <string>
#include <vector>

#include "bench.h"
#include "cqa/served/server.h"

namespace perfbench {

/// Send times and raw answer payloads of one pipelined send.
struct Traffic {
  std::vector<Clock::time_point> due, sent;
  std::vector<std::string> answers;  // encoded Result<Answer> per request
};

/// Unix-socket connections to a fleet, driven by one sender thread and
/// one reader thread per connection.
class Pipe {
 public:
  Pipe(const std::string& socket_path, std::size_t connections);
  ~Pipe();
  Pipe(const Pipe&) = delete;
  Pipe& operator=(const Pipe&) = delete;

  /// Sends every payload and waits for every answer. `rate` > 0 is an
  /// open loop at that many requests per second; 0 sends as fast as a
  /// small in-flight window allows. Throws when the fleet stops
  /// answering.
  Traffic send_all(const std::vector<std::string>& payloads, double rate);

 private:
  std::vector<int> fds_;
};

/// Connections the generator opens (<= nproc with its threads).
std::size_t generator_connections();

/// ServedOptions of the fleet under test; `tag` names its socket and
/// disk-cache files inside the run directory.
cqa::served::ServedOptions fleet_options(const std::string& tag);

/// A started 2-worker fleet with a fresh disk cache, warmed by a fixed
/// set of round trips and then the hot set. Destruction stops the fleet
/// and reaps its workers.
struct Fleet {
  Fleet(const std::string& tag, const std::vector<Item>& hot_set);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::unique_ptr<cqa::served::Server> server;
  std::unique_ptr<Pipe> pipe;
};

/// In-process Session::run of every request, on a Session configured
/// like a fleet worker (over the same empty database).
std::vector<cqa::Result<cqa::Answer>> oracle_answers(
    const std::vector<Item>& items);

/// Checks one encoded fleet answer against the in-process answer to
/// the same request and the generator's truth. A full-fidelity answer
/// must equal the oracle (elapsed_ms and guard accounting aside); a
/// degraded one that differs must have bars containing the truth.
/// Returns true when it passes; counts an answer equal to the oracle in
/// all but its guard accounting in `usage_mismatches`.
bool check_served_answer(std::size_t index, const Item& item,
                         const std::string& payload,
                         const cqa::Result<cqa::Answer>& oracle,
                         CheckTally* tally, std::size_t* usage_mismatches);

}  // namespace perfbench

#endif  // CQA_PERFBENCH_FLEET_H_
