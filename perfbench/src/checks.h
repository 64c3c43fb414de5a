// The benchmark's output checks. Each returns a named verdict; a run
// whose verdicts are not all ok prints "correct": false and exits
// nonzero. The checks are pure functions of their inputs, so the
// self-tests can feed them doctored values. The stall watchdog fails a
// run whose closed loop can no longer finish, before any check runs.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "math/stats.h"
#include "serve/kv_service.h"

namespace perfbench {

struct Verdict {
  std::string name;
  bool ok = false;
  std::string detail;
};

// Every request answered exactly once: the client (or the completion
// hook) saw as many replies as requests sent, and the service applied as
// many reads plus writes as were submitted (the preload included).
Verdict check_exactly_once(std::uint64_t sent, std::uint64_t answered,
                           std::uint64_t applied, std::uint64_t submitted);

// Largest stale-read count consistent with a per-read staleness
// probability of at most `epsilon` over `reads` reads: (1 + gamma) * mu
// with mu = epsilon * reads and gamma the smallest margin whose
// math::chernoff_upper tail is at most `false_failure`. Zero when
// epsilon is zero (a strict quorum system never reads stale).
double stale_bound(double epsilon, std::uint64_t reads,
                   double false_failure = 1e-9);
Verdict check_stale(std::uint64_t stale, std::uint64_t reads, double epsilon);

// The Wilson interval at z = 3.89 of a Monte-Carlo estimate contains the
// closed form.
Verdict check_wilson(const std::string& name, const pqs::math::Proportion& p,
                     double exact, double z = 3.89);

// Per-shard deterministic aggregates of two runs of one request stream
// are identical (the socket path against an in-process replay).
Verdict check_aggregates_equal(
    const std::vector<pqs::serve::ShardAggregate>& a,
    const std::vector<pqs::serve::ShardAggregate>& b);

bool all_ok(const std::vector<Verdict>& verdicts);

// Ends the run as failed when a closed loop stops making progress. A
// request whose reply never comes, or a reply that arrives twice, leaves
// a window wait or a drain spinning forever (net::Client's strict mode
// waits without a deadline). If kick() is not called for `timeout_s`,
// the watchdog prints a failed exactly_once verdict with the counts
// `counts()` returns and a result line with "correct": false, then ends
// the process with exit code 1.
class StallWatchdog {
 public:
  struct Counts {
    std::uint64_t sent = 0;
    std::uint64_t answered = 0;
  };
  StallWatchdog(double timeout_s, std::function<Counts()> counts);
  ~StallWatchdog();
  StallWatchdog(const StallWatchdog&) = delete;
  StallWatchdog& operator=(const StallWatchdog&) = delete;

  void kick();

 private:
  std::atomic<std::uint64_t> last_kick_ns_;
  std::mutex mutex_;
  std::condition_variable wake_;
  bool stop_ = false;  // guarded by mutex_
  std::thread thread_;
};

}  // namespace perfbench
