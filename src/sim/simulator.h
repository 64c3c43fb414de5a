// Discrete-event simulator.
//
// A single-threaded virtual-time event loop. All protocol execution in this
// library happens inside one Simulator: the network schedules message
// deliveries, clients schedule operation timeouts, the gossip engine
// schedules rounds. Events at equal timestamps fire in scheduling order
// (a monotonically increasing sequence number breaks ties), which makes
// every run bit-for-bit deterministic for a fixed seed.
#pragma once

#include <cstdint>
#include <functional>
#include <queue>
#include <vector>

namespace pqs::sim {

// Virtual time in microseconds.
using Time = std::int64_t;

class Simulator {
 public:
  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;

  Time now() const { return now_; }

  // Schedules `fn` to run at now() + delay (delay >= 0).
  void schedule(Time delay, std::function<void()> fn);

  // Runs events until the queue empties. Returns events processed.
  std::uint64_t run();

  // Runs events with timestamp <= deadline; leaves later events queued.
  std::uint64_t run_until(Time deadline);

  // Runs until `predicate` returns true or the queue empties. Returns true
  // iff the predicate was satisfied. The predicate is checked after each
  // event.
  bool run_while(const std::function<bool()>& pending);

  bool idle() const { return queue_.empty(); }

 private:
  struct Event {
    Time at;
    std::uint64_t seq;
    std::function<void()> fn;
  };
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };

  bool step();

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, Later> queue_;
};

}  // namespace pqs::sim
