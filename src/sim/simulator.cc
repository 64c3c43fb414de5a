#include "sim/simulator.h"

#include <utility>

#include "util/require.h"

namespace pqs::sim {

void Simulator::schedule(Time delay, std::function<void()> fn) {
  PQS_REQUIRE(delay >= 0, "events cannot be scheduled in the past");
  queue_.push(Event{now_ + delay, next_seq_++, std::move(fn)});
}

bool Simulator::step() {
  if (queue_.empty()) return false;
  // Copy out before pop: the handler may schedule new events.
  Event ev = queue_.top();
  queue_.pop();
  now_ = ev.at;
  ev.fn();
  return true;
}

std::uint64_t Simulator::run() {
  std::uint64_t count = 0;
  while (step()) ++count;
  return count;
}

std::uint64_t Simulator::run_until(Time deadline) {
  std::uint64_t count = 0;
  while (!queue_.empty() && queue_.top().at <= deadline) {
    step();
    ++count;
  }
  if (now_ < deadline) now_ = deadline;
  return count;
}

bool Simulator::run_while(const std::function<bool()>& pending) {
  while (pending()) {
    if (!step()) return false;
  }
  return true;
}

}  // namespace pqs::sim
