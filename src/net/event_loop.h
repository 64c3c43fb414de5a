// A minimal edge-triggered epoll event loop.
//
// One EventLoop is one epoll instance plus one thread calling run(). All
// fds are registered edge-triggered (EPOLLET), so handlers own the
// drain-until-EAGAIN contract; in exchange the loop never rearms
// level-triggered storms and a pipelined connection costs one wakeup per
// readable burst, not per frame.
//
// Cross-thread work enters through post(): any thread may enqueue a task,
// an eventfd wakes the loop, and the task runs on the loop thread — this
// is how serving-tier worker threads hand completed responses back to the
// connection's IO thread without ever touching a socket themselves.
// Everything else (add/modify/remove, the handlers) is loop-thread-only
// by contract, which keeps per-connection state machines single-threaded
// and TSan-clean without per-connection locks on the IO side.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

namespace pqs::net {

class EventLoop {
 public:
  // Receives the raw epoll event bits (EPOLLIN / EPOLLOUT / EPOLLHUP...).
  using IoHandler = std::function<void(std::uint32_t events)>;

  EventLoop();
  ~EventLoop();

  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  // Registers `fd` edge-triggered for `events` (EPOLLET is implied).
  // add/remove are thread-safe (an acceptor thread hands sockets to other
  // loops); modify is loop-thread-only by contract.
  void add_fd(int fd, std::uint32_t events, IoHandler handler);
  void modify_fd(int fd, std::uint32_t events);
  void remove_fd(int fd);

  // Thread-safe: enqueues `task` to run on the loop thread and wakes it.
  void post(std::function<void()> task);

  // Thread-safe: runs `task` on the loop thread no earlier than `delay_ns`
  // from now (monotonic clock). The loop sleeps in epoll_wait with a
  // timeout derived from the earliest pending timer, so a timer costs no
  // polling. Timers still pending when the loop stops are dropped —
  // delayed work is best-effort by contract (it exists for fault
  // injection and backoff, not correctness).
  void post_after(std::uint64_t delay_ns, std::function<void()> task);

  // Runs until stop(); the calling thread becomes the loop thread.
  void run();

  // Thread-safe: makes run() return after the current dispatch round.
  void stop();

 private:
  struct Timer {
    std::uint64_t due_ns;
    std::uint64_t seq;  // insertion order breaks due-time ties FIFO
    std::function<void()> task;
  };

  void drain_wakeup();
  void run_posted_tasks();
  void run_due_timers();
  // epoll_wait timeout in ms: 0 if work is already queued, the time to
  // the earliest timer if one is pending, -1 (block) otherwise.
  int wait_timeout_ms();

  int epoll_fd_ = -1;
  int wake_fd_ = -1;
  std::atomic<bool> stopping_{false};
  std::mutex tasks_mutex_;
  std::vector<std::function<void()>> tasks_;
  std::vector<Timer> timers_;  // min-heap by (due_ns, seq), under tasks_mutex_
  std::uint64_t timer_seq_ = 0;
  // shared_ptr so a handler that removes fds (closing a connection) during
  // a dispatch round cannot free a handler the round is still calling;
  // the mutex covers cross-thread registration (acceptor → IO loop).
  mutable std::mutex handlers_mutex_;
  std::unordered_map<int, std::shared_ptr<IoHandler>> handlers_;
};

}  // namespace pqs::net
