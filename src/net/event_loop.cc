#include "net/event_loop.h"

#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <limits>
#include <utility>

#include "util/require.h"

namespace pqs::net {

namespace {

std::uint64_t mono_now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

}  // namespace

EventLoop::EventLoop() {
  epoll_fd_ = ::epoll_create1(EPOLL_CLOEXEC);
  PQS_REQUIRE(epoll_fd_ >= 0, "epoll_create1 failed");
  wake_fd_ = ::eventfd(0, EFD_CLOEXEC | EFD_NONBLOCK);
  PQS_REQUIRE(wake_fd_ >= 0, "eventfd failed");
  epoll_event ev{};
  ev.events = EPOLLIN | EPOLLET;
  ev.data.fd = wake_fd_;
  PQS_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, wake_fd_, &ev) == 0,
              "epoll_ctl(wakeup) failed");
}

EventLoop::~EventLoop() {
  if (wake_fd_ >= 0) ::close(wake_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
}

void EventLoop::add_fd(int fd, std::uint32_t events, IoHandler handler) {
  {
    std::lock_guard<std::mutex> lock(handlers_mutex_);
    handlers_[fd] = std::make_shared<IoHandler>(std::move(handler));
  }
  // Register after the handler is findable: the fd could become readable
  // (and dispatched on the loop thread) the instant it enters epoll.
  epoll_event ev{};
  ev.events = events | EPOLLET;
  ev.data.fd = fd;
  PQS_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev) == 0,
              "epoll_ctl(add) failed");
}

void EventLoop::modify_fd(int fd, std::uint32_t events) {
  epoll_event ev{};
  ev.events = events | EPOLLET;
  ev.data.fd = fd;
  PQS_REQUIRE(::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, fd, &ev) == 0,
              "epoll_ctl(mod) failed");
}

void EventLoop::remove_fd(int fd) {
  // The fd may already be gone (closed elsewhere); deregistration is
  // best-effort, the handler map is the source of truth.
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_DEL, fd, nullptr);
  std::lock_guard<std::mutex> lock(handlers_mutex_);
  handlers_.erase(fd);
}

void EventLoop::post(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    tasks_.push_back(std::move(task));
  }
  const std::uint64_t one = 1;
  // A full eventfd counter still leaves the loop signalled; ignore EAGAIN.
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::post_after(std::uint64_t delay_ns,
                           std::function<void()> task) {
  // Min-heap order for std::push_heap/pop_heap (which build max-heaps):
  // "greater" on (due_ns, seq) puts the earliest timer at the front.
  const auto later = [](const Timer& a, const Timer& b) {
    return a.due_ns != b.due_ns ? a.due_ns > b.due_ns : a.seq > b.seq;
  };
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    timers_.push_back(
        Timer{mono_now_ns() + delay_ns, timer_seq_++, std::move(task)});
    std::push_heap(timers_.begin(), timers_.end(), later);
  }
  // Wake the loop so it recomputes its epoll_wait timeout against the
  // (possibly now earlier) head timer.
  const std::uint64_t one = 1;
  [[maybe_unused]] const ssize_t n = ::write(wake_fd_, &one, sizeof(one));
}

void EventLoop::drain_wakeup() {
  std::uint64_t count = 0;
  while (::read(wake_fd_, &count, sizeof(count)) > 0) {
  }
}

void EventLoop::run_posted_tasks() {
  std::vector<std::function<void()>> ready;
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    ready.swap(tasks_);
  }
  for (auto& task : ready) task();
}

void EventLoop::run_due_timers() {
  const auto later = [](const Timer& a, const Timer& b) {
    return a.due_ns != b.due_ns ? a.due_ns > b.due_ns : a.seq > b.seq;
  };
  std::vector<std::function<void()>> due;
  {
    std::lock_guard<std::mutex> lock(tasks_mutex_);
    const std::uint64_t now = mono_now_ns();
    while (!timers_.empty() && timers_.front().due_ns <= now) {
      std::pop_heap(timers_.begin(), timers_.end(), later);
      due.push_back(std::move(timers_.back().task));
      timers_.pop_back();
    }
  }
  for (auto& task : due) task();
}

int EventLoop::wait_timeout_ms() {
  std::lock_guard<std::mutex> lock(tasks_mutex_);
  if (!tasks_.empty()) return 0;
  if (timers_.empty()) return -1;
  const std::uint64_t now = mono_now_ns();
  const std::uint64_t due = timers_.front().due_ns;
  if (due <= now) return 0;
  const std::uint64_t ms = (due - now + 999'999) / 1'000'000;
  return static_cast<int>(
      std::min<std::uint64_t>(ms, std::numeric_limits<int>::max()));
}

void EventLoop::run() {
  std::array<epoll_event, 64> events;
  while (!stopping_.load(std::memory_order_acquire)) {
    const int n = ::epoll_wait(epoll_fd_, events.data(),
                               static_cast<int>(events.size()),
                               wait_timeout_ms());
    if (n < 0) {
      PQS_REQUIRE(errno == EINTR, "epoll_wait failed");
      continue;
    }
    for (int i = 0; i < n; ++i) {
      const int fd = events[i].data.fd;
      if (fd == wake_fd_) {
        drain_wakeup();
        continue;
      }
      std::shared_ptr<IoHandler> handler;
      {
        std::lock_guard<std::mutex> lock(handlers_mutex_);
        const auto it = handlers_.find(fd);
        if (it == handlers_.end()) continue;  // removed earlier this round
        handler = it->second;
      }
      (*handler)(events[i].events);
    }
    // After IO: due timers, then tasks posted by worker threads (response
    // flushes) and, on stop, whatever was queued behind the final wakeup.
    run_due_timers();
    run_posted_tasks();
  }
  // Drain-on-exit: a task posted between the final dispatch round and the
  // stop flag becoming visible would otherwise be dropped — and with it a
  // queued response flush. Pending *timers* are deliberately abandoned
  // (delayed work is best-effort); posted tasks are not.
  run_posted_tasks();
}

void EventLoop::stop() {
  stopping_.store(true, std::memory_order_release);
  post([] {});  // wake the epoll_wait
}

}  // namespace pqs::net
