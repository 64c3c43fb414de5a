// Outside-in span tracing for the traced benchmark run.
//
// Spans are recorded by the benchmark's own code around calls into the
// library's layers; nothing inside src/ is instrumented. A span carries a
// name, start and end (ns since the tracer's epoch), its parent span, the
// request id of the operation it belongs to (the operation index), the
// number of calls it covers (batched timings of sub-microsecond calls
// cover many), and a small per-thread id.
//
// The buffer is allocated once, when the tracer is constructed, and
// slots are claimed with one relaxed fetch_add; a full buffer drops spans
// and counts them. An untraced run constructs no Tracer: active() is
// null, every recording site is one predictable branch, and nothing is
// allocated or recorded.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  const char* name = nullptr;  // static storage: a layer metric name
  std::uint64_t start_ns = 0;
  std::uint64_t end_ns = 0;
  std::int64_t parent = -1;  // span id (buffer index) or -1
  std::uint64_t request = 0;
  std::uint32_t calls = 1;
  std::uint32_t thread = 0;
};

class Tracer {
 public:
  explicit Tracer(std::size_t capacity);

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  // The process-wide tracer of a traced run; null in an untraced run.
  // Installing publishes the tracer (release) to threads that are already
  // running, such as service workers whose completion hooks record spans.
  static Tracer* active() { return active_.load(std::memory_order_acquire); }
  static void install(Tracer* tracer) {
    active_.store(tracer, std::memory_order_release);
  }

  // Claims a slot and stamps its start; returns the span id, or -1 when
  // the buffer is full. Finish it with end().
  std::int64_t begin(const char* name, std::int64_t parent,
                     std::uint64_t request, std::uint32_t calls = 1);
  void end(std::int64_t id);
  // Records a finished span with caller-measured times (absolute
  // steady-clock ns, as returned by now_ns()).
  std::int64_t record(const char* name, std::int64_t parent,
                      std::uint64_t request, std::uint32_t calls,
                      std::uint64_t start_abs_ns, std::uint64_t end_abs_ns);

  // Valid once every recording thread has quiesced.
  std::vector<Span> spans() const;
  std::uint64_t dropped() const { return dropped_.load(); }

  // Writes the spans as Chrome trace-event JSON ("X" complete events,
  // timestamps in microseconds); returns false when the file cannot be
  // written.
  bool write_chrome_json(const std::string& path) const;

 private:
  static std::uint32_t thread_index();

  static std::atomic<Tracer*> active_;
  std::vector<Span> buffer_;
  std::atomic<std::size_t> next_{0};
  std::atomic<std::uint64_t> dropped_{0};
  std::uint64_t epoch_;
};

// RAII span on the active tracer; a no-op in an untraced run or when
// `name` is null.
class ScopedSpan {
 public:
  ScopedSpan(const char* name, std::int64_t parent, std::uint64_t request,
             std::uint32_t calls = 1)
      : id_(name == nullptr || Tracer::active() == nullptr
                ? -1
                : Tracer::active()->begin(name, parent, request, calls)) {}
  ~ScopedSpan() {
    if (id_ >= 0) Tracer::active()->end(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  std::int64_t id() const { return id_; }

 private:
  std::int64_t id_;
};

// One row of the per-layer table: every span of one name.
struct LayerRow {
  std::string name;
  std::uint64_t spans = 0;
  std::uint64_t calls = 0;
  double p50_ns_per_call = 0.0;  // median over spans of duration / calls
  double total_ns = 0.0;
  double self_ns = 0.0;
  double wall_share = 0.0;  // self_ns / wall_ns
};

// Self time of each span: its duration minus the part of its interval
// that the union of its children's intervals covers (children may nest,
// overlap each other, run on other threads, or stick out of the parent).
std::vector<double> self_times(const std::vector<Span>& spans);

// Aggregates spans by name into rows sorted by name; wall_ns is the wall
// time the shares are taken of.
std::vector<LayerRow> layer_table(const std::vector<Span>& spans,
                                  double wall_ns);

}  // namespace perfbench
