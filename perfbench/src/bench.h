// Shared pieces of the benchmark: run options, the report every
// workload fills, and CPU placement.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "checks.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// Where a traced run writes its spans, relative to the working directory.
constexpr const char* kOutDir = ".bench_out";

struct Metric {
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;  // how many measurements the value rests on
};

// What one workload run produced. End-to-end metrics are measured in
// every run; per-layer metrics only in a traced run. Which of them a
// result reports, and in what order, is BENCHMARK.json's choice (run.py
// selects them).
struct Report {
  std::map<std::string, Metric> end_to_end;
  std::map<std::string, Metric> per_layer;
  std::vector<std::pair<std::string, std::string>> meta;  // key, JSON value
  std::vector<Verdict> verdicts;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Per-layer metrics this workload cannot measure, with the reason.
  std::vector<std::pair<std::string, std::string>> unmeasured;
  // A traced run's spans, the wall time from the tracer's creation to the
  // last probe (the shares' base), and where the spans were written as
  // Chrome trace-event JSON.
  std::vector<Span> spans;
  double traced_wall_ns = 0.0;
  std::uint64_t spans_dropped = 0;
  std::string trace_path;

  void e2e(const std::string& name, double value, const std::string& unit,
           std::uint64_t samples) {
    end_to_end[name] = Metric{value, unit, samples};
  }
  void layer(const std::string& name, double value, const std::string& unit,
             std::uint64_t samples) {
    per_layer[name] = Metric{value, unit, samples};
  }
  void note(const std::string& key, const std::string& json_value) {
    meta.emplace_back(key, json_value);
  }
  void note(const std::string& key, double value);
  void note_str(const std::string& key, const std::string& value);
};

// ---- CPU placement -------------------------------------------------------

// The CPUs this process may run on (sched_getaffinity), ascending.
std::vector<int> allowed_cpus();
// Pins the calling thread; threads it spawns afterwards inherit the set.
void pin_current_thread(const std::vector<int>& cpus);
// Runs `start` with the calling thread pinned to `cpus` (so the threads
// it launches inherit them), then restores the caller's own set.
void start_on(const std::vector<int>& cpus, const std::vector<int>& restore,
              const std::function<void()>& start);
std::string cpu_list_json(const std::vector<int>& cpus);

// Peak resident set size of the process, in MB.
double peak_rss_mb();
// User + system CPU seconds consumed by the process so far.
double process_cpu_seconds();

// Keeps CPUs from going idle: one SCHED_IDLE thread per CPU spins until
// destruction. A component that blocks (a socket reader, an epoll loop,
// a pool thread waiting for work) otherwise lets its virtual CPU halt,
// and waking a halted virtual CPU costs the hypervisor tens of
// microseconds to milliseconds depending on the host's load. The
// spinners run only when their CPU has nothing else to run, and any
// wakeup preempts them at once.
class IdleSpinners {
 public:
  explicit IdleSpinners(const std::vector<int>& cpus);
  ~IdleSpinners();
  IdleSpinners(const IdleSpinners&) = delete;
  IdleSpinners& operator=(const IdleSpinners&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

inline void spin_pause() {
#if defined(__x86_64__) || defined(__i386__)
  __builtin_ia32_pause();
#endif
}

// ---- workloads -----------------------------------------------------------

// Each fills `report` (and its verdicts); a thrown exception is a failed
// run. `cpus` is allowed_cpus(), already checked against the workload's
// thread count.
void run_net_ycsb_a(const Options& options, const std::vector<int>& cpus,
                    Report& report);
void run_kv_masking_ycsb_b(const Options& options, const std::vector<int>& cpus,
                           Report& report);
void run_kv_dissem_ycsb_a(const Options& options, const std::vector<int>& cpus,
                          Report& report);
void run_mc_masking_n400(const Options& options, const std::vector<int>& cpus,
                         Report& report);
// Threads a workload pins to CPUs of its own (0 for an unknown name).
std::uint32_t workload_threads(const std::string& workload);
std::uint32_t serving_threads(const std::string& workload);

}  // namespace perfbench
