// perfbench: the repository benchmark. Usage:
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// Prints human-readable lines (metadata, every metric with its unit and
// sample count, every output check), then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: every end-to-end
// metric the run measured in an untraced run, every per-layer metric in
// a traced run. run.py picks BENCHMARK.json's metrics from it. Exits 1
// when an output check fails and 2 on a usage or run error (without the
// JSON line).
#include <sched.h>
#include <sys/resource.h>

#include <pthread.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "bench.h"
#include "simd/kernels.h"
#include "trace.h"

namespace perfbench {

std::uint32_t workload_threads(const std::string& workload) {
  if (workload == "mc_masking_n400") return 2;
  return serving_threads(workload);
}

void Report::note(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  meta.emplace_back(key, buf);
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') out += '\\';
    if (static_cast<unsigned char>(ch) < 0x20) continue;
    out += ch;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

}  // namespace

void Report::note_str(const std::string& key, const std::string& value) {
  meta.emplace_back(key, json_string(value));
}

std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) {
    throw std::runtime_error("sched_getaffinity failed");
  }
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

void pin_current_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  if (pthread_setaffinity_np(pthread_self(), sizeof set, &set) != 0) {
    throw std::runtime_error("pthread_setaffinity_np failed");
  }
}

void start_on(const std::vector<int>& cpus, const std::vector<int>& restore,
              const std::function<void()>& start) {
  pin_current_thread(cpus);
  try {
    start();
  } catch (...) {
    pin_current_thread(restore);
    throw;
  }
  pin_current_thread(restore);
}

IdleSpinners::IdleSpinners(const std::vector<int>& cpus) {
  for (const int cpu : cpus) {
    threads_.emplace_back([this, cpu] {
      pin_current_thread({cpu});
      sched_param param{};
      pthread_setschedparam(pthread_self(), SCHED_IDLE, &param);
      while (!stop_.load(std::memory_order_relaxed)) spin_pause();
    });
  }
}

IdleSpinners::~IdleSpinners() {
  stop_.store(true, std::memory_order_relaxed);
  for (auto& t : threads_) t.join();
}

std::string cpu_list_json(const std::vector<int>& cpus) {
  std::string out = "[";
  for (std::size_t i = 0; i < cpus.size(); ++i) {
    out += (i ? "," : "") + std::to_string(cpus[i]);
  }
  return out + "]";
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

double process_cpu_seconds() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  const auto secs = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + static_cast<double>(t.tv_usec) / 1e6;
  };
  return secs(usage.ru_utime) + secs(usage.ru_stime);
}

namespace {

[[noreturn]] void usage_error(const std::string& what) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1>\n",
               what.c_str());
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage_error("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        o.workload = value;
        have_workload = true;
      } else if (flag == "--seed") {
        o.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        o.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
        o.trace = value == "1";
      } else {
        usage_error("unknown flag " + flag);
      }
    } catch (const std::logic_error&) {
      usage_error("bad value for " + flag + ": " + value);
    }
  }
  if (!have_workload) usage_error("--workload is required");
  if (!(o.seconds > 0.0 && o.seconds <= 600.0)) usage_error("--seconds out of range");
  return o;
}

void print_trace_tables(const Report& r) {
  std::printf("# per-layer table (share = self time / wall time of the traced "
              "part of the run, %.3f ms)\n",
              r.traced_wall_ns / 1e6);
  std::printf("# %-38s %10s %10s %14s %12s %12s %8s\n", "span", "spans", "calls",
              "p50 ns/call", "total ms", "self ms", "share");
  for (const LayerRow& row : layer_table(r.spans, r.traced_wall_ns)) {
    std::printf("# %-38s %10llu %10llu %14.1f %12.3f %12.3f %8.4f\n",
                row.name.c_str(), static_cast<unsigned long long>(row.spans),
                static_cast<unsigned long long>(row.calls), row.p50_ns_per_call,
                row.total_ns / 1e6, row.self_ns / 1e6, row.wall_share);
  }
  std::printf("# spans recorded %zu, dropped %llu, chrome trace %s\n",
              r.spans.size(), static_cast<unsigned long long>(r.spans_dropped),
              r.trace_path.empty() ? "(not written)" : r.trace_path.c_str());
}

int run(const Options& o) {
  using Runner = void (*)(const Options&, const std::vector<int>&, Report&);
  const std::pair<const char*, Runner> workloads[] = {
      {"net_ycsb_a", run_net_ycsb_a},
      {"kv_masking_ycsb_b", run_kv_masking_ycsb_b},
      {"kv_dissem_ycsb_a", run_kv_dissem_ycsb_a},
      {"mc_masking_n400", run_mc_masking_n400},
  };
  Runner runner = nullptr;
  for (const auto& [name, fn] : workloads) {
    if (o.workload == name) runner = fn;
  }
  if (runner == nullptr) usage_error("unknown workload " + o.workload);

  const std::vector<int> cpus = allowed_cpus();
  const std::uint32_t needed = workload_threads(o.workload);
  if (cpus.size() < needed) {
    std::fprintf(stderr,
                 "perfbench: %s pins %u threads to CPUs of their own but only "
                 "%zu CPUs are available; refusing to measure an "
                 "oversubscribed machine\n",
                 o.workload.c_str(), needed, cpus.size());
    return 2;
  }
  if (o.trace) std::filesystem::create_directories(kOutDir);

  std::printf("# perfbench %s seed=%llu seconds=%g trace=%d\n", o.workload.c_str(),
              static_cast<unsigned long long>(o.seed), o.seconds, o.trace ? 1 : 0);
  Report r;
  r.note("nproc", static_cast<double>(cpus.size()));
  r.note("cpus_allowed", cpu_list_json(cpus));
  r.note_str("simd", pqs::simd::active().name);
  r.note_str("compiler", PERFBENCH_COMPILER);
  r.note_str("build_type", PERFBENCH_BUILD_TYPE);
  r.note("seed", static_cast<double>(o.seed));
  r.note("seconds", o.seconds);
  r.note("trace", o.trace ? 1.0 : 0.0);
  runner(o, cpus, r);

  const double fail_ratio =
      r.attempted ? static_cast<double>(r.failed) / r.attempted : 0.0;
  r.e2e("fail_ratio", fail_ratio, "ratio", r.attempted);
  if (o.trace) r.layer("fail_ratio", fail_ratio, "ratio", r.attempted);

  std::string meta = "{";
  for (std::size_t i = 0; i < r.meta.size(); ++i) {
    meta += (i ? "," : "") + json_string(r.meta[i].first) + ":" + r.meta[i].second;
  }
  std::printf("# meta %s}\n", meta.c_str());
  for (const auto& [name, m] : r.end_to_end) {
    std::printf("# metric %-34s %16.6f %-6s n=%llu\n", name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  }
  for (const Verdict& v : r.verdicts) {
    std::printf("# check %-34s %s  %s\n", v.name.c_str(), v.ok ? "ok" : "FAIL",
                v.detail.c_str());
  }

  if (o.trace) {
    print_trace_tables(r);
    for (const auto& [name, m] : r.per_layer) {
      std::printf("# layer %-40s %16.4f %-6s n=%llu\n", name.c_str(), m.value,
                  m.unit.c_str(), static_cast<unsigned long long>(m.samples));
    }
    for (const auto& [names, why] : r.unmeasured) {
      std::printf("# unmeasured %s: %s\n", names.c_str(), why.c_str());
    }
  }
  std::string metrics = "{";
  for (const auto& [name, m] : o.trace ? r.per_layer : r.end_to_end) {
    metrics += std::string(metrics.size() > 1 ? ", " : "") + json_string(name) +
               ": {\"value\": " + number(m.value) + ", \"unit\": " +
               json_string(m.unit) + "}";
  }
  metrics += "}";
  const bool correct = all_ok(r.verdicts) && !r.verdicts.empty() && r.failed == 0;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              correct ? "true" : "false",
              static_cast<unsigned long long>(r.attempted),
              static_cast<unsigned long long>(r.failed), metrics.c_str());
  std::fflush(stdout);
  return correct ? 0 : 1;
}

}  // namespace

}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "perfbench: run failed: %s\n", e.what());
    return 2;
  }
}
