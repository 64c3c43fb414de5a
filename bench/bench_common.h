// Shared helpers for the bench harness.
//
// Every bench binary is runnable with no arguments, prints the rows/series
// of one table or figure from the paper (plus a CSV block for re-plotting),
// and exits 0. Absolute values depend on this simulator substrate; the
// *shape* (who wins, by what factor, where the crossovers fall) is what
// reproduces the paper.
//
// Benches that run Monte-Carlo estimators accept these flags, parsed by
// parse_options():
//   --threads=N   worker threads (0 = hardware)
//   --samples=N   trial count override (0 = keep the bench's default)
//   --json=PATH   machine-readable report (the *_throughput benches)
//
// The second half of this header is the harness of the *_throughput
// benches, which are conformance gates as well as perf reports: every
// check is a named gate in a Report (a boolean, or a measured value
// against its bound), a failed gate prints a MISMATCH line and makes the
// bench exit 1, and bench/check_regression.py re-evaluates the gates from
// the JSON report against the bench's committed baseline.
#pragma once

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "math/chernoff.h"
#include "serve/kv_service.h"
#include "simd/kernels.h"
#include "stats/latency_histogram.h"
#include "stats/load_profile.h"
#include "util/worker_pool.h"
#include "workload/open_loop.h"

namespace pqs::bench {

struct Options {
  unsigned threads = 0;       // 0 = hardware concurrency
  std::uint64_t samples = 0;  // 0 = bench default
  std::string json;           // empty = no JSON report

  // The bench's trial count after the override.
  std::uint64_t samples_or(std::uint64_t fallback) const {
    return samples == 0 ? fallback : samples;
  }
  // The worker count --threads asks for, 0 resolved to the hardware's.
  unsigned workers() const {
    unsigned w = threads != 0 ? threads : std::thread::hardware_concurrency();
    return w != 0 ? w : 1;
  }
};

// Parses the flags above (both "--flag=V" and "--flag V" forms). Unknown
// arguments are reported and ignored so binaries stay runnable with no
// arguments under older scripts.
inline Options parse_options(int argc, char** argv) {
  Options opts;
  auto read_value = [&](const char* arg, const char* name,
                        int& i) -> const char* {
    const std::size_t len = std::strlen(name);
    if (std::strncmp(arg, name, len) != 0) return nullptr;
    if (arg[len] == '=') return arg + len + 1;
    if (arg[len] == '\0' && i + 1 < argc) return argv[++i];
    return nullptr;
  };
  for (int i = 1; i < argc; ++i) {
    if (const char* v = read_value(argv[i], "--threads", i)) {
      opts.threads = static_cast<unsigned>(std::strtoul(v, nullptr, 10));
    } else if (const char* v2 = read_value(argv[i], "--samples", i)) {
      opts.samples = std::strtoull(v2, nullptr, 10);
    } else if (const char* v3 = read_value(argv[i], "--json", i)) {
      opts.json = v3;
    } else {
      std::fprintf(stderr, "ignoring unknown argument: %s\n", argv[i]);
    }
  }
  return opts;
}

// The crash-probability sweep used by the Figure 1-3 benches: 0.05..0.95 in
// steps of 0.05, generated from integer steps so no floating-point drift
// accumulates across the sweep.
inline std::vector<double> p_sweep() {
  std::vector<double> ps;
  ps.reserve(19);
  for (int i = 1; i <= 19; ++i) ps.push_back(static_cast<double>(i) * 0.05);
  return ps;
}

// floor(sqrt(n)) for the b = sqrt(n) settings of Figures 2-3. Computed in
// doubles, then corrected: floor(sqrt(double(n))) can land one off for n
// near a perfect square (e.g. large n where sqrt rounds up to the next
// integer), so nudge until s*s <= n < (s+1)*(s+1) holds exactly.
inline std::uint32_t isqrt(std::uint32_t n) {
  std::uint64_t s = static_cast<std::uint64_t>(std::sqrt(
      static_cast<double>(n)));
  while (s > 0 && s * s > n) --s;
  while ((s + 1) * (s + 1) <= n) ++s;
  return static_cast<std::uint32_t>(s);
}

// The Section 6 system-size grid of Tables 2-4.
inline const std::vector<std::uint32_t>& table_sizes() {
  static const std::vector<std::uint32_t> sizes{25, 100, 225, 400, 625, 900};
  return sizes;
}

// b = (sqrt(n) - 1) / 2, "the largest b for which all the constructions in
// the table work" (Section 6).
inline std::uint32_t table_b(std::uint32_t n) {
  return (isqrt(n) - 1) / 2;
}

// ---- the *_throughput harness ----------------------------------------------

// Heap allocations so far: alloc_count.h's global operator new bumps this
// counter. In a binary that does not include alloc_count.h it stays zero.
inline std::atomic<std::uint64_t> g_allocations{0};

inline std::uint64_t allocations() {
  return g_allocations.load(std::memory_order_relaxed);
}

// A JSON document under construction. Scalars are rendered when added,
// each with its own printf format, so a report keeps the digits it always
// had; members keep insertion order; render() places the commas and the
// indentation. Members of an array are added with an empty key.
class Json {
 public:
  enum class Kind { kScalar, kObject, kArray };
  explicit Json(Kind kind = Kind::kObject) : kind_(kind) {}

  Json& integer(const std::string& key, std::uint64_t v) {
    return scalar(key, std::to_string(v));
  }
  Json& number(const std::string& key, double v, const char* fmt = "%.6g") {
    char buf[64];
    std::snprintf(buf, sizeof buf, fmt, v);
    return scalar(key, buf);
  }
  Json& text(const std::string& key, const std::string& v) {
    return scalar(key, quote(v));
  }
  Json& flag(const std::string& key, bool v) {
    return scalar(key, v ? "true" : "false");
  }
  // Add an empty object or array member and return it.
  Json& object(const std::string& key = {}) { return add(key, Kind::kObject); }
  Json& array(const std::string& key = {}) { return add(key, Kind::kArray); }

  // Containers of scalars only go on one line, others one member a line.
  std::string render(std::size_t indent = 0) const {
    if (kind_ == Kind::kScalar) return text_;
    const bool flat = std::all_of(
        children_.begin(), children_.end(),
        [](const auto& c) { return c->kind_ == Kind::kScalar; });
    const std::string pad = "\n" + std::string(indent + 2, ' ');
    std::string out(1, kind_ == Kind::kObject ? '{' : '[');
    for (std::size_t i = 0; i < children_.size(); ++i) {
      const Json& c = *children_[i];
      if (i > 0) out += ',';
      out += flat ? (i > 0 ? " " : "") : pad;
      if (kind_ == Kind::kObject) out += quote(c.key_) + ": ";
      out += c.render(indent + 2);
    }
    if (!flat) out += "\n" + std::string(indent, ' ');
    out += kind_ == Kind::kObject ? '}' : ']';
    return out;
  }

 private:
  Json& scalar(const std::string& key, std::string text) {
    add(key, Kind::kScalar).text_ = std::move(text);
    return *this;
  }
  // Children live behind unique_ptr so a returned member reference stays
  // valid while its parent grows.
  Json& add(const std::string& key, Kind kind) {
    children_.push_back(std::make_unique<Json>(kind));
    children_.back()->key_ = key;
    return *children_.back();
  }
  // Names are printable ASCII; only quotes and backslashes need escaping.
  static std::string quote(const std::string& s) {
    std::string out = "\"";
    for (const char ch : s) {
      if (ch == '"' || ch == '\\') out += '\\';
      out += ch;
    }
    return out + "\"";
  }

  Kind kind_;
  std::string key_;
  std::string text_;  // scalars only
  std::vector<std::unique_ptr<Json>> children_;
};

// One run of a serving deployment: what the replay gate compares and the
// report's sections[] entry shows.
struct RunOutcome {
  std::vector<serve::ShardAggregate> aggregates;  // the bit-identity payload
  serve::ShardAggregate fold;
  stats::LatencyHistogram histogram;
  stats::LoadProfile profile{std::vector<std::uint64_t>{}, 0};
  std::uint64_t ops = 0;
  double seconds = 0.0;
  double allocs_per_op = 0.0;
  bool drained_all = false;  // every request reached histogram + aggregates

  double ops_per_sec() const { return static_cast<double>(ops) / seconds; }
};

// A throughput bench's verdict and JSON report. Benches add their own keys
// to `json`; finish() appends "ok" (every gate passed) and "gates", whose
// numbers are written with %.17g so check_regression.py re-evaluates each
// gate to the verdict the bench reached.
class Report {
 public:
  explicit Report(const char* bench) {
    json.text("bench", bench).text("simd_kernel", simd::active().name);
  }

  Json json;

  // A boolean gate; `why` completes its MISMATCH line.
  void gate(const std::string& name, bool pass,
            const std::string& why = "failed") {
    if (!pass) std::printf("MISMATCH: %s: %s\n", name.c_str(), why.c_str());
    gates_.push_back({name, pass, false, 0.0, 0.0, false});
  }

  // measured <= bound, or measured < bound when strict. A bound that is
  // not `certified` at its confidence target fails whatever the numbers.
  void gate_bound(const std::string& name, double measured, double bound,
                  bool strict = false, bool certified = true) {
    const bool holds = strict ? measured < bound : measured <= bound;
    if (!holds) {
      std::printf("MISMATCH: %s: measured %.6g %s bound %.6g\n", name.c_str(),
                  measured, strict ? "is not below" : "exceeds", bound);
    }
    if (!certified) {
      std::printf("MISMATCH: %s: the Chernoff margin does not reach 1e-9 at "
                  "this sample size\n",
                  name.c_str());
    }
    gates_.push_back({name, holds && certified, true, measured, bound, strict});
  }

  bool ok() const {
    return std::all_of(gates_.begin(), gates_.end(),
                       [](const Gate& g) { return g.pass; });
  }

  // Appends the sections[] entry every serving bench reports for a timed
  // run; the caller adds its own keys to the returned object.
  Json& section(const std::string& name, unsigned workers,
                const RunOutcome& r) {
    if (sections_ == nullptr) sections_ = &json.array("sections");
    return sections_->object()
        .text("name", name)
        .integer("workers", workers)
        .number("ops_per_sec", r.ops_per_sec())
        .integer("p50_ns", r.histogram.p50())
        .integer("p99_ns", r.histogram.p99())
        .integer("p999_ns", r.histogram.p999())
        .integer("max_ns", r.histogram.max())
        .integer("reads", r.fold.reads)
        .integer("writes", r.fold.writes)
        .integer("stale_reads", r.fold.stale_reads);
  }

  // Prints the verdict line and writes the report when --json asked for
  // one. Returns the exit code: 0 every gate passed, 1 a gate failed, 2
  // the report could not be written.
  int finish(const Options& opts, const char* ok_line) {
    if (ok()) {
      std::printf("OK: %s\n", ok_line);
    } else {
      std::printf("FAILED: see mismatches above\n");
    }
    if (!opts.json.empty() && !write(opts.json)) {
      std::fprintf(stderr, "cannot write JSON report to %s\n",
                   opts.json.c_str());
      return 2;
    }
    return ok() ? 0 : 1;
  }

 private:
  struct Gate {
    std::string name;
    bool pass;
    bool numeric;
    double measured, bound;
    bool strict;
  };

  bool write(const std::string& path) {
    json.flag("ok", ok());
    Json& gates = json.array("gates");
    for (const Gate& g : gates_) {
      Json& out = gates.object().text("name", g.name).flag("pass", g.pass);
      if (g.numeric) {
        out.number("measured", g.measured, "%.17g")
            .number("bound", g.bound, "%.17g")
            .flag("strict", g.strict);
      }
    }
    const std::string text = json.render() + "\n";
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const bool written =
        std::fwrite(text.data(), 1, text.size(), f) == text.size();
    return std::fclose(f) == 0 && written;
  }

  std::vector<Gate> gates_;
  Json* sections_ = nullptr;
};

// Submits `ops` requests from `gen` to a started `service` from this one
// thread, so each shard's request order is the generator's (the
// determinism precondition). Unpaced, a request's latency origin is its
// submit instant; paced, the producer holds to the open-loop schedule and
// the scheduled arrival is the origin (coordinated-omission-safe).
// `hook(service, i)` runs after request i, to interleave in-band events
// at fixed stream positions.
template <class Hook>
void submit_stream(serve::KvService& service,
                   workload::OpenLoopGenerator& gen, std::uint64_t ops,
                   Hook&& hook) {
  const bool paced = gen.spec().arrival_rate > 0.0;
  workload::Operation op;
  serve::Request req;
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    if (paced) {
      while (service.now_ns() < op.scheduled_ns) std::this_thread::yield();
      req.scheduled_ns = op.scheduled_ns;
    } else {
      req.scheduled_ns = service.now_ns();
    }
    req.key = op.key;
    req.value = op.value;
    req.is_read = op.is_read;
    service.submit(req);
    hook(service, i);
  }
}

struct NoHook {
  void operator()(serve::KvService&, std::uint64_t) const {}
};

// One complete run: build the deployment, drive `ops` requests of `spec`
// through it, drain, and collect everything observable.
template <class Hook = NoHook>
RunOutcome drive_service(const serve::KvService::Config& cfg,
                         const workload::OpenLoopSpec& spec,
                         std::uint64_t ops, Hook&& hook = Hook{}) {
  serve::KvService service(cfg);
  workload::OpenLoopGenerator gen(spec, cfg.seed ^ 0xa02bdbf7bb3c0a7ULL);
  const std::uint64_t allocs_before = allocations();
  const auto t0 = std::chrono::steady_clock::now();
  service.start();
  submit_stream(service, gen, ops, hook);
  service.stop_and_drain();
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t allocs_after = allocations();

  RunOutcome out;
  out.aggregates = service.aggregates();
  out.fold = service.fold_aggregates();
  out.histogram = service.merged_histogram();
  out.profile = service.server_profile();
  out.ops = ops;
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.allocs_per_op = static_cast<double>(allocs_after - allocs_before) /
                      static_cast<double>(ops);
  out.drained_all = out.histogram.count() == ops &&
                    out.fold.reads + out.fold.writes == ops;
  return out;
}

inline bool same_run(const RunOutcome& a, const RunOutcome& b) {
  return a.drained_all && b.drained_all && a.aggregates == b.aggregates;
}

// The replay gate "replay.<name>": `run(workers)` is the timed run, and
// since its outcome is a pure function of its input, the same run at 1
// and at 8 workers must agree with it (`same`). Returns the timed outcome.
template <class Run, class Same = bool (*)(const RunOutcome&,
                                           const RunOutcome&)>
auto replay_gate(Report& report, const std::string& name, unsigned workers,
                 Run&& run, Same same = &same_run) {
  auto timed = run(workers);
  std::string failed;
  for (const unsigned replay : {1u, 8u}) {
    if (!same(timed, run(replay))) failed += " " + std::to_string(replay);
  }
  report.gate("replay." + name, failed.empty(),
              "the runs at workers" + failed +
                  " lost requests or differ from the timed run at " +
                  std::to_string(workers));
  return timed;
}

// ---- epsilon measurements on the deployed replica stack --------------------

// The epsilon measurements' grid: kEpsilonShards shards, shard s measured
// by `measure(pairs, seed)` (serve::write_read_pairs on a fresh shard)
// from its own fixed seed on a pool of `threads`, so the per-shard counts
// do not depend on the thread count.
inline constexpr std::uint32_t kEpsilonShards = 8;

template <class Measure>
std::vector<serve::PairCounts> epsilon_shards(std::uint64_t pairs,
                                              unsigned threads,
                                              const Measure& measure) {
  std::vector<serve::PairCounts> runs(kEpsilonShards);
  util::WorkerPool pool(threads);
  pool.run(kEpsilonShards, [&](std::uint64_t s) {
    runs[s] = measure(pairs, /*seed=*/211 + 1000003 * s);
  });
  return runs;
}

template <class Measure>
serve::PairCounts epsilon_total(std::uint64_t pairs, unsigned threads,
                                const Measure& measure) {
  serve::PairCounts total;
  for (const serve::PairCounts& r : epsilon_shards(pairs, threads, measure)) {
    total += r;
  }
  return total;
}

// The measurement is a replay too, gated as "replay.epsilon": the grid at
// min(pairs, 2000) pairs per shard, per-shard counts identical at
// `threads`, 1 and 8 threads.
template <class Measure>
void epsilon_replay_gate(Report& report, std::uint64_t pairs,
                         unsigned threads, const Measure& measure) {
  const std::uint64_t replay_pairs = std::min<std::uint64_t>(pairs, 2000);
  replay_gate(
      report, "epsilon", threads,
      [&](unsigned t) { return epsilon_shards(replay_pairs, t, measure); },
      std::equal_to<>());
}

// Gates the rate of `count` events in `trials` against the predicted
// `rate` plus the Chernoff margin (math::chernoff_acceptance, the
// conformance tests' rule at bench scale). A zero rate is a structural
// zero: the event must not occur at all. Returns the bound on the rate.
inline double chernoff_gate(Report& report, const std::string& name,
                            std::uint64_t count, std::uint64_t trials,
                            double rate) {
  const math::ChernoffAcceptance accept =
      math::chernoff_acceptance(trials, rate);
  report.gate_bound(name,
                    static_cast<double>(count) / static_cast<double>(trials),
                    accept.rate, /*strict=*/false, accept.certified);
  return accept.rate;
}

}  // namespace pqs::bench
