// mc_masking_n400: the Monte-Carlo engine on Table 4's n = 400 row,
// R_k(400, 93) with b = 9 and k = 11. core::Estimator at two threads
// runs the masking-epsilon, failure-probability (p = 0.75) and
// load-profile estimators in turn, each call with a fixed trial count;
// a call is one request of this workload.
#include <algorithm>
#include <atomic>
#include <memory>

#include "bench.h"
#include "checks.h"
#include "core/epsilon.h"
#include "core/estimator.h"
#include "core/monte_carlo.h"
#include "core/random_subset_system.h"
#include "math/rng.h"
#include "probes.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {

namespace {

constexpr std::uint32_t kN = 400;
constexpr std::uint32_t kQ = 93;
constexpr std::uint32_t kB = 9;
constexpr std::uint32_t kK = 11;
constexpr double kDeadP = 0.75;
constexpr unsigned kThreads = 2;
constexpr int kSetups = 7;
// Trials per call, sized so the three estimators take similar shares of
// a run and a call lasts a few milliseconds at two threads.
constexpr std::uint64_t kMaskingTrials = 3000;
constexpr std::uint64_t kFailureTrials = 45000;
constexpr std::uint64_t kLoadDraws = 6000;
// Timed phases are cut into slices of this length; throughput and the
// latency median are interquartile means over slices.
constexpr double kSliceSeconds = 0.5;
// Calls per estimator and engine in the traced run's efficiency probe.
constexpr int kEfficiencyCalls = 60;

enum Kind { kMasking = 0, kFailure = 1, kLoad = 2 };
const char* const kSpanNames[3] = {"core.masking_eps", "core.failure_prob",
                                   "core.load_profile"};
constexpr std::uint64_t kTrials[3] = {kMaskingTrials, kFailureTrials,
                                      kLoadDraws};

// Forwards to the real system and, while a traced phase runs, records
// one quorum.sample_masks span per batched draw call, parented to the
// estimator call in flight. Draws are untouched, so results are
// bit-identical to calls on the inner system.
class TracedSystem final : public pqs::quorum::QuorumSystem {
 public:
  explicit TracedSystem(const pqs::quorum::QuorumSystem& inner) : inner_(inner) {}
  std::atomic<std::int64_t> parent{-1};

  std::string name() const override { return inner_.name(); }
  std::uint32_t universe_size() const override { return inner_.universe_size(); }
  pqs::quorum::Quorum sample(pqs::math::Rng& rng) const override {
    return inner_.sample(rng);
  }
  void sample_into(pqs::quorum::Quorum& out, pqs::math::Rng& rng) const override {
    inner_.sample_into(out, rng);
  }
  void sample_mask(pqs::quorum::QuorumBitset& out,
                   pqs::math::Rng& rng) const override {
    inner_.sample_mask(out, rng);
  }
  void sample_masks(pqs::quorum::QuorumBitset* out, std::size_t count,
                    pqs::math::Rng& rng) const override {
    ScopedSpan span("quorum.sample_masks", parent.load(std::memory_order_relaxed),
                    0, static_cast<std::uint32_t>(count));
    inner_.sample_masks(out, count, rng);
  }
  std::uint32_t min_quorum_size() const override { return inner_.min_quorum_size(); }
  double load() const override { return inner_.load(); }
  std::uint32_t fault_tolerance() const override { return inner_.fault_tolerance(); }
  double failure_probability(double p) const override {
    return inner_.failure_probability(p);
  }
  bool has_live_quorum(const std::vector<bool>& alive) const override {
    return inner_.has_live_quorum(alive);
  }
  bool has_live_quorum_mask(const pqs::quorum::QuorumBitset& alive) const override {
    return inner_.has_live_quorum_mask(alive);
  }

 private:
  const pqs::quorum::QuorumSystem& inner_;
};

struct Pooled {
  pqs::math::Proportion masking, failure, load_server0;
};

struct Engine {
  pqs::core::RandomSubsetSystem system{kN, kQ};
  std::unique_ptr<pqs::core::Estimator> estimator;
  pqs::math::Rng rng[3];
};

// One estimator call; returns its trial count and folds its outcome
// into `pooled`.
std::uint64_t call(Kind kind, const pqs::quorum::QuorumSystem& system,
                   pqs::core::Estimator& engine, pqs::math::Rng& rng,
                   Pooled& pooled) {
  switch (kind) {
    case kMasking: {
      const auto p = pqs::core::estimate_masking_epsilon(
          system, kB, kK, kMaskingTrials, rng, engine);
      pooled.masking.add(p.successes(), p.trials());
      return p.trials();
    }
    case kFailure: {
      const auto p = pqs::core::estimate_failure_probability(
          system, kDeadP, kFailureTrials, rng, engine);
      pooled.failure.add(p.successes(), p.trials());
      return p.trials();
    }
    case kLoad: {
      const auto profile =
          pqs::core::estimate_load_profile(system, kLoadDraws, rng, engine);
      pooled.load_server0.add(profile.hits()[0], profile.samples());
      return profile.samples();
    }
  }
  return 0;
}

struct Phase {
  std::uint64_t calls = 0, trials = 0;
  double elapsed_s = 0.0;
  std::vector<double> latency_us;  // every call
  std::vector<double> slice_kops, slice_p50_us;
  // kops and p50_us are interquartile means over slices; p99_us is over
  // every call (a slice holds too few calls for its own p99).
  double kops = 0.0, p50_us = 0.0, p99_us = 0.0;
};

// Cycles masking, failure, load calls for `seconds` (and at most
// `max_calls` calls).
Phase run_phase(Engine& e, const pqs::quorum::QuorumSystem& system,
                TracedSystem* traced, double seconds, std::uint64_t max_calls,
                Pooled& pooled) {
  Phase ph;
  const std::uint64_t t0 = now_ns();
  const auto budget = static_cast<std::uint64_t>(seconds * 1e9);
  const auto slice_ns = static_cast<std::uint64_t>(kSliceSeconds * 1e9);
  std::uint64_t now = t0, slice_t0 = t0, slice_trials = 0;
  std::size_t slice_first_call = 0;
  const auto close_slice = [&] {
    ph.slice_kops.push_back(static_cast<double>(slice_trials) /
                            (static_cast<double>(now - slice_t0) / 1e9) / 1e3);
    ph.slice_p50_us.push_back(percentile(
        std::vector<double>(ph.latency_us.begin() +
                                static_cast<std::ptrdiff_t>(slice_first_call),
                            ph.latency_us.end()),
        50.0));
    slice_t0 = now;
    slice_trials = 0;
    slice_first_call = ph.latency_us.size();
  };
  while (now - t0 < budget && ph.calls < max_calls) {
    const auto kind = static_cast<Kind>(ph.calls % 3);
    const std::uint64_t c0 = now_ns();
    std::int64_t root = -1;
    if (traced != nullptr && Tracer::active() != nullptr) {
      root = Tracer::active()->begin(kSpanNames[kind], -1, ph.calls);
      traced->parent.store(root, std::memory_order_relaxed);
    }
    const std::uint64_t trials = call(kind, system, *e.estimator, e.rng[kind], pooled);
    if (root >= 0) Tracer::active()->end(root);
    now = now_ns();
    ph.latency_us.push_back(static_cast<double>(now - c0) / 1e3);
    ph.trials += trials;
    slice_trials += trials;
    ++ph.calls;
    if (now - slice_t0 >= slice_ns) close_slice();
  }
  if (slice_trials > 0 || ph.slice_kops.empty()) close_slice();
  ph.elapsed_s = static_cast<double>(now - t0) / 1e9;
  ph.kops = interquartile_mean(ph.slice_kops);
  ph.p50_us = interquartile_mean(ph.slice_p50_us);
  ph.p99_us = percentile(ph.latency_us, 99.0);
  return ph;
}

std::unique_ptr<Engine> setup(std::uint64_t seed, const std::vector<int>& caller,
                              const std::vector<int>& pool, Pooled& warm) {
  auto e = std::make_unique<Engine>();
  // The pool thread is launched by the Estimator constructor and inherits
  // the constructing thread's CPU set; the caller keeps its own CPU.
  start_on(pool, caller, [&] {
    pqs::core::EstimatorOptions options;
    options.threads = kThreads;
    e->estimator = std::make_unique<pqs::core::Estimator>(options);
  });
  for (int k = 0; k < 3; ++k) e->rng[k] = pqs::math::Rng(seed * 3 + k + 0x3c0de);
  for (int k = 0; k < 3; ++k) {
    call(static_cast<Kind>(k), e->system, *e->estimator, e->rng[k], warm);
  }
  return e;
}

void check_pooled(const Engine& e, const Pooled& pooled, Report& report) {
  const pqs::math::Proportion* estimates[3] = {&pooled.masking, &pooled.failure,
                                               &pooled.load_server0};
  const double exact[3] = {pqs::core::masking_epsilon_exact(kN, kQ, kB, kK),
                           e.system.failure_probability(kDeadP),
                           static_cast<double>(kQ) / kN};
  const char* names[3] = {"masking_eps", "failure_prob", "load_server0"};
  report.attempted = 3;
  report.failed = 0;
  for (int k = 0; k < 3; ++k) {
    report.verdicts.push_back(check_wilson(names[k], *estimates[k], exact[k]));
    if (!report.verdicts.back().ok) ++report.failed;
  }
}

}  // namespace

void probe_estimators(std::uint64_t seed, const std::vector<int>& caller,
                      const std::vector<int>& pool, Report& report) {
  Pooled scratch;
  const std::unique_ptr<Engine> e = setup(seed, caller, pool, scratch);
  pqs::core::EstimatorOptions options;
  options.threads = 1;
  pqs::core::Estimator single(options);
  const char* per_trial[3] = {"core.masking_eps_ns_per_trial",
                              "core.failure_prob_ns_per_trial",
                              "core.load_profile_ns_per_draw"};
  const char* efficiency[3] = {"core.parallel_efficiency.masking_eps",
                               "core.parallel_efficiency.failure_prob",
                               "core.parallel_efficiency.load_profile"};
  double cpu_s = 0.0, wall_s = 0.0;
  for (int k = 0; k < 3; ++k) {
    // Alternating calls on the two engines, equal trial counts on both,
    // so the rate ratio is a time ratio.
    double ns[2] = {0, 0};
    for (int i = 0; i < kEfficiencyCalls; ++i) {
      for (int t = 0; t < 2; ++t) {
        pqs::core::Estimator& engine = t == 0 ? single : *e->estimator;
        const double cpu0 = process_cpu_seconds();
        const std::uint64_t c0 = now_ns();
        call(static_cast<Kind>(k), e->system, engine, e->rng[k], scratch);
        const auto elapsed = static_cast<double>(now_ns() - c0);
        ns[t] += elapsed;
        if (t == 1) {
          cpu_s += process_cpu_seconds() - cpu0;
          wall_s += elapsed / 1e9;
        }
      }
    }
    const std::uint64_t trials = kEfficiencyCalls * kTrials[k];
    report.layer(per_trial[k], ns[1] / static_cast<double>(trials), "ns",
                 trials);
    report.layer(efficiency[k], ns[0] / (kThreads * ns[1]), "ratio",
                 2 * kEfficiencyCalls);
  }
  report.layer("core.cpu_utilization", cpu_s / (wall_s * kThreads), "ratio",
               3 * kEfficiencyCalls);
  probe_simd(kN, kB, kDeadP, seed, report);
}

void run_mc_masking_n400(const Options& o, const std::vector<int>& cpus,
                         Report& report) {
  const std::vector<int> caller{cpus[0]};
  const std::vector<int> pool{cpus[1]};
  pin_current_thread(caller);

  report.note_str("workload", "mc_masking_n400");
  report.note_str("quorum_system", "R_k(400, 93)");
  report.note("byzantine_servers", kB);
  report.note("masking_k", kK);
  report.note("dead_probability", kDeadP);
  report.note("estimator_threads", kThreads);
  report.note("trials_per_call_masking_eps", static_cast<double>(kMaskingTrials));
  report.note("trials_per_call_failure_prob", static_cast<double>(kFailureTrials));
  report.note("draws_per_call_load_profile", static_cast<double>(kLoadDraws));
  report.note("cpus_caller", cpu_list_json(caller));
  report.note("cpus_pool", cpu_list_json(pool));

  std::vector<double> setups;
  std::unique_ptr<Engine> e;
  Pooled warm;
  for (int i = 0; i < (o.trace ? 1 : kSetups); ++i) {
    e.reset();
    const std::uint64_t t0 = now_ns();
    e = setup(o.seed, caller, pool, warm);
    setups.push_back(static_cast<double>(now_ns() - t0) / 1e9);
  }
  report.note("setups", static_cast<double>(setups.size()));
  report.note("setup_times_s", json_numbers(setups));

  Pooled pooled;
  if (!o.trace) {
    const Phase ph =
        run_phase(*e, e->system, nullptr, o.seconds, ~0ULL, pooled);
    report.e2e("peak_rss_mb", peak_rss_mb(), "MB", 1);
    check_pooled(*e, pooled, report);
    report.e2e("setup_s", percentile(setups, 50.0), "s", setups.size());
    report.e2e("throughput_kops", ph.kops, "k/s", ph.trials);
    report.e2e("lat_p50_us", ph.p50_us, "us", ph.calls);
    report.e2e("lat_p99_us", ph.p99_us, "us", ph.calls);
    report.note("timed_seconds", ph.elapsed_s);
    report.note("slices", static_cast<double>(ph.slice_kops.size()));
    report.note("slice_kops", json_numbers(ph.slice_kops));
    return;
  }

  // Traced run: untraced phase, traced phase (estimator calls as root
  // spans, batched draws as their children on both threads), the
  // one-thread efficiency probe, then the layer probes.
  const Phase plain =
      run_phase(*e, e->system, nullptr, o.seconds / 2, ~0ULL, pooled);
  report.e2e("throughput_kops", plain.kops, "k/s", plain.trials);
  report.e2e("lat_p50_us", plain.p50_us, "us", plain.calls);
  report.e2e("lat_p99_us", plain.p99_us, "us", plain.calls);

  Tracer tracer(600000);
  Tracer::install(&tracer);
  TracedSystem traced_system(e->system);
  const std::uint64_t traced_t0 = now_ns();
  const Phase traced =
      run_phase(*e, traced_system, &traced_system, o.seconds / 4, 240, pooled);
  report.layer("trace.overhead_ratio", traced.kops / plain.kops, "ratio",
               traced.trials);
  check_pooled(*e, pooled, report);

  probe_estimators(o.seed, caller, pool, report);
  probe_quorum(e->system, o.seed, report);
  report.unmeasured.emplace_back("net.*, serve.*, replica.*, crypto.*",
                                 "no request path: estimators only");
  report.unmeasured.emplace_back("stats.record_ns, workload.*",
                                 "no request latency or generator");
  report.unmeasured.emplace_back("stale_ratio", "no reads");

  Tracer::install(nullptr);
  report.spans = tracer.spans();
  report.traced_wall_ns = static_cast<double>(now_ns() - traced_t0);
  report.spans_dropped = tracer.dropped();
  report.trace_path = std::string(kOutDir) + "/mc_masking_n400.trace.json";
  if (!tracer.write_chrome_json(report.trace_path)) report.trace_path.clear();
}

}  // namespace perfbench
