// Serving-tier throughput under membership churn, and the timed-quorum
// epsilon measured against its estimator.
//
// Two experiments share the binary:
//
//   * a churn-rate sweep over serve::KvService — 4 dynamic-membership
//     shards of R(64, 16) probabilistic quorums, a single producer
//     interleaving in-band kReplace events with the request stream at
//     {0, 10, 100} replacements per 1000 requests — reporting ops/sec and
//     p50/p99 tail latency so CI can see what reconfiguration costs the
//     hot path. Every section is also a functional gate: the per-shard
//     aggregates (churn_events and final membership epochs included) are
//     a pure function of the request stream, so the section re-runs with
//     1 and 8 shard-serving workers and the bench exits nonzero unless all
//     three runs agree shard by shard.
//
//   * an epsilon-vs-churn-rate sweep over replica::InstantCluster — for
//     each Poisson rate lambda, shards of write / churn(k ~ Poisson) /
//     read pairs measure the deployed stale-read rate, reported next to
//     core::estimate_timed_epsilon(n, q, lambda, 1) and the Gramoli-
//     Raynal lifetime at twice the churn-free epsilon. Stale reads are
//     contained in quorum misses (a surviving common server answers with
//     the latest record), so the measured count is gated by the predicted
//     mean plus a multiplicative Chernoff margin sized for failure
//     probability <= 1e-9 under the null — the conformance test's bound,
//     re-checked on every CI run at bench scale. A fixed-schedule replay at
//     the timed thread count and at 8 threads, against a serial reference,
//     gates bit-identity of the measurement itself.
//
// Flags: --threads=N (shard-serving workers for the timed runs, 0 =
// hardware), --samples=N (requests per section and pairs per epsilon
// shard; default 30000), --json=PATH (machine-readable report — CI
// archives it as BENCH_churn.json and gates it with
// bench/check_churn_regression.py).
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.h"
#include "core/epsilon.h"
#include "core/random_subset_system.h"
#include "core/timed_epsilon.h"
#include "math/chernoff.h"
#include "replica/instant_cluster.h"
#include "serve/kv_service.h"
#include "simd/kernels.h"
#include "stats/latency_histogram.h"
#include "util/worker_pool.h"
#include "workload/open_loop.h"

namespace pqs {
namespace {

constexpr std::uint32_t kUniverse = 64;  // R(64, 16) per shard
constexpr std::uint32_t kQuorum = 16;
constexpr std::uint64_t kKeys = 4096;
constexpr std::uint32_t kShards = 4;

// ---- churn-rate throughput sweep ------------------------------------------

struct SectionSpec {
  std::string name;
  std::uint32_t churn_per_1000 = 0;  // kReplace events per 1000 requests
};

std::vector<SectionSpec> make_sections() {
  return {{"churn0", 0}, {"churn10", 10}, {"churn100", 100}};
}

struct RunOutcome {
  std::vector<serve::ShardAggregate> aggregates;  // the bit-identity payload
  serve::ShardAggregate fold;
  stats::LatencyHistogram histogram;
  double seconds = 0.0;
  bool drained_all = false;
};

// One complete run: a dynamic-membership service driven by a single
// producer that injects an in-band kReplace on a rotating shard every
// `interval` requests (so each shard's subsequence of requests and churn
// events is fixed — the determinism precondition).
RunOutcome drive(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                 std::uint32_t churn_per_1000, std::uint32_t workers,
                 std::uint64_t ops, std::uint64_t seed) {
  serve::KvService::Config cfg;
  cfg.shards = kShards;
  cfg.workers = workers;
  cfg.quorums = sys;
  cfg.seed = seed;
  cfg.dynamic_membership = true;
  serve::KvService service(cfg);

  workload::OpenLoopSpec spec;
  spec.keys = kKeys;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.5;
  workload::OpenLoopGenerator gen(spec, seed ^ 0xa02bdbf7bb3c0a7ULL);

  const std::uint64_t interval =
      churn_per_1000 == 0 ? 0 : 1000 / churn_per_1000;
  std::uint64_t churned = 0;
  workload::Operation op;
  serve::Request req;
  const auto t0 = std::chrono::steady_clock::now();
  service.start();
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    req.key = op.key;
    req.value = op.value;
    req.scheduled_ns = service.now_ns();
    req.is_read = op.is_read;
    service.submit(req);
    if (interval != 0 && i % interval == interval - 1) {
      service.submit_churn(
          static_cast<std::uint32_t>((i / interval) % kShards),
          serve::ChurnKind::kReplace);
      ++churned;
    }
  }
  service.stop_and_drain();
  const auto t1 = std::chrono::steady_clock::now();

  RunOutcome out;
  out.aggregates = service.aggregates();
  out.fold = service.fold_aggregates();
  out.histogram = service.merged_histogram();
  out.seconds = std::chrono::duration<double>(t1 - t0).count();
  out.drained_all = out.histogram.count() == ops &&
                    out.fold.reads + out.fold.writes == ops &&
                    out.fold.churn_events == churned;
  return out;
}

// ---- epsilon-vs-churn-rate sweep ------------------------------------------

struct StalenessRun {
  std::uint64_t pairs = 0;
  std::uint64_t stale = 0;

  bool operator==(const StalenessRun& o) const {
    return pairs == o.pairs && stale == o.stale;
  }
};

// One shard of the epsilon measurement, the conformance suite's protocol:
// write, k ~ Poisson(lambda) in-place replacements (exponential
// inter-arrivals on the dedicated churn stream; lambda = 0 means none),
// read — stale iff the read returns anything but the value just written.
StalenessRun epsilon_shard(double lambda, std::uint64_t pairs,
                           std::uint64_t seed) {
  replica::InstantCluster::Config cfg;
  cfg.quorums = std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);
  cfg.seed = seed;
  cfg.churn_seed = seed ^ 0xc4a84e11ULL;
  cfg.dynamic_membership = true;
  replica::InstantCluster cluster(cfg);
  StalenessRun run;
  run.pairs = pairs;
  replica::WriteResult w;
  replica::ReadResult r;
  std::int64_t value = 0;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    cluster.write_into(w, /*variable=*/1, ++value);
    if (lambda > 0.0) {
      std::uint32_t k = 0;
      double t = cluster.churn_rng().exponential(1.0 / lambda);
      while (t < 1.0) {
        ++k;
        t += cluster.churn_rng().exponential(1.0 / lambda);
      }
      cluster.run_churn(k);
    }
    cluster.read_into(r, 1);
    if (!r.selection.has_value || r.selection.record.value != value) {
      ++run.stale;
    }
  }
  return run;
}

std::vector<StalenessRun> epsilon_shards(double lambda,
                                         std::uint64_t pairs_per_shard,
                                         std::uint32_t shards,
                                         unsigned threads) {
  std::vector<StalenessRun> runs(shards);
  util::WorkerPool pool(threads);
  pool.run(shards, [&](std::uint64_t s) {
    runs[s] = epsilon_shard(lambda, pairs_per_shard,
                            /*seed=*/211 + 1000003 * s);
  });
  return runs;
}

struct EpsilonPoint {
  double lambda = 0.0;
  std::uint64_t pairs = 0;
  std::uint64_t stale = 0;
  double measured = 0.0;
  double predicted = 0.0;  // estimate_timed_epsilon(n, q, lambda, 1)
  double bound = 0.0;      // (1 + gamma) * predicted, Chernoff margin
  double lifetime = 0.0;   // staleness budget at 2x the churn-free eps
};

// gamma sized so that P(Binomial(N, eps) > (1+gamma) N eps) <= 1e-9 by
// the multiplicative Chernoff bound (math/chernoff.h) — the conformance
// test's margin, recomputed at this run's sample size.
double margin_gamma(double mu) {
  return std::sqrt(4.0 * std::log(2e9) / mu);
}

std::vector<EpsilonPoint> epsilon_sweep(std::uint64_t pairs_per_shard,
                                        unsigned threads, bool& ok) {
  constexpr std::uint32_t kEpsShards = 8;
  const double eps0 = core::nonintersection_exact(kUniverse, kQuorum);
  std::vector<EpsilonPoint> points;
  for (const double lambda : {0.0, 1.0, 4.0, 12.0}) {
    EpsilonPoint p;
    p.lambda = lambda;
    p.predicted = lambda == 0.0
                      ? eps0
                      : core::estimate_timed_epsilon(kUniverse, kQuorum,
                                                     lambda, 1.0);
    p.lifetime = lambda == 0.0
                     ? 0.0
                     : core::timed_quorum_lifetime(kUniverse, kQuorum,
                                                   lambda, 2.0 * eps0);
    StalenessRun total;
    for (const StalenessRun& r :
         epsilon_shards(lambda, pairs_per_shard, kEpsShards, threads)) {
      total.pairs += r.pairs;
      total.stale += r.stale;
    }
    p.pairs = total.pairs;
    p.stale = total.stale;
    p.measured = static_cast<double>(total.stale) /
                 static_cast<double>(total.pairs);
    const double mu = static_cast<double>(total.pairs) * p.predicted;
    const double gamma = margin_gamma(mu);
    p.bound = (1.0 + gamma) * p.predicted;
    if (math::chernoff_upper(mu, gamma) > 1e-9 || p.measured > p.bound) {
      std::printf("MISMATCH: lambda=%.3g measured stale rate %.6g exceeds "
                  "timed-epsilon bound %.6g (predicted %.6g)\n",
                  lambda, p.measured, p.bound, p.predicted);
      ok = false;
    }
    points.push_back(p);
  }

  // The measurement is a replay: per-shard results at the timed thread
  // count and at 8 threads bit-identical to a serial reference, at one
  // representative rate.
  const std::uint64_t replay_pairs = std::min<std::uint64_t>(
      pairs_per_shard, 2000);
  const auto reference = epsilon_shards(4.0, replay_pairs, kEpsShards, 1);
  for (const unsigned threads_check : {threads, 8u}) {
    const auto runs =
        epsilon_shards(4.0, replay_pairs, kEpsShards, threads_check);
    for (std::uint32_t s = 0; s < kEpsShards; ++s) {
      if (!(runs[s] == reference[s])) {
        std::printf("MISMATCH: epsilon measurement diverged at threads=%u "
                    "shard=%u\n",
                    threads_check, s);
        ok = false;
      }
    }
  }
  return points;
}

// ---- reporting ------------------------------------------------------------

struct SectionReport {
  SectionSpec section;
  std::uint32_t workers = 0;
  RunOutcome timed;
};

void write_json(const char* path, const std::vector<SectionReport>& sections,
                const std::vector<EpsilonPoint>& sweep, std::uint64_t ops,
                bool ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to %s\n", path);
    return;
  }
  std::fprintf(f,
               "{\n  \"bench\": \"churn_throughput\",\n"
               "  \"simd_kernel\": \"%s\",\n  \"universe\": %u,\n"
               "  \"quorum\": %u,\n"
               "  \"ops_per_section\": %" PRIu64 ",\n  \"ok\": %s,\n"
               "  \"sections\": [\n",
               simd::active().name, kUniverse, kQuorum, ops,
               ok ? "true" : "false");
  for (std::size_t i = 0; i < sections.size(); ++i) {
    const SectionReport& s = sections[i];
    const RunOutcome& r = s.timed;
    std::fprintf(
        f,
        "    {\"name\": \"%s\", \"churn_per_1000\": %u, \"shards\": %u, "
        "\"workers\": %u,\n"
        "     \"ops_per_sec\": %.6g,\n"
        "     \"p50_ns\": %" PRIu64 ", \"p99_ns\": %" PRIu64
        ", \"p999_ns\": %" PRIu64 ", \"max_ns\": %" PRIu64 ",\n"
        "     \"reads\": %" PRIu64 ", \"writes\": %" PRIu64
        ", \"stale_reads\": %" PRIu64 ", \"churn_events\": %" PRIu64
        ", \"final_epochs\": %" PRIu64 "}%s\n",
        s.section.name.c_str(), s.section.churn_per_1000, kShards, s.workers,
        static_cast<double>(ops) / r.seconds, r.histogram.p50(),
        r.histogram.p99(), r.histogram.p999(), r.histogram.max(),
        r.fold.reads, r.fold.writes, r.fold.stale_reads, r.fold.churn_events,
        r.fold.membership_epoch, i + 1 < sections.size() ? "," : "");
  }
  std::fprintf(f, "  ],\n  \"epsilon_sweep\": [\n");
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const EpsilonPoint& p = sweep[i];
    std::fprintf(
        f,
        "    {\"lambda\": %.6g, \"pairs\": %" PRIu64 ", \"stale\": %" PRIu64
        ",\n"
        "     \"measured_stale_rate\": %.6g, \"predicted_epsilon\": %.6g, "
        "\"chernoff_bound\": %.6g, \"lifetime_at_2x_eps0\": %.6g}%s\n",
        p.lambda, p.pairs, p.stale, p.measured, p.predicted, p.bound,
        p.lifetime, i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops = opts.samples_or(30000);
  unsigned workers = opts.threads;
  if (workers == 0) workers = std::thread::hardware_concurrency();
  if (workers == 0) workers = 1;

  const auto sys =
      std::make_shared<core::RandomSubsetSystem>(kUniverse, kQuorum);

  std::printf(
      "churn_throughput: %" PRIu64 " ops/section over %" PRIu64
      " keys, R(%u, %u) quorums, %u dynamic shards, workers=%u, simd=%s\n",
      ops, kKeys, kUniverse, kQuorum, kShards, workers, simd::active().name);

  bool ok = true;
  std::vector<SectionReport> reports;
  for (const SectionSpec& section : make_sections()) {
    const std::uint64_t seed =
        0xc4u + 131 * static_cast<std::uint64_t>(reports.size());
    const RunOutcome timed =
        drive(sys, section.churn_per_1000, workers, ops, seed);
    const RunOutcome w1 = drive(sys, section.churn_per_1000, 1, ops, seed);
    const RunOutcome w8 = drive(sys, section.churn_per_1000, 8, ops, seed);
    if (!(timed.aggregates == w1.aggregates) ||
        !(timed.aggregates == w8.aggregates)) {
      std::printf("MISMATCH: %s shard aggregates differ across worker "
                  "counts\n",
                  section.name.c_str());
      ok = false;
    }
    if (!timed.drained_all || !w1.drained_all || !w8.drained_all) {
      std::printf("MISMATCH: %s lost requests or churn events in the "
                  "drain\n",
                  section.name.c_str());
      ok = false;
    }
    std::printf(
        "[churn] section=%-8s workers=%u ops/sec=%.3g p50=%.1fus "
        "p99=%.1fus churn=%" PRIu64 " epochs=%" PRIu64 " stale=%" PRIu64
        "\n",
        section.name.c_str(), workers,
        static_cast<double>(ops) / timed.seconds,
        static_cast<double>(timed.histogram.p50()) / 1000.0,
        static_cast<double>(timed.histogram.p99()) / 1000.0,
        timed.fold.churn_events, timed.fold.membership_epoch,
        timed.fold.stale_reads);
    reports.push_back({section, workers, timed});
  }

  const std::vector<EpsilonPoint> sweep = epsilon_sweep(ops, workers, ok);
  for (const EpsilonPoint& p : sweep) {
    std::printf(
        "[epsilon] lambda=%-4.3g pairs=%" PRIu64
        " measured=%.6f predicted=%.6f bound=%.6f lifetime@2eps0=%.3f\n",
        p.lambda, p.pairs, p.measured, p.predicted, p.bound, p.lifetime);
  }

  if (!opts.json.empty()) {
    write_json(opts.json.c_str(), reports, sweep, ops, ok);
  }

  std::printf(ok ? "OK: aggregates bit-identical across worker counts; "
                   "stale rates within timed-epsilon bounds\n"
                 : "FAILED: see mismatches above\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
