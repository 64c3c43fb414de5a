// End-to-end protocol throughput: the replica stack under load.
//
// Drives N independent InstantCluster shards (each a full server set plus a
// single-writer client loop) over a worker pool, running a Zipfian
// read/write mix from workload/, and reports write/read ops/sec. Each op
// draws its quorum with sample_mask into per-cluster bitset scratch, calls
// Server::apply_write/serve_read directly, and materializes the result
// into reused vectors.
//
// Shards are self-contained and folded in index order, so every aggregate
// counter (reads, writes, stale reads, per-server access checksum) must be
// identical at any thread count. The bench replays each timed run at 1
// and 8 threads and exits nonzero on any mismatch, which makes it a
// functional gate as well as a perf report.
//
// A global operator new/delete override counts heap allocations, so the
// "allocs/op" column is measured, not asserted: the figure is amortized
// setup (scratch growth, the per-key map) and tends to zero with the op
// count.
//
// Flags: --threads=N (pool size, 0 = hardware), --samples=N (ops per
// shard; default 100000), --writers=N (contending writer clients per shard
// in the multi-writer section; default 4, max 255), --repair (repeat the
// multi-writer section with read-repair write-backs and report the load
// shift), --json=PATH (machine-readable report: ops/s, allocs/op, conflict
// rates, per-server contention counters and load profiles, and the
// dispatched SIMD kernel — CI archives it as BENCH_protocol.json).
//
// The multi-writer section measures timestamp-conflict behaviour under
// contention: N writers per shard interleave on the same Zipfian key
// space, and a write "conflicts" when it completes with a timestamp below
// the key's current maximum — it lost the ordering race, and every server
// that already holds the newer record ignores it (the standard (seq <<
// 16) | writer multi-writer extension; the paper's single-writer semantics
// are the default section above). The section reports the server-side
// observability layer: per-server writes_superseded counters
// (stats::ContentionSnapshot) and the measured per-server load profile
// (stats::LoadProfile over server contacts). With --repair, reads push the
// selected record back to quorum members that answered stale
// (InstantCluster::read_repair_into); repair consumes no rng draws, so the
// quorum streams are unchanged and the profile shift is purely the repair
// traffic. The repair run is verified bit-identical across thread counts,
// like the main section.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <unordered_map>
#include <vector>

#include "alloc_count.h"
#include "bench_common.h"
#include "core/random_subset_system.h"
#include "math/rng.h"
#include "quorum/bitset.h"
#include "quorum/grid.h"
#include "quorum/threshold.h"
#include "replica/instant_cluster.h"
#include "simd/kernels.h"
#include "stats/counters.h"
#include "stats/load_profile.h"
#include "util/worker_pool.h"
#include "workload/workload.h"

namespace pqs {
namespace {

using replica::InstantCluster;

constexpr std::uint32_t kShards = 8;

std::shared_ptr<const quorum::QuorumSystem> make_system(int which) {
  switch (which) {
    case 0:
      return std::make_shared<quorum::ThresholdSystem>(
          quorum::ThresholdSystem::majority(100));
    case 1:
      return std::make_shared<quorum::GridSystem>(quorum::GridSystem(10, 10));
    default:
      return std::make_shared<core::RandomSubsetSystem>(100, 30);
  }
}

struct Aggregate {
  std::uint64_t reads = 0;
  std::uint64_t writes = 0;
  std::uint64_t stale_reads = 0;
  std::uint64_t empty_reads = 0;
  std::uint64_t access_checksum = 0;  // position-weighted, order-sensitive

  bool operator==(const Aggregate& o) const {
    return reads == o.reads && writes == o.writes &&
           stale_reads == o.stale_reads && empty_reads == o.empty_reads &&
           access_checksum == o.access_checksum;
  }
};

Aggregate fold(const std::vector<workload::WorkloadReport>& reports) {
  Aggregate agg;
  for (const auto& r : reports) {
    agg.reads += r.reads;
    agg.writes += r.writes;
    agg.stale_reads += r.stale_reads;
    agg.empty_reads += r.empty_reads;
    for (std::size_t u = 0; u < r.server_accesses.size(); ++u) {
      agg.access_checksum +=
          (static_cast<std::uint64_t>(u) + 1) * r.server_accesses[u];
    }
  }
  return agg;
}

struct RunResult {
  Aggregate aggregate;
  double seconds = 0.0;
  double allocs_per_op = 0.0;
};

RunResult run_shards(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                     std::uint64_t ops_per_shard, unsigned threads) {
  workload::WorkloadSpec spec;
  spec.keys = 64;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.5;
  spec.operations = ops_per_shard;

  std::vector<std::unique_ptr<InstantCluster>> clusters;
  clusters.reserve(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    InstantCluster::Config cfg;
    cfg.quorums = sys;
    cfg.seed = 1000003ULL * (s + 1);
    clusters.push_back(std::make_unique<InstantCluster>(cfg));
  }
  std::vector<workload::WorkloadReport> reports(kShards);

  util::WorkerPool pool(threads);
  const std::uint64_t before = bench::allocations();
  const auto t0 = std::chrono::steady_clock::now();
  pool.run(kShards, [&](std::uint64_t s) {
    math::Rng rng(7777 + s);
    workload::run_workload_into(*clusters[s], spec, rng, reports[s]);
  });
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t after = bench::allocations();

  RunResult result;
  result.aggregate = fold(reports);
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.allocs_per_op =
      static_cast<double>(after - before) /
      static_cast<double>(ops_per_shard * kShards);
  return result;
}

// ---- multi-writer contention ---------------------------------------------

struct MultiWriterResult {
  std::uint64_t writes = 0;
  std::uint64_t reads = 0;
  std::uint64_t conflicts = 0;  // writes that completed below the key max
  std::uint64_t covered = 0;    // distinct servers touched (all shards)
  // Server-side trace: write deliveries a server acked but did not adopt
  // because it already held a newer record. Unlike the op-level conflict
  // count (a pure function of the interleave), this depends on which
  // quorums the contending writes landed on, so it differentiates the
  // systems under test.
  std::uint64_t write_contacts = 0;
  std::uint64_t repairs = 0;  // read-repair write-backs (repair runs only)
  // Client-side quorum contacts per server, folded across shards — a pure
  // function of the draw streams, so identical with repair on or off.
  std::vector<std::uint64_t> accesses;
  // Per-server protocol counters folded across shards. writes_accepted +
  // reads_served is the server-side contact count *including* repair
  // traffic — the load profile that shifts when --repair is on.
  stats::ContentionSnapshot contention;
  double seconds = 0.0;
  double allocs_per_op = 0.0;

  double conflict_rate() const {
    return writes == 0 ? 0.0
                       : static_cast<double>(conflicts) /
                             static_cast<double>(writes);
  }
  // Derived from the contention snapshot so it cannot drift from the
  // per-server counters it summarizes.
  std::uint64_t superseded() const {
    return contention.totals().writes_superseded;
  }
  double superseded_rate() const {
    return write_contacts == 0 ? 0.0
                               : static_cast<double>(superseded()) /
                                     static_cast<double>(write_contacts);
  }
  // Measured per-server load over server-side contacts (repair included).
  stats::LoadProfile server_profile() const {
    std::vector<std::uint64_t> hits(contention.universe_size(), 0);
    for (std::uint32_t u = 0; u < contention.universe_size(); ++u) {
      const auto& c = contention.server(u);
      hits[u] = c.writes_accepted + c.reads_served;
    }
    return stats::LoadProfile(std::move(hits), writes + reads);
  }
  // Everything deterministic (no timings): the bit-identity gate across
  // thread counts.
  bool counters_equal(const MultiWriterResult& o) const {
    return writes == o.writes && reads == o.reads &&
           conflicts == o.conflicts && covered == o.covered &&
           write_contacts == o.write_contacts && repairs == o.repairs &&
           accesses == o.accesses && contention == o.contention;
  }
};

MultiWriterResult run_multi_writer(
    const std::shared_ptr<const quorum::QuorumSystem>& sys,
    std::uint32_t writers, std::uint64_t ops_per_shard, unsigned threads,
    bool repair) {
  struct ShardStats {
    std::uint64_t writes = 0, reads = 0, conflicts = 0, covered = 0;
    std::uint64_t write_contacts = 0, repairs = 0;
    std::vector<std::uint64_t> accesses;
    stats::ContentionSnapshot contention;
  };
  std::vector<std::unique_ptr<InstantCluster>> clusters;
  clusters.reserve(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    InstantCluster::Config cfg;
    cfg.quorums = sys;
    cfg.seed = 2000003ULL * (s + 1);
    clusters.push_back(std::make_unique<InstantCluster>(cfg));
  }
  std::vector<ShardStats> stats(kShards);

  util::WorkerPool pool(threads);
  const std::uint64_t before = bench::allocations();
  const auto t0 = std::chrono::steady_clock::now();
  pool.run(kShards, [&](std::uint64_t s) {
    InstantCluster& cluster = *clusters[s];
    const std::uint32_t n = cluster.universe_size();
    math::Rng rng(8888 + s);
    const workload::ZipfianKeys keys(64, 0.99);
    std::unordered_map<std::uint64_t, std::uint64_t> max_ts;
    // Union of every quorum the shard touched, accumulated word-parallel
    // (QuorumBitset::or_with) — coverage shows how much of the universe
    // the access strategy spread the contention over.
    quorum::QuorumBitset touched(n), op_mask(n);
    replica::WriteResult w;
    replica::ReadResult r;
    ShardStats& out = stats[s];
    out.accesses.assign(n, 0);
    std::int64_t value = 0;
    for (std::uint64_t op = 0; op < ops_per_shard; ++op) {
      const std::uint64_t key = keys.sample(rng);
      if (rng.chance(0.5)) {
        ++out.reads;
        if (repair) {
          cluster.read_repair_into(r, key);
          out.repairs += r.repairs;
        } else {
          cluster.read_into(r, key);
        }
        for (const auto u : r.quorum) ++out.accesses[u];
        op_mask.assign(r.quorum);
      } else {
        ++out.writes;
        // Writers take turns; ids are 1-based (writer < 256 keeps the
        // (seq << 16) | writer timestamps collision-free).
        const std::uint32_t writer =
            1 + static_cast<std::uint32_t>(out.writes % writers);
        cluster.write_as_into(w, writer, key, ++value);
        out.write_contacts += w.acks;
        auto& seen = max_ts[key];
        if (w.timestamp < seen) {
          ++out.conflicts;
        } else {
          seen = w.timestamp;
        }
        for (const auto u : w.quorum) ++out.accesses[u];
        op_mask.assign(w.quorum);
      }
      touched.or_with(op_mask);
    }
    out.covered = touched.count();
    out.contention = cluster.contention_snapshot();
  });
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t after = bench::allocations();

  MultiWriterResult result;
  for (const auto& s : stats) {
    result.writes += s.writes;
    result.reads += s.reads;
    result.conflicts += s.conflicts;
    result.covered += s.covered;
    result.write_contacts += s.write_contacts;
    result.repairs += s.repairs;
    if (result.accesses.empty()) {
      result.accesses = s.accesses;
    } else {
      for (std::size_t u = 0; u < s.accesses.size(); ++u) {
        result.accesses[u] += s.accesses[u];
      }
    }
    result.contention.merge(s.contention);
  }
  result.seconds = std::chrono::duration<double>(t1 - t0).count();
  result.allocs_per_op =
      static_cast<double>(after - before) /
      static_cast<double>(ops_per_shard * kShards);
  return result;
}

// Raw draw throughput: the three draw entry points plus the batched one,
// single-threaded so the numbers isolate per-draw cost.
void raw_draw_section(const std::shared_ptr<const quorum::QuorumSystem>& sys,
                      std::uint64_t draws) {
  const std::uint32_t n = sys->universe_size();
  math::Rng rng(404);
  const auto time_loop = [&](const char* label, auto&& body) {
    const auto t0 = std::chrono::steady_clock::now();
    body();
    const auto t1 = std::chrono::steady_clock::now();
    const double sec = std::chrono::duration<double>(t1 - t0).count();
    std::printf("[draw] system=%s entry=%s draws/sec=%.3g\n",
                sys->name().c_str(), label,
                static_cast<double>(draws) / (sec > 0 ? sec : 1e-9));
  };
  time_loop("sample", [&] {
    for (std::uint64_t i = 0; i < draws; ++i) {
      const auto q = sys->sample(rng);
      if (q.empty()) std::abort();
    }
  });
  time_loop("sample_mask", [&] {
    quorum::QuorumBitset mask(n);
    for (std::uint64_t i = 0; i < draws; ++i) sys->sample_mask(mask, rng);
  });
  time_loop("sample_masks[32]", [&] {
    std::vector<quorum::QuorumBitset> batch(32, quorum::QuorumBitset(n));
    for (std::uint64_t i = 0; i < draws; i += 32) {
      sys->sample_masks(batch.data(), 32, rng);
    }
  });
}

// One system's full measurement set, kept for the JSON report.
struct SystemReport {
  std::string name;
  RunResult mask;
  MultiWriterResult multi;
  bool has_repair = false;
  MultiWriterResult repaired;
};

// One multi-writer JSON object: rates, repair count, the per-server
// superseded counters, and the measured server-side load profile.
void write_multi_writer_json(std::FILE* f, const char* key,
                             const MultiWriterResult& m, std::uint32_t writers,
                             double total_ops) {
  const stats::LoadProfile profile = m.server_profile();
  std::fprintf(f,
               "      \"%s\": {\"writers\": %u, \"ops_per_sec\": %.6g, "
               "\"conflict_rate\": %.6f, \"superseded_rate\": %.6f, "
               "\"repairs\": %" PRIu64 ", \"allocs_per_op\": %.4f,\n"
               "        \"load_profile\": {\"max_load\": %.6f, "
               "\"mean_load\": %.6f, \"imbalance\": %.4f, \"top\": [",
               key, writers, total_ops / m.seconds, m.conflict_rate(),
               m.superseded_rate(), m.repairs, m.allocs_per_op,
               profile.max_load(), profile.mean_load(), profile.imbalance());
  const auto top = profile.hottest(5);
  for (std::size_t t = 0; t < top.size(); ++t) {
    std::fprintf(f, "{\"server\": %u, \"load\": %.6f}%s", top[t].server,
                 top[t].load, t + 1 < top.size() ? ", " : "");
  }
  std::fprintf(f, "]},\n        \"superseded_per_server\": [");
  const auto& per_server = m.contention.per_server();
  for (std::size_t u = 0; u < per_server.size(); ++u) {
    std::fprintf(f, "%" PRIu64 "%s", per_server[u].writes_superseded,
                 u + 1 < per_server.size() ? ", " : "");
  }
  std::fprintf(f, "]}");
}

void write_json(const char* path, const std::vector<SystemReport>& systems,
                std::uint64_t ops_per_shard, std::uint32_t writers, bool ok) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write JSON report to %s\n", path);
    return;
  }
  const double total_ops =
      static_cast<double>(ops_per_shard) * static_cast<double>(kShards);
  std::fprintf(f,
               "{\n  \"bench\": \"protocol_throughput\",\n"
               "  \"simd_kernel\": \"%s\",\n  \"shards\": %u,\n"
               "  \"ops_per_shard\": %" PRIu64 ",\n  \"writers\": %u,\n"
               "  \"ok\": %s,\n  \"systems\": [\n",
               simd::active().name, kShards, ops_per_shard, writers,
               ok ? "true" : "false");
  for (std::size_t i = 0; i < systems.size(); ++i) {
    const SystemReport& s = systems[i];
    std::fprintf(
        f,
        "    {\n      \"name\": \"%s\",\n"
        "      \"mask\": {\"ops_per_sec\": %.6g, \"allocs_per_op\": %.4f},\n",
        s.name.c_str(), total_ops / s.mask.seconds, s.mask.allocs_per_op);
    write_multi_writer_json(f, "multi_writer", s.multi, writers, total_ops);
    if (s.has_repair) {
      std::fprintf(f, ",\n");
      write_multi_writer_json(f, "multi_writer_repair", s.repaired, writers,
                              total_ops);
    }
    std::fprintf(f, "\n    }%s\n", i + 1 < systems.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops_per_shard = opts.samples_or(100000);
  const unsigned threads = opts.threads;
  const std::uint32_t writers =
      opts.writers < 1 ? 1 : (opts.writers > 255 ? 255 : opts.writers);
  const bool repair = opts.repair;

  std::printf(
      "protocol_throughput: %u shards x %" PRIu64
      " ops, zipf(0.99) over 64 keys, 50%% reads, simd=%s\n",
      kShards, ops_per_shard, simd::active().name);

  bool ok = true;
  std::vector<SystemReport> reports;
  for (int which = 0; which < 3; ++which) {
    const auto sys = make_system(which);
    const RunResult mask = run_shards(sys, ops_per_shard, threads);
    // Thread scheduling must not be able to change the fold.
    for (const unsigned replay : {1u, 8u}) {
      if (!(run_shards(sys, ops_per_shard, replay).aggregate ==
            mask.aggregate)) {
        std::printf("MISMATCH: %s aggregates differ at %u threads\n",
                    sys->name().c_str(), replay);
        ok = false;
      }
    }
    const double total_ops =
        static_cast<double>(ops_per_shard) * static_cast<double>(kShards);
    std::printf(
        "[protocol] system=%s ops/sec=%.3g allocs/op=%.2f stale=%" PRIu64
        " checksum=%" PRIu64 "\n",
        sys->name().c_str(), total_ops / mask.seconds, mask.allocs_per_op,
        mask.aggregate.stale_reads, mask.aggregate.access_checksum);

    const MultiWriterResult multi =
        run_multi_writer(sys, writers, ops_per_shard, threads, false);
    const stats::LoadProfile base_profile = multi.server_profile();
    std::printf(
        "[multiwriter] system=%s writers=%u ops/sec=%.3g conflict_rate=%.4f "
        "superseded_rate=%.4f coverage=%.1f max_load=%.4f imbalance=%.3f "
        "allocs/op=%.2f\n",
        sys->name().c_str(), writers, total_ops / multi.seconds,
        multi.conflict_rate(), multi.superseded_rate(),
        static_cast<double>(multi.covered) / static_cast<double>(kShards),
        base_profile.max_load(), base_profile.imbalance(),
        multi.allocs_per_op);

    SystemReport report{sys->name(), mask, multi, false, {}};
    if (repair) {
      // The read-repair experiment: same draws (repair consumes no rng),
      // so the access counters match the base run by construction, and the
      // whole run must be bit-identical across thread counts like the main
      // section.
      report.has_repair = true;
      report.repaired =
          run_multi_writer(sys, writers, ops_per_shard, threads, true);
      for (const unsigned replay : {1u, 8u}) {
        if (!report.repaired.counters_equal(run_multi_writer(
                sys, writers, ops_per_shard, replay, true))) {
          std::printf("MISMATCH: %s repair aggregates differ at %u threads\n",
                      sys->name().c_str(), replay);
          ok = false;
        }
      }
      if (report.repaired.accesses != multi.accesses) {
        std::printf(
            "MISMATCH: %s repair changed the quorum access counters\n",
            sys->name().c_str());
        ok = false;
      }
      const stats::LoadProfile repaired_profile =
          report.repaired.server_profile();
      std::printf(
          "[repair] system=%s repairs=%" PRIu64
          " repairs/read=%.4f max_load %.4f->%.4f imbalance %.3f->%.3f "
          "superseded_rate %.4f->%.4f\n",
          sys->name().c_str(), report.repaired.repairs,
          report.repaired.reads == 0
              ? 0.0
              : static_cast<double>(report.repaired.repairs) /
                    static_cast<double>(report.repaired.reads),
          base_profile.max_load(), repaired_profile.max_load(),
          base_profile.imbalance(), repaired_profile.imbalance(),
          multi.superseded_rate(), report.repaired.superseded_rate());
    }

    reports.push_back(std::move(report));
  }

  const std::uint64_t draws = ops_per_shard < 8192 ? 32768 : 1u << 20;
  raw_draw_section(make_system(0), draws);
  raw_draw_section(make_system(1), draws);

  if (!opts.json.empty()) {
    write_json(opts.json.c_str(), reports, ops_per_shard, writers, ok);
  }

  std::printf(ok ? "OK: aggregates bit-identical across thread counts\n"
                 : "FAILED: see mismatches above\n");
  return ok ? 0 : 1;
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
