// End-to-end protocol throughput: the replica stack under load.
//
// Drives N independent serve::Shards (each a full server set plus a
// single-writer closed loop) over a worker pool, running a Zipfian
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
// shard; default 100000), --json=PATH (machine-readable report: ops/s,
// allocs/op, conflict rates, per-server contention counters and load
// profiles, the dispatched SIMD kernel, and the gates — CI archives it as
// BENCH_protocol.json and gates it with bench/check_regression.py against
// bench/protocol_baseline.json).
//
// The multi-writer section measures timestamp-conflict behaviour under
// contention: 4 writers per shard interleave on the same Zipfian key
// space, and a write "conflicts" when it completes with a timestamp below
// the key's current maximum — it lost the ordering race, and every server
// that already holds the newer record ignores it (the standard (seq <<
// 16) | writer multi-writer extension; the paper's single-writer semantics
// are the default section above). The section reports the server-side
// observability layer: per-server writes_superseded counters
// (stats::ContentionSnapshot) and the measured per-server load profile
// (stats::LoadProfile over server contacts). The section then repeats with
// read repair: reads push the selected record back to quorum members that
// answered stale (InstantCluster::read_repair_into); repair consumes no
// rng draws, so the quorum streams are unchanged and the profile shift is
// purely the repair traffic. The repair run is verified bit-identical
// across thread counts, like the main section.
//
// Gates: replay.<system>, replay.<system>.repair, repair_accesses.<system>,
// and the repair report's superseded_per_server.<system> and
// load_profile.<system>.
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <optional>
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
#include "workload/open_loop.h"

namespace pqs {
namespace {

using replica::InstantCluster;

constexpr std::uint32_t kShards = 8;
// Contending writers per shard in the multi-writer section: with one
// writer, timestamps are strictly increasing and the conflict metrics are
// identically zero.
constexpr std::uint32_t kWriters = 4;

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

bench::RunOutcome run_shards(
    const std::shared_ptr<const quorum::QuorumSystem>& sys,
    std::uint64_t ops_per_shard, unsigned threads) {
  workload::OpenLoopSpec spec;
  spec.keys = 64;
  spec.zipf_exponent = 0.99;
  spec.read_fraction = 0.5;

  std::vector<std::unique_ptr<InstantCluster>> clusters;
  clusters.reserve(kShards);
  for (std::uint32_t s = 0; s < kShards; ++s) {
    InstantCluster::Config cfg;
    cfg.quorums = sys;
    cfg.seed = 1000003ULL * (s + 1);
    clusters.push_back(std::make_unique<InstantCluster>(cfg));
  }
  // Each shard is built on its pool thread, inside the timed region, so
  // allocs/op counts its contact counters with the rest of its run state.
  std::vector<std::optional<serve::Shard>> shards(kShards);

  util::WorkerPool pool(threads);
  const std::uint64_t before = bench::allocations();
  const auto t0 = std::chrono::steady_clock::now();
  pool.run(kShards, [&](std::uint64_t s) {
    serve::Shard& shard = shards[s].emplace(std::move(clusters[s]));
    workload::OpenLoopGenerator gen(spec, 7777 + s);
    serve::run_closed_loop(shard, gen, ops_per_shard);
  });
  const auto t1 = std::chrono::steady_clock::now();
  const std::uint64_t after = bench::allocations();

  // Folded in index order (the checksum is position-weighted).
  bench::RunOutcome result;
  for (const auto& shard : shards) result.fold += shard->aggregate();
  result.ops = ops_per_shard * kShards;
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
  // traffic — the load profile that shifts in the repair run.
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
    std::uint64_t ops_per_shard, unsigned threads, bool repair) {
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
            1 + static_cast<std::uint32_t>(out.writes % kWriters);
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

// One multi-writer JSON object: rates, repair count, the measured
// server-side load profile, and the per-server superseded counters.
void multi_writer_json(bench::Json& out, const MultiWriterResult& m,
                       double total_ops) {
  const stats::LoadProfile profile = m.server_profile();
  out.integer("writers", kWriters)
      .number("ops_per_sec", total_ops / m.seconds)
      .number("conflict_rate", m.conflict_rate(), "%.6f")
      .number("superseded_rate", m.superseded_rate(), "%.6f")
      .integer("repairs", m.repairs)
      .number("allocs_per_op", m.allocs_per_op, "%.4f");
  bench::Json& load = out.object("load_profile")
                          .number("max_load", profile.max_load(), "%.6f")
                          .number("mean_load", profile.mean_load(), "%.6f")
                          .number("imbalance", profile.imbalance(), "%.4f");
  bench::Json& top = load.array("top");
  for (const auto& t : profile.hottest(5)) {
    top.object().integer("server", t.server).number("load", t.load, "%.6f");
  }
  bench::Json& per_server = out.array("superseded_per_server");
  for (const auto& c : m.contention.per_server()) {
    per_server.integer({}, c.writes_superseded);
  }
}

int main_impl(int argc, char** argv) {
  const auto opts = bench::parse_options(argc, argv);
  const std::uint64_t ops_per_shard = opts.samples_or(100000);
  const unsigned threads = opts.threads;

  std::printf(
      "protocol_throughput: %u shards x %" PRIu64
      " ops, zipf(0.99) over 64 keys, 50%% reads, simd=%s\n",
      kShards, ops_per_shard, simd::active().name);

  bench::Report report("protocol_throughput");
  report.json.integer("shards", kShards)
      .integer("ops_per_shard", ops_per_shard)
      .integer("writers", kWriters);
  bench::Json& systems = report.json.array("systems");
  const double total_ops =
      static_cast<double>(ops_per_shard) * static_cast<double>(kShards);
  for (int which = 0; which < 3; ++which) {
    const auto sys = make_system(which);
    const std::string name = sys->name();
    // Thread scheduling must not be able to change the fold.
    const bench::RunOutcome mask = bench::replay_gate(
        report, name, threads,
        [&](unsigned t) { return run_shards(sys, ops_per_shard, t); },
        [](const bench::RunOutcome& a, const bench::RunOutcome& b) {
          return a.fold == b.fold;
        });
    std::printf(
        "[protocol] system=%s ops/sec=%.3g allocs/op=%.2f stale=%" PRIu64
        " checksum=%" PRIu64 "\n",
        name.c_str(), mask.ops_per_sec(), mask.allocs_per_op,
        mask.fold.stale_reads, mask.fold.access_checksum);

    const MultiWriterResult multi =
        run_multi_writer(sys, ops_per_shard, threads, false);
    const stats::LoadProfile base_profile = multi.server_profile();
    std::printf(
        "[multiwriter] system=%s writers=%u ops/sec=%.3g conflict_rate=%.4f "
        "superseded_rate=%.4f coverage=%.1f max_load=%.4f imbalance=%.3f "
        "allocs/op=%.2f\n",
        name.c_str(), kWriters, total_ops / multi.seconds,
        multi.conflict_rate(), multi.superseded_rate(),
        static_cast<double>(multi.covered) / static_cast<double>(kShards),
        base_profile.max_load(), base_profile.imbalance(),
        multi.allocs_per_op);

    // The read-repair experiment: same draws (repair consumes no rng), so
    // the access counters match the base run by construction, and the
    // whole run must be bit-identical across thread counts like the main
    // section.
    const MultiWriterResult repaired = bench::replay_gate(
        report, name + ".repair", threads,
        [&](unsigned t) {
          return run_multi_writer(sys, ops_per_shard, t, true);
        },
        [](const MultiWriterResult& a, const MultiWriterResult& b) {
          return a.counters_equal(b);
        });
    report.gate("repair_accesses." + name, repaired.accesses == multi.accesses,
                "repair changed the quorum access counters");
    const stats::LoadProfile repaired_profile = repaired.server_profile();
    report.gate("superseded_per_server." + name,
                !repaired.contention.per_server().empty(),
                "the repair run has no per-server contention counters");
    report.gate("load_profile." + name, repaired_profile.max_load() > 0.0,
                "the repair run's load profile is empty");
    std::printf(
        "[repair] system=%s repairs=%" PRIu64
        " repairs/read=%.4f max_load %.4f->%.4f imbalance %.3f->%.3f "
        "superseded_rate %.4f->%.4f\n",
        name.c_str(), repaired.repairs,
        repaired.reads == 0 ? 0.0
                            : static_cast<double>(repaired.repairs) /
                                  static_cast<double>(repaired.reads),
        base_profile.max_load(), repaired_profile.max_load(),
        base_profile.imbalance(), repaired_profile.imbalance(),
        multi.superseded_rate(), repaired.superseded_rate());

    bench::Json& out = systems.object().text("name", name);
    out.object("mask")
        .number("ops_per_sec", mask.ops_per_sec())
        .number("allocs_per_op", mask.allocs_per_op, "%.4f");
    multi_writer_json(out.object("multi_writer"), multi, total_ops);
    multi_writer_json(out.object("multi_writer_repair"), repaired, total_ops);
  }

  const std::uint64_t draws = ops_per_shard < 8192 ? 32768 : 1u << 20;
  raw_draw_section(make_system(0), draws);
  raw_draw_section(make_system(1), draws);

  return report.finish(opts, "aggregates bit-identical across thread counts");
}

}  // namespace
}  // namespace pqs

int main(int argc, char** argv) { return pqs::main_impl(argc, argv); }
