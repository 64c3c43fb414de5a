// The Monte-Carlo engine: a sharded, deterministic map-reduce runner.
//
// Every estimator in this library follows the same shape — draw N
// independent trials, accumulate a statistic, reduce. run_trials()
// factors that shape out once: the N trials are split over a *fixed* grid
// of shards (independent of the thread count), shard i draws from a
// private RNG substream obtained by jumping a fork of the caller's
// generator i times (math::Rng::jump — 2^128 steps, so substreams never
// overlap), shards execute on a worker pool, and the per-shard results are
// folded in shard order. Consequences:
//
//   * results are a pure function of (caller RNG state, samples, shards) —
//     bit-for-bit identical for 1, 4, or 64 threads, and — because every
//     per-shard body computes through the runtime-dispatched kernel layer
//     (simd/kernels.h), whose tables are bit-identical by contract — on
//     any ISA the dispatcher selects;
//   * the caller's generator advances exactly once (the fork), so
//     back-to-back estimates from one generator stay independent;
//   * throughput scales with the pool size until memory bandwidth wins.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "math/rng.h"
#include "util/worker_pool.h"

namespace pqs::core {

struct EstimatorOptions {
  // Degree of parallelism (including the calling thread);
  // 0 = hardware concurrency.
  unsigned threads = 0;
  // Fixed work split. Part of the result's identity: changing the shard
  // count changes which substream serves which trial (results stay
  // statistically equivalent but not bit-identical). Keep it comfortably
  // above any realistic thread count so scheduling stays balanced.
  std::uint32_t shards = 64;
};

class Estimator {
 public:
  using Options = EstimatorOptions;

  explicit Estimator(Options options = {});

  unsigned threads() const { return pool_.threads(); }
  std::uint32_t shards() const { return shards_; }

  // Process-wide default engine (hardware concurrency, default shards).
  static Estimator& shared();

  /// Runs `samples` trials split across the fixed shard grid and reduces
  /// the per-shard results deterministically.
  ///
  /// \tparam R         per-shard (and final) result type; shards start
  ///                   from a value-initialized `R{}`.
  /// \param samples    total trials, split as evenly as the grid allows.
  /// \param rng        the caller's generator; advanced exactly once (one
  ///                   fork seeds every shard substream), so back-to-back
  ///                   estimates stay independent.
  /// \param per_shard  called as per_shard(i, shard_samples, shard_rng)
  ///                   -> R from a pool thread; shard_rng is the shard's
  ///                   private, non-overlapping substream.
  /// \param reduce     called as reduce(acc, part) in shard index order.
  /// \return the fold of every shard's result — a pure function of
  ///         (caller RNG state, samples, shard count), bit-identical at
  ///         any thread count.
  template <typename R, typename PerShard, typename Reduce>
  R run_trials(std::uint64_t samples, math::Rng& rng, PerShard&& per_shard,
               Reduce&& reduce) {
    std::vector<math::Rng> rngs = substreams(rng);
    std::vector<R> parts(shards_, R{});
    const std::uint64_t base = samples / shards_;
    const std::uint64_t extra = samples % shards_;
    pool_.run(shards_, [&](std::uint64_t i) {
      const std::uint64_t shard_samples = base + (i < extra ? 1 : 0);
      // The shard draws from a copy in this pool thread's frame: rngs
      // packs two generators to a cache line, so drawing from rngs[i]
      // would have two threads' shards write one line on every draw.
      math::Rng shard_rng = rngs[i];
      parts[i] = per_shard(static_cast<std::uint32_t>(i), shard_samples,
                           shard_rng);
    });
    R acc{};
    for (auto& part : parts) reduce(acc, std::move(part));
    return acc;
  }

 private:
  // Shard generators: fork the caller's rng once, then peel off one
  // substream per shard.
  std::vector<math::Rng> substreams(math::Rng& rng) const;

  std::uint32_t shards_;
  util::WorkerPool pool_;
};

}  // namespace pqs::core
