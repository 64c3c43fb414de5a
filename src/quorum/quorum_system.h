// The QuorumSystem interface.
//
// A quorum system is a set system over a universe of n servers together with
// an access strategy w (Definitions 2.1-2.3). Code that uses quorums — the
// replication protocols, the Monte-Carlo verifiers, the bench harness — only
// needs to (a) sample a quorum according to w, (b) ask for the analytic
// quality measures of Section 2: load, fault tolerance, failure probability.
//
// Strict systems (src/quorum) guarantee pairwise intersection; probabilistic
// systems (src/core) guarantee intersection only with probability >= 1 - eps
// under their strategy. Both implement this interface.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "math/rng.h"
#include "quorum/bitset.h"
#include "quorum/types.h"

namespace pqs::quorum {

class QuorumSystem {
 public:
  virtual ~QuorumSystem() = default;

  // Human-readable construction name, e.g. "threshold(n=100,q=51)".
  virtual std::string name() const = 0;

  // |U|.
  virtual std::uint32_t universe_size() const = 0;

  // Draws one quorum according to the system's access strategy w.
  //
  // Every construction implements two draws, and for any fixed rng state
  // both yield the same member set while consuming the same rng draws, so
  // they are freely interchangeable inside seeded experiments:
  // sample_into() is the sorted reference, and sample_mask() the fast path
  // the protocol stack and the estimators draw with. sample() is
  // sample_into() into a fresh vector.
  virtual Quorum sample(math::Rng& rng) const;

  // Draws one quorum into `out` (overwritten, sorted; no allocation once
  // `out` has the capacity).
  virtual void sample_into(Quorum& out, math::Rng& rng) const = 0;

  // Draws one quorum as a bitset: `out` is resized to the universe and
  // holds exactly the members of the drawn quorum. This is the native
  // representation of the Monte-Carlo hot loops — constructions set bits
  // (or whole words) directly, skipping the sorted-vector round trip.
  virtual void sample_mask(QuorumBitset& out, math::Rng& rng) const = 0;

  /// Draws `count` quorums into out[0..count), in draw order.
  ///
  /// \param out   `count` bitsets (owned, or quorum::MaskBatch views over
  ///              one flat buffer); each is resized to the universe and
  ///              overwritten with one drawn quorum.
  /// \param count quorums to draw.
  /// \param rng   consumed exactly as `count` successive sample_mask()
  ///              calls would consume it — batching changes dispatch
  ///              cost, never the stream, so results are independent of
  ///              the chunk size a caller picks.
  ///
  /// The default loops sample_mask; constructions whose mask fill is
  /// non-virtual override to pay one virtual call per batch instead of
  /// one per draw (the estimators and the protocol throughput harness
  /// draw in chunks through this entry point).
  virtual void sample_masks(QuorumBitset* out, std::size_t count,
                            math::Rng& rng) const;

  // c(Q): size of the smallest quorum.
  virtual std::uint32_t min_quorum_size() const = 0;

  // Load L induced by the system's strategy (Definition 2.4 / 3.3). All the
  // constructions in this library are symmetric enough that the load of the
  // shipped strategy is known in closed form.
  virtual double load() const = 0;

  // Crash fault tolerance A (Definition 2.5; Definition 3.7 for
  // probabilistic systems, where it is computed over high-quality quorums).
  virtual std::uint32_t fault_tolerance() const = 0;

  // F_p (Definition 2.6 / 3.8): probability that no (high-quality) quorum is
  // fully alive when servers crash independently with probability p.
  virtual double failure_probability(double p) const = 0;

  // True iff some (high-quality) quorum survives given the alive mask
  // (alive.size() == universe_size()). Drives the generic Monte-Carlo
  // failure-probability estimator, which cross-checks failure_probability().
  virtual bool has_live_quorum(const std::vector<bool>& alive) const = 0;

  // As above over a bitset (alive.universe_size() == universe_size()), so
  // the failure-probability hot loop stays word-parallel end to end. Both
  // overloads must agree on every mask.
  virtual bool has_live_quorum_mask(const QuorumBitset& alive) const = 0;
};

}  // namespace pqs::quorum
