// Epoch-stamped dynamic membership views.
//
// The paper's constructions fix the universe once; a deployment under churn
// does not. A MembershipView is the unit of dynamic membership the replica
// stack diffuses and draws quorums from: a fixed *slot* universe of
// `capacity` servers (so bitsets, per-server counters, and access checksums
// keep their indexing across churn), a live mask selecting the slots that
// currently hold a member, and a generation counter (`epoch`) bumped by
// every membership change.
//
// Views form a join-semilattice so gossip can diffuse them without
// coordination: merge() adopts the higher epoch wholesale and unions the
// masks of equal epochs — commutative, associative, and idempotent, so
// any diffusion order converges every correct server to the supremum of
// the views it has seen (test_membership_view fuzzes this).
//
// Quorum draws over a view pick a uniform q-subset of the *live* slots —
// the R(n, q) strategy of Definition 3.13 over the current universe, which
// is exactly the regime the timed-quorum analysis of Gramoli & Raynal
// models (core/timed_epsilon.h). The draw happens over the compact rank
// universe [0, live_count()) and is expanded through the live mask
// (QuorumBitset::or_expand), so sample_live_mask and its sorted-vector
// oracle sample_live_into consume identical rng streams — and, when every
// slot is live, the same stream as core::RandomSubsetSystem over the full
// universe.
#pragma once

#include <cstdint>
#include <vector>

#include "math/rng.h"
#include "quorum/bitset.h"
#include "quorum/types.h"

namespace pqs::quorum {

class MembershipView {
 public:
  // The empty view: capacity 0, epoch 0. A server holding it has not
  // learned any membership yet (gossip skips pushing it).
  MembershipView() = default;

  // `capacity` slots with the first `live` of them occupied, epoch 0.
  MembershipView(std::uint32_t capacity, std::uint32_t live);

  // All `capacity` slots live, epoch 0.
  static MembershipView full(std::uint32_t capacity) {
    return MembershipView(capacity, capacity);
  }

  std::uint32_t capacity() const { return live_.universe_size(); }
  std::uint64_t epoch() const { return epoch_; }
  std::uint32_t live_count() const { return live_count_; }
  bool is_live(ServerId slot) const { return live_.test(slot); }
  const QuorumBitset& live_mask() const { return live_; }

  // Membership changes: each bumps the epoch by exactly one (replace is
  // one reconfiguration, not two). join requires a dead slot, leave a
  // live one; replace additionally accepts joiner == victim — the
  // in-place slot reuse of a fixed-size fleet under churn, where the
  // membership *mask* is unchanged but the epoch still advances because
  // the slot's occupant (and its stored records) is new.
  void join(ServerId slot);
  void leave(ServerId slot);
  void replace(ServerId victim, ServerId joiner);

  // Lattice join: adopts `other` wholesale when its epoch is higher,
  // unions the live masks when epochs are equal (capacities must match;
  // merging with the empty view is a no-op). Returns whether *this
  // changed. Commutative, associative, idempotent.
  bool merge(const MembershipView& other);

  bool equals(const MembershipView& other) const;

  // The slot holding the rank-th live member, ranks ascending by slot id
  // (rank < live_count()).
  ServerId nth_live(std::uint32_t rank) const;

  // Draws a uniform q-subset of the live slots into `out` (resized to
  // capacity, overwritten). The draw runs over the compact rank universe
  // [0, live_count()) via math::sample_without_replacement_bits into
  // `compact_scratch` (resized as needed, zeroed here) and is expanded
  // through the live mask, so it consumes exactly the rng draws of
  // sample_live_into — the two are the view-aware twins of
  // sample_mask/sample on a static construction.
  void sample_live_mask(std::uint32_t q, math::Rng& rng, QuorumBitset& out,
                        std::vector<std::uint64_t>& compact_scratch) const;

  // Allocating twin: `out` holds the drawn members as sorted slot ids.
  // Same rng consumption and member set as sample_live_mask.
  void sample_live_into(std::uint32_t q, math::Rng& rng, Quorum& out) const;

 private:
  QuorumBitset live_;
  std::uint32_t live_count_ = 0;
  std::uint64_t epoch_ = 0;
};

}  // namespace pqs::quorum
