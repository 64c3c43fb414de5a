// Probabilistic lock service (the paper's voter-ID locking pattern).
//
// Section 1.1 and [MR98b]: Phalanx built lock objects directly over
// (probabilistic) quorum systems. A lock is a replicated variable holding
// the owner id (0 = free). try_acquire reads the variable through a quorum
// and, if free, writes the caller as owner.
//
// Semantics are deliberately *probabilistic advisory* locking, exactly the
// guarantee the voting application needs: a double-acquire slips through
// only when the read quorum misses every up-to-date server (probability
// <= eps per attempt, independent across attempts), so k repeated attempts
// all succeed with probability <= eps^k — "numerous repeat attempts will be
// detected with virtual certainty". It is not a mutual-exclusion primitive
// for safety-critical sections; the paper's applications do not need one.
#pragma once

#include <cstdint>

#include "replica/instant_cluster.h"

namespace pqs::replica {

class LockService {
 public:
  enum class Outcome {
    kAcquired,      // lock was observed free and has been claimed
    kAlreadyHeld,   // an owner was observed (possibly ourselves)
    kUnavailable,   // the read returned no usable value (masking ⊥)
  };

  // The cluster provides the quorum system, read rule and fault plan; the
  // lock service issues plain variable reads/writes through it.
  explicit LockService(InstantCluster& cluster) : cluster_(cluster) {}

  // Attempts to acquire `lock` for `owner` (owner != 0).
  Outcome try_acquire(VariableId lock, std::uint32_t owner);

  // Releases the lock if the caller is its observed owner. Returns true
  // when a release write was issued.
  bool release(VariableId lock, std::uint32_t owner);

  // Probes the lock state (0 = free / unknown).
  std::uint32_t holder(VariableId lock);

  std::uint64_t rejections() const { return rejections_; }

 private:
  InstantCluster& cluster_;
  std::uint64_t rejections_ = 0;
};

}  // namespace pqs::replica
