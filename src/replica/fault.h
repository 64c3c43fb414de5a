// Failure injection: crash and Byzantine behaviours (Section 2's model).
//
// Up to b servers may deviate arbitrarily; clients are correct. The concrete
// Byzantine behaviours implemented here cover the attack surface the paper's
// analysis is about:
//
//   kCrash      — halts: no replies, no state changes (benign).
//   kSuppress   — stays silent on reads/writes but is "up" (Byzantine
//                 omission; the worst case for dissemination availability).
//   kStaleReplay— answers reads with the oldest record it ever held and
//                 refuses updates. Against self-verifying data this is the
//                 strongest attack other than suppression: the replayed
//                 record carries a *valid* tag, only its timestamp is old.
//   kForge      — fabricates a record with an enormous timestamp and a junk
//                 tag. Detected under dissemination (tag check), dangerous
//                 for plain reads.
//   kCollude    — all colluders return the *same* fabricated record
//                 (coordinated value, timestamp, tag). This is the attack
//                 the masking threshold k is sized against: it succeeds only
//                 when >= k colluders land in the read quorum, an event of
//                 probability P(|Q ∩ B| >= k) (Lemma 5.7).
#pragma once

#include <cstdint>
#include <vector>

#include "replica/message.h"

namespace pqs::replica {

enum class FaultMode : std::uint8_t {
  kCorrect,
  kCrash,
  kSuppress,
  kStaleReplay,
  kForge,
  kCollude,
};

const char* fault_mode_name(FaultMode mode);

// The value colluders agree to push (shared by every kCollude server).
struct ColludePlan {
  std::int64_t value = -777;
  std::uint64_t timestamp = ~0ULL >> 8;  // astronomically fresh
  std::uint64_t tag = 0xdeadbeefcafef00dULL;

  crypto::SignedRecord forged(VariableId variable) const;
};

// Assigns a mode to every server in the universe.
class FaultPlan {
 public:
  // All-correct plan.
  explicit FaultPlan(std::uint32_t n);

  // The first `count` servers get `mode`. Under the uniform constructions
  // (threshold, R(n, q)) every placement of the faulty servers is
  // statistically identical by symmetry, so the prefix loses no
  // generality there.
  static FaultPlan prefix(std::uint32_t n, std::uint32_t count,
                          FaultMode mode);

  std::uint32_t size() const {
    return static_cast<std::uint32_t>(modes_.size());
  }
  FaultMode mode(std::uint32_t server) const { return modes_.at(server); }
  void set_mode(std::uint32_t server, FaultMode mode);

 private:
  std::vector<FaultMode> modes_;
};

}  // namespace pqs::replica
