// One shard of the serving tier: one replica::InstantCluster, the per-key
// last-written values (the stale-read oracle), the per-server quorum
// contact counts and the outcome counters. Shard::apply is the one place
// a read is classified stale or ⊥; KvService runs a Shard per ring, and
// run_closed_loop and write_read_pairs below drive one directly, so the
// serving aggregates and the epsilon conformance gates count one event.
// Single-threaded: the counters are a pure function of the request order.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <optional>
#include <unordered_map>
#include <vector>

#include "replica/instant_cluster.h"
#include "stats/load_profile.h"
#include "util/require.h"
#include "workload/open_loop.h"

namespace pqs::serve {

// Membership changes ride the shard rings as in-band requests, so a churn
// event has a definite position in the shard's FIFO request subsequence —
// which is exactly what keeps churned runs inside the bit-identity
// contract: same subsequence, same aggregates, at any worker count.
// kReplace turns over a uniformly random live slot
// (drawn from the cluster's dedicated churn rng); kJoin/kLeave target the
// slot in Request::key.
enum class ChurnKind : std::uint8_t { kNone = 0, kReplace, kJoin, kLeave };

// One routed request. scheduled_ns is the open-loop arrival deadline
// relative to the service epoch (service_now_ns() clock); latency is
// measured from it at completion. ctx/request_id are opaque words the
// completion hook echoes back — the network front end routes them as
// (connection id, wire request id); in-process drivers leave them zero.
struct Request {
  std::uint64_t key = 0;  // churn requests: the slot argument
  std::int64_t value = 0;  // written value (writes only)
  std::uint64_t scheduled_ns = 0;
  std::uint64_t ctx = 0;
  std::uint64_t request_id = 0;
  bool is_read = false;
  bool wants_reply = false;  // invoke the completion hook for this request
  ChurnKind churn = ChurnKind::kNone;
  // Fault-mode flips ride the shard rings the same way churn does: when
  // set, the request switches the server in `key` to this mode
  // (kCorrect heals it) at a definite FIFO position in the shard's
  // request subsequence. Adversarial scenarios are therefore
  // deterministic and replayable — the same submission order produces
  // bit-identical aggregates at any worker count.
  std::optional<replica::FaultMode> fault;
};

// The deterministic per-shard outcome counters: everything here is a pure
// function of the shard's request subsequence (no timings), so it is the
// payload of the bit-identity gates and of the serving tests' committed
// goldens. The counters are listed once; the members (in this order), ==,
// += and the printer all expand from the list, so a new counter is one
// line. The Byzantine and strategy counters stay zero on plain honest
// deployments, so each extended the gate without disturbing it.
// Shard::aggregate() derives access_checksum, membership_epoch and the
// strategy pair from the shard's state when asked.
#define PQS_SHARD_AGGREGATE_FIELDS(X)                                       \
  X(reads)                                                                  \
  X(writes)                                                                 \
  X(stale_reads)        /* read selection != last applied write */          \
  X(empty_reads)        /* no selection, or a never-written key */          \
  X(access_checksum)    /* sum over servers of (u + 1) * contacts[u] */     \
  X(churn_events)       /* membership churn applied in-band */              \
  X(membership_epoch)   /* final view epoch; 0 for static shards */         \
  X(rejected_forgeries) /* replies refused: bad MAC, sub-k vouchers */      \
  X(masked_reads)       /* rejected a reply yet still selected a value */   \
  X(bot_reads)          /* selection was ⊥ */                               \
  X(fault_events)       /* fault-mode flips applied in-band */              \
  X(strategy_draws)     /* alias-table draws (0 without a strategy) */      \
  X(strategy_checksum)  /* ordered fold of (support index, side) draws */

struct ShardAggregate {
#define PQS_AGGREGATE_MEMBER(name) std::uint64_t name = 0;
  PQS_SHARD_AGGREGATE_FIELDS(PQS_AGGREGATE_MEMBER)
#undef PQS_AGGREGATE_MEMBER

  bool operator==(const ShardAggregate& o) const {
    bool equal = true;
#define PQS_AGGREGATE_EQUAL(name) equal = equal && name == o.name;
    PQS_SHARD_AGGREGATE_FIELDS(PQS_AGGREGATE_EQUAL)
#undef PQS_AGGREGATE_EQUAL
    return equal;
  }
  ShardAggregate& operator+=(const ShardAggregate& o) {
#define PQS_AGGREGATE_ADD(name) name += o.name;
    PQS_SHARD_AGGREGATE_FIELDS(PQS_AGGREGATE_ADD)
#undef PQS_AGGREGATE_ADD
    return *this;
  }
};

// Prints every counter by name, in declaration order:
// "{reads=1, writes=2, ...}".
std::ostream& operator<<(std::ostream& os, const ShardAggregate& a);

class Shard {
 public:
  explicit Shard(std::unique_ptr<replica::InstantCluster> cluster);

  // Applies a fault flip, a churn event, a read or a write; false for the
  // first two, which are control traffic. A read is stale when its
  // selection is ⊥ or differs from the value last written to its key; a
  // read of a never-written key is empty, not stale. Allocation-free once
  // every key has been written.
  bool apply(const Request& request);

  // The selection of the last read applied.
  const replica::ReadSelection& selection() const {
    return read_scratch_.selection;
  }

  // The counters, with access_checksum, membership_epoch and the strategy
  // pair derived from the current state.
  ShardAggregate aggregate() const;
  // Measured per-server load: quorum contacts over reads + writes.
  stats::LoadProfile profile() const;

  replica::InstantCluster& cluster() { return *cluster_; }
  const replica::InstantCluster& cluster() const { return *cluster_; }

 private:
  std::unique_ptr<replica::InstantCluster> cluster_;
  std::unordered_map<std::uint64_t, std::int64_t> last_written_;
  std::vector<std::uint64_t> accesses_;  // per-server quorum contacts
  replica::WriteResult write_scratch_;
  replica::ReadResult read_scratch_;
  ShardAggregate counters_;
};

// Applies the next `ops` operations of `gen` to `shard`, each finished
// before the next is drawn: a closed loop, so the generator's arrival
// schedule is ignored.
void run_closed_loop(Shard& shard, workload::OpenLoopGenerator& gen,
                     std::uint64_t ops);

// Counts from write/read pairs on one shard.
struct PairCounts {
  std::uint64_t pairs = 0;
  std::uint64_t stale = 0;       // the read missed the value just written
  std::uint64_t bot = 0;         // the read returned ⊥ (a subset of stale)
  std::uint64_t fabricated = 0;  // the read returned the colluders' forgery
  std::uint64_t checksum = 0;    // the cluster's strategy draw checksum

  bool operator==(const PairCounts& o) const {
    return pairs == o.pairs && stale == o.stale && bot == o.bot &&
           fabricated == o.fabricated && checksum == o.checksum;
  }
  PairCounts& operator+=(const PairCounts& o) {
    pairs += o.pairs;
    stale += o.stale;
    bot += o.bot;
    fabricated += o.fabricated;
    checksum += o.checksum;
    return *this;
  }
};

// `pairs` write/read pairs on variable 1 of a fresh `shard`, values 1, 2,
// ...; `between(cluster)` runs between each write and its read. The stale
// and ⊥ counts are the shard's own counters.
template <class Between>
PairCounts write_read_pairs(Shard& shard, std::uint64_t pairs,
                            Between&& between) {
  PQS_REQUIRE(shard.aggregate() == ShardAggregate{},
              "write/read pairs need a fresh shard");
  const std::int64_t forged = replica::ColludePlan{}.value;
  PairCounts run;
  run.pairs = pairs;
  Request write;
  write.key = 1;
  Request read = write;
  read.is_read = true;
  for (std::uint64_t i = 0; i < pairs; ++i) {
    ++write.value;
    shard.apply(write);
    between(shard.cluster());
    shard.apply(read);
    const replica::ReadSelection& s = shard.selection();
    if (s.has_value && s.record.value == forged) ++run.fabricated;
  }
  const ShardAggregate counts = shard.aggregate();
  run.stale = counts.stale_reads;
  run.bot = counts.bot_reads;
  run.checksum = counts.strategy_checksum;
  return run;
}

inline PairCounts write_read_pairs(Shard& shard, std::uint64_t pairs) {
  return write_read_pairs(shard, pairs, [](replica::InstantCluster&) {});
}

}  // namespace pqs::serve
