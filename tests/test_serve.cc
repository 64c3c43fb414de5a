// serve::KvService — the sharded serving tier end to end.
//
// The load-bearing contract is the determinism gate the bench relies on:
// with a single producer, each shard's aggregate counters are a pure
// function of the request stream, so at every shard-serving worker count
// they must equal the golden values committed below (golden_aggregates.h).
// The rest pins down routing purity, drain completeness (every submitted
// request lands in exactly one histogram slot and one aggregate), the
// stale/empty read accounting against majority quorums (which never read
// stale), and the restart contract (aggregates accumulate across runs,
// reset_latency clears only the histograms). Tier-1 tests run under the
// CI TSan job, so the ring handoff and worker shutdown are race-checked.
#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "core/random_subset_system.h"
#include "golden_aggregates.h"
#include "quorum/threshold.h"
#include "serve/kv_service.h"
#include "workload/open_loop.h"

namespace pqs::serve {
namespace {

std::shared_ptr<const quorum::QuorumSystem> majority(std::uint32_t n = 15) {
  return std::make_shared<quorum::ThresholdSystem>(
      quorum::ThresholdSystem::majority(n));
}

KvService::Config base_config(std::uint32_t shards, std::uint32_t workers) {
  KvService::Config cfg;
  cfg.shards = shards;
  cfg.workers = workers;
  cfg.queue_capacity = 256;
  cfg.quorums = majority();
  cfg.seed = 77;
  return cfg;
}

// Drives `ops` generator operations through a fresh service built from
// `cfg`, from this one thread (the single-producer determinism
// precondition), and returns the per-shard aggregates. `after(service, i)`
// runs after the i-th request is submitted, so a test can interleave
// in-band churn and fault requests at fixed positions.
std::vector<ShardAggregate> run_service(
    const KvService::Config& cfg, std::uint64_t ops,
    const std::function<void(KvService&, std::uint64_t)>& after = {},
    std::uint64_t* histogram_count = nullptr) {
  KvService service(cfg);
  workload::OpenLoopSpec spec;
  spec.keys = 64;
  spec.zipf_exponent = 0.99;
  workload::OpenLoopGenerator gen(spec, 123);
  workload::Operation op;
  Request req;
  service.start();
  for (std::uint64_t i = 0; i < ops; ++i) {
    gen.next(op);
    req.key = op.key;
    req.value = op.value;
    req.scheduled_ns = service.now_ns();
    req.is_read = op.is_read;
    service.submit(req);
    if (after) after(service, i);
  }
  service.stop_and_drain();
  if (histogram_count != nullptr) {
    *histogram_count = service.merged_histogram().count();
  }
  return service.aggregates();
}

// Golden per-shard aggregates, one row per shard with the fields in
// PQS_SHARD_AGGREGATE_FIELDS order. They move only with a deliberate
// change to what the protocol computes, updated in that same change.
const std::vector<ShardAggregate> kPlainGolden = {
    {302, 334, 0, 6, 40638, 0, 0, 0, 0, 6, 0, 0, 0},
    {364, 390, 0, 11, 48057, 0, 0, 0, 0, 11, 0, 0, 0},
    {1109, 1088, 0, 21, 140759, 0, 0, 0, 0, 21, 0, 0, 0},
    {197, 216, 0, 22, 26620, 0, 0, 0, 0, 22, 0, 0, 0},
};
const std::vector<ShardAggregate> kChurnedGolden = {
    {231, 263, 0, 6, 31582, 8, 8, 0, 0, 6, 0, 0, 0},
    {284, 297, 0, 11, 37100, 8, 8, 0, 0, 11, 0, 0, 0},
    {797, 821, 0, 21, 103621, 7, 7, 0, 0, 21, 0, 0, 0},
    {148, 159, 0, 22, 19848, 7, 7, 0, 0, 22, 0, 0, 0},
};
const std::vector<ShardAggregate> kByzantineChurnGolden = {
    {231, 263, 0, 6, 31582, 8, 8, 168, 139, 6, 3, 0, 0},
    {284, 297, 0, 11, 37100, 8, 8, 0, 0, 11, 3, 0, 0},
    {797, 821, 0, 21, 103621, 7, 7, 535, 412, 21, 3, 0, 0},
    {148, 159, 0, 22, 19848, 7, 7, 0, 0, 22, 3, 0, 0},
};
const std::vector<ShardAggregate> kMaskingGolden = {
    {302, 334, 0, 6, 1284527, 0, 0, 4234, 288, 6, 7, 0, 0},
    {364, 390, 0, 11, 1521921, 0, 0, 5171, 350, 11, 7, 0, 0},
    {1109, 1088, 0, 21, 4442289, 0, 0, 15953, 1079, 21, 6, 0, 0},
    {197, 216, 0, 22, 831816, 0, 0, 2407, 168, 22, 6, 0, 0},
};

// Worker count only changes which thread serves a shard, never what the
// shard computes.
TEST(KvService, AggregatesMatchGoldensAtEveryWorkerCount) {
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    EXPECT_TRUE(MatchesGoldens(run_service(base_config(4, workers), 4000),
                               kPlainGolden))
        << "workers=" << workers;
  }
}

TEST(KvService, DrainsEveryRequestExactlyOnce) {
  constexpr std::uint64_t kOps = 3000;
  std::uint64_t recorded = 0;
  const auto aggregates = run_service(base_config(3, 2), kOps, {}, &recorded);
  EXPECT_EQ(recorded, kOps);
  ShardAggregate fold;
  for (const auto& a : aggregates) fold += a;
  EXPECT_EQ(fold.reads + fold.writes, kOps);
  EXPECT_GT(fold.access_checksum, 0u);
}

TEST(KvService, RoutingIsPureAndCoversEveryShard) {
  KvService service(base_config(8, 1));
  std::vector<bool> hit(8, false);
  for (std::uint64_t key = 0; key < 2000; ++key) {
    const std::uint32_t shard = service.shard_of(key);
    ASSERT_LT(shard, 8u);
    EXPECT_EQ(shard, service.shard_of(key));  // pure function of the key
    hit[shard] = true;
  }
  for (std::uint32_t s = 0; s < 8; ++s) {
    EXPECT_TRUE(hit[s]) << "shard " << s << " never routed to";
  }
}

TEST(KvService, MajorityQuorumsReadTheirWritesAcrossRestart) {
  KvService service(base_config(1, 1));
  Request req;
  req.key = 5;
  req.value = 42;
  req.is_read = false;
  service.start();
  service.submit(req);
  service.stop_and_drain();

  // Restart: cluster state persists, so the read run sees the write.
  req.is_read = true;
  service.start();
  service.submit(req);
  service.stop_and_drain();

  const ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.writes, 1u);
  EXPECT_EQ(fold.reads, 1u);
  // Majority quorums always intersect: never stale, never empty.
  EXPECT_EQ(fold.stale_reads, 0u);
  EXPECT_EQ(fold.empty_reads, 0u);
  // Both ops contacted an 8-server majority of the 15-server universe.
  EXPECT_EQ(service.server_profile().samples(), 2u);
  EXPECT_EQ(service.contention_snapshot().totals().writes_accepted, 8u);
  EXPECT_EQ(service.contention_snapshot().totals().reads_served, 8u);
}

TEST(KvService, ReadsBeforeAnyWriteCountAsEmptyNeverStale) {
  KvService service(base_config(2, 1));
  Request req;
  req.is_read = true;
  service.start();
  for (std::uint64_t key = 0; key < 50; ++key) {
    req.key = key;
    service.submit(req);
  }
  service.stop_and_drain();
  const ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.reads, 50u);
  EXPECT_EQ(fold.empty_reads, 50u);
  EXPECT_EQ(fold.stale_reads, 0u);
}

// Membership change under load: a shard's universe reconfigures mid-sweep
// (join, then leave, as in-band churn requests) while the single producer
// keeps writing and reading. Drain stays exactly-once — every *served*
// request lands in the histogram and the aggregates, churn in neither —
// and read-your-writes holds across both epoch bumps: with a 9-of-17
// majority over capacity 17 and 16 slots initially live, every read
// quorum deterministically intersects every surviving write quorum
// (9 + 9 > 17 while the joiner is live, 9 + 8 > 16 after it leaves), so
// no read is ever stale or empty.
TEST(KvService, MembershipChangeUnderLoadKeepsReadYourWrites) {
  KvService::Config cfg = base_config(1, 1);
  cfg.quorums = majority(17);
  cfg.dynamic_membership = true;
  cfg.initial_live = 16;  // slot 16 starts dead, ready to join
  KvService service(cfg);
  Request req;
  service.start();
  auto write = [&](std::uint64_t key) {
    req.key = key;
    req.value = static_cast<std::int64_t>(key) + 1000;
    req.is_read = false;
    service.submit(req);
  };
  auto read = [&](std::uint64_t key) {
    req.key = key;
    req.is_read = true;
    service.submit(req);
  };
  for (std::uint64_t key = 0; key < 20; ++key) write(key);
  service.submit_churn(0, ChurnKind::kJoin, 16);  // epoch 1, live 17
  for (std::uint64_t key = 0; key < 20; ++key) {
    write(20 + key);
    read(key);  // written before the join
    read(20 + key);
  }
  service.submit_churn(0, ChurnKind::kLeave, 16);  // epoch 2, live 16
  for (std::uint64_t key = 0; key < 40; ++key) read(key);
  service.stop_and_drain();

  const ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.writes, 40u);
  EXPECT_EQ(fold.reads, 80u);
  EXPECT_EQ(fold.churn_events, 2u);
  EXPECT_EQ(fold.membership_epoch, 2u);
  // Read-your-writes across the view changes: deterministic intersection.
  EXPECT_EQ(fold.stale_reads, 0u);
  EXPECT_EQ(fold.empty_reads, 0u);
  // Exactly-once drain: served requests in the histogram, churn excluded.
  EXPECT_EQ(service.merged_histogram().count(), 120u);
}

// The bit-identity contract survives churn: a fixed interleaving of
// requests and in-band kReplace events (single producer, so every shard's
// subsequence is fixed) yields the golden aggregates — churn_events and
// final epochs included — at every worker count.
TEST(KvService, ChurnedAggregatesMatchGoldensAtEveryWorkerCount) {
  constexpr std::uint64_t kOps = 3000;
  auto run = [&](std::uint32_t workers) {
    KvService::Config cfg = base_config(4, workers);
    cfg.dynamic_membership = true;
    // One replacement on a rotating shard every 100 requests.
    return run_service(cfg, kOps, [](KvService& service, std::uint64_t i) {
      if (i % 100 == 99) {
        service.submit_churn(static_cast<std::uint32_t>((i / 100) % 4),
                             ChurnKind::kReplace);
      }
    });
  };
  ShardAggregate fold;
  for (const auto& a : kChurnedGolden) fold += a;
  EXPECT_EQ(fold.churn_events, kOps / 100);
  EXPECT_EQ(fold.membership_epoch, kOps / 100);  // every event bumped one
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    EXPECT_TRUE(MatchesGoldens(run(workers), kChurnedGolden))
        << "workers=" << workers;
  }
}

TEST(KvService, ResetLatencyClearsHistogramsButKeepsAggregates) {
  KvService service(base_config(2, 2));
  Request req;
  req.key = 9;
  req.value = 1;
  service.start();
  for (int i = 0; i < 10; ++i) service.submit(req);
  service.stop_and_drain();
  EXPECT_EQ(service.merged_histogram().count(), 10u);

  service.reset_latency();
  EXPECT_EQ(service.merged_histogram().count(), 0u);
  // The deterministic counters are untouched by the latency reset...
  EXPECT_EQ(service.fold_aggregates().writes, 10u);

  // ...and the next run's histogram contains only its own samples while
  // the aggregates keep accumulating.
  service.start();
  for (int i = 0; i < 4; ++i) service.submit(req);
  service.stop_and_drain();
  EXPECT_EQ(service.merged_histogram().count(), 4u);
  EXPECT_EQ(service.fold_aggregates().writes, 14u);
}

// ---- Byzantine faults combined with churn ---------------------------------

// A forging server AND a reconfiguring universe in one run: slot 3 turns
// Byzantine (fabricated records with enormous timestamps) while slot 15
// joins and later leaves, all as in-band requests under a live write/read
// stream. Dissemination reads reject the forgeries, and every view along
// the way keeps deterministic intersection (9-of-16 majority: 9 + 9 > 16
// with 15 or 16 live), so read-your-writes must hold through the whole
// campaign — no stale reads, no empty reads — while the drain stays
// exactly-once (served requests in the histogram; churn and fault events
// in the aggregates only).
TEST(KvService, ByzantineFaultsUnderChurnKeepReadYourWrites) {
  KvService::Config cfg = base_config(1, 1);
  cfg.quorums = majority(16);  // 9-of-16 over capacity 16
  cfg.dynamic_membership = true;
  cfg.initial_live = 15;  // slot 15 starts dead, ready to join
  cfg.read_mode = replica::ReadMode::kDissemination;
  KvService service(cfg);
  Request req;
  service.start();
  auto write = [&](std::uint64_t key) {
    req.key = key;
    req.value = static_cast<std::int64_t>(key) + 1000;
    req.is_read = false;
    service.submit(req);
  };
  auto read = [&](std::uint64_t key) {
    req.key = key;
    req.is_read = true;
    service.submit(req);
  };
  for (std::uint64_t key = 0; key < 20; ++key) write(key);
  // Slot 3 starts forging mid-stream; reads keep consulting it (9 of 15
  // live servers per quorum) and must discard its fabrications.
  service.submit_fault(0, replica::FaultMode::kForge, 3);
  for (std::uint64_t key = 0; key < 20; ++key) {
    write(20 + key);
    read(key);
  }
  service.submit_churn(0, ChurnKind::kJoin, 15);  // epoch 1, live 16
  for (std::uint64_t key = 0; key < 40; ++key) read(key);
  service.submit_fault(0, replica::FaultMode::kCorrect, 3);  // slot 3 heals
  service.submit_churn(0, ChurnKind::kLeave, 15);   // epoch 2, live 15
  for (std::uint64_t key = 0; key < 40; ++key) read(key);
  service.stop_and_drain();

  const ShardAggregate fold = service.fold_aggregates();
  EXPECT_EQ(fold.writes, 40u);
  EXPECT_EQ(fold.reads, 100u);
  EXPECT_EQ(fold.churn_events, 2u);
  EXPECT_EQ(fold.membership_epoch, 2u);
  EXPECT_EQ(fold.fault_events, 2u);
  // The forger sat in many read quorums while active; dissemination
  // rejected every fabricated record it returned.
  EXPECT_GT(fold.rejected_forgeries, 0u);
  // Read-your-writes survived the combined campaign.
  EXPECT_EQ(fold.stale_reads, 0u);
  EXPECT_EQ(fold.empty_reads, 0u);
  // Exactly-once drain: served requests land in the histogram; churn and
  // fault events in neither the histogram nor the request counters.
  EXPECT_EQ(service.merged_histogram().count(), 140u);
}

// The bit-identity contract survives Byzantine faults and churn at once:
// a fixed interleaving of requests, kReplace churn, and forge/heal flips
// (single producer, so every shard's subsequence is fixed) yields
// the golden per-shard aggregates — forgery rejections, fault events,
// churn events, and final epochs included — at every worker count.
TEST(KvService, ByzantineChurnAggregatesMatchGoldensAtEveryWorkerCount) {
  constexpr std::uint64_t kOps = 3000;
  auto run = [&](std::uint32_t workers) {
    KvService::Config cfg = base_config(4, workers);
    cfg.dynamic_membership = true;
    cfg.read_mode = replica::ReadMode::kDissemination;
    return run_service(cfg, kOps, [](KvService& service, std::uint64_t i) {
      // One replacement on a rotating shard every 100 requests...
      if (i % 100 == 99) {
        service.submit_churn(static_cast<std::uint32_t>((i / 100) % 4),
                             ChurnKind::kReplace);
      }
      // ...and a forge/heal flip of a rotating slot every 250.
      if (i % 250 == 249) {
        const auto flip = i / 250;
        service.submit_fault(static_cast<std::uint32_t>(flip % 4),
                             (flip % 2) == 0 ? replica::FaultMode::kForge
                                             : replica::FaultMode::kCorrect,
                             flip % 3);
      }
    });
  };
  ShardAggregate fold;
  for (const auto& a : kByzantineChurnGolden) fold += a;
  EXPECT_EQ(fold.churn_events, kOps / 100);
  EXPECT_EQ(fold.fault_events, kOps / 250);
  EXPECT_GT(fold.rejected_forgeries, 0u);
  EXPECT_EQ(fold.reads + fold.writes, kOps);
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    EXPECT_TRUE(MatchesGoldens(run(workers), kByzantineChurnGolden))
        << "workers=" << workers;
  }
}

// ---- Masking reads under collusion and live fault flips -------------------

// Section 5's deployment: R(100, 40), masking reads with k = 8 and four
// colluding servers, under a Zipf stream while in-band flips rotate five
// slots (two colluders, three correct servers) through stale replay,
// forgery and healing. Sub-threshold voucher groups, ⊥ reads, a healed
// colluder that holds no current record yet, and stale replay of
// first-ever records all feed the aggregate, which must equal the golden
// at every worker count.
TEST(KvService, MaskingAggregatesMatchGoldensAtEveryWorkerCount) {
  constexpr std::uint64_t kOps = 4000;
  static constexpr replica::FaultMode kFlipCycle[] = {
      replica::FaultMode::kStaleReplay, replica::FaultMode::kForge,
      replica::FaultMode::kCorrect};
  auto run = [&](std::uint32_t workers) {
    KvService::Config cfg = base_config(4, workers);
    cfg.quorums = std::make_shared<core::RandomSubsetSystem>(100, 40);
    cfg.read_mode = replica::ReadMode::kMasking;
    cfg.read_threshold = 8;
    cfg.faults =
        replica::FaultPlan::prefix(100, 4, replica::FaultMode::kCollude);
    // Every 150 requests, slot 2 + flip % 5 on a rotating shard moves one
    // step along stale replay -> forge -> correct.
    return run_service(cfg, kOps, [](KvService& service, std::uint64_t i) {
      if (i % 150 == 149) {
        const auto flip = i / 150;
        service.submit_fault(static_cast<std::uint32_t>(flip % 4),
                             kFlipCycle[(flip / 5) % 3], 2 + flip % 5);
      }
    });
  };
  ShardAggregate fold;
  for (const auto& a : kMaskingGolden) fold += a;
  EXPECT_EQ(fold.reads + fold.writes, kOps);
  EXPECT_EQ(fold.fault_events, kOps / 150);
  EXPECT_GT(fold.rejected_forgeries, 0u);
  EXPECT_GT(fold.masked_reads, 0u);
  for (const std::uint32_t workers : {1u, 2u, 8u}) {
    EXPECT_TRUE(MatchesGoldens(run(workers), kMaskingGolden))
        << "workers=" << workers;
  }
}

}  // namespace
}  // namespace pqs::serve
