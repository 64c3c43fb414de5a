#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <tuple>
#include <vector>

#include "crypto/mac.h"
#include "math/rng.h"
#include "replica/read_rules.h"
#include "replica/server.h"

namespace pqs::replica {
namespace {

crypto::Signer test_signer() { return crypto::Signer::from_seed(2024); }

Server make_server(std::uint32_t id, FaultMode mode) {
  return Server(id, mode, math::Rng(id + 1),
                std::make_shared<const ColludePlan>());
}

ReadReply reply_of(const std::vector<Outbound>& out) {
  EXPECT_EQ(out.size(), 1u);
  const auto* r = std::get_if<ReadReply>(&out[0].message);
  EXPECT_NE(r, nullptr);
  return *r;
}

TEST(Server, CorrectWriteReadRoundTrip) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto rec = test_signer().sign(1, 42, 100, 1);
  const auto acks = server.process(99, WriteRequest{5, rec});
  ASSERT_EQ(acks.size(), 1u);
  EXPECT_EQ(acks[0].to, 99u);
  const auto* ack = std::get_if<WriteAck>(&acks[0].message);
  ASSERT_NE(ack, nullptr);
  EXPECT_EQ(ack->op, 5u);

  const auto r = reply_of(server.process(99, ReadRequest{6, 1}));
  EXPECT_TRUE(r.has_value);
  EXPECT_EQ(r.record.value, 42);
  EXPECT_EQ(r.record.timestamp, 100u);
}

TEST(Server, ReadOfUnknownVariableIsEmpty) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto r = reply_of(server.process(7, ReadRequest{1, 999}));
  EXPECT_FALSE(r.has_value);
}

TEST(Server, KeepsHighestTimestampOnly) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto signer = test_signer();
  server.process(1, WriteRequest{1, signer.sign(1, 10, 200, 1)});
  server.process(1, WriteRequest{2, signer.sign(1, 20, 100, 1)});  // older
  const auto r = reply_of(server.process(1, ReadRequest{3, 1}));
  EXPECT_EQ(r.record.value, 10);
  EXPECT_EQ(r.record.timestamp, 200u);
  server.process(1, WriteRequest{4, signer.sign(1, 30, 300, 1)});  // newer
  const auto r2 = reply_of(server.process(1, ReadRequest{5, 1}));
  EXPECT_EQ(r2.record.value, 30);
}

TEST(Server, CrashedServerIsSilent) {
  auto server = make_server(0, FaultMode::kCrash);
  EXPECT_TRUE(server.process(1, WriteRequest{1, test_signer().sign(1, 1, 1, 1)})
                  .empty());
  EXPECT_TRUE(server.process(1, ReadRequest{2, 1}).empty());
}

TEST(Server, SuppressingServerIsSilentButTracked) {
  auto server = make_server(0, FaultMode::kSuppress);
  EXPECT_TRUE(server.process(1, WriteRequest{1, test_signer().sign(1, 1, 1, 1)})
                  .empty());
  EXPECT_TRUE(server.process(1, ReadRequest{2, 1}).empty());
}

TEST(Server, StaleReplayServesFirstValueWithValidTag) {
  auto server = make_server(0, FaultMode::kStaleReplay);
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  server.process(1, WriteRequest{1, signer.sign(1, 10, 100, 1)});
  server.process(1, WriteRequest{2, signer.sign(1, 20, 200, 1)});
  const auto r = reply_of(server.process(1, ReadRequest{3, 1}));
  ASSERT_TRUE(r.has_value);
  EXPECT_EQ(r.record.value, 10);         // the stale value
  EXPECT_EQ(r.record.timestamp, 100u);   // with its honest old timestamp
  EXPECT_TRUE(verifier.verify(r.record));  // and a *valid* tag
}

TEST(Server, ForgeProducesInvalidTagAndHugeTimestamp) {
  auto server = make_server(0, FaultMode::kForge);
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  server.process(1, WriteRequest{1, signer.sign(1, 10, 100, 1)});
  const auto r = reply_of(server.process(1, ReadRequest{2, 1}));
  ASSERT_TRUE(r.has_value);
  EXPECT_GT(r.record.timestamp, 100u);
  EXPECT_FALSE(verifier.verify(r.record));
}

TEST(Server, ColludersAgreeOnForgedRecord) {
  const auto plan = std::make_shared<const ColludePlan>();
  Server a(0, FaultMode::kCollude, math::Rng(1), plan);
  Server b(1, FaultMode::kCollude, math::Rng(2), plan);
  const auto signer = test_signer();
  a.process(9, WriteRequest{1, signer.sign(1, 10, 100, 1)});
  b.process(9, WriteRequest{2, signer.sign(1, 10, 100, 1)});
  const auto ra = reply_of(a.process(9, ReadRequest{3, 1}));
  const auto rb = reply_of(b.process(9, ReadRequest{4, 1}));
  EXPECT_EQ(ra.record, rb.record);  // identical lie
  EXPECT_EQ(ra.record.value, plan->forged(1).value);
}

TEST(Server, AdoptIsMonotone) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto signer = test_signer();
  EXPECT_TRUE(server.adopt(signer.sign(1, 5, 50, 1)));
  EXPECT_FALSE(server.adopt(signer.sign(1, 4, 40, 1)));   // older
  EXPECT_FALSE(server.adopt(signer.sign(1, 5, 50, 1)));   // equal
  EXPECT_TRUE(server.adopt(signer.sign(1, 6, 60, 1)));
  EXPECT_EQ(server.find(1)->value, 6);
}

TEST(Server, GossipAdoptionRespectsVerifier) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto signer = test_signer();
  server.set_gossip_verifier(crypto::Verifier(signer.key()));
  // Valid gossip adopted.
  server.process(1, Message{GossipPush{signer.sign(1, 7, 70, 1)}});
  ASSERT_NE(server.find(1), nullptr);
  EXPECT_EQ(server.find(1)->value, 7);
  // Forged gossip (bad tag) rejected.
  auto fake = signer.sign(1, 8, 80, 1);
  fake.tag ^= 1;
  server.process(1, Message{GossipPush{fake}});
  EXPECT_EQ(server.find(1)->value, 7);
}

TEST(Server, GossipRecordsPerMode) {
  const auto signer = test_signer();
  const auto rec = signer.sign(1, 10, 100, 1);
  for (auto mode : {FaultMode::kCorrect, FaultMode::kStaleReplay,
                    FaultMode::kForge, FaultMode::kCollude}) {
    auto server = make_server(0, mode);
    server.process(1, WriteRequest{1, rec});
    const auto records = server.gossip_records();
    ASSERT_EQ(records.size(), 1u) << fault_mode_name(mode);
    if (mode == FaultMode::kCorrect || mode == FaultMode::kStaleReplay) {
      EXPECT_EQ(records[0], rec);
    } else {
      EXPECT_NE(records[0], rec);
    }
  }
  for (auto mode : {FaultMode::kCrash, FaultMode::kSuppress}) {
    auto server = make_server(0, mode);
    server.process(1, WriteRequest{1, rec});
    EXPECT_TRUE(server.gossip_records().empty()) << fault_mode_name(mode);
  }
}

// serve_read writes into a reply the caller may be reusing (InstantCluster
// keeps one reply scratch across reads), so every mode must overwrite every
// field it promises, and a server with nothing to serve must clear the
// record as well as the flag.
TEST(Server, ServeReadOverwritesEveryFieldOfAReusedReply) {
  const auto signer = test_signer();
  const auto plan = std::make_shared<const ColludePlan>();
  const auto stored = signer.sign(1, 10, 100, 1);
  const crypto::SignedRecord zero{};
  // Reads `variable` into a reply pre-filled with junk in every field and
  // checks the two fields every mode sets.
  const auto read_over_junk = [](Server& server, VariableId variable,
                                 bool& answered) {
    ReadReply reply;
    reply.op = 0xdead;
    reply.server = 0xbeef;
    reply.has_value = true;
    reply.record = crypto::SignedRecord{77, -5, 999, 3, 0x1234};
    answered = server.serve_read(ReadRequest{42, variable}, reply);
    EXPECT_EQ(reply.op, 42u);
    EXPECT_EQ(reply.server, server.id());
    return reply;
  };
  for (const FaultMode mode :
       {FaultMode::kCorrect, FaultMode::kCrash, FaultMode::kSuppress,
        FaultMode::kStaleReplay, FaultMode::kForge, FaultMode::kCollude}) {
    SCOPED_TRACE(fault_mode_name(mode));
    Server server(3, mode, math::Rng(4), plan);
    server.apply_write(WriteRequest{1, stored});
    // Variable 1 is stored (or acked); variable 2 never was.
    for (const VariableId variable : {VariableId{1}, VariableId{2}}) {
      SCOPED_TRACE(variable);
      bool answered = false;
      const ReadReply reply = read_over_junk(server, variable, answered);
      switch (mode) {
        case FaultMode::kCorrect:
        case FaultMode::kStaleReplay:
          EXPECT_TRUE(answered);
          EXPECT_EQ(reply.has_value, variable == 1);
          EXPECT_EQ(reply.record, variable == 1 ? stored : zero);
          break;
        case FaultMode::kCrash:
        case FaultMode::kSuppress:
          EXPECT_FALSE(answered);
          EXPECT_FALSE(reply.has_value);
          EXPECT_EQ(reply.record, zero);
          break;
        case FaultMode::kForge:
          EXPECT_TRUE(answered);
          EXPECT_TRUE(reply.has_value);
          EXPECT_EQ(reply.record.variable, variable);
          EXPECT_GE(reply.record.value, 0);
          EXPECT_LE(reply.record.timestamp, ~0ULL >> 8);
          EXPECT_GT(reply.record.timestamp, (~0ULL >> 8) - 1024);
          EXPECT_EQ(reply.record.writer, 0u);
          break;
        case FaultMode::kCollude:
          EXPECT_TRUE(answered);
          EXPECT_TRUE(reply.has_value);
          EXPECT_EQ(reply.record, plan->forged(variable));
          break;
      }
    }
  }
  // A healed colluder has an entry for the variable it acked but no
  // current record.
  Server healed(5, FaultMode::kCollude, math::Rng(6), plan);
  healed.apply_write(WriteRequest{1, stored});
  healed.set_mode(FaultMode::kCorrect);
  bool answered = false;
  const ReadReply reply = read_over_junk(healed, 1, answered);
  EXPECT_TRUE(answered);
  EXPECT_FALSE(reply.has_value);
  EXPECT_EQ(reply.record, zero);
}

// ---- The record store -------------------------------------------------------

ReadReply read_of(Server& server, VariableId variable) {
  ReadReply reply;
  EXPECT_TRUE(server.serve_read(ReadRequest{1, variable}, reply));
  return reply;
}

TEST(ServerStore, HealedColluderHoldsNoCurrentRecordUntilItsFirstAdopt) {
  auto server = make_server(0, FaultMode::kCollude);
  const auto signer = test_signer();
  EXPECT_TRUE(server.apply_write(WriteRequest{1, signer.sign(1, 10, 100, 1)}));
  EXPECT_EQ(server.find(1), nullptr);  // acked, never adopted
  server.set_mode(FaultMode::kCorrect);
  EXPECT_EQ(server.find(1), nullptr);
  EXPECT_FALSE(read_of(server, 1).has_value);
  EXPECT_TRUE(server.snapshot().empty());
  // The first adopt installs a current record, even one older than the
  // record the colluder acked.
  EXPECT_TRUE(server.apply_write(WriteRequest{2, signer.sign(1, 5, 50, 1)}));
  ASSERT_NE(server.find(1), nullptr);
  EXPECT_EQ(server.find(1)->value, 5);
  EXPECT_EQ(read_of(server, 1).record.value, 5);
}

TEST(ServerStore, CorrectServerTurnedStaleReplayServesItsFirstRecord) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto signer = test_signer();
  const auto first = signer.sign(1, 10, 100, 1);
  server.apply_write(WriteRequest{1, first});
  server.apply_write(WriteRequest{2, signer.sign(1, 20, 200, 1)});
  EXPECT_EQ(read_of(server, 1).record.value, 20);
  server.set_mode(FaultMode::kStaleReplay);
  const ReadReply stale = read_of(server, 1);
  ASSERT_TRUE(stale.has_value);
  EXPECT_EQ(stale.record, first);
  EXPECT_FALSE(read_of(server, 2).has_value);  // never seen
  EXPECT_EQ(server.find(1)->value, 20);  // true state unchanged
}

TEST(ServerStore, SnapshotListsAdoptedRecordsInFirstSeenOrder) {
  auto server = make_server(0, FaultMode::kStaleReplay);
  const auto signer = test_signer();
  // Seen, not adopted, while Byzantine: variables 5 then 3.
  server.apply_write(WriteRequest{1, signer.sign(5, 50, 10, 1)});
  server.apply_write(WriteRequest{2, signer.sign(3, 30, 10, 1)});
  server.set_mode(FaultMode::kCorrect);
  // Adopted in the order 9, 3, 1.
  const auto r9 = signer.sign(9, 90, 20, 1);
  const auto r3 = signer.sign(3, 31, 20, 1);
  const auto r1 = signer.sign(1, 10, 20, 1);
  for (const auto& rec : {r9, r3, r1}) {
    server.apply_write(WriteRequest{3, rec});
  }
  // Only adopted records; variable 3 first, as it was seen first.
  EXPECT_EQ(server.snapshot(),
            (std::vector<crypto::SignedRecord>{r3, r9, r1}));
  EXPECT_EQ(server.gossip_records(), server.snapshot());
  // Stale replay gossips every first record, in the same order.
  server.set_mode(FaultMode::kStaleReplay);
  const auto firsts = server.gossip_records();
  ASSERT_EQ(firsts.size(), 4u);
  const std::vector<VariableId> order{5, 3, 9, 1};
  for (std::size_t i = 0; i < order.size(); ++i) {
    EXPECT_EQ(firsts[i].variable, order[i]);
  }
  EXPECT_EQ(firsts[1].value, 30);
}

TEST(ServerStore, EveryFindHitsAfterTheTableGrows) {
  auto server = make_server(0, FaultMode::kCorrect);
  const auto signer = test_signer();
  constexpr std::uint64_t kVariables = 5000;
  // Scattered ids, including ones that share their low bits.
  const auto variable_of = [](std::uint64_t i) {
    return i * 0x100000001ULL + (i % 7) * 4096;
  };
  for (std::uint64_t i = 0; i < kVariables; ++i) {
    ASSERT_TRUE(server.adopt(signer.sign(variable_of(i),
                                         static_cast<std::int64_t>(i), 1, 1)));
  }
  for (std::uint64_t i = 0; i < kVariables; ++i) {
    const auto* rec = server.find(variable_of(i));
    ASSERT_NE(rec, nullptr) << "variable " << variable_of(i);
    EXPECT_EQ(rec->value, static_cast<std::int64_t>(i));
  }
  EXPECT_EQ(server.find(variable_of(kVariables)), nullptr);
  const auto records = server.snapshot();
  ASSERT_EQ(records.size(), kVariables);
  for (std::uint64_t i = 0; i < kVariables; ++i) {
    EXPECT_EQ(records[i].variable, variable_of(i));
  }
}

// ---- Read-selection rules ---------------------------------------------------

std::vector<ReadReply> replies_from(
    const std::vector<crypto::SignedRecord>& records) {
  std::vector<ReadReply> out;
  std::uint32_t id = 0;
  for (const auto& r : records) {
    ReadReply reply;
    reply.op = 1;
    reply.server = id++;
    reply.has_value = true;
    reply.record = r;
    out.push_back(reply);
  }
  return out;
}

TEST(ReadRules, PlainPicksHighestTimestamp) {
  const auto signer = test_signer();
  const auto sel = select_plain(replies_from({signer.sign(1, 10, 100, 1),
                                              signer.sign(1, 30, 300, 1),
                                              signer.sign(1, 20, 200, 1)}));
  ASSERT_TRUE(sel.has_value);
  EXPECT_EQ(sel.record.value, 30);
}

TEST(ReadRules, PlainEmptyRepliesGiveBottom) {
  EXPECT_FALSE(select_plain({}).has_value);
  std::vector<ReadReply> empty_replies(3);
  EXPECT_FALSE(select_plain(empty_replies).has_value);
}

TEST(ReadRules, PlainIsFooledByForgery) {
  // Without verification the forged huge-timestamp record wins — this is
  // why plain reads are only for benign failures.
  const auto signer = test_signer();
  auto forged = signer.sign(1, 666, 999999, 1);
  forged.tag ^= 1;
  const auto sel = select_plain(
      replies_from({signer.sign(1, 10, 100, 1), forged}));
  EXPECT_EQ(sel.record.value, 666);
}

TEST(ReadRules, DisseminationRejectsForgery) {
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  auto forged = signer.sign(1, 666, 999999, 1);
  forged.tag ^= 1;
  const auto sel = select_dissemination(
      replies_from({signer.sign(1, 10, 100, 1), forged}), verifier);
  ASSERT_TRUE(sel.has_value);
  EXPECT_EQ(sel.record.value, 10);  // forgery filtered, genuine record wins
}

TEST(ReadRules, DisseminationAcceptsStaleButGenuine) {
  // A stale replay has a valid tag; among genuine records the highest
  // timestamp wins, so staleness only matters if no fresher record arrives.
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  const auto sel = select_dissemination(
      replies_from({signer.sign(1, 10, 100, 1), signer.sign(1, 30, 300, 1)}),
      verifier);
  EXPECT_EQ(sel.record.value, 30);
}

TEST(ReadRules, DisseminationAllForgedGivesBottom) {
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  auto f1 = signer.sign(1, 1, 10, 1);
  f1.tag ^= 2;
  auto f2 = signer.sign(1, 2, 20, 1);
  f2.tag ^= 4;
  EXPECT_FALSE(select_dissemination(replies_from({f1, f2}), verifier)
                   .has_value);
}

TEST(ReadRules, MaskingRequiresKVouchers) {
  const auto signer = test_signer();
  const auto fresh = signer.sign(1, 30, 300, 1);
  const auto stale = signer.sign(1, 10, 100, 1);
  // fresh has 2 vouchers, stale has 3.
  const auto replies = replies_from({fresh, fresh, stale, stale, stale});
  const auto sel2 = select_masking(replies, 2);
  ASSERT_TRUE(sel2.has_value);
  EXPECT_EQ(sel2.record.value, 30);  // both qualify; freshest wins
  const auto sel3 = select_masking(replies, 3);
  ASSERT_TRUE(sel3.has_value);
  EXPECT_EQ(sel3.record.value, 10);  // only the stale one clears k=3
  EXPECT_EQ(sel3.vouchers, 3u);
  EXPECT_FALSE(select_masking(replies, 4).has_value);  // nothing clears
}

TEST(ReadRules, MaskingDefeatsSubThresholdCollusion) {
  const auto signer = test_signer();
  const ColludePlan plan;
  const auto genuine = signer.sign(1, 10, 100, 1);
  // k-1 colluders agree on a forged super-fresh record; k correct servers
  // return the genuine one.
  std::vector<crypto::SignedRecord> records{plan.forged(1), plan.forged(1),
                                            genuine, genuine, genuine};
  const auto sel = select_masking(replies_from(records), 3);
  ASSERT_TRUE(sel.has_value);
  EXPECT_EQ(sel.record.value, 10);
}

TEST(ReadRules, MaskingOverwhelmedByKColluders) {
  // With >= k colluders in the quorum the forged record qualifies and its
  // huge timestamp wins: exactly the P(|Q ∩ B| >= k) failure mode.
  const auto signer = test_signer();
  const ColludePlan plan;
  const auto genuine = signer.sign(1, 10, 100, 1);
  std::vector<crypto::SignedRecord> records{plan.forged(1), plan.forged(1),
                                            plan.forged(1), genuine, genuine,
                                            genuine};
  const auto sel = select_masking(replies_from(records), 3);
  ASSERT_TRUE(sel.has_value);
  EXPECT_EQ(sel.record.value, plan.forged(1).value);
}

// The O(r^2) pairwise scan select_masking used before it grouped replies
// in one pass, kept verbatim as the reference the grouping must match.
ReadSelection reference_select_masking(const std::vector<ReadReply>& replies,
                                       std::uint32_t k) {
  const auto key_of = [](const ReadReply& r) {
    return std::make_tuple(r.record.variable, r.record.value,
                           r.record.timestamp, r.record.writer);
  };
  ReadSelection out;
  auto best_key = std::make_tuple(VariableId{0}, std::int64_t{0},
                                  std::uint64_t{0}, std::uint32_t{0});
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].has_value) continue;
    const auto key = key_of(replies[i]);
    bool first = true;
    for (std::size_t j = 0; j < i && first; ++j) {
      if (replies[j].has_value && key_of(replies[j]) == key) first = false;
    }
    if (!first) continue;  // this record's votes were already counted
    std::uint32_t count = 0;
    for (std::size_t j = i; j < replies.size(); ++j) {
      if (replies[j].has_value && key_of(replies[j]) == key) ++count;
    }
    if (count < k) {
      out.rejected += count;  // sub-threshold group: all its votes refused
      continue;
    }
    const auto timestamp = std::get<2>(key);
    if (!out.has_value || timestamp > out.record.timestamp ||
        (timestamp == out.record.timestamp && key < best_key)) {
      out.has_value = true;
      out.record.variable = std::get<0>(key);
      out.record.value = std::get<1>(key);
      out.record.timestamp = timestamp;
      out.record.writer = std::get<3>(key);
      out.record.tag = 0;
      out.vouchers = count;
      best_key = key;
    }
  }
  return out;
}

// Random reply sets over small field domains, so groups of every size,
// equal-timestamp ties across values, writers and variables, tags that
// differ within a group, and has_value = false replies carrying junk
// fields all occur; every fourth set is all-distinct, in one field at a
// time. Sizes reach 200
// replies, so the grouping table grows well past its smallest size.
TEST(ReadRules, MaskingMatchesThePairwiseReference) {
  math::Rng rng(0x5e1ec7);
  std::uint64_t compared = 0, chosen = 0;
  for (std::uint32_t set = 0; set < 400; ++set) {
    const auto r = static_cast<std::uint32_t>(
        set < 8 ? set : rng.below(201));
    const bool all_distinct = set % 4 == 3;
    const auto distinct = static_cast<std::uint32_t>(1 + rng.below(12));
    std::vector<crypto::SignedRecord> pool(distinct);
    for (auto& rec : pool) {
      rec.variable = 1 + rng.below(2);
      rec.value = static_cast<std::int64_t>(rng.below(4)) - 2;
      rec.timestamp = rng.below(3);
      rec.writer = static_cast<std::uint32_t>(rng.below(2));
    }
    std::vector<ReadReply> replies(r);
    for (std::uint32_t i = 0; i < r; ++i) {
      ReadReply& reply = replies[i];
      reply.server = i;
      reply.has_value = rng.below(8) != 0;
      if (all_distinct) {
        // Distinct in one field only, so grouping that ignored the field
        // would merge records.
        reply.record = pool[0];
        switch ((set / 4) % 4) {
          case 0: reply.record.variable = i; break;
          case 1: reply.record.value = i; break;
          case 2: reply.record.timestamp = i; break;
          default: reply.record.writer = i; break;
        }
      } else {
        reply.record = pool[rng.below(distinct)];
      }
      reply.record.tag = rng.next();
    }
    // Every k for small sets; for larger ones, the ends of the range and
    // an even spread in between.
    const std::uint32_t stride = r <= 40 ? 1 : r / 16;
    std::vector<std::uint32_t> ks;
    for (std::uint32_t k = 1; k <= r + 1; k += stride) ks.push_back(k);
    ks.push_back(r);
    ks.push_back(r + 1);
    for (const std::uint32_t k : ks) {
      if (k == 0) continue;
      const ReadSelection want = reference_select_masking(replies, k);
      const ReadSelection got = select_masking(replies, k);
      ASSERT_EQ(got.has_value, want.has_value) << "set " << set << " k " << k;
      ASSERT_EQ(got.record, want.record) << "set " << set << " k " << k;
      ASSERT_EQ(got.vouchers, want.vouchers) << "set " << set << " k " << k;
      ASSERT_EQ(got.rejected, want.rejected) << "set " << set << " k " << k;
      ++compared;
      chosen += want.has_value ? 1 : 0;
    }
  }
  // Both outcomes were exercised, many times over.
  EXPECT_GT(chosen, 1000u);
  EXPECT_GT(compared - chosen, 1000u);
}

TEST(ReadRules, DispatchMatchesSpecificSelectors) {
  const auto signer = test_signer();
  const crypto::Verifier verifier(signer.key());
  const auto replies = replies_from({signer.sign(1, 5, 50, 1)});
  EXPECT_EQ(select(ReadMode::kPlain, replies, nullptr, 1).record.value, 5);
  EXPECT_EQ(select(ReadMode::kDissemination, replies, &verifier, 1)
                .record.value, 5);
  EXPECT_EQ(select(ReadMode::kMasking, replies, nullptr, 1).record.value, 5);
  EXPECT_THROW(select(ReadMode::kDissemination, replies, nullptr, 1),
               std::invalid_argument);
}

}  // namespace
}  // namespace pqs::replica
