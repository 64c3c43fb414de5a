#include "replica/read_rules.h"

#include <cstddef>
#include <tuple>

#include "util/require.h"

namespace pqs::replica {

const char* read_mode_name(ReadMode mode) {
  switch (mode) {
    case ReadMode::kPlain: return "plain";
    case ReadMode::kDissemination: return "dissemination";
    case ReadMode::kMasking: return "masking";
  }
  return "?";
}

namespace {

ReadSelection pick_highest_timestamp(const std::vector<ReadReply>& replies,
                                     const crypto::Verifier* verifier) {
  ReadSelection out;
  for (const auto& r : replies) {
    if (!r.has_value) continue;
    if (verifier != nullptr && !verifier->verify(r.record)) {
      ++out.rejected;  // forged or corrupted MAC — never a candidate
      continue;
    }
    if (!out.has_value || r.record.timestamp > out.record.timestamp) {
      out.has_value = true;
      out.record = r.record;
      out.vouchers = 1;
    } else if (out.has_value && r.record == out.record) {
      ++out.vouchers;
    }
  }
  return out;
}

}  // namespace

ReadSelection select_plain(const std::vector<ReadReply>& replies) {
  return pick_highest_timestamp(replies, nullptr);
}

ReadSelection select_dissemination(const std::vector<ReadReply>& replies,
                                   const crypto::Verifier& verifier) {
  return pick_highest_timestamp(replies, &verifier);
}

ReadSelection select_masking(const std::vector<ReadReply>& replies,
                             std::uint32_t k) {
  PQS_REQUIRE(k >= 1, "masking threshold");
  // Group identical records; a record enters V' only with >= k vouchers
  // (the set C of Definition 5.1's read protocol, step 3). One pass over
  // the replies files each into its group through an open-addressing
  // table keyed by the full (variable, value, timestamp, writer) tuple,
  // sized to a power of two >= 2r so probes stay short at any quorum
  // size. Groups keep their first reply's index and a vote count; the
  // table and group list are thread-local scratch, so grouping does not
  // allocate in steady state. Winner: highest timestamp; timestamp ties
  // break toward the lexicographically smallest (variable, value,
  // timestamp, writer) tuple — a total order, so the result does not
  // depend on the order in which groups were formed.
  // Tags are deliberately ignored: masking handles non-self-verifying
  // data, so agreement among >= k servers is the only evidence.
  struct Group {
    std::uint32_t first;  // index of the first reply carrying the record
    std::uint32_t count;
  };
  static thread_local std::vector<std::uint32_t> slots;  // group index + 1
  static thread_local std::vector<Group> groups;
  std::size_t size = 2;
  while (size < 2 * replies.size()) size <<= 1;
  slots.assign(size, 0);
  groups.clear();
  const std::size_t mask = size - 1;
  const auto key_of = [](const crypto::SignedRecord& r) {
    return std::tie(r.variable, r.value, r.timestamp, r.writer);
  };
  for (std::size_t i = 0; i < replies.size(); ++i) {
    if (!replies[i].has_value) continue;
    const crypto::SignedRecord& rec = replies[i].record;
    std::uint64_t h = rec.variable;
    h = (h ^ static_cast<std::uint64_t>(rec.value)) * 0x9e3779b97f4a7c15ULL;
    h = ((h >> 29 | h << 35) ^ rec.timestamp) * 0x9e3779b97f4a7c15ULL;
    h = ((h >> 29 | h << 35) ^ rec.writer) * 0x9e3779b97f4a7c15ULL;
    std::size_t slot = static_cast<std::size_t>(h >> 32) & mask;
    while (true) {
      const std::uint32_t g = slots[slot];
      if (g == 0) {
        groups.push_back({static_cast<std::uint32_t>(i), 1});
        slots[slot] = static_cast<std::uint32_t>(groups.size());
        break;
      }
      if (key_of(replies[groups[g - 1].first].record) == key_of(rec)) {
        ++groups[g - 1].count;
        break;
      }
      slot = (slot + 1) & mask;
    }
  }
  ReadSelection out;
  for (const Group& group : groups) {
    if (group.count < k) {
      out.rejected += group.count;  // sub-threshold: all its votes refused
      continue;
    }
    const crypto::SignedRecord& rec = replies[group.first].record;
    if (!out.has_value || rec.timestamp > out.record.timestamp ||
        (rec.timestamp == out.record.timestamp &&
         key_of(rec) < key_of(out.record))) {
      out.has_value = true;
      out.record = rec;
      out.record.tag = 0;
      out.vouchers = group.count;
    }
  }
  return out;
}

ReadSelection select(ReadMode mode, const std::vector<ReadReply>& replies,
                     const crypto::Verifier* verifier, std::uint32_t k) {
  switch (mode) {
    case ReadMode::kPlain:
      return select_plain(replies);
    case ReadMode::kDissemination:
      PQS_REQUIRE(verifier != nullptr, "dissemination reads need a verifier");
      return select_dissemination(replies, *verifier);
    case ReadMode::kMasking:
      return select_masking(replies, k);
  }
  return {};
}

}  // namespace pqs::replica
