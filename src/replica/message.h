// Wire messages of the replicated-variable protocols (Sections 3.1, 4, 5).
#pragma once

#include <cstdint>
#include <variant>

#include "crypto/mac.h"

namespace pqs::replica {

// Clients tag every operation with a locally unique id so replies can be
// matched to pending operations.
using OpId = std::uint64_t;
using VariableId = std::uint64_t;

// Seed of the writer key (crypto::Signer::from_seed) that InstantCluster
// and SimCluster sign records with and verify them against.
inline constexpr std::uint64_t kWriterKeySeed = 0x517e9a11;

struct WriteRequest {
  OpId op = 0;
  crypto::SignedRecord record;
};

struct WriteAck {
  OpId op = 0;
  std::uint32_t server = 0;
};

struct ReadRequest {
  OpId op = 0;
  VariableId variable = 0;
};

struct ReadReply {
  OpId op = 0;
  std::uint32_t server = 0;
  bool has_value = false;
  crypto::SignedRecord record;
};

// Anti-entropy push used by the diffusion extension (Section 1.1).
struct GossipPush {
  crypto::SignedRecord record;
};

using Message =
    std::variant<WriteRequest, WriteAck, ReadRequest, ReadReply, GossipPush>;

}  // namespace pqs::replica
