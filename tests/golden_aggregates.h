// Committed golden values for the serving tier's per-shard aggregates.
//
// The serving tests pin each deployment's ShardAggregate vector to values
// committed next to the test and check it at every worker count the test
// runs. Agreement between two runs cannot see a change that moves both of
// them; a golden can. A mismatch names the shard and each differing
// field with its golden and observed values, then prints the observed
// aggregate in full.
#pragma once

#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <vector>

#include "serve/kv_service.h"

namespace pqs::serve {

inline ::testing::AssertionResult MatchesGoldens(
    const std::vector<ShardAggregate>& observed,
    const std::vector<ShardAggregate>& golden) {
  if (observed.size() != golden.size()) {
    return ::testing::AssertionFailure()
           << observed.size() << " shards observed, " << golden.size()
           << " golden";
  }
  std::ostringstream diff;
  for (std::size_t s = 0; s < golden.size(); ++s) {
    if (observed[s] == golden[s]) continue;
    diff << "shard " << s << ":";
#define PQS_GOLDEN_DIFF(name)                                     \
  if (observed[s].name != golden[s].name) {                       \
    diff << " " #name " golden " << golden[s].name << " observed " \
         << observed[s].name << ";";                              \
  }
    PQS_SHARD_AGGREGATE_FIELDS(PQS_GOLDEN_DIFF)
#undef PQS_GOLDEN_DIFF
    diff << "\n  observed " << observed[s] << "\n";
  }
  if (diff.tellp() == 0) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << diff.str();
}

}  // namespace pqs::serve
