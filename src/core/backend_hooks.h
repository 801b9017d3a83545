// The anonymization backend as one value (docs/backends.md).
//
// The pipeline factors into two strategies: group construction
// (partition raw records into groups of >= k) and regeneration
// (synthesize release records from one group's aggregate). A Backend
// names a pair of them and carries the id and version stamped into
// everything it builds. A null hook always means the built-in
// condensation path, byte-for-byte: StaticCondenser for construction,
// the eigendecomposition sampler of core/anonymizer.h for regeneration.
// So a default-constructed Backend is the paper's condensation, and the
// other backends live in condensa_backend, whose registry
// (src/backend/registry.h) resolves a --backend id into a Backend value.

#ifndef CONDENSA_CORE_BACKEND_HOOKS_H_
#define CONDENSA_CORE_BACKEND_HOOKS_H_

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/condensed_group_set.h"
#include "core/group_statistics.h"
#include "linalg/vector.h"

namespace condensa::core {

// Partitions `points` into groups of >= k records and returns their
// aggregates. Must be deterministic for a fixed Rng state, consuming
// randomness only through `rng`.
using GroupConstructionFn = std::function<StatusOr<CondensedGroupSet>(
    const std::vector<linalg::Vector>& points, std::size_t k, Rng& rng)>;

// Synthesizes `count` release records from one group's aggregate. Must
// draw randomness only from `rng` (the caller splits one substream per
// group, in group order, so releases are reproducible from the seed at
// any thread count).
using GroupSamplerFn = std::function<StatusOr<std::vector<linalg::Vector>>(
    const GroupStatistics& group, std::size_t count, Rng& rng)>;

struct Backend {
  // Registry key, stamped into serialized group sets and checkpoints.
  std::string id = CondensedGroupSet::kDefaultBackendId;
  // Bumped when the backend's output for a fixed seed changes; artifacts
  // stamped with another version refuse to load.
  int version = 1;
  // Null = StaticCondenser with default options.
  GroupConstructionFn construct = nullptr;
  // Null = the built-in eigendecomposition sampler.
  GroupSamplerFn sample = nullptr;

  // The id is non-empty and the version >= 1. With `builds_groups`, a
  // non-default id must also carry `construct`: the built-in path would
  // silently build condensation groups under another backend's stamp.
  // A stream-only user (no bootstrap) passes false.
  Status Validate(bool builds_groups = true) const;

  // Validate(), then partitions `points` into groups of >= k with
  // `construct` (or StaticCondenser) and stamps the result with id and
  // version.
  StatusOr<CondensedGroupSet> BuildGroups(
      const std::vector<linalg::Vector>& points, std::size_t k,
      Rng& rng) const;

  // FailedPrecondition, naming both stamps, unless `groups` carries this
  // backend's id and version: a structure built by one backend is never
  // maintained or regenerated under another.
  Status CheckStamp(const CondensedGroupSet& groups) const;
};

}  // namespace condensa::core

#endif  // CONDENSA_CORE_BACKEND_HOOKS_H_
