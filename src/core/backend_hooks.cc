#include "core/backend_hooks.h"

#include <string>

#include "core/static_condenser.h"

namespace condensa::core {

Status Backend::Validate(bool builds_groups) const {
  if (id.empty()) {
    return InvalidArgumentError("backend id must be non-empty");
  }
  if (version < 1) {
    return InvalidArgumentError("backend version must be >= 1");
  }
  if (builds_groups && id != CondensedGroupSet::kDefaultBackendId &&
      !construct) {
    return InvalidArgumentError(
        "backend '" + id +
        "' has no construction hook bound; resolve the id through "
        "backend::Resolve instead of setting it directly");
  }
  return OkStatus();
}

StatusOr<CondensedGroupSet> Backend::BuildGroups(
    const std::vector<linalg::Vector>& points, std::size_t k,
    Rng& rng) const {
  CONDENSA_RETURN_IF_ERROR(Validate());
  CondensedGroupSet groups(0, 0);
  if (construct) {
    CONDENSA_ASSIGN_OR_RETURN(groups, construct(points, k, rng));
  } else {
    StaticCondenser condenser(StaticCondenserOptions{.group_size = k});
    CONDENSA_ASSIGN_OR_RETURN(groups, condenser.Condense(points, rng));
  }
  groups.SetBackend(id, version);
  return groups;
}

Status Backend::CheckStamp(const CondensedGroupSet& groups) const {
  if (groups.backend_id() != id) {
    return FailedPreconditionError(
        "group set was written by backend '" + groups.backend_id() +
        "' but this run is configured for '" + id +
        "'; rerun with the matching --backend");
  }
  if (groups.backend_version() != version) {
    return FailedPreconditionError(
        "group set was written by backend '" + id + "' version " +
        std::to_string(groups.backend_version()) +
        " but this build provides version " + std::to_string(version));
  }
  return OkStatus();
}

}  // namespace condensa::core
