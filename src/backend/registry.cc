#include "backend/registry.h"

#include "backend/mdav.h"

namespace condensa::backend {
namespace {

StatusOr<core::CondensedGroupSet> MdavConstruct(
    const std::vector<linalg::Vector>& points, std::size_t k, Rng& /*rng*/) {
  // MDAV is deterministic; the stream is left untouched.
  return MdavBuildGroups(points, k);
}

StatusOr<std::vector<linalg::Vector>> MdavSample(
    const core::GroupStatistics& group, std::size_t count, Rng& /*rng*/) {
  return CentroidSample(group, count);
}

}  // namespace

const std::vector<RegistryEntry>& Registry() {
  static const std::vector<RegistryEntry>* table =
      new std::vector<RegistryEntry>{
          {.backend = {},
           .summary = "paper condensation: random-seed nearest-neighbour "
                      "groups, eigendecomposition regeneration (default)"},
          {.backend = {.id = "mdav",
                       .construct = MdavConstruct,
                       .sample = MdavSample},
           .summary = "MDAV microaggregation: farthest-pair groups, "
                      "centroid-replacement regeneration"},
          {.backend = {.id = "mdav-eigen", .construct = MdavConstruct},
           .summary = "MDAV microaggregation with variance-preserving "
                      "eigendecomposition regeneration"},
      };
  return *table;
}

StatusOr<core::Backend> Resolve(const std::string& id) {
  for (const RegistryEntry& entry : Registry()) {
    if (entry.backend.id == id) return entry.backend;
  }
  return NotFoundError("unknown backend '" + id + "'; available: " +
                       IdList());
}

std::string IdList() {
  std::string joined;
  for (const RegistryEntry& entry : Registry()) {
    if (!joined.empty()) joined += ", ";
    joined += entry.backend.id;
  }
  return joined;
}

}  // namespace condensa::backend
