// The registered anonymization backends — what `--backend=` resolves
// through.
//
// A fixed table of core::Backend values, built on first use and never
// changed: "condensation" (the all-null default), "mdav" and
// "mdav-eigen". Resolving an unknown id fails with a NotFound Status
// that lists every registered id, which the CLI surfaces verbatim
// (exit 2). Callers assign the resolved value to their config's
// `backend` member.

#ifndef CONDENSA_BACKEND_REGISTRY_H_
#define CONDENSA_BACKEND_REGISTRY_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "core/backend_hooks.h"

namespace condensa::backend {

struct RegistryEntry {
  core::Backend backend;
  // One-line description for --help listings.
  std::string summary;
};

// Every registered backend, sorted by id. One process-wide table.
const std::vector<RegistryEntry>& Registry();

// The backend registered under `id`; NotFound naming the available ids
// otherwise.
StatusOr<core::Backend> Resolve(const std::string& id);

// The sorted ids joined with ", " — for help text and error messages.
std::string IdList();

}  // namespace condensa::backend

#endif  // CONDENSA_BACKEND_REGISTRY_H_
