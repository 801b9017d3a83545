#include "backend/registry.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/backend_hooks.h"
#include "core/condensed_group_set.h"
#include "core/engine.h"

namespace condensa::backend {
namespace {

TEST(RegistryTest, GlobalIsASingleton) {
  EXPECT_EQ(&Registry(), &Registry());
}

TEST(RegistryTest, BuiltInsAreRegistered) {
  for (const char* id : {"condensation", "mdav", "mdav-eigen"}) {
    auto backend = Resolve(id);
    ASSERT_TRUE(backend.ok()) << id;
    EXPECT_EQ(backend->id, id);
    EXPECT_EQ(backend->version, 1);
  }
  for (const RegistryEntry& entry : Registry()) {
    EXPECT_FALSE(entry.summary.empty()) << entry.backend.id;
  }
}

TEST(RegistryTest, UnknownIdIsNotFoundAndListsAvailable) {
  auto backend = Resolve("bogus");
  ASSERT_FALSE(backend.ok());
  EXPECT_TRUE(IsNotFound(backend.status()));
  const std::string message(backend.status().message());
  EXPECT_NE(message.find("bogus"), std::string::npos);
  EXPECT_NE(message.find("condensation"), std::string::npos);
  EXPECT_NE(message.find("mdav"), std::string::npos);
}

TEST(RegistryTest, IdsAreSortedAndContainBuiltIns) {
  std::vector<std::string> ids;
  for (const RegistryEntry& entry : Registry()) {
    ids.push_back(entry.backend.id);
  }
  EXPECT_TRUE(std::is_sorted(ids.begin(), ids.end()));
  for (const char* id : {"condensation", "mdav", "mdav-eigen"}) {
    EXPECT_NE(std::find(ids.begin(), ids.end(), id), ids.end()) << id;
  }
}

TEST(RegistryTest, IdListJoinsEveryId) {
  const std::string list = IdList();
  for (const RegistryEntry& entry : Registry()) {
    EXPECT_NE(list.find(entry.backend.id), std::string::npos)
        << entry.backend.id;
  }
}

TEST(ApplyBackendTest, BindsIdVersionAndHooks) {
  core::CondensationConfig config;
  auto resolved = Resolve("mdav");
  ASSERT_TRUE(resolved.ok());
  config.backend = *resolved;
  EXPECT_EQ(config.backend.id, "mdav");
  EXPECT_EQ(config.backend.version, 1);
  EXPECT_TRUE(static_cast<bool>(config.backend.construct));
  // mdav regenerates by centroid replacement, so a sampler is bound.
  EXPECT_TRUE(static_cast<bool>(config.backend.sample));
}

TEST(ApplyBackendTest, CondensationUsesBuiltInSampler) {
  core::CondensationConfig config;
  auto resolved = Resolve("condensation");
  ASSERT_TRUE(resolved.ok());
  config.backend = *resolved;
  EXPECT_EQ(config.backend.id, core::CondensedGroupSet::kDefaultBackendId);
  // The default is the all-null value: StaticCondenser construction and
  // the paper's eigendecomposition regeneration.
  EXPECT_FALSE(static_cast<bool>(config.backend.construct));
  EXPECT_FALSE(static_cast<bool>(config.backend.sample));
}

TEST(ApplyBackendTest, UnknownIdLeavesConfigUntouched) {
  core::CondensationConfig config;
  auto resolved = Resolve("nope");
  ASSERT_FALSE(resolved.ok());
  EXPECT_TRUE(IsNotFound(resolved.status()));
  EXPECT_EQ(config.backend.id, core::CondensedGroupSet::kDefaultBackendId);
  EXPECT_FALSE(static_cast<bool>(config.backend.construct));
  EXPECT_FALSE(static_cast<bool>(config.backend.sample));
}

TEST(ApplyBackendTest, ConstructionHookStampsTheResult) {
  auto backend = Resolve("mdav");
  ASSERT_TRUE(backend.ok());
  std::vector<linalg::Vector> points;
  Rng rng(7);
  for (int i = 0; i < 20; ++i) {
    points.push_back(linalg::Vector{rng.Gaussian(0.0, 1.0),
                                    rng.Gaussian(0.0, 1.0)});
  }
  auto groups = backend->BuildGroups(points, 5, rng);
  ASSERT_TRUE(groups.ok());
  EXPECT_EQ(groups->backend_id(), "mdav");
  EXPECT_EQ(groups->backend_version(), 1);
}

}  // namespace
}  // namespace condensa::backend
