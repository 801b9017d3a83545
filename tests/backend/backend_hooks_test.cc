// Pins core::Backend's construction rule at every entry point: a
// non-default id without a `construct` hook is refused with a Status
// wherever groups are built, and accepted where they are not.

#include "core/backend_hooks.h"

#include <gtest/gtest.h>

#include <cstddef>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "backend/registry.h"
#include "common/random.h"
#include "common/status.h"
#include "core/checkpointing.h"
#include "core/dynamic_condenser.h"
#include "core/engine.h"
#include "linalg/vector.h"
#include "shard/worker.h"

namespace condensa::backend {
namespace {

using linalg::Vector;

constexpr std::size_t kDim = 3;
constexpr std::size_t kGroupSize = 4;

std::vector<Vector> MakePoints(std::size_t n) {
  Rng rng(11);
  std::vector<Vector> points;
  for (std::size_t i = 0; i < n; ++i) {
    points.push_back(Vector{rng.Gaussian(), rng.Gaussian(), rng.Gaussian()});
  }
  return points;
}

std::string FreshDir(const std::string& name) {
  const std::string dir = ::testing::TempDir() + "/condensa_backend_" + name;
  std::filesystem::remove_all(dir);
  return dir;
}

TEST(BackendTest, MissingConstructHookIsRefusedWhereGroupsAreBuilt) {
  const std::vector<Vector> points = MakePoints(20);
  struct EntryPoint {
    const char* name;
    bool builds_groups;
    std::function<Status(const core::Backend&)> run;
  };
  const std::vector<EntryPoint> entry_points = {
      {"engine static mode", true,
       [&](const core::Backend& backend) {
         Rng rng(1);
         core::CondensationConfig config;
         config.group_size = kGroupSize;
         config.mode = core::CondensationMode::kStatic;
         config.backend = backend;
         return core::CondensationEngine(config)
             .CondensePoints(points, rng)
             .status();
       }},
      {"DynamicCondenser::Bootstrap", true,
       [&](const core::Backend& backend) {
         Rng rng(2);
         core::DynamicCondenser condenser(
             kDim, {.group_size = kGroupSize, .backend = backend});
         return condenser.Bootstrap(points, rng);
       }},
      {"Worker in kStaticBatch", true,
       [&](const core::Backend& backend) -> Status {
         shard::WorkerOptions options;
         options.mode = shard::WorkerMode::kStaticBatch;
         options.group_size = kGroupSize;
         options.backend = backend;
         CONDENSA_ASSIGN_OR_RETURN(std::unique_ptr<shard::Worker> worker,
                                   shard::Worker::Start(0, kDim, options));
         for (const Vector& point : points) {
           CONDENSA_RETURN_IF_ERROR(worker->Submit(point));
         }
         Rng rng(3);
         return worker->Finish(rng).status();
       }},
      {"stream-only DurableCondenser", false,
       [&](const core::Backend& backend) -> Status {
         CONDENSA_ASSIGN_OR_RETURN(
             core::DurableCondenser durable,
             core::DurableCondenser::Create(
                 kDim, {.group_size = kGroupSize, .backend = backend},
                 {.sync_every_append = false},
                 FreshDir(backend.construct ? "resolved" : "hand_built")));
         for (const Vector& point : points) {
           CONDENSA_RETURN_IF_ERROR(durable.Insert(point));
         }
         return OkStatus();
       }},
  };

  const core::Backend hand_built{.id = "mdav"};
  StatusOr<core::Backend> resolved = Resolve("mdav");
  ASSERT_TRUE(resolved.ok());
  for (const EntryPoint& entry : entry_points) {
    SCOPED_TRACE(entry.name);
    const Status refused = entry.run(hand_built);
    if (entry.builds_groups) {
      EXPECT_TRUE(IsInvalidArgument(refused)) << refused;
      EXPECT_NE(refused.message().find("mdav"), std::string::npos)
          << refused;
    } else {
      EXPECT_TRUE(refused.ok()) << refused;
    }
    // The resolved value carries the hook, so every entry point runs.
    const Status accepted = entry.run(*resolved);
    EXPECT_TRUE(accepted.ok()) << accepted;
  }
}

TEST(BackendTest, ValidateChecksIdAndVersion) {
  EXPECT_TRUE(core::Backend{}.Validate().ok());
  EXPECT_TRUE(IsInvalidArgument(core::Backend{.id = ""}.Validate(false)));
  EXPECT_TRUE(
      IsInvalidArgument(core::Backend{.version = 0}.Validate(false)));
  EXPECT_TRUE(core::Backend{.id = "mdav"}.Validate(false).ok());
}

}  // namespace
}  // namespace condensa::backend
