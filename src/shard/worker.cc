#include "shard/worker.h"

#include <string>
#include <utility>

#include "core/group_statistics.h"
#include "obs/metrics.h"

namespace condensa::shard {
namespace {

// Per-shard series carry the stable worker identity alongside the shard
// index, so a restarted or rejoined worker resumes its series instead of
// minting a duplicate per-incarnation one.
obs::Counter& ShardRecordsCounter(std::size_t shard_id,
                                  const std::string& worker_id) {
  return obs::DefaultRegistry().GetCounter(
      "condensa_shard_records_total",
      {{"shard", std::to_string(shard_id)}, {"worker", worker_id}});
}

obs::Gauge& ShardGroupsGauge(std::size_t shard_id,
                             const std::string& worker_id) {
  return obs::DefaultRegistry().GetGauge(
      "condensa_shard_groups",
      {{"shard", std::to_string(shard_id)}, {"worker", worker_id}});
}

}  // namespace

Worker::Worker(std::size_t shard_id, std::size_t dim, WorkerOptions options)
    : shard_id_(shard_id), dim_(dim), options_(std::move(options)) {}

StatusOr<std::unique_ptr<Worker>> Worker::Start(
    std::size_t shard_id, std::size_t dim, const WorkerOptions& options) {
  if (dim == 0) {
    return InvalidArgumentError("worker dimension must be >= 1");
  }
  if (options.group_size == 0) {
    return InvalidArgumentError("group_size must be >= 1");
  }
  CONDENSA_RETURN_IF_ERROR(options.backend.Validate(
      /*builds_groups=*/options.mode == WorkerMode::kStaticBatch));
  std::unique_ptr<Worker> worker(new Worker(shard_id, dim, options));
  // GCC 12 reports a false -Wrestrict inside libstdc++ for
  // `"literal" + std::string&&` (GCC bug 105329); no bytes overlap.
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wrestrict"
  worker->worker_id_ = options.worker_id.empty()
                           ? "w" + std::to_string(shard_id)
                           : options.worker_id;
#pragma GCC diagnostic pop
  if (options.mode == WorkerMode::kDurableStream) {
    if (options.checkpoint_root.empty()) {
      return InvalidArgumentError(
          "kDurableStream requires a checkpoint_root");
    }
    worker->checkpoint_dir_ =
        options.checkpoint_root + "/shard-" + std::to_string(shard_id);
    runtime::StreamPipelineConfig config;
    config.dim = dim;
    config.group_size = options.group_size;
    config.split_rule = options.split_rule;
    config.checkpoint_dir = worker->checkpoint_dir_;
    config.snapshot_interval = options.snapshot_interval;
    config.sync_every_append = options.sync_every_append;
    config.queue_capacity = options.queue_capacity;
    config.batch_size = options.batch_size;
    config.seed = options.seed;
    config.backend = options.backend;
    CONDENSA_ASSIGN_OR_RETURN(worker->pipeline_,
                              runtime::StreamPipeline::Start(config));
  }
  return worker;
}

Status Worker::Submit(const linalg::Vector& record) {
  if (finished_) {
    return FailedPreconditionError("Submit after Finish");
  }
  if (pipeline_ != nullptr) {
    CONDENSA_RETURN_IF_ERROR(pipeline_->Submit(record));
  } else {
    if (record.dim() != dim_) {
      return InvalidArgumentError("record dimension mismatch");
    }
    buffer_.push_back(record);
  }
  ++submitted_;
  ShardRecordsCounter(shard_id_, worker_id_).Increment();
  return OkStatus();
}

Status Worker::Flush(double timeout_ms) {
  if (finished_) {
    return FailedPreconditionError("Flush after Finish");
  }
  if (pipeline_ == nullptr) {
    return OkStatus();
  }
  return pipeline_->Flush(timeout_ms);
}

std::size_t Worker::durable_total() const {
  if (pipeline_ == nullptr) {
    return buffer_.size();
  }
  const runtime::StreamPipelineStats live = pipeline_->stats();
  return pipeline_->records_seen() + live.quarantined + live.spool_remaining;
}

StatusOr<core::CondensedGroupSet> Worker::Finish(Rng& rng) {
  if (finished_) {
    return FailedPreconditionError("Finish was already called");
  }
  finished_ = true;

  core::CondensedGroupSet groups(dim_, options_.group_size);
  groups.SetBackend(options_.backend.id, options_.backend.version);
  if (pipeline_ != nullptr) {
    CONDENSA_ASSIGN_OR_RETURN(stream_stats_, pipeline_->Finish());
    CONDENSA_ASSIGN_OR_RETURN(groups, pipeline_->TakeGroups());
  } else if (buffer_.size() >= options_.group_size) {
    CONDENSA_ASSIGN_OR_RETURN(
        groups, options_.backend.BuildGroups(buffer_, options_.group_size,
                                             rng));
    buffer_.clear();
  } else if (!buffer_.empty()) {
    // Partition below the k-floor: emit the remainder as one sub-k group
    // for the coordinator to fold globally — dropping it would break
    // record conservation.
    core::GroupStatistics remainder(dim_);
    for (const linalg::Vector& record : buffer_) {
      remainder.Add(record);
    }
    groups.AddGroup(std::move(remainder));
    buffer_.clear();
  }
  ShardGroupsGauge(shard_id_, worker_id_).Set(
      static_cast<double>(groups.num_groups()));
  return groups;
}

}  // namespace condensa::shard
