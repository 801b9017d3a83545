// condensa query: one-shot mining queries against condensed statistics:
// a saved groups file, a checkpoint directory, or a running query-server
// (--connect).

#include <chrono>
#include <cstdio>
#include <thread>

#include "cli/common.h"
#include "query/client.h"
#include "query/engine.h"
#include "query/query.h"
#include "runtime/retry.h"

namespace condensa::cli {
namespace {

int PrintQueryResult(const query::Query& query,
                     const query::QueryResult& result,
                     const std::string& output) {
  std::fprintf(stderr, "answered from snapshot version %llu\n",
               static_cast<unsigned long long>(result.snapshot_version));
  switch (result.kind) {
    case query::QueryKind::kClassify: {
      for (std::size_t i = 0; i < result.classify.labels.size(); ++i) {
        std::printf("point %zu: label %d\n", i, result.classify.labels[i]);
      }
      break;
    }
    case query::QueryKind::kAggregate: {
      const auto& agg = result.aggregate;
      std::printf("groups matched        : %llu\n",
                  static_cast<unsigned long long>(agg.groups_matched));
      std::printf("records               : %llu\n",
                  static_cast<unsigned long long>(agg.records));
      if (agg.has_moments) {
        std::printf("mean                  :");
        for (std::size_t d = 0; d < agg.mean.dim(); ++d) {
          std::printf(" %.6g", agg.mean[d]);
        }
        std::printf("\nvariance              :");
        for (std::size_t d = 0; d < agg.mean.dim(); ++d) {
          std::printf(" %.6g", agg.covariance(d, d));
        }
        std::printf("\n");
      }
      break;
    }
    case query::QueryKind::kRegenerate: {
      const auto& regen = result.regenerate;
      std::fprintf(stderr, "regenerated %zu records from %llu groups "
                   "(seed %llu)\n",
                   regen.records.size(),
                   static_cast<unsigned long long>(regen.groups_matched),
                   static_cast<unsigned long long>(query.regenerate.seed));
      if (!output.empty()) {
        data::Dataset dataset(
            regen.records.empty() ? 0 : regen.records.front().dim());
        for (const auto& record : regen.records) dataset.Add(record);
        return WriteRelease(dataset, output);
      }
      for (const auto& record : regen.records) {
        for (std::size_t d = 0; d < record.dim(); ++d) {
          std::printf(d == 0 ? "%.17g" : ",%.17g", record[d]);
        }
        std::printf("\n");
      }
      break;
    }
  }
  return 0;
}

// Sends `query` to the query-server at `host`:`port`. The initial dial
// shares the retry budget: a server mid-restart is exactly the case
// --retries exists for.
StatusOr<query::QueryResult> ExecuteRemote(const std::string& host,
                                           std::uint16_t port,
                                           double timeout_ms,
                                           std::size_t retries,
                                           const query::Query& query) {
  const auto dial_started = std::chrono::steady_clock::now();
  Rng dial_rng(1);
  runtime::RetryPolicy dial_backoff;
  dial_backoff.initial_backoff_ms = 50.0;
  dial_backoff.max_backoff_ms = 1000.0;
  auto client = query::QueryClient::Connect(host, port, timeout_ms);
  for (std::size_t attempt = 1; !client.ok() && attempt < retries;
       ++attempt) {
    double wait_ms = runtime::BackoffDelayMs(dial_backoff, attempt, dial_rng);
    if (query.deadline_ms > 0) {
      const double elapsed_ms = std::chrono::duration<double, std::milli>(
                                    std::chrono::steady_clock::now() -
                                    dial_started)
                                    .count();
      const double remaining_ms = query.deadline_ms - elapsed_ms;
      if (remaining_ms <= 0) break;
      if (wait_ms > remaining_ms) wait_ms = remaining_ms;
    }
    std::this_thread::sleep_for(
        std::chrono::duration<double, std::milli>(wait_ms));
    client = query::QueryClient::Connect(host, port, timeout_ms);
  }
  if (!client.ok()) return client.status();
  query::QueryRetryOptions retry;
  retry.max_attempts = retries;
  retry.deadline_ms = query.deadline_ms;
  return client->ExecuteWithRetry(query, retry);
}

int Run(FlagSet& flags) {
  SnapshotSource source;
  std::string connect, range_spec, points_path, output;
  query::Query query;
  std::size_t neighbors{}, records_per_group{}, retries{};
  double timeout_ms{}, deadline_ms{};
  bool header{};
  DeclareSnapshotSource(flags, &source);
  flags.Text("connect", "HOST:PORT", &connect, "",
             "send the query to a running query-server");
  flags.Enum("op", &query.kind, query::QueryKind::kAggregate,
             {{"classify", query::QueryKind::kClassify},
              {"aggregate", query::QueryKind::kAggregate},
              {"regenerate", query::QueryKind::kRegenerate}},
             "query kind; see docs/query.md");
  flags.Text("points", "FILE", &points_path, "",
             "CSV of points to classify; required for --op=classify");
  flags.Size("neighbors", &neighbors, 1,
             "nearest group centroids consulted per point")
      .Min(1);
  flags.Text("range", "DIM:LO:HI[,DIM:LO:HI...]", &range_spec, "",
             "centroid box selecting groups for aggregate and regenerate; "
             "empty selects every group");
  flags.Seed("seed", &query.regenerate.seed, 42, "regeneration RNG seed");
  flags.Size("records-per-group", &records_per_group, 0,
             "regenerated records per selected group; 0 = each group's own "
             "count");
  flags.Text("output", "FILE", &output, "",
             "write regenerated records as CSV; empty = stdout");
  flags.Bool("header", &header, "first row of --points is a header");
  flags.Double("timeout-ms", &timeout_ms, 5000,
               "per-frame timeout for --connect")
      .Above(0);
  flags.Size("retries", &retries, 1,
             "attempts against --connect, redialing and backing off on "
             "transport errors and kUnavailable; 1 = no retry")
      .Min(1);
  flags.Double("deadline-ms", &deadline_ms, 0,
               "overall budget for the call, forwarded to a --connect "
               "server so it sheds work past the deadline; 0 = none")
      .AtLeast(0);
  if (!flags.Parse()) return flags.exit_code();
  const int sources = !source.groups.empty() +
                      !source.checkpoint_dir.empty() + !connect.empty();
  if (sources != 1) {
    return UsageError(
        "exactly one of --groups, --checkpoint-dir, or --connect is required");
  }
  if (query.kind == query::QueryKind::kClassify && points_path.empty()) {
    return UsageError("--points is required for --op=classify");
  }
  auto range = query::ParseRangeSpec(range_spec);
  if (!range.ok()) {
    return UsageError("bad --range: " + range.status().ToString());
  }
  query.classify.neighbors = neighbors;
  query.aggregate.range = *range;
  query.regenerate.range = *range;
  query.regenerate.records_per_group = records_per_group;

  if (!points_path.empty()) {
    data::Dataset points(0);
    if (int code = LoadCsv(points_path, data::TaskType::kUnlabeled, header,
                           -1, &points)) {
      return code;
    }
    query.classify.points = points.records();
  }

  StatusOr<query::QueryResult> result = InternalError("unreachable");
  if (!connect.empty()) {
    std::string host;
    std::uint16_t port = 0;
    if (!ParseEndpoint(connect, &host, &port)) {
      return UsageError("bad --connect '" + connect + "' (want HOST:PORT)");
    }
    query.deadline_ms = deadline_ms;
    result = ExecuteRemote(host, port, timeout_ms, retries, query);
  } else {
    query::QuerySnapshot snapshot;
    if (int code = LoadSnapshot(source, &snapshot)) return code;
    result = query::QueryEngine().Execute(
        snapshot, query, query::ExecutionContext::WithBudgetMs(deadline_ms));
  }
  if (!result.ok()) return Fail("query failed", result.status());
  return PrintQueryResult(query, *result, output);
}

}  // namespace

const Command kQueryCommand = {
    "query", "mining queries answered from condensed statistics",
    "The snapshot comes from exactly one of --groups, --checkpoint-dir "
    "(recovered with --k) or --connect. See docs/query.md for the full "
    "query language.",
    Run};

}  // namespace condensa::cli
