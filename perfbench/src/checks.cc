#include "checks.h"

#include "linalg/matrix.h"
#include "linalg/vector.h"

namespace perfbench {

namespace {

bool SameVector(const condensa::linalg::Vector& a,
                const condensa::linalg::Vector& b) {
  return a.values() == b.values();
}

bool SameMatrix(const condensa::linalg::Matrix& a,
                const condensa::linalg::Matrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  for (std::size_t r = 0; r < a.rows(); ++r) {
    for (std::size_t c = 0; c < a.cols(); ++c) {
      if (a(r, c) != b(r, c)) return false;
    }
  }
  return true;
}

}  // namespace

bool CheckLog::Expect(bool ok, const std::string& what) {
  ++checks_;
  if (!ok) failures_.push_back(what);
  return ok;
}

void CheckGroups(const condensa::core::CondensedGroupSet& groups,
                 std::size_t k, std::size_t records_fed,
                 const std::string& what, CheckLog& log) {
  std::size_t total = 0;
  std::size_t undersized = 0;
  for (const auto& group : groups.groups()) {
    total += group.count();
    if (group.count() < k) ++undersized;
  }
  log.Expect(undersized == 0, what + ": " + std::to_string(undersized) +
                                  " groups hold fewer than k=" +
                                  std::to_string(k) + " records");
  log.Expect(total == records_fed,
             what + ": groups hold " + std::to_string(total) +
                 " records, fed " + std::to_string(records_fed));
}

void CheckReleaseSize(std::size_t release_size, std::size_t expected,
                      const std::string& what, CheckLog& log) {
  log.Expect(release_size == expected,
             what + ": release has " + std::to_string(release_size) +
                 " records, expected " + std::to_string(expected));
}

void CheckIdenticalRelease(const std::string& release,
                           const std::string& reference,
                           const std::string& what, CheckLog& log) {
  log.Expect(release == reference,
             what + ": release differs from the in-process reference");
}

void CheckSameAnswer(const condensa::query::QueryResult& served,
                     const condensa::query::QueryResult& local,
                     const std::string& what, CheckLog& log) {
  using condensa::query::QueryKind;
  bool same = served.kind == local.kind &&
              served.snapshot_version == local.snapshot_version;
  if (same) {
    switch (served.kind) {
      case QueryKind::kClassify:
        same = served.classify.labels == local.classify.labels;
        break;
      case QueryKind::kAggregate: {
        const auto& a = served.aggregate;
        const auto& b = local.aggregate;
        same = a.groups_matched == b.groups_matched &&
               a.records == b.records && a.has_moments == b.has_moments &&
               SameVector(a.mean, b.mean) &&
               SameMatrix(a.covariance, b.covariance);
        break;
      }
      case QueryKind::kRegenerate: {
        const auto& a = served.regenerate;
        const auto& b = local.regenerate;
        same = a.groups_matched == b.groups_matched &&
               a.records.size() == b.records.size();
        for (std::size_t i = 0; same && i < a.records.size(); ++i) {
          same = SameVector(a.records[i], b.records[i]);
        }
        break;
      }
    }
  }
  log.Expect(same, what + ": served " +
                       condensa::query::QueryKindName(served.kind) +
                       " answer differs from the in-process engine at "
                       "snapshot version " +
                       std::to_string(served.snapshot_version));
}

}  // namespace perfbench
