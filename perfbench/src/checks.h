// Output checkers. Every workload runs its outputs through these; a
// failed check counts as a failed operation, so `failed` in the result
// line (and hence the error rate) is only as strong as these functions.
// tests/checks_test.cc feeds each one a deliberately corrupted output.
#ifndef CONDENSA_PERFBENCH_CHECKS_H_
#define CONDENSA_PERFBENCH_CHECKS_H_

#include <cstddef>
#include <string>
#include <vector>

#include "core/condensed_group_set.h"
#include "query/query.h"

namespace perfbench {

class CheckLog {
 public:
  // Records one check; returns `ok` so callers can branch on it.
  bool Expect(bool ok, const std::string& what);

  std::size_t checks() const { return checks_; }
  std::size_t failed() const { return failures_.size(); }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::size_t checks_ = 0;
  std::vector<std::string> failures_;
};

// Every group holds at least k records and the group sizes add up to the
// number of records fed in.
void CheckGroups(const condensa::core::CondensedGroupSet& groups,
                 std::size_t k, std::size_t records_fed,
                 const std::string& what, CheckLog& log);

// The regenerated release has exactly one record per input record.
void CheckReleaseSize(std::size_t release_size, std::size_t expected,
                      const std::string& what, CheckLog& log);

// Byte identity of two serialized releases (fabric vs in-process oracle).
void CheckIdenticalRelease(const std::string& release,
                           const std::string& reference,
                           const std::string& what, CheckLog& log);

// A served answer equals the in-process engine's answer on the same
// snapshot version, field by field and bit for bit.
void CheckSameAnswer(const condensa::query::QueryResult& served,
                     const condensa::query::QueryResult& local,
                     const std::string& what, CheckLog& log);

}  // namespace perfbench

#endif  // CONDENSA_PERFBENCH_CHECKS_H_
