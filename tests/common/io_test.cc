#include "common/io.h"

#include <gtest/gtest.h>

#include <limits.h>

#include <string>
#include <string_view>
#include <vector>

#include "common/failpoint.h"

namespace condensa {
namespace {

class IoTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FailPoint::Reset();
    // One directory per test case: ctest runs each case as its own
    // process, and a shared path makes concurrent cases sweep each
    // other's files mid-test (flaky under `ctest -j`).
    dir_ = ::testing::TempDir() + "/condensa_io_test_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    ASSERT_TRUE(CreateDirectories(dir_).ok());
    // Start each test from an empty directory.
    auto entries = ListDirectory(dir_);
    ASSERT_TRUE(entries.ok());
    for (const std::string& name : *entries) {
      ASSERT_TRUE(RemoveFile(dir_ + "/" + name).ok());
    }
  }
  void TearDown() override { FailPoint::Reset(); }

  std::string dir_;
};

TEST_F(IoTest, ReadMissingFileIsNotFound) {
  auto content = ReadFileToString(dir_ + "/nope");
  EXPECT_TRUE(IsNotFound(content.status()));
}

TEST_F(IoTest, AtomicWriteRoundTripAndOverwrite) {
  const std::string path = dir_ + "/file.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "first").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "first");

  ASSERT_TRUE(WriteFileAtomic(path, "second, longer content").ok());
  content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "second, longer content");
}

TEST_F(IoTest, TornAtomicWriteLeavesPreviousFileIntact) {
  const std::string path = dir_ + "/file.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "stable content").ok());

  FailPoint::Arm("io.atomic_write",
                 {.mode = FailPointMode::kTornWrite, .torn_bytes = 4});
  Status torn = WriteFileAtomic(path, "replacement that gets torn");
  FailPoint::Reset();
  EXPECT_EQ(torn.code(), StatusCode::kDataLoss);

  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "stable content");
  // No temp files may survive the failed attempt.
  auto entries = ListDirectory(dir_);
  ASSERT_TRUE(entries.ok());
  ASSERT_EQ(entries->size(), 1u);
  EXPECT_EQ(entries->front(), "file.txt");
}

TEST_F(IoTest, FailedRenameLeavesPreviousFileIntact) {
  const std::string path = dir_ + "/file.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "stable content").ok());

  FailPoint::Arm("io.atomic_rename", {});
  Status failed = WriteFileAtomic(path, "never visible");
  FailPoint::Reset();
  EXPECT_FALSE(failed.ok());

  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "stable content");
  auto entries = ListDirectory(dir_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 1u);
}

TEST_F(IoTest, FailedSyncLeavesPreviousFileIntact) {
  const std::string path = dir_ + "/file.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "stable content").ok());

  FailPoint::Arm("io.sync", {});
  Status failed = WriteFileAtomic(path, "never visible");
  FailPoint::Reset();
  EXPECT_FALSE(failed.ok());

  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "stable content");
}

// Pieces of varied sizes, empty ones included, and the string they join
// into.
std::vector<std::string> MakePieces(std::size_t count) {
  std::vector<std::string> pieces;
  for (std::size_t i = 0; i < count; ++i) {
    pieces.push_back(i % 5 == 3 ? std::string()
                                : std::string(1 + i % 7,
                                              static_cast<char>('a' + i % 26)));
  }
  return pieces;
}

std::string Join(const std::vector<std::string>& pieces) {
  std::string joined;
  for (const std::string& piece : pieces) joined += piece;
  return joined;
}

std::vector<std::string_view> Views(const std::vector<std::string>& pieces) {
  return std::vector<std::string_view>(pieces.begin(), pieces.end());
}

TEST_F(IoTest, PiecesWriteMatchesTheJoinedString) {
  // More than IOV_MAX pieces take several writev batches.
  for (std::size_t count : {std::size_t{0}, std::size_t{1}, std::size_t{4},
                            std::size_t{IOV_MAX}, std::size_t{2 * IOV_MAX + 7}}) {
    SCOPED_TRACE("pieces " + std::to_string(count));
    const std::vector<std::string> pieces = MakePieces(count);
    ASSERT_TRUE(WriteFileAtomic(dir_ + "/joined", Join(pieces)).ok());
    ASSERT_TRUE(WriteFileAtomic(dir_ + "/pieces", Views(pieces)).ok());
    auto joined = ReadFileToString(dir_ + "/joined");
    auto gathered = ReadFileToString(dir_ + "/pieces");
    ASSERT_TRUE(joined.ok());
    ASSERT_TRUE(gathered.ok());
    EXPECT_EQ(*gathered, *joined);
    EXPECT_EQ(*gathered, Join(pieces));
  }
  // Only empty pieces: an empty file.
  const std::vector<std::string> empties(3);
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/empty", Views(empties)).ok());
  auto empty = ReadFileToString(dir_ + "/empty");
  ASSERT_TRUE(empty.ok());
  EXPECT_EQ(*empty, "");
}

TEST_F(IoTest, TornPiecesWriteLeavesPreviousFileIntact) {
  const std::string path = dir_ + "/file.txt";
  ASSERT_TRUE(WriteFileAtomic(path, "stable content").ok());

  // The first piece is 2 bytes and the second empty, so 3 bytes end
  // inside the third piece; half of the payload ends in a later batch.
  std::vector<std::string> pieces = {"ab", "", "cdefgh"};
  for (const std::string& piece : MakePieces(3 * IOV_MAX)) {
    pieces.push_back(piece);
  }
  for (std::size_t torn : {std::size_t{3}, static_cast<std::size_t>(-1)}) {
    SCOPED_TRACE("torn_bytes " + std::to_string(torn));
    FailPoint::Arm("io.atomic_write",
                   {.mode = FailPointMode::kTornWrite, .torn_bytes = torn});
    Status status = WriteFileAtomic(path, Views(pieces));
    FailPoint::Reset();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);

    auto content = ReadFileToString(path);
    ASSERT_TRUE(content.ok());
    EXPECT_EQ(*content, "stable content");
    auto entries = ListDirectory(dir_);
    ASSERT_TRUE(entries.ok());
    ASSERT_EQ(entries->size(), 1u);
    EXPECT_EQ(entries->front(), "file.txt");
  }

  // A failed rename after a full gathered write is equally invisible.
  FailPoint::Arm("io.atomic_rename", {});
  EXPECT_FALSE(WriteFileAtomic(path, Views(pieces)).ok());
  FailPoint::Reset();
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "stable content");

  ASSERT_TRUE(WriteFileAtomic(path, Views(pieces)).ok());
  content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, Join(pieces));
}

TEST_F(IoTest, AppendFileAccumulatesAcrossReopen) {
  const std::string path = dir_ + "/log";
  {
    auto file = AppendFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("one\n").ok());
    ASSERT_TRUE(file->Sync().ok());
  }
  {
    auto file = AppendFile::Open(path);
    ASSERT_TRUE(file.ok());
    ASSERT_TRUE(file->Append("two\n").ok());
  }
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "one\ntwo\n");
}

TEST_F(IoTest, AppendFileTruncateRepairsTail) {
  const std::string path = dir_ + "/log";
  auto file = AppendFile::Open(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append("keep\ntorn").ok());
  ASSERT_TRUE(file->Truncate(5).ok());
  ASSERT_TRUE(file->Append("next\n").ok());
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "keep\nnext\n");
}

TEST_F(IoTest, TornAppendWritesOnlyThePrefix) {
  const std::string path = dir_ + "/log";
  auto file = AppendFile::Open(path);
  ASSERT_TRUE(file.ok());
  ASSERT_TRUE(file->Append("complete\n").ok());

  FailPoint::Arm("io.append",
                 {.mode = FailPointMode::kTornWrite, .torn_bytes = 3});
  Status torn = file->Append("truncated entry\n");
  FailPoint::Reset();
  EXPECT_FALSE(torn.ok());

  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "complete\ntru");
}

TEST_F(IoTest, TornAppendDefaultsToHalfThePayload) {
  const std::string path = dir_ + "/log";
  auto file = AppendFile::Open(path);
  ASSERT_TRUE(file.ok());
  FailPoint::Arm("io.append", {.mode = FailPointMode::kTornWrite});
  EXPECT_FALSE(file->Append("12345678").ok());
  FailPoint::Reset();
  auto content = ReadFileToString(path);
  ASSERT_TRUE(content.ok());
  EXPECT_EQ(*content, "1234");
}

TEST_F(IoTest, ClosedAppendFileRejectsWrites) {
  auto file = AppendFile::Open(dir_ + "/log");
  ASSERT_TRUE(file.ok());
  file->Close();
  EXPECT_FALSE(file->is_open());
  EXPECT_EQ(file->Append("x").code(), StatusCode::kFailedPrecondition);
  EXPECT_EQ(file->Sync().code(), StatusCode::kFailedPrecondition);
}

TEST_F(IoTest, RemoveMissingFileIsOk) {
  EXPECT_TRUE(RemoveFile(dir_ + "/never-existed").ok());
}

TEST_F(IoTest, CreateDirectoriesIsRecursiveAndIdempotent) {
  // Outside dir_ so the fixture's file-only cleanup never sees it.
  const std::string nested = ::testing::TempDir() + "/condensa_io_nested/b/c";
  ASSERT_TRUE(CreateDirectories(nested).ok());
  EXPECT_TRUE(PathExists(nested));
  EXPECT_TRUE(CreateDirectories(nested).ok());
  ASSERT_TRUE(WriteFileAtomic(nested + "/f", "x").ok());
  // Clean up so later runs start from an empty fixture dir.
  ASSERT_TRUE(RemoveFile(nested + "/f").ok());
}

TEST_F(IoTest, ListDirectoryReturnsEntryNames) {
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/x", "1").ok());
  ASSERT_TRUE(WriteFileAtomic(dir_ + "/y", "2").ok());
  auto entries = ListDirectory(dir_);
  ASSERT_TRUE(entries.ok());
  EXPECT_EQ(entries->size(), 2u);
  EXPECT_TRUE(IsNotFound(ListDirectory(dir_ + "/missing").status()));
}

}  // namespace
}  // namespace condensa
