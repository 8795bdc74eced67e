// simfs unit tests on the host heap: path normalization, chunked file
// contents, namespace operations and the fd table. Snapshot and restore of the
// filesystem are the page engine's, checked inside sessions by
// tests/interpose_test.cc.

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "src/simfs/fd_table.h"
#include "src/simfs/file.h"
#include "src/simfs/fs.h"
#include "src/simfs/path.h"
#include "src/util/rng.h"

namespace lw {
namespace {

// --- path.h ---

TEST(PathTest, ValidComponents) {
  EXPECT_TRUE(IsValidPathComponent("a"));
  EXPECT_TRUE(IsValidPathComponent("file.txt"));
  EXPECT_TRUE(IsValidPathComponent("..."));
  EXPECT_FALSE(IsValidPathComponent(""));
  EXPECT_FALSE(IsValidPathComponent("."));
  EXPECT_FALSE(IsValidPathComponent(".."));
  EXPECT_FALSE(IsValidPathComponent("a/b"));
  EXPECT_FALSE(IsValidPathComponent(std::string_view("a\0b", 3)));
}

TEST(PathTest, SplitNormalizes) {
  std::vector<std::string> parts;
  ASSERT_TRUE(SplitPath("/a//b/./c/../d", &parts));
  EXPECT_EQ(parts, (std::vector<std::string>{"a", "b", "d"}));

  ASSERT_TRUE(SplitPath("/", &parts));
  EXPECT_TRUE(parts.empty());

  ASSERT_TRUE(SplitPath("/a/..", &parts));
  EXPECT_TRUE(parts.empty());
}

TEST(PathTest, SplitRejectsBadPaths) {
  std::vector<std::string> parts;
  EXPECT_FALSE(SplitPath("", &parts));
  EXPECT_FALSE(SplitPath("relative/path", &parts));
  EXPECT_FALSE(SplitPath("/..", &parts));
  EXPECT_FALSE(SplitPath("/a/../..", &parts));
}

TEST(PathTest, JoinAndNormalize) {
  EXPECT_EQ(JoinPath({}), "/");
  EXPECT_EQ(JoinPath({"a", "b"}), "/a/b");
  EXPECT_EQ(NormalizePath("//x///y/"), "/x/y");
  EXPECT_EQ(NormalizePath("bad"), "");
}

TEST(PathTest, DirnameBasename) {
  EXPECT_EQ(DirnamePath("/a/b"), "/a");
  EXPECT_EQ(DirnamePath("/a"), "/");
  EXPECT_EQ(DirnamePath("/"), "");
  EXPECT_EQ(BasenamePath("/a/b"), "b");
  EXPECT_EQ(BasenamePath("/"), "");
}

// --- file.h ---

TEST(FileDataTest, EmptyReadsNothing) {
  FileData d;
  char buf[8];
  EXPECT_EQ(d.size(), 0u);
  EXPECT_EQ(d.Read(0, buf, sizeof buf), 0u);
}

TEST(FileDataTest, WriteThenRead) {
  FileData d;
  d.Write(0, "hello", 5);
  EXPECT_EQ(d.size(), 5u);
  EXPECT_EQ(d.ToString(), "hello");
}

TEST(FileDataTest, SparseWriteReadsZerosInHole) {
  FileData d;
  d.Write(3 * FileData::kChunkSize, "Z", 1);
  EXPECT_EQ(d.size(), 3 * FileData::kChunkSize + 1);
  // Chunks 0..2 are holes.
  EXPECT_EQ(d.MaterializedBytes(), FileData::kChunkSize);
  char c = 'x';
  EXPECT_EQ(d.Read(10, &c, 1), 1u);
  EXPECT_EQ(c, '\0');
  EXPECT_EQ(d.Read(3 * FileData::kChunkSize, &c, 1), 1u);
  EXPECT_EQ(c, 'Z');
}

TEST(FileDataTest, CrossChunkWrite) {
  std::string big(FileData::kChunkSize + 100, 'q');
  FileData d;
  d.Write(FileData::kChunkSize - 50, big.data(), big.size());
  EXPECT_EQ(d.size(), FileData::kChunkSize - 50 + big.size());
  std::string out(big.size(), '\0');
  EXPECT_EQ(d.Read(FileData::kChunkSize - 50, out.data(), out.size()), big.size());
  EXPECT_EQ(out, big);
}

TEST(FileDataTest, TruncateShrinkZeroesBoundaryTail) {
  std::string filler(2 * FileData::kChunkSize, 'f');
  FileData d;
  d.Write(0, filler.data(), filler.size());
  d.Truncate(100);
  EXPECT_EQ(d.size(), 100u);
  EXPECT_EQ(d.MaterializedBytes(), FileData::kChunkSize);  // chunk 1 dropped
  // Re-extend: bytes past 100 must read as zeros, not stale 'f'.
  d.Truncate(200);
  char buf[100];
  EXPECT_EQ(d.Read(100, buf, 100), 100u);
  for (char ch : buf) {
    EXPECT_EQ(ch, '\0');
  }
}

TEST(FileDataTest, TruncateGrowMakesHole) {
  FileData d;
  d.Write(0, "x", 1);
  d.Truncate(10 * FileData::kChunkSize);
  EXPECT_EQ(d.size(), 10 * FileData::kChunkSize);
  EXPECT_EQ(d.MaterializedBytes(), FileData::kChunkSize);  // only chunk 0
}

TEST(FileDataTest, ContentEqualsTreatsHolesAsZeros) {
  FileData hole;
  hole.Truncate(FileData::kChunkSize);
  std::string zeros(FileData::kChunkSize, '\0');
  FileData explicit_zeros;
  explicit_zeros.Write(0, zeros.data(), zeros.size());
  EXPECT_TRUE(hole.ContentEquals(explicit_zeros));
  EXPECT_TRUE(explicit_zeros.ContentEquals(hole));
  explicit_zeros.Write(17, "x", 1);
  EXPECT_FALSE(hole.ContentEquals(explicit_zeros));
}

// Property sweep: random in-place writes and truncates against a plain-string
// model.
class FileDataRandomTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(FileDataRandomTest, MatchesStringModel) {
  Rng rng(GetParam());
  FileData d;
  std::string model;
  for (int op = 0; op < 200; ++op) {
    if (rng.Next() % 4 == 0) {
      size_t new_size = rng.Next() % (3 * FileData::kChunkSize);
      d.Truncate(new_size);
      model.resize(new_size, '\0');
    } else {
      size_t off = rng.Next() % (2 * FileData::kChunkSize);
      size_t len = 1 + rng.Next() % 300;
      std::string payload(len, static_cast<char>('a' + op % 26));
      d.Write(off, payload.data(), len);
      if (model.size() < off + len) {
        model.resize(off + len, '\0');
      }
      model.replace(off, len, payload);
    }
    ASSERT_EQ(d.size(), model.size());
  }
  EXPECT_EQ(d.ToString(), model);
}

INSTANTIATE_TEST_SUITE_P(Seeds, FileDataRandomTest, ::testing::Values(1, 2, 3, 42, 1234));

// --- fs.h ---

TEST(SimFsTest, RootExists) {
  SimFs fs;
  auto st = fs.Stat("/");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->ino, SimFs::kRootIno);
  EXPECT_EQ(st->type, NodeType::kDir);
  EXPECT_EQ(fs.live_inodes(), 1u);
}

TEST(SimFsTest, CreateWriteRead) {
  SimFs fs;
  auto ino = fs.Create("/hello.txt");
  ASSERT_TRUE(ino.ok());
  ASSERT_TRUE(fs.WriteAt(*ino, 0, "world", 5).ok());
  char buf[16] = {};
  auto n = fs.ReadAt(*ino, 0, buf, sizeof buf);
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(*n, 5u);
  EXPECT_EQ(std::string(buf, 5), "world");
}

TEST(SimFsTest, CreateRequiresParent) {
  SimFs fs;
  EXPECT_EQ(fs.Create("/no/such/dir/f").status().code(), ErrorCode::kNotFound);
  ASSERT_TRUE(fs.Mkdir("/no").ok());
  ASSERT_TRUE(fs.Mkdir("/no/such").ok());
  ASSERT_TRUE(fs.Mkdir("/no/such/dir").ok());
  EXPECT_TRUE(fs.Create("/no/such/dir/f").ok());
}

TEST(SimFsTest, CreateDuplicateFails) {
  SimFs fs;
  ASSERT_TRUE(fs.Create("/f").ok());
  EXPECT_EQ(fs.Create("/f").status().code(), ErrorCode::kAlreadyExists);
  EXPECT_EQ(fs.Mkdir("/f").status().code(), ErrorCode::kAlreadyExists);
}

TEST(SimFsTest, LookupNormalizesPath) {
  SimFs fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Create("/a/f").ok());
  auto direct = fs.Lookup("/a/f");
  auto crooked = fs.Lookup("//a/./b/../f");
  ASSERT_TRUE(direct.ok());
  ASSERT_TRUE(crooked.ok());
  EXPECT_EQ(*direct, *crooked);
}

TEST(SimFsTest, UnlinkFile) {
  SimFs fs;
  ASSERT_TRUE(fs.Create("/f").ok());
  EXPECT_EQ(fs.live_inodes(), 2u);
  ASSERT_TRUE(fs.Unlink("/f").ok());
  EXPECT_EQ(fs.live_inodes(), 1u);
  EXPECT_EQ(fs.Lookup("/f").status().code(), ErrorCode::kNotFound);
}

TEST(SimFsTest, UnlinkNonEmptyDirFails) {
  SimFs fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Create("/d/f").ok());
  EXPECT_EQ(fs.Unlink("/d").code(), ErrorCode::kBadState);
  ASSERT_TRUE(fs.Unlink("/d/f").ok());
  EXPECT_TRUE(fs.Unlink("/d").ok());
}

TEST(SimFsTest, RenameMovesAndReplaces) {
  SimFs fs;
  ASSERT_TRUE(fs.Mkdir("/a").ok());
  ASSERT_TRUE(fs.Mkdir("/b").ok());
  auto f = fs.Create("/a/f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs.WriteAt(*f, 0, "data", 4).ok());

  ASSERT_TRUE(fs.Rename("/a/f", "/b/g").ok());
  EXPECT_EQ(fs.Lookup("/a/f").status().code(), ErrorCode::kNotFound);
  auto g = fs.Lookup("/b/g");
  ASSERT_TRUE(g.ok());
  EXPECT_EQ(*g, *f);  // same inode moved

  // Replacing an existing file drops the victim.
  auto v = fs.Create("/b/victim");
  ASSERT_TRUE(v.ok());
  uint64_t before = fs.live_inodes();
  ASSERT_TRUE(fs.Rename("/b/g", "/b/victim").ok());
  EXPECT_EQ(fs.live_inodes(), before - 1);
  auto moved = fs.Lookup("/b/victim");
  ASSERT_TRUE(moved.ok());
  EXPECT_EQ(*moved, *f);
}

TEST(SimFsTest, RenameRejectsCycleAndDirOnto) {
  SimFs fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  ASSERT_TRUE(fs.Mkdir("/d/sub").ok());
  EXPECT_EQ(fs.Rename("/d", "/d/sub/d2").code(), ErrorCode::kBadState);
  ASSERT_TRUE(fs.Create("/f").ok());
  EXPECT_EQ(fs.Rename("/f", "/d").code(), ErrorCode::kBadState);
  EXPECT_EQ(fs.Rename("/d", "/f").code(), ErrorCode::kBadState);
}

TEST(SimFsTest, RenameToSelfIsNoop) {
  SimFs fs;
  ASSERT_TRUE(fs.Create("/f").ok());
  EXPECT_TRUE(fs.Rename("/f", "/f").ok());
  EXPECT_TRUE(fs.Lookup("/f").ok());
}

TEST(SimFsTest, ReaddirSorted) {
  SimFs fs;
  ASSERT_TRUE(fs.Create("/zz").ok());
  ASSERT_TRUE(fs.Create("/aa").ok());
  ASSERT_TRUE(fs.Mkdir("/mm").ok());
  auto names = fs.Readdir("/");
  ASSERT_TRUE(names.ok());
  EXPECT_EQ(*names, (std::vector<std::string>{"aa", "mm", "zz"}));
}

TEST(SimFsTest, StatReportsSizes) {
  SimFs fs;
  auto f = fs.Create("/f");
  ASSERT_TRUE(f.ok());
  ASSERT_TRUE(fs.WriteAt(*f, 0, "12345678", 8).ok());
  auto st = fs.Stat("/f");
  ASSERT_TRUE(st.ok());
  EXPECT_EQ(st->size, 8u);
  EXPECT_EQ(st->type, NodeType::kFile);
  auto root = fs.Stat("/");
  ASSERT_TRUE(root.ok());
  EXPECT_EQ(root->size, 1u);  // one entry
}

TEST(SimFsTest, VersionRisesOnEveryMutation) {
  SimFs fs;
  auto f = fs.Create("/f");
  ASSERT_TRUE(f.ok());
  const uint64_t created = fs.StatIno(*f)->version;
  const uint64_t root_before = fs.Stat("/")->version;
  ASSERT_TRUE(fs.WriteAt(*f, 0, "x", 1).ok());
  const uint64_t written = fs.StatIno(*f)->version;
  EXPECT_GT(written, created);
  ASSERT_TRUE(fs.Truncate(*f, 0).ok());
  EXPECT_GT(fs.StatIno(*f)->version, written);
  ASSERT_TRUE(fs.Rename("/f", "/g").ok());
  EXPECT_GT(fs.Stat("/")->version, root_before);
}

TEST(SimFsTest, IoOnDirectoryFails) {
  SimFs fs;
  ASSERT_TRUE(fs.Mkdir("/d").ok());
  auto ino = fs.Lookup("/d");
  ASSERT_TRUE(ino.ok());
  char b;
  EXPECT_EQ(fs.ReadAt(*ino, 0, &b, 1).status().code(), ErrorCode::kBadState);
  EXPECT_EQ(fs.WriteAt(*ino, 0, &b, 1).status().code(), ErrorCode::kBadState);
  EXPECT_EQ(fs.Truncate(*ino, 0).code(), ErrorCode::kBadState);
}

// --- fd_table.h ---

TEST(FdTableTest, AllocLowestFree) {
  FdTable t;
  auto a = t.Alloc(10, kOpenRead);
  auto b = t.Alloc(11, kOpenRead);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, FdTable::kFirstFd);
  EXPECT_EQ(*b, FdTable::kFirstFd + 1);
  ASSERT_TRUE(t.Close(*a).ok());
  auto c = t.Alloc(12, kOpenRead);
  ASSERT_TRUE(c.ok());
  EXPECT_EQ(*c, FdTable::kFirstFd);  // reuses the lowest slot
}

TEST(FdTableTest, GetAndClose) {
  FdTable t;
  auto fd = t.Alloc(42, kOpenRead | kOpenWrite);
  ASSERT_TRUE(fd.ok());
  FdEntry* e = t.Get(*fd);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->ino, 42u);
  e->offset = 100;
  EXPECT_EQ(t.Get(*fd)->offset, 100u);
  ASSERT_TRUE(t.Close(*fd).ok());
  EXPECT_EQ(t.Get(*fd), nullptr);
  EXPECT_FALSE(t.Close(*fd).ok());
}

TEST(FdTableTest, InvalidFds) {
  FdTable t;
  EXPECT_EQ(t.Get(-1), nullptr);
  EXPECT_EQ(t.Get(0), nullptr);  // std streams are not in the table
  EXPECT_EQ(t.Get(2), nullptr);
  EXPECT_EQ(t.Get(FdTable::kFirstFd), nullptr);
}

}  // namespace
}  // namespace lw
