// util/durable_file: publish_file's atomic-replace contract (content lands
// whole, no *.tmp survives, a failed publish leaves the old file and
// throws FileError), the tmp sweep, numbered-file listing, and the
// read-only mapping. Failures are provoked by making the final name a
// non-empty directory, which blocks rename() even when running as root.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <string>
#include <vector>

#include "util/durable_file.h"

namespace fs = std::filesystem;
namespace pu = polarice::util;

namespace {

struct TempDir {
  TempDir() {
    char pattern[] = "/tmp/polarice-durable-test-XXXXXX";
    path = ::mkdtemp(pattern);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

std::vector<std::string> names_in(const std::string& dir) {
  std::vector<std::string> names;
  for (const auto& entry : fs::directory_iterator(dir)) {
    names.push_back(entry.path().filename().string());
  }
  std::sort(names.begin(), names.end());
  return names;
}

}  // namespace

TEST(PublishFile, WritesWholeFileAndReplacesOldOne) {
  TempDir dir;
  const std::string path = dir.path + "/data.bin";
  const std::vector<std::uint8_t> first = {1, 2, 3};
  pu::publish_file(path, first);
  EXPECT_EQ(read_file(path), first);

  std::vector<std::uint8_t> second(100000);
  for (std::size_t i = 0; i < second.size(); ++i) {
    second[i] = static_cast<std::uint8_t>(i * 7);
  }
  pu::publish_file(path, second);
  EXPECT_EQ(read_file(path), second);

  pu::publish_file(path, std::vector<std::uint8_t>{});
  EXPECT_TRUE(read_file(path).empty());
  EXPECT_EQ(names_in(dir.path), std::vector<std::string>{"data.bin"});
}

TEST(PublishFile, FailedRenameThrowsAndLeavesNoTmp) {
  TempDir dir;
  const std::string path = dir.path + "/blocked.bin";
  fs::create_directory(path);
  std::ofstream(path + "/x") << "occupied";
  EXPECT_THROW(pu::publish_file(path, std::vector<std::uint8_t>{1, 2}),
               pu::FileError);
  EXPECT_EQ(names_in(dir.path), std::vector<std::string>{"blocked.bin"});
  EXPECT_EQ(names_in(path), std::vector<std::string>{"x"});
}

TEST(PublishFile, MissingDirectoryThrowsFileError) {
  TempDir dir;
  EXPECT_THROW(pu::publish_file(dir.path + "/no/such/file", {}),
               pu::FileError);
  EXPECT_THROW(pu::fsync_dir(dir.path + "/no-such-dir"), pu::FileError);
  EXPECT_NO_THROW(pu::fsync_dir(dir.path));
}

TEST(SweepTmp, RemovesOnlyTmpEntries) {
  TempDir dir;
  for (const char* name : {"a.tmp", "seg-1.ice.tmp", "seg-1.ice", "keep"}) {
    std::ofstream(dir.path + "/" + name) << "x";
  }
  pu::sweep_tmp(dir.path);
  EXPECT_EQ(names_in(dir.path),
            (std::vector<std::string>{"keep", "seg-1.ice"}));
  pu::sweep_tmp(dir.path + "/missing");  // ignored
}

TEST(ListNumbered, SortsByNumberAndSkipsOtherNames) {
  TempDir dir;
  for (const char* name :
       {"seg-10.ice", "seg-2.ice", "seg-007.ice", "seg-.ice", "seg-1a.ice",
        "seg--1.ice", "seg-3.ice.tmp", "seg-4.dat", "xseg-5.ice",
        "seg-99999999999999999999999.ice"}) {
    std::ofstream(dir.path + "/" + name) << "x";
  }
  const auto files = pu::list_numbered(dir.path, "seg-", ".ice");
  ASSERT_EQ(files.size(), 3u);
  EXPECT_EQ(files[0].first, 2u);
  EXPECT_EQ(files[0].second, dir.path + "/seg-2.ice");
  EXPECT_EQ(files[1].first, 7u);
  EXPECT_EQ(files[2].first, 10u);
  EXPECT_TRUE(pu::list_numbered(dir.path + "/missing", "seg-", ".ice").empty());
}

TEST(MappedFile, MapsContentAndEmptyFiles) {
  TempDir dir;
  const std::vector<std::uint8_t> bytes = {9, 8, 7, 6};
  pu::publish_file(dir.path + "/full", bytes);
  pu::publish_file(dir.path + "/empty", {});
  const pu::MappedFile full(dir.path + "/full");
  ASSERT_EQ(full.size(), bytes.size());
  EXPECT_EQ(std::vector<std::uint8_t>(full.data(), full.data() + full.size()),
            bytes);
  const pu::MappedFile empty(dir.path + "/empty");
  EXPECT_EQ(empty.data(), nullptr);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_THROW(pu::MappedFile(dir.path + "/missing"), pu::FileError);
}
