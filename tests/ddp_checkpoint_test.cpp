// Checkpoint durability tests: encode/decode roundtrip, exhaustive
// bit-flip and truncation fuzzing (every rejection must be a typed
// CheckpointError, never UB or a half-loaded state), staleness semantics,
// and the CheckpointStore's write/rollback/retention/sweep behavior.

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "ddp/checkpoint.h"
#include "util/hash.h"

namespace pd = polarice::ddp;
namespace fs = std::filesystem;

namespace {

constexpr std::uint64_t kFingerprint = 0x1234'5678'9abc'def0ULL;

pd::TrainCheckpoint sample_checkpoint() {
  pd::TrainCheckpoint ck;
  ck.epoch = 3;
  ck.step = 5;
  ck.global_step = 29;
  ck.adam_t = 29;
  ck.params = {1.0f, -2.5f, 0.125f, 3e7f, -0.0f};
  ck.adam_m = {0.1f, 0.2f, 0.3f, 0.4f, 0.5f};
  ck.adam_v = {1e-8f, 2e-8f, 3e-8f, 4e-8f, 5e-8f};
  return ck;
}

/// Fresh scratch directory per test.
std::string scratch_dir(const std::string& name) {
  const auto dir = fs::temp_directory_path() / ("polarice-ckpt-" + name);
  fs::remove_all(dir);
  fs::create_directories(dir);
  return dir.string();
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

}  // namespace

TEST(Checkpoint, EncodeDecodeRoundtrip) {
  const auto ck = sample_checkpoint();
  const auto bytes = pd::encode_checkpoint(ck, kFingerprint);
  const auto back = pd::decode_checkpoint(bytes.data(), bytes.size(),
                                          kFingerprint);
  EXPECT_EQ(back, ck);
}

// Pins the on-disk format: the digest was taken before the store moved
// onto util/durable_file, and any byte the encoder changes moves it.
TEST(Checkpoint, EncodingMatchesGoldenDigest) {
  const auto bytes = pd::encode_checkpoint(sample_checkpoint(), kFingerprint);
  const auto digest = polarice::util::fnv128(bytes.data(), bytes.size());
  EXPECT_EQ(digest.lo, 0x4268e8b99702bb1cULL)
      << std::hex << "lo 0x" << digest.lo;
  EXPECT_EQ(digest.hi, 0x367a2d04d4f5e86dULL)
      << std::hex << "hi 0x" << digest.hi;
}

TEST(Checkpoint, RoundtripsEmptyState) {
  pd::TrainCheckpoint ck;  // zero cursor, no tensors
  const auto bytes = pd::encode_checkpoint(ck, kFingerprint);
  EXPECT_EQ(pd::decode_checkpoint(bytes.data(), bytes.size(), kFingerprint),
            ck);
}

// Every single-bit flip anywhere in the image must surface as a typed
// CheckpointError — corrupt for payload/structure damage, stale for the
// header fields (version, fingerprint) that are deliberately outside the
// payload checksum. No flip may decode successfully: every byte of the
// image is load-bearing.
TEST(Checkpoint, EveryBitFlipIsTypedRejection) {
  const auto ck = sample_checkpoint();
  const auto clean = pd::encode_checkpoint(ck, kFingerprint);
  for (std::size_t byte = 0; byte < clean.size(); ++byte) {
    for (int bit = 0; bit < 8; ++bit) {
      auto evil = clean;
      evil[byte] = static_cast<std::uint8_t>(evil[byte] ^ (1u << bit));
      EXPECT_THROW(
          (void)pd::decode_checkpoint(evil.data(), evil.size(), kFingerprint),
          pd::CheckpointError)
          << "byte " << byte << " bit " << bit;
    }
  }
}

// Every truncation length (including 0) must be CheckpointCorrupt.
TEST(Checkpoint, EveryTruncationIsCorrupt) {
  const auto clean = pd::encode_checkpoint(sample_checkpoint(), kFingerprint);
  for (std::size_t n = 0; n < clean.size(); ++n) {
    EXPECT_THROW((void)pd::decode_checkpoint(clean.data(), n, kFingerprint),
                 pd::CheckpointCorrupt)
        << "truncated to " << n;
  }
}

TEST(Checkpoint, TrailingGarbageIsCorrupt) {
  auto bytes = pd::encode_checkpoint(sample_checkpoint(), kFingerprint);
  bytes.push_back(0xAB);
  EXPECT_THROW(
      (void)pd::decode_checkpoint(bytes.data(), bytes.size(), kFingerprint),
      pd::CheckpointCorrupt);
}

TEST(Checkpoint, ForeignFingerprintIsStale) {
  const auto bytes = pd::encode_checkpoint(sample_checkpoint(), kFingerprint);
  EXPECT_THROW(
      (void)pd::decode_checkpoint(bytes.data(), bytes.size(), kFingerprint ^ 1),
      pd::CheckpointStale);
}

TEST(CheckpointStore, WriteThenLoadLatest) {
  pd::CheckpointStore store({scratch_dir("roundtrip"), kFingerprint, 3});
  auto ck = sample_checkpoint();
  store.write(ck);
  ck.global_step = 37;
  ck.params[0] = 9.0f;
  store.write(ck);

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, ck);  // the newer one
  EXPECT_EQ(store.stats().written, 2u);
  EXPECT_EQ(store.stats().corrupt, 0u);
}

TEST(CheckpointStore, EmptyDirLoadsNothing) {
  pd::CheckpointStore store({scratch_dir("empty"), kFingerprint, 3});
  EXPECT_FALSE(store.load_latest().has_value());
}

TEST(CheckpointStore, RetentionKeepsNewest) {
  const auto dir = scratch_dir("retain");
  pd::CheckpointStore store({dir, kFingerprint, 2});
  auto ck = sample_checkpoint();
  for (int i = 1; i <= 5; ++i) {
    ck.global_step = i;
    store.write(ck);
  }
  std::size_t files = 0;
  for (const auto& entry : fs::directory_iterator(dir)) {
    (void)entry;
    ++files;
  }
  EXPECT_EQ(files, 2u);
  EXPECT_EQ(store.stats().pruned, 3u);
  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->global_step, 5);
}

// A corrupted newest file must be skipped (and removed) in favor of the
// newest survivor — the rollback path after a crash mid-write that somehow
// still produced a damaged file.
TEST(CheckpointStore, CorruptNewestFallsBackToSurvivor) {
  const auto dir = scratch_dir("fallback");
  pd::CheckpointStore store({dir, kFingerprint, 4});
  auto ck = sample_checkpoint();
  ck.global_step = 10;
  store.write(ck);
  ck.global_step = 20;
  ck.params[1] = -7.0f;
  store.write(ck);

  // Corrupt the newest file in place.
  std::string newest;
  for (const auto& entry : fs::directory_iterator(dir)) {
    const auto name = entry.path().filename().string();
    if (newest.empty() || name > fs::path(newest).filename().string()) {
      newest = entry.path().string();
    }
  }
  ASSERT_FALSE(newest.empty());
  {
    std::fstream f(newest, std::ios::binary | std::ios::in | std::ios::out);
    f.seekp(60);
    char zap = 0x5A;
    f.write(&zap, 1);
  }

  const auto loaded = store.load_latest();
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->global_step, 10);
  EXPECT_EQ(store.stats().corrupt, 1u);
  EXPECT_FALSE(fs::exists(newest)) << "corrupt file must be unlinked";
}

// Checkpoints written under a different training fingerprint must be
// rejected as stale, not resumed.
TEST(CheckpointStore, ForeignFingerprintFilesAreStale) {
  const auto dir = scratch_dir("stale");
  {
    pd::CheckpointStore other({dir, kFingerprint ^ 0xFF, 3});
    auto ck = sample_checkpoint();
    ck.global_step = 50;
    other.write(ck);
  }
  pd::CheckpointStore store({dir, kFingerprint, 3});
  EXPECT_FALSE(store.load_latest().has_value());
  EXPECT_EQ(store.stats().stale, 1u);
}

TEST(CheckpointStore, SweepsTmpLeftoversOnOpen) {
  const auto dir = scratch_dir("sweep");
  write_file(dir + "/ckpt-00000000000000000007.ice.tmp", {1, 2, 3});
  pd::CheckpointStore store({dir, kFingerprint, 3});
  EXPECT_FALSE(fs::exists(dir + "/ckpt-00000000000000000007.ice.tmp"));
  EXPECT_FALSE(store.load_latest().has_value());
}

// A non-empty directory at the checkpoint's final name makes the rename
// fail, also as root (where chmod blocks nothing).
TEST(CheckpointStore, FailedWriteThrowsCheckpointErrorAndLeavesNoTmp) {
  const auto dir = scratch_dir("blocked");
  const auto ck = sample_checkpoint();  // global_step 29
  const std::string blocked = dir + "/ckpt-00000000000000000029.ice";
  fs::create_directory(blocked);
  write_file(blocked + "/x", {1});
  pd::CheckpointStore store({dir, kFingerprint, 3});
  EXPECT_THROW(store.write(ck), pd::CheckpointError);
  EXPECT_EQ(store.stats().written, 0u);
  for (const auto& entry : fs::directory_iterator(dir)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  EXPECT_TRUE(fs::exists(blocked + "/x"));
}

TEST(CheckpointStore, IgnoresUnrelatedFiles) {
  const auto dir = scratch_dir("unrelated");
  write_file(dir + "/README", {'h', 'i'});
  pd::CheckpointStore store({dir, kFingerprint, 3});
  EXPECT_FALSE(store.load_latest().has_value());
  EXPECT_TRUE(fs::exists(dir + "/README"));
}

TEST(CheckpointStore, ValidatesConfig) {
  EXPECT_THROW(pd::CheckpointStore({"", kFingerprint, 3}),
               std::invalid_argument);
  EXPECT_THROW(pd::CheckpointStore({scratch_dir("cfg"), kFingerprint, 0}),
               std::invalid_argument);
}
