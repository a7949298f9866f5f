// CacheStore durability semantics: write/reload roundtrip, atomic-rename
// crash discipline (*.tmp sweep), live-process lock guard, stale
// version/fingerprint discard, compaction — and the corruption fuzz the
// format exists for: every single-byte flip, every truncation length, and
// a mismatched version header must open clean (damaged data discarded,
// never a crash, never a wrong plane), mirroring the net_wire_test fuzz
// loops. Plus the SceneServer integration: warm start from disk, warm-hit
// accounting, and the flock guard surfacing as CacheStoreLocked.

#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/serve/cache_store.h"
#include "core/serve/scene_server.h"
#include "util/hash.h"
#include "img/image.h"
#include "nn/unet.h"
#include "s2/scene.h"

namespace fs = std::filesystem;
namespace pv = polarice::core::serve;
namespace pi = polarice::img;
namespace pn = polarice::nn;
namespace ps = polarice::s2;

namespace {

/// Fresh empty directory under the test tmpdir, removed on destruction.
struct TempDir {
  TempDir() {
    char pattern[] = "/tmp/polarice-cache-test-XXXXXX";
    path = ::mkdtemp(pattern);
    EXPECT_FALSE(path.empty());
  }
  ~TempDir() {
    std::error_code ec;
    fs::remove_all(path, ec);
  }
  std::string path;
};

pv::CacheStoreConfig store_config(const std::string& dir,
                                  std::uint64_t fingerprint = 7) {
  pv::CacheStoreConfig cfg;
  cfg.dir = dir;
  cfg.fingerprint = fingerprint;
  return cfg;
}

pi::ImageU8 make_plane(int w, int h, std::uint8_t fill) {
  return pi::ImageU8(w, h, 1, fill);
}

pv::SceneKey make_key(std::uint64_t lo, int w, int h) {
  pv::SceneKey key;
  key.hash_lo = lo;
  key.hash_hi = lo * 31 + 7;
  key.width = w;
  key.height = h;
  key.channels = 3;
  return key;
}

/// Writes two entries and flushes, returning the single segment's path.
std::string write_reference_segment(const std::string& dir) {
  pv::CacheStore store(store_config(dir));
  EXPECT_TRUE(store.append(make_key(1, 16, 8), make_plane(16, 8, 3)));
  EXPECT_TRUE(store.append(make_key(2, 8, 8), make_plane(8, 8, 9)));
  store.flush();
  std::string segment;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.path().extension() == ".ice") segment = entry.path().string();
  }
  EXPECT_FALSE(segment.empty());
  return segment;
}

std::vector<std::uint8_t> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in),
                                   std::istreambuf_iterator<char>());
}

void write_file(const std::string& path, const std::vector<std::uint8_t>& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

}  // namespace

TEST(CacheStore, RoundTripsEntriesAcrossReopen) {
  TempDir dir;
  const auto key_a = make_key(10, 32, 16);
  const auto key_b = make_key(11, 16, 16);
  const auto plane_a = make_plane(32, 16, 1);
  const auto plane_b = make_plane(16, 16, 200);
  {
    pv::CacheStore store(store_config(dir.path));
    EXPECT_TRUE(store.take_loaded().empty());
    EXPECT_TRUE(store.append(key_a, plane_a));
    EXPECT_TRUE(store.append(key_b, plane_b));
    // Content-addressed de-dup: same key again is a no-op.
    EXPECT_FALSE(store.append(key_a, plane_a));
    store.flush();
    const auto stats = store.stats();
    EXPECT_EQ(stats.appended, 2u);
    EXPECT_EQ(stats.flushed, 2u);
    EXPECT_EQ(stats.pending, 0u);
  }
  pv::CacheStore reopened(store_config(dir.path));
  auto loaded = reopened.take_loaded();
  ASSERT_EQ(loaded.size(), 2u);
  const auto stats = reopened.stats();
  EXPECT_EQ(stats.loaded, 2u);
  EXPECT_EQ(stats.corrupt, 0u);
  EXPECT_EQ(stats.stale, 0u);
  for (const auto& entry : loaded) {
    if (entry.key == key_a) {
      EXPECT_EQ(entry.plane, plane_a);
    } else {
      EXPECT_EQ(entry.key, key_b);
      EXPECT_EQ(entry.plane, plane_b);
    }
  }
  // Keys already durable stay deduped after reopen.
  EXPECT_FALSE(reopened.append(key_a, plane_a));
}

// Pins the segment format: the digest was taken before the store moved
// onto util/durable_file, and any byte the writer changes moves it.
TEST(CacheStore, SegmentMatchesGoldenDigest) {
  TempDir dir;
  const auto bytes = read_file(write_reference_segment(dir.path));
  const auto digest = polarice::util::fnv128(bytes.data(), bytes.size());
  EXPECT_EQ(digest.lo, 0xdfdbbcf33c83bd8aULL)
      << std::hex << "lo 0x" << digest.lo;
  EXPECT_EQ(digest.hi, 0x24427c9712a6df2fULL)
      << std::hex << "hi 0x" << digest.hi;
}

TEST(CacheStore, FlushIsEmptySafeAndTmpLeftoversAreSwept) {
  TempDir dir;
  {
    pv::CacheStore store(store_config(dir.path));
    store.flush();  // nothing pending: no segment appears
    std::size_t segments = 0;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      if (entry.path().extension() == ".ice") ++segments;
    }
    EXPECT_EQ(segments, 0u);
  }
  // A crashed flush leaves a *.tmp; by construction nothing references it,
  // so open deletes it and loads nothing from it.
  const std::string tmp = dir.path + "/seg-9.ice.tmp";
  write_file(tmp, {1, 2, 3, 4});
  pv::CacheStore store(store_config(dir.path));
  EXPECT_TRUE(store.take_loaded().empty());
  EXPECT_FALSE(fs::exists(tmp));
}

// A non-empty directory at the segment's final name makes the rename fail,
// also as root (where chmod blocks nothing).
TEST(CacheStore, FailedFlushThrowsStoreErrorAndKeepsPendingEntries) {
  TempDir dir;
  pv::CacheStore store(store_config(dir.path));
  fs::create_directory(dir.path + "/seg-0.ice");
  write_file(dir.path + "/seg-0.ice/x", {1});
  ASSERT_TRUE(store.append(make_key(1, 16, 8), make_plane(16, 8, 3)));
  ASSERT_TRUE(store.append(make_key(2, 8, 8), make_plane(8, 8, 9)));
  const std::size_t pending_bytes = store.pending_bytes();
  EXPECT_THROW(store.flush(), pv::CacheStoreError);
  EXPECT_EQ(store.stats().pending, 2u);
  EXPECT_EQ(store.stats().flushed, 0u);
  EXPECT_EQ(store.pending_bytes(), pending_bytes);
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    EXPECT_NE(entry.path().extension(), ".tmp") << entry.path();
  }
  store.flush();  // retries into the next segment name
  EXPECT_EQ(store.stats().flushed, 2u);
  EXPECT_TRUE(fs::exists(dir.path + "/seg-1.ice"));
}

TEST(CacheStore, SecondLiveOpenerIsRefused) {
  TempDir dir;
  pv::CacheStore store(store_config(dir.path));
  try {
    pv::CacheStore second(store_config(dir.path));
    FAIL() << "expected CacheStoreLocked";
  } catch (const pv::CacheStoreLocked& error) {
    EXPECT_EQ(error.holder_pid, static_cast<long>(::getpid()));
  }
}

TEST(CacheStore, LockIsReleasedOnDestruction) {
  TempDir dir;
  {
    pv::CacheStore store(store_config(dir.path));
    ASSERT_TRUE(store.append(make_key(1, 8, 8), make_plane(8, 8, 1)));
    store.flush();
  }
  // No live holder: reopening succeeds and sees the data.
  pv::CacheStore store(store_config(dir.path));
  EXPECT_EQ(store.take_loaded().size(), 1u);
}

TEST(CacheStore, StaleFingerprintSegmentsAreDiscardedAndUnlinked) {
  TempDir dir;
  const std::string segment = write_reference_segment(dir.path);
  pv::CacheStore store(store_config(dir.path, /*fingerprint=*/8));
  EXPECT_TRUE(store.take_loaded().empty());
  EXPECT_EQ(store.stats().stale, 1u);
  EXPECT_EQ(store.stats().corrupt, 0u);
  // Stale planes must never answer again — not even for a third opener.
  EXPECT_FALSE(fs::exists(segment));
}

TEST(CacheStore, VersionHeaderMismatchIsStaleNotCrash) {
  TempDir dir;
  const std::string segment = write_reference_segment(dir.path);
  auto bytes = read_file(segment);
  ASSERT_GT(bytes.size(), 40u);
  // Patch the format version (offset 8, u32 LE) and re-seal the header
  // checksum (offset 32, fnv64 of bytes [0, 32)) so only the version is
  // wrong — exercising the explicit staleness path, not the checksum.
  bytes[8] = 0x7f;
  polarice::util::Fnv128 reseal;
  reseal.update(bytes.data(), 32);
  for (int i = 0; i < 8; ++i) {
    bytes[32 + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(reseal.lo >> (8 * i));
  }
  write_file(segment, bytes);

  pv::CacheStore store(store_config(dir.path));
  EXPECT_TRUE(store.take_loaded().empty());
  EXPECT_EQ(store.stats().stale, 1u);
}

TEST(CacheStore, FuzzEveryByteFlipOpensCleanAndNeverReturnsWrongPlane) {
  TempDir dir;
  const std::string segment = write_reference_segment(dir.path);
  const auto reference = read_file(segment);
  const auto plane_a = make_plane(16, 8, 3);
  const auto plane_b = make_plane(8, 8, 9);

  for (std::size_t i = 0; i < reference.size(); ++i) {
    auto mutated = reference;
    mutated[i] ^= 0x5a;
    write_file(segment, mutated);
    pv::CacheStore store(store_config(dir.path));
    // Whatever survived must be byte-exact under its own key: a flipped
    // bit may cost entries, never corrupt one.
    std::size_t survivors = 0;
    for (const auto& entry : store.take_loaded()) {
      if (entry.key == make_key(1, 16, 8)) {
        EXPECT_EQ(entry.plane, plane_a) << "flip at byte " << i;
      } else if (entry.key == make_key(2, 8, 8)) {
        EXPECT_EQ(entry.plane, plane_b) << "flip at byte " << i;
      } else {
        FAIL() << "unknown key survived flip at byte " << i;
      }
      ++survivors;
    }
    const auto stats = store.stats();
    EXPECT_EQ(survivors, stats.loaded) << "flip at byte " << i;
    // Every flip damages exactly one byte of a fully-checksummed format:
    // something must have been dropped as corrupt/stale unless the flip
    // only cost payload... no — every byte is covered by some checksum, so
    // a flip always discards at least the entry (or segment) holding it.
    EXPECT_LT(survivors, 2u) << "flip at byte " << i;
    EXPECT_GE(stats.corrupt + stats.stale, survivors == 1 ? 1u : 1u)
        << "flip at byte " << i;
    // Restore for the next iteration (some flips unlink the segment).
    write_file(segment, reference);
  }
}

TEST(CacheStore, FuzzEveryTruncationOpensClean) {
  TempDir dir;
  const std::string segment = write_reference_segment(dir.path);
  const auto reference = read_file(segment);
  const auto plane_a = make_plane(16, 8, 3);
  const auto plane_b = make_plane(8, 8, 9);

  for (std::size_t keep = 0; keep < reference.size(); ++keep) {
    write_file(segment, std::vector<std::uint8_t>(
                            reference.begin(),
                            reference.begin() + static_cast<long>(keep)));
    pv::CacheStore store(store_config(dir.path));
    for (const auto& entry : store.take_loaded()) {
      // A truncated tail can only cost entries; survivors stay intact.
      if (entry.key == make_key(1, 16, 8)) {
        EXPECT_EQ(entry.plane, plane_a) << "truncated to " << keep;
      } else {
        EXPECT_EQ(entry.key, make_key(2, 8, 8)) << "truncated to " << keep;
        EXPECT_EQ(entry.plane, plane_b) << "truncated to " << keep;
      }
    }
    EXPECT_GE(store.stats().corrupt + store.stats().stale, 1u)
        << "truncated to " << keep;
    write_file(segment, reference);
  }
}

TEST(CacheStore, CompactsFragmentedDirectoriesOnOpen) {
  TempDir dir;
  const auto plane = make_plane(8, 8, 5);
  for (std::uint64_t i = 0; i < 8; ++i) {
    // Each open appends one entry in its own segment: 8 fragments.
    pv::CacheStore store(store_config(dir.path));
    store.take_loaded();
    store.append(make_key(100 + i, 8, 8), plane);
    store.flush();
  }
  std::size_t before = 0;
  for (const auto& entry : fs::directory_iterator(dir.path)) {
    if (entry.path().extension() == ".ice") ++before;
  }
  EXPECT_EQ(before, 8u);

  {
    pv::CacheStore store(store_config(dir.path));
    EXPECT_EQ(store.take_loaded().size(), 8u);
    std::size_t after = 0;
    for (const auto& entry : fs::directory_iterator(dir.path)) {
      if (entry.path().extension() == ".ice") ++after;
    }
    EXPECT_EQ(after, 1u);
  }

  // The compacted segment carries all eight entries forward.
  pv::CacheStore verify(store_config(dir.path));
  EXPECT_EQ(verify.take_loaded().size(), 8u);
  EXPECT_EQ(verify.stats().corrupt, 0u);
}

// ---------------------------------------------------------------------------
// SceneServer integration
// ---------------------------------------------------------------------------

namespace {

pn::UNet make_model() {
  pn::UNetConfig cfg;
  cfg.depth = 2;
  cfg.base_channels = 6;
  cfg.use_dropout = false;
  cfg.seed = 88;
  return pn::UNet(cfg);
}

pi::ImageU8 make_scene(std::uint64_t seed, int size = 128) {
  ps::SceneConfig sc;
  sc.width = sc.height = size;
  sc.seed = seed;
  sc.cloudy = true;
  return ps::SceneGenerator(sc).generate().rgb;
}

pv::SceneServerConfig durable_config(const std::string& dir) {
  pv::SceneServerConfig cfg;
  cfg.tile_size = 64;
  cfg.min_replicas = 1;
  cfg.max_replicas = 2;
  cfg.cache_dir = dir;
  cfg.cache_fingerprint = 42;
  return cfg;
}

}  // namespace

TEST(SceneServerDurability, WarmStartServesBitIdenticalPlanesFromDisk) {
  TempDir dir;
  pn::UNet model = make_model();
  const auto scene = make_scene(501);
  pi::ImageU8 cold_plane;
  {
    pv::SceneServer server(model, durable_config(dir.path));
    cold_plane = server.submit(scene.clone()).get();
    const auto stats = server.stats();
    EXPECT_EQ(stats.cache_warmed, 0u);
    EXPECT_EQ(stats.cache_persisted, 1u);
    // Destructor drains and flushes the persistent tier.
  }
  pv::SceneServer warmed(model, durable_config(dir.path));
  {
    const auto stats = warmed.stats();
    EXPECT_EQ(stats.cache_warmed, 1u);
    EXPECT_EQ(stats.cache_corrupt, 0u);
    EXPECT_EQ(stats.cache_stale, 0u);
  }
  auto ticket = warmed.submit(scene.clone());
  EXPECT_EQ(ticket.get(), cold_plane);  // answered from the warmed cache
  EXPECT_FALSE(ticket.degraded());
  const auto stats = warmed.stats();
  EXPECT_EQ(stats.warm_hits, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  // No forward pass was spent on the warm hit.
  EXPECT_EQ(stats.session.scenes, 0u);
}

TEST(SceneServerDurability, MismatchedFingerprintColdStarts) {
  TempDir dir;
  pn::UNet model = make_model();
  {
    pv::SceneServer server(model, durable_config(dir.path));
    (void)server.submit(make_scene(502)).get();
  }
  auto cfg = durable_config(dir.path);
  cfg.cache_fingerprint = 43;  // "different model": planes must not carry
  pv::SceneServer server(model, cfg);
  const auto stats = server.stats();
  EXPECT_EQ(stats.cache_warmed, 0u);
  EXPECT_EQ(stats.cache_stale, 1u);
}

TEST(SceneServerDurability, LiveLockedCacheDirRefusesConstruction) {
  TempDir dir;
  pn::UNet model = make_model();
  pv::SceneServer holder(model, durable_config(dir.path));
  EXPECT_THROW(pv::SceneServer(model, durable_config(dir.path)),
               pv::CacheStoreLocked);
}

TEST(SceneServerDurability, CacheDirWithoutMemoryCacheIsRejected) {
  auto cfg = durable_config("/tmp/unused");
  cfg.cache_bytes = 0;
  EXPECT_THROW(cfg.validate(), std::invalid_argument);
}
