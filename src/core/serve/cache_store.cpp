#include "core/serve/cache_store.h"

#include <fcntl.h>
#include <sys/file.h>
#include <unistd.h>

#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <optional>
#include <utility>

#include "net/wire.h"
#include "util/durable_file.h"
#include "util/hash.h"

namespace polarice::core::serve {
namespace {

namespace fs = std::filesystem;

// "POLARICE" — distinguishes a segment from any other file at byte 0.
constexpr std::uint64_t kSegmentMagic = 0x504f4c4152494345ULL;
constexpr std::uint32_t kFormatVersion = 1;
constexpr std::uint32_t kEntryMagic = 0x49434531u;  // "ICE1"
constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".ice";

// On-disk layout, all fields little-endian (net::WireWriter/WireReader).
// Serialized field by field (not memcpy'd structs) so the format has no
// padding and no host-layout dependence.
//
// Segment header (40 bytes):
//   u64 magic | u32 version | u32 reserved(0) | u64 fingerprint |
//   u64 entry_count | u64 header_check = fnv64(preceding 32 bytes)
// Entry header (64 bytes):
//   u32 entry_magic | u32 width | u32 height | u32 channels |
//   u64 hash_lo | u64 hash_hi | u64 payload_len |
//   u64 payload_check_lo | u64 payload_check_hi |
//   u64 meta_check = fnv64(preceding 56 bytes)
// followed by payload_len payload bytes.
constexpr std::size_t kSegmentHeaderBytes = 40;
constexpr std::size_t kEntryHeaderBytes = 64;

}  // namespace

void CacheStoreConfig::validate() const {
  if (dir.empty()) {
    throw std::invalid_argument("CacheStoreConfig: empty dir");
  }
  if (max_entry_bytes == 0) {
    throw std::invalid_argument("CacheStoreConfig: max_entry_bytes == 0");
  }
  if (compact_threshold < 2) {
    throw std::invalid_argument("CacheStoreConfig: compact_threshold < 2");
  }
}

CacheStore::CacheStore(CacheStoreConfig config) : config_(std::move(config)) {
  config_.validate();
  std::error_code ec;
  fs::create_directories(config_.dir, ec);
  if (ec) {
    throw CacheStoreError("create " + config_.dir + ": " + ec.message());
  }

  // Pidfile under flock: exclusivity against live processes only. The lock
  // vanishes with the holder's last fd, so a SIGKILLed owner leaves the
  // directory openable; the pid recorded inside is purely diagnostic.
  const std::string lock_path = config_.dir + "/LOCK";
  lock_fd_ = ::open(lock_path.c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (lock_fd_ < 0) {
    throw CacheStoreError("open " + lock_path + ": " + std::strerror(errno));
  }
  if (::flock(lock_fd_, LOCK_EX | LOCK_NB) != 0) {
    long holder = 0;
    char buf[32] = {};
    if (::pread(lock_fd_, buf, sizeof(buf) - 1, 0) > 0) {
      holder = std::strtol(buf, nullptr, 10);
    }
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw CacheStoreLocked(config_.dir, holder);
  }
  char pid_text[32];
  const int n = std::snprintf(pid_text, sizeof(pid_text), "%ld\n",
                              static_cast<long>(::getpid()));
  if (::ftruncate(lock_fd_, 0) != 0 ||
      ::pwrite(lock_fd_, pid_text, static_cast<std::size_t>(n), 0) != n) {
    const std::string why = std::strerror(errno);
    ::close(lock_fd_);
    lock_fd_ = -1;
    throw CacheStoreError("write " + lock_path + ": " + why);
  }

  load_segments();
}

CacheStore::~CacheStore() {
  if (lock_fd_ >= 0) ::close(lock_fd_);  // drops the flock
}

void CacheStore::load_segments() {
  // A leftover *.tmp is a flush that died before its rename.
  util::sweep_tmp(config_.dir);
  auto segments =
      util::list_numbered(config_.dir, kSegmentPrefix, kSegmentSuffix);
  if (!segments.empty()) next_segment_ = segments.back().first + 1;

  for (const auto& [seq, path] : segments) {
    load_one_segment(path);
  }
  for (const auto& entry : loaded_) {
    known_.insert(entry.key);
  }
  stats_.loaded = loaded_.size();

  if (segments.size() >= config_.compact_threshold) {
    std::vector<std::string> paths;
    paths.reserve(segments.size());
    for (auto& [seq, path] : segments) paths.push_back(std::move(path));
    compact(std::move(paths));
  } else {
    for (const auto& [seq, path] : segments) {
      std::error_code size_ec;
      const auto bytes = fs::file_size(path, size_ec);
      if (!size_ec) stats_.bytes_on_disk += static_cast<std::size_t>(bytes);
    }
  }
}

void CacheStore::load_one_segment(const std::string& path) {
  std::optional<util::MappedFile> map;
  try {
    map.emplace(path);
  } catch (const util::FileError&) {
    // Unreadable file (permissions, truncated-to-unstatable race): treat as
    // one corrupt unit and move on — open must always succeed.
    ++stats_.corrupt;
    return;
  }
  const std::uint8_t* base = map->data();
  const std::size_t size = map->size();

  if (size < kSegmentHeaderBytes) {
    ++stats_.corrupt;
    std::error_code ec;
    fs::remove(path, ec);
    return;
  }
  net::WireReader header(base, kSegmentHeaderBytes);
  const std::uint64_t magic = header.get_u64();
  const std::uint32_t version = header.get_u32();
  (void)header.get_u32();  // reserved
  const std::uint64_t fingerprint = header.get_u64();
  const std::uint64_t declared_entries = header.get_u64();
  if (header.get_u64() != util::fnv64(base, 32) || magic != kSegmentMagic) {
    ++stats_.corrupt;
    std::error_code ec;
    fs::remove(path, ec);
    return;
  }
  if (version != kFormatVersion || fingerprint != config_.fingerprint) {
    // Valid segment from another format or serving configuration: stale.
    // Unlink it — its planes must never answer for this configuration.
    ++stats_.stale;
    std::error_code ec;
    fs::remove(path, ec);
    return;
  }

  std::size_t offset = kSegmentHeaderBytes;
  std::uint64_t decoded = 0;
  while (decoded < declared_entries) {
    if (size - offset < kEntryHeaderBytes) {
      ++stats_.corrupt;  // truncated tail
      return;
    }
    const std::uint8_t* h = base + offset;
    net::WireReader entry(h, kEntryHeaderBytes);
    const std::uint32_t entry_magic = entry.get_u32();
    SceneKey key;
    key.width = static_cast<int>(entry.get_u32());
    key.height = static_cast<int>(entry.get_u32());
    key.channels = static_cast<int>(entry.get_u32());
    key.hash_lo = entry.get_u64();
    key.hash_hi = entry.get_u64();
    const std::uint64_t payload_len = entry.get_u64();
    const std::uint64_t check_lo = entry.get_u64();
    const std::uint64_t check_hi = entry.get_u64();
    // The meta checksum covers every field the decoder is about to trust —
    // including payload_len. A corrupted header therefore cannot steer the
    // scan: the remainder of the segment is undecodable and is dropped
    // whole rather than resynchronized from untrusted lengths.
    if (entry.get_u64() != util::fnv64(h, 56) || entry_magic != kEntryMagic) {
      ++stats_.corrupt;
      return;
    }
    offset += kEntryHeaderBytes;

    if (payload_len > config_.max_entry_bytes || payload_len > size - offset ||
        key.width <= 0 || key.height <= 0 ||
        payload_len != std::uint64_t{1} * static_cast<std::uint64_t>(key.width) *
                           static_cast<std::uint64_t>(key.height)) {
      ++stats_.corrupt;
      return;
    }
    const std::uint8_t* payload = base + offset;
    offset += payload_len;
    ++decoded;

    const util::Fnv128 digest =
        util::fnv128(payload, static_cast<std::size_t>(payload_len));
    if (digest.lo != check_lo || digest.hi != check_hi) {
      // Damage confined to this entry's payload; the next header is intact
      // (its own checksum will say), so skip exactly this entry.
      ++stats_.corrupt;
      continue;
    }
    if (known_.contains(key)) continue;  // later segment already supplied it
    known_.insert(key);

    img::ImageU8 plane(key.width, key.height, 1);
    std::memcpy(plane.data(), payload, static_cast<std::size_t>(payload_len));
    loaded_.push_back(Entry{key, std::move(plane)});
  }
  if (offset != size) {
    ++stats_.corrupt;  // trailing garbage beyond the declared entries
  }
}

bool CacheStore::append(const SceneKey& key, const img::ImageU8& plane) {
  if (plane.channels() != 1 || plane.width() != key.width ||
      plane.height() != key.height) {
    // A plane that disagrees with its key must never become durable.
    throw CacheStoreError("append: plane geometry does not match key");
  }
  const std::scoped_lock lock(mutex_);
  if (known_.contains(key)) return false;
  known_.insert(key);
  pending_bytes_ += kEntryHeaderBytes + plane.size();
  pending_.push_back(Entry{key, plane.clone()});
  ++stats_.appended;
  return true;
}

std::size_t CacheStore::pending_bytes() const {
  const std::scoped_lock lock(mutex_);
  return pending_bytes_;
}

void CacheStore::flush() {
  std::vector<Entry> batch;
  std::uint64_t seq = 0;
  {
    const std::scoped_lock lock(mutex_);
    if (pending_.empty()) return;
    batch.swap(pending_);
    pending_bytes_ = 0;
    seq = next_segment_++;
  }
  std::size_t segment_bytes = 0;
  try {
    segment_bytes = write_segment(seq, batch);
  } catch (...) {
    // Put the batch back so a transient I/O failure (disk full) loses
    // nothing; the next flush retries into a fresh segment name.
    const std::scoped_lock lock(mutex_);
    for (auto& entry : batch) {
      pending_bytes_ += kEntryHeaderBytes + entry.plane.size();
      pending_.push_back(std::move(entry));
    }
    throw;
  }
  const std::scoped_lock lock(mutex_);
  stats_.flushed += batch.size();
  ++stats_.flushes;
  stats_.bytes_on_disk += segment_bytes;
}

std::size_t CacheStore::write_segment(std::uint64_t seq,
                                      const std::vector<Entry>& entries) {
  net::WireWriter out;
  out.put_u64(kSegmentMagic);
  out.put_u32(kFormatVersion);
  out.put_u32(0);
  out.put_u64(config_.fingerprint);
  out.put_u64(entries.size());
  out.put_u64(util::fnv64(out.bytes().data(), 32));

  for (const auto& entry : entries) {
    const std::size_t payload_len = entry.plane.size();
    const util::Fnv128 digest = util::fnv128(entry.plane.data(), payload_len);
    const std::size_t start = out.bytes().size();
    out.put_u32(kEntryMagic);
    out.put_u32(static_cast<std::uint32_t>(entry.key.width));
    out.put_u32(static_cast<std::uint32_t>(entry.key.height));
    out.put_u32(static_cast<std::uint32_t>(entry.key.channels));
    out.put_u64(entry.key.hash_lo);
    out.put_u64(entry.key.hash_hi);
    out.put_u64(payload_len);
    out.put_u64(digest.lo);
    out.put_u64(digest.hi);
    out.put_u64(util::fnv64(out.bytes().data() + start, 56));
    out.put_bytes(entry.plane.data(), payload_len);
  }

  const std::string path = config_.dir + "/" + kSegmentPrefix +
                           std::to_string(seq) + kSegmentSuffix;
  try {
    util::publish_file(path, out.bytes());
  } catch (const util::FileError& e) {
    throw CacheStoreError(e.what());
  }
  return out.bytes().size();
}

void CacheStore::compact(std::vector<std::string> old_segments) {
  // Rewrite every surviving entry into one fresh segment, then unlink the
  // fragments. Runs during construction, pre-sharing — no lock needed.
  // Crash-safe at every step: the new segment lands by atomic rename before
  // any old one is removed, and re-loading duplicated entries is harmless
  // (first key occurrence wins).
  const std::uint64_t seq = next_segment_++;
  std::size_t segment_bytes = 0;
  if (!loaded_.empty()) {
    segment_bytes = write_segment(seq, loaded_);
  }
  for (const auto& path : old_segments) {
    std::error_code ec;
    fs::remove(path, ec);
  }
  try {
    util::fsync_dir(config_.dir);
  } catch (const util::FileError& e) {
    throw CacheStoreError(e.what());
  }
  stats_.bytes_on_disk = segment_bytes;
}

std::vector<CacheStore::Entry> CacheStore::take_loaded() {
  const std::scoped_lock lock(mutex_);
  return std::exchange(loaded_, {});
}

CacheStoreStats CacheStore::stats() const {
  const std::scoped_lock lock(mutex_);
  CacheStoreStats out = stats_;
  out.pending = pending_.size();
  return out;
}

}  // namespace polarice::core::serve
