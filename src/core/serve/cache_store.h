#pragma once
// CacheStore — the persistent, disk-backed tier under ResultCache.
//
// A directory of append-log segment files keyed by the same 128-bit
// content hash that keys the in-memory LRU. The store exists so a worker
// restart is not a cold start: SceneServer warms its ResultCache from here
// on construction, and every insert is appended back (and flushed on a
// byte threshold and at shutdown), so the expensive forward passes a
// worker performed survive its process.
//
// Durability discipline — a crash mid-write can never produce a
// readable-but-wrong entry:
//   * writes never touch a live segment: each flush publishes a fresh
//     `seg-<n>.ice` through util::publish_file (util/durable_file.h: tmp
//     file, fsync, atomic rename, directory fsync). A crash leaves either
//     the old file set or the new one.
//   * every segment carries a versioned header (magic, format version,
//     config fingerprint) protected by its own checksum; every entry
//     carries a metadata checksum over its key/geometry/length fields and
//     a util::Fnv128 checksum over its payload bytes. A flipped bit
//     anywhere is detected on open and the damaged entry (or the
//     undecodable remainder of the segment) is discarded — never returned,
//     never UB.
//   * `*.tmp` leftovers from a crashed flush are deleted on open.
//
// Staleness: a segment whose format version or config fingerprint does not
// match the opener is discarded whole (and unlinked) — planes computed by a
// different model/tile configuration must never answer for this one.
//
// Exclusivity: the directory is guarded by a pidfile under flock. A second
// live process opening the same directory gets CacheStoreLocked — two
// workers appending to one cache dir would corrupt each other's segments.
// The lock dies with the process (flock semantics), so a SIGKILLed worker
// never wedges its directory.
//
// Reading is mmap-based: segments are mapped read-only, validated in
// place, and valid payloads copied out into images.
//
// Thread-safe: append()/flush()/stats() take an internal mutex. Loading
// happens in the constructor, before the store is shared.

#include <cstddef>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <unordered_set>
#include <vector>

#include "core/serve/result_cache.h"
#include "img/image.h"

namespace polarice::core::serve {

/// Persistent-tier failure (unusable directory, I/O error on flush).
class CacheStoreError : public std::runtime_error {
 public:
  explicit CacheStoreError(const std::string& why)
      : std::runtime_error("CacheStore: " + why) {}
};

/// The directory is already locked by a live process (pidfile + flock).
class CacheStoreLocked : public CacheStoreError {
 public:
  CacheStoreLocked(const std::string& dir, long holder_pid)
      : CacheStoreError("directory " + dir + " is locked by live pid " +
                        std::to_string(holder_pid)),
        holder_pid(holder_pid) {}
  long holder_pid = 0;
};

struct CacheStoreConfig {
  std::string dir;  // segment directory; created (one level) if missing
  // Identity of the serving configuration (model weights seed, tile size,
  // filter...). Segments written under a different fingerprint are stale:
  // discarded and unlinked on open.
  std::uint64_t fingerprint = 0;
  // Sanity ceiling for one entry's payload; larger claims are corrupt.
  std::size_t max_entry_bytes = std::size_t{1} << 30;
  // Opening a directory fragmented into at least this many segments
  // rewrites the surviving entries into one compacted segment.
  std::size_t compact_threshold = 8;

  void validate() const;
};

struct CacheStoreStats {
  std::size_t loaded = 0;     // valid entries recovered on open
  std::size_t corrupt = 0;    // entries (or undecodable tails) discarded
  std::size_t stale = 0;      // whole segments dropped: version/fingerprint
  std::size_t appended = 0;   // entries accepted by append() this run
  std::size_t flushed = 0;    // entries made durable by flush() this run
  std::size_t flushes = 0;    // segments finalized this run
  std::size_t pending = 0;    // appended, not yet flushed
  std::size_t bytes_on_disk = 0;  // finalized segment bytes
};

class CacheStore {
 public:
  struct Entry {
    SceneKey key;
    img::ImageU8 plane;
  };

  /// Locks the directory, sweeps *.tmp leftovers, loads and validates every
  /// finalized segment (discarding corrupt/stale data), and compacts when
  /// fragmented. Throws CacheStoreLocked when a live process holds the
  /// directory, CacheStoreError when it cannot be created or locked.
  explicit CacheStore(CacheStoreConfig config);

  /// Releases the directory lock. Does NOT flush — pending entries die with
  /// the store unless flush() ran (callers own the flush points).
  ~CacheStore();

  CacheStore(const CacheStore&) = delete;
  CacheStore& operator=(const CacheStore&) = delete;

  /// Moves out the entries recovered from disk (valid once, at warm-up).
  [[nodiscard]] std::vector<Entry> take_loaded();

  /// Buffers one entry for the next flush(). Content-addressed de-dup: a
  /// key already on disk or already pending is a no-op. Returns true when
  /// the entry was accepted (new key).
  bool append(const SceneKey& key, const img::ImageU8& plane);

  /// Bytes currently buffered — the flush-threshold input.
  [[nodiscard]] std::size_t pending_bytes() const;

  /// Publishes pending entries as a fresh segment (util::publish_file).
  /// No-op when nothing is pending. Throws CacheStoreError on I/O failure
  /// (pending entries are kept for retry).
  void flush();

  [[nodiscard]] CacheStoreStats stats() const;
  [[nodiscard]] const std::string& dir() const noexcept {
    return config_.dir;
  }

 private:
  void load_segments();
  void load_one_segment(const std::string& path);
  /// Writes `entries` as segment index `seq`. Returns final file size.
  std::size_t write_segment(std::uint64_t seq,
                            const std::vector<Entry>& entries);
  void compact(std::vector<std::string> old_segments);

  CacheStoreConfig config_;
  int lock_fd_ = -1;

  mutable std::mutex mutex_;
  std::vector<Entry> loaded_;   // recovered on open, until take_loaded()
  std::vector<Entry> pending_;  // appended, awaiting flush
  std::size_t pending_bytes_ = 0;
  std::unordered_set<SceneKey, SceneKeyHash> known_;  // on disk or pending
  std::uint64_t next_segment_ = 0;
  CacheStoreStats stats_;
};

}  // namespace polarice::core::serve
