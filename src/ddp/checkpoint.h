#pragma once
// Checksummed, atomically-renamed training checkpoints — the CacheStore
// durability discipline applied to the ddp fleet's state.
//
// One checkpoint is one file, `ckpt-<global_step>.ice`, holding everything
// a fleet needs to resume bit-identically: flattened model parameters,
// full Adam state (both moments + step counter), and the shuffle cursor
// (epoch, step — the global batch sampler is stateless given seed+epoch,
// so the cursor is the whole data-order state).
//
// Durability:
//   * each write is one util::publish_file (util/durable_file.h: tmp file,
//     fsync, atomic rename, directory fsync) — a crash mid-write leaves
//     either the previous checkpoint set or the new one, never a torn file.
//   * the header carries a magic, a format version, the training config
//     fingerprint, the payload length, and a util::Fnv128 checksum over
//     the payload. Any flipped bit, truncation, or trailing garbage is a
//     typed CheckpointCorrupt on decode — never UB, never a half-loaded
//     model. A fingerprint from a different config is CheckpointStale.
//   * `*.tmp` leftovers are swept on open; corrupt/stale files are counted,
//     unlinked, and skipped — load_latest() returns the newest checkpoint
//     that survives full validation, or nullopt.
//
// Retention keeps the newest `retain` files so the directory cannot grow
// without bound across a long run.

#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

namespace polarice::ddp {

class CheckpointError : public std::runtime_error {
 public:
  explicit CheckpointError(const std::string& why)
      : std::runtime_error("checkpoint: " + why) {}
};

/// Torn, truncated, or bit-flipped record (bad magic/length/checksum/
/// field). The file never existed as far as resume is concerned.
class CheckpointCorrupt : public CheckpointError {
 public:
  explicit CheckpointCorrupt(const std::string& why)
      : CheckpointError("corrupt: " + why) {}
};

/// A structurally valid record written under a different format version or
/// training-config fingerprint — must never resume this run.
class CheckpointStale : public CheckpointError {
 public:
  explicit CheckpointStale(const std::string& why)
      : CheckpointError("stale: " + why) {}
};

/// The complete resumable state of a training fleet, as rank 0 sees it.
struct TrainCheckpoint {
  std::int64_t epoch = 0;        // shuffle cursor: current epoch...
  std::int64_t step = 0;         // ...and next step within it
  std::int64_t global_step = 0;  // monotonic across epochs (file name key)
  std::int64_t adam_t = 0;       // Adam bias-correction counter
  std::vector<float> params;     // flattened model parameters
  std::vector<float> adam_m;     // first-moment estimates, same layout
  std::vector<float> adam_v;     // second-moment estimates, same layout

  bool operator==(const TrainCheckpoint&) const = default;
};

/// Serializes header + payload + checksum into one durable byte image.
[[nodiscard]] std::vector<std::uint8_t> encode_checkpoint(
    const TrainCheckpoint& checkpoint, std::uint64_t fingerprint);

/// Validates and parses a byte image. Throws CheckpointCorrupt /
/// CheckpointStale; returns only fully-validated state.
[[nodiscard]] TrainCheckpoint decode_checkpoint(const std::uint8_t* data,
                                                std::size_t n,
                                                std::uint64_t fingerprint);

struct CheckpointStoreConfig {
  std::string dir;  // created (one level) if missing
  /// Identity of the training configuration (model config + seed + world
  /// invariants). Checkpoints from a different fingerprint are stale.
  std::uint64_t fingerprint = 0;
  /// Newest files kept after each write; older ones are unlinked.
  int retain = 3;

  void validate() const;
};

struct CheckpointStoreStats {
  std::size_t written = 0;  // durable writes this run
  std::size_t corrupt = 0;  // files rejected by checksum/structure
  std::size_t stale = 0;    // files rejected by version/fingerprint
  std::size_t pruned = 0;   // files removed by retention
};

class CheckpointStore {
 public:
  /// Creates the directory if missing and sweeps `*.tmp` leftovers.
  explicit CheckpointStore(CheckpointStoreConfig config);

  CheckpointStore(const CheckpointStore&) = delete;
  CheckpointStore& operator=(const CheckpointStore&) = delete;

  /// Publishes one checkpoint durably (util::publish_file), then applies
  /// retention. Throws CheckpointError on I/O failure.
  void write(const TrainCheckpoint& checkpoint);

  /// Returns the newest checkpoint that validates, deleting and counting
  /// every corrupt/stale file encountered on the way. nullopt when none
  /// survive.
  [[nodiscard]] std::optional<TrainCheckpoint> load_latest();

  [[nodiscard]] const CheckpointStoreStats& stats() const noexcept {
    return stats_;
  }
  [[nodiscard]] const std::string& dir() const noexcept { return config_.dir; }

 private:
  CheckpointStoreConfig config_;
  CheckpointStoreStats stats_;
};

}  // namespace polarice::ddp
