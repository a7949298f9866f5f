#pragma once
// Durable files — the one routine in the library that writes a file.
//
// publish_file() is the crash discipline every on-disk format relies on
// (cache segments, training checkpoints, U-Net weights, image outputs):
// the bytes go to `<path>.tmp`, are fsync'd, atomically renamed over
// `path`, and the parent directory is fsync'd so the rename itself is
// durable. A crash therefore leaves the old file or the new one, never a
// torn one; at worst it leaves a `*.tmp` that nothing references, which
// sweep_tmp() deletes when the owning store next opens its directory.
//
// Reading goes through MappedFile, a read-only mmap of one whole file, so
// decoders validate bytes in place instead of streaming them.

#include <cstddef>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace polarice::util {

/// An I/O call failed; the message names the call, the path and errno.
class FileError : public std::runtime_error {
 public:
  explicit FileError(const std::string& why) : std::runtime_error(why) {}
};

/// Writes `bytes` to `path` atomically and durably: `path.tmp`, fsync,
/// rename over `path`, fsync of the parent directory. On failure the tmp
/// file is unlinked, `path` is left as it was, and FileError is thrown.
void publish_file(const std::string& path, std::span<const std::uint8_t> bytes);

/// fsync on a directory, making completed renames and unlinks in it
/// durable. Throws FileError.
void fsync_dir(const std::string& dir);

/// Deletes every `*.tmp` entry in `dir`: leftovers of a publish that died
/// before its rename. Nothing ever referenced them, so this is always safe.
/// Errors (missing directory, a racing unlink) are ignored.
void sweep_tmp(const std::string& dir);

/// Entries of `dir` named `<prefix><decimal digits><suffix>`, as
/// (number, path) pairs sorted by number. Other names are skipped; a
/// missing or unreadable directory lists nothing.
[[nodiscard]] std::vector<std::pair<std::uint64_t, std::string>>
list_numbered(const std::string& dir, std::string_view prefix,
              std::string_view suffix);

/// Read-only mmap of one whole file, unmapped on destruction. An empty
/// file maps to data() == nullptr, size() == 0. Throws FileError when the
/// file cannot be opened, stat'ed or mapped.
class MappedFile {
 public:
  explicit MappedFile(const std::string& path);
  ~MappedFile();
  MappedFile(const MappedFile&) = delete;
  MappedFile& operator=(const MappedFile&) = delete;

  [[nodiscard]] const std::uint8_t* data() const noexcept { return data_; }
  [[nodiscard]] std::size_t size() const noexcept { return size_; }

 private:
  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
};

}  // namespace polarice::util
