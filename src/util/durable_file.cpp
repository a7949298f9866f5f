#include "util/durable_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <charconv>
#include <cstring>
#include <filesystem>

namespace polarice::util {
namespace {

namespace fs = std::filesystem;

constexpr char kTmpSuffix[] = ".tmp";

/// Throws FileError for the failed `call` on `path` with the errno it
/// left, closing `fd` first when one is given.
[[noreturn]] void fail(const char* call, const std::string& path,
                       int fd = -1) {
  const int err = errno;
  if (fd >= 0) ::close(fd);
  throw FileError(std::string(call) + " " + path + ": " + std::strerror(err));
}

/// The directory whose entry a rename of `path` changes.
std::string parent_dir(const std::string& path) {
  const fs::path parent = fs::path(path).parent_path();
  return parent.empty() ? std::string(".") : parent.string();
}

}  // namespace

void publish_file(const std::string& path,
                  std::span<const std::uint8_t> bytes) {
  const std::string tmp_path = path + kTmpSuffix;
  const int fd = ::open(tmp_path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  if (fd < 0) fail("open", tmp_path);
  try {
    for (std::size_t written = 0; written < bytes.size();) {
      const ssize_t n =
          ::write(fd, bytes.data() + written, bytes.size() - written);
      if (n >= 0) {
        written += static_cast<std::size_t>(n);
      } else if (errno != EINTR) {
        fail("write", tmp_path, fd);
      }
    }
    if (::fsync(fd) != 0) fail("fsync", tmp_path, fd);
    ::close(fd);
    if (::rename(tmp_path.c_str(), path.c_str()) != 0) {
      fail("rename", tmp_path);
    }
  } catch (const FileError&) {
    ::unlink(tmp_path.c_str());
    throw;
  }
  fsync_dir(parent_dir(path));
}

void fsync_dir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY | O_CLOEXEC);
  if (fd < 0) fail("open dir", dir);
  if (::fsync(fd) != 0) fail("fsync", dir, fd);
  ::close(fd);
}

void sweep_tmp(const std::string& dir) {
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    if (dirent.path().filename().string().ends_with(kTmpSuffix)) {
      fs::remove(dirent.path(), ec);
    }
  }
}

std::vector<std::pair<std::uint64_t, std::string>> list_numbered(
    const std::string& dir, std::string_view prefix, std::string_view suffix) {
  std::vector<std::pair<std::uint64_t, std::string>> files;
  std::error_code ec;
  for (const auto& dirent : fs::directory_iterator(dir, ec)) {
    const std::string name = dirent.path().filename().string();
    if (name.size() <= prefix.size() + suffix.size() ||
        !name.starts_with(prefix) || !name.ends_with(suffix)) {
      continue;
    }
    const char* first = name.data() + prefix.size();
    const char* last = name.data() + name.size() - suffix.size();
    std::uint64_t seq = 0;
    const auto [end, parse_error] = std::from_chars(first, last, seq);
    if (parse_error == std::errc{} && end == last) {
      files.emplace_back(seq, dirent.path().string());
    }
  }
  std::sort(files.begin(), files.end());
  return files;
}

MappedFile::MappedFile(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) fail("open", path);
  struct stat st{};
  if (::fstat(fd, &st) != 0) fail("fstat", path, fd);
  if (st.st_size > 0) {
    const auto size = static_cast<std::size_t>(st.st_size);
    void* map = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
    if (map == MAP_FAILED) fail("mmap", path, fd);
    data_ = static_cast<const std::uint8_t*>(map);
    size_ = size;
  }
  ::close(fd);
}

MappedFile::~MappedFile() {
  if (data_ != nullptr) ::munmap(const_cast<std::uint8_t*>(data_), size_);
}

}  // namespace polarice::util
