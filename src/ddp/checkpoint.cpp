#include "ddp/checkpoint.h"

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <utility>

#include "net/wire.h"
#include "util/durable_file.h"
#include "util/hash.h"

namespace polarice::ddp {
namespace {

namespace fs = std::filesystem;

// "PICECKPT" — distinguishes a checkpoint from any other file at byte 0.
constexpr std::uint64_t kCheckpointMagic = 0x50494345434b5054ULL;
constexpr std::uint32_t kFormatVersion = 1;
constexpr char kSuffix[] = ".ice";
constexpr char kPrefix[] = "ckpt-";
// Header: magic u64, version u32, fingerprint u64, payload_len u64,
// checksum lo u64, checksum hi u64.
constexpr std::size_t kHeaderBytes = 8 + 4 + 8 + 8 + 8 + 8;
// Sanity ceiling: a corrupted length field must fail fast, not allocate.
constexpr std::uint64_t kMaxPayload = std::uint64_t{1} << 31;  // 2 GB

void put_floats(net::WireWriter& w, const std::vector<float>& values) {
  w.put_u64(values.size());
  for (float v : values) w.put_f32(v);
}

std::vector<float> get_floats(net::WireReader& r) {
  const std::uint64_t count = r.get_u64();
  if (count * sizeof(float) > r.remaining()) {
    throw CheckpointCorrupt("float run past payload end");
  }
  std::vector<float> values(count);
  for (std::uint64_t i = 0; i < count; ++i) values[i] = r.get_f32();
  return values;
}

std::string checkpoint_name(std::int64_t global_step) {
  char buf[48];
  std::snprintf(buf, sizeof(buf), "%s%020lld%s", kPrefix,
                static_cast<long long>(global_step), kSuffix);
  return buf;
}

}  // namespace

std::vector<std::uint8_t> encode_checkpoint(const TrainCheckpoint& checkpoint,
                                            std::uint64_t fingerprint) {
  net::WireWriter payload;
  payload.put_i64(checkpoint.epoch);
  payload.put_i64(checkpoint.step);
  payload.put_i64(checkpoint.global_step);
  payload.put_i64(checkpoint.adam_t);
  put_floats(payload, checkpoint.params);
  put_floats(payload, checkpoint.adam_m);
  put_floats(payload, checkpoint.adam_v);
  const std::vector<std::uint8_t>& body = payload.bytes();
  const util::Fnv128 checksum = util::fnv128(body.data(), body.size());

  net::WireWriter out;
  out.put_u64(kCheckpointMagic);
  out.put_u32(kFormatVersion);
  out.put_u64(fingerprint);
  out.put_u64(body.size());
  out.put_u64(checksum.lo);
  out.put_u64(checksum.hi);
  out.put_bytes(body.data(), body.size());
  return out.take();
}

TrainCheckpoint decode_checkpoint(const std::uint8_t* data, std::size_t n,
                                  std::uint64_t fingerprint) {
  try {
    net::WireReader header(data, std::min(n, kHeaderBytes));
    if (n < kHeaderBytes || header.get_u64() != kCheckpointMagic) {
      throw CheckpointCorrupt("bad magic or truncated header");
    }
    const std::uint32_t version = header.get_u32();
    const std::uint64_t file_fingerprint = header.get_u64();
    const std::uint64_t payload_len = header.get_u64();
    const std::uint64_t checksum_lo = header.get_u64();
    const std::uint64_t checksum_hi = header.get_u64();
    if (payload_len > kMaxPayload) {
      throw CheckpointCorrupt("payload length exceeds cap");
    }
    if (n - kHeaderBytes != payload_len) {
      throw CheckpointCorrupt("payload is " +
                              std::to_string(n - kHeaderBytes) +
                              " bytes, header says " +
                              std::to_string(payload_len));
    }
    const util::Fnv128 checksum =
        util::fnv128(data + kHeaderBytes, payload_len);
    if (checksum.lo != checksum_lo || checksum.hi != checksum_hi) {
      throw CheckpointCorrupt("payload checksum mismatch");
    }
    // The fingerprint/version fields live in the header, outside the
    // payload checksum, so a flipped byte there reads as stale rather than
    // corrupt — either way the record is refused, which is what matters.
    if (version != kFormatVersion) {
      throw CheckpointStale("format version " + std::to_string(version));
    }
    if (file_fingerprint != fingerprint) {
      throw CheckpointStale("config fingerprint mismatch");
    }
    net::WireReader body(data + kHeaderBytes, payload_len);
    TrainCheckpoint checkpoint;
    checkpoint.epoch = body.get_i64();
    checkpoint.step = body.get_i64();
    checkpoint.global_step = body.get_i64();
    checkpoint.adam_t = body.get_i64();
    checkpoint.params = get_floats(body);
    checkpoint.adam_m = get_floats(body);
    checkpoint.adam_v = get_floats(body);
    body.expect_end();
    if (checkpoint.epoch < 0 || checkpoint.step < 0 ||
        checkpoint.global_step < 0 || checkpoint.adam_t < 0) {
      throw CheckpointCorrupt("negative cursor field");
    }
    if (checkpoint.adam_m.size() != checkpoint.params.size() ||
        checkpoint.adam_v.size() != checkpoint.params.size()) {
      throw CheckpointCorrupt("optimizer state size mismatch");
    }
    return checkpoint;
  } catch (const net::WireError& e) {
    // Bounds-checked parsing turned a truncation into a typed error.
    throw CheckpointCorrupt(e.what());
  }
}

void CheckpointStoreConfig::validate() const {
  if (dir.empty()) {
    throw std::invalid_argument("CheckpointStoreConfig: dir is empty");
  }
  if (retain < 1) {
    throw std::invalid_argument("CheckpointStoreConfig: retain must be >= 1");
  }
}

CheckpointStore::CheckpointStore(CheckpointStoreConfig config)
    : config_(std::move(config)) {
  config_.validate();
  std::error_code ec;
  fs::create_directory(config_.dir, ec);
  if (!fs::is_directory(config_.dir)) {
    throw CheckpointError("cannot create directory " + config_.dir);
  }
  util::sweep_tmp(config_.dir);
}

void CheckpointStore::write(const TrainCheckpoint& checkpoint) {
  const std::string path =
      config_.dir + "/" + checkpoint_name(checkpoint.global_step);
  try {
    util::publish_file(path,
                       encode_checkpoint(checkpoint, config_.fingerprint));
  } catch (const util::FileError& e) {
    throw CheckpointError(e.what());
  }
  ++stats_.written;

  // Retention: unlink everything but the newest `retain` checkpoints.
  const auto files = util::list_numbered(config_.dir, kPrefix, kSuffix);
  const std::size_t retain = static_cast<std::size_t>(config_.retain);
  for (std::size_t i = 0; i + retain < files.size(); ++i) {
    std::error_code ec;
    fs::remove(files[i].second, ec);
    ++stats_.pruned;
  }
}

std::optional<TrainCheckpoint> CheckpointStore::load_latest() {
  const auto files = util::list_numbered(config_.dir, kPrefix, kSuffix);
  for (auto it = files.rbegin(); it != files.rend(); ++it) {
    const std::string& path = it->second;
    try {
      const util::MappedFile file(path);
      return decode_checkpoint(file.data(), file.size(), config_.fingerprint);
    } catch (const CheckpointStale&) {
      ++stats_.stale;
    } catch (const CheckpointCorrupt&) {
      ++stats_.corrupt;
    } catch (const util::FileError&) {
      ++stats_.corrupt;  // unreadable: as good as torn
    }
    std::error_code ec;
    fs::remove(path, ec);
  }
  return std::nullopt;
}

}  // namespace polarice::ddp
