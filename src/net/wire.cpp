#include "net/wire.h"

#include <bit>
#include <cstring>

namespace polarice::net {

const char* to_string(MsgType type) noexcept {
  switch (type) {
    case MsgType::kSubmitRequest:
      return "submit_request";
    case MsgType::kSubmitResponse:
      return "submit_response";
    case MsgType::kHeartbeatRequest:
      return "heartbeat_request";
    case MsgType::kHeartbeatResponse:
      return "heartbeat_response";
    case MsgType::kShutdownRequest:
      return "shutdown_request";
    case MsgType::kShutdownResponse:
      return "shutdown_response";
    case MsgType::kMetricsRequest:
      return "metrics_request";
    case MsgType::kMetricsResponse:
      return "metrics_response";
    case MsgType::kTrainHello:
      return "train_hello";
    case MsgType::kTrainChunk:
      return "train_chunk";
  }
  return "?";
}

// ---------------------------------------------------------------------------
// WireWriter / WireReader
// ---------------------------------------------------------------------------

void WireWriter::put_f32(float v) {
  put_u32(std::bit_cast<std::uint32_t>(v));
}

void WireWriter::put_f64(double v) {
  put_u64(std::bit_cast<std::uint64_t>(v));
}

void WireWriter::put_bytes(const void* data, std::size_t n) {
  const auto* p = static_cast<const std::uint8_t*>(data);
  bytes_.insert(bytes_.end(), p, p + n);
}

void WireWriter::put_string(const std::string& s) {
  put_u32(static_cast<std::uint32_t>(s.size()));
  put_bytes(s.data(), s.size());
}

const std::uint8_t* WireReader::take_bytes(std::size_t n) {
  if (n > size_ - pos_) {
    throw WireError("payload truncated: need " + std::to_string(n) +
                    " bytes, have " + std::to_string(size_ - pos_));
  }
  const std::uint8_t* p = data_ + pos_;
  pos_ += n;
  return p;
}

float WireReader::get_f32() { return std::bit_cast<float>(get_u32()); }

double WireReader::get_f64() { return std::bit_cast<double>(get_u64()); }

void WireReader::get_bytes(void* out, std::size_t n) {
  std::memcpy(out, take_bytes(n), n);
}

std::string WireReader::get_string() {
  const std::uint32_t n = get_u32();
  if (n > remaining()) {
    throw WireError("string length past payload end");
  }
  const std::uint8_t* p = take_bytes(n);
  return std::string(reinterpret_cast<const char*>(p), n);
}

void WireReader::expect_end() const {
  if (pos_ != size_) {
    throw WireError("payload has " + std::to_string(size_ - pos_) +
                    " trailing bytes");
  }
}

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload) {
  if (payload.size() > kMaxPayload) {
    throw WireError("payload exceeds kMaxPayload");
  }
  const util::Fnv128 checksum =
      util::fnv128(payload.data(), payload.size());
  WireWriter header;
  header.put_u32(kWireMagic);
  header.put_u16(kWireVersion);
  header.put_u16(static_cast<std::uint16_t>(type));
  header.put_u64(payload.size());
  header.put_u64(checksum.lo);
  header.put_u64(checksum.hi);
  std::vector<std::uint8_t> out = header.take();
  out.insert(out.end(), payload.begin(), payload.end());
  return out;
}

FrameHeader decode_header(const std::uint8_t* bytes, std::size_t n) {
  if (n != kFrameHeaderBytes) {
    throw WireError("frame header is " + std::to_string(n) + " bytes, want " +
                    std::to_string(kFrameHeaderBytes));
  }
  WireReader reader(bytes, n);
  if (reader.get_u32() != kWireMagic) throw WireError("bad frame magic");
  const std::uint16_t version = reader.get_u16();
  if (version != kWireVersion) {
    throw WireError("wire version " + std::to_string(version) + ", want " +
                    std::to_string(kWireVersion));
  }
  FrameHeader header;
  const std::uint16_t type = reader.get_u16();
  switch (static_cast<MsgType>(type)) {
    case MsgType::kSubmitRequest:
    case MsgType::kSubmitResponse:
    case MsgType::kHeartbeatRequest:
    case MsgType::kHeartbeatResponse:
    case MsgType::kShutdownRequest:
    case MsgType::kShutdownResponse:
    case MsgType::kMetricsRequest:
    case MsgType::kMetricsResponse:
    case MsgType::kTrainHello:
    case MsgType::kTrainChunk:
      header.type = static_cast<MsgType>(type);
      break;
    default:
      throw WireError("unknown message type " + std::to_string(type));
  }
  header.payload_len = reader.get_u64();
  if (header.payload_len > kMaxPayload) {
    throw WireError("payload length exceeds kMaxPayload");
  }
  header.checksum_lo = reader.get_u64();
  header.checksum_hi = reader.get_u64();
  return header;
}

void verify_payload(const FrameHeader& header,
                    const std::vector<std::uint8_t>& payload) {
  const util::Fnv128 checksum =
      util::fnv128(payload.data(), payload.size());
  if (checksum.lo != header.checksum_lo ||
      checksum.hi != header.checksum_hi) {
    throw WireChecksumError();
  }
}

Frame decode_frame(const std::uint8_t* bytes, std::size_t n) {
  if (n < kFrameHeaderBytes) throw WireError("frame shorter than header");
  const FrameHeader header = decode_header(bytes, kFrameHeaderBytes);
  if (n - kFrameHeaderBytes != header.payload_len) {
    throw WireError("frame payload is " +
                    std::to_string(n - kFrameHeaderBytes) +
                    " bytes, header says " +
                    std::to_string(header.payload_len));
  }
  Frame frame;
  frame.type = header.type;
  frame.payload.assign(bytes + kFrameHeaderBytes, bytes + n);
  verify_payload(header, frame.payload);
  return frame;
}

// ---------------------------------------------------------------------------
// Domain serializers
// ---------------------------------------------------------------------------

namespace {

// Pixel data travels as the element-wise little-endian encoding. On
// little-endian hosts (every supported target today) that is the in-memory
// layout, so bulk memcpy applies; the element loop is the portable
// fallback.
template <typename T>
void put_pixels(WireWriter& writer, const img::Image<T>& image) {
  if constexpr (sizeof(T) == 1 || std::endian::native == std::endian::little) {
    writer.put_bytes(image.data(), image.size() * sizeof(T));
  } else {
    for (const T& v : image) {
      if constexpr (sizeof(T) == 4) {
        writer.put_u32(std::bit_cast<std::uint32_t>(v));
      } else {
        writer.put_u8(static_cast<std::uint8_t>(v));
      }
    }
  }
}

template <typename T>
img::Image<T> get_pixels(WireReader& reader, int w, int h, int c) {
  if (w == 0 && h == 0 && c == 0) return img::Image<T>();
  if (w <= 0 || h <= 0 || c <= 0) {
    throw WireError("image with non-positive dimensions");
  }
  // Guard the multiplication before allocating: a corrupted geometry must
  // fail as a wire error (the byte count check below), not as a bad_alloc.
  // The bound checks are step-wise divisions so the product can never wrap
  // mod 2^64 — attacker-chosen dims like 2^22 x 2^22 x 2^20 (u8) multiply
  // to exactly 2^64 and would otherwise sail past the remaining() check
  // with zero pixel bytes behind them.
  const auto uw = static_cast<std::uint64_t>(w);
  const auto uh = static_cast<std::uint64_t>(h);
  const auto uc = static_cast<std::uint64_t>(c);
  const std::uint64_t max_count = kMaxPayload / sizeof(T);
  if (uw > max_count || uh > max_count / uw || uc > max_count / (uw * uh)) {
    throw WireError("image dimensions exceed payload cap");
  }
  const std::uint64_t count = uw * uh * uc;
  if (count * sizeof(T) > reader.remaining()) {
    throw WireError("image pixels past payload end");
  }
  img::Image<T> image(w, h, c);
  if constexpr (sizeof(T) == 1 || std::endian::native == std::endian::little) {
    reader.get_bytes(image.data(), image.size() * sizeof(T));
  } else {
    for (T& v : image) {
      if constexpr (sizeof(T) == 4) {
        v = std::bit_cast<T>(reader.get_u32());
      } else {
        v = static_cast<T>(reader.get_u8());
      }
    }
  }
  return image;
}

template <typename T>
void put_image_impl(WireWriter& writer, const img::Image<T>& image) {
  writer.put_i32(image.width());
  writer.put_i32(image.height());
  writer.put_i32(image.channels());
  put_pixels(writer, image);
}

}  // namespace

void put_image(WireWriter& writer, const img::ImageU8& image) {
  put_image_impl(writer, image);
}

void put_image(WireWriter& writer, const img::ImageF32& image) {
  put_image_impl(writer, image);
}

img::ImageU8 get_image_u8(WireReader& reader) {
  const std::int32_t w = reader.get_i32();
  const std::int32_t h = reader.get_i32();
  const std::int32_t c = reader.get_i32();
  return get_pixels<std::uint8_t>(reader, w, h, c);
}

img::ImageF32 get_image_f32(WireReader& reader) {
  const std::int32_t w = reader.get_i32();
  const std::int32_t h = reader.get_i32();
  const std::int32_t c = reader.get_i32();
  return get_pixels<float>(reader, w, h, c);
}

void put_geometry(WireWriter& writer, const SceneGeometry& geometry) {
  writer.put_i32(geometry.width);
  writer.put_i32(geometry.height);
  writer.put_i32(geometry.channels);
  writer.put_i32(geometry.tile_size);
  writer.put_i32(geometry.tiles_x);
  writer.put_i32(geometry.tiles_y);
}

SceneGeometry get_geometry(WireReader& reader) {
  SceneGeometry geometry;
  geometry.width = reader.get_i32();
  geometry.height = reader.get_i32();
  geometry.channels = reader.get_i32();
  geometry.tile_size = reader.get_i32();
  geometry.tiles_x = reader.get_i32();
  geometry.tiles_y = reader.get_i32();
  return geometry;
}

void put_submit_options(WireWriter& writer,
                        const core::serve::SubmitOptions& options) {
  writer.put_u8(static_cast<std::uint8_t>(options.priority));
  writer.put_u8(options.deadline.has_value() ? 1 : 0);
  writer.put_i64(options.deadline ? options.deadline->count() : 0);
  writer.put_i32(options.max_retries);
  // v3: the fleet-wide trace id. 0 = unassigned (the receiver mints one).
  writer.put_u64(options.trace_id);
}

core::serve::SubmitOptions get_submit_options(WireReader& reader) {
  core::serve::SubmitOptions options;
  const std::uint8_t priority = reader.get_u8();
  switch (priority) {
    case 0:
      options.priority = core::serve::Priority::kBatch;
      break;
    case 1:
      options.priority = core::serve::Priority::kNormal;
      break;
    case 2:
      options.priority = core::serve::Priority::kInteractive;
      break;
    default:
      throw WireError("unknown priority " + std::to_string(priority));
  }
  const std::uint8_t has_deadline = reader.get_u8();
  if (has_deadline > 1) throw WireError("bad deadline flag");
  const std::int64_t deadline_ns = reader.get_i64();
  if (has_deadline == 1) {
    if (deadline_ns < 0) throw WireError("negative deadline");
    options.deadline = std::chrono::nanoseconds(deadline_ns);
  }
  options.max_retries = reader.get_i32();
  if (options.max_retries < -1) throw WireError("max_retries < -1");
  options.trace_id = reader.get_u64();
  return options;
}

void put_stats(WireWriter& writer,
               const core::serve::SceneServerStats& stats) {
  writer.put_u64(stats.session.scenes);
  writer.put_u64(stats.session.tiles);
  writer.put_f64(stats.session.busy_seconds);
  writer.put_f64(stats.session.wait_seconds);
  writer.put_u64(stats.session.peak_leases);
  writer.put_u64(stats.submitted);
  writer.put_u64(stats.completed);
  writer.put_u64(stats.cancelled);
  writer.put_u64(stats.failed);
  writer.put_u64(stats.rejected);
  writer.put_u64(stats.cache_hits);
  writer.put_u64(stats.cache_misses);
  writer.put_u64(stats.cache_evictions);
  writer.put_u64(stats.cache_warmed);
  writer.put_u64(stats.warm_hits);
  writer.put_u64(stats.cache_persisted);
  writer.put_u64(stats.cache_corrupt);
  writer.put_u64(stats.cache_stale);
  writer.put_u64(stats.degraded);
  writer.put_u64(stats.brownouts);
  writer.put_u8(stats.brownout_active ? 1 : 0);
  writer.put_u64(stats.coalesced);
  writer.put_u64(stats.batches);
  writer.put_u64(stats.cross_scene_batches);
  writer.put_u64(stats.peak_queue_depth);
  writer.put_u64(stats.shed);
  writer.put_u64(stats.batch_failures);
  writer.put_u64(stats.retries);
  writer.put_u64(stats.retried_tiles);
  writer.put_u64(stats.retry_exhausted);
  writer.put_u64(stats.replicas_quarantined);
  writer.put_u64(stats.replicas_rebuilt);
  writer.put_i32(stats.replicas);
  writer.put_i32(stats.peak_replicas);
}

core::serve::SceneServerStats get_stats(WireReader& reader) {
  core::serve::SceneServerStats stats;
  stats.session.scenes = reader.get_u64();
  stats.session.tiles = reader.get_u64();
  stats.session.busy_seconds = reader.get_f64();
  stats.session.wait_seconds = reader.get_f64();
  stats.session.peak_leases = reader.get_u64();
  stats.submitted = reader.get_u64();
  stats.completed = reader.get_u64();
  stats.cancelled = reader.get_u64();
  stats.failed = reader.get_u64();
  stats.rejected = reader.get_u64();
  stats.cache_hits = reader.get_u64();
  stats.cache_misses = reader.get_u64();
  stats.cache_evictions = reader.get_u64();
  stats.cache_warmed = reader.get_u64();
  stats.warm_hits = reader.get_u64();
  stats.cache_persisted = reader.get_u64();
  stats.cache_corrupt = reader.get_u64();
  stats.cache_stale = reader.get_u64();
  stats.degraded = reader.get_u64();
  stats.brownouts = reader.get_u64();
  const std::uint8_t brownout_active = reader.get_u8();
  if (brownout_active > 1) throw WireError("bad brownout flag");
  stats.brownout_active = brownout_active == 1;
  stats.coalesced = reader.get_u64();
  stats.batches = reader.get_u64();
  stats.cross_scene_batches = reader.get_u64();
  stats.peak_queue_depth = reader.get_u64();
  stats.shed = reader.get_u64();
  stats.batch_failures = reader.get_u64();
  stats.retries = reader.get_u64();
  stats.retried_tiles = reader.get_u64();
  stats.retry_exhausted = reader.get_u64();
  stats.replicas_quarantined = reader.get_u64();
  stats.replicas_rebuilt = reader.get_u64();
  stats.replicas = reader.get_i32();
  stats.peak_replicas = reader.get_i32();
  return stats;
}

}  // namespace polarice::net
