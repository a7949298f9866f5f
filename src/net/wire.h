#pragma once
// Wire format for the sharded serving tier.
//
// Every message on a shard connection is one *frame*:
//
//   [ FrameHeader | payload bytes ]
//
// The header is 32 bytes, fixed little-endian layout:
//
//   offset  size  field
//        0     4  magic            'P''I''C''E' (0x45434950 LE)
//        4     2  version          kWireVersion; mismatch is an error
//        6     2  type             MsgType discriminator
//        8     8  payload length   bytes following the header
//       16     8  checksum lo      128-bit FNV-1a of the payload
//       24     8  checksum hi      (util::Fnv128, both streams)
//
// Payloads are built/parsed with WireWriter/WireReader: scalars are
// explicit little-endian, floats travel as their IEEE-754 bit patterns
// (std::bit_cast), so fp32 planes round-trip bit-exactly across hosts.
// Every read is bounds-checked; a truncated or corrupted frame raises
// WireError/WireChecksumError — never UB. Payload length is capped
// (kMaxPayload) so a corrupted length field cannot drive a huge
// allocation.
//
// Serializers cover the shard protocol's vocabulary: img::Image planes
// (u8 class-id planes and f32 intermediates), scene geometry, submission
// options, and server stats. The transport layer (net/transport.h) moves
// frames; this header owns their meaning.

#include <cstddef>
#include <cstdint>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/serve/scene_server.h"
#include "img/image.h"
#include "util/hash.h"

namespace polarice::net {

/// Malformed frame or payload: truncation, bad magic/version, a read past
/// the payload end, or an out-of-range decoded value.
class WireError : public std::runtime_error {
 public:
  explicit WireError(const std::string& why)
      : std::runtime_error("wire error: " + why) {}
};

/// Payload bytes do not match the header checksum.
class WireChecksumError : public WireError {
 public:
  WireChecksumError() : WireError("payload checksum mismatch") {}
};

inline constexpr std::uint32_t kWireMagic = 0x45434950;  // 'PICE' LE
// v2: SubmitResponse gained a degraded flag; SceneServerStats gained the
// persistence and brownout counters.
// v3: SubmitOptions carries a trace id, HeartbeatResponse carries worker
// uptime + a brownout flag, and the metrics scrape messages
// (kMetricsRequest/kMetricsResponse) joined the vocabulary. Mixed-version
// fleets fail loudly at the frame header instead of misdecoding.
// v4: the distributed-training messages (kTrainHello/kTrainChunk) joined
// the vocabulary for the ddp socket communicator. Type 11 is unassigned.
inline constexpr std::uint16_t kWireVersion = 4;
inline constexpr std::size_t kFrameHeaderBytes = 32;
/// Ceiling on one frame's payload — large enough for any realistic scene
/// (a 16k x 16k RGB scene is 768 MB > cap on purpose: such scenes must be
/// tiled upstream), small enough that a corrupted length field fails fast
/// instead of driving a giant allocation.
inline constexpr std::uint64_t kMaxPayload = std::uint64_t{1} << 28;  // 256 MB

/// Message discriminators for the shard protocol.
enum class MsgType : std::uint16_t {
  kSubmitRequest = 1,   // router -> worker: one scene + submit options
  kSubmitResponse = 2,  // worker -> router: outcome (+ plane when ok)
  kHeartbeatRequest = 3,   // router -> worker: health probe
  kHeartbeatResponse = 4,  // worker -> router: queue depth + stats
  kShutdownRequest = 5,    // orchestration: stop serving
  kShutdownResponse = 6,
  kMetricsRequest = 7,   // scrape: dump the worker's obs registry
  kMetricsResponse = 8,  // worker -> scraper: text exposition + identity
  // Distributed training (ddp/socket_communicator.h). Rendezvous first
  // (kTrainHello both ways), then every collective moves float buffers as
  // sequence-numbered kTrainChunk frames.
  kTrainHello = 9,   // rank identity + world size + config fingerprint
  kTrainChunk = 10   // one float buffer of a collective (seq + rank + data)
};

[[nodiscard]] const char* to_string(MsgType type) noexcept;

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kSubmitRequest;
  std::vector<std::uint8_t> payload;
};

// ---------------------------------------------------------------------------
// Payload building / parsing
// ---------------------------------------------------------------------------

/// Append-only little-endian payload builder.
class WireWriter {
 public:
  void put_u8(std::uint8_t v) { bytes_.push_back(v); }
  void put_u16(std::uint16_t v) { put_le(v); }
  void put_u32(std::uint32_t v) { put_le(v); }
  void put_u64(std::uint64_t v) { put_le(v); }
  void put_i32(std::int32_t v) { put_le(static_cast<std::uint32_t>(v)); }
  void put_i64(std::int64_t v) { put_le(static_cast<std::uint64_t>(v)); }
  void put_f32(float v);    // IEEE-754 bit pattern, bit-exact round trip
  void put_f64(double v);
  void put_bytes(const void* data, std::size_t n);
  void put_string(const std::string& s);  // u32 length + bytes

  [[nodiscard]] const std::vector<std::uint8_t>& bytes() const noexcept {
    return bytes_;
  }
  [[nodiscard]] std::vector<std::uint8_t> take() noexcept {
    return std::move(bytes_);
  }

 private:
  template <typename T>
  void put_le(T v) {
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      bytes_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    }
  }

  std::vector<std::uint8_t> bytes_;
};

/// Bounds-checked little-endian payload parser. Never reads past the end:
/// every getter throws WireError on underflow.
class WireReader {
 public:
  WireReader(const std::uint8_t* data, std::size_t n)
      : data_(data), size_(n) {}
  explicit WireReader(const std::vector<std::uint8_t>& payload)
      : WireReader(payload.data(), payload.size()) {}

  [[nodiscard]] std::uint8_t get_u8() { return take_bytes(1)[0]; }
  [[nodiscard]] std::uint16_t get_u16() { return get_le<std::uint16_t>(); }
  [[nodiscard]] std::uint32_t get_u32() { return get_le<std::uint32_t>(); }
  [[nodiscard]] std::uint64_t get_u64() { return get_le<std::uint64_t>(); }
  [[nodiscard]] std::int32_t get_i32() {
    return static_cast<std::int32_t>(get_le<std::uint32_t>());
  }
  [[nodiscard]] std::int64_t get_i64() {
    return static_cast<std::int64_t>(get_le<std::uint64_t>());
  }
  [[nodiscard]] float get_f32();
  [[nodiscard]] double get_f64();
  void get_bytes(void* out, std::size_t n);
  [[nodiscard]] std::string get_string();

  [[nodiscard]] std::size_t remaining() const noexcept { return size_ - pos_; }
  /// Throws WireError unless the payload was consumed exactly — a decoder's
  /// final word that trailing garbage is corruption, not padding.
  void expect_end() const;

 private:
  [[nodiscard]] const std::uint8_t* take_bytes(std::size_t n);

  template <typename T>
  [[nodiscard]] T get_le() {
    const std::uint8_t* p = take_bytes(sizeof(T));
    T v = 0;
    for (std::size_t i = 0; i < sizeof(T); ++i) {
      v |= static_cast<T>(static_cast<std::uint64_t>(p[i]) << (8 * i));
    }
    return v;
  }

  const std::uint8_t* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------------------------------------------------------------------------
// Frame encode / decode
// ---------------------------------------------------------------------------

/// Serializes one frame (header + payload) into a byte vector.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(
    MsgType type, const std::vector<std::uint8_t>& payload);

/// Parses and validates a frame header (exactly kFrameHeaderBytes bytes).
/// Returns {type, payload_length, checksum}; throws WireError on bad
/// magic/version/length.
struct FrameHeader {
  MsgType type = MsgType::kSubmitRequest;
  std::uint64_t payload_len = 0;
  std::uint64_t checksum_lo = 0;
  std::uint64_t checksum_hi = 0;
};
[[nodiscard]] FrameHeader decode_header(const std::uint8_t* bytes,
                                        std::size_t n);

/// Validates `payload` against a decoded header's checksum; throws
/// WireChecksumError on mismatch.
void verify_payload(const FrameHeader& header,
                    const std::vector<std::uint8_t>& payload);

/// Decodes one whole frame from a contiguous buffer (header + payload,
/// nothing trailing). The in-memory mirror of Connection-based framing,
/// used by tests to fuzz corruption without sockets.
[[nodiscard]] Frame decode_frame(const std::uint8_t* bytes, std::size_t n);
[[nodiscard]] inline Frame decode_frame(
    const std::vector<std::uint8_t>& bytes) {
  return decode_frame(bytes.data(), bytes.size());
}

// ---------------------------------------------------------------------------
// Domain serializers
// ---------------------------------------------------------------------------

/// Planes travel as geometry + raw scalars. u8 planes are the scene/class
/// payloads; f32 planes carry intermediate filter math. Both round-trip
/// bit-exactly (f32 via bit patterns). Empty (default-constructed) images
/// are legal — geometry 0x0x0 and no pixel bytes.
void put_image(WireWriter& writer, const img::ImageU8& image);
void put_image(WireWriter& writer, const img::ImageF32& image);
[[nodiscard]] img::ImageU8 get_image_u8(WireReader& reader);
[[nodiscard]] img::ImageF32 get_image_f32(WireReader& reader);

/// Scene geometry: the shape identity of a submitted scene plus the tile
/// grid the server cut it into — what a router needs to reason about
/// placement and reassembly without holding pixels.
struct SceneGeometry {
  std::int32_t width = 0;
  std::int32_t height = 0;
  std::int32_t channels = 0;
  std::int32_t tile_size = 0;
  std::int32_t tiles_x = 0;
  std::int32_t tiles_y = 0;

  bool operator==(const SceneGeometry&) const = default;
};
void put_geometry(WireWriter& writer, const SceneGeometry& geometry);
[[nodiscard]] SceneGeometry get_geometry(WireReader& reader);

/// Submit options: priority class, optional relative deadline, retry
/// budget. The deadline travels as relative nanoseconds (applied against
/// the worker's clock at admission) so router and worker need no shared
/// epoch.
void put_submit_options(WireWriter& writer,
                        const core::serve::SubmitOptions& options);
[[nodiscard]] core::serve::SubmitOptions get_submit_options(
    WireReader& reader);

/// Full SceneServerStats snapshot — the heartbeat's cargo.
void put_stats(WireWriter& writer, const core::serve::SceneServerStats& stats);
[[nodiscard]] core::serve::SceneServerStats get_stats(WireReader& reader);

}  // namespace polarice::net
