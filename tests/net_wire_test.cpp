// net/wire.h — frame format and domain serializers.
//
// Round trips must be exact (u8 planes byte-identical, f32 planes
// bit-identical), and every malformed byte stream must surface as
// WireError/WireChecksumError — the fuzz loops flip / truncate every
// position of a real frame and require a typed error or a correct decode
// (a flip confined to pixel bytes that still checksums is impossible;
// flips the checksum catches are the point), never UB or a wrong decode.

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <limits>
#include <vector>

#include "core/serve/scene_server.h"
#include "core/serve/shard/protocol.h"
#include "img/image.h"
#include "net/wire.h"

namespace {

using namespace polarice;
using namespace polarice::net;

img::ImageU8 pattern_scene(int width, int height, int channels) {
  img::ImageU8 scene(width, height, channels);
  std::uint32_t state = 77u;
  for (std::size_t i = 0; i < scene.size(); ++i) {
    state = state * 1664525u + 1013904223u;
    scene.data()[i] = static_cast<std::uint8_t>(state >> 24);
  }
  return scene;
}

TEST(NetWire, ImageU8RoundTripsExactly) {
  // Square, ragged (non-multiple of any tile), and single-row scenes.
  for (const auto [w, h, c] : {std::tuple{16, 16, 3}, std::tuple{33, 17, 3},
                               std::tuple{1, 1, 1}, std::tuple{128, 1, 2}}) {
    const auto scene = pattern_scene(w, h, c);
    WireWriter writer;
    put_image(writer, scene);
    WireReader reader(writer.bytes());
    const auto back = get_image_u8(reader);
    reader.expect_end();
    EXPECT_EQ(back, scene);
  }
}

TEST(NetWire, EmptyImageIsLegal) {
  WireWriter writer;
  put_image(writer, img::ImageU8{});
  WireReader reader(writer.bytes());
  const auto back = get_image_u8(reader);
  reader.expect_end();
  EXPECT_TRUE(back.empty());
  EXPECT_EQ(back.width(), 0);
}

TEST(NetWire, ImageF32RoundTripsBitExactly) {
  img::ImageF32 plane(7, 5, 2);
  float value = -3.75f;
  for (std::size_t i = 0; i < plane.size(); ++i) {
    plane.data()[i] = value;
    value = value * -1.0009765625f + 0.125f;  // exact fp steps, sign flips
  }
  // Edge payloads that break naive float round trips.
  plane.data()[0] = 0.0f;
  plane.data()[1] = -0.0f;
  plane.data()[2] = std::numeric_limits<float>::infinity();
  plane.data()[3] = std::numeric_limits<float>::denorm_min();
  plane.data()[4] = std::numeric_limits<float>::quiet_NaN();

  WireWriter writer;
  put_image(writer, plane);
  WireReader reader(writer.bytes());
  const auto back = get_image_f32(reader);
  reader.expect_end();
  ASSERT_TRUE(back.same_shape(plane));
  for (std::size_t i = 0; i < plane.size(); ++i) {
    EXPECT_EQ(std::bit_cast<std::uint32_t>(back.data()[i]),
              std::bit_cast<std::uint32_t>(plane.data()[i]))
        << i;
  }
}

TEST(NetWire, GeometryAndOptionsRoundTrip) {
  SceneGeometry geometry{640, 480, 3, 64, 10, 8};
  WireWriter writer;
  put_geometry(writer, geometry);
  WireReader reader(writer.bytes());
  EXPECT_EQ(get_geometry(reader), geometry);
  reader.expect_end();

  core::serve::SubmitOptions options;
  options.priority = core::serve::Priority::kInteractive;
  options.deadline = std::chrono::milliseconds(750);
  options.max_retries = 5;
  WireWriter writer2;
  put_submit_options(writer2, options);
  WireReader reader2(writer2.bytes());
  const auto back = get_submit_options(reader2);
  reader2.expect_end();
  EXPECT_EQ(back.priority, options.priority);
  ASSERT_TRUE(back.deadline.has_value());
  EXPECT_EQ(*back.deadline, *options.deadline);
  EXPECT_EQ(back.max_retries, 5);

  core::serve::SubmitOptions no_deadline;
  WireWriter writer3;
  put_submit_options(writer3, no_deadline);
  WireReader reader3(writer3.bytes());
  EXPECT_FALSE(get_submit_options(reader3).deadline.has_value());
}

TEST(NetWire, StatsRoundTrip) {
  core::serve::SceneServerStats stats;
  stats.submitted = 101;
  stats.completed = 90;
  stats.shed = 4;
  stats.rejected = 7;
  stats.cache_hits = 33;
  stats.cache_warmed = 12;
  stats.warm_hits = 11;
  stats.cache_persisted = 29;
  stats.cache_corrupt = 2;
  stats.cache_stale = 1;
  stats.degraded = 5;
  stats.brownouts = 3;
  stats.brownout_active = true;
  stats.session.scenes = 90;
  stats.session.tiles = 1440;
  stats.session.busy_seconds = 1.25;
  stats.session.peak_leases = 3;

  WireWriter writer;
  put_stats(writer, stats);
  WireReader reader(writer.bytes());
  const auto back = get_stats(reader);
  reader.expect_end();
  EXPECT_EQ(back.submitted, 101u);
  EXPECT_EQ(back.completed, 90u);
  EXPECT_EQ(back.shed, 4u);
  EXPECT_EQ(back.rejected, 7u);
  EXPECT_EQ(back.cache_hits, 33u);
  EXPECT_EQ(back.cache_warmed, 12u);
  EXPECT_EQ(back.warm_hits, 11u);
  EXPECT_EQ(back.cache_persisted, 29u);
  EXPECT_EQ(back.cache_corrupt, 2u);
  EXPECT_EQ(back.cache_stale, 1u);
  EXPECT_EQ(back.degraded, 5u);
  EXPECT_EQ(back.brownouts, 3u);
  EXPECT_TRUE(back.brownout_active);
  EXPECT_EQ(back.session.scenes, 90u);
  EXPECT_EQ(back.session.tiles, 1440u);
  EXPECT_DOUBLE_EQ(back.session.busy_seconds, 1.25);
  EXPECT_EQ(back.session.peak_leases, 3u);
}

// The v2 wire additions: SubmitResponse's degraded flag round-trips, and a
// decoder rejects out-of-range flag bytes instead of inventing state.
TEST(NetWire, SubmitResponseDegradedFlagRoundTrip) {
  namespace shard = polarice::core::serve::shard;
  shard::SubmitResponse response;
  response.request_id = 77;
  response.outcome = shard::Outcome::kOk;
  response.plane = pattern_scene(6, 4, 1);
  response.degraded = true;

  const auto back = shard::decode_submit_response(encode(response));
  EXPECT_EQ(back.request_id, 77u);
  EXPECT_EQ(back.outcome, shard::Outcome::kOk);
  EXPECT_TRUE(back.degraded);
  EXPECT_EQ(back.plane, response.plane);

  response.degraded = false;
  EXPECT_FALSE(shard::decode_submit_response(encode(response)).degraded);
}

TEST(NetWire, FrameRoundTrip) {
  const auto scene = pattern_scene(9, 7, 3);
  WireWriter writer;
  put_image(writer, scene);
  const auto bytes = encode_frame(MsgType::kSubmitRequest, writer.bytes());
  ASSERT_EQ(bytes.size(), kFrameHeaderBytes + writer.bytes().size());

  const auto frame = decode_frame(bytes);
  EXPECT_EQ(frame.type, MsgType::kSubmitRequest);
  WireReader reader(frame.payload);
  EXPECT_EQ(get_image_u8(reader), scene);
}

TEST(NetWire, ReaderUnderflowThrowsNotUB) {
  WireWriter writer;
  writer.put_u32(0xDEADBEEFu);
  WireReader reader(writer.bytes());
  (void)reader.get_u16();
  EXPECT_THROW((void)reader.get_u32(), WireError);  // 2 bytes left, need 4
  WireReader reader2(writer.bytes());
  (void)reader2.get_u32();
  EXPECT_THROW(reader2.get_bytes(nullptr, 1), WireError);
  EXPECT_THROW((void)WireReader(writer.bytes()).get_string(), WireError);
}

TEST(NetWire, TrailingGarbageIsCorruption) {
  WireWriter writer;
  writer.put_u8(1);
  writer.put_u8(2);
  WireReader reader(writer.bytes());
  (void)reader.get_u8();
  EXPECT_THROW(reader.expect_end(), WireError);
}

// Fuzz 1: every single-byte flip of a real frame must either throw a typed
// wire error or (for flips the checksum cannot see — there are none, since
// the checksum covers the payload and the header is validated field by
// field) decode to the original. In practice: header flips fail header
// validation or checksum pairing, payload flips fail the checksum.
TEST(NetWire, ByteFlipFuzzNeverDecodesCorruption) {
  const auto scene = pattern_scene(6, 5, 3);
  WireWriter writer;
  put_image(writer, scene);
  const auto pristine = encode_frame(MsgType::kSubmitRequest, writer.bytes());

  std::size_t threw = 0;
  for (std::size_t i = 0; i < pristine.size(); ++i) {
    for (const std::uint8_t flip : {std::uint8_t{0x01}, std::uint8_t{0x80}}) {
      auto corrupted = pristine;
      corrupted[i] ^= flip;
      try {
        const auto frame = decode_frame(corrupted);
        // A decode that survives must be byte-identical payload (possible
        // only if the flip landed in the type field AND checksum agreed —
        // type is not checksummed, so tolerate a changed type with the
        // exact original payload).
        EXPECT_EQ(frame.payload, writer.bytes()) << "flip at " << i;
      } catch (const WireError&) {
        ++threw;  // the expected outcome
      }
    }
  }
  // The overwhelming majority of flips must be caught (payload flips are
  // all caught by the checksum; length/magic/version flips by the header).
  EXPECT_GT(threw, 2 * pristine.size() - 8);
}

// Fuzz 2: every truncated prefix must throw, never read past the end.
TEST(NetWire, TruncationFuzzAlwaysThrows) {
  const auto scene = pattern_scene(4, 4, 3);
  WireWriter writer;
  put_image(writer, scene);
  const auto pristine = encode_frame(MsgType::kSubmitRequest, writer.bytes());

  for (std::size_t n = 0; n < pristine.size(); ++n) {
    EXPECT_THROW((void)decode_frame(pristine.data(), n), WireError) << n;
  }
}

// Fuzz 3: truncated or bit-flipped *payloads* handed to the domain
// decoders (post-checksum path) still throw typed errors — oversized
// counts must not drive allocations or out-of-bounds reads.
TEST(NetWire, ImageDecoderRejectsLyingGeometry) {
  const auto scene = pattern_scene(8, 3, 1);
  WireWriter writer;
  put_image(writer, scene);
  auto payload = writer.take();

  // Truncate the pixel run.
  for (const std::size_t keep : {payload.size() - 1, payload.size() / 2,
                                 std::size_t{13}, std::size_t{1}}) {
    WireReader reader(payload.data(), keep);
    EXPECT_THROW((void)get_image_u8(reader), WireError) << keep;
  }

  // Inflate the width field (little-endian i32 at offset 0) so the claimed
  // pixel count exceeds the remaining bytes.
  auto inflated = payload;
  inflated[2] = 0x7F;
  WireReader reader(inflated);
  EXPECT_THROW((void)get_image_u8(reader), WireError);

  // Negative dimensions are rejected before any allocation.
  auto negative = payload;
  negative[3] = 0x80;
  WireReader reader2(negative);
  EXPECT_THROW((void)get_image_u8(reader2), WireError);
}

// Regression: dimensions whose element-count product wraps mod 2^64 must
// be rejected as a typed WireError *before* the byte-count check — a
// wrapped product (e.g. u8 2^22 x 2^22 x 2^20 = 2^64 == 0) would sail
// past the remaining() comparison with zero pixel bytes behind it and
// build an Image whose geometry lies about its storage (OOB UB at the
// first tiling downstream).
TEST(NetWire, ImageDecoderRejectsOverflowingDimensions) {
  // u8: product is exactly 2^64 -> wraps to 0 bytes claimed.
  {
    WireWriter writer;
    writer.put_i32(1 << 22);
    writer.put_i32(1 << 22);
    writer.put_i32(1 << 20);
    WireReader reader(writer.bytes());
    EXPECT_THROW((void)get_image_u8(reader), WireError);
  }
  // f32: 2^30 * 2^30 * 4 elements, * sizeof(float) wraps to 0 as well —
  // must be a WireError, not a std::length_error escaping the decoder.
  {
    WireWriter writer;
    writer.put_i32(1 << 30);
    writer.put_i32(1 << 30);
    writer.put_i32(4);
    WireReader reader(writer.bytes());
    EXPECT_THROW((void)get_image_f32(reader), WireError);
  }
  // Non-wrapping but over the payload cap: same clean rejection.
  {
    WireWriter writer;
    writer.put_i32(std::numeric_limits<std::int32_t>::max());
    writer.put_i32(1);
    writer.put_i32(1);
    WireReader reader(writer.bytes());
    EXPECT_THROW((void)get_image_u8(reader), WireError);
  }
}

TEST(NetWire, HeaderRejectsBadMagicVersionAndGiantLength) {
  const auto frame = encode_frame(MsgType::kHeartbeatRequest, {});
  auto bad_magic = frame;
  bad_magic[0] ^= 0xFF;
  EXPECT_THROW((void)decode_header(bad_magic.data(), kFrameHeaderBytes),
               WireError);

  auto bad_version = frame;
  bad_version[4] ^= 0xFF;
  EXPECT_THROW((void)decode_header(bad_version.data(), kFrameHeaderBytes),
               WireError);

  auto giant = frame;
  giant[15] = 0x7F;  // payload_len high byte -> way past kMaxPayload
  EXPECT_THROW((void)decode_header(giant.data(), kFrameHeaderBytes),
               WireError);

  auto unknown_type = frame;
  unknown_type[6] = 11;  // type byte: no MsgType is numbered 11
  unknown_type[7] = 0;
  EXPECT_THROW((void)decode_header(unknown_type.data(), kFrameHeaderBytes),
               WireError);
}

TEST(NetWire, ChecksumMismatchIsTyped) {
  WireWriter writer;
  writer.put_u64(42);
  auto bytes = encode_frame(MsgType::kSubmitResponse, writer.bytes());
  bytes[kFrameHeaderBytes] ^= 0x01;  // first payload byte
  EXPECT_THROW((void)decode_frame(bytes), WireChecksumError);
}

// ---- v3 wire additions: tracing and the metrics scrape path ----

TEST(NetWire, SubmitOptionsTraceIdRoundTrip) {
  core::serve::SubmitOptions options;
  options.trace_id = 0x0123456789ABCDEFull;
  WireWriter writer;
  put_submit_options(writer, options);
  WireReader reader(writer.bytes());
  EXPECT_EQ(get_submit_options(reader).trace_id, 0x0123456789ABCDEFull);
  reader.expect_end();

  // 0 is the "unassigned, mint me one" sentinel and must survive as-is.
  core::serve::SubmitOptions unassigned;
  WireWriter writer2;
  put_submit_options(writer2, unassigned);
  WireReader reader2(writer2.bytes());
  EXPECT_EQ(get_submit_options(reader2).trace_id, 0u);
}

TEST(NetWire, HeartbeatResponseUptimeAndBrownoutRoundTrip) {
  namespace shard = polarice::core::serve::shard;
  shard::HeartbeatResponse response;
  response.queue_depth = 9;
  response.accepting = true;
  response.uptime_seconds = 123.5;
  response.brownout_active = true;
  response.stats.completed = 40;

  const auto back = shard::decode_heartbeat_response(encode(response));
  EXPECT_EQ(back.queue_depth, 9u);
  EXPECT_TRUE(back.accepting);
  EXPECT_DOUBLE_EQ(back.uptime_seconds, 123.5);
  EXPECT_TRUE(back.brownout_active);
  EXPECT_EQ(back.stats.completed, 40u);

  response.brownout_active = false;
  response.uptime_seconds = 0.0;  // a just-born worker is legal
  const auto young = shard::decode_heartbeat_response(encode(response));
  EXPECT_FALSE(young.brownout_active);
  EXPECT_DOUBLE_EQ(young.uptime_seconds, 0.0);
}

TEST(NetWire, HeartbeatResponseRejectsNegativeOrNaNUptime) {
  namespace shard = polarice::core::serve::shard;
  shard::HeartbeatResponse response;
  response.uptime_seconds = -1.0;
  EXPECT_THROW((void)shard::decode_heartbeat_response(encode(response)),
               WireError);
  response.uptime_seconds = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW((void)shard::decode_heartbeat_response(encode(response)),
               WireError);
}

TEST(NetWire, MetricsResponseRoundTrip) {
  namespace shard = polarice::core::serve::shard;
  shard::MetricsResponse response;
  response.uptime_seconds = 42.25;
  response.text =
      "serve_completed_total 7\nserve_e2e_seconds_bucket{le=\"+Inf\"} 7\n";

  const auto back = shard::decode_metrics_response(encode(response));
  EXPECT_DOUBLE_EQ(back.uptime_seconds, 42.25);
  EXPECT_EQ(back.text, response.text);

  response.uptime_seconds = -0.5;
  EXPECT_THROW((void)shard::decode_metrics_response(encode(response)),
               WireError);
}

// Explicit cross-version guard beyond the generic bit-flip test: a frame
// stamped with the previous wire version (v2, which predates trace ids and
// the metrics vocabulary) must be rejected at the header, not misdecoded.
TEST(NetWire, PreviousWireVersionIsRejected) {
  auto frame = encode_frame(MsgType::kHeartbeatRequest, {});
  frame[4] = kWireVersion - 1;  // version u16 LE at offset 4
  frame[5] = 0;
  EXPECT_THROW((void)decode_header(frame.data(), kFrameHeaderBytes),
               WireError);
  EXPECT_THROW((void)decode_frame(frame), WireError);
}

}  // namespace
