// Frame codec tests: roundtrips for every frame type, incremental
// (byte-at-a-time) decoding, and the robustness contract — truncated,
// oversized, and bit-flipped inputs must yield kNeedMore or a clean
// kError, never a crash, an over-read, or a bogus frame the encoders
// could not have produced.
#include "net/wire.h"

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "test_util.h"

namespace ode {
namespace net {
namespace {

/// Feeds `bytes` and expects exactly one good frame and then kNeedMore.
Frame DecodeOne(const std::string& bytes) {
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::State::kFrame);
  Frame extra;
  EXPECT_EQ(decoder.Next(&extra), FrameDecoder::State::kNeedMore);
  EXPECT_EQ(decoder.buffered(), 0u);
  return frame;
}

TEST(NetCodecTest, PostRoundTripAllValueKinds) {
  std::string bytes;
  std::vector<Value> args;
  args.push_back(Value());  // null
  args.push_back(Value(int64_t{-42}));
  args.push_back(Value(3.25));
  args.push_back(Value(true));
  args.push_back(Value(std::string("hello \x01 world")));
  args.push_back(Value(Oid{77}));
  AppendPost(&bytes, 9001, Oid{123}, "deposit", args);

  Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, FrameType::kPost);
  EXPECT_EQ(frame.seq, 9001u);
  EXPECT_EQ(frame.oid, Oid{123});
  EXPECT_EQ(frame.method, "deposit");
  ASSERT_EQ(frame.args.size(), args.size());
  EXPECT_EQ(frame.args[0].kind(), ValueKind::kNull);
  EXPECT_EQ(frame.args[1].AsInt().value(), -42);
  EXPECT_EQ(frame.args[2].AsDouble().value(), 3.25);
  EXPECT_EQ(frame.args[3].AsBool().value(), true);
  EXPECT_EQ(frame.args[4].AsString().value(), "hello \x01 world");
  EXPECT_EQ(frame.args[5].AsOid().value(), Oid{77});
}

TEST(NetCodecTest, ControlFrameRoundTrips) {
  struct Case {
    void (*append)(std::string*, uint64_t);
    FrameType type;
  };
  const Case cases[] = {
      {AppendDrain, FrameType::kDrain},
      {AppendMetricsRequest, FrameType::kMetrics},
      {AppendPing, FrameType::kPing},
      {AppendAck, FrameType::kAck},
      {AppendDrainOk, FrameType::kDrainOk},
      {AppendPong, FrameType::kPong},
  };
  for (const Case& c : cases) {
    std::string bytes;
    c.append(&bytes, 5150);
    Frame frame = DecodeOne(bytes);
    EXPECT_EQ(frame.type, c.type) << FrameTypeName(c.type);
    EXPECT_EQ(frame.seq, 5150u) << FrameTypeName(c.type);
  }
}

TEST(NetCodecTest, HelloRoundTrip) {
  std::string bytes;
  ODE_ASSERT_OK(AppendHello(&bytes, 7, "client-a"));
  Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, FrameType::kHello);
  EXPECT_EQ(frame.seq, 7u);
  EXPECT_EQ(frame.identity, "client-a");

  bytes.clear();
  AppendHelloOk(&bytes, 7, 9001);
  frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, FrameType::kHelloOk);
  EXPECT_EQ(frame.seq, 7u);
  EXPECT_EQ(frame.watermark, 9001u);
}

TEST(NetCodecTest, HelloEncoderEnforcesIdentityCaps) {
  std::string bytes;
  // Anonymous sessions don't send HELLO; an empty identity is a bug.
  EXPECT_FALSE(AppendHello(&bytes, 1, "").ok());
  EXPECT_TRUE(bytes.empty());
  EXPECT_FALSE(
      AppendHello(&bytes, 1, std::string(kMaxIdentityLen + 1, 'x')).ok());
  EXPECT_TRUE(bytes.empty());

  const std::string max_id(kMaxIdentityLen, 'x');
  ODE_ASSERT_OK(AppendHello(&bytes, 1, max_id));
  Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.identity, max_id);
}

TEST(NetCodecTest, MalformedHelloIsError) {
  // Hand-craft a HELLO whose id_len claims zero bytes: the decoder must
  // reject it (the encoder cannot produce it).
  std::string payload;
  uint64_t seq = 3;
  payload.append(reinterpret_cast<const char*>(&seq), 8);  // LE test hosts.
  uint16_t id_len = 0;
  payload.append(reinterpret_cast<const char*>(&id_len), 2);
  std::string bytes;
  uint32_t len = static_cast<uint32_t>(payload.size());
  bytes.append(reinterpret_cast<const char*>(&len), 4);
  bytes.push_back(static_cast<char>(FrameType::kHello));
  bytes.append(payload);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::State::kError);

  // And an id_len larger than the cap, with matching payload bytes.
  payload.clear();
  payload.append(reinterpret_cast<const char*>(&seq), 8);
  id_len = static_cast<uint16_t>(kMaxIdentityLen + 1);
  payload.append(reinterpret_cast<const char*>(&id_len), 2);
  payload.append(kMaxIdentityLen + 1, 'y');
  bytes.clear();
  len = static_cast<uint32_t>(payload.size());
  bytes.append(reinterpret_cast<const char*>(&len), 4);
  bytes.push_back(static_cast<char>(FrameType::kHello));
  bytes.append(payload);
  FrameDecoder big;
  big.Append(bytes.data(), bytes.size());
  EXPECT_EQ(big.Next(&frame), FrameDecoder::State::kError);
}

TEST(NetCodecTest, ErrRoundTrip) {
  std::string bytes;
  AppendErr(&bytes, 31, WireError::kWouldBlock, "queue full");
  Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, FrameType::kErr);
  EXPECT_EQ(frame.seq, 31u);
  EXPECT_EQ(frame.error, WireError::kWouldBlock);
  EXPECT_EQ(frame.message, "queue full");
}

TEST(NetCodecTest, MetricsReplyRoundTrip) {
  RemoteMetrics metrics;
  metrics.total.enqueued = 100;
  metrics.total.processed = 90;
  metrics.total.fired = 30;
  metrics.shards.resize(2);
  metrics.shards[0].enqueued = 60;
  metrics.shards[1].enqueued = 40;
  metrics.shards[1].queue_high_water = 7;
  metrics.producers.push_back({"conn0[peer]", 50, 48, 2, 0});
  metrics.producers.push_back({"conn1[peer]", 50, 50, 0, 0});

  std::string bytes;
  AppendMetricsReply(&bytes, 77, metrics);
  Frame frame = DecodeOne(bytes);
  EXPECT_EQ(frame.type, FrameType::kMetricsReply);
  EXPECT_EQ(frame.seq, 77u);
  EXPECT_EQ(frame.metrics.total.enqueued, 100u);
  EXPECT_EQ(frame.metrics.total.processed, 90u);
  EXPECT_EQ(frame.metrics.total.fired, 30u);
  ASSERT_EQ(frame.metrics.shards.size(), 2u);
  EXPECT_EQ(frame.metrics.shards[0].enqueued, 60u);
  EXPECT_EQ(frame.metrics.shards[1].queue_high_water, 7u);
  ASSERT_EQ(frame.metrics.producers.size(), 2u);
  EXPECT_EQ(frame.metrics.producers[0].name, "conn0[peer]");
  EXPECT_EQ(frame.metrics.producers[0].posted, 50u);
  EXPECT_EQ(frame.metrics.producers[0].rejected, 2u);
}

// Pinned bytes: the encoders must keep producing exactly these frames.
// Round trips alone would pass a change made the same way to encoder and
// decoder.
TEST(NetCodecTest, FramesMatchGoldenBytes) {
  std::string post;
  ODE_ASSERT_OK(AppendPost(&post, 5, Oid{42}, "add",
                           {Value(7), Value("hi"), Value(2.5), Value(true),
                            Value(), Value(Oid{9})}));
  EXPECT_EQ(testing_util::HexOf(post),
            "3c0000000105000000000000002a000000000000000300616464060001070000"
            "0000000000040200000068690200000000000004400301000509000000000000"
            "00");

  std::string ack;
  AppendAck(&ack, 1024);
  EXPECT_EQ(testing_util::HexOf(ack), "08000000100004000000000000");

  std::string hello;
  ODE_ASSERT_OK(AppendHello(&hello, 1, "client-a"));
  EXPECT_EQ(testing_util::HexOf(hello),
            "120000000501000000000000000800636c69656e742d61");

  RemoteMetrics metrics;
  metrics.total.enqueued = 10;
  metrics.total.processed = 9;
  metrics.total.fired = 3;
  metrics.total.queue_high_water = 4;
  metrics.shards.resize(1);
  metrics.shards[0].enqueued = 10;
  metrics.shards[0].batches = 2;
  metrics.producers.push_back({"conn-1", 10, 9, 1, 0});
  metrics.sequencer.enabled = true;
  metrics.sequencer.published = 6;
  metrics.sequencer.sequenced = 5;
  metrics.sequencer.firings = 1;
  metrics.sequencer.lane_watermark = {5, 0};
  std::string reply;
  AppendMetricsReply(&reply, 2, metrics);
  EXPECT_EQ(testing_util::HexOf(reply),
            "4b010000140200000000000000010000000a0000000000000000000000000000"
            "0000000000000000000900000000000000030000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0004000000000000000a00000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000020000000000000000000000000000"
            "00010000000600636f6e6e2d310a000000000000000900000000000000010000"
            "0000000000000000000000000001060000000000000005000000000000000100"
            "0000000000000000000000000000000000000000000000000000000000000000"
            "0000000000000000000000000000000000000000000000000000000000000200"
            "05000000000000000000000000000000");
}

TEST(NetCodecTest, DecodesByteAtATime) {
  std::string bytes;
  AppendPost(&bytes, 1, Oid{5}, "add", {Value(int64_t{9})});
  AppendPing(&bytes, 2);

  FrameDecoder decoder;
  std::vector<Frame> frames;
  Frame frame;
  for (char byte : bytes) {
    decoder.Append(&byte, 1);
    while (decoder.Next(&frame) == FrameDecoder::State::kFrame) {
      frames.push_back(frame);
    }
  }
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].type, FrameType::kPost);
  EXPECT_EQ(frames[0].method, "add");
  EXPECT_EQ(frames[1].type, FrameType::kPing);
  EXPECT_EQ(frames[1].seq, 2u);
}

TEST(NetCodecTest, DecodesManyFramesFromOneChunk) {
  std::string bytes;
  for (uint64_t i = 0; i < 100; ++i) {
    AppendPost(&bytes, i, Oid{i + 1}, "m", {Value(static_cast<int64_t>(i))});
  }
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  for (uint64_t i = 0; i < 100; ++i) {
    ASSERT_EQ(decoder.Next(&frame), FrameDecoder::State::kFrame);
    EXPECT_EQ(frame.seq, i);
    EXPECT_EQ(frame.oid, (Oid{i + 1}));
  }
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::State::kNeedMore);
}

// Every strict prefix of a valid frame is kNeedMore — the decoder never
// invents a frame or reads past what it has.
TEST(NetCodecTest, EveryTruncationIsNeedMore) {
  std::string bytes;
  AppendPost(&bytes, 3, Oid{9}, "withdraw",
             {Value(int64_t{10}), Value(std::string("memo"))});
  Frame frame;
  for (size_t len = 0; len < bytes.size(); ++len) {
    FrameDecoder decoder;
    decoder.Append(bytes.data(), len);
    EXPECT_EQ(decoder.Next(&frame), FrameDecoder::State::kNeedMore)
        << "prefix length " << len;
  }
}

TEST(NetCodecTest, OversizedPayloadLengthIsError) {
  // Header claiming a payload just past the cap.
  std::string bytes;
  uint32_t len = kMaxFramePayload + 1;
  bytes.append(reinterpret_cast<const char*>(&len), 4);  // LE on test hosts.
  bytes.push_back(static_cast<char>(FrameType::kPing));
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::State::kError);
  EXPECT_FALSE(decoder.error().empty());
  // Poisoned: even appending a valid frame afterwards keeps failing.
  std::string good;
  AppendPing(&good, 1);
  decoder.Append(good.data(), good.size());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::State::kError);
}

TEST(NetCodecTest, UnknownFrameTypeIsError) {
  std::string bytes;
  AppendPing(&bytes, 4);
  bytes[4] = static_cast<char>(0xEE);  // Clobber the type byte.
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::State::kError);
}

TEST(NetCodecTest, TrailingPayloadBytesAreError) {
  // A PING whose declared length covers 4 junk bytes beyond its seq.
  std::string bytes;
  AppendPing(&bytes, 4);
  std::string padded;
  uint32_t len = 8 + 4;
  padded.append(reinterpret_cast<const char*>(&len), 4);
  padded.append(bytes.substr(4, 1));  // type
  padded.append(bytes.substr(5, 8));  // seq
  padded.append("JUNK", 4);
  FrameDecoder decoder;
  decoder.Append(padded.data(), padded.size());
  Frame frame;
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::State::kError);
}

// Flip every bit of a representative POST frame, one at a time. Each
// mutation must decode to kNeedMore (length grew), kError, or a
// well-formed frame — and must never crash or over-read.
TEST(NetCodecTest, BitFlipSweepNeverCrashes) {
  std::string bytes;
  AppendPost(&bytes, 11, Oid{42}, "add",
             {Value(int64_t{5}), Value(std::string("xy")), Value(false)});
  size_t frames = 0, need_more = 0, errors = 0;
  for (size_t bit = 0; bit < bytes.size() * 8; ++bit) {
    std::string mutated = bytes;
    mutated[bit / 8] ^= static_cast<char>(1u << (bit % 8));
    FrameDecoder decoder;
    decoder.Append(mutated.data(), mutated.size());
    Frame frame;
    switch (decoder.Next(&frame)) {
      case FrameDecoder::State::kFrame: ++frames; break;
      case FrameDecoder::State::kNeedMore: ++need_more; break;
      case FrameDecoder::State::kError: ++errors; break;
    }
  }
  // The sweep must exercise all three outcomes (sanity that mutations are
  // actually reaching the validators), with plenty of clean rejections.
  EXPECT_GT(errors, 0u);
  EXPECT_GT(need_more, 0u);
  EXPECT_GT(frames, 0u);
  EXPECT_EQ(frames + need_more + errors, bytes.size() * 8);
}

/// Hand-rolls a POST frame the validated encoder refuses to produce:
/// little-endian header + seq/oid/method, then an arg count with no arg
/// bytes behind it (the decoder's cap checks fire before the args are
/// read).
std::string RawPostFrame(uint64_t seq, uint64_t oid, const std::string& method,
                         uint16_t argc) {
  std::string payload;
  auto put_le = [](std::string* out, uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      out->push_back(static_cast<char>(v >> (8 * i)));
    }
  };
  put_le(&payload, seq, 8);
  put_le(&payload, oid, 8);
  put_le(&payload, method.size(), 2);
  payload.append(method);
  put_le(&payload, argc, 2);
  std::string frame;
  put_le(&frame, payload.size(), 4);
  frame.push_back(static_cast<char>(FrameType::kPost));
  frame.append(payload);
  return frame;
}

TEST(NetCodecTest, PostEncoderRefusesOverCapInput) {
  // AppendPost validates against the protocol caps and leaves the buffer
  // untouched on rejection — it never emits a frame the server would
  // poison the connection over.
  std::string buf;
  AppendPing(&buf, 7);
  const std::string before = buf;

  Status s =
      AppendPost(&buf, 1, Oid{1}, std::string(kMaxMethodLen + 1, 'm'), {});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(buf, before);

  s = AppendPost(&buf, 1, Oid{1}, "m",
                 std::vector<Value>(kMaxPostArgs + 1, Value(int64_t{0})));
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(buf, before);

  // Method and argc within caps, but the encoded payload overflows the
  // frame limit: rejected after the size of the real encoding is known.
  s = AppendPost(&buf, 1, Oid{1}, "m",
                 {Value(std::string(kMaxFramePayload, 'x'))});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_EQ(buf, before);

  // At-cap input is legal and round-trips.
  std::string ok_buf;
  ODE_ASSERT_OK(
      AppendPost(&ok_buf, 2, Oid{3}, std::string(kMaxMethodLen, 'm'), {}));
  Frame frame = DecodeOne(ok_buf);
  EXPECT_EQ(frame.method.size(), kMaxMethodLen);
}

TEST(NetCodecTest, MethodAndArgCountCapsEnforced) {
  // A peer that hand-rolls an over-cap POST (our encoder will not emit
  // one) is rejected cleanly by the decoder.
  Frame frame;
  std::string bytes =
      RawPostFrame(1, 1, std::string(kMaxMethodLen + 1, 'm'), 0);
  FrameDecoder decoder;
  decoder.Append(bytes.data(), bytes.size());
  EXPECT_EQ(decoder.Next(&frame), FrameDecoder::State::kError);

  std::string bytes2 = RawPostFrame(1, 1, "m", kMaxPostArgs + 1);
  FrameDecoder decoder2;
  decoder2.Append(bytes2.data(), bytes2.size());
  EXPECT_EQ(decoder2.Next(&frame), FrameDecoder::State::kError);
}

TEST(NetCodecTest, StatusWireErrorMapping) {
  EXPECT_EQ(WireErrorFromStatus(Status::WouldBlock("q")),
            WireError::kWouldBlock);
  EXPECT_EQ(WireErrorFromStatus(Status::Shutdown("s")),
            WireError::kShuttingDown);
  EXPECT_EQ(WireErrorFromStatus(Status::NotFound("n")), WireError::kNotFound);
  EXPECT_EQ(StatusFromWireError(WireError::kWouldBlock, "q").code(),
            StatusCode::kWouldBlock);
  EXPECT_EQ(StatusFromWireError(WireError::kShuttingDown, "s").code(),
            StatusCode::kShutdown);
  EXPECT_EQ(StatusFromWireError(WireError::kNotFound, "n").code(),
            StatusCode::kNotFound);
}

}  // namespace
}  // namespace net
}  // namespace ode
