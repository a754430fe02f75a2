// Wire-protocol unit coverage: little-endian primitive round trips, frame
// encode/decode (including truncated and hostile inputs), and full
// storage::Value / Schema serde round trips across every column type —
// NULL markers, empty and max-length CHAR strings included. The server
// must survive arbitrary bytes from the network, so every malformed-input
// path returns a Status instead of walking off a buffer — and so must the
// client, which a scripted peer feeds truncated frames. A Hello of the
// previous protocol version is refused before any other frame is decoded.

#include <fcntl.h>
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "exec/engine.h"
#include "net/client.h"
#include "net/protocol.h"
#include "net/serde.h"
#include "net/server.h"
#include "net/socket.h"
#include "storage/schema.h"
#include "storage/value.h"
#include "tests/test_util.h"

namespace hique::net {
namespace {

TEST(WireCodecTest, PrimitiveRoundTrips) {
  WireWriter w;
  w.U8(0xab);
  w.U16(0xbeef);
  w.U32(0xdeadbeefu);
  w.U64(0x0123456789abcdefull);
  w.I32(-123456789);
  w.I64(std::numeric_limits<int64_t>::min());
  w.F64(-1234.5e-67);
  w.Str("hello wire");
  w.Str("");

  WireReader r(w.buffer());
  uint8_t u8;
  uint16_t u16;
  uint32_t u32;
  uint64_t u64;
  int32_t i32;
  int64_t i64;
  double f64;
  std::string s1, s2;
  ASSERT_TRUE(r.U8(&u8).ok());
  ASSERT_TRUE(r.U16(&u16).ok());
  ASSERT_TRUE(r.U32(&u32).ok());
  ASSERT_TRUE(r.U64(&u64).ok());
  ASSERT_TRUE(r.I32(&i32).ok());
  ASSERT_TRUE(r.I64(&i64).ok());
  ASSERT_TRUE(r.F64(&f64).ok());
  ASSERT_TRUE(r.Str(&s1).ok());
  ASSERT_TRUE(r.Str(&s2).ok());
  EXPECT_EQ(u8, 0xab);
  EXPECT_EQ(u16, 0xbeef);
  EXPECT_EQ(u32, 0xdeadbeefu);
  EXPECT_EQ(u64, 0x0123456789abcdefull);
  EXPECT_EQ(i32, -123456789);
  EXPECT_EQ(i64, std::numeric_limits<int64_t>::min());
  EXPECT_EQ(f64, -1234.5e-67);
  EXPECT_EQ(s1, "hello wire");
  EXPECT_EQ(s2, "");
  EXPECT_EQ(r.remaining(), 0u);

  // One byte past the end of every reader primitive is an error, not UB.
  uint8_t extra;
  EXPECT_FALSE(r.U8(&extra).ok());
}

TEST(WireCodecTest, LittleEndianByteOrderOnTheWire) {
  WireWriter w;
  w.U32(0x01020304u);
  ASSERT_EQ(w.buffer().size(), 4u);
  EXPECT_EQ(w.buffer()[0], 0x04);
  EXPECT_EQ(w.buffer()[1], 0x03);
  EXPECT_EQ(w.buffer()[2], 0x02);
  EXPECT_EQ(w.buffer()[3], 0x01);
}

TEST(WireCodecTest, TruncatedStringFails) {
  WireWriter w;
  w.U32(100);  // claims 100 bytes, delivers none
  WireReader r(w.buffer());
  std::string s;
  EXPECT_FALSE(r.Str(&s).ok());
}

TEST(FrameTest, EncodeDecodeRoundTrip) {
  std::vector<uint8_t> wire;
  WireWriter w;
  w.Str("select 1");
  EncodeFrame(MsgType::kQuery, w.buffer(), &wire);
  EncodeFrame(MsgType::kCancel, {}, &wire);

  Frame frame;
  auto consumed = DecodeFrame(wire.data(), wire.size(), &frame);
  ASSERT_TRUE(consumed.ok());
  ASSERT_GT(consumed.value(), 0u);
  EXPECT_EQ(frame.type, MsgType::kQuery);
  WireReader r(frame.payload);
  std::string sql;
  ASSERT_TRUE(r.Str(&sql).ok());
  EXPECT_EQ(sql, "select 1");

  size_t offset = consumed.value();
  auto consumed2 = DecodeFrame(wire.data() + offset, wire.size() - offset,
                               &frame);
  ASSERT_TRUE(consumed2.ok());
  EXPECT_EQ(consumed2.value(), kFrameHeaderSize);
  EXPECT_EQ(frame.type, MsgType::kCancel);
  EXPECT_TRUE(frame.payload.empty());
}

TEST(FrameTest, PartialFrameConsumesNothing) {
  std::vector<uint8_t> wire;
  WireWriter w;
  w.Str("select count(*) from lineitem");
  EncodeFrame(MsgType::kQuery, w.buffer(), &wire);
  Frame frame;
  // Every strict prefix decodes to "incomplete", never to garbage.
  for (size_t n = 0; n < wire.size(); ++n) {
    auto consumed = DecodeFrame(wire.data(), n, &frame);
    ASSERT_TRUE(consumed.ok()) << n;
    EXPECT_EQ(consumed.value(), 0u) << n;
  }
  auto full = DecodeFrame(wire.data(), wire.size(), &frame);
  ASSERT_TRUE(full.ok());
  EXPECT_EQ(full.value(), wire.size());
}

TEST(FrameTest, OversizedPayloadRejected) {
  // A hostile header claiming a 2 GiB payload must fail fast instead of
  // making the server buffer it.
  std::vector<uint8_t> wire = {0xff, 0xff, 0xff, 0x7f,
                               static_cast<uint8_t>(MsgType::kQuery)};
  Frame frame;
  auto consumed = DecodeFrame(wire.data(), wire.size(), &frame);
  EXPECT_FALSE(consumed.ok());
}

TEST(FrameTest, StatusCodeMappingRoundTrips) {
  for (StatusCode code :
       {StatusCode::kOk, StatusCode::kInvalidArgument, StatusCode::kNotFound,
        StatusCode::kParseError, StatusCode::kBindError, StatusCode::kPlanError,
        StatusCode::kCodegenError, StatusCode::kCompileError,
        StatusCode::kExecError, StatusCode::kIoError,
        StatusCode::kNotImplemented, StatusCode::kInternal}) {
    EXPECT_EQ(WireToStatusCode(StatusCodeToWire(code)), code);
  }
  // Unknown codes from a newer peer degrade to kInternal.
  EXPECT_EQ(WireToStatusCode(0xffffffffu), StatusCode::kInternal);
}

void ExpectValueRoundTrip(const Value& v) {
  WireWriter w;
  WriteValue(v, &w);
  WireReader r(w.buffer());
  Value out;
  bool is_null = true;
  ASSERT_TRUE(ReadValue(&r, &out, &is_null).ok());
  EXPECT_FALSE(is_null);
  EXPECT_EQ(out.type_id(), v.type_id());
  EXPECT_EQ(out.type().length, v.type().length);
  EXPECT_EQ(out.Compare(v), 0);
  if (v.type_id() == TypeId::kChar) {
    EXPECT_EQ(out.AsString(), v.AsString());  // padding bytes included
  }
  EXPECT_EQ(r.remaining(), 0u);
}

TEST(ValueSerdeTest, AllColumnTypesRoundTrip) {
  ExpectValueRoundTrip(Value::Int32(0));
  ExpectValueRoundTrip(Value::Int32(-1));
  ExpectValueRoundTrip(Value::Int32(std::numeric_limits<int32_t>::min()));
  ExpectValueRoundTrip(Value::Int32(std::numeric_limits<int32_t>::max()));
  ExpectValueRoundTrip(Value::Int64(std::numeric_limits<int64_t>::min()));
  ExpectValueRoundTrip(Value::Int64(std::numeric_limits<int64_t>::max()));
  ExpectValueRoundTrip(Value::Double(0.0));
  ExpectValueRoundTrip(Value::Double(-0.0));
  ExpectValueRoundTrip(Value::Double(1e300));
  ExpectValueRoundTrip(Value::Double(-2.2250738585072014e-308));
  ExpectValueRoundTrip(Value::Date(0));
  ExpectValueRoundTrip(Value::Date(-719162));  // year 1
  ExpectValueRoundTrip(Value::Date(20000));
  ExpectValueRoundTrip(Value::Char("hique", 10));
}

TEST(ValueSerdeTest, CharEdgeCases) {
  // Empty source string: space-padded to the declared width.
  ExpectValueRoundTrip(Value::Char("", 4));
  // Width 0: a zero-length payload, still round-trippable.
  ExpectValueRoundTrip(Value::Char("", 0));
  // Maximum representable width (u16), filled with non-space bytes.
  std::string max_str(std::numeric_limits<uint16_t>::max(), 'x');
  ExpectValueRoundTrip(
      Value::Char(max_str, std::numeric_limits<uint16_t>::max()));
  // Embedded spaces and trailing padding survive byte-for-byte.
  ExpectValueRoundTrip(Value::Char("a b ", 8));
}

TEST(ValueSerdeTest, NullRoundTrip) {
  WireWriter w;
  WriteNull(&w);
  WriteValue(Value::Int32(7), &w);  // NULL must not desync the stream
  WireReader r(w.buffer());
  Value out;
  bool is_null = false;
  ASSERT_TRUE(ReadValue(&r, &out, &is_null).ok());
  EXPECT_TRUE(is_null);
  ASSERT_TRUE(ReadValue(&r, &out, &is_null).ok());
  EXPECT_FALSE(is_null);
  EXPECT_EQ(out.AsInt32(), 7);
}

TEST(ValueSerdeTest, MalformedValuesRejected) {
  {
    std::vector<uint8_t> bytes = {99};  // unknown tag
    WireReader r(bytes.data(), bytes.size());
    Value out;
    bool is_null;
    EXPECT_FALSE(ReadValue(&r, &out, &is_null).ok());
  }
  {
    // CHAR claiming 8 payload bytes but delivering 3.
    WireWriter w;
    WriteValue(Value::Char("abcdefgh", 8), &w);
    std::vector<uint8_t> bytes = w.buffer();
    bytes.resize(bytes.size() - 5);
    WireReader r(bytes.data(), bytes.size());
    Value out;
    bool is_null;
    EXPECT_FALSE(ReadValue(&r, &out, &is_null).ok());
  }
  {
    // Truncated INT64.
    WireWriter w;
    WriteValue(Value::Int64(42), &w);
    std::vector<uint8_t> bytes = w.buffer();
    bytes.resize(4);
    WireReader r(bytes.data(), bytes.size());
    Value out;
    bool is_null;
    EXPECT_FALSE(ReadValue(&r, &out, &is_null).ok());
  }
}

TEST(SchemaSerdeTest, AllTypesRoundTrip) {
  Schema schema;
  schema.AddColumn("id", Type::Int32());
  schema.AddColumn("big", Type::Int64());
  schema.AddColumn("price", Type::Double());
  schema.AddColumn("shipped", Type::Date());
  schema.AddColumn("comment", Type::Char(23));
  schema.AddColumn("flag", Type::Char(1));

  WireWriter w;
  WriteSchema(schema, &w);
  WireReader r(w.buffer());
  Schema out;
  ASSERT_TRUE(ReadSchema(&r, &out).ok());
  EXPECT_EQ(r.remaining(), 0u);
  ASSERT_TRUE(out == schema);
  // The layout both sides compute must agree field by field — raw tuple
  // pages are only portable if offsets match exactly.
  EXPECT_EQ(out.TupleSize(), schema.TupleSize());
  for (size_t i = 0; i < schema.NumColumns(); ++i) {
    EXPECT_EQ(out.OffsetAt(i), schema.OffsetAt(i)) << i;
    EXPECT_EQ(out.ColumnAt(i).name, schema.ColumnAt(i).name) << i;
  }
}

TEST(SchemaSerdeTest, TupleSizeMismatchRejected) {
  Schema schema;
  schema.AddColumn("a", Type::Int32());
  WireWriter w;
  WriteSchema(schema, &w);
  std::vector<uint8_t> bytes = w.buffer();
  bytes[bytes.size() - 4] ^= 0xff;  // corrupt the trailing tuple_size
  WireReader r(bytes.data(), bytes.size());
  Schema out;
  EXPECT_FALSE(ReadSchema(&r, &out).ok());
}

TEST(SchemaSerdeTest, UnknownColumnTypeRejected) {
  WireWriter w;
  w.U32(1);      // one column
  w.Str("bad");
  w.U8(250);     // no such TypeId
  w.U16(0);
  w.U32(8);
  WireReader r(w.buffer());
  Schema out;
  EXPECT_FALSE(ReadSchema(&r, &out).ok());
}

Status RecvRawFrame(Socket* sock, Frame* frame) {
  uint8_t header[kFrameHeaderSize];
  HQ_RETURN_IF_ERROR(sock->RecvAll(header, sizeof(header)));
  uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<uint32_t>(header[i]) << (8 * i);
  }
  frame->type = static_cast<MsgType>(header[4]);
  frame->payload.resize(len);
  return len > 0 ? sock->RecvAll(frame->payload.data(), len) : Status::OK();
}

Status SendRawFrame(Socket* sock, MsgType type, const WireWriter& w) {
  std::vector<uint8_t> wire;
  EncodeFrame(type, w.buffer(), &wire);
  return sock->SendAll(wire.data(), wire.size());
}

// Both ends speak exactly one protocol version, so a ResultDone without
// its rows_affected field can only be a truncated frame: the client must
// end the stream with a typed IoError rather than report zero rows
// affected.
TEST(ClientFrameTest, ShortResultDoneEndsStreamWithIoError) {
  uint16_t port = 0;
  auto listener = Socket::Listen("127.0.0.1", 0, 1, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  Status peer = Status::OK();
  std::thread server([&] {
    auto accepted = listener.value().Accept();
    if (!accepted.ok()) {
      peer = accepted.status();
      return;
    }
    Socket sock = std::move(accepted).value();
    Frame frame;
    peer = RecvRawFrame(&sock, &frame);  // Hello
    WireWriter ack;
    ack.U16(kProtocolVersion);
    ack.Str("scripted peer");
    if (peer.ok()) peer = SendRawFrame(&sock, MsgType::kHelloAck, ack);
    if (peer.ok()) peer = RecvRawFrame(&sock, &frame);  // Query
    WireWriter header;
    Schema schema;
    schema.AddColumn("c", Type::Int64());
    WriteSchema(schema, &header);
    header.Str("sig");
    header.U8(0);
    header.I32(0);
    if (peer.ok()) peer = SendRawFrame(&sock, MsgType::kResultSchema, header);
    WireWriter done;  // every ResultDone field but the trailing rows_affected
    done.U64(0);
    done.F64(0);
    done.U64(0);
    done.U64(0);
    done.U32(1);
    done.U8(0);
    if (peer.ok()) peer = SendRawFrame(&sock, MsgType::kResultDone, done);
    // Hold the connection until the client hangs up.
    if (peer.ok()) (void)RecvRawFrame(&sock, &frame);
  });

  auto connected = Client::Connect("127.0.0.1", port);
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();
  auto rs = client.Query("select c from t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  RemoteResultSet cursor = std::move(rs).value();
  EXPECT_FALSE(cursor.Next());
  EXPECT_EQ(cursor.status().code(), StatusCode::kIoError)
      << cursor.status().ToString();
  client.Abort();
  server.join();
  EXPECT_TRUE(peer.ok()) << peer.ToString();
}

// Each version bump changes some frame's layout (v6 shortened CloseAck), and
// no peer decodes a frame of another version: the handshake refuses a
// mismatch before any such frame is exchanged. A Hello carrying the
// previous version must get an Error frame and a closed connection, and
// the server must keep serving current-version clients.
// hiqued's descriptors are close-on-exec, so the g++ processes the engine
// spawns inherit none of its sockets or its wake pipe.
TEST(SocketTest, EveryDescriptorIsCloseOnExec) {
  auto cloexec = [](int fd) {
    const int flags = fcntl(fd, F_GETFD);
    return flags >= 0 && (flags & FD_CLOEXEC) != 0;
  };
  uint16_t port = 0;
  auto listener = net::Socket::Listen("127.0.0.1", 0, 4, &port);
  ASSERT_TRUE(listener.ok()) << listener.status().ToString();
  auto client = net::Socket::Connect("127.0.0.1", port);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  auto accepted = listener.value().Accept();
  ASSERT_TRUE(accepted.ok()) << accepted.status().ToString();
  ASSERT_TRUE(accepted.value().valid());
  EXPECT_TRUE(cloexec(listener.value().fd()));
  EXPECT_TRUE(cloexec(accepted.value().fd()));
  EXPECT_TRUE(cloexec(client.value().fd()));
  net::WakePipe wake;
  ASSERT_TRUE(wake.valid());
  EXPECT_TRUE(cloexec(wake.read_fd()));
  EXPECT_TRUE(cloexec(wake.write_fd()));
}

TEST(HandshakeTest, HelloWithPreviousVersionIsRefused) {
  Catalog catalog;
  hique::testing::MakeIntTable(&catalog, "t", 100, 10, 1);
  EngineOptions options;
  options.threads = 1;
  options.compile.opt_level = 0;
  HiqueEngine engine(&catalog, options);
  Server server(&engine);
  ASSERT_TRUE(server.Start().ok());

  auto raw = Socket::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(raw.ok()) << raw.status().ToString();
  Socket sock = std::move(raw).value();
  WireWriter hello;
  hello.U32(kMagic);
  hello.U16(kProtocolVersion - 1);
  hello.U8(kLittleEndian);
  hello.Str("previous-version peer");
  ASSERT_TRUE(SendRawFrame(&sock, MsgType::kHello, hello).ok());
  Frame reply;
  Status got = RecvRawFrame(&sock, &reply);
  ASSERT_TRUE(got.ok()) << got.ToString();
  ASSERT_EQ(reply.type, MsgType::kError);
  // The Error frame is the last thing the server sends on that connection.
  Frame after;
  EXPECT_EQ(RecvRawFrame(&sock, &after).code(), StatusCode::kIoError);

  auto connected = Client::Connect("127.0.0.1", server.port());
  ASSERT_TRUE(connected.ok()) << connected.status().ToString();
  Client client = std::move(connected).value();
  auto rs = client.Query("select count(*) as c from t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  RemoteResultSet cursor = std::move(rs).value();
  ASSERT_TRUE(cursor.Next());
  EXPECT_EQ(cursor.Get(0).AsInt64(), 100);
  EXPECT_FALSE(cursor.Next());
  EXPECT_TRUE(cursor.status().ok()) << cursor.status().ToString();
  EXPECT_TRUE(client.Close().ok());
  server.Stop();
}

}  // namespace
}  // namespace hique::net
