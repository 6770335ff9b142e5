#include "net/wire.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <initializer_list>
#include <limits>
#include <string>
#include <string_view>
#include <vector>

#include "stream/schema.h"
#include "stream/tuple.h"
#include "util/rng.h"

namespace icewafl {
namespace net {
namespace {

// ---------------------------------------------------------------------
// Bit-exact value comparison (NaN == NaN must hold on the wire).
// ---------------------------------------------------------------------

bool ValuesBitEqual(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
      return true;
    case ValueType::kBool:
      return a.AsBool() == b.AsBool();
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble: {
      uint64_t abits = 0, bbits = 0;
      const double ad = a.AsDouble(), bd = b.AsDouble();
      std::memcpy(&abits, &ad, sizeof(abits));
      std::memcpy(&bbits, &bd, sizeof(bbits));
      return abits == bbits;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

// ---------------------------------------------------------------------
// Random generators over the full value domain.
// ---------------------------------------------------------------------

SchemaPtr RandomSchema(Rng* rng) {
  const int n = static_cast<int>(rng->UniformInt(1, 8));
  const int ts = static_cast<int>(rng->UniformInt(0, n - 1));
  std::vector<Attribute> attributes;
  std::string ts_name;
  for (int i = 0; i < n; ++i) {
    Attribute attr;
    attr.name = "attr" + std::to_string(i);
    // Occasionally exercise longer / odd names.
    if (rng->Bernoulli(0.2)) attr.name += std::string(40, 'x') + "\xE2\x82\xAC";
    if (i == ts) {
      attr.type = ValueType::kInt64;  // Schema::Make's timestamp rule
      ts_name = attr.name;
    } else {
      static const ValueType kTypes[] = {ValueType::kBool, ValueType::kInt64,
                                         ValueType::kDouble,
                                         ValueType::kString};
      attr.type = kTypes[rng->UniformInt(0, 3)];
    }
    attributes.push_back(std::move(attr));
  }
  auto schema = Schema::Make(std::move(attributes), ts_name);
  EXPECT_TRUE(schema.ok()) << schema.status().ToString();
  return schema.ValueOrDie();
}

Value RandomValue(Rng* rng) {
  switch (rng->UniformInt(0, 9)) {
    case 0:
      return Value::Null();
    case 1:
      return Value(rng->Bernoulli(0.5));
    case 2:
      return Value(static_cast<int64_t>(rng->Next()));
    case 3:
      return Value(std::numeric_limits<int64_t>::min());
    case 4:
      return Value(rng->Uniform(-1e18, 1e18));
    case 5:
      return Value(std::numeric_limits<double>::quiet_NaN());
    case 6: {
      static const double kEdges[] = {
          0.0,
          -0.0,
          std::numeric_limits<double>::infinity(),
          -std::numeric_limits<double>::infinity(),
          std::numeric_limits<double>::denorm_min(),
          std::numeric_limits<double>::max(),
          -std::numeric_limits<double>::lowest()};
      return Value(kEdges[rng->UniformInt(0, 6)]);
    }
    case 7:
      return Value(std::string());  // empty string
    case 8: {
      // Binary-hostile string: embedded NUL, newline, quote, high bytes.
      std::string s;
      const int len = static_cast<int>(rng->UniformInt(1, 64));
      for (int i = 0; i < len; ++i) {
        s.push_back(static_cast<char>(rng->UniformInt(0, 255)));
      }
      return Value(std::move(s));
    }
    default:
      return Value(rng->NextDouble());
  }
}

Tuple RandomTuple(Rng* rng, const SchemaPtr& schema) {
  std::vector<Value> values;
  for (size_t i = 0; i < schema->num_attributes(); ++i) {
    values.push_back(RandomValue(rng));
  }
  Tuple tuple(schema, std::move(values));
  tuple.set_id(rng->Next());
  tuple.set_event_time(static_cast<Timestamp>(rng->Next()));
  tuple.set_arrival_time(static_cast<Timestamp>(rng->Next()));
  tuple.set_substream(rng->Bernoulli(0.3)
                          ? kNoSubstream
                          : static_cast<int>(rng->UniformInt(-1000, 1000)));
  return tuple;
}

/// A fresh in-place decode: DecodeTuplePayload into a new Tuple.
Result<Tuple> DecodeTuple(std::string_view payload, const SchemaPtr& schema) {
  Tuple tuple;
  ICEWAFL_RETURN_NOT_OK(DecodeTuplePayload(payload, schema, &tuple));
  return tuple;
}

void ExpectTuplesEqual(const Tuple& a, const Tuple& b) {
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.event_time(), b.event_time());
  EXPECT_EQ(a.arrival_time(), b.arrival_time());
  EXPECT_EQ(a.substream(), b.substream());
  ASSERT_EQ(a.num_values(), b.num_values());
  for (size_t i = 0; i < a.num_values(); ++i) {
    EXPECT_TRUE(ValuesBitEqual(a.value(i), b.value(i)))
        << "value " << i << " diverged";
  }
}

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

TEST(WirePrimitives, VarintRoundTripBoundaries) {
  for (uint64_t v : std::initializer_list<uint64_t>{
           0, 1, 127, 128, 16383, 16384, 0xFFFFFFFF, UINT64_MAX}) {
    std::string buf;
    AppendVarint(v, &buf);
    ByteReader reader(buf);
    uint64_t decoded = 0;
    ASSERT_TRUE(reader.Varint(&decoded));
    EXPECT_EQ(decoded, v);
    EXPECT_TRUE(reader.ExpectEnd().ok());
  }
}

TEST(WirePrimitives, ZigzagIsInvolutive) {
  for (int64_t v : {int64_t{0}, int64_t{-1}, int64_t{1}, int64_t{-2},
                    std::numeric_limits<int64_t>::min(),
                    std::numeric_limits<int64_t>::max()}) {
    EXPECT_EQ(ZigzagDecode(ZigzagEncode(v)), v);
  }
  // Small magnitudes of either sign stay in one byte.
  std::string buf;
  AppendVarint(ZigzagEncode(-1), &buf);
  EXPECT_EQ(buf.size(), 1u);
}

TEST(WirePrimitives, OverlongVarintRejected) {
  const std::string eleven(11, static_cast<char>(0x80));
  uint64_t v = 0;
  ByteReader reader(eleven);
  EXPECT_FALSE(reader.Varint(&v));
  // Ten continuation bytes with a final byte overflowing 64 bits.
  std::string overflow(9, static_cast<char>(0x80));
  overflow.push_back(0x02);
  ByteReader reader2(overflow);
  EXPECT_FALSE(reader2.Varint(&v));
}

TEST(WirePrimitives, NonCanonicalVarintRejected) {
  // LEB128 admits padded spellings of every value (a redundant
  // continuation byte followed by a zero terminator). The reader used
  // to accept them silently, which broke the one-spelling-per-value
  // contract the canonical re-encode checks rely on. Fixtures cover
  // the overlong forms of 0, 127, 128, and the 2^63 boundary.
  struct Fixture {
    std::string bytes;
    const char* what;
  };
  const Fixture kOverlong[] = {
      {std::string("\x80\x00", 2), "0 padded to two bytes"},
      {std::string("\xFF\x00", 2), "127 padded to two bytes"},
      {std::string("\x80\x81\x00", 3), "128 padded to three bytes"},
      {std::string(9, static_cast<char>(0x80)) + std::string(1, '\x00'),
       "0 padded to the full ten bytes"},
  };
  for (const Fixture& f : kOverlong) {
    ByteReader reader(f.bytes);
    uint64_t v = 0;
    ASSERT_FALSE(reader.Varint(&v)) << f.what << " accepted";
    EXPECT_NE(reader.status().ToString().find("non-canonical varint"),
              std::string::npos)
        << f.what << ": " << reader.status().ToString();
  }
  // 2^63 needs all ten bytes, so its only overlong spelling is eleven
  // bytes — rejected by the length cap before the canonicality check.
  std::string eleven_pow63(10, static_cast<char>(0x80));
  eleven_pow63.push_back(0x01);
  ByteReader reader_pow63(eleven_pow63);
  uint64_t pow63 = 0;
  EXPECT_FALSE(reader_pow63.Varint(&pow63));
  // The canonical spellings of the same values still decode.
  const std::pair<std::string, uint64_t> kCanonical[] = {
      {std::string(1, '\x00'), 0},
      {std::string(1, '\x7F'), 127},
      {std::string("\x80\x01", 2), 128},
      {std::string(9, static_cast<char>(0x80)) + std::string(1, '\x01'),
       uint64_t{1} << 63},
  };
  for (const auto& [bytes, want] : kCanonical) {
    ByteReader reader3(bytes);
    uint64_t got = 0;
    ASSERT_TRUE(reader3.Varint(&got)) << reader3.status().ToString();
    EXPECT_EQ(got, want);
  }
}

// ---------------------------------------------------------------------
// 500-seed property round-trip
// ---------------------------------------------------------------------

TEST(WireProperty, FiveHundredSeedRoundTrip) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    Rng rng(seed);
    SchemaPtr schema = RandomSchema(&rng);

    // Schema round-trip is exact.
    auto schema2 = DecodeSchemaPayload(EncodeSchemaPayload(*schema));
    ASSERT_TRUE(schema2.ok()) << "seed " << seed << ": "
                              << schema2.status().ToString();
    EXPECT_TRUE(schema->Equals(*schema2.ValueOrDie())) << "seed " << seed;

    // A small burst of tuples through the framed stream, fed to the
    // decoder in random-sized chunks (exercising resumption mid-frame).
    const int count = static_cast<int>(rng.UniformInt(1, 8));
    std::vector<Tuple> tuples;
    std::string stream = EncodeSchemaFrame(*schema);
    for (int i = 0; i < count; ++i) {
      tuples.push_back(RandomTuple(&rng, schema));
      stream += EncodeTupleFrame(tuples.back());
    }
    stream += EncodeEndFrame(static_cast<uint64_t>(count));

    FrameDecoder decoder;
    size_t fed = 0;
    std::vector<Tuple> decoded;
    uint64_t end_total = 0;
    bool saw_schema = false, saw_end = false;
    while (true) {
      uint8_t type = 0;
      std::string_view payload;
      auto next = decoder.Next(&type, &payload);
      ASSERT_TRUE(next.ok()) << "seed " << seed << ": "
                             << next.status().ToString();
      if (!next.ValueOrDie()) {
        if (fed >= stream.size()) break;  // nothing more to feed
        const size_t chunk = static_cast<size_t>(
            rng.UniformInt(1, static_cast<int64_t>(stream.size() - fed)));
        decoder.Feed(stream.data() + fed, chunk);
        fed += chunk;
        continue;
      }
      if (type == kFrameSchema) {
        saw_schema = true;
      } else if (type == kFrameTuple) {
        auto tuple = DecodeTuple(payload, schema);
        ASSERT_TRUE(tuple.ok()) << "seed " << seed << ": "
                                << tuple.status().ToString();
        decoded.push_back(std::move(tuple).ValueOrDie());
      } else if (type == kFrameEnd) {
        auto total = DecodeEndPayload(payload);
        ASSERT_TRUE(total.ok());
        end_total = total.ValueOrDie();
        saw_end = true;
      }
    }
    EXPECT_TRUE(saw_schema);
    EXPECT_TRUE(saw_end);
    EXPECT_EQ(end_total, static_cast<uint64_t>(count));
    ASSERT_EQ(decoded.size(), tuples.size()) << "seed " << seed;
    for (size_t i = 0; i < tuples.size(); ++i) {
      ExpectTuplesEqual(tuples[i], decoded[i]);
    }
    EXPECT_EQ(decoder.buffered(), 0u) << "seed " << seed;
  }
}

// ---------------------------------------------------------------------
// Single-pass tuple framing: AppendTupleFrame must be byte-identical to
// the two-step encoder it replaced (build the payload string, then copy
// it behind a type byte and length prefix), kept here as the oracle.
// ---------------------------------------------------------------------

void OracleAppendValue(const Value& v, std::string* out) {
  out->push_back(static_cast<char>(v.type()));
  switch (v.type()) {
    case ValueType::kNull:
      break;
    case ValueType::kBool:
      out->push_back(v.AsBool() ? 1 : 0);
      break;
    case ValueType::kInt64:
      AppendFixed64(static_cast<uint64_t>(v.AsInt64()), out);
      break;
    case ValueType::kDouble: {
      uint64_t bits = 0;
      const double d = v.AsDouble();
      std::memcpy(&bits, &d, sizeof(bits));
      AppendFixed64(bits, out);
      break;
    }
    case ValueType::kString:
      AppendVarint(v.AsString().size(), out);
      out->append(v.AsString());
      break;
  }
}

std::string OracleTuplePayload(const Tuple& tuple) {
  std::string out;
  AppendFixed64(tuple.id(), &out);
  AppendFixed64(static_cast<uint64_t>(tuple.event_time()), &out);
  AppendFixed64(static_cast<uint64_t>(tuple.arrival_time()), &out);
  AppendVarint(ZigzagEncode(tuple.substream()), &out);
  AppendVarint(tuple.num_values(), &out);
  for (const Value& v : tuple.values()) OracleAppendValue(v, &out);
  return out;
}

std::string OracleTupleFrame(const Tuple& tuple) {
  std::string frame;
  AppendFrame(kFrameTuple, OracleTuplePayload(tuple), &frame);
  return frame;
}

/// Asserts every single-pass encoder agrees with the oracle on `tuple`
/// and that the frame decodes back bit-exactly.
void ExpectMatchesOracle(const Tuple& tuple, const SchemaPtr& schema) {
  const std::string frame = OracleTupleFrame(tuple);
  EXPECT_EQ(EncodeTupleFrame(tuple), frame);
  EXPECT_EQ(EncodeTuplePayload(tuple), OracleTuplePayload(tuple));
  std::string appended = "prefix";
  AppendTupleFrame(tuple, &appended);
  EXPECT_EQ(appended, "prefix" + frame);
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  auto next = decoder.Next(&type, &payload);
  ASSERT_TRUE(next.ok()) << next.status().ToString();
  ASSERT_TRUE(next.ValueOrDie());
  EXPECT_EQ(type, kFrameTuple);
  auto decoded = DecodeTuple(payload, schema);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ExpectTuplesEqual(tuple, decoded.ValueOrDie());
}

TEST(WireTupleFrame, MatchesOracleOverFiveHundredSeeds) {
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    SchemaPtr schema = RandomSchema(&rng);
    // Many frames appended to one buffer, as the server's fan-out builds
    // a chunk, must equal the oracle frames back to back and split
    // frame by frame on decode.
    const int count = static_cast<int>(rng.UniformInt(1, 40));
    std::vector<Tuple> tuples;
    std::string chunk;
    std::string expected;
    for (int i = 0; i < count; ++i) {
      tuples.push_back(RandomTuple(&rng, schema));
      ExpectMatchesOracle(tuples.back(), schema);
      AppendTupleFrame(tuples.back(), &chunk);
      expected += OracleTupleFrame(tuples.back());
    }
    ASSERT_EQ(chunk, expected);
    FrameDecoder decoder;
    decoder.Feed(chunk.data(), chunk.size());
    for (const Tuple& want : tuples) {
      uint8_t type = 0;
      std::string_view payload;
      auto next = decoder.Next(&type, &payload);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      ASSERT_TRUE(next.ValueOrDie());
      ASSERT_EQ(type, kFrameTuple);
      auto got = DecodeTuple(payload, schema);
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      ExpectTuplesEqual(want, got.ValueOrDie());
    }
    EXPECT_EQ(decoder.buffered(), 0u);
  }
}

TEST(WireTupleFrame, VarintLengthBoundaries) {
  // Every string length from 0 to 300 crosses both the string-length
  // varint (127 → 128: one to two bytes) and the frame's payload-length
  // varint; the long ones reach three-byte varints.
  auto schema = Schema::Make(
      {{"t", ValueType::kInt64}, {"s", ValueType::kString}}, "t");
  ASSERT_TRUE(schema.ok());
  std::vector<size_t> lengths;
  for (size_t n = 0; n <= 300; ++n) lengths.push_back(n);
  for (size_t n : {16383u, 16384u, 20000u}) lengths.push_back(n);
  for (size_t n : lengths) {
    SCOPED_TRACE("string length " + std::to_string(n));
    Tuple tuple(schema.ValueOrDie(),
                {Value(static_cast<int64_t>(n)), Value(std::string(n, 'q'))});
    tuple.set_id(n);
    ExpectMatchesOracle(tuple, schema.ValueOrDie());
  }
}

TEST(WireTupleFrame, EdgeValuesMatchOracle) {
  auto schema = Schema::Make({{"t", ValueType::kInt64},
                              {"d", ValueType::kDouble},
                              {"b", ValueType::kBool},
                              {"s", ValueType::kString}},
                             "t");
  ASSERT_TRUE(schema.ok());
  // NaNs with distinct payloads and signs must keep their exact bits.
  std::vector<double> doubles = {
      -0.0, 0.0, std::numeric_limits<double>::quiet_NaN(),
      -std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::signaling_NaN(),
      std::numeric_limits<double>::infinity(),
      std::numeric_limits<double>::denorm_min()};
  uint64_t payload_nan_bits = 0x7FF800000000BEEFull;
  double payload_nan = 0;
  std::memcpy(&payload_nan, &payload_nan_bits, sizeof(payload_nan));
  doubles.push_back(payload_nan);
  const std::vector<int> substreams = {
      kNoSubstream, -2, -64, -65, std::numeric_limits<int>::min(), 0, 63,
      64, std::numeric_limits<int>::max()};
  uint64_t id = 0;
  for (double d : doubles) {
    for (int substream : substreams) {
      for (int variant = 0; variant < 4; ++variant) {
        // variant 0: all values set; 1: nulls; 2: bool false and a
        // divergent int in the double column; 3: int64 extremes.
        std::vector<Value> values = {
            Value(static_cast<int64_t>(id)), Value(d), Value(true),
            Value(std::string("\0x\xff", 3))};
        if (variant == 1) {
          values[1] = Value::Null();
          values[2] = Value::Null();
          values[3] = Value::Null();
        } else if (variant == 2) {
          values[1] = Value(int64_t{-1});
          values[2] = Value(false);
        } else if (variant == 3) {
          values[0] = Value(std::numeric_limits<int64_t>::min());
          values[1] = Value(std::numeric_limits<int64_t>::max());
        }
        Tuple tuple(schema.ValueOrDie(), std::move(values));
        tuple.set_id(id == 0 ? ~uint64_t{0} : id);
        tuple.set_event_time(-static_cast<Timestamp>(id));
        tuple.set_arrival_time(std::numeric_limits<Timestamp>::min());
        tuple.set_substream(substream);
        ++id;
        ExpectMatchesOracle(tuple, schema.ValueOrDie());
      }
    }
  }
}

// ---------------------------------------------------------------------
// In-place tuple decode: DecodeTuplePayload writes through a cursor
// ByteReader into the caller's Tuple. The Result-returning decoder it
// replaced is kept here as the oracle: both must accept and reject the
// same payloads with the same Status, and decode accepted ones to
// bit-identical tuples.
// ---------------------------------------------------------------------

/// The former Result-returning payload reader.
class OracleReader {
 public:
  explicit OracleReader(const std::string& buf)
      : data_(reinterpret_cast<const uint8_t*>(buf.data())),
        size_(buf.size()) {}

  size_t remaining() const { return size_ - pos_; }

  Result<uint8_t> U8() {
    if (pos_ >= size_) return Status::ParseError("wire: truncated byte");
    return data_[pos_++];
  }

  Result<uint64_t> Fixed64() {
    if (size_ - pos_ < 8) return Status::ParseError("wire: truncated fixed64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
           << (8 * i);
    }
    pos_ += 8;
    return v;
  }

  Result<uint64_t> Varint() {
    uint64_t v = 0;
    for (int i = 0; i < 10; ++i) {
      if (pos_ >= size_) return Status::ParseError("wire: truncated varint");
      const uint8_t byte = data_[pos_++];
      if (i == 9 && (byte & 0xFE) != 0) {
        return Status::ParseError("wire: varint overflows 64 bits");
      }
      v |= static_cast<uint64_t>(byte & 0x7F) << (7 * i);
      if ((byte & 0x80) == 0) {
        if (i > 0 && byte == 0) {
          return Status::ParseError("wire: non-canonical varint");
        }
        return v;
      }
    }
    return Status::ParseError("wire: varint too long");
  }

  Result<std::string> Bytes(size_t n) {
    if (size_ - pos_ < n) return Status::ParseError("wire: truncated bytes");
    std::string out(reinterpret_cast<const char*>(data_ + pos_), n);
    pos_ += n;
    return out;
  }

  Status ExpectEnd() const {
    if (pos_ != size_) {
      return Status::ParseError("wire: " + std::to_string(size_ - pos_) +
                                " trailing payload byte(s)");
    }
    return Status::OK();
  }

 private:
  const uint8_t* data_;
  size_t size_;
  size_t pos_ = 0;
};

Result<Value> OracleReadValue(OracleReader* reader) {
  ICEWAFL_ASSIGN_OR_RETURN(uint8_t tag, reader->U8());
  switch (static_cast<ValueType>(tag)) {
    case ValueType::kNull:
      return Value::Null();
    case ValueType::kBool: {
      ICEWAFL_ASSIGN_OR_RETURN(uint8_t b, reader->U8());
      if (b > 1) return Status::ParseError("wire: bool byte not 0/1");
      return Value(b == 1);
    }
    case ValueType::kInt64: {
      ICEWAFL_ASSIGN_OR_RETURN(uint64_t bits, reader->Fixed64());
      return Value(static_cast<int64_t>(bits));
    }
    case ValueType::kDouble: {
      ICEWAFL_ASSIGN_OR_RETURN(uint64_t bits, reader->Fixed64());
      double d = 0;
      std::memcpy(&d, &bits, sizeof(d));
      return Value(d);
    }
    case ValueType::kString: {
      ICEWAFL_ASSIGN_OR_RETURN(uint64_t len, reader->Varint());
      if (len > reader->remaining()) {
        return Status::ParseError("wire: string length exceeds payload");
      }
      ICEWAFL_ASSIGN_OR_RETURN(std::string s,
                               reader->Bytes(static_cast<size_t>(len)));
      return Value(std::move(s));
    }
  }
  return Status::ParseError("wire: unknown value tag " + std::to_string(tag));
}

/// The former Result-returning tuple decoder.
Result<Tuple> OracleDecodeTuple(const std::string& payload,
                                const SchemaPtr& schema) {
  OracleReader reader(payload);
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t id, reader.Fixed64());
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t event_time, reader.Fixed64());
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t arrival_time, reader.Fixed64());
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t substream_zz, reader.Varint());
  ICEWAFL_ASSIGN_OR_RETURN(uint64_t count, reader.Varint());
  if (count != schema->num_attributes()) {
    return Status::ParseError(
        "wire: tuple has " + std::to_string(count) +
        " values, schema expects " +
        std::to_string(schema->num_attributes()));
  }
  std::vector<Value> values;
  for (uint64_t i = 0; i < count; ++i) {
    ICEWAFL_ASSIGN_OR_RETURN(Value v, OracleReadValue(&reader));
    values.push_back(std::move(v));
  }
  ICEWAFL_RETURN_NOT_OK(reader.ExpectEnd());
  Tuple tuple(schema, std::move(values));
  tuple.set_id(id);
  tuple.set_event_time(static_cast<Timestamp>(event_time));
  tuple.set_arrival_time(static_cast<Timestamp>(arrival_time));
  const int64_t substream = ZigzagDecode(substream_zz);
  if (substream < INT32_MIN || substream > INT32_MAX) {
    return Status::ParseError("wire: substream id out of range");
  }
  tuple.set_substream(static_cast<int>(substream));
  return tuple;
}

/// Decodes `payload` with the oracle and in place into `*reused` (which
/// carries whatever the previous call, accepted or not, left in it) and
/// asserts the two agree.
void ExpectDecodeAgreesWithOracle(const std::string& payload,
                                  const SchemaPtr& schema, Tuple* reused) {
  const Result<Tuple> want = OracleDecodeTuple(payload, schema);
  const Status got = DecodeTuplePayload(payload, schema, reused);
  ASSERT_EQ(got.ok(), want.ok())
      << "in place: " << got.ToString()
      << "; oracle: " << want.status().ToString();
  if (!want.ok()) {
    EXPECT_EQ(got, want.status());
    return;
  }
  EXPECT_EQ(reused->schema().get(), schema.get());
  ExpectTuplesEqual(want.ValueOrDie(), *reused);
}

/// The payload itself, every proper prefix, and every single-byte
/// mutation of it (three flip masks per byte).
void SweepPayloadAgainstOracle(const std::string& payload,
                               const SchemaPtr& schema, Tuple* reused) {
  ExpectDecodeAgreesWithOracle(payload, schema, reused);
  for (size_t cut = 0; cut < payload.size(); ++cut) {
    SCOPED_TRACE("prefix of " + std::to_string(cut) + " bytes");
    ExpectDecodeAgreesWithOracle(payload.substr(0, cut), schema, reused);
  }
  for (size_t pos = 0; pos < payload.size(); ++pos) {
    for (uint8_t flip : {uint8_t{0x01}, uint8_t{0x80}, uint8_t{0xFF}}) {
      SCOPED_TRACE("byte " + std::to_string(pos) + " flip " +
                   std::to_string(flip));
      std::string mutated = payload;
      mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
      ExpectDecodeAgreesWithOracle(mutated, schema, reused);
    }
  }
}

TEST(WireTupleDecode, AgreesWithOracleOverFiveHundredSeeds) {
  Tuple reused;
  for (uint64_t seed = 1; seed <= 500; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Rng rng(seed);
    SchemaPtr schema = RandomSchema(&rng);
    const int count = static_cast<int>(rng.UniformInt(1, 3));
    for (int i = 0; i < count; ++i) {
      SweepPayloadAgainstOracle(EncodeTuplePayload(RandomTuple(&rng, schema)),
                                schema, &reused);
    }
  }
}

TEST(WireTupleDecode, AgreesWithOracleOnEdgeValues) {
  auto made = Schema::Make({{"t", ValueType::kInt64},
                            {"d", ValueType::kDouble},
                            {"b", ValueType::kBool},
                            {"s", ValueType::kString}},
                           "t");
  ASSERT_TRUE(made.ok());
  const SchemaPtr schema = made.ValueOrDie();
  uint64_t payload_nan_bits = 0x7FF800000000BEEFull;
  double payload_nan = 0;
  std::memcpy(&payload_nan, &payload_nan_bits, sizeof(payload_nan));
  const Value doubles[] = {
      Value(-0.0), Value(std::numeric_limits<double>::quiet_NaN()),
      Value(-std::numeric_limits<double>::quiet_NaN()),
      Value(std::numeric_limits<double>::signaling_NaN()),
      Value(payload_nan), Value(std::numeric_limits<double>::denorm_min()),
      Value(std::numeric_limits<int64_t>::min()),
      Value(std::numeric_limits<int64_t>::max()), Value::Null()};
  const int substreams[] = {kNoSubstream, -64, -65,
                            std::numeric_limits<int>::min(),
                            std::numeric_limits<int>::max()};
  Tuple reused;
  uint64_t id = 0;
  for (const Value& d : doubles) {
    for (int substream : substreams) {
      Tuple tuple(schema, {Value(std::numeric_limits<int64_t>::min()), d,
                           Value(false), Value(std::string("\0x\xff", 3))});
      tuple.set_id(~id++);
      tuple.set_event_time(std::numeric_limits<Timestamp>::max());
      tuple.set_arrival_time(std::numeric_limits<Timestamp>::min());
      tuple.set_substream(substream);
      SweepPayloadAgainstOracle(EncodeTuplePayload(tuple), schema, &reused);
    }
  }
  // Substream ids just outside int32, which no encoder produces.
  for (int64_t substream : {int64_t{INT32_MAX} + 1, int64_t{INT32_MIN} - 1}) {
    std::string payload;
    AppendFixed64(1, &payload);
    AppendFixed64(2, &payload);
    AppendFixed64(3, &payload);
    AppendVarint(ZigzagEncode(substream), &payload);
    AppendVarint(schema->num_attributes(), &payload);
    payload.append(schema->num_attributes(),
                   static_cast<char>(ValueType::kNull));
    SweepPayloadAgainstOracle(payload, schema, &reused);
  }
}

TEST(WireTupleDecode, ReusedTupleMatchesFreshDecodes) {
  auto narrow =
      Schema::Make({{"t", ValueType::kInt64}, {"x", ValueType::kString}}, "t")
          .ValueOrDie();
  auto wide = Schema::Make({{"t", ValueType::kInt64},
                            {"x", ValueType::kString},
                            {"y", ValueType::kDouble}},
                           "t")
                  .ValueOrDie();
  const std::string long_a(100, 'a');
  const std::string long_b(90, 'b');
  // Column x changes type string -> null -> double -> bool -> string
  // while the schema pointer switches narrow -> wide -> narrow.
  std::vector<Tuple> frames;
  frames.emplace_back(narrow, std::vector<Value>{Value(1), Value(long_a)});
  frames.emplace_back(narrow, std::vector<Value>{Value(2), Value::Null()});
  frames.emplace_back(narrow, std::vector<Value>{Value(3), Value(2.5)});
  frames.emplace_back(wide,
                      std::vector<Value>{Value(4), Value(true), Value(-0.0)});
  frames.emplace_back(wide, std::vector<Value>{Value(5), Value(long_a),
                                               Value::Null()});
  frames.emplace_back(wide, std::vector<Value>{Value(6), Value(long_b),
                                               Value(7.0)});
  frames.emplace_back(narrow, std::vector<Value>{Value(7), Value("short")});
  for (size_t i = 0; i < frames.size(); ++i) {
    frames[i].set_id(100 + i);
    frames[i].set_event_time(static_cast<Timestamp>(i));
    frames[i].set_arrival_time(static_cast<Timestamp>(2 * i));
    frames[i].set_substream(static_cast<int>(i) - 3);
  }

  // Start from a moved-from Tuple, as `tail` does after pushing the
  // previous one into its output vector.
  Tuple reused(wide, {Value(0), Value("seed"), Value(1.0)});
  Tuple kept = std::move(reused);
  const char* long_buffer = nullptr;
  for (size_t i = 0; i < frames.size(); ++i) {
    SCOPED_TRACE("frame " + std::to_string(i));
    const std::string payload = EncodeTuplePayload(frames[i]);
    const SchemaPtr& schema = frames[i].schema();
    ASSERT_TRUE(DecodeTuplePayload(payload, schema, &reused).ok());
    auto fresh = DecodeTuple(payload, schema);
    ASSERT_TRUE(fresh.ok()) << fresh.status().ToString();
    EXPECT_EQ(reused.schema().get(), schema.get());
    ExpectTuplesEqual(fresh.ValueOrDie(), reused);
    ExpectTuplesEqual(frames[i], reused);
    // Two long strings in a row in the same column share one buffer:
    // the in-place decode assigns into the string it overwrites.
    if (i == 4) long_buffer = reused.value(1).AsString().data();
    if (i == 5) {
      EXPECT_EQ(reused.value(1).AsString().data(), long_buffer);
    }
  }
  EXPECT_EQ(kept.num_values(), 3u);
}

TEST(WireFuzz, DecoderPayloadCapRejectsOnThePrefix) {
  // A capped decoder (the server's handshake) rejects a length above its
  // cap as soon as the length prefix is complete — no payload byte has
  // to arrive, so none is buffered.
  std::string frame;
  frame.push_back(static_cast<char>(kFrameSubscribe));
  AppendVarint(kMaxHelloPayload + 1, &frame);
  FrameDecoder capped(kMaxHelloPayload);
  capped.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  auto next = capped.Next(&type, &payload);
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().message().find("exceeds limit of 1024"),
            std::string::npos)
      << next.status().ToString();

  // At the cap the decoder waits for the payload; uncapped decoders
  // accept lengths far above it.
  std::string at_cap;
  at_cap.push_back(static_cast<char>(kFrameSubscribe));
  AppendVarint(kMaxHelloPayload, &at_cap);
  FrameDecoder at_limit(kMaxHelloPayload);
  at_limit.Feed(at_cap.data(), at_cap.size());
  auto wait = at_limit.Next(&type, &payload);
  ASSERT_TRUE(wait.ok()) << wait.status().ToString();
  EXPECT_FALSE(wait.ValueOrDie());
  FrameDecoder uncapped;
  uncapped.Feed(frame.data(), frame.size());
  auto more = uncapped.Next(&type, &payload);
  ASSERT_TRUE(more.ok()) << more.status().ToString();
  EXPECT_FALSE(more.ValueOrDie());

  // The largest valid Subscribe hello fits under the cap.
  const std::string hello =
      EncodeSubscribeFrame(~uint64_t{0}, std::string(kMaxSessionIdBytes, 's'),
                           ~uint64_t{0});
  EXPECT_LT(hello.size(), 300u);
  FrameDecoder handshake(kMaxHelloPayload);
  handshake.Feed(hello.data(), hello.size());
  auto got = handshake.Next(&type, &payload);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got.ValueOrDie());
}

// ---------------------------------------------------------------------
// Truncation: every proper prefix decodes to "need more", never error.
// ---------------------------------------------------------------------

TEST(WireFuzz, EveryFramePrefixWaitsForMoreBytes) {
  Rng rng(7);
  SchemaPtr schema = RandomSchema(&rng);
  const std::string frame = EncodeTupleFrame(RandomTuple(&rng, schema));
  for (size_t cut = 0; cut < frame.size(); ++cut) {
    FrameDecoder decoder;
    decoder.Feed(frame.data(), cut);
    uint8_t type = 0;
    std::string_view payload;
    auto next = decoder.Next(&type, &payload);
    ASSERT_TRUE(next.ok()) << "prefix of " << cut << " bytes errored: "
                           << next.status().ToString();
    EXPECT_FALSE(next.ValueOrDie()) << "prefix of " << cut
                                    << " bytes produced a frame";
  }
}

TEST(WireFuzz, TruncatedPayloadsReturnStatus) {
  Rng rng(11);
  SchemaPtr schema = RandomSchema(&rng);
  const std::string schema_payload = EncodeSchemaPayload(*schema);
  const std::string tuple_payload =
      EncodeTuplePayload(RandomTuple(&rng, schema));
  for (size_t cut = 0; cut < schema_payload.size(); ++cut) {
    auto result = DecodeSchemaPayload(schema_payload.substr(0, cut));
    EXPECT_FALSE(result.ok()) << "schema prefix " << cut << " accepted";
  }
  for (size_t cut = 0; cut < tuple_payload.size(); ++cut) {
    auto result = DecodeTuple(tuple_payload.substr(0, cut), schema);
    EXPECT_FALSE(result.ok()) << "tuple prefix " << cut << " accepted";
  }
}

// ---------------------------------------------------------------------
// Corruption: hostile headers and payloads are Status, never a crash.
// ---------------------------------------------------------------------

TEST(WireFuzz, OversizedFrameLengthRejectedBeforeAllocation) {
  std::string frame;
  frame.push_back(static_cast<char>(kFrameTuple));
  AppendVarint(kMaxFramePayload + 1, &frame);
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  EXPECT_FALSE(decoder.Next(&type, &payload).ok());
}

TEST(WireFuzz, OverlongFrameLengthVarintRejected) {
  std::string frame;
  frame.push_back(static_cast<char>(kFrameTuple));
  frame.append(9, static_cast<char>(0x80));
  frame.push_back(0x02);  // 10th byte overflows 64 bits
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  EXPECT_FALSE(decoder.Next(&type, &payload).ok());
}

TEST(WireFuzz, NonCanonicalFrameLengthVarintRejected) {
  // A payload length of 1 spelled as [0x81 0x00] instead of [0x01]:
  // the stream-level length field obeys the same canonicality rule as
  // every in-payload varint.
  std::string frame;
  frame.push_back(static_cast<char>(kFrameTuple));
  frame.push_back(static_cast<char>(0x81));
  frame.push_back(0x00);
  frame.push_back('x');  // the one payload byte the length promises
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  auto next = decoder.Next(&type, &payload);
  ASSERT_FALSE(next.ok());
  EXPECT_NE(next.status().ToString().find("non-canonical varint"),
            std::string::npos)
      << next.status().ToString();
}

TEST(WireFuzz, CorruptTuplePayloadsReturnStatus) {
  Rng rng(13);
  SchemaPtr schema = RandomSchema(&rng);
  const std::string good = EncodeTuplePayload(RandomTuple(&rng, schema));

  // Unknown value tag.
  {
    std::string bad = good;
    bad[8 * 3 + 2] = static_cast<char>(0xEE);  // first value's type tag area
    auto result = DecodeTuple(bad, schema);
    // Either a tag error or a downstream length error — must not crash
    // and must not silently succeed with different bytes unless the
    // mutation happened to hit a string byte. Round-trip what decodes.
    if (result.ok()) {
      EXPECT_EQ(EncodeTuplePayload(result.ValueOrDie()).size(), bad.size());
    }
  }
  // Value-count mismatch against the schema arity.
  {
    std::string bad;
    AppendFixed64(1, &bad);
    AppendFixed64(2, &bad);
    AppendFixed64(3, &bad);
    AppendVarint(ZigzagEncode(kNoSubstream), &bad);
    AppendVarint(schema->num_attributes() + 1, &bad);
    EXPECT_FALSE(DecodeTuple(bad, schema).ok());
  }
  // Bool byte out of domain.
  {
    std::string bad;
    AppendFixed64(1, &bad);
    AppendFixed64(2, &bad);
    AppendFixed64(3, &bad);
    AppendVarint(ZigzagEncode(0), &bad);
    AppendVarint(schema->num_attributes(), &bad);
    for (size_t i = 0; i < schema->num_attributes(); ++i) {
      bad.push_back(static_cast<char>(ValueType::kBool));
      bad.push_back(2);  // not 0/1
    }
    EXPECT_FALSE(DecodeTuple(bad, schema).ok());
  }
  // String length pointing past the payload end.
  {
    std::string bad;
    AppendFixed64(1, &bad);
    AppendFixed64(2, &bad);
    AppendFixed64(3, &bad);
    AppendVarint(ZigzagEncode(0), &bad);
    AppendVarint(schema->num_attributes(), &bad);
    bad.push_back(static_cast<char>(ValueType::kString));
    AppendVarint(1 << 30, &bad);
    EXPECT_FALSE(DecodeTuple(bad, schema).ok());
  }
  // Trailing garbage after a well-formed tuple.
  {
    std::string bad = good + "garbage";
    EXPECT_FALSE(DecodeTuple(bad, schema).ok());
  }
}

TEST(WireFuzz, CorruptSchemaPayloadsReturnStatus) {
  // Attribute count far beyond the payload.
  {
    std::string bad;
    AppendVarint(1u << 20, &bad);
    EXPECT_FALSE(DecodeSchemaPayload(bad).ok());
  }
  // Timestamp index out of range.
  {
    std::string bad;
    AppendVarint(1, &bad);
    AppendVarint(1, &bad);
    bad += "a";
    bad.push_back(static_cast<char>(ValueType::kInt64));
    AppendVarint(7, &bad);  // only one attribute
    EXPECT_FALSE(DecodeSchemaPayload(bad).ok());
  }
  // Unknown attribute type tag.
  {
    std::string bad;
    AppendVarint(1, &bad);
    AppendVarint(1, &bad);
    bad += "a";
    bad.push_back(99);
    AppendVarint(0, &bad);
    EXPECT_FALSE(DecodeSchemaPayload(bad).ok());
  }
  // Timestamp attribute of non-int64 type (Schema::Make's rule).
  {
    std::string bad;
    AppendVarint(1, &bad);
    AppendVarint(1, &bad);
    bad += "a";
    bad.push_back(static_cast<char>(ValueType::kString));
    AppendVarint(0, &bad);
    EXPECT_FALSE(DecodeSchemaPayload(bad).ok());
  }
  // Random byte soup: decoding must be total (error or schema, no crash).
  Rng rng(17);
  for (int i = 0; i < 200; ++i) {
    std::string soup;
    const int len = static_cast<int>(rng.UniformInt(0, 64));
    for (int j = 0; j < len; ++j) {
      soup.push_back(static_cast<char>(rng.UniformInt(0, 255)));
    }
    (void)DecodeSchemaPayload(soup);
    SchemaPtr schema = RandomSchema(&rng);
    (void)DecodeTuple(soup, schema);
  }
}

TEST(WireFuzz, EndPayloadRejectsTruncationAndTrailingBytes) {
  std::string good;
  AppendVarint(123456789, &good);
  auto total = DecodeEndPayload(good);
  ASSERT_TRUE(total.ok());
  EXPECT_EQ(total.ValueOrDie(), 123456789u);
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeEndPayload(good.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes accepted";
  }
  // Bytes after the total were silently ignored before the decoder
  // audit; they are a ParseError now, like every other frame type.
  EXPECT_FALSE(DecodeEndPayload(good + "x").ok());
  EXPECT_FALSE(DecodeEndPayload(std::string("\x80\x00", 2)).ok());
}

TEST(WireFuzz, CorruptBatchPayloadsReturnStatus) {
  auto schema =
      Schema::Make({{"ts", ValueType::kInt64}, {"v", ValueType::kInt64}},
                   "ts")
          .ValueOrDie();
  // Hand-built single-row payload so each strictness rule can be
  // violated in isolation. Layout: row_count, ids, event/arrival
  // times, substreams, column count, then per-column blobs of
  // [tag, validity bits, slots, divergent entries].
  auto make_payload = [&](const std::string& v_blob) {
    std::string payload;
    AppendVarint(1, &payload);                   // row_count
    AppendFixed64(7, &payload);                  // id
    AppendFixed64(100, &payload);                // event time
    AppendFixed64(200, &payload);                // arrival time
    AppendVarint(ZigzagEncode(kNoSubstream), &payload);
    AppendVarint(2, &payload);                   // column count
    std::string ts_blob;
    ts_blob.push_back(static_cast<char>(ValueType::kInt64));
    ts_blob.push_back(0x01);                     // row 0 valid
    AppendFixed64(100, &ts_blob);
    AppendVarint(0, &ts_blob);                   // no divergents
    AppendVarint(ts_blob.size(), &payload);
    payload += ts_blob;
    AppendVarint(v_blob.size(), &payload);
    payload += v_blob;
    return payload;
  };
  auto int64_blob = [](uint8_t vbits, int64_t slot) {
    std::string blob;
    blob.push_back(static_cast<char>(ValueType::kInt64));
    blob.push_back(static_cast<char>(vbits));
    AppendFixed64(static_cast<uint64_t>(slot), &blob);
    AppendVarint(0, &blob);
    return blob;
  };
  auto expect_error = [&](const std::string& payload, const char* needle) {
    auto result = DecodeBatchPayload(payload, schema);
    ASSERT_FALSE(result.ok()) << "expected '" << needle << "'";
    EXPECT_NE(result.status().ToString().find(needle), std::string::npos)
        << result.status().ToString();
  };

  // The well-formed baseline decodes and re-encodes byte-identically.
  const std::string good = make_payload(int64_blob(0x01, 42));
  {
    auto batch = DecodeBatchPayload(good, schema);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ(EncodeBatchPayload(batch.ValueOrDie()), good);
  }
  // Truncation: every proper prefix is an error, never an accept.
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeBatchPayload(good.substr(0, cut), schema).ok())
        << "prefix of " << cut << " bytes accepted";
  }
  // Trailing bytes after the last column blob.
  expect_error(good + "x", "trailing payload byte");
  // Row count beyond what the payload could hold, rejected before any
  // allocation.
  {
    std::string bad;
    AppendVarint(uint64_t{1} << 40, &bad);
    expect_error(bad, "row count exceeds payload");
  }
  // Column count disagreeing with the schema arity.
  {
    auto narrow = Schema::Make({{"ts", ValueType::kInt64}}, "ts").ValueOrDie();
    auto result = DecodeBatchPayload(good, narrow);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().ToString().find("columns"), std::string::npos);
  }
  // Column type tag disagreeing with the schema.
  {
    auto retyped =
        Schema::Make({{"ts", ValueType::kInt64}, {"v", ValueType::kDouble}},
                     "ts")
            .ValueOrDie();
    auto result = DecodeBatchPayload(good, retyped);
    ASSERT_FALSE(result.ok());
    EXPECT_NE(result.status().ToString().find("type tag"), std::string::npos);
  }
  // Validity bits set past the row count.
  expect_error(make_payload(int64_blob(0x02, 0)),
               "non-zero trailing validity bits");
  // A non-zero typed slot for a row marked invalid (two spellings of
  // the same logical column would otherwise round-trip differently).
  expect_error(make_payload(int64_blob(0x00, 42)),
               "non-zero slot for invalid row");
  // Divergent row index past the batch.
  {
    std::string blob = int64_blob(0x00, 0);
    blob.back() = 0x01;  // divergent count 1
    AppendVarint(5, &blob);
    blob.push_back(static_cast<char>(ValueType::kBool));
    blob.push_back(1);
    expect_error(make_payload(blob), "divergent row out of range");
  }
  // Divergent entry naming a row the validity bitmap already covers.
  {
    std::string blob = int64_blob(0x01, 42);
    blob.back() = 0x01;
    AppendVarint(0, &blob);
    blob.push_back(static_cast<char>(ValueType::kBool));
    blob.push_back(1);
    expect_error(make_payload(blob), "divergent entry for valid row");
  }
  // A "divergent" value of the column's own declared type.
  {
    std::string blob = int64_blob(0x00, 0);
    blob.back() = 0x01;
    AppendVarint(0, &blob);
    blob.push_back(static_cast<char>(ValueType::kInt64));
    AppendFixed64(9, &blob);
    expect_error(make_payload(blob), "does not diverge");
  }
  // Unconsumed bytes inside a column blob.
  {
    std::string blob = int64_blob(0x01, 42);
    blob.push_back('x');
    expect_error(make_payload(blob), "trailing payload byte");
  }
}

TEST(WireFuzz, MutatedBatchPayloadsRejectOrStayCanonical) {
  // Single-byte corruptions of a real batch payload must either fail
  // to decode or decode to a batch whose canonical re-encode is the
  // corrupted spelling itself — i.e. there is exactly one accepted
  // spelling per batch, so served frame bytes are reproducible.
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Rng rng(seed);
    SchemaPtr schema = RandomSchema(&rng);
    TupleVector tuples;
    const int rows = static_cast<int>(rng.UniformInt(1, 6));
    for (int i = 0; i < rows; ++i) {
      tuples.push_back(RandomTuple(&rng, schema));
    }
    auto batch = Batch::FromTuples(tuples);
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    const std::string payload = EncodeBatchPayload(batch.ValueOrDie());
    for (size_t pos = 0; pos < payload.size(); ++pos) {
      for (uint8_t flip : {uint8_t{0x01}, uint8_t{0xFF}}) {
        std::string mutated = payload;
        mutated[pos] = static_cast<char>(mutated[pos] ^ flip);
        auto decoded = DecodeBatchPayload(mutated, schema);
        if (decoded.ok()) {
          EXPECT_EQ(EncodeBatchPayload(decoded.ValueOrDie()), mutated)
              << "seed " << seed << " byte " << pos << " flip "
              << static_cast<int>(flip)
              << ": accepted a non-canonical spelling";
        }
      }
    }
  }
}

// ---------------------------------------------------------------------
// Subscribe hello (wire version 2)
// ---------------------------------------------------------------------

TEST(WireFrames, SubscribeRoundTrip) {
  for (const std::string& id :
       {std::string(""), std::string("alpha"),
        std::string("weird \xE2\x82\xAC id with spaces"),
        std::string(kMaxSessionIdBytes, 's')}) {
    const std::string frame = EncodeSubscribeFrame(kWireVersion, id);
    FrameDecoder decoder;
    decoder.Feed(frame.data(), frame.size());
    uint8_t type = 0;
    std::string_view payload;
    auto next = decoder.Next(&type, &payload);
    ASSERT_TRUE(next.ok());
    ASSERT_TRUE(next.ValueOrDie());
    EXPECT_EQ(type, kFrameSubscribe);
    auto request = DecodeSubscribePayload(payload);
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(request.ValueOrDie().version, kWireVersion);
    EXPECT_EQ(request.ValueOrDie().session_id, id);
  }
}

TEST(WireFrames, SubscribeRejectsOversizedSessionId) {
  const std::string payload = EncodeSubscribePayload(
      kWireVersion, std::string(kMaxSessionIdBytes + 1, 's'));
  auto request = DecodeSubscribePayload(payload);
  ASSERT_FALSE(request.ok());
  EXPECT_NE(request.status().ToString().find("exceeds limit"),
            std::string::npos)
      << request.status().ToString();
}

TEST(WireFrames, SubscribeRejectsTruncatedAndTrailingPayloads) {
  const std::string good = EncodeSubscribePayload(kWireVersion, "alpha");
  for (size_t cut = 0; cut < good.size(); ++cut) {
    EXPECT_FALSE(DecodeSubscribePayload(good.substr(0, cut)).ok())
        << "prefix of " << cut << " bytes accepted";
  }
  // A single trailing varint is the optional capabilities field, not
  // garbage: "x" (0x78) decodes as capabilities = 0x78.
  {
    auto request = DecodeSubscribePayload(good + "x");
    ASSERT_TRUE(request.ok()) << request.status().ToString();
    EXPECT_EQ(request.ValueOrDie().capabilities, 0x78u);
  }
  // Anything after the capabilities field is trailing garbage again.
  const std::string with_caps =
      EncodeSubscribePayload(kWireVersion, "alpha", kCapBatchFrames);
  EXPECT_FALSE(DecodeSubscribePayload(with_caps + "x").ok());
  // A truncated multi-byte capabilities varint is rejected, as is a
  // non-canonical one.
  EXPECT_FALSE(DecodeSubscribePayload(good + std::string("\x80", 1)).ok());
  EXPECT_FALSE(DecodeSubscribePayload(good + std::string("\x80\x00", 2)).ok());
}

TEST(WireFrames, SubscribeCapabilitiesRoundTrip) {
  // Default capabilities stay off the wire (old servers see old bytes).
  EXPECT_EQ(EncodeSubscribePayload(kWireVersion, "alpha"),
            EncodeSubscribePayload(kWireVersion, "alpha", 0));
  const std::string payload =
      EncodeSubscribePayload(kWireVersion, "alpha", kCapBatchFrames);
  auto request = DecodeSubscribePayload(payload);
  ASSERT_TRUE(request.ok()) << request.status().ToString();
  EXPECT_EQ(request.ValueOrDie().version, kWireVersion);
  EXPECT_EQ(request.ValueOrDie().session_id, "alpha");
  EXPECT_EQ(request.ValueOrDie().capabilities, kCapBatchFrames);
}

TEST(WireFrames, ErrorFrameCarriesMessage) {
  const std::string frame = EncodeErrorFrame("boom");
  FrameDecoder decoder;
  decoder.Feed(frame.data(), frame.size());
  uint8_t type = 0;
  std::string_view payload;
  auto next = decoder.Next(&type, &payload);
  ASSERT_TRUE(next.ok());
  ASSERT_TRUE(next.ValueOrDie());
  EXPECT_EQ(type, kFrameError);
  EXPECT_EQ(payload, "boom");
}

}  // namespace
}  // namespace net
}  // namespace icewafl
