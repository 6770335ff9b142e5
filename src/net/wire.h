#ifndef ICEWAFL_NET_WIRE_H_
#define ICEWAFL_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "stream/batch.h"
#include "stream/schema.h"
#include "stream/tuple.h"
#include "util/result.h"

namespace icewafl {
namespace net {

/// \file
/// Length-prefixed binary wire format of the serving subsystem
/// (DESIGN.md section 9). A connection carries a sequence of frames:
///
///   frame   := type:u8  payload_len:varint  payload:u8[payload_len]
///   varint  := LEB128 (7 bits per byte, LSB group first, high bit =
///              continuation; at most 10 bytes)
///
/// Numerics are explicit little-endian regardless of host order: int64
/// as 8-byte two's complement, double as the 8-byte IEEE-754 bit
/// pattern — NaN payloads and signed zeros round-trip bit-exactly.
/// Decoding is total: truncated input reports "need more bytes",
/// corrupt input (bad tags, overlong varints, oversized or
/// under-consumed payloads) returns a Status — never UB, never a
/// crash.

/// \brief Frame type tags. Values are part of the wire contract.
enum FrameType : uint8_t {
  kFrameSchema = 0x01,     ///< handshake: the stream's schema
  kFrameTuple = 0x02,      ///< one stream element
  kFrameEnd = 0x03,        ///< graceful end of stream (payload: total count)
  kFrameError = 0x04,      ///< server-side failure (payload: UTF-8 message)
  kFrameSubscribe = 0x05,  ///< client hello: wire version + session id
  kFrameBatch = 0x06,      ///< columnar micro-batch (capability-gated)
  /// Admin-channel request (payload: one UTF-8 JSON object with "id",
  /// "method", "params"). Only spoken on the separate admin port —
  /// the streaming port rejects it like any non-Subscribe hello.
  kFrameAdminRequest = 0x07,
  /// Admin-channel response (payload: one UTF-8 JSON object with "id"
  /// and either "result" or "error").
  kFrameAdminResponse = 0x08,
};

/// \brief Capability bits a client advertises in its Subscribe hello.
/// The server only sends a gated frame type to subscribers that set the
/// matching bit; everyone else keeps receiving per-tuple frames, so a
/// capability-oblivious client never sees a frame it cannot parse.
constexpr uint64_t kCapBatchFrames = 1;  ///< client decodes Batch frames

/// \brief Wire protocol version. Bumped to 2 when the client-side
/// Subscribe hello frame became mandatory (a v1 client that waits
/// silently for a Schema frame is answered with an Error frame, which
/// its FrameDecoder already understands — the failure mode is a clean
/// error message, not a hang or a parse crash).
constexpr uint64_t kWireVersion = 2;

/// \brief Upper bound on a frame payload; decode rejects larger length
/// prefixes before allocating (a corrupt length must not OOM the peer).
constexpr uint64_t kMaxFramePayload = 16ull << 20;  // 16 MiB

/// \brief Upper bound on a session id on the wire (also enforced by
/// lint as IW607 before a config ever reaches the server).
constexpr uint64_t kMaxSessionIdBytes = 256;

/// \brief Payload cap of the server's handshake decoder. The largest
/// valid Subscribe hello (two 10-byte varints, a 2-byte id length and a
/// kMaxSessionIdBytes id) is under 300 bytes, so an unauthenticated
/// peer cannot make the server buffer more than this per connection.
constexpr uint64_t kMaxHelloPayload = 1024;

// ---------------------------------------------------------------------
// Primitives
// ---------------------------------------------------------------------

/// \brief Appends `v` as a LEB128 varint.
void AppendVarint(uint64_t v, std::string* out);

/// \brief Appends `v` as 8 bytes little-endian.
void AppendFixed64(uint64_t v, std::string* out);

/// \brief Zigzag mapping for signed varints (small magnitudes of either
/// sign stay short).
inline uint64_t ZigzagEncode(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^ static_cast<uint64_t>(v >> 63);
}
inline int64_t ZigzagDecode(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

/// \brief Bounds-checked cursor over one frame payload.
///
/// Every accessor returns false instead of reading past the end and
/// writes its result through an out-parameter, so decoders chain reads
/// with `&&` and build a Status only on the error path. The first
/// failure is sticky: it records a static message and empties the rest
/// of the input, so every later read fails as well. status() and
/// ExpectEnd() turn the recorded message into a ParseError.
class ByteReader {
 public:
  ByteReader() = default;
  ByteReader(const void* data, size_t size)
      : data_(static_cast<const uint8_t*>(data)), size_(size) {}
  explicit ByteReader(std::string_view buf)
      : ByteReader(buf.data(), buf.size()) {}

  size_t remaining() const { return size_ - pos_; }
  bool ok() const { return error_ == nullptr; }

  bool U8(uint8_t* out);
  bool Fixed64(uint64_t* out);
  bool Varint(uint64_t* out);
  /// \brief Views the next `n` bytes; the view aliases the payload.
  bool Bytes(size_t n, std::string_view* out);
  /// \brief Copies `n` raw bytes into `dst` (bulk fixed-width arrays).
  bool ReadRaw(void* dst, size_t n);
  /// \brief Splits off a bounds-checked reader over the next `n` bytes
  /// and advances past them (length-prefixed sub-blobs).
  bool SubReader(size_t n, ByteReader* out);
  /// \brief Records `message` (a string literal) unless an earlier
  /// failure is already recorded. Always returns false.
  bool Fail(const char* message);

  /// \brief OK, or the first failure as a ParseError.
  Status status() const;
  /// \brief status(), else an error unless the payload was consumed
  /// exactly.
  Status ExpectEnd() const;

 private:
  const uint8_t* data_ = nullptr;
  size_t size_ = 0;
  size_t pos_ = 0;
  const char* error_ = nullptr;
};

// ---------------------------------------------------------------------
// Frame encoding
// ---------------------------------------------------------------------

/// \brief Appends one complete frame (type + length prefix + payload).
void AppendFrame(uint8_t type, std::string_view payload, std::string* out);

/// \brief Appends one complete Tuple frame to `out` in a single pass:
/// the frame is sized once and header and payload are written in place
/// (no intermediate payload string). Appending many tuples to one
/// buffer yields their frames back to back, byte-identical to
/// concatenated EncodeTupleFrame results.
void AppendTupleFrame(const Tuple& tuple, std::string* out);

/// \brief Schema payload: attr_count:varint, then per attribute
/// name_len:varint name:bytes type:u8, then timestamp_index:varint.
std::string EncodeSchemaPayload(const Schema& schema);

/// \brief Tuple payload: id:fixed64, event_time:fixed64,
/// arrival_time:fixed64, substream:zigzag-varint, value_count:varint,
/// then per value type:u8 + type-specific payload (bool u8, int64
/// fixed64, double IEEE bits fixed64, string varint-length + bytes;
/// null has no payload).
std::string EncodeTuplePayload(const Tuple& tuple);

/// \brief End payload: total tuples sent in this stream, as a varint.
std::string EncodeEndPayload(uint64_t total_tuples);

/// \brief Batch payload (DESIGN.md section 13): row_count:varint, then
/// the per-row metadata arrays column-major (ids, event_times,
/// arrival_times each row_count × fixed64; substreams as row_count
/// zigzag-varints), then column_count:varint and per attribute one
/// length-prefixed column blob:
///
///   blob     := blob_len:varint  declared_type:u8  validity  values
///               divergent_count:varint  divergent*
///   validity := ceil(row_count/8) bytes, LSB-first (bit set = typed
///               slot holds the value; trailing bits must be zero)
///   values   := bool: row_count bytes · int64/double: row_count ×
///               fixed64 (invalid slots all-zero) · string: one
///               varint-length + bytes per *valid* row, ascending ·
///               null-typed column: nothing
///   divergent:= row:varint + self-describing value (as in the tuple
///               frame) for each non-null value whose runtime type
///               differs from the declared column type, rows strictly
///               ascending
///
/// Encoding serializes straight from the column buffers — one memcpy
/// per fixed-width column, no per-tuple framing.
std::string EncodeBatchPayload(const Batch& batch);

/// \brief Subscribe payload: version:varint, id_len:varint, id:bytes,
/// then optionally capabilities:varint (absent on the wire when zero,
/// so a capability-less hello is byte-identical to the v2 form).
/// An empty id means "the server's sole session" (convenience for
/// single-session deployments; a multi-session server rejects it).
std::string EncodeSubscribePayload(uint64_t version,
                                   const std::string& session_id,
                                   uint64_t capabilities = 0);

/// Convenience: full frames, ready to write to a socket.
std::string EncodeSchemaFrame(const Schema& schema);
std::string EncodeTupleFrame(const Tuple& tuple);
std::string EncodeBatchFrame(const Batch& batch);
std::string EncodeEndFrame(uint64_t total_tuples);
std::string EncodeErrorFrame(const std::string& message);
std::string EncodeSubscribeFrame(uint64_t version,
                                 const std::string& session_id,
                                 uint64_t capabilities = 0);

// ---------------------------------------------------------------------
// Frame decoding
// ---------------------------------------------------------------------

/// \brief Validates and decodes a schema payload.
Result<SchemaPtr> DecodeSchemaPayload(std::string_view payload);

/// \brief Validates and decodes a tuple payload against `schema` into
/// `*out` (the value count must match the schema arity; value types
/// are self-describing, since polluters may NULL any attribute).
///
/// Decodes in place: `*out`'s value vector and string buffers are
/// reused, and its schema pointer is re-seated only when it differs
/// from `schema`, so a client decoding every frame into one Tuple
/// allocates nothing per frame. `*out` may be default-constructed or
/// moved-from. On error `*out` is valid but unspecified.
Status DecodeTuplePayload(std::string_view payload, const SchemaPtr& schema,
                          Tuple* out);

/// \brief Validates and decodes a batch payload against `schema`. The
/// column count and declared column types must match the schema, and
/// the decode is strict: zero padding in invalid fixed-width slots,
/// zero trailing validity bits, strictly ascending divergent rows whose
/// validity bit is clear and whose value type actually diverges —
/// anything else is a ParseError, so served batch bytes have exactly
/// one accepted spelling.
Result<Batch> DecodeBatchPayload(std::string_view payload,
                                 const SchemaPtr& schema);

/// \brief Decodes the total-count payload of an End frame.
Result<uint64_t> DecodeEndPayload(std::string_view payload);

/// \brief Decoded Subscribe hello.
struct SubscribeRequest {
  uint64_t version = 0;
  std::string session_id;
  uint64_t capabilities = 0;  ///< kCap* bits; unknown bits are ignored
};

/// \brief Decodes a Subscribe payload. Rejects ids longer than
/// kMaxSessionIdBytes; version compatibility is the server's call.
Result<SubscribeRequest> DecodeSubscribePayload(std::string_view payload);

/// \brief Incremental frame splitter over a byte stream.
///
/// Feed() appends raw received bytes; Next() extracts the next complete
/// frame. A partial frame is not an error — Next() returns false until
/// the rest arrives — but a malformed header (overlong varint, payload
/// length above the decoder's cap) is a Status, because no amount of
/// further input can repair it.
class FrameDecoder {
 public:
  /// \param max_payload largest accepted payload length; a larger
  /// length prefix is an error as soon as the prefix is read, before
  /// any of the payload is buffered.
  explicit FrameDecoder(uint64_t max_payload = kMaxFramePayload)
      : max_payload_(max_payload) {}

  void Feed(const void* data, size_t n);

  /// \return true and fills `*type` / `*payload` when a complete frame
  /// was extracted; false when more bytes are needed. `*payload` views
  /// the decoder's buffer and stays valid until the next Feed(); a
  /// caller that keeps the bytes longer copies them.
  Result<bool> Next(uint8_t* type, std::string_view* payload);

  size_t buffered() const { return buffer_.size() - consumed_; }

 private:
  uint64_t max_payload_;
  std::string buffer_;
  size_t consumed_ = 0;
};

}  // namespace net
}  // namespace icewafl

#endif  // ICEWAFL_NET_WIRE_H_
