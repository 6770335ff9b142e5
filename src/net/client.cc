#include "net/client.h"

#include <sys/socket.h>

#include <cerrno>
#include <cstring>

namespace icewafl {
namespace net {

namespace {

std::string ContextOf(const std::string& session_id, const std::string& peer) {
  if (session_id.empty()) return "peer " + peer;
  return "session '" + session_id + "' at " + peer;
}

/// Writes the whole buffer (the socket is blocking at this point).
Status SendAll(int fd, const std::string& bytes) {
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + off, bytes.size() - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return Status::IOError("send: " + ErrnoMessage(errno));
  }
  return Status::OK();
}

}  // namespace

std::string StreamClient::Context() const {
  return ContextOf(session_id_, peer_);
}

Status StreamClient::Fail(const Status& status) {
  error_ = Status(status.code(), Context() + ": " + status.message());
  fd_.Reset();
  return error_;
}

Status StreamClient::ReadFrame(int fd, FrameDecoder* decoder, uint8_t* type,
                               std::string_view* payload) {
  char buf[64 * 1024];
  while (true) {
    ICEWAFL_ASSIGN_OR_RETURN(const bool have, decoder->Next(type, payload));
    if (have) return Status::OK();
    const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
    if (n == 0) {
      return Status::IOError("connection closed mid-stream (" +
                             std::to_string(decoder->buffered()) +
                             " bytes of partial frame buffered)");
    }
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("recv: " + ErrnoMessage(errno));
    }
    decoder->Feed(buf, static_cast<size_t>(n));
  }
}

Result<std::unique_ptr<StreamClient>> StreamClient::Connect(
    const std::string& host, uint16_t port, const std::string& session_id,
    uint64_t capabilities) {
  const std::string peer = host + ":" + std::to_string(port);
  const std::string context = ContextOf(session_id, peer);
  ICEWAFL_ASSIGN_OR_RETURN(UniqueFd fd, ConnectTcp(host, port));
  // Hello: the client speaks first, naming the session it wants and
  // the optional frame capabilities it can consume.
  ICEWAFL_RETURN_NOT_OK(SendAll(
      fd.get(), EncodeSubscribeFrame(kWireVersion, session_id, capabilities)));
  // Handshake: the server answers with the session's schema.
  FrameDecoder decoder;
  uint8_t type = 0;
  std::string_view payload;
  ICEWAFL_RETURN_NOT_OK(ReadFrame(fd.get(), &decoder, &type, &payload));
  if (type == kFrameError) {
    return Status::IOError(context + ": server error during handshake: " +
                           std::string(payload));
  }
  if (type != kFrameSchema) {
    return Status::ParseError(
        context + ": expected Schema frame in handshake, got type " +
        std::to_string(static_cast<int>(type)));
  }
  ICEWAFL_ASSIGN_OR_RETURN(SchemaPtr schema, DecodeSchemaPayload(payload));
  auto client = std::unique_ptr<StreamClient>(new StreamClient(
      std::move(fd), std::move(schema), session_id, peer));
  client->decoder_ = std::move(decoder);  // may hold early tuple bytes
  client->capabilities_ = capabilities;
  return client;
}

Result<bool> StreamClient::Next(Tuple* out) {
  // Rows unpacked from an earlier Batch frame are served first; the
  // socket is only read again once they are exhausted.
  if (!pending_.empty()) {
    *out = std::move(pending_.front());
    pending_.pop_front();
    ++tuples_received_;
    return true;
  }
  if (!error_.ok()) return error_;
  if (finished_) return false;
  while (true) {
    uint8_t type = 0;
    std::string_view payload;
    // Attribute every failure: a bare "connection closed mid-stream" is
    // useless when one process tails many sessions.
    Status read = ReadFrame(fd_.get(), &decoder_, &type, &payload);
    if (!read.ok()) return Fail(read);
    switch (type) {
      case kFrameTuple: {
        Status decoded = DecodeTuplePayload(payload, schema_, out);
        if (!decoded.ok()) return Fail(decoded);
        ++tuples_received_;
        return true;
      }
      case kFrameBatch: {
        if ((capabilities_ & kCapBatchFrames) == 0) {
          return Fail(Status::ParseError(
              "server sent a Batch frame this client did not negotiate"));
        }
        Result<Batch> batch = DecodeBatchPayload(payload, schema_);
        if (!batch.ok()) return Fail(batch.status());
        TupleVector rows = batch.ValueOrDie().ToTuples();
        for (Tuple& t : rows) pending_.push_back(std::move(t));
        if (pending_.empty()) continue;  // tolerate an empty batch
        *out = std::move(pending_.front());
        pending_.pop_front();
        ++tuples_received_;
        return true;
      }
      case kFrameEnd: {
        Result<uint64_t> total = DecodeEndPayload(payload);
        if (!total.ok()) return Fail(total.status());
        reported_total_ = total.ValueOrDie();
        if (reported_total_ != tuples_received_) {
          return Fail(Status::IOError(
              "stream ended after " + std::to_string(tuples_received_) +
              " tuples but the server reported " +
              std::to_string(reported_total_)));
        }
        finished_ = true;
        fd_.Reset();
        return false;
      }
      case kFrameError:
        return Fail(Status::IOError("server error: " + std::string(payload)));
      case kFrameSchema:
        return Fail(Status::ParseError("unexpected mid-stream Schema frame"));
      default:
        return Fail(Status::ParseError("unknown frame type " +
                                       std::to_string(static_cast<int>(type))));
    }
  }
}

}  // namespace net
}  // namespace icewafl
