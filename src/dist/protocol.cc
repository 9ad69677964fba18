#include "dist/protocol.h"

#include "core/snapshot_io.h"

namespace wmsketch::dist {

namespace {

using snapshot::SnapshotReader;
using snapshot::WriteRaw;

}  // namespace

std::string EncodeHello(const HelloPayload& hello) {
  std::string out;
  WriteRaw(out, hello.protocol_version);
  WriteRaw(out, hello.worker_id);
  WriteRaw(out, hello.session_token);
  WriteRaw(out, hello.acked_sync_seq);
  EncodeMergeIdentity(hello.identity, &out);
  return out;
}

Result<HelloPayload> DecodeHello(std::string_view payload) {
  SnapshotReader in(payload);
  HelloPayload hello;
  if (!in.ReadRaw(&hello.protocol_version) || !in.ReadRaw(&hello.worker_id) ||
      !in.ReadRaw(&hello.session_token) || !in.ReadRaw(&hello.acked_sync_seq)) {
    return Status::Corruption("truncated hello payload");
  }
  if (hello.protocol_version != kProtocolVersion) {
    return Status::InvalidArgument("unsupported protocol version " +
                                   std::to_string(hello.protocol_version));
  }
  if (hello.worker_id == 0) return Status::InvalidArgument("worker id must be nonzero");
  WMS_ASSIGN_OR_RETURN(hello.identity, DecodeMergeIdentity(in));
  return hello;
}

std::string EncodeHelloAck(const HelloAckPayload& ack) {
  std::string out;
  WriteRaw(out, ack.session_token);
  WriteRaw(out, ack.resume_ok);
  WriteRaw(out, ack.next_sync_seq);
  return out;
}

Result<HelloAckPayload> DecodeHelloAck(std::string_view payload) {
  SnapshotReader in(payload);
  HelloAckPayload ack;
  if (!in.ReadRaw(&ack.session_token) || !in.ReadRaw(&ack.resume_ok) ||
      !in.ReadRaw(&ack.next_sync_seq)) {
    return Status::Corruption("truncated hello-ack payload");
  }
  return ack;
}

void EncodeSyncHeader(const SyncHeader& header, std::string* out) {
  WriteRaw(*out, header.worker_id);
  WriteRaw(*out, header.session_token);
  WriteRaw(*out, header.sync_seq);
}

Result<SyncHeader> DecodeSyncHeader(std::string_view payload, std::string_view* body) {
  constexpr size_t kHeaderBytes = 3 * sizeof(uint64_t);
  SnapshotReader in(payload);
  SyncHeader header;
  if (!in.ReadRaw(&header.worker_id) || !in.ReadRaw(&header.session_token) ||
      !in.ReadRaw(&header.sync_seq)) {
    return Status::Corruption("truncated sync header");
  }
  *body = payload.substr(kHeaderBytes);
  return header;
}

void EncodeAck(const AckPayload& ack, std::string* out) { WriteRaw(*out, ack.sync_seq); }

Result<AckPayload> DecodeAck(std::string_view payload) {
  SnapshotReader in(payload);
  AckPayload ack;
  if (!in.ReadRaw(&ack.sync_seq)) return Status::Corruption("truncated ack payload");
  return ack;
}

}  // namespace wmsketch::dist
