#include "dist/frame.h"

#include "net/wire.h"

namespace wmsketch::dist {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "hello";
    case FrameType::kHelloAck: return "hello-ack";
    case FrameType::kFullState: return "full-state";
    case FrameType::kDelta: return "delta";
    case FrameType::kAck: return "ack";
    case FrameType::kError: return "error";
    case FrameType::kFetchMerged: return "fetch-merged";
    case FrameType::kMergedState: return "merged-state";
    case FrameType::kShutdown: return "shutdown";
  }
  return "unknown";
}

Status SendFrame(int fd, FrameType type, std::string_view payload) {
  return net::SendFrame(fd, static_cast<uint8_t>(type), payload, "dist:send");
}

Status SendEncodedFrame(int fd, std::string_view frame) {
  return net::SendEncodedFrame(fd, frame, "dist:send");
}

}  // namespace wmsketch::dist
