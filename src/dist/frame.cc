#include "dist/frame.h"

#include "net/wire.h"
#include "util/failpoint.h"

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

Result<Frame> RecvFrame(int fd) {
  Frame frame;
  WMS_RETURN_NOT_OK(RecvFrame(fd, &frame));
  return frame;
}

Status RecvFrame(int fd, Frame* frame) {
  net::TypedFrame typed;
  typed.payload = std::move(frame->payload);  // lend the kept buffer
  const Status st = net::RecvFrame(fd, static_cast<uint8_t>(FrameType::kHello),
                                   static_cast<uint8_t>(FrameType::kShutdown), "dist:recv",
                                   &typed);
  frame->type = static_cast<FrameType>(typed.type);
  frame->payload = std::move(typed.payload);
  WMS_RETURN_NOT_OK(st);
  if (WMS_FAILPOINT("dist:frame_decode") != failpoint::Action::kOff) {
    return Status::Corruption("injected frame decode failure");
  }
  return Status::OK();
}

}  // namespace wmsketch::dist
