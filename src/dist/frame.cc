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

namespace {

constexpr uint8_t kMinType = static_cast<uint8_t>(FrameType::kHello);
constexpr uint8_t kMaxType = static_cast<uint8_t>(FrameType::kShutdown);

// Every frame received whole passes this site.
Status FrameDecodeFailpoint() {
  if (WMS_FAILPOINT("dist:frame_decode") != failpoint::Action::kOff) {
    return Status::Corruption("injected frame decode failure");
  }
  return Status::OK();
}

}  // namespace

Status RecvFrame(int fd, Frame* frame) {
  net::TypedFrame typed;
  typed.payload = std::move(frame->payload);  // lend the kept buffer
  const Status st = net::RecvFrame(fd, kMinType, kMaxType, "dist:recv", &typed);
  frame->type = static_cast<FrameType>(typed.type);
  frame->payload = std::move(typed.payload);
  WMS_RETURN_NOT_OK(st);
  return FrameDecodeFailpoint();
}

Status TryDecodeFrame(std::string_view buf, FrameType* type, std::string_view* payload,
                      size_t* consumed) {
  uint8_t raw_type = 0;
  WMS_RETURN_NOT_OK(net::TryDecodeFrame(buf, kMinType, kMaxType, &raw_type, payload, consumed));
  if (*consumed == 0) return Status::OK();
  *type = static_cast<FrameType>(raw_type);
  return FrameDecodeFailpoint();
}

}  // namespace wmsketch::dist
