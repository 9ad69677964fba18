#include "net/client.h"

#include <utility>

namespace wmsketch::net {

namespace {

/// What a serving client accepts, and its receive site.
constexpr FrameRules kReplyRules{kMinMsgType, kMaxMsgType,
                                 static_cast<uint8_t>(MsgType::kErrorResponse),
                                 "net:client_recv"};

}  // namespace

Result<ServingClient> ServingClient::ConnectUnix(const std::string& path,
                                                 int io_timeout_ms) {
  WMS_ASSIGN_OR_RETURN(UniqueFd fd, DialUnix(path, io_timeout_ms));
  return ServingClient(std::move(fd));
}

Result<ServingClient> ServingClient::ConnectTcp(const std::string& host, int port,
                                                int io_timeout_ms) {
  WMS_ASSIGN_OR_RETURN(UniqueFd fd, DialTcp(host, port, io_timeout_ms));
  return ServingClient(std::move(fd));
}

ServingClient::ServingClient(UniqueFd fd) : fd_(std::move(fd)), inbox_(kReplyRules) {}

Result<std::string_view> ServingClient::Call(MsgType request, std::string_view payload,
                                             MsgType expected_response) {
  if (fd_.get() < 0) return Status::FailedPrecondition("client not connected");
  WMS_RETURN_NOT_OK(SendFrame(fd_.get(), static_cast<uint8_t>(request), payload,
                              "net:client_send"));
  return inbox_.RecvReply(fd_.get(), static_cast<uint8_t>(expected_response));
}

Result<PredictResponse> ServingClient::Predict(std::span<const Example> batch) {
  PredictRequest req;
  req.examples.assign(batch.begin(), batch.end());
  WMS_ASSIGN_OR_RETURN(const std::string_view reply,
                       Call(MsgType::kPredictRequest, EncodePredictRequest(req),
                            MsgType::kPredictResponse));
  return DecodePredictResponse(reply);
}

Result<EstimateResponse> ServingClient::Estimate(std::span<const uint32_t> features) {
  EstimateRequest req;
  req.features.assign(features.begin(), features.end());
  WMS_ASSIGN_OR_RETURN(const std::string_view reply,
                       Call(MsgType::kEstimateRequest, EncodeEstimateRequest(req),
                            MsgType::kEstimateResponse));
  return DecodeEstimateResponse(reply);
}

Result<TopKResponse> ServingClient::TopK(uint32_t k) {
  TopKRequest req;
  req.k = k;
  WMS_ASSIGN_OR_RETURN(const std::string_view reply,
                       Call(MsgType::kTopKRequest, EncodeTopKRequest(req),
                            MsgType::kTopKResponse));
  return DecodeTopKResponse(reply);
}

Result<ModelInfoResponse> ServingClient::ModelInfo() {
  WMS_ASSIGN_OR_RETURN(const std::string_view reply,
                       Call(MsgType::kModelInfoRequest, {}, MsgType::kModelInfoResponse));
  return DecodeModelInfoResponse(reply);
}

Status ServingClient::Shutdown() {
  return Call(MsgType::kShutdownRequest, {}, MsgType::kShutdownAck).status();
}

}  // namespace wmsketch::net
