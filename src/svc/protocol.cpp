#include "svc/protocol.hpp"

#include <stdexcept>

#include "energy/charging_model.hpp"
#include "exp/spec.hpp"

namespace wrsn::svc {

const char* error_code_name(ErrorCode code) {
  switch (code) {
    case ErrorCode::kBadFrame: return "bad-frame";
    case ErrorCode::kBadRequest: return "bad-request";
    case ErrorCode::kUnknownMethod: return "unknown-method";
    case ErrorCode::kBadParams: return "bad-params";
    case ErrorCode::kSolverReject: return "solver-reject";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kOverloaded: return "overloaded";
    case ErrorCode::kShuttingDown: return "shutting-down";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

namespace {

io::Json envelope(std::int64_t id) {
  io::Json frame = io::Json::object();
  frame.set("rpc", io::Json(kRpcName));
  frame.set("v", io::Json(kRpcVersion));
  frame.set("id", io::Json(id));
  return frame;
}

}  // namespace

bool parse_request(const io::Json& frame, Request* out, std::string* error) {
  const auto fail = [&](const char* why) {
    if (error != nullptr) *error = why;
    return false;
  };
  if (!frame.is_object()) return fail("request frame is not a JSON object");
  const io::Json* rpc = frame.find("rpc");
  if (rpc == nullptr || !rpc->is_string() || rpc->as_string() != kRpcName) {
    return fail("missing or wrong \"rpc\" (expected \"wrsn-rpc\")");
  }
  const io::Json* version = frame.find("v");
  if (version == nullptr || !version->is_number() || version->as_int() != kRpcVersion) {
    return fail("missing or unsupported \"v\" (this server speaks v1)");
  }
  const io::Json* id = frame.find("id");
  if (id == nullptr || !id->is_number()) return fail("missing or non-numeric \"id\"");
  const io::Json* method = frame.find("method");
  if (method == nullptr || !method->is_string() || method->as_string().empty()) {
    return fail("missing \"method\"");
  }
  Request request;
  try {
    request.id = id->as_int64();
  } catch (const io::JsonError&) {
    return fail("\"id\" is not a 64-bit integer");
  }
  request.method = method->as_string();
  if (const io::Json* deadline = frame.find("deadline_s"); deadline != nullptr) {
    if (!deadline->is_number()) return fail("\"deadline_s\" is not a number");
    request.deadline_s = deadline->as_double();
    if (request.deadline_s < 0.0) return fail("\"deadline_s\" is negative");
  }
  if (const io::Json* progress = frame.find("progress_s"); progress != nullptr) {
    if (!progress->is_number()) return fail("\"progress_s\" is not a number");
    request.progress_s = progress->as_double();
    if (request.progress_s < 0.0) return fail("\"progress_s\" is negative");
  }
  if (const io::Json* params = frame.find("params"); params != nullptr) {
    if (!params->is_object()) return fail("\"params\" is not an object");
    request.params = *params;
  } else {
    request.params = io::Json::object();
  }
  if (out != nullptr) *out = std::move(request);
  return true;
}

io::Json make_response(std::int64_t id, io::Json result) {
  io::Json frame = envelope(id);
  frame.set("ok", io::Json(true));
  frame.set("result", std::move(result));
  return frame;
}

io::Json make_error(std::int64_t id, ErrorCode code, const std::string& message) {
  io::Json frame = envelope(id);
  frame.set("ok", io::Json(false));
  io::Json error = io::Json::object();
  error.set("code", io::Json(error_code_name(code)));
  error.set("message", io::Json(message));
  frame.set("error", std::move(error));
  return frame;
}

io::Json make_event(std::int64_t id, const std::string& event, io::Json data) {
  io::Json frame = envelope(id);
  frame.set("event", io::Json(event));
  frame.set("data", std::move(data));
  return frame;
}

bool is_event_frame(const io::Json& frame) {
  return frame.is_object() && frame.contains("event");
}

io::Json Scenario::to_canonical_json() const {
  io::Json json = io::Json::object();
  json.set("posts", io::Json(posts));
  json.set("nodes", io::Json(nodes));
  json.set("side", io::Json(side));
  json.set("seed", io::Json(seed));
  json.set("levels", io::Json(levels));
  json.set("range_step", io::Json(range_step));
  json.set("eta", io::Json(eta));
  io::Json charging = io::Json::object();
  charging.set("kind", io::Json(charging_kind));
  charging.set("param", io::Json(charging_param));
  json.set("charging", std::move(charging));
  return json;
}

std::uint64_t Scenario::fingerprint() const {
  return exp::fingerprint_text(to_canonical_json().dump());
}

std::string Scenario::fingerprint_hex() const {
  return exp::SweepSpec::fingerprint_hex(fingerprint());
}

Scenario Scenario::from_json(const io::Json& json) {
  if (!json.is_object()) throw std::invalid_argument("scenario block must be an object");
  Scenario scenario;
  if (const io::Json* v = json.find("posts")) scenario.posts = v->as_int();
  if (const io::Json* v = json.find("nodes")) scenario.nodes = v->as_int();
  if (const io::Json* v = json.find("side")) scenario.side = v->as_double();
  if (const io::Json* v = json.find("seed")) scenario.seed = v->as_int64();
  if (const io::Json* v = json.find("levels")) scenario.levels = v->as_int();
  if (const io::Json* v = json.find("range_step")) scenario.range_step = v->as_double();
  if (const io::Json* v = json.find("eta")) scenario.eta = v->as_double();
  if (const io::Json* charging = json.find("charging")) {
    if (!charging->is_object()) throw std::invalid_argument("scenario \"charging\" must be an object");
    if (const io::Json* v = charging->find("kind")) scenario.charging_kind = v->as_string();
    if (const io::Json* v = charging->find("param")) scenario.charging_param = v->as_double();
  }
  for (const auto& [key, value] : json.as_object()) {
    (void)value;
    if (key != "posts" && key != "nodes" && key != "side" && key != "seed" &&
        key != "levels" && key != "range_step" && key != "eta" && key != "charging") {
      throw std::invalid_argument("unknown scenario key '" + key + "'");
    }
  }
  if (scenario.posts < 1) throw std::invalid_argument("scenario posts must be >= 1");
  if (scenario.nodes < scenario.posts) {
    throw std::invalid_argument("scenario nodes must be >= posts");
  }
  if (scenario.side <= 0.0) throw std::invalid_argument("scenario side must be > 0");
  if (scenario.levels < 1) throw std::invalid_argument("scenario levels must be >= 1");
  if (scenario.range_step <= 0.0) throw std::invalid_argument("scenario range_step must be > 0");
  if (scenario.eta <= 0.0) throw std::invalid_argument("scenario eta must be > 0");
  if (!energy::charging_kind_from_name(scenario.charging_kind).has_value()) {
    throw std::invalid_argument("scenario charging kind must be linear|sublinear|saturating");
  }
  return scenario;
}

}  // namespace wrsn::svc
