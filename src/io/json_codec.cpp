#include "io/json_codec.hpp"

namespace wrsn::io {
namespace {

Json points_to_json(const std::vector<geom::Point>& points) {
  Json array = Json::array();
  for (const geom::Point& p : points) {
    array.push_back(Json(Json::Array{Json(p.x), Json(p.y)}));
  }
  return array;
}

geom::Point point_from_json(const Json& json) {
  const Json::Array& pair = json.as_array();
  if (pair.size() != 2) throw JsonError("a point must be a [x, y] pair");
  return {pair[0].as_double(), pair[1].as_double()};
}

const char* charging_kind_name(energy::ChargingKind kind) {
  switch (kind) {
    case energy::ChargingKind::Linear: return "linear";
    case energy::ChargingKind::SubLinear: return "sublinear";
    case energy::ChargingKind::Saturating: return "saturating";
  }
  throw JsonError("unknown charging kind");
}

}  // namespace

Json field_to_json(const geom::Field& field) {
  Json json = Json::object();
  json.set("width", Json(field.width));
  json.set("height", Json(field.height));
  json.set("base", Json(Json::Array{Json(field.base_station.x), Json(field.base_station.y)}));
  json.set("posts", points_to_json(field.posts));
  return json;
}

geom::Field field_from_json(const Json& json) {
  geom::Field field;
  field.width = json.at("width").as_double();
  field.height = json.at("height").as_double();
  field.base_station = point_from_json(json.at("base"));
  for (const Json& p : json.at("posts").as_array()) {
    field.posts.push_back(point_from_json(p));
  }
  return field;
}

Json radio_to_json(const energy::RadioModel& radio) {
  Json ranges = Json::array();
  for (int level = 0; level < radio.num_levels(); ++level) {
    ranges.push_back(Json(radio.range(level)));
  }
  Json json = Json::object();
  json.set("ranges", std::move(ranges));
  json.set("alpha", Json(radio.params().alpha));
  json.set("beta", Json(radio.params().beta));
  json.set("gamma", Json(radio.params().gamma));
  return json;
}

energy::RadioModel radio_from_json(const Json& json) {
  std::vector<double> ranges;
  for (const Json& r : json.at("ranges").as_array()) ranges.push_back(r.as_double());
  energy::RadioParams params;
  params.alpha = json.at("alpha").as_double();
  params.beta = json.at("beta").as_double();
  params.gamma = json.at("gamma").as_double();
  return energy::RadioModel::from_ranges(std::move(ranges), params);
}

Json charging_to_json(const energy::ChargingModel& charging) {
  Json json = Json::object();
  json.set("eta", Json(charging.eta()));
  json.set("kind", Json(charging_kind_name(charging.kind())));
  json.set("param", Json(charging.param()));
  return json;
}

energy::ChargingModel charging_from_json(const Json& json) {
  const double eta = json.at("eta").as_double();
  const std::string& kind = json.at("kind").as_string();
  const double param = json.contains("param") ? json.at("param").as_double() : 1.0;
  if (auto model = energy::charging_model_from_name(kind, eta, param)) return *model;
  throw JsonError("unknown charging kind '" + kind + "'");
}

Json instance_to_json(const core::Instance& instance) {
  if (!instance.field().has_value()) {
    throw JsonError("only geometric instances serialize to JSON (abstract "
                    "reachability-graph instances have no field)");
  }
  Json json = Json::object();
  json.set("format", Json("wrsn-instance v1"));
  json.set("field", field_to_json(*instance.field()));
  json.set("radio", radio_to_json(instance.radio()));
  json.set("charging", charging_to_json(instance.charging()));
  json.set("nodes", Json(instance.num_nodes()));
  if (!instance.uniform_workload()) {
    Json rates = Json::array();
    Json statics = Json::array();
    for (int p = 0; p < instance.num_posts(); ++p) {
      rates.push_back(Json(instance.report_rate(p)));
      statics.push_back(Json(instance.static_energy(p)));
    }
    Json workload = Json::object();
    workload.set("report_rates", std::move(rates));
    workload.set("static_energy", std::move(statics));
    json.set("workload", std::move(workload));
  }
  return json;
}

core::Instance instance_from_json(const Json& json) {
  if (const Json* format = json.find("format");
      format != nullptr && format->as_string() != "wrsn-instance v1") {
    throw JsonError("expected format 'wrsn-instance v1', got '" + format->as_string() + "'");
  }
  core::Workload workload;
  if (const Json* w = json.find("workload"); w != nullptr) {
    for (const Json& r : w->at("report_rates").as_array()) {
      workload.report_rates.push_back(r.as_double());
    }
    for (const Json& s : w->at("static_energy").as_array()) {
      workload.static_energy.push_back(s.as_double());
    }
  }
  return core::Instance::geometric(field_from_json(json.at("field")),
                                   radio_from_json(json.at("radio")),
                                   charging_from_json(json.at("charging")),
                                   json.at("nodes").as_int(), std::move(workload));
}

Json solution_to_json(const core::Solution& solution) {
  Json deployment = Json::array();
  for (const int m : solution.deployment) deployment.push_back(Json(m));
  Json parents = Json::array();
  for (int p = 0; p < solution.tree.num_posts(); ++p) {
    parents.push_back(Json(solution.tree.parent(p)));
  }
  Json json = Json::object();
  json.set("format", Json("wrsn-solution v1"));
  json.set("base_station", Json(solution.tree.base_station()));
  json.set("deployment", std::move(deployment));
  json.set("parents", std::move(parents));
  return json;
}

core::Solution solution_from_json(const Json& json) {
  if (const Json* format = json.find("format");
      format != nullptr && format->as_string() != "wrsn-solution v1") {
    throw JsonError("expected format 'wrsn-solution v1', got '" + format->as_string() + "'");
  }
  const Json::Array& parents = json.at("parents").as_array();
  const int num_posts = static_cast<int>(parents.size());
  graph::RoutingTree tree(num_posts, json.at("base_station").as_int());
  for (int p = 0; p < num_posts; ++p) {
    const int parent = parents[static_cast<std::size_t>(p)].as_int();
    if (parent != graph::RoutingTree::kNoParent) tree.set_parent(p, parent);
  }
  core::Solution solution{std::move(tree), {}};
  for (const Json& m : json.at("deployment").as_array()) {
    solution.deployment.push_back(m.as_int());
  }
  return solution;
}

Json placement_to_json(const core::PlacementResult& placement) {
  Json covered_by = Json::array();
  for (const int c : placement.covered_by) covered_by.push_back(Json(c));
  Json post_duty = Json::array();
  for (const double d : placement.post_duty) post_duty.push_back(Json(d));
  Json uncovered = Json::array();
  for (const int p : placement.uncovered) uncovered.push_back(Json(p));
  Json json = Json::object();
  json.set("format", Json("wrsn-placement v1"));
  json.set("chargers", points_to_json(placement.chargers));
  json.set("covered_by", std::move(covered_by));
  json.set("post_duty", std::move(post_duty));
  json.set("uncovered", std::move(uncovered));
  json.set("feasible", Json(placement.feasible));
  json.set("total_power_w", Json(placement.total_power_w));
  return json;
}

core::PlacementResult placement_from_json(const Json& json) {
  if (const Json* format = json.find("format");
      format != nullptr && format->as_string() != "wrsn-placement v1") {
    throw JsonError("expected format 'wrsn-placement v1', got '" + format->as_string() + "'");
  }
  core::PlacementResult placement;
  for (const Json& c : json.at("chargers").as_array()) {
    placement.chargers.push_back(point_from_json(c));
  }
  for (const Json& c : json.at("covered_by").as_array()) {
    placement.covered_by.push_back(c.as_int());
  }
  for (const Json& d : json.at("post_duty").as_array()) {
    placement.post_duty.push_back(d.as_double());
  }
  for (const Json& p : json.at("uncovered").as_array()) {
    placement.uncovered.push_back(p.as_int());
  }
  placement.feasible = json.at("feasible").as_bool();
  placement.total_power_w = json.at("total_power_w").as_double();
  return placement;
}

}  // namespace wrsn::io
