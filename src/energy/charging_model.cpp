#include "energy/charging_model.hpp"

#include <cmath>

namespace wrsn::energy {

ChargingModel::ChargingModel(double eta, ChargingKind kind, double param)
    : eta_(eta), kind_(kind), param_(param) {
  if (!(eta > 0.0) || !(eta < 1.0)) {
    throw std::invalid_argument("charging efficiency eta must be in (0, 1)");
  }
  if (kind == ChargingKind::SubLinear && (param <= 0.0 || param > 1.0)) {
    throw std::invalid_argument("sub-linear exponent must be in (0, 1]");
  }
  if (kind == ChargingKind::Saturating && param < 1.0) {
    throw std::invalid_argument("saturating cap must be >= 1");
  }
}

double ChargingModel::gain(int m) const {
  if (m < 1) throw std::invalid_argument("a post always holds at least one node");
  switch (kind_) {
    case ChargingKind::Linear:
      return static_cast<double>(m);
    case ChargingKind::SubLinear:
      return std::pow(static_cast<double>(m), param_);
    case ChargingKind::Saturating: {
      // k(1) = 1 and k(m) -> cap monotonically.
      const double cap = param_;
      return cap * (1.0 - std::pow(1.0 - 1.0 / cap, static_cast<double>(m)));
    }
  }
  return static_cast<double>(m);
}

std::optional<ChargingKind> charging_kind_from_name(std::string_view name) {
  if (name == "linear") return ChargingKind::Linear;
  if (name == "sublinear") return ChargingKind::SubLinear;
  if (name == "saturating") return ChargingKind::Saturating;
  return std::nullopt;
}

std::optional<ChargingModel> charging_model_from_name(std::string_view name, double eta,
                                                      double param) {
  const std::optional<ChargingKind> kind = charging_kind_from_name(name);
  if (!kind.has_value()) return std::nullopt;
  if (*kind == ChargingKind::Linear) return ChargingModel::linear(eta);
  return ChargingModel(eta, *kind, param);
}

}  // namespace wrsn::energy
