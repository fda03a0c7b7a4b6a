// Wireless charging efficiency model (Sections II and III).
//
// The field experiment shows that when a charger recharges m co-located
// sensors simultaneously, each still receives roughly the single-sensor
// share, so the *network* charging efficiency is eta(m) = k(m) * eta with
// k(m) linear or sub-linear in m.  The paper's quantitative analysis takes
// k(m) = m; we also provide sub-linear and saturating variants so benches
// can probe sensitivity to that modelling choice (ablation A3 in DESIGN.md).
#pragma once

#include <optional>
#include <stdexcept>
#include <string_view>

namespace wrsn::energy {

/// Shape of the simultaneous-charging gain k(m).
enum class ChargingKind {
  Linear,      ///< k(m) = m                      (paper's assumption)
  SubLinear,   ///< k(m) = m^exponent, 0<exponent<=1
  Saturating,  ///< k(m) = cap * (1 - (1-1/cap)^m)  -> approaches `cap`
};

/// Charging efficiency model: maps a post's node count m to the fraction of
/// charger-radiated energy that the post's nodes collectively absorb.
class ChargingModel {
 public:
  /// `eta` is the single-node efficiency (0 < eta < 1), e.g. ~0.008 at 20 cm
  /// from the field experiment.  Parameters: SubLinear -> exponent,
  /// Saturating -> cap (both ignored for Linear).
  explicit ChargingModel(double eta, ChargingKind kind = ChargingKind::Linear,
                         double param = 1.0);

  static ChargingModel linear(double eta) { return ChargingModel(eta); }
  static ChargingModel sub_linear(double eta, double exponent) {
    return ChargingModel(eta, ChargingKind::SubLinear, exponent);
  }
  static ChargingModel saturating(double eta, double cap) {
    return ChargingModel(eta, ChargingKind::Saturating, cap);
  }

  double eta() const noexcept { return eta_; }
  ChargingKind kind() const noexcept { return kind_; }
  /// Shape parameter (SubLinear exponent or Saturating cap; 1.0 for Linear).
  double param() const noexcept { return param_; }

  /// The gain factor k(m); k(1) == 1 for every kind.
  double gain(int m) const;

  /// Network charging efficiency eta(m) = k(m) * eta.
  double efficiency(int m) const { return gain(m) * eta_; }

  /// Charger energy required to deliver `energy_j` joules into a post
  /// holding `m` nodes: energy / (k(m) * eta).  This is the "recharging
  /// cost" of replenishing that much consumption.
  double charger_energy_for(double energy_j, int m) const { return energy_j / efficiency(m); }

 private:
  double eta_;
  ChargingKind kind_;
  double param_;
};

/// The kind named "linear", "sublinear" or "saturating" -- the names every
/// scenario and instance format uses.  nullopt for any other name, so each
/// format reports it in its own terms.
std::optional<ChargingKind> charging_kind_from_name(std::string_view name);

/// The model of the kind named `name` (as above) with single-node
/// efficiency `eta` and shape parameter `param` (ignored for linear);
/// nullopt for an unknown name.
std::optional<ChargingModel> charging_model_from_name(std::string_view name, double eta,
                                                      double param);

}  // namespace wrsn::energy
