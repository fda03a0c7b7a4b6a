#include "energy/charging_model.hpp"
#include "energy/radio_model.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <optional>

namespace wrsn::energy {
namespace {

// ---------------------------------------------------------------- RadioModel

TEST(RadioModel, PaperParametersLevelEnergies) {
  // alpha = 50 nJ/bit, beta = 0.0013 pJ/bit/m^4, gamma = 4 (Section VI-A).
  const RadioModel radio = RadioModel::uniform_levels(3, 25.0);
  EXPECT_EQ(radio.num_levels(), 3);
  EXPECT_DOUBLE_EQ(radio.range(0), 25.0);
  EXPECT_DOUBLE_EQ(radio.range(2), 75.0);
  EXPECT_NEAR(radio.tx_energy(0), 50e-9 + 0.0013e-12 * std::pow(25.0, 4.0), 1e-18);
  EXPECT_NEAR(radio.tx_energy(2), 50e-9 + 0.0013e-12 * std::pow(75.0, 4.0), 1e-18);
  EXPECT_DOUBLE_EQ(radio.rx_energy(), 50e-9);
  EXPECT_DOUBLE_EQ(radio.max_range(), 75.0);
}

TEST(RadioModel, EnergiesIncreaseWithLevel) {
  const RadioModel radio = RadioModel::uniform_levels(6, 25.0);
  for (int i = 1; i < radio.num_levels(); ++i) {
    EXPECT_GT(radio.tx_energy(i), radio.tx_energy(i - 1));
    EXPECT_GT(radio.range(i), radio.range(i - 1));
  }
}

TEST(RadioModel, MinLevelForDistancePicksSmallestCovering) {
  const RadioModel radio = RadioModel::uniform_levels(3, 25.0);
  EXPECT_EQ(radio.min_level_for_distance(10.0), 0);
  EXPECT_EQ(radio.min_level_for_distance(25.0), 0);   // boundary inclusive
  EXPECT_EQ(radio.min_level_for_distance(25.001), 1);
  EXPECT_EQ(radio.min_level_for_distance(74.9), 2);
  EXPECT_EQ(radio.min_level_for_distance(75.0), 2);
  EXPECT_FALSE(radio.min_level_for_distance(75.1).has_value());
}

TEST(RadioModel, TxEnergyForDistanceMatchesLevel) {
  const RadioModel radio = RadioModel::uniform_levels(3, 25.0);
  EXPECT_DOUBLE_EQ(*radio.tx_energy_for_distance(30.0), radio.tx_energy(1));
  EXPECT_FALSE(radio.tx_energy_for_distance(100.0).has_value());
}

TEST(RadioModel, FromEnergiesForGadget) {
  // The NP gadget radio: e2 = 4*e1, rx = e0 < e1.
  const RadioModel radio = RadioModel::from_energies({1.0, 4.0}, 0.5);
  EXPECT_EQ(radio.num_levels(), 2);
  EXPECT_DOUBLE_EQ(radio.tx_energy(0), 1.0);
  EXPECT_DOUBLE_EQ(radio.tx_energy(1), 4.0);
  EXPECT_DOUBLE_EQ(radio.rx_energy(), 0.5);
}

TEST(RadioModel, RejectsBadConstruction) {
  EXPECT_THROW(RadioModel::uniform_levels(0), std::invalid_argument);
  EXPECT_THROW(RadioModel::from_ranges({50.0, 25.0}), std::invalid_argument);
  EXPECT_THROW(RadioModel::from_ranges({}), std::invalid_argument);
  EXPECT_THROW(RadioModel::from_ranges({-5.0, 25.0}), std::invalid_argument);
  EXPECT_THROW(RadioModel::from_energies({4.0, 1.0}, 0.5), std::invalid_argument);
}

TEST(RadioModel, LevelAccessorsRangeCheck) {
  const RadioModel radio = RadioModel::uniform_levels(3);
  EXPECT_THROW(radio.tx_energy(3), std::out_of_range);
  EXPECT_THROW(radio.range(-1), std::out_of_range);
}

TEST(RadioModel, PathLossExponentTwo) {
  RadioParams params;
  params.gamma = 2.0;
  const RadioModel radio = RadioModel::uniform_levels(2, 10.0, params);
  EXPECT_NEAR(radio.tx_energy(0), params.alpha + params.beta * 100.0, 1e-18);
  EXPECT_NEAR(radio.tx_energy(1), params.alpha + params.beta * 400.0, 1e-18);
}

// ------------------------------------------------------------- ChargingModel

TEST(ChargingModel, LinearGainMatchesPaper) {
  // Section III: eta(m) = m * eta when k(m) = m.
  const ChargingModel model = ChargingModel::linear(0.01);
  EXPECT_DOUBLE_EQ(model.gain(1), 1.0);
  EXPECT_DOUBLE_EQ(model.gain(5), 5.0);
  EXPECT_DOUBLE_EQ(model.efficiency(4), 0.04);
}

TEST(ChargingModel, ChargerEnergyInvertsEfficiency) {
  const ChargingModel model = ChargingModel::linear(0.1);
  // Delivering 1 J into a 2-node post: efficiency 0.2 -> 5 J radiated.
  EXPECT_DOUBLE_EQ(model.charger_energy_for(1.0, 2), 5.0);
  EXPECT_DOUBLE_EQ(model.charger_energy_for(1.0, 1), 10.0);
}

TEST(ChargingModel, GainIsOneForSingleNodeAllKinds) {
  EXPECT_DOUBLE_EQ(ChargingModel::linear(0.1).gain(1), 1.0);
  EXPECT_DOUBLE_EQ(ChargingModel::sub_linear(0.1, 0.8).gain(1), 1.0);
  EXPECT_DOUBLE_EQ(ChargingModel::saturating(0.1, 8.0).gain(1), 1.0);
}

TEST(ChargingModel, SubLinearGainBelowLinear) {
  const ChargingModel model = ChargingModel::sub_linear(0.1, 0.8);
  for (int m = 2; m <= 10; ++m) {
    EXPECT_LT(model.gain(m), static_cast<double>(m));
    EXPECT_GT(model.gain(m), model.gain(m - 1));  // still monotone
  }
}

TEST(ChargingModel, SaturatingGainApproachesCap) {
  const ChargingModel model = ChargingModel::saturating(0.1, 4.0);
  EXPECT_LT(model.gain(100), 4.0);
  EXPECT_GT(model.gain(100), 3.99);
  for (int m = 2; m <= 10; ++m) EXPECT_GT(model.gain(m), model.gain(m - 1));
}

TEST(ChargingModel, RejectsBadParameters) {
  EXPECT_THROW(ChargingModel::linear(0.0), std::invalid_argument);
  EXPECT_THROW(ChargingModel::linear(1.0), std::invalid_argument);
  EXPECT_THROW(ChargingModel::linear(-0.5), std::invalid_argument);
  EXPECT_THROW(ChargingModel::sub_linear(0.1, 0.0), std::invalid_argument);
  EXPECT_THROW(ChargingModel::sub_linear(0.1, 1.5), std::invalid_argument);
  EXPECT_THROW(ChargingModel::saturating(0.1, 0.5), std::invalid_argument);
}

TEST(ChargingModel, RejectsNonPositiveNodeCount) {
  const ChargingModel model = ChargingModel::linear(0.1);
  EXPECT_THROW(model.gain(0), std::invalid_argument);
  EXPECT_THROW(model.gain(-3), std::invalid_argument);
}

TEST(ChargingModel, MoreNodesNeverCostMore) {
  // The monotonicity the exact solver's bound relies on.
  for (const ChargingModel& model :
       {ChargingModel::linear(0.05), ChargingModel::sub_linear(0.05, 0.7),
        ChargingModel::saturating(0.05, 6.0)}) {
    for (int m = 1; m < 20; ++m) {
      EXPECT_GE(model.charger_energy_for(1.0, m), model.charger_energy_for(1.0, m + 1));
    }
  }
}

TEST(ChargingModel, FromNameMatchesFactories) {
  const auto same = [](const std::optional<ChargingModel>& got, const ChargingModel& want) {
    ASSERT_TRUE(got.has_value());
    EXPECT_EQ(got->kind(), want.kind());
    EXPECT_EQ(got->eta(), want.eta());
    EXPECT_EQ(got->param(), want.param());
  };
  same(charging_model_from_name("linear", 0.02, 0.5), ChargingModel::linear(0.02));
  same(charging_model_from_name("sublinear", 0.02, 0.5), ChargingModel::sub_linear(0.02, 0.5));
  same(charging_model_from_name("saturating", 0.02, 3.0), ChargingModel::saturating(0.02, 3.0));
  EXPECT_FALSE(charging_model_from_name("quadratic", 0.02, 1.0).has_value());
  EXPECT_FALSE(charging_model_from_name("Linear", 0.02, 1.0).has_value());
  EXPECT_THROW(charging_model_from_name("sublinear", 0.02, 2.0), std::invalid_argument);

  // The name alone, with no parameter to validate.
  EXPECT_EQ(charging_kind_from_name("linear"), ChargingKind::Linear);
  EXPECT_EQ(charging_kind_from_name("sublinear"), ChargingKind::SubLinear);
  EXPECT_EQ(charging_kind_from_name("saturating"), ChargingKind::Saturating);
  EXPECT_FALSE(charging_kind_from_name("quadratic").has_value());
}

}  // namespace
}  // namespace wrsn::energy
