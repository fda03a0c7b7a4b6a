#include "core/instance.hpp"

#include <gtest/gtest.h>

#include "helpers.hpp"

namespace wrsn::core {
namespace {

TEST(Instance, GeometricBasics) {
  const Instance inst = test::chain_instance(3, 5);
  EXPECT_EQ(inst.num_posts(), 3);
  EXPECT_EQ(inst.num_nodes(), 5);
  EXPECT_EQ(inst.spare_nodes(), 2);
  ASSERT_TRUE(inst.field().has_value());
  EXPECT_EQ(inst.field()->posts.size(), 3u);
  EXPECT_EQ(inst.graph().base_station(), 3);
}

TEST(Instance, RejectsTooFewNodes) {
  EXPECT_THROW(test::chain_instance(5, 4), InfeasibleInstance);
}

TEST(Instance, AcceptsExactBudget) {
  const Instance inst = test::chain_instance(4, 4);
  EXPECT_EQ(inst.spare_nodes(), 0);
}

TEST(Instance, RejectsDisconnectedField) {
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{20.0, 0.0}, {500.0, 0.0}};  // second post stranded
  EXPECT_THROW(Instance::geometric(field, test::paper_radio(), test::paper_charging(), 4),
               InfeasibleInstance);
}

TEST(Instance, TxEnergyUsesMinFeasibleLevel) {
  const Instance inst = test::chain_instance(3, 3);
  const auto& radio = inst.radio();
  // Adjacent hop = 20 m -> level 0; two hops = 40 m -> level 1.
  EXPECT_DOUBLE_EQ(inst.tx_energy(0, inst.graph().base_station()), radio.tx_energy(0));
  EXPECT_DOUBLE_EQ(inst.tx_energy(1, inst.graph().base_station()), radio.tx_energy(1));
  EXPECT_DOUBLE_EQ(inst.tx_energy(0, 1), radio.tx_energy(0));
  EXPECT_DOUBLE_EQ(inst.rx_energy(), radio.rx_energy());
}

TEST(Instance, TxEnergyThrowsWhenUnreachable) {
  geom::Field field;
  field.base_station = {0.0, 0.0};
  field.posts = {{20.0, 0.0}, {40.0, 0.0}, {110.0, 0.0}};
  const Instance inst =
      Instance::geometric(field, test::paper_radio(), test::paper_charging(), 3);
  // post 2 is 110 m from the base: unreachable directly, fine via post 1.
  EXPECT_THROW(inst.tx_energy(2, inst.graph().base_station()), std::invalid_argument);
  EXPECT_NO_THROW(inst.tx_energy(2, 1));
}

TEST(Instance, AbstractInstanceCarriesNoField) {
  graph::ReachGraph g(2);
  g.set_min_level(0, 2, 0);
  g.set_min_level(1, 0, 0);
  const Instance inst = Instance::abstract(
      g, energy::RadioModel::from_energies({1.0, 4.0}, 0.5), test::paper_charging(), 3);
  EXPECT_FALSE(inst.field().has_value());
  EXPECT_EQ(inst.num_posts(), 2);
  EXPECT_DOUBLE_EQ(inst.tx_energy(1, 0), 1.0);
}

TEST(Instance, AbstractRejectsDisconnected) {
  graph::ReachGraph g(2);
  g.set_min_level(0, 2, 0);  // post 1 cannot send anywhere
  EXPECT_THROW(Instance::abstract(g, energy::RadioModel::from_energies({1.0}, 0.5),
                                  test::paper_charging(), 2),
               InfeasibleInstance);
}

TEST(Instance, RandomInstanceHelperIsConnected) {
  util::Rng rng(21);
  const Instance inst = test::random_instance(30, 60, 200.0, rng);
  EXPECT_TRUE(inst.graph().connected_to_base());
  EXPECT_EQ(inst.num_posts(), 30);
}

TEST(Instance, TxCostCacheMatchesRadioTable) {
  util::Rng rng(23);
  const Instance inst = test::random_instance(12, 24, 150.0, rng);
  const int nv = inst.graph().num_vertices();
  ASSERT_EQ(inst.tx_stride(), nv);
  ASSERT_EQ(static_cast<int>(inst.tx_cost_matrix().size()), nv * nv);
  for (int from = 0; from < nv; ++from) {
    const double* row = inst.tx_cost_row(from);
    for (int to = 0; to < nv; ++to) {
      if (from == to || !inst.graph().reachable(from, to)) {
        EXPECT_TRUE(std::isinf(row[to])) << from << "->" << to;
      } else {
        EXPECT_EQ(row[to], inst.radio().tx_energy(inst.graph().min_level(from, to)));
        EXPECT_EQ(inst.tx_energy(from, to), row[to]);
      }
    }
  }
}

TEST(Instance, TxEnergyStillValidatesArguments) {
  const Instance inst = test::chain_instance(3, 6);
  EXPECT_THROW(inst.tx_energy(-1, 0), std::out_of_range);
  EXPECT_THROW(inst.tx_energy(0, 99), std::out_of_range);
  EXPECT_NO_THROW(inst.tx_energy(0, 2));  // 40 m apart, within the 50 m level
  EXPECT_THROW(inst.tx_energy(3, 3), std::invalid_argument);  // base to itself
  EXPECT_THROW(inst.tx_energy(0, 0), std::invalid_argument);  // self loop
}

TEST(Instance, AdjacencyPrebuiltAndConsistent) {
  util::Rng rng(29);
  const Instance inst = test::random_instance(10, 20, 140.0, rng);
  const graph::ReachAdjacency& adj = inst.adjacency();
  EXPECT_EQ(adj.num_vertices(), inst.graph().num_vertices());
  std::size_t edges = 0;
  for (int v = 0; v < adj.num_vertices(); ++v) {
    for (int u : adj.out(v)) {
      EXPECT_TRUE(inst.graph().reachable(v, u));
    }
    edges += adj.out(v).size();
  }
  EXPECT_GT(edges, 0u);
}

}  // namespace
}  // namespace wrsn::core
