#include <gtest/gtest.h>

#include <limits>

#include "epic/measures.hpp"
#include "synth/generator.hpp"

namespace epea::synth {
namespace {

TEST(LayeredGenerator, ProducesValidSystems) {
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        LayeredOptions options;
        options.seed = seed;
        const SyntheticSystem s = random_layered_system(options);
        EXPECT_TRUE(s.system->validate().empty()) << "seed " << seed;
        EXPECT_EQ(s.system->module_count(),
                  options.layers * options.modules_per_layer);
    }
}

TEST(LayeredGenerator, DeterministicPerSeed) {
    LayeredOptions options;
    options.seed = 42;
    const SyntheticSystem a = random_layered_system(options);
    const SyntheticSystem b = random_layered_system(options);
    ASSERT_EQ(a.system->module_count(), b.system->module_count());
    for (const auto mid : a.system->all_modules()) {
        const auto& ma = a.system->module(mid);
        const auto& mb = b.system->module(mid);
        EXPECT_EQ(ma.inputs, mb.inputs);
        for (std::uint32_t i = 0; i < ma.input_count(); ++i) {
            for (std::uint32_t k = 0; k < ma.output_count(); ++k) {
                EXPECT_DOUBLE_EQ(a.matrix.get(mid, i, k), b.matrix.get(mid, i, k));
            }
        }
    }
}

TEST(LayeredGenerator, SeedsDiffer) {
    LayeredOptions o1;
    o1.seed = 1;
    LayeredOptions o2;
    o2.seed = 2;
    const SyntheticSystem a = random_layered_system(o1);
    const SyntheticSystem b = random_layered_system(o2);
    bool any_difference = false;
    for (const auto mid : a.system->all_modules()) {
        const auto& spec = a.system->module(mid);
        for (std::uint32_t i = 0; i < spec.input_count() && !any_difference; ++i) {
            for (std::uint32_t k = 0; k < spec.output_count(); ++k) {
                if (a.matrix.get(mid, i, k) != b.matrix.get(mid, i, k)) {
                    any_difference = true;
                    break;
                }
            }
        }
    }
    EXPECT_TRUE(any_difference);
}

TEST(LayeredGenerator, RolesAreLayered) {
    LayeredOptions options;
    options.layers = 3;
    options.seed = 5;
    const SyntheticSystem s = random_layered_system(options);
    const auto inputs = s.system->signals_with_role(model::SignalRole::kSystemInput);
    const auto outputs = s.system->signals_with_role(model::SignalRole::kSystemOutput);
    EXPECT_EQ(inputs.size(), options.modules_per_layer * options.inputs_per_module);
    EXPECT_EQ(outputs.size(), options.modules_per_layer * options.outputs_per_module);
    // Outputs are produced by last-layer modules only.
    for (const auto out : outputs) {
        const auto producer = s.system->producer_of(out);
        ASSERT_TRUE(producer.has_value());
        const auto& name = s.system->module_name(producer->module);
        EXPECT_EQ(name.substr(0, 2), "M" + std::to_string(options.layers - 1));
    }
}

TEST(LayeredGenerator, EdgeDensityZeroGivesEmptyMatrix) {
    LayeredOptions options;
    options.edge_density = 0.0;
    options.seed = 9;
    const SyntheticSystem s = random_layered_system(options);
    for (const auto& e : s.matrix.entries()) EXPECT_EQ(e.value, 0.0);
}

TEST(LayeredGenerator, RejectsDegenerateDimensions) {
    LayeredOptions options;
    options.layers = 0;
    EXPECT_THROW((void)random_layered_system(options), std::invalid_argument);
}

TEST(LayeredGenerator, RejectsDimensionsThatOverflow) {
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    LayeredOptions options;
    options.layers = kMax;  // layers + 1 boundaries would wrap to 0
    EXPECT_THROW((void)random_layered_system(options), std::invalid_argument);
    options = LayeredOptions{};
    options.modules_per_layer = kMax / 2 + 1;  // times 2 ports wraps
    EXPECT_THROW((void)random_layered_system(options), std::invalid_argument);
    options = LayeredOptions{};
    options.outputs_per_module = kMax / 6;  // fits one layer, not all 4
    EXPECT_THROW((void)random_layered_system(options), std::invalid_argument);
}

TEST(MultiOutputSystem, ShapeAndMatrix) {
    const SyntheticSystem s = make_multi_output_system();
    EXPECT_TRUE(s.system->validate().empty());
    EXPECT_EQ(s.system->signals_with_role(model::SignalRole::kSystemOutput).size(),
              2U);
    EXPECT_DOUBLE_EQ(s.matrix.get("CONTROL", "estimate", "diag_word"), 0.95);
    // Exposure of `filtered` combines both sensors' permeabilities.
    const auto exposure =
        epic::signal_exposure(s.matrix, s.system->signal_id("filtered"));
    ASSERT_TRUE(exposure.has_value());
    EXPECT_NEAR(*exposure, 1.2, 1e-12);
}

TEST(BitmaskChain, ModelShape) {
    BitmaskChainSystem chain({0xffff, 0x0f0f, 0x0001});
    EXPECT_EQ(chain.system().module_count(), 3U);
    EXPECT_EQ(chain.system().signal_count(), 4U);
    EXPECT_TRUE(chain.system().validate().empty());
}

TEST(BitmaskChain, SimulatesMaskSemantics) {
    BitmaskChainSystem chain({0x00ff}, /*run_ticks=*/16);
    chain.sim().enable_trace(true);
    chain.sim().reset();
    chain.sim().run(1000);
    const auto& src = chain.sim().trace()->series(chain.system().signal_id("src"));
    const auto& sink = chain.sim().trace()->series(chain.system().signal_id("sink"));
    ASSERT_EQ(src.size(), 16U);
    for (std::size_t t = 0; t < src.size(); ++t) {
        EXPECT_EQ(sink[t], src[t] & 0x00ffU) << t;
    }
}

}  // namespace
}  // namespace epea::synth
