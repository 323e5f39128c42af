#include "synth/generator.hpp"

#include <bit>
#include <limits>
#include <stdexcept>
#include <string>

#include "model/builder.hpp"

namespace epea::synth {

SyntheticSystem random_layered_system(const LayeredOptions& options) {
    if (options.layers == 0 || options.modules_per_layer == 0 ||
        options.inputs_per_module == 0 || options.outputs_per_module == 0) {
        throw std::invalid_argument("random_layered_system: empty dimensions");
    }
    // The signal count, the input boundary plus one boundary per layer,
    // must fit a size_t, so no size below (nor `layers + 1`) can wrap.
    constexpr std::size_t kMax = std::numeric_limits<std::size_t>::max();
    const std::size_t m = options.modules_per_layer;
    if (options.inputs_per_module > kMax / m || options.outputs_per_module > kMax / m ||
        options.layers > kMax / (m * options.outputs_per_module) ||
        options.layers * (m * options.outputs_per_module) >
            kMax - m * options.inputs_per_module) {
        throw std::invalid_argument("random_layered_system: dimensions overflow");
    }
    const std::size_t first_width = m * options.inputs_per_module;
    const std::size_t width = m * options.outputs_per_module;
    util::Rng rng(options.seed);
    auto system_ptr = std::make_unique<model::SystemModel>();
    model::SystemModel& system = *system_ptr;

    // Layer-boundary signals: boundary[l] feeds layer l's modules.
    std::vector<std::vector<model::SignalId>> boundary(options.layers + 1);

    for (std::size_t s = 0; s < first_width; ++s) {
        boundary[0].push_back(system.add_signal(model::SignalSpec{
            "in_" + std::to_string(s), model::SignalRole::kSystemInput,
            model::SignalKind::kContinuous, 16}));
    }
    for (std::size_t l = 1; l <= options.layers; ++l) {
        const bool last = l == options.layers;
        for (std::size_t s = 0; s < width; ++s) {
            const std::string name = (last ? "out_" : "sig_" + std::to_string(l) + "_") +
                                     std::to_string(s);
            boundary[l].push_back(system.add_signal(model::SignalSpec{
                name,
                last ? model::SignalRole::kSystemOutput
                     : model::SignalRole::kIntermediate,
                model::SignalKind::kContinuous, 16}));
        }
    }

    for (std::size_t l = 0; l < options.layers; ++l) {
        // Feedback pool: intermediates of *later* boundaries (the output
        // boundary stays environment-consumed). Rewiring an input here
        // creates a cycle through this layer.
        std::vector<model::SignalId> cycle_pool;
        if (options.cycle_density > 0.0) {
            for (std::size_t j = l + 1; j < options.layers; ++j) {
                cycle_pool.insert(cycle_pool.end(), boundary[j].begin(),
                                  boundary[j].end());
            }
        }
        for (std::size_t m = 0; m < options.modules_per_layer; ++m) {
            model::ModuleSpec spec;
            spec.name = "M" + std::to_string(l) + "_" + std::to_string(m);
            // Inputs: drawn from the previous boundary; ensure distinct
            // ports can share signals (fan-out), but give each module a
            // deterministic base slice plus random extras. With
            // cycle_density > 0 a port may rewire to a later-layer
            // intermediate instead; all draws depend only on the options,
            // so a given (seed, shape) is bit-reproducible.
            for (std::size_t p = 0; p < options.inputs_per_module; ++p) {
                const auto& pool = boundary[l];
                model::SignalId chosen = pool[rng.below(pool.size())];
                if (!cycle_pool.empty() && rng.chance(options.cycle_density)) {
                    chosen = cycle_pool[rng.below(cycle_pool.size())];
                }
                spec.inputs.push_back(chosen);
            }
            for (std::size_t p = 0; p < options.outputs_per_module; ++p) {
                spec.outputs.push_back(
                    boundary[l + 1][m * options.outputs_per_module + p]);
            }
            system.add_module(std::move(spec));
        }
    }
    system.validate_or_throw();

    epic::PermeabilityMatrix matrix(system);
    for (const model::ModuleId mid : system.all_modules()) {
        const auto& spec = system.module(mid);
        for (std::uint32_t i = 0; i < spec.input_count(); ++i) {
            for (std::uint32_t k = 0; k < spec.output_count(); ++k) {
                const double p =
                    rng.chance(options.edge_density) ? rng.uniform(0.05, 1.0) : 0.0;
                matrix.set(mid, i, k, p);
            }
        }
    }
    return SyntheticSystem{std::move(system_ptr), std::move(matrix)};
}

// ------------------------------------------------------ BitmaskChainSystem

namespace {

/// Module behaviour: out = in & mask (stateless).
class MaskModule final : public runtime::ModuleBehaviour {
public:
    explicit MaskModule(std::uint16_t mask) : mask_(mask) {}
    void reset() override {}
    void step(runtime::ModuleContext& ctx) override {
        ctx.out(0, ctx.in(0) & mask_);
    }

private:
    std::uint16_t mask_;
};

model::SystemModel make_chain_model(std::size_t length) {
    model::SystemBuilder b;
    b.input("src", model::SignalKind::kContinuous, 16);
    for (std::size_t k = 0; k + 1 < length; ++k) {
        b.intermediate("link_" + std::to_string(k), model::SignalKind::kContinuous, 16);
    }
    b.output("sink", model::SignalKind::kContinuous, 16);
    for (std::size_t k = 0; k < length; ++k) {
        const std::string in =
            k == 0 ? "src" : "link_" + std::to_string(k - 1);
        const std::string out =
            k + 1 == length ? "sink" : "link_" + std::to_string(k);
        b.module("mask_" + std::to_string(k)).in(in).out(out);
    }
    return b.build();
}

}  // namespace

/// Environment: drives the source signal with a full-period 16-bit LCG so
/// all bits toggle, and finishes after a fixed number of ticks.
class BitmaskChainSystem::Source final : public runtime::Environment {
public:
    Source(model::SignalId src, runtime::Tick run_ticks)
        : src_(src), run_ticks_(run_ticks) {}

    void reset() override {
        state_ = 0x1234;
        ticks_ = 0;
    }
    void sense(runtime::SignalStore& store, runtime::Tick) override {
        state_ = static_cast<std::uint16_t>(state_ * 25173U + 13849U);
        store.set(src_, state_);
        ++ticks_;
    }
    void actuate(const runtime::SignalStore&, runtime::Tick) override {}
    [[nodiscard]] bool finished() const override { return ticks_ >= run_ticks_; }

private:
    model::SignalId src_;
    runtime::Tick run_ticks_;
    std::uint16_t state_ = 0;
    runtime::Tick ticks_ = 0;
};

BitmaskChainSystem::BitmaskChainSystem(std::vector<std::uint16_t> masks,
                                       runtime::Tick run_ticks)
    : masks_(std::move(masks)) {
    if (masks_.empty()) throw std::invalid_argument("BitmaskChainSystem: empty chain");
    model_ = std::make_unique<model::SystemModel>(make_chain_model(masks_.size()));
    std::vector<std::unique_ptr<runtime::ModuleBehaviour>> behaviours;
    behaviours.reserve(masks_.size());
    for (const std::uint16_t mask : masks_) {
        behaviours.push_back(std::make_unique<MaskModule>(mask));
    }
    env_ = std::make_unique<Source>(model_->signal_id("src"), run_ticks);
    sim_ = std::make_unique<runtime::Simulator>(*model_, std::move(behaviours), *env_);
}

double BitmaskChainSystem::true_permeability(std::size_t k) const {
    return static_cast<double>(std::popcount(masks_.at(k))) / 16.0;
}

// ---------------------------------------------------------- multi-output

SyntheticSystem make_multi_output_system() {
    model::SystemBuilder b;
    b.input("sensor_a", model::SignalKind::kContinuous, 16);
    b.input("sensor_b", model::SignalKind::kContinuous, 16);
    b.intermediate("filtered", model::SignalKind::kContinuous, 16);
    b.intermediate("estimate", model::SignalKind::kContinuous, 16);
    b.output("actuator_cmd", model::SignalKind::kContinuous, 16);
    b.output("diag_word", model::SignalKind::kDiscrete, 8);

    b.module("FILTER").in("sensor_a").in("sensor_b").out("filtered");
    b.module("ESTIMATOR").in("filtered").out("estimate");
    b.module("CONTROL").in("estimate").out("actuator_cmd").out("diag_word");

    auto system = std::make_unique<model::SystemModel>(b.build());
    epic::PermeabilityMatrix matrix(*system);
    matrix.set("FILTER", "sensor_a", "filtered", 0.8);
    matrix.set("FILTER", "sensor_b", "filtered", 0.4);
    matrix.set("ESTIMATOR", "filtered", "estimate", 0.9);
    matrix.set("CONTROL", "estimate", "actuator_cmd", 0.7);
    matrix.set("CONTROL", "estimate", "diag_word", 0.95);
    return SyntheticSystem{std::move(system), std::move(matrix)};
}

}  // namespace epea::synth
