#include "analytic/engine.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace epea::analytic {

Engine::Engine(const epic::PermeabilityMatrix& pm, EngineOptions options)
    : pm_(&pm), options_(options), graph_(pm) {
    cache_.resize(graph_.node_count());
}

const ReachProfile& Engine::reach(model::SignalId source) const {
    if (!source.valid() || source.index() >= cache_.size()) {
        throw std::out_of_range("analytic::Engine::reach: invalid source signal");
    }
    std::optional<ReachProfile>& slot = cache_[source.index()];
    if (slot) return *slot;

    ReachProfile profile = solve(source);
    if (!profile.converged) any_unconverged_ = true;
    ++solves_;
    slot = std::move(profile);
    return *slot;
}

ReachProfile Engine::solve(model::SignalId source) const {
    if (!source.valid() || source.index() >= graph_.node_count()) {
        throw std::out_of_range("analytic::Engine::solve: invalid source signal");
    }
    const std::size_t n = graph_.node_count();
    ReachProfile profile;
    profile.source = source;
    profile.visibility.assign(n, Bound{});
    profile.visibility[source.index()] = Bound{1.0, 1.0, 1.0};

    // Kleene iteration from bottom: each signal's visibility is the
    // noisy-OR of its incoming edges, v[t] = 1 - prod (1 - v[u] * p).
    // The update is monotone in every v[u] and every cell value, so the
    // lo/point/hi systems can be iterated side by side and each converges
    // from below to its least fixpoint.
    std::vector<Bound> next(n);
    std::size_t iter = 0;
    bool converged = false;
    for (; iter < options_.max_iterations; ++iter) {
        double delta = 0.0;
        for (std::size_t t = 0; t < n; ++t) {
            if (t == source.index()) {
                next[t] = profile.visibility[t];
                continue;
            }
            double miss_lo = 1.0, miss_pt = 1.0, miss_hi = 1.0;
            for (const epic::GraphEdge& e : graph_.in_edges(static_cast<std::uint32_t>(t))) {
                const Bound& v = profile.visibility[e.from];
                miss_lo *= 1.0 - v.lo * e.weight.lo;
                miss_pt *= 1.0 - v.point * e.weight.point;
                miss_hi *= 1.0 - v.hi * e.weight.hi;
            }
            Bound nv{1.0 - miss_lo, 1.0 - miss_pt, 1.0 - miss_hi};
            const Bound& ov = profile.visibility[t];
            delta = std::max({delta, std::abs(nv.lo - ov.lo),
                              std::abs(nv.point - ov.point),
                              std::abs(nv.hi - ov.hi)});
            next[t] = nv;
        }
        profile.visibility.swap(next);
        if (delta <= options_.epsilon) {
            converged = true;
            ++iter;
            break;
        }
    }
    profile.iterations = iter;
    profile.converged = converged;
    return profile;
}

Bound Engine::permeability(model::SignalId source, model::SignalId sink) const {
    if (!sink.valid() || sink.index() >= graph_.node_count()) {
        throw std::out_of_range("analytic::Engine::permeability: invalid sink signal");
    }
    return reach(source).visibility[sink.index()];
}

std::optional<Bound> Engine::exposure(model::SignalId s) const {
    const model::SystemModel& sys = pm_->system();
    std::optional<model::PortRef> producer = sys.producer_of(s);
    if (!producer) return std::nullopt;  // system input: no exposure
    const model::ModuleSpec& spec = sys.module(producer->module);
    // X_s is a direct sum over the producing module's inputs (Table 2) —
    // no composition, so the bounds are just summed cell bounds.
    Bound x{0.0, 0.0, 0.0};
    for (std::uint32_t i = 0; i < spec.input_count(); ++i) {
        const Bound c = epic::cell_weight(*pm_, producer->module, i, producer->port);
        x.lo += c.lo;
        x.point += c.point;
        x.hi += c.hi;
    }
    return x;
}

}  // namespace epea::analytic
