#include "prove/prover.hpp"

#include <algorithm>
#include <stdexcept>
#include <tuple>

#include "prove/dominators.hpp"

namespace epea::prove {

namespace {

std::vector<std::string> sorted_names(const model::SystemModel& system,
                                      const std::vector<std::uint32_t>& nodes) {
    std::vector<std::string> names;
    names.reserve(nodes.size());
    for (const std::uint32_t n : nodes) {
        names.push_back(system.signal_name(model::SignalId{n}));
    }
    std::sort(names.begin(), names.end());
    return names;
}

}  // namespace

std::vector<std::uint32_t> Prover::error_sites(SiteModel model) const {
    const auto ids = model == SiteModel::kInput
                         ? graph_->system().signals_with_role(model::SignalRole::kSystemInput)
                         : graph_->system().all_signals();
    std::vector<std::uint32_t> nodes;
    nodes.reserve(ids.size());
    for (const model::SignalId s : ids) nodes.push_back(static_cast<std::uint32_t>(s.index()));
    return nodes;
}

std::vector<std::uint32_t> Prover::output_nodes() const {
    std::vector<std::uint32_t> nodes;
    for (const model::SignalId s :
         graph_->system().signals_with_role(model::SignalRole::kSystemOutput)) {
        nodes.push_back(static_cast<std::uint32_t>(s.index()));
    }
    return nodes;
}

bool Prover::path_exists(std::uint32_t from, std::uint32_t to) const {
    if (from == to) return true;
    const std::vector<bool> seen = graph_->reach_from({from});
    return seen[to];
}

std::vector<bool> Prover::to_blocked(const std::vector<model::SignalId>& placement) const {
    std::vector<bool> blocked(graph_->node_count(), false);
    for (const model::SignalId s : placement) {
        if (!s.valid() || s.index() >= graph_->node_count()) {
            throw std::invalid_argument("prove: placement signal not in system");
        }
        blocked[s.index()] = true;
    }
    return blocked;
}

CutResult Prover::cut_check(const std::vector<model::SignalId>& placement,
                            SiteModel sites) const {
    const model::SystemModel& system = graph_->system();
    const std::vector<bool> blocked = to_blocked(placement);
    const std::vector<std::uint32_t> site_nodes = error_sites(sites);
    const std::vector<std::uint32_t> outputs = output_nodes();

    CutResult result;
    std::vector<std::uint32_t> cut_nodes;
    for (std::uint32_t n = 0; n < blocked.size(); ++n) {
        if (blocked[n]) cut_nodes.push_back(n);
    }
    result.cut = sorted_names(system, cut_nodes);

    // Per-output undetected-reach sets: vertices from which `o` is still
    // reachable once the cut vertices are deleted. An error site in any
    // of them bypasses every EA — otherwise the sets are the per-output
    // separation proofs.
    std::vector<bool> output_mask(graph_->node_count(), false);
    for (const std::uint32_t o : outputs) output_mask[o] = true;
    bool is_cut = true;
    for (const std::uint32_t o : outputs) {
        OutputSeparation sep;
        sep.output = system.signal_name(model::SignalId{o});
        sep.in_cut = blocked[o];
        if (!sep.in_cut) {
            const std::vector<bool> reach = graph_->reach_to({o}, &blocked);
            std::vector<std::uint32_t> reach_nodes;
            for (std::uint32_t n = 0; n < reach.size(); ++n) {
                if (reach[n]) reach_nodes.push_back(n);
            }
            sep.reach = sorted_names(system, reach_nodes);
            for (const std::uint32_t e : site_nodes) {
                if (reach[e]) is_cut = false;
            }
        }
        result.outputs.push_back(std::move(sep));
    }
    result.is_cut = is_cut;
    if (is_cut) return result;

    // Counterexample: the first site (site order) with an EA-free path to
    // some output, plus that concrete path.
    for (const std::uint32_t e : site_nodes) {
        const std::vector<std::uint32_t> path =
            graph_->find_path(e, output_mask, &blocked);
        if (path.empty()) continue;
        result.witness_site = system.signal_name(model::SignalId{e});
        for (const std::uint32_t n : path) {
            result.witness_path.push_back(system.signal_name(model::SignalId{n}));
        }
        break;
    }
    result.outputs.clear();  // separation failed; the witness is the verdict
    return result;
}

std::vector<std::vector<bool>> Prover::witness_sets(
    const std::vector<model::SignalId>& candidates, SiteModel sites) const {
    const std::vector<std::uint32_t> site_nodes = error_sites(sites);
    std::vector<std::vector<bool>> sets;
    sets.reserve(candidates.size());
    for (const model::SignalId c : candidates) {
        const std::vector<bool> reaches =
            graph_->reach_to({static_cast<std::uint32_t>(c.index())});
        std::vector<bool> witness(site_nodes.size(), false);
        for (std::size_t i = 0; i < site_nodes.size(); ++i) {
            witness[i] = reaches[site_nodes[i]];
        }
        sets.push_back(std::move(witness));
    }
    return sets;
}

PlacementCheck Prover::check(const std::vector<model::SignalId>& placement,
                             SiteModel sites) const {
    const model::SystemModel& system = graph_->system();
    PlacementCheck out;
    out.sites = sites;

    const std::vector<std::uint32_t> site_nodes = error_sites(sites);
    const std::vector<std::uint32_t> outputs = output_nodes();
    for (const std::uint32_t e : site_nodes) {
        out.site_names.push_back(system.signal_name(model::SignalId{e}));
    }
    for (const std::uint32_t o : outputs) {
        out.output_names.push_back(system.signal_name(model::SignalId{o}));
    }

    out.cut = cut_check(placement, sites);

    // Propagated witness sets: an EA is unwitnessed when no site error can
    // ever propagate *into* its signal — i.e. no predecessor is reachable
    // from a site. (A site on the EA's own signal does not count: the EA
    // then observes the raw error, which the paper's exposure metric also
    // excludes — §7's IsValue/mscnt finding.)
    const std::vector<bool> from_sites = graph_->reach_from(site_nodes);
    for (const model::SignalId c : placement) {
        const auto node = static_cast<std::uint32_t>(c.index());
        bool witnessed = false;
        for (const epic::GraphEdge& e : graph_->in_edges(node)) {
            if (e.permeable() && from_sites[e.from]) witnessed = true;
        }
        if (!witnessed) out.unwitnessed.push_back(system.signal_name(c));
    }
    std::sort(out.unwitnessed.begin(), out.unwitnessed.end());

    // Shadowing: a shadows b when every site->output path through b also
    // crosses a. Equivalently: with a removed, b is no longer on any
    // site->output path. Off-path detectors (on no such path even with
    // nothing removed) are reported as unwitnessed, not as shadowed.
    const std::vector<bool> to_outputs = graph_->reach_to(outputs);
    for (const model::SignalId a : placement) {
        std::vector<bool> removed(graph_->node_count(), false);
        removed[a.index()] = true;
        const std::vector<bool> fwd = graph_->reach_from(site_nodes, &removed);
        const std::vector<bool> rev = graph_->reach_to(outputs, &removed);
        for (const model::SignalId b : placement) {
            if (a == b) continue;
            const auto nb = static_cast<std::uint32_t>(b.index());
            const bool on_path = from_sites[nb] && to_outputs[nb];
            const bool on_path_avoiding_a = fwd[nb] && rev[nb];
            if (on_path && !on_path_avoiding_a) {
                out.shadows.push_back(
                    {system.signal_name(b), system.signal_name(a), false});
            }
        }
    }
    std::sort(out.shadows.begin(), out.shadows.end(),
              [](const ShadowFact& x, const ShadowFact& y) {
                  return std::tie(x.ea, x.by) < std::tie(y.ea, y.by);
              });
    for (ShadowFact& f : out.shadows) {
        f.mutual = std::any_of(out.shadows.begin(), out.shadows.end(),
                               [&](const ShadowFact& g) {
                                   return g.ea == f.by && g.by == f.ea;
                               });
    }

    // Containment regions: modules whose errors (manifesting on their
    // output signals) the EA can ever witness.
    for (const model::SignalId c : placement) {
        const std::vector<bool> reaches =
            graph_->reach_to({static_cast<std::uint32_t>(c.index())});
        std::vector<std::string> modules;
        for (const model::ModuleId m : system.all_modules()) {
            const auto& spec = system.module(m);
            const bool witnessed = std::any_of(
                spec.outputs.begin(), spec.outputs.end(),
                [&](model::SignalId s) { return reaches[s.index()]; });
            if (witnessed) modules.push_back(system.module_name(m));
        }
        std::sort(modules.begin(), modules.end());
        out.containment[system.signal_name(c)] = std::move(modules);
    }

    // Mandatory waypoints per output: the strict dominator chain from the
    // system inputs (virtual super-source), nearest the output first.
    const DominatorTree doms = DominatorTree::dominators(*graph_);
    for (const std::uint32_t o : outputs) {
        std::vector<std::string> names;
        for (const std::uint32_t d : doms.strict_dominators(o)) {
            names.push_back(system.signal_name(model::SignalId{d}));
        }
        out.output_dominators[system.signal_name(model::SignalId{o})] =
            std::move(names);
    }
    return out;
}

}  // namespace epea::prove
