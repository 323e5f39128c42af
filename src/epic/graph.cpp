#include "epic/graph.hpp"

#include <algorithm>
#include <deque>
#include <limits>

namespace epea::epic {

namespace {

/// CSR offsets of `edges`, already grouped by their `node` end.
std::vector<std::size_t> row_offsets(const std::vector<GraphEdge>& edges,
                                     std::size_t node_count,
                                     std::uint32_t GraphEdge::*node) {
    std::vector<std::size_t> offsets(node_count + 1, 0);
    for (const GraphEdge& e : edges) ++offsets[e.*node + 1];
    for (std::size_t n = 0; n < node_count; ++n) offsets[n + 1] += offsets[n];
    return offsets;
}

}  // namespace

Bound cell_weight(const PermeabilityMatrix& pm, model::ModuleId m,
                  std::uint32_t in_port, std::uint32_t out_port) {
    const util::Proportion counts = pm.counts(m, in_port, out_port);
    if (counts.trials == 0) {
        const double value = pm.get(m, in_port, out_port);
        return Bound{value, value, value};
    }
    const util::Proportion p = util::wilson_interval(counts.hits, counts.trials, kWilsonZ);
    return Bound{p.lo, p.point, p.hi};
}

PropagationGraph::PropagationGraph(const PermeabilityMatrix& pm) : system_(&pm.system()) {
    const model::SystemModel& sys = pm.system();
    for (const model::ModuleId m : sys.all_modules()) {
        const model::ModuleSpec& spec = sys.module(m);
        for (std::uint32_t i = 0; i < spec.input_count(); ++i) {
            for (std::uint32_t k = 0; k < spec.output_count(); ++k) {
                // The one edge rule: a same-signal module-internal loop
                // (CALC's i -> i) is never an edge, and neither is a cell
                // no error can cross even at its Wilson upper bound.
                if (spec.inputs[i] == spec.outputs[k]) continue;
                const Bound w = cell_weight(pm, m, i, k);
                if (!(w.hi > 0.0)) continue;
                in_.push_back(GraphEdge{spec.inputs[i].value, spec.outputs[k].value, m,
                                        i, k, w});
            }
        }
    }
    out_ = in_;
    std::stable_sort(in_.begin(), in_.end(),
                     [](const GraphEdge& a, const GraphEdge& b) { return a.to < b.to; });
    std::stable_sort(out_.begin(), out_.end(), [](const GraphEdge& a, const GraphEdge& b) {
        return a.from != b.from ? a.from < b.from : a.to < b.to;
    });
    const std::size_t n = sys.signal_count();
    in_offsets_ = row_offsets(in_, n, &GraphEdge::to);
    out_offsets_ = row_offsets(out_, n, &GraphEdge::from);
}

std::vector<bool> PropagationGraph::reach_from(const std::vector<std::uint32_t>& seeds,
                                               const std::vector<bool>* blocked) const {
    return reach(seeds, blocked, /*forward=*/true);
}

std::vector<bool> PropagationGraph::reach_to(const std::vector<std::uint32_t>& seeds,
                                             const std::vector<bool>* blocked) const {
    return reach(seeds, blocked, /*forward=*/false);
}

std::vector<bool> PropagationGraph::reach(const std::vector<std::uint32_t>& seeds,
                                          const std::vector<bool>* blocked,
                                          bool forward) const {
    std::vector<bool> seen(node_count(), false);
    std::deque<std::uint32_t> queue;
    for (const std::uint32_t s : seeds) {
        if (blocked != nullptr && (*blocked)[s]) continue;
        if (seen[s]) continue;
        seen[s] = true;
        queue.push_back(s);
    }
    while (!queue.empty()) {
        const std::uint32_t u = queue.front();
        queue.pop_front();
        for (const GraphEdge& e : forward ? out_edges(u) : in_edges(u)) {
            if (!e.permeable()) continue;
            const std::uint32_t v = forward ? e.to : e.from;
            if (seen[v]) continue;
            if (blocked != nullptr && (*blocked)[v]) continue;
            seen[v] = true;
            queue.push_back(v);
        }
    }
    return seen;
}

std::vector<std::uint32_t> PropagationGraph::find_path(std::uint32_t from,
                                                       const std::vector<bool>& to,
                                                       const std::vector<bool>* blocked) const {
    constexpr std::uint32_t kNoParent = std::numeric_limits<std::uint32_t>::max();
    if (blocked != nullptr && (*blocked)[from]) return {};
    std::vector<std::uint32_t> parent(node_count(), kNoParent);
    std::vector<bool> seen(node_count(), false);
    std::deque<std::uint32_t> queue;
    seen[from] = true;
    queue.push_back(from);
    std::uint32_t hit = kNoParent;
    if (to[from]) hit = from;
    while (hit == kNoParent && !queue.empty()) {
        const std::uint32_t u = queue.front();
        queue.pop_front();
        for (const GraphEdge& e : out_edges(u)) {
            if (!e.permeable()) continue;
            const std::uint32_t v = e.to;
            if (seen[v]) continue;
            if (blocked != nullptr && (*blocked)[v]) continue;
            seen[v] = true;
            parent[v] = u;
            if (to[v]) {
                hit = v;
                break;
            }
            queue.push_back(v);
        }
    }
    if (hit == kNoParent) return {};
    std::vector<std::uint32_t> path;
    for (std::uint32_t v = hit; v != kNoParent; v = parent[v]) path.push_back(v);
    std::reverse(path.begin(), path.end());
    return path;
}

}  // namespace epea::epic
