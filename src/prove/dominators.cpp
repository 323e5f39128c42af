#include "prove/dominators.hpp"

#include <algorithm>

#include "model/signal.hpp"

namespace epea::prove {

namespace {

std::vector<std::uint32_t> role_nodes(const epic::PropagationGraph& graph,
                                      model::SignalRole role) {
    std::vector<std::uint32_t> nodes;
    for (const model::SignalId s : graph.system().signals_with_role(role)) {
        nodes.push_back(static_cast<std::uint32_t>(s.index()));
    }
    return nodes;
}

/// Successor and predecessor lists over the permeable edges only.
struct Adjacency {
    std::vector<std::vector<std::uint32_t>> succ;
    std::vector<std::vector<std::uint32_t>> pred;
};

Adjacency permeable_adjacency(const epic::PropagationGraph& graph) {
    Adjacency adj{std::vector<std::vector<std::uint32_t>>(graph.node_count()),
                  std::vector<std::vector<std::uint32_t>>(graph.node_count())};
    for (std::uint32_t u = 0; u < graph.node_count(); ++u) {
        for (const epic::GraphEdge& e : graph.out_edges(u)) {
            if (!e.permeable()) continue;
            adj.succ[u].push_back(e.to);
            adj.pred[e.to].push_back(u);
        }
    }
    return adj;
}

}  // namespace

DominatorTree DominatorTree::dominators(const epic::PropagationGraph& graph) {
    const Adjacency adj = permeable_adjacency(graph);
    return compute(graph.node_count(), adj.succ, adj.pred,
                   role_nodes(graph, model::SignalRole::kSystemInput));
}

DominatorTree DominatorTree::post_dominators(const epic::PropagationGraph& graph) {
    // Dominators of the edge-reversed graph rooted at the outputs.
    const Adjacency adj = permeable_adjacency(graph);
    return compute(graph.node_count(), adj.pred, adj.succ,
                   role_nodes(graph, model::SignalRole::kSystemOutput));
}

DominatorTree DominatorTree::compute(
    std::size_t signal_count, const std::vector<std::vector<std::uint32_t>>& succ,
    const std::vector<std::vector<std::uint32_t>>& pred,
    const std::vector<std::uint32_t>& roots) {
    // Augment with a virtual root at index n whose successors are `roots`.
    const std::uint32_t n = static_cast<std::uint32_t>(signal_count);
    constexpr std::uint32_t kUnset = 0xffffffffU;

    // Reverse postorder from the virtual root (iterative DFS).
    std::vector<std::uint32_t> order;  // postorder
    std::vector<std::uint8_t> state(signal_count + 1, 0);
    std::vector<std::pair<std::uint32_t, std::size_t>> stack;
    stack.emplace_back(n, 0);
    state[n] = 1;
    while (!stack.empty()) {
        auto& [u, next] = stack.back();
        const std::vector<std::uint32_t>* children =
            u == n ? &roots : &succ[u];
        if (next < children->size()) {
            const std::uint32_t v = (*children)[next++];
            if (state[v] == 0) {
                state[v] = 1;
                stack.emplace_back(v, 0);
            }
        } else {
            order.push_back(u);
            stack.pop_back();
        }
    }
    std::reverse(order.begin(), order.end());  // now reverse postorder
    std::vector<std::uint32_t> rpo_number(signal_count + 1, kUnset);
    for (std::uint32_t i = 0; i < order.size(); ++i) rpo_number[order[i]] = i;

    // Iterative Cooper–Harvey–Kennedy. idom values are node indices with
    // the virtual root represented as n.
    std::vector<std::uint32_t> idom(signal_count + 1, kUnset);
    idom[n] = n;
    const auto intersect = [&](std::uint32_t a, std::uint32_t b) {
        while (a != b) {
            while (rpo_number[a] > rpo_number[b]) a = idom[a];
            while (rpo_number[b] > rpo_number[a]) b = idom[b];
        }
        return a;
    };
    bool changed = true;
    while (changed) {
        changed = false;
        for (const std::uint32_t u : order) {
            if (u == n) continue;
            std::uint32_t new_idom = kUnset;
            // The virtual root is a predecessor of every entry node.
            const bool is_entry =
                std::find(roots.begin(), roots.end(), u) != roots.end();
            if (is_entry) new_idom = n;
            for (const std::uint32_t p : pred[u]) {
                if (rpo_number[p] == kUnset || idom[p] == kUnset) continue;
                new_idom = new_idom == kUnset ? p : intersect(new_idom, p);
            }
            if (new_idom != kUnset && idom[u] != new_idom) {
                idom[u] = new_idom;
                changed = true;
            }
        }
    }

    DominatorTree tree;
    tree.idom_.assign(signal_count, kNone);
    for (std::uint32_t u = 0; u < n; ++u) {
        if (idom[u] == kUnset) continue;  // unreachable from the root
        tree.idom_[u] = idom[u] == n ? kRoot : idom[u];
    }
    return tree;
}

std::uint32_t DominatorTree::idom(std::uint32_t node) const {
    const std::uint32_t d = idom_.at(node);
    return d == kRoot ? kNone : d;
}

bool DominatorTree::reachable(std::uint32_t node) const {
    return idom_.at(node) != kNone;
}

bool DominatorTree::dominates(std::uint32_t dom, std::uint32_t node) const {
    if (!reachable(node) || !reachable(dom)) return false;
    for (std::uint32_t v = node; v != kRoot; v = idom_[v]) {
        if (v == dom) return true;
    }
    return false;
}

std::vector<std::uint32_t> DominatorTree::strict_dominators(std::uint32_t node) const {
    std::vector<std::uint32_t> doms;
    if (!reachable(node)) return doms;
    for (std::uint32_t v = idom_[node]; v != kRoot; v = idom_[v]) doms.push_back(v);
    return doms;
}

}  // namespace epea::prove
