// Dominator / post-dominator trees over the signal graph (DESIGN.md §16).
//
// The graph is augmented with a virtual super-source (predecessor of every
// system input) and super-sink (successor of every system output), so the
// analysis is well defined even with multiple inputs/outputs. A signal d
// dominates s when every input->s propagation path crosses d; d
// post-dominates s when every s->output path crosses d. The iterative
// Cooper–Harvey–Kennedy scheme over a reverse-postorder numbering handles
// the target's CALC/DIST_S feedback cycle without special casing.
#pragma once

#include <cstdint>
#include <vector>

#include "epic/graph.hpp"

namespace epea::prove {

/// Dominator tree rooted at a virtual node. idom(root) == root; nodes not
/// reachable from the root have no immediate dominator.
class DominatorTree {
public:
    static constexpr std::uint32_t kNone = 0xffffffffU;

    /// Dominators from the virtual super-source (entry = system inputs).
    [[nodiscard]] static DominatorTree dominators(const epic::PropagationGraph& graph);

    /// Post-dominators toward the virtual super-sink (exit = outputs);
    /// computed as dominators of the reversed graph.
    [[nodiscard]] static DominatorTree post_dominators(const epic::PropagationGraph& graph);

    /// Immediate dominator of a signal index; kNone when the node is the
    /// virtual root's direct child or unreachable.
    [[nodiscard]] std::uint32_t idom(std::uint32_t node) const;

    [[nodiscard]] bool reachable(std::uint32_t node) const;

    /// True when `dom` dominates `node` (reflexive: dominates(n, n)).
    [[nodiscard]] bool dominates(std::uint32_t dom, std::uint32_t node) const;

    /// Strict dominators of `node`, nearest first (virtual root excluded).
    [[nodiscard]] std::vector<std::uint32_t> strict_dominators(std::uint32_t node) const;

private:
    [[nodiscard]] static DominatorTree compute(
        std::size_t signal_count,
        const std::vector<std::vector<std::uint32_t>>& succ,
        const std::vector<std::vector<std::uint32_t>>& pred,
        const std::vector<std::uint32_t>& roots);

    // idom_ is indexed by signal index; the virtual root is implicit
    // (nodes whose every input->node path starts at the root directly
    // get kRoot as their idom).
    static constexpr std::uint32_t kRoot = 0xfffffffeU;
    std::vector<std::uint32_t> idom_;
};

}  // namespace epea::prove
