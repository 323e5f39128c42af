// PropagationGraph — the signal-level propagation graph every analysis
// reads (DESIGN.md §16): the analytic engine's noisy-OR fixpoint, the
// placement prover and its dominators, the optimizer's prune hints and
// the matrix lint's feedback-cycle search.
//
// Nodes are the model's signals. Every matrix cell whose input and
// output signals differ and whose Wilson upper bound is positive is one
// edge u -> t, carrying its cell and its {lo, point, hi} weight.
// Module-internal same-signal loops (CALC's i -> i) are never edges, the
// paper's >= 2-length cycle convention. The graph is immutable and built
// once per matrix; epic::forward_paths stays a separate brute-force
// enumerator so the `analytic validate` exactness prong can check this
// graph against it.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "epic/matrix.hpp"

namespace epea::epic {

/// Normal quantile of every cell's Wilson interval (95 %).
inline constexpr double kWilsonZ = 1.96;

/// A permeability with Wilson-interval error bars. Cells without
/// estimation counts (analytically set matrices) have lo == point == hi.
struct Bound {
    double lo = 0.0;
    double point = 0.0;
    double hi = 0.0;
};

/// Weight of one matrix cell: the Wilson interval of its affected/active
/// counts, or its stored value three times when it has no counts.
[[nodiscard]] Bound cell_weight(const PermeabilityMatrix& pm, model::ModuleId m,
                                std::uint32_t in_port, std::uint32_t out_port);

/// One cell an error may cross: it enters `module` as signal `from` on
/// `in_port` and leaves as signal `to` on `out_port`.
struct GraphEdge {
    std::uint32_t from = 0;  ///< signal index
    std::uint32_t to = 0;    ///< signal index
    model::ModuleId module;
    std::uint32_t in_port = 0;
    std::uint32_t out_port = 0;
    Bound weight;

    /// True when the point estimate is positive: an error has been seen
    /// to cross. Reachability, dominators and certificates walk only
    /// these edges; the engine composes every edge's full interval.
    [[nodiscard]] bool permeable() const noexcept { return weight.point > 0.0; }
};

class PropagationGraph {
public:
    PropagationGraph() = delete;

    /// The graph of `pm`. The matrix's system must outlive the graph;
    /// the matrix itself need not.
    explicit PropagationGraph(const PermeabilityMatrix& pm);

    PropagationGraph(const PropagationGraph& other) = default;
    PropagationGraph(PropagationGraph&& other) = default;
    PropagationGraph& operator=(const PropagationGraph& other) = default;
    PropagationGraph& operator=(PropagationGraph&& other) = default;
    ~PropagationGraph() = default;

    [[nodiscard]] const model::SystemModel& system() const noexcept { return *system_; }
    [[nodiscard]] std::size_t node_count() const noexcept { return out_offsets_.size() - 1; }
    [[nodiscard]] std::size_t edge_count() const noexcept { return out_.size(); }

    /// Edges leaving signal `node`, sorted by target index.
    [[nodiscard]] std::span<const GraphEdge> out_edges(std::uint32_t node) const {
        return {out_.data() + out_offsets_[node], out_.data() + out_offsets_[node + 1]};
    }

    /// Edges entering signal `node`, in its producer's input-port order.
    [[nodiscard]] std::span<const GraphEdge> in_edges(std::uint32_t node) const {
        return {in_.data() + in_offsets_[node], in_.data() + in_offsets_[node + 1]};
    }

    /// Forward reachability from `seeds` over permeable edges. Seeds are
    /// reachable themselves. Nodes flagged in `blocked` (when given) are
    /// never entered *or* left — they behave as removed vertices; a
    /// blocked seed stays unreached.
    [[nodiscard]] std::vector<bool> reach_from(
        const std::vector<std::uint32_t>& seeds,
        const std::vector<bool>* blocked = nullptr) const;

    /// Reverse reachability: nodes from which some seed can be reached.
    [[nodiscard]] std::vector<bool> reach_to(
        const std::vector<std::uint32_t>& seeds,
        const std::vector<bool>* blocked = nullptr) const;

    /// Shortest permeable path (by hop count) from `from` to any node
    /// flagged in `to`, avoiding blocked vertices entirely. Empty when
    /// none exists; otherwise the full vertex sequence starting at `from`.
    [[nodiscard]] std::vector<std::uint32_t> find_path(
        std::uint32_t from, const std::vector<bool>& to,
        const std::vector<bool>* blocked = nullptr) const;

private:
    [[nodiscard]] std::vector<bool> reach(const std::vector<std::uint32_t>& seeds,
                                          const std::vector<bool>* blocked,
                                          bool forward) const;

    const model::SystemModel* system_;
    std::vector<GraphEdge> out_;  ///< grouped by `from`, then by `to`
    std::vector<std::size_t> out_offsets_;
    std::vector<GraphEdge> in_;  ///< grouped by `to`, in cell order
    std::vector<std::size_t> in_offsets_;
};

}  // namespace epea::epic
