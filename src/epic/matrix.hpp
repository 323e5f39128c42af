// PermeabilityMatrix — the error permeability P^M[i,k] of every module
// input/output pair (Eq. 1 of the paper; Table 1 holds the target's 25
// values). The matrix is the single input to all downstream analysis:
// exposure, trees, impact, criticality and placement.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "model/system_model.hpp"
#include "util/stats.hpp"

namespace epea::epic {

/// One input/output pair entry in Table-1 order.
struct PairEntry {
    model::ModuleId module;
    std::uint32_t in_port = 0;   // 0-based
    std::uint32_t out_port = 0;  // 0-based
    model::SignalId in_signal;
    model::SignalId out_signal;
    double value = 0.0;
    /// Estimation counts when the matrix came from fault injection
    /// (0/0 for analytically set matrices).
    std::uint64_t affected = 0;
    std::uint64_t active = 0;
};

class PermeabilityMatrix {
public:
    explicit PermeabilityMatrix(const model::SystemModel& system);

    [[nodiscard]] const model::SystemModel& system() const noexcept { return *system_; }

    [[nodiscard]] double get(model::ModuleId m, std::uint32_t in_port,
                             std::uint32_t out_port) const;
    void set(model::ModuleId m, std::uint32_t in_port, std::uint32_t out_port,
             double value);

    /// Estimation-count interface (value = affected / active).
    void set_counts(model::ModuleId m, std::uint32_t in_port, std::uint32_t out_port,
                    std::uint64_t affected, std::uint64_t active);
    [[nodiscard]] util::Proportion counts(model::ModuleId m, std::uint32_t in_port,
                                          std::uint32_t out_port) const;

    /// Name-based convenience (throws on unknown names/ports).
    [[nodiscard]] double get(const std::string& module_name,
                             const std::string& in_signal,
                             const std::string& out_signal) const;
    void set(const std::string& module_name, const std::string& in_signal,
             const std::string& out_signal, double value);
    void set_counts(const std::string& module_name, const std::string& in_signal,
                    const std::string& out_signal, std::uint64_t affected,
                    std::uint64_t active);

    /// All pairs in the paper's Table-1 order: modules in declaration
    /// order, outputs outer, inputs inner.
    [[nodiscard]] std::vector<PairEntry> entries() const;

    /// Number of pairs (25 for the arrestment target).
    [[nodiscard]] std::size_t pair_count() const noexcept;

private:
    struct Cell {
        double value = 0.0;
        std::uint64_t affected = 0;
        std::uint64_t active = 0;
    };

    [[nodiscard]] Cell& cell(model::ModuleId m, std::uint32_t in_port,
                             std::uint32_t out_port);
    [[nodiscard]] const Cell& cell(model::ModuleId m, std::uint32_t in_port,
                                   std::uint32_t out_port) const;
    void find_ports(const std::string& module_name, const std::string& in_signal,
                    const std::string& out_signal, model::ModuleId& m,
                    std::uint32_t& in_port, std::uint32_t& out_port) const;

    const model::SystemModel* system_;
    // per module: in_port-major storage [in * n_out + out]
    std::vector<std::vector<Cell>> cells_;
};

/// Every input/output pair of `system` at permeability `p`: the matrix of
/// a model that ships without a measured one (the tank). With p > 0 its
/// propagation graph is the model's structure.
[[nodiscard]] PermeabilityMatrix uniform_matrix(const model::SystemModel& system,
                                                double p);

}  // namespace epea::epic
