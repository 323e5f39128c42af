#include "epic/matrix.hpp"

#include <stdexcept>

namespace epea::epic {

PermeabilityMatrix::PermeabilityMatrix(const model::SystemModel& system)
    : system_(&system) {
    cells_.resize(system.module_count());
    for (const model::ModuleId mid : system.all_modules()) {
        const auto& m = system.module(mid);
        cells_[mid.index()].assign(m.input_count() * m.output_count(), Cell{});
    }
}

PermeabilityMatrix::Cell& PermeabilityMatrix::cell(model::ModuleId m,
                                                   std::uint32_t in_port,
                                                   std::uint32_t out_port) {
    const auto& spec = system_->module(m);
    if (in_port >= spec.input_count() || out_port >= spec.output_count()) {
        throw std::out_of_range("PermeabilityMatrix: port out of range for " +
                                spec.name);
    }
    return cells_[m.index()][in_port * spec.output_count() + out_port];
}

const PermeabilityMatrix::Cell& PermeabilityMatrix::cell(model::ModuleId m,
                                                         std::uint32_t in_port,
                                                         std::uint32_t out_port) const {
    return const_cast<PermeabilityMatrix*>(this)->cell(m, in_port, out_port);
}

double PermeabilityMatrix::get(model::ModuleId m, std::uint32_t in_port,
                               std::uint32_t out_port) const {
    return cell(m, in_port, out_port).value;
}

void PermeabilityMatrix::set(model::ModuleId m, std::uint32_t in_port,
                             std::uint32_t out_port, double value) {
    if (!(value >= 0.0 && value <= 1.0)) {  // NaN fails both comparisons
        throw std::invalid_argument("permeability must be in [0,1]");
    }
    // A set value replaces any earlier estimate, counts included.
    cell(m, in_port, out_port) = Cell{value, 0, 0};
}

void PermeabilityMatrix::set_counts(model::ModuleId m, std::uint32_t in_port,
                                    std::uint32_t out_port, std::uint64_t affected,
                                    std::uint64_t active) {
    Cell& c = cell(m, in_port, out_port);
    c.affected = affected;
    c.active = active;
    c.value = active > 0
                  ? static_cast<double>(affected) / static_cast<double>(active)
                  : 0.0;
}

util::Proportion PermeabilityMatrix::counts(model::ModuleId m, std::uint32_t in_port,
                                            std::uint32_t out_port) const {
    const Cell& c = cell(m, in_port, out_port);
    return util::wilson_interval(c.affected, c.active);
}

void PermeabilityMatrix::find_ports(const std::string& module_name,
                                    const std::string& in_signal,
                                    const std::string& out_signal, model::ModuleId& m,
                                    std::uint32_t& in_port,
                                    std::uint32_t& out_port) const {
    m = system_->module_id(module_name);
    const auto& spec = system_->module(m);
    const model::SignalId in_id = system_->signal_id(in_signal);
    const model::SignalId out_id = system_->signal_id(out_signal);
    bool found_in = false;
    bool found_out = false;
    for (std::uint32_t p = 0; p < spec.input_count(); ++p) {
        if (spec.inputs[p] == in_id) {
            in_port = p;
            found_in = true;
            break;
        }
    }
    for (std::uint32_t p = 0; p < spec.output_count(); ++p) {
        if (spec.outputs[p] == out_id) {
            out_port = p;
            found_out = true;
            break;
        }
    }
    if (!found_in || !found_out) {
        throw std::invalid_argument("no pair (" + in_signal + " -> " + out_signal +
                                    ") on module " + module_name);
    }
}

double PermeabilityMatrix::get(const std::string& module_name,
                               const std::string& in_signal,
                               const std::string& out_signal) const {
    model::ModuleId m;
    std::uint32_t in_port = 0;
    std::uint32_t out_port = 0;
    find_ports(module_name, in_signal, out_signal, m, in_port, out_port);
    return get(m, in_port, out_port);
}

void PermeabilityMatrix::set(const std::string& module_name,
                             const std::string& in_signal,
                             const std::string& out_signal, double value) {
    model::ModuleId m;
    std::uint32_t in_port = 0;
    std::uint32_t out_port = 0;
    find_ports(module_name, in_signal, out_signal, m, in_port, out_port);
    set(m, in_port, out_port, value);
}

void PermeabilityMatrix::set_counts(const std::string& module_name,
                                    const std::string& in_signal,
                                    const std::string& out_signal,
                                    std::uint64_t affected, std::uint64_t active) {
    model::ModuleId m;
    std::uint32_t in_port = 0;
    std::uint32_t out_port = 0;
    find_ports(module_name, in_signal, out_signal, m, in_port, out_port);
    set_counts(m, in_port, out_port, affected, active);
}

std::vector<PairEntry> PermeabilityMatrix::entries() const {
    std::vector<PairEntry> out;
    out.reserve(pair_count());
    for (const model::ModuleId mid : system_->all_modules()) {
        const auto& spec = system_->module(mid);
        for (std::uint32_t k = 0; k < spec.output_count(); ++k) {
            for (std::uint32_t i = 0; i < spec.input_count(); ++i) {
                const Cell& c = cell(mid, i, k);
                out.push_back(PairEntry{mid, i, k, spec.inputs[i], spec.outputs[k],
                                        c.value, c.affected, c.active});
            }
        }
    }
    return out;
}

std::size_t PermeabilityMatrix::pair_count() const noexcept {
    return system_->pair_count();
}

PermeabilityMatrix uniform_matrix(const model::SystemModel& system, double p) {
    PermeabilityMatrix pm(system);
    for (const PairEntry& e : pm.entries()) pm.set(e.module, e.in_port, e.out_port, p);
    return pm;
}

}  // namespace epea::epic
