#include "analysis/matrix_lint.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "epic/graph.hpp"
#include "epic/measures.hpp"
#include "util/stats.hpp"

namespace epea::analysis {
namespace {

std::string pair_name(const model::SystemModel& system, const epic::PairEntry& e) {
    // 1-based ports, matching the paper's P^M(i,k) notation.
    char buf[96];
    std::snprintf(buf, sizeof buf, "%s(%u,%u)",
                  system.module_name(e.module).c_str(), e.in_port + 1,
                  e.out_port + 1);
    return std::string(buf) + " " + system.signal_name(e.in_signal) + "->" +
           system.signal_name(e.out_signal);
}

std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

/// DFS over the propagation graph's permeable edges collecting the
/// maximum-product cycle through `start` (cycles of length >= 2; the
/// graph has no i -> i self-loop edges). Only cycles whose smallest
/// signal index is `start` are reported, so each elementary cycle
/// surfaces once. Out-of-range cells (already E030/E031) close no cycle.
void max_cycle_from(const epic::PropagationGraph& graph, std::uint32_t start,
                    std::uint32_t at, double product, std::vector<bool>& on_path,
                    std::vector<std::uint32_t>& path, double& best,
                    std::vector<std::uint32_t>& best_path) {
    for (const epic::GraphEdge& e : graph.out_edges(at)) {
        const double w = e.weight.point;
        if (!(w > 0.0 && w <= 1.0)) continue;
        if (e.to == start && path.size() >= 2) {
            if (product * w > best) {
                best = product * w;
                best_path = path;
            }
            continue;
        }
        if (e.to <= start || on_path[e.to]) continue;
        on_path[e.to] = true;
        path.push_back(e.to);
        max_cycle_from(graph, start, e.to, product * w, on_path, path, best, best_path);
        path.pop_back();
        on_path[e.to] = false;
    }
}

}  // namespace

Report lint_matrix(const epic::PermeabilityMatrix& pm, const std::string& artifact,
                   const MatrixLintOptions& options) {
    Report report;
    const model::SystemModel& system = pm.system();

    for (const epic::PairEntry& e : pm.entries()) {
        const std::string where = pair_name(system, e);
        if (!(e.value >= 0.0 && e.value <= 1.0) || std::isnan(e.value)) {
            report.add("EPEA-E030", artifact, where,
                       "permeability " + fmt(e.value) + " outside [0,1]");
            continue;
        }
        if (e.affected > e.active) {
            report.add("EPEA-E031", artifact, where,
                       "affected " + std::to_string(e.affected) + " > active " +
                           std::to_string(e.active));
            continue;
        }
        if (e.active > 0) {
            const double ratio = static_cast<double>(e.affected) /
                                 static_cast<double>(e.active);
            if (std::abs(ratio - e.value) > 1e-9) {
                report.add("EPEA-E031", artifact, where,
                           "value " + fmt(e.value) + " != affected/active " +
                               fmt(ratio));
                continue;
            }
            const util::Proportion ci = util::wilson_interval(e.affected, e.active);
            const double half_width = (ci.hi - ci.lo) / 2.0;
            if (half_width > options.max_ci_half_width) {
                report.add("EPEA-W032", artifact, where,
                           "Wilson 95% half-width " + fmt(half_width) +
                               " exceeds " + fmt(options.max_ci_half_width) +
                               " (" + std::to_string(e.active) +
                               " active runs are too few)");
            }
        }
    }

    // Weighted feedback cycles over the in-range permeable edges.
    const epic::PropagationGraph graph(pm);
    for (std::uint32_t start = 0; start < graph.node_count(); ++start) {
        double best = 0.0;
        std::vector<std::uint32_t> best_path;
        std::vector<bool> on_path(graph.node_count(), false);
        std::vector<std::uint32_t> path{start};
        on_path[start] = true;
        max_cycle_from(graph, start, start, 1.0, on_path, path, best, best_path);
        if (best < options.feedback_warn) continue;
        std::string cycle;
        for (const std::uint32_t s : best_path) {
            cycle += system.signal_name(model::SignalId{s});
            cycle += "->";
        }
        cycle += system.signal_name(model::SignalId{start});
        report.add(best >= options.feedback_error ? "EPEA-E034" : "EPEA-W033",
                   artifact, cycle,
                   "feedback cycle with permeability product " + fmt(best));
    }

    for (const model::SignalId s :
         system.signals_with_role(model::SignalRole::kSystemOutput)) {
        const auto exposure = epic::signal_exposure(pm, s);
        if (exposure && *exposure == 0.0) {
            report.add("EPEA-W035", artifact, system.signal_name(s),
                       "system output has zero error exposure; no modelled "
                       "error ever reaches this actuator");
        }
    }
    return report;
}

Report lint_matrix_csv(std::istream& in, const model::SystemModel& system,
                       const std::string& artifact,
                       const MatrixLintOptions& options) {
    Report report;
    epic::PermeabilityMatrix pm(system);
    std::string line;
    std::size_t lineno = 0;
    bool header_skipped = false;
    while (std::getline(in, line)) {
        ++lineno;
        if (line.empty()) continue;
        if (!header_skipped) {
            header_skipped = true;
            if (line.rfind("module,", 0) == 0) continue;
        }
        const std::string where = "line " + std::to_string(lineno);

        std::vector<std::string> cells;
        std::size_t from = 0;
        for (std::size_t comma = 0; comma != std::string::npos; from = comma + 1) {
            comma = line.find(',', from);
            cells.push_back(line.substr(
                from, comma == std::string::npos ? comma : comma - from));
        }
        if (cells.size() != 6) {
            report.add("EPEA-E013", artifact, where,
                       "expected 6 columns "
                       "(module,in,out,value,affected,active), got " +
                           std::to_string(cells.size()));
            continue;
        }

        const auto mid = system.find_module(cells[0]);
        if (!mid) {
            report.add("EPEA-E010", artifact, where,
                       "unknown module '" + cells[0] + "'");
            continue;
        }
        const model::ModuleSpec& mod = system.module(*mid);
        const auto port_of = [&system](const std::vector<model::SignalId>& ports,
                                       const std::string& name) {
            for (const model::SignalId sid : ports) {
                if (system.signal_name(sid) == name) return true;
            }
            return false;
        };
        if (!port_of(mod.inputs, cells[1])) {
            report.add("EPEA-E010", artifact, where,
                       "'" + cells[1] + "' is not an input of " + cells[0]);
            continue;
        }
        if (!port_of(mod.outputs, cells[2])) {
            report.add("EPEA-E010", artifact, where,
                       "'" + cells[2] + "' is not an output of " + cells[0]);
            continue;
        }

        double value = 0.0;
        std::uint64_t affected = 0;
        std::uint64_t active = 0;
        try {
            value = std::stod(cells[3]);
            affected = std::stoull(cells[4]);
            active = std::stoull(cells[5]);
        } catch (const std::exception&) {
            report.add("EPEA-E013", artifact, where, "bad numeric field");
            continue;
        }
        if (!(value >= 0.0 && value <= 1.0)) {
            report.add("EPEA-E030", artifact, where,
                       "permeability " + fmt(value) + " outside [0,1] for " +
                           cells[0] + " " + cells[1] + "->" + cells[2]);
            continue;
        }
        if (affected > active) {
            report.add("EPEA-E031", artifact, where,
                       "affected " + std::to_string(affected) + " > active " +
                           std::to_string(active));
            continue;
        }
        if (active > 0) {
            pm.set_counts(cells[0], cells[1], cells[2], affected, active);
            const double ratio =
                static_cast<double>(affected) / static_cast<double>(active);
            if (std::abs(ratio - value) > 1e-9) {
                report.add("EPEA-E031", artifact, where,
                           "value " + fmt(value) + " != affected/active " +
                               fmt(ratio));
            }
        } else {
            pm.set(cells[0], cells[1], cells[2], value);
        }
    }

    // Only run the deep checks over a structurally clean matrix; missing
    // rows would otherwise cascade into misleading cycle/exposure noise.
    if (report.error_count() == 0) {
        report.merge(lint_matrix(pm, artifact, options));
    }
    return report;
}

}  // namespace epea::analysis
