#include "analysis/placement_lint.hpp"

#include <cmath>
#include <cstdio>
#include <set>

#include "epic/graph.hpp"
#include "epic/measures.hpp"
#include "opt/cost.hpp"
#include "prove/prover.hpp"

namespace epea::analysis {
namespace {

std::string fmt(double v) {
    char buf[32];
    std::snprintf(buf, sizeof buf, "%g", v);
    return buf;
}

}  // namespace

Report lint_placement(const epic::PermeabilityMatrix& pm,
                      const std::vector<std::string>& ea_signals,
                      const std::string& artifact) {
    Report report;
    const model::SystemModel& system = pm.system();

    // Price every declared signal (from_signal_kinds skips kinds without
    // an EA type, so has() below is exactly "Table 3 covers this kind").
    const opt::CostModel costs =
        opt::CostModel::from_signal_kinds(system, system.all_signals());

    for (const std::string& name : ea_signals) {
        const auto id = system.find_signal(name);
        if (!id) {
            report.add("EPEA-E040", artifact, name,
                       "EA references a signal the model does not declare");
            continue;
        }
        const model::SignalSpec& spec = system.signal(*id);
        if (!costs.has(name)) {
            report.add("EPEA-E041", artifact, name,
                       std::string("no cost entry for ") +
                           model::to_string(spec.kind) +
                           " signals — no EA type can guard this location");
        }
        if (spec.role == model::SignalRole::kSystemInput) {
            report.add("EPEA-W042", artifact, name,
                       "EA guards a raw system input (sensor/HW register)");
            continue;  // inputs have no exposure value
        }
        const auto exposure = epic::signal_exposure(pm, *id);
        if (exposure && *exposure == 0.0) {
            report.add("EPEA-W043", artifact, name,
                       "EA guards a signal with zero error exposure; every "
                       "permeability into it is zero, so no propagated error "
                       "can ever trip the assertion");
        }
    }
    return report;
}

Report lint_placement_structure(const epic::PermeabilityMatrix& pm,
                                const std::vector<std::string>& ea_signals,
                                const std::string& artifact,
                                bool full_coverage_claim) {
    Report report;
    const model::SystemModel& system = pm.system();
    const epic::PropagationGraph graph(pm);
    const prove::Prover prover(graph);

    // Resolvable, non-input EA signals; the rest belong to
    // lint_placement (E040 unknown, W042 input).
    std::vector<model::SignalId> ids;
    for (const std::string& name : ea_signals) {
        const auto id = system.find_signal(name);
        if (!id) continue;
        if (system.signal(*id).role == model::SignalRole::kSystemInput) continue;
        ids.push_back(*id);
    }
    if (ids.empty()) return report;

    const prove::PlacementCheck check =
        prover.check(ids, prove::SiteModel::kInput);
    for (const std::string& name : check.unwitnessed) {
        report.add("EPEA-W063", artifact, name,
                   "no system-input error can ever propagate into this EA's "
                   "signal (empty witness set); the detector is provably "
                   "redundant under the paper's injection model");
    }

    if (full_coverage_claim && !check.cut.is_cut) {
        std::string path;
        for (const std::string& hop : check.cut.witness_path) {
            if (!path.empty()) path += " -> ";
            path += hop;
        }
        report.add("EPEA-W064", artifact, check.cut.witness_site,
                   "placement is labelled full-coverage but is not a vertex "
                   "cut: an error at " +
                       check.cut.witness_site +
                       " reaches a system output past every EA (" + path + ")");
    }
    return report;
}

Report lint_frontier_dot(std::istream& in,
                         const std::vector<opt::Candidate>& candidates,
                         const std::vector<std::string>& reference_labels,
                         const std::string& artifact) {
    Report report;

    std::size_t points = 0;
    std::set<std::string> labels;
    double axis_max_mem = -1.0;

    std::string line;
    while (std::getline(in, line)) {
        // Node lines look like `  p42 [pos="x,y!", ...];`
        const auto p = line.find_first_not_of(' ');
        if (p != std::string::npos && line[p] == 'p' &&
            line.find("[pos=", p) != std::string::npos) {
            ++points;
        }
        const auto xl = line.find("xlabel=\"");
        if (xl != std::string::npos) {
            const auto end = line.find('"', xl + 8);
            if (end != std::string::npos) {
                labels.insert(line.substr(xl + 8, end - (xl + 8)));
            }
        }
        // Trailing `// axes: x = memory [bytes] (max N), y = coverage`
        const auto ax = line.find("(max ");
        if (line.find("// axes:") != std::string::npos && ax != std::string::npos) {
            axis_max_mem = std::strtod(line.c_str() + ax + 5, nullptr);
        }
    }

    const std::size_t n = candidates.size();
    const std::size_t expected_points =
        n >= 1 ? (std::size_t{1} << n) - 1 : 0;
    if (points != expected_points) {
        report.add("EPEA-E046", artifact, "",
                   std::to_string(points) + " points, expected 2^" +
                       std::to_string(n) + " - 1 = " +
                       std::to_string(expected_points) +
                       " for the candidate lattice");
    }

    double full_set_memory = 0.0;
    for (const opt::Candidate& c : candidates) full_set_memory += c.cost.memory;
    if (axis_max_mem < 0.0) {
        report.add("EPEA-E044", artifact, "",
                   "no `// axes: ... (max N)` annotation; the memory axis "
                   "cannot be checked against the Table-3 cost model");
    } else if (std::abs(axis_max_mem - full_set_memory) >
               1e-4 * std::max(1.0, full_set_memory)) {
        report.add("EPEA-E044", artifact, "",
                   "memory axis max " + fmt(axis_max_mem) +
                       " B disagrees with the Table-3 cost of the full "
                       "candidate set (" +
                       fmt(full_set_memory) + " B)");
    }

    for (const std::string& expected : reference_labels) {
        if (!labels.contains(expected)) {
            report.add("EPEA-W045", artifact, expected,
                       "reference placement label missing from the frontier "
                       "export");
        }
    }
    return report;
}

}  // namespace epea::analysis
