#include "prove/hints.hpp"

#include "epic/graph.hpp"

namespace epea::prove {

SiteModel site_model(opt::ErrorModel model) noexcept {
    return model == opt::ErrorModel::kInput ? SiteModel::kInput : SiteModel::kSevere;
}

opt::StructuralHints structural_hints(const epic::PermeabilityMatrix& pm,
                                      opt::ErrorModel model,
                                      const std::vector<std::string>& candidate_names) {
    const epic::PropagationGraph graph(pm);
    const Prover prover(graph);
    std::vector<model::SignalId> ids;
    ids.reserve(candidate_names.size());
    for (const std::string& name : candidate_names) {
        ids.push_back(pm.system().signal_id(name));
    }
    opt::StructuralHints hints;
    hints.site_count = prover.error_sites(site_model(model)).size();
    hints.witnesses = prover.witness_sets(ids, site_model(model));
    return hints;
}

void attach_structural_hints(opt::PlacementOptimizer& optimizer,
                             const epic::PermeabilityMatrix& pm,
                             opt::ErrorModel model) {
    std::vector<std::string> names;
    names.reserve(optimizer.candidates().size());
    for (const opt::Candidate& c : optimizer.candidates()) names.push_back(c.name);
    optimizer.set_structural_hints(structural_hints(pm, model, names));
}

}  // namespace epea::prove
