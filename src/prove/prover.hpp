// Semantic placement verifier (DESIGN.md §16): exact structural facts
// about an EA placement, derived from the signal graph alone — no
// injections, no probabilities. Decides whether a placement's EA signals
// form a vertex cut between every error site and every system output
// (emitting a machine-checkable certificate or a concrete witness path),
// finds provably shadowed detectors, and computes per-EA containment
// regions. The same reachability core feeds sound pruning hints to the
// opt:: searches (prove/hints.hpp).
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "epic/graph.hpp"

namespace epea::prove {

/// Where errors originate — mirrors opt::ErrorModel: `kInput` puts error
/// sites on system inputs only (the paper's HW-register injections),
/// `kSevere` on every signal.
enum class SiteModel : std::uint8_t { kInput, kSevere };

[[nodiscard]] constexpr const char* to_string(SiteModel model) noexcept {
    return model == SiteModel::kInput ? "input" : "severe";
}

/// Per-output half of a cut certificate: the set of vertices that still
/// reach `output` once the cut is removed from the graph. The set is
/// closed under reverse edges through non-cut vertices and contains no
/// error site — which is the whole proof (tools/validate_certificate.py
/// re-checks both properties from the serialized form).
struct OutputSeparation {
    std::string output;
    bool in_cut = false;  ///< output signal itself carries an EA
    std::vector<std::string> reach;
};

/// Cut decision: either a certificate (per-output separations) or a
/// counterexample — a concrete site -> output path avoiding every EA.
struct CutResult {
    bool is_cut = false;
    std::vector<std::string> cut;  ///< placement signals present in the graph
    std::vector<OutputSeparation> outputs;
    std::string witness_site;                ///< set when !is_cut
    std::vector<std::string> witness_path;   ///< site..output, no EA on it
};

/// shadow fact: every error-site -> output path through `ea` also crosses
/// `by`, so removing `ea` loses no structural coverage. `mutual` marks
/// pairs that shadow each other (either may be dropped, not both).
struct ShadowFact {
    std::string ea;
    std::string by;
    bool mutual = false;
};

/// Everything `epea_tool check` reports for one placement.
struct PlacementCheck {
    SiteModel sites = SiteModel::kInput;
    std::vector<std::string> site_names;
    std::vector<std::string> output_names;
    CutResult cut;
    std::vector<ShadowFact> shadows;
    /// EAs no site error can ever propagate into (empty witness set) —
    /// statically rediscovers §7's IsValue/mscnt zero-exposure finding.
    std::vector<std::string> unwitnessed;
    /// EA signal -> modules whose errors it can ever witness.
    std::map<std::string, std::vector<std::string>> containment;
    /// Output -> strict dominators from the inputs, nearest first: the
    /// mandatory waypoints every input->output propagation crosses.
    std::map<std::string, std::vector<std::string>> output_dominators;
};

class Prover {
public:
    explicit Prover(const epic::PropagationGraph& graph) : graph_(&graph) {}

    [[nodiscard]] const epic::PropagationGraph& graph() const noexcept { return *graph_; }

    /// Error-site node indices for a site model, in signal-id order —
    /// the same ordering analytic::detection_matrix uses for its rows.
    [[nodiscard]] std::vector<std::uint32_t> error_sites(SiteModel model) const;

    /// True when an error on `from` can manifest on `to`: from == to, or
    /// a >= 1-length path of permeable graph edges exists.
    [[nodiscard]] bool path_exists(std::uint32_t from, std::uint32_t to) const;

    /// Full semantic check of a placement (cut + shadowing + containment
    /// + dominators). Placement signals not present in the system are a
    /// caller error (throws std::invalid_argument).
    [[nodiscard]] PlacementCheck check(const std::vector<model::SignalId>& placement,
                                       SiteModel sites) const;

    /// Cut decision alone (the certificate core).
    [[nodiscard]] CutResult cut_check(const std::vector<model::SignalId>& placement,
                                      SiteModel sites) const;

    /// For each candidate: the reflexive witness set — sites whose errors
    /// the candidate can ever see (site == candidate, or site reaches
    /// it). Bit i corresponds to error_sites(model)[i]. This is exactly
    /// the support of analytic::detection_matrix's candidate column.
    [[nodiscard]] std::vector<std::vector<bool>> witness_sets(
        const std::vector<model::SignalId>& candidates, SiteModel sites) const;

private:
    [[nodiscard]] std::vector<std::uint32_t> output_nodes() const;
    [[nodiscard]] std::vector<bool> to_blocked(
        const std::vector<model::SignalId>& placement) const;

    const epic::PropagationGraph* graph_;
};

}  // namespace epea::prove
