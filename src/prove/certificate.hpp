// Serialization of prover results into the machine-checkable certificate
// document (schemas/certificate.schema.json). The document embeds the
// exact graph the prover reasoned over, so tools/validate_certificate.py
// can re-check every claim — cut closure, witness-path validity,
// dominator mandatory-waypoints, unwitnessed EAs — from the JSON alone,
// without rebuilding the C++ tool.
#pragma once

#include <string>
#include <vector>

#include "prove/prover.hpp"
#include "util/json.hpp"

namespace epea::prove {

/// Graph section shared by every certificate: signals, the distinct
/// (from, to) pairs of the permeable edges, error sites and outputs.
[[nodiscard]] util::JsonValue graph_json(const epic::PropagationGraph& graph,
                                         SiteModel sites);

/// Full check document for one (model, placement) pair.
[[nodiscard]] util::JsonValue check_json(const epic::PropagationGraph& graph,
                                         const PlacementCheck& check,
                                         const std::string& model_name,
                                         const std::string& graph_source);

/// Human-readable rendering of the same facts for the terminal.
[[nodiscard]] std::string check_text(const PlacementCheck& check,
                                     const std::string& model_name);

}  // namespace epea::prove
