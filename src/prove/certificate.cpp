#include "prove/certificate.hpp"

#include <optional>
#include <sstream>

namespace epea::prove {

namespace {

util::JsonArray name_array(const std::vector<std::string>& names) {
    util::JsonArray arr;
    arr.reserve(names.size());
    for (const std::string& n : names) arr.emplace_back(n);
    return arr;
}

}  // namespace

util::JsonValue graph_json(const epic::PropagationGraph& graph, SiteModel sites) {
    const model::SystemModel& system = graph.system();
    util::JsonObject g;

    util::JsonArray signals;
    for (const model::SignalId s : system.all_signals()) {
        signals.emplace_back(system.signal_name(s));
    }
    g["signals"] = std::move(signals);

    // Out-rows are sorted by target, so parallel cells between the same
    // two signals are adjacent and the pairs come out sorted and unique.
    util::JsonArray edges;
    for (std::uint32_t from = 0; from < graph.node_count(); ++from) {
        std::optional<std::uint32_t> last_to;
        for (const epic::GraphEdge& e : graph.out_edges(from)) {
            if (!e.permeable() || last_to == e.to) continue;
            last_to = e.to;
            util::JsonArray edge;
            edge.emplace_back(system.signal_name(model::SignalId{from}));
            edge.emplace_back(system.signal_name(model::SignalId{e.to}));
            edges.emplace_back(std::move(edge));
        }
    }
    g["edges"] = std::move(edges);

    util::JsonArray inputs;
    for (const model::SignalId s :
         system.signals_with_role(model::SignalRole::kSystemInput)) {
        inputs.emplace_back(system.signal_name(s));
    }
    g["inputs"] = std::move(inputs);

    util::JsonArray site_names;
    const auto site_ids = sites == SiteModel::kInput
                              ? system.signals_with_role(model::SignalRole::kSystemInput)
                              : system.all_signals();
    for (const model::SignalId s : site_ids) site_names.emplace_back(system.signal_name(s));
    g["sites"] = std::move(site_names);

    util::JsonArray outputs;
    for (const model::SignalId s :
         system.signals_with_role(model::SignalRole::kSystemOutput)) {
        outputs.emplace_back(system.signal_name(s));
    }
    g["outputs"] = std::move(outputs);
    g["site_model"] = to_string(sites);
    return util::JsonValue{std::move(g)};
}

util::JsonValue check_json(const epic::PropagationGraph& graph, const PlacementCheck& check,
                           const std::string& model_name,
                           const std::string& graph_source) {
    util::JsonObject doc;
    doc["version"] = std::int64_t{1};
    doc["model"] = model_name;
    doc["graph_source"] = graph_source;  // "matrix" or "structure"
    doc["graph"] = graph_json(graph, check.sites);
    doc["placement"] = name_array(check.cut.cut);

    util::JsonObject cut;
    cut["is_cut"] = check.cut.is_cut;
    if (check.cut.is_cut) {
        util::JsonArray outputs;
        for (const OutputSeparation& sep : check.cut.outputs) {
            util::JsonObject o;
            o["output"] = sep.output;
            o["in_cut"] = sep.in_cut;
            o["reach"] = name_array(sep.reach);
            outputs.emplace_back(std::move(o));
        }
        cut["outputs"] = std::move(outputs);
    } else {
        util::JsonObject witness;
        witness["site"] = check.cut.witness_site;
        witness["path"] = name_array(check.cut.witness_path);
        cut["witness"] = std::move(witness);
    }
    doc["cut"] = std::move(cut);

    util::JsonArray shadows;
    for (const ShadowFact& f : check.shadows) {
        util::JsonObject s;
        s["ea"] = f.ea;
        s["by"] = f.by;
        s["mutual"] = f.mutual;
        shadows.emplace_back(std::move(s));
    }
    doc["shadowing"] = std::move(shadows);
    doc["unwitnessed"] = name_array(check.unwitnessed);

    util::JsonObject containment;
    for (const auto& [ea, modules] : check.containment) {
        containment[ea] = name_array(modules);
    }
    doc["containment"] = std::move(containment);

    util::JsonObject dominators;
    for (const auto& [output, doms] : check.output_dominators) {
        dominators[output] = name_array(doms);
    }
    doc["output_dominators"] = std::move(dominators);
    return util::JsonValue{std::move(doc)};
}

std::string check_text(const PlacementCheck& check, const std::string& model_name) {
    std::ostringstream out;
    const auto join = [](const std::vector<std::string>& names) {
        std::string s;
        for (std::size_t i = 0; i < names.size(); ++i) {
            if (i > 0) s += " ";
            s += names[i];
        }
        return s.empty() ? std::string{"(none)"} : s;
    };

    out << "check " << model_name << " — " << to_string(check.sites)
        << " error model, placement: " << join(check.cut.cut) << "\n\n";

    if (check.cut.is_cut) {
        out << "CUT: placement separates every error site from every output\n";
        for (const OutputSeparation& sep : check.cut.outputs) {
            if (sep.in_cut) {
                out << "  " << sep.output << ": EA on the output itself\n";
            } else {
                out << "  " << sep.output
                    << ": undetected-reach set is site-free (" << sep.reach.size()
                    << " signals)\n";
            }
        }
    } else {
        out << "NOT A CUT: error at " << check.cut.witness_site
            << " reaches an output past every EA\n";
        out << "  witness path: " << join(check.cut.witness_path) << "\n";
    }

    out << "\nunwitnessed EAs (no error can propagate into them): "
        << join(check.unwitnessed) << "\n";

    if (check.shadows.empty()) {
        out << "shadowing: none\n";
    } else {
        out << "shadowing:\n";
        for (const ShadowFact& f : check.shadows) {
            out << "  " << f.ea << " is shadowed by " << f.by
                << (f.mutual ? " (mutual)" : "") << "\n";
        }
    }

    out << "containment regions:\n";
    for (const auto& [ea, modules] : check.containment) {
        out << "  " << ea << ": " << join(modules) << "\n";
    }

    out << "mandatory waypoints (strict dominators from inputs):\n";
    for (const auto& [output, doms] : check.output_dominators) {
        out << "  " << output << ": " << join(doms) << "\n";
    }
    return std::move(out).str();
}

}  // namespace epea::prove
