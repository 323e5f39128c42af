#include "fi/comparison.hpp"

#include <algorithm>

namespace epea::fi {

std::vector<runtime::Tick> first_differences(const GoldenRun& gr,
                                             const runtime::Trace& ir,
                                             const std::vector<model::SignalId>& signals) {
    std::vector<runtime::Tick> out(gr.trace.signal_count(), runtime::kInvalidTick);
    const auto record = [&](model::SignalId sid) {
        if (const auto t = ir.first_difference(gr.trace, sid, false)) out[sid.index()] = *t;
    };
    if (!signals.empty()) {
        for (const model::SignalId sid : signals) record(sid);
        return out;
    }
    for (std::size_t s = 0; s < out.size(); ++s) {
        record(model::SignalId{static_cast<std::uint32_t>(s)});
    }
    return out;
}

DirectOutcome attribute_direct(const model::SystemModel& system, model::ModuleId module,
                               std::uint32_t injected_port,
                               const std::vector<runtime::Tick>& first_diff_by_signal) {
    const auto& spec = system.module(module);
    DirectOutcome out;
    out.affected.assign(spec.outputs.size(), false);
    out.first_diff.assign(spec.outputs.size(), runtime::kInvalidTick);

    // Earliest contamination of any input other than the injected one.
    for (std::uint32_t p = 0; p < spec.inputs.size(); ++p) {
        if (p == injected_port) continue;
        const runtime::Tick t = first_diff_by_signal[spec.inputs[p].index()];
        if (t != runtime::kInvalidTick) out.contamination = std::min(out.contamination, t);
    }
    for (std::uint32_t k = 0; k < spec.outputs.size(); ++k) {
        const runtime::Tick t = first_diff_by_signal[spec.outputs[k].index()];
        if (t != runtime::kInvalidTick) {
            out.first_diff[k] = t;
            out.affected[k] = t <= out.contamination;
        }
    }
    return out;
}

}  // namespace epea::fi
