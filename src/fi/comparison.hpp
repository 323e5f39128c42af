// Golden-run comparison — implements the paper's measurement semantics
// (§5.3): per-signal first-difference detection and "direct error"
// attribution for module outputs.
#pragma once

#include <vector>

#include "fi/golden.hpp"
#include "model/system_model.hpp"
#include "runtime/trace.hpp"

namespace epea::fi {

/// First tick (index = SignalId) at which the injection-run trace `ir`
/// differs in value from the golden run over their common prefix;
/// kInvalidTick = never. A changed run *length* is not a difference here.
/// Only `signals` are compared when given (the rest stay kInvalidTick).
/// The batch kernel records the same table online instead of
/// materializing per-lane traces.
[[nodiscard]] std::vector<runtime::Tick> first_differences(
    const GoldenRun& gr, const runtime::Trace& ir,
    const std::vector<model::SignalId>& signals = {});

/// Direct-error attribution for one module-input injection.
///
/// For an error injected into input port `injected_port` of `module`, an
/// output port counts as directly affected only if its first trace
/// difference occurs no later than the first difference observed on any
/// *other* input of the module — the paper's rule of not counting errors
/// that "propagated via one of the other outputs and then came back"
/// (§5.3). Under the kernel's unit-delay semantics a contaminated input
/// can influence outputs only on later ticks, so `<=` is the correct cut.
struct DirectOutcome {
    /// affected[k] == true when output port k was directly affected.
    std::vector<bool> affected;
    /// First difference tick per output port (kInvalidTick when none).
    std::vector<runtime::Tick> first_diff;
    /// First contamination tick over the module's other inputs
    /// (kInvalidTick when none were contaminated).
    runtime::Tick contamination = runtime::kInvalidTick;
};

/// Attribution from a per-signal first-difference table (the form
/// first_differences and the batch kernel produce).
[[nodiscard]] DirectOutcome attribute_direct(
    const model::SystemModel& system, model::ModuleId module,
    std::uint32_t injected_port, const std::vector<runtime::Tick>& first_diff_by_signal);

}  // namespace epea::fi
