// Stage ledger: turns the obs::Tracer spans of one traced unit into
// exclusive (self) time per stage and reconciles the span time against
// clocks the tracer does not use.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hpp"
#include "util/json.hpp"

namespace perfbench {

/// Span name -> stage, the mapping `epea_tool obs report` applies.
[[nodiscard]] const char* stage_of(const std::string& span_name);

/// Clock-side description of the traced window. The reconciled budget
/// is `main_window_s + worker_clock_s`: the calling thread by the steady
/// clock, and the workers' units by the clock of the code that runs them
/// (the service's handler latency sums).
struct LedgerWindow {
    std::uint32_t main_tid = 0;
    double main_window_s = 0.0;  ///< calling thread, first to last instant
    std::size_t worker_tracks = 0;  ///< threads expected to do the work
    double worker_window_s = 0.0;   ///< each worker's lifetime
    /// Name prefix of a worker's outermost unit spans.
    std::string unit_span;
    /// Summed duration of those units by their own clock.
    double worker_clock_s = 0.0;
};

struct Ledger {
    /// Thread-seconds per stage. `idle` (worker time outside any span)
    /// is kept here too but is not part of total_s().
    std::map<std::string, double> stage_s;
    std::map<std::string, std::uint64_t> spans;
    std::uint64_t span_count = 0;
    double budget_s = 0.0;      ///< main thread + worker units, by the clocks
    double reconciled_s = 0.0;  ///< span time over the same ground
    std::size_t units = 0;      ///< traced units folded in

    /// Span time of every stage, idle excluded.
    [[nodiscard]] double total_s() const;
    [[nodiscard]] double idle_s() const;
    /// |budget - reconciled| / budget, percent.
    [[nodiscard]] double residual_pct() const;
    void add(const Ledger& other);
    [[nodiscard]] epea::util::JsonValue to_json() const;
};

[[nodiscard]] Ledger build_ledger(const std::vector<epea::obs::SpanEvent>& events,
                                  const LedgerWindow& window);

}  // namespace perfbench
