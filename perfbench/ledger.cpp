#include "ledger.hpp"

#include <algorithm>
#include <cmath>

#include "bench.hpp"

namespace perfbench {

const char* stage_of(const std::string& name) {
    if (name == "fi.golden_capture") return "golden-build";
    if (name == "fi.fork") return "fork";
    if (name == "fi.batch_flush") return "batch-kernel";
    if (name == "fi.run" || name == "sim.run") return "scalar-run";
    if (name == "campaign.checkpoint") return "checkpoint";
    if (name == "campaign.merge") return "merge";
    if (name.rfind("campaign.", 0) == 0 || name.rfind("epic.", 0) == 0 ||
        name.rfind("exp.", 0) == 0 || name.rfind("opt.", 0) == 0) {
        return "orchestration";
    }
    return "other";
}

double Ledger::total_s() const {
    double t = 0.0;
    for (const auto& [stage, s] : stage_s) {
        if (stage != "idle") t += s;
    }
    return t;
}

double Ledger::idle_s() const {
    const auto it = stage_s.find("idle");
    return it != stage_s.end() ? it->second : 0.0;
}

double Ledger::residual_pct() const {
    return budget_s > 0.0 ? 100.0 * std::fabs(budget_s - reconciled_s) / budget_s : 0.0;
}

void Ledger::add(const Ledger& o) {
    for (const auto& [stage, s] : o.stage_s) stage_s[stage] += s;
    for (const auto& [stage, n] : o.spans) spans[stage] += n;
    span_count += o.span_count;
    budget_s += o.budget_s;
    reconciled_s += o.reconciled_s;
    units += o.units;
}

epea::util::JsonValue Ledger::to_json() const {
    using epea::util::JsonObject;
    using epea::util::JsonValue;
    const double total = total_s();
    const double traced = total + idle_s();
    JsonObject stages;
    for (const char* stage : kStages) {
        const auto it = stage_s.find(stage);
        const double s = it != stage_s.end() ? it->second : 0.0;
        const auto n = spans.find(stage);
        JsonObject row;
        row.emplace("self_s_per_unit", JsonValue(units ? s / double(units) : 0.0));
        row.emplace("share", JsonValue(traced > 0.0 ? s / traced : 0.0));
        row.emplace("spans", JsonValue(n != spans.end() ? n->second : 0));
        stages.emplace(stage, JsonValue(std::move(row)));
    }
    JsonObject o;
    o.emplace("stages", JsonValue(std::move(stages)));
    o.emplace("units", JsonValue(units));
    o.emplace("span_count", JsonValue(span_count));
    o.emplace("total_s", JsonValue(total));
    o.emplace("idle_s", JsonValue(idle_s()));
    o.emplace("budget_s", JsonValue(budget_s));
    o.emplace("reconciled_s", JsonValue(reconciled_s));
    o.emplace("residual_pct", JsonValue(residual_pct()));
    return JsonValue(std::move(o));
}

Ledger build_ledger(const std::vector<epea::obs::SpanEvent>& events,
                    const LedgerWindow& window) {
    struct Ev {
        const epea::obs::SpanEvent* e;
        double child_ns = 0.0;
    };
    std::map<std::uint32_t, std::vector<Ev>> by_track;
    for (const auto& e : events) by_track[e.tid].push_back(Ev{&e});

    Ledger ledger;
    ledger.units = 1;
    ledger.budget_s = window.main_window_s + window.worker_clock_s;
    std::size_t workers_seen = 0;
    for (auto& [tid, evs] : by_track) {
        // Parents precede the children they contain; each span's
        // duration is charged to its innermost open ancestor.
        std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
            if (a.e->start_ns != b.e->start_ns) return a.e->start_ns < b.e->start_ns;
            return a.e->dur_ns > b.e->dur_ns;
        });
        const bool is_main = tid == window.main_tid;
        std::vector<Ev*> stack;
        for (Ev& ev : evs) {
            while (!stack.empty() && stack.back()->e->start_ns + stack.back()->e->dur_ns <=
                                         ev.e->start_ns) {
                stack.pop_back();
            }
            if (!stack.empty()) {
                stack.back()->child_ns += double(ev.e->dur_ns);
            } else if (!is_main && ev.e->name.rfind(window.unit_span, 0) == 0) {
                ledger.reconciled_s += double(ev.e->dur_ns) * 1e-9;
            }
            stack.push_back(&ev);
        }
        double busy_s = 0.0;
        for (const Ev& ev : evs) {
            const double self_s = std::max(0.0, double(ev.e->dur_ns) - ev.child_ns) * 1e-9;
            const char* stage = stage_of(ev.e->name);
            ledger.stage_s[stage] += self_s;
            ++ledger.spans[stage];
            ++ledger.span_count;
            busy_s += self_s;
        }
        if (is_main) {
            ledger.reconciled_s += busy_s;
        } else {
            ++workers_seen;
            ledger.stage_s["idle"] += std::max(0.0, window.worker_window_s - busy_s);
        }
    }
    if (workers_seen < window.worker_tracks) {
        ledger.stage_s["idle"] +=
            double(window.worker_tracks - workers_seen) * window.worker_window_s;
    }
    return ledger;
}

}  // namespace perfbench
