#include "exp/recovery.hpp"

#include <algorithm>

#include "ea/calibrate.hpp"
#include "fi/golden.hpp"
#include "fi/injector.hpp"
#include "obs/trace.hpp"

namespace epea::exp {

RecoveryResult recovery_experiment(target::ArrestmentSystem& sys,
                                   const CampaignOptions& options,
                                   const std::vector<std::string>& guarded_signals,
                                   erm::RecoveryPolicy policy) {
    obs::Span span("exp.recovery");
    const auto& system = sys.system();
    const auto cases = target::standard_test_cases();
    const std::size_t case_first = std::min(options.case_first, cases.size());
    const std::size_t case_count =
        std::min(options.case_count, cases.size() - case_first);

    sys.sim().clear_monitors();
    sys.sim().clear_recoverers();
    fi::Injector injector(sys.sim());

    RecoveryResult result;
    erm::ErmBank bank;
    const std::size_t word_count = sys.sim().memory().word_count();

    // Like the severe model, the recovery experiment injects periodic
    // plans, which need no snapshot golden; only the golden trace for
    // wrapper calibration is shared through the cache. The detection-only
    // half of each case rides periodic batch lanes (DESIGN.md §14); the
    // fused kernel declines armed recoverers, so the ERM half runs scalar.
    fi::CaseRunner front(sys.sim(), injector, options, fi::CaseRunner::Mode::kCoverage);

    for (std::size_t c = case_first; c < case_first + case_count; ++c) {
        // Global-case-index keying, as in severe_coverage_experiment.
        const std::uint64_t seed = 0xeca4e1ULL + static_cast<std::uint64_t>(c) * word_count;
        sys.configure(cases[c]);
        injector.disarm();
        sys.sim().clear_recoverers();
        const auto bare = front.golden("trace", c, options.max_ticks);
        const fi::GoldenRun& gr = bare->run;
        sys.sim().enable_trace(false);

        // (Re)calibrate the wrappers from this configuration's golden run.
        ea::EaCalibrator cal(system);
        cal.add_trace(gr.trace);
        if (c == case_first) {
            for (const auto& name : guarded_signals) {
                const model::SignalId sid = system.signal_id(name);
                bank.add("ERM:" + name, sid, cal.calibrate(sid), policy);
            }
            result.erm_cost = bank.total_cost();
        } else {
            for (std::size_t w = 0; w < bank.size(); ++w) {
                bank.at(w).set_params(cal.calibrate(bank.at(w).signal()));
            }
        }

        // Each location twice with identical flips: one flush of the
        // detection-only baseline runs, then one with the recovery
        // wrappers armed. The front leaves each run's end state in the
        // plant (and, on the scalar path, the bank) during its tally.
        front.begin_case(nullptr, options.max_ticks);
        for (const bool with_erm : {false, true}) {
            if (with_erm) bank.arm(sys.sim());
            for (std::size_t w = 0; w < word_count; ++w) {
                front.submit({fi::Injection::into_memory(w, fi::kRandomBit, 10,
                                                         options.severe_period)},
                             seed + 1 + w);
            }
            front.flush([&](std::size_t, const fi::BatchOutcome&) {
                const bool failed = sys.plant().failure_report().failed();
                if (!with_erm) {
                    ++result.runs;
                    if (failed) ++result.failures_baseline;
                    return;
                }
                if (failed) ++result.failures_with_erm;
                result.repairs += bank.total_repairs();
            });
        }
        sys.sim().clear_recoverers();
    }
    sys.sim().enable_trace(true);
    if (options.fastpath_out) options.fastpath_out->merge(front.stats());
    return result;
}

}  // namespace epea::exp
