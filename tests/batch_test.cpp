// BatchRunner lane-lifecycle unit tests (DESIGN.md §14): retirement by
// convergence-prune, by the golden end, and by attribution seal; skips
// for injections at/after the golden end; width independence down to a
// single lane; and outcome equivalence against the scalar slow path.
// Campaign-scale batch-vs-scalar-vs-slow proofs live in
// fastpath_equivalence_test.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "fi/batch.hpp"
#include "fi/comparison.hpp"
#include "fi/fastpath.hpp"
#include "fi/injection.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

struct BatchFixture {
    target::ArrestmentSystem sys;
    fi::Injector injector{sys.sim()};
    std::shared_ptr<const fi::GoldenCaseData> golden;

    explicit BatchFixture(std::size_t test_case = 3) {
        sys.configure(target::standard_test_cases()[test_case]);
        golden = std::make_shared<const fi::GoldenCaseData>(
            fi::capture_golden_data(sys.sim(), target::kMaxRunTicks,
                                    /*with_snapshots=*/true));
    }

    [[nodiscard]] fi::BatchRunner make_runner(std::size_t width = 0) {
        fi::BatchRunner batch(sys.sim());
        batch.set_mode(fi::BatchRunner::Mode::kPermeability);
        batch.set_width(width);
        batch.set_golden(golden);
        return batch;
    }

    /// Scalar slow-path reference: per-signal first value-difference over
    /// the common trace prefix (what the batch kernel records online),
    /// plus whether the injection fired.
    struct SlowRef {
        bool fired = false;
        std::vector<runtime::Tick> first_diff;
    };
    [[nodiscard]] SlowRef slow(const fi::Injection& inj) {
        injector.arm({inj}, /*seed=*/1);
        sys.sim().reset();
        (void)sys.sim().run(target::kMaxRunTicks);
        SlowRef ref;
        ref.fired = injector.fired_count() > 0;
        const runtime::Trace& ir = *sys.sim().trace();
        const std::size_t n = golden->run.trace.signal_count();
        ref.first_diff.assign(n, runtime::kInvalidTick);
        for (std::size_t s = 0; s < n; ++s) {
            const model::SignalId sid{static_cast<std::uint32_t>(s)};
            const auto d = golden->run.trace.first_difference(
                ir, sid, /*include_length_mismatch=*/false);
            if (d) ref.first_diff[s] = *d;
        }
        injector.disarm();
        return ref;
    }
};

/// A broad one-shot plan over every signal: low and high bits, early and
/// mid-run moments — enough variety to exercise prune, golden-end and
/// budget retirements in one batch.
std::vector<fi::Injection> mixed_plan(const model::SystemModel& system,
                                      runtime::Tick len) {
    std::vector<fi::Injection> plan;
    for (const model::SignalId sid : system.all_signals()) {
        const unsigned width = system.signal(sid).width;
        plan.push_back(fi::Injection::into_signal(sid, 0, len / 4));
        plan.push_back(fi::Injection::into_signal(sid, width - 1, len / 2));
    }
    return plan;
}

TEST(BatchRunner, OutcomesMatchSlowPathAndLanesPruneMidBatch) {
    BatchFixture fx;
    const runtime::Tick len = fx.golden->run.length;
    const std::vector<fi::Injection> plan = mixed_plan(fx.sys.system(), len);

    fi::BatchRunner batch = fx.make_runner();
    ASSERT_TRUE(batch.ready(target::kMaxRunTicks));
    std::vector<std::size_t> tickets;
    for (const fi::Injection& inj : plan) tickets.push_back(batch.submit(inj));
    batch.flush();

    for (std::size_t i = 0; i < plan.size(); ++i) {
        const fi::BatchOutcome& oc = batch.outcome(tickets[i]);
        const BatchFixture::SlowRef ref = fx.slow(plan[i]);
        EXPECT_EQ(oc.fired, ref.fired) << "plan " << i;
        EXPECT_EQ(oc.first_diff, ref.first_diff) << "plan " << i;
        if (oc.pruned) {
            // A pruned lane re-converged with the golden run: its outcome
            // is the golden run's.
            EXPECT_EQ(oc.end_tick, len) << "plan " << i;
            EXPECT_EQ(oc.finished, fx.golden->run.finished) << "plan " << i;
        }
    }
    // The mixed plan exercises both mid-batch retirement kinds: pruned
    // lanes leave the batch while others keep running, and at least one
    // persistent divergence survives to the golden end.
    const fi::FastPathStats& st = batch.stats();
    EXPECT_EQ(st.lanes_launched, plan.size());
    EXPECT_GT(st.lanes_retired_pruned, 0U);
    EXPECT_GT(st.lanes_retired_end, 0U);
    EXPECT_EQ(st.lanes_launched, st.lanes_retired_pruned + st.lanes_retired_end +
                                     st.lanes_retired_sealed);
}

TEST(BatchRunner, InjectionAtOrAfterGoldenEndIsSkipped) {
    BatchFixture fx;
    const runtime::Tick len = fx.golden->run.length;
    const model::SignalId sid = fx.sys.system().all_signals().front();

    fi::BatchRunner batch = fx.make_runner();
    const std::size_t at_end = batch.submit(fi::Injection::into_signal(sid, 0, len));
    const std::size_t beyond =
        batch.submit(fi::Injection::into_signal(sid, 0, len + 1000));
    batch.flush();

    for (const std::size_t ticket : {at_end, beyond}) {
        const fi::BatchOutcome& oc = batch.outcome(ticket);
        EXPECT_FALSE(oc.fired);
        EXPECT_EQ(oc.end_tick, len);
        EXPECT_EQ(oc.finished, fx.golden->run.finished);
        EXPECT_FALSE(oc.pruned);
        // Never fired: no signal ever differed from the golden run.
        for (const runtime::Tick t : oc.first_diff) {
            EXPECT_EQ(t, runtime::kInvalidTick);
        }
    }
    // Skipped before any lane was launched.
    EXPECT_EQ(batch.stats().lanes_launched, 0U);
    EXPECT_EQ(batch.stats().skipped_runs, 2U);
}

TEST(BatchRunner, WidthOneMatchesWideBatch) {
    BatchFixture fx;
    const std::vector<fi::Injection> plan =
        mixed_plan(fx.sys.system(), fx.golden->run.length);

    std::vector<fi::BatchOutcome> wide;
    std::vector<fi::BatchOutcome> narrow;
    for (const std::size_t width : {std::size_t{0}, std::size_t{1}}) {
        fi::BatchRunner batch = fx.make_runner(width);
        std::vector<std::size_t> tickets;
        for (const fi::Injection& inj : plan) tickets.push_back(batch.submit(inj));
        batch.flush();
        auto& out = width == 0 ? wide : narrow;
        for (const std::size_t t : tickets) out.push_back(batch.outcome(t));
    }

    ASSERT_EQ(wide.size(), narrow.size());
    for (std::size_t i = 0; i < wide.size(); ++i) {
        EXPECT_EQ(wide[i].fired, narrow[i].fired) << "plan " << i;
        EXPECT_EQ(wide[i].end_tick, narrow[i].end_tick) << "plan " << i;
        EXPECT_EQ(wide[i].finished, narrow[i].finished) << "plan " << i;
        EXPECT_EQ(wide[i].pruned, narrow[i].pruned) << "plan " << i;
        EXPECT_EQ(wide[i].first_diff, narrow[i].first_diff) << "plan " << i;
    }
}

TEST(BatchRunner, SealedLanesRetireEarlyWithExactAttribution) {
    BatchFixture fx;
    const model::SystemModel& system = fx.sys.system();
    const runtime::Tick len = fx.golden->run.length;

    // Register the estimator's two rule shapes — direct attribution
    // (contamination witnesses + outputs) and the any-output-diff
    // ablation (outputs only) — and submit one injection per
    // (module, port, moment) to each, plus an unsealed reference runner.
    fi::BatchRunner direct = fx.make_runner();
    fi::BatchRunner ablation = fx.make_runner();
    fi::BatchRunner plain = fx.make_runner();
    struct Sub {
        model::ModuleId mid;
        std::uint32_t port;
        std::size_t direct_ticket;
        std::size_t ablation_ticket;
        std::size_t plain_ticket;
    };
    std::vector<Sub> subs;
    for (const model::ModuleId mid : system.all_modules()) {
        const auto& spec = system.module(mid);
        for (std::uint32_t port = 0; port < spec.input_count(); ++port) {
            fi::BatchRunner::SealRule direct_rule;
            for (std::uint32_t p = 0; p < spec.input_count(); ++p) {
                if (p != port) direct_rule.any_of.push_back(spec.inputs[p]);
            }
            direct_rule.all_of = spec.outputs;
            fi::BatchRunner::SealRule ablation_rule;
            ablation_rule.all_of = spec.outputs;
            const std::uint32_t dh = direct.add_seal_rule(std::move(direct_rule));
            const std::uint32_t ah = ablation.add_seal_rule(std::move(ablation_rule));
            for (const runtime::Tick at : {len / 5, len / 2}) {
                const auto inj = fi::Injection::into_module_input(mid, port, 0, at);
                subs.push_back({mid, port, direct.submit(inj, dh),
                                ablation.submit(inj, ah), plain.submit(inj)});
            }
        }
    }
    direct.flush();
    ablation.flush();
    plain.flush();

    for (const Sub& sub : subs) {
        const fi::BatchOutcome& dir = direct.outcome(sub.direct_ticket);
        const fi::BatchOutcome& abl = ablation.outcome(sub.ablation_ticket);
        const fi::BatchOutcome& ref = plain.outcome(sub.plain_ticket);
        EXPECT_EQ(dir.fired, ref.fired);
        EXPECT_EQ(abl.fired, ref.fired);
        if (!ref.fired) continue;
        // Direct attribution reads affected[]; sealed lanes may
        // under-record the first diff of a decided-not-affected output
        // (it would land after the contamination), but the attribution
        // itself must be exact.
        const fi::DirectOutcome da = fi::attribute_direct(
            system, sub.mid, sub.port, dir.first_diff);
        const fi::DirectOutcome pa = fi::attribute_direct(
            system, sub.mid, sub.port, ref.first_diff);
        EXPECT_EQ(da.affected, pa.affected);
        // The ablation rule (all outputs diffed) records every output
        // first-diff exactly — the facts its consumer reads raw.
        const auto& spec = system.module(sub.mid);
        for (const model::SignalId out : spec.outputs) {
            EXPECT_EQ(abl.first_diff[out.index()], ref.first_diff[out.index()]);
        }
    }
    EXPECT_GT(direct.stats().lanes_retired_sealed, 0U);
    EXPECT_EQ(plain.stats().lanes_retired_sealed, 0U);
    // Sealing strictly reduces executed lane ticks.
    EXPECT_LT(direct.stats().ticks_executed, plain.stats().ticks_executed);
    EXPECT_LE(ablation.stats().ticks_executed, plain.stats().ticks_executed);
}

TEST(BatchRunner, PeriodicAndRandomBitPlansAreRejected) {
    BatchFixture fx;
    fi::BatchRunner batch = fx.make_runner();
    const model::SignalId sid = fx.sys.system().all_signals().front();
    fi::Injection periodic = fi::Injection::into_signal(sid, 0, 10);
    periodic.period = 20;
    EXPECT_THROW((void)batch.submit(periodic), std::invalid_argument);
    EXPECT_THROW(
        (void)batch.submit(fi::Injection::into_signal(sid, fi::kRandomBit, 10)),
        std::invalid_argument);
    EXPECT_THROW((void)batch.submit(fi::Injection::into_signal(sid, 0, 10),
                                    /*seal=*/123),
                 std::invalid_argument);
}

}  // namespace
