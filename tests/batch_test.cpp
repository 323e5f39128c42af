// BatchRunner lane-lifecycle unit tests (DESIGN.md §14): retirement by
// convergence-prune, by the golden end, and by attribution seal; skips
// for injections at/after the golden end; width independence down to a
// single lane; outcome equivalence against the scalar slow path, for
// one-shot lanes and for periodic lanes with their own flip schedules.
// Campaign-scale batch-vs-scalar-vs-slow proofs live in
// fastpath_equivalence_test.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <memory>
#include <vector>

#include "exp/arrestment_experiments.hpp"
#include "fi/batch.hpp"
#include "fi/case_runner.hpp"
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

/// Scalar reference for a coverage run: what Injector + Simulator::run
/// leave behind.
struct CoverageRef {
    bool fired = false;
    runtime::Tick end_tick = 0;
    bool finished = false;
    std::vector<std::uint64_t> monitors;
    std::vector<std::uint64_t> environment;
};

TEST(BatchRunner, PeriodicLanesMatchInjectorRuns) {
    BatchFixture fx;
    runtime::Simulator& sim = fx.sys.sim();
    ea::EaBank bank = exp::make_calibrated_bank(fx.sys.system(), {fx.golden->run.trace});
    bank.arm(sim);

    // Severe-model plans over a spread of words (random bit per firing,
    // per-run seeds), one fixed-bit plan, and one whose first firing
    // falls after the fault-free run has finished, so it never fires.
    const runtime::Tick len = fx.golden->run.length;
    std::vector<fi::Injection> plans;
    for (std::size_t w = 0; w < sim.memory().word_count(); w += 5) {
        plans.push_back(fi::Injection::into_memory(w, fi::kRandomBit, 10, 20));
    }
    plans.push_back(fi::Injection::into_memory(3, 0, 5, 20));
    plans.push_back(fi::Injection::into_memory(4, fi::kRandomBit, len + 50, 20));
    const auto seed = [](std::size_t i) { return 1000 + static_cast<std::uint64_t>(i); };

    std::vector<CoverageRef> refs;
    runtime::Snapshot end_state;
    for (std::size_t i = 0; i < plans.size(); ++i) {
        fx.injector.arm({plans[i]}, seed(i));
        sim.reset();
        const runtime::RunResult rr = sim.run(target::kMaxRunTicks);
        sim.capture_snapshot(end_state);
        refs.push_back(CoverageRef{fx.injector.fired_count() != 0, rr.ticks, rr.env_finished,
                                   end_state.monitors, end_state.environment});
    }
    fx.injector.disarm();
    ASSERT_FALSE(refs.back().fired);
    // The flips matter: some runs end in a plant state the fault-free
    // run does not reach.
    const auto& golden_end = fx.golden->boundary[len].environment;
    EXPECT_TRUE(std::any_of(refs.begin(), refs.end(), [&](const CoverageRef& r) {
        return r.environment != golden_end;
    }));

    for (const std::size_t width : {std::size_t{1}, std::size_t{7}, std::size_t{256}}) {
        fi::BatchRunner batch(sim);
        batch.set_mode(fi::BatchRunner::Mode::kCoverage);
        batch.set_width(width);
        // The fused kernel takes lanes with armed EAs.
        ASSERT_TRUE(batch.begin_periodic(target::kMaxRunTicks));
        std::vector<std::size_t> tickets;
        for (std::size_t i = 0; i < plans.size(); ++i) {
            tickets.push_back(batch.submit(plans[i], fi::BatchRunner::kNoSeal, seed(i)));
        }
        batch.flush();

        std::uint64_t ticks = 0;
        for (std::size_t i = 0; i < plans.size(); ++i) {
            const fi::BatchOutcome& oc = batch.outcome(tickets[i]);
            const CoverageRef& ref = refs[i];
            EXPECT_EQ(oc.fired, ref.fired) << "width " << width << " plan " << i;
            EXPECT_EQ(oc.end_tick, ref.end_tick) << "width " << width << " plan " << i;
            EXPECT_EQ(oc.finished, ref.finished) << "width " << width << " plan " << i;
            EXPECT_FALSE(oc.pruned) << "width " << width << " plan " << i;
            EXPECT_EQ(oc.monitors, ref.monitors) << "width " << width << " plan " << i;
            EXPECT_EQ(oc.environment, ref.environment) << "width " << width << " plan " << i;
            ticks += ref.end_tick;
        }
        // Periodic lanes fork at tick 0, never prune or seal, and simulate
        // exactly the ticks the scalar runs do.
        const fi::FastPathStats& st = batch.stats();
        EXPECT_EQ(st.lanes_launched, plans.size());
        EXPECT_EQ(st.lanes_retired_end, plans.size());
        EXPECT_EQ(st.full_runs, plans.size());
        EXPECT_EQ(st.ticks_executed, ticks);
    }
    sim.clear_monitors();
}

TEST(BatchRunner, PeriodicPlanMisuseIsRejected) {
    BatchFixture fx;
    const fi::Injection periodic = fi::Injection::into_memory(0, fi::kRandomBit, 10, 20);
    const model::SignalId sid = fx.sys.system().all_signals().front();

    // Re-flips defeat permeability's common-prefix attribution and seals.
    fi::BatchRunner perm = fx.make_runner();
    EXPECT_THROW((void)perm.submit(periodic), std::invalid_argument);
    fi::BatchRunner cov = fx.make_runner();
    cov.set_mode(fi::BatchRunner::Mode::kCoverage);
    const std::uint32_t seal = cov.add_seal_rule({});
    EXPECT_THROW((void)cov.submit(periodic, seal), std::invalid_argument);
    EXPECT_THROW((void)cov.submit(fi::Injection::into_signal(sid, 0, 10), /*seal=*/123),
                 std::invalid_argument);
    EXPECT_THROW((void)cov.submit(fi::Injection::into_signal(sid, fi::kRandomBit, 10)),
                 std::invalid_argument);

    // No start snapshot to fork from before begin_periodic().
    (void)cov.submit(periodic);
    EXPECT_THROW(cov.flush(), std::runtime_error);

    // A raised stop flag cancels a periodic flush before any lane runs.
    cov.clear();
    ASSERT_TRUE(cov.begin_periodic(target::kMaxRunTicks));
    (void)cov.submit(periodic, fi::BatchRunner::kNoSeal, 7);
    const std::atomic<bool> stop{true};
    const fi::StopScope scope(stop);
    EXPECT_THROW(cov.flush(), fi::RunCancelled);
    EXPECT_EQ(cov.stats().lanes_launched, 0U);
}

}  // namespace
