#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "fi/comparison.hpp"
#include "fi/golden.hpp"
#include "fi/injection.hpp"
#include "fi/injector.hpp"
#include "model/builder.hpp"
#include "target/arrestment_system.hpp"

namespace epea::fi {
namespace {

// ------------------------------------------------------------ spread_ticks

TEST(SpreadTicks, CountAndRange) {
    const auto ticks = spread_ticks(0, 1000, 10);
    ASSERT_EQ(ticks.size(), 10U);
    for (const auto t : ticks) {
        EXPECT_LT(t, 1000U);
    }
    // Midpoint placement: strictly increasing.
    for (std::size_t i = 1; i < ticks.size(); ++i) {
        EXPECT_GT(ticks[i], ticks[i - 1]);
    }
}

TEST(SpreadTicks, EmptyCases) {
    EXPECT_TRUE(spread_ticks(0, 1000, 0).empty());
    EXPECT_TRUE(spread_ticks(100, 100, 5).empty());
    EXPECT_TRUE(spread_ticks(100, 50, 5).empty());
}

TEST(SpreadTicks, SingleMidpoint) {
    const auto ticks = spread_ticks(0, 100, 1);
    ASSERT_EQ(ticks.size(), 1U);
    EXPECT_EQ(ticks[0], 50U);
}

TEST(SpreadTicks, RespectsOffset) {
    const auto ticks = spread_ticks(500, 600, 4);
    for (const auto t : ticks) {
        EXPECT_GE(t, 500U);
        EXPECT_LT(t, 600U);
    }
}

TEST(SpreadTicks, StratifiedStaysInStrata) {
    util::Rng rng(5);
    for (int rep = 0; rep < 20; ++rep) {
        const auto ticks = spread_ticks(0, 1000, 10, &rng);
        ASSERT_EQ(ticks.size(), 10U);
        for (std::size_t j = 0; j < 10; ++j) {
            EXPECT_GE(ticks[j], j * 100);
            EXPECT_LT(ticks[j], (j + 1) * 100);
        }
    }
}

TEST(SpreadTicks, StratifiedVaries) {
    util::Rng rng(6);
    std::set<runtime::Tick> firsts;
    for (int rep = 0; rep < 30; ++rep) {
        firsts.insert(spread_ticks(0, 1000, 4, &rng)[0]);
    }
    EXPECT_GT(firsts.size(), 5U);
}

// --------------------------------------------------------------- Injector

TEST(Injector, OneShotSignalInjectionFiresOnce) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    const auto pacnt = sys.system().signal_id("PACNT");
    inj.arm({Injection::into_signal(pacnt, 3, 100)});
    sys.sim().reset();
    sys.sim().run(500);
    EXPECT_EQ(inj.fired_count(), 1U);
    EXPECT_EQ(inj.first_fire_tick(), 100U);
}

TEST(Injector, InactiveWhenBeyondRunEnd) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    inj.arm({Injection::into_signal(sys.system().signal_id("PACNT"), 0, 400)});
    sys.sim().reset();
    sys.sim().run(200);  // run ends before the injection tick
    EXPECT_EQ(inj.fired_count(), 0U);
    EXPECT_EQ(inj.first_fire_tick(), runtime::kInvalidTick);
}

TEST(Injector, PeriodicInjectionFiresRepeatedly) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    inj.arm({Injection::into_memory(0, 0, 10, 20)});
    sys.sim().reset();
    sys.sim().run(100);
    // Fires at ticks 10, 30, 50, 70, 90.
    EXPECT_EQ(inj.fired_count(), 5U);
    EXPECT_EQ(inj.first_fire_tick(), 10U);
}

TEST(Injector, DisarmStopsInjections) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    inj.arm({Injection::into_signal(sys.system().signal_id("PACNT"), 0, 10)});
    inj.disarm();
    sys.sim().reset();
    sys.sim().run(100);
    EXPECT_EQ(inj.fired_count(), 0U);
}

TEST(Injector, ArmResetsFireState) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    inj.arm({Injection::into_signal(sys.system().signal_id("PACNT"), 0, 10)});
    sys.sim().reset();
    sys.sim().run(50);
    EXPECT_EQ(inj.fired_count(), 1U);
    inj.arm({Injection::into_signal(sys.system().signal_id("PACNT"), 0, 10)});
    EXPECT_EQ(inj.fired_count(), 0U);
}

TEST(Injector, SignalInjectionVisibleToConsumersAndTrace) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    const GoldenRun gr = capture_golden_run(sys.sim(), target::kMaxRunTicks);

    inj.arm({Injection::into_signal(sys.system().signal_id("PACNT"), 7, 2000)});
    sys.sim().reset();
    sys.sim().run(target::kMaxRunTicks);
    // PACNT is plant-produced, nothing overwrites it within the tick:
    // the trace must show the flipped value at the injection tick.
    const auto diff =
        sys.sim().trace()->first_difference(gr.trace, sys.system().signal_id("PACNT"));
    ASSERT_TRUE(diff.has_value());
    EXPECT_EQ(*diff, 2000U);
}

TEST(Injector, ModuleInputInjectionDoesNotTouchSignal) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    const GoldenRun gr = capture_golden_run(sys.sim(), target::kMaxRunTicks);

    // Inject into CLOCK's view of i: ms_slot_nbr must diverge at the
    // injection tick while the i signal itself stays clean at that tick.
    inj.arm({Injection::into_module_input(sys.system().module_id("CLOCK"), 0, 0, 3000)});
    sys.sim().reset();
    sys.sim().run(target::kMaxRunTicks);
    const auto slot_diff = sys.sim().trace()->first_difference(
        gr.trace, sys.system().signal_id("ms_slot_nbr"));
    ASSERT_TRUE(slot_diff.has_value());
    EXPECT_EQ(*slot_diff, 3000U);
    const auto i_diff =
        sys.sim().trace()->first_difference(gr.trace, sys.system().signal_id("i"));
    EXPECT_FALSE(i_diff.has_value());
}

TEST(Injector, MemoryInjectionHitsRegisteredWord) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    // Find CLOCK.mscnt in the memory map.
    std::size_t idx = SIZE_MAX;
    for (std::size_t w = 0; w < sys.sim().memory().word_count(); ++w) {
        if (sys.sim().memory().word(w).label == "CLOCK.mscnt") idx = w;
    }
    ASSERT_NE(idx, SIZE_MAX);

    const GoldenRun gr = capture_golden_run(sys.sim(), target::kMaxRunTicks);
    inj.arm({Injection::into_memory(idx, 13, 500, 0)});
    sys.sim().reset();
    sys.sim().run(target::kMaxRunTicks);
    const auto diff =
        sys.sim().trace()->first_difference(gr.trace, sys.system().signal_id("mscnt"));
    ASSERT_TRUE(diff.has_value());
    EXPECT_EQ(*diff, 500U);
}

TEST(Injector, RandomBitIsDeterministicPerSeed) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    sys.sim().enable_trace(true);

    auto run_once = [&](std::uint64_t seed) {
        inj.arm({Injection::into_memory(0, kRandomBit, 10, 20)}, seed);
        sys.sim().reset();
        sys.sim().run(2000);
        return *sys.sim().trace();
    };
    const runtime::Trace a = run_once(77);
    const runtime::Trace b = run_once(77);
    for (const auto sid : sys.system().all_signals()) {
        EXPECT_FALSE(a.first_difference(b, sid).has_value());
    }
}

// -------------------------------------------------------------- GoldenRun

TEST(GoldenRun, CapturesFinishedRun) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[3]);
    const GoldenRun gr = capture_golden_run(sys.sim(), target::kMaxRunTicks);
    EXPECT_TRUE(gr.finished);
    EXPECT_GT(gr.length, 1000U);
    EXPECT_EQ(gr.trace.length(), gr.length);
}

// ----------------------------------------------------- direct attribution

TEST(DirectAttribution, CleanRunAffectsNothing) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    const GoldenRun gr = capture_golden_run(sys.sim(), target::kMaxRunTicks);
    sys.sim().reset();
    sys.sim().run(target::kMaxRunTicks);
    const DirectOutcome out = attribute_direct(sys.system(), sys.system().module_id("CALC"),
                                               2, first_differences(gr, *sys.sim().trace()));
    for (const bool affected : out.affected) EXPECT_FALSE(affected);
    EXPECT_EQ(out.contamination, runtime::kInvalidTick);
}

TEST(DirectAttribution, DirectEffectCounted) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    const GoldenRun gr = capture_golden_run(sys.sim(), target::kMaxRunTicks);

    // Flip a high bit of CLOCK's view of i: ms_slot_nbr (output 0) is
    // affected directly, mscnt (output 1) is not.
    inj.arm({Injection::into_module_input(sys.system().module_id("CLOCK"), 0, 2, 2500)});
    sys.sim().reset();
    sys.sim().run(target::kMaxRunTicks);
    const DirectOutcome out = attribute_direct(sys.system(), sys.system().module_id("CLOCK"),
                                               0, first_differences(gr, *sys.sim().trace()));
    EXPECT_TRUE(out.affected[0]);
    EXPECT_FALSE(out.affected[1]);
}

TEST(DirectAttribution, FeedbackContaminationExcluded) {
    // Inject CALC's pulscnt input with a high upward bit: output i is
    // directly affected; SetValue changes only after the corrupted i
    // returns through the feedback loop and must NOT count as direct.
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    const GoldenRun gr = capture_golden_run(sys.sim(), target::kMaxRunTicks);

    inj.arm({Injection::into_module_input(sys.system().module_id("CALC"), 2, 14, 3000)});
    sys.sim().reset();
    sys.sim().run(target::kMaxRunTicks);
    const DirectOutcome out = attribute_direct(sys.system(), sys.system().module_id("CALC"),
                                               2, first_differences(gr, *sys.sim().trace()));
    EXPECT_TRUE(out.affected[0]);   // i
    EXPECT_FALSE(out.affected[1]);  // SetValue: via i only
    EXPECT_NE(out.contamination, runtime::kInvalidTick);
}

TEST(FirstDifference, HelperMatchesTraceMethod) {
    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[0]);
    Injector inj(sys.sim());
    const GoldenRun gr = capture_golden_run(sys.sim(), target::kMaxRunTicks);
    inj.arm({Injection::into_module_input(sys.system().module_id("CALC"), 2, 14, 3000)});
    sys.sim().reset();
    sys.sim().run(target::kMaxRunTicks);
    const std::vector<runtime::Tick> table = first_differences(gr, *sys.sim().trace());
    ASSERT_EQ(table.size(), sys.system().signal_count());
    for (const model::SignalId sid : sys.system().all_signals()) {
        EXPECT_EQ(table[sid.index()],
                  sys.sim().trace()->first_difference(gr.trace, sid, false).value_or(
                      runtime::kInvalidTick));
    }
}

}  // namespace
}  // namespace epea::fi
