#include <gtest/gtest.h>

#include <cmath>
#include <sstream>

#include "analytic/validate.hpp"
#include "epic/matrix.hpp"
#include "epic/serialize.hpp"
#include "exp/paper_data.hpp"
#include "target/arrestment_system.hpp"

namespace epea::epic {
namespace {

struct MatrixFixture {
    model::SystemModel system = target::make_arrestment_model();
    PermeabilityMatrix pm{system};
};

TEST(Matrix, StartsAtZero) {
    MatrixFixture f;
    for (const auto& e : f.pm.entries()) {
        EXPECT_EQ(e.value, 0.0);
        EXPECT_EQ(e.active, 0U);
    }
}

TEST(Matrix, SetGetByPorts) {
    MatrixFixture f;
    const auto calc = f.system.module_id("CALC");
    f.pm.set(calc, 2, 0, 0.494);
    EXPECT_DOUBLE_EQ(f.pm.get(calc, 2, 0), 0.494);
    EXPECT_DOUBLE_EQ(f.pm.get(calc, 0, 0), 0.0);
}

TEST(Matrix, SetGetByNames) {
    MatrixFixture f;
    f.pm.set("CALC", "pulscnt", "i", 0.494);
    EXPECT_DOUBLE_EQ(f.pm.get("CALC", "pulscnt", "i"), 0.494);
    EXPECT_DOUBLE_EQ(f.pm.get(f.system.module_id("CALC"), 2, 0), 0.494);
}

TEST(Matrix, RejectsBadValues) {
    MatrixFixture f;
    EXPECT_THROW(f.pm.set("CALC", "pulscnt", "i", -0.1), std::invalid_argument);
    EXPECT_THROW(f.pm.set("CALC", "pulscnt", "i", 1.1), std::invalid_argument);
}

TEST(Matrix, RejectsNaN) {
    MatrixFixture f;
    EXPECT_THROW(f.pm.set("CALC", "pulscnt", "i", std::nan("")), std::invalid_argument);
    std::istringstream csv("module,in,out,value,affected,active\n"
                           "CALC,pulscnt,i,nan,0,0\n");
    EXPECT_THROW((void)load_matrix_csv(csv, f.system), std::invalid_argument);
}

// A set value replaces an earlier estimate outright: the counts the graph
// and the engine read must not outlive the value they produced.
TEST(Matrix, SetClearsEarlierCounts) {
    MatrixFixture f;
    PermeabilityMatrix pm = exp::paper_matrix(f.system);
    const auto calc = f.system.module_id("CALC");
    pm.set_counts(calc, 2, 0, 5, 10);
    pm.set(calc, 2, 0, 0.0);
    EXPECT_EQ(pm.get(calc, 2, 0), 0.0);
    EXPECT_EQ(pm.counts(calc, 2, 0).trials, 0U);
    EXPECT_EQ(analytic::exactness_check(pm).mismatches, 0U);
}

// A duplicate CSV row reaches the same state through the loader.
TEST(Matrix, DuplicateCsvRowReplacesCounts) {
    MatrixFixture f;
    std::istringstream csv("module,in,out,value,affected,active\n"
                           "CALC,pulscnt,i,0.5,5,10\n"
                           "CALC,pulscnt,i,0,0,0\n");
    const PermeabilityMatrix pm = load_matrix_csv(csv, f.system);
    EXPECT_EQ(pm.get("CALC", "pulscnt", "i"), 0.0);
    EXPECT_EQ(pm.counts(f.system.module_id("CALC"), 2, 0).trials, 0U);
}

TEST(Matrix, RejectsUnknownPairs) {
    MatrixFixture f;
    EXPECT_THROW((void)f.pm.get("CALC", "ADC", "i"), std::invalid_argument);
    EXPECT_THROW((void)f.pm.get("NOPE", "i", "i"), std::invalid_argument);
    EXPECT_THROW((void)f.pm.get("CALC", "i", "IsValue"), std::invalid_argument);
    EXPECT_THROW((void)f.pm.get(f.system.module_id("CALC"), 9, 0), std::out_of_range);
}

TEST(Matrix, CountsProduceValueAndInterval) {
    MatrixFixture f;
    const auto m = f.system.module_id("V_REG");
    f.pm.set_counts(m, 0, 0, 45, 100);
    EXPECT_DOUBLE_EQ(f.pm.get(m, 0, 0), 0.45);
    const util::Proportion p = f.pm.counts(m, 0, 0);
    EXPECT_EQ(p.hits, 45U);
    EXPECT_EQ(p.trials, 100U);
    EXPECT_LT(p.lo, 0.45);
    EXPECT_GT(p.hi, 0.45);
}

TEST(Matrix, ZeroActiveMeansZeroValue) {
    MatrixFixture f;
    const auto m = f.system.module_id("V_REG");
    f.pm.set_counts(m, 0, 0, 0, 0);
    EXPECT_EQ(f.pm.get(m, 0, 0), 0.0);
}

TEST(Matrix, EntriesAreInTable1Order) {
    MatrixFixture f;
    const auto entries = f.pm.entries();
    ASSERT_EQ(entries.size(), 25U);
    // First module is CLOCK with its two pairs.
    EXPECT_EQ(f.system.module_name(entries[0].module), "CLOCK");
    EXPECT_EQ(f.system.signal_name(entries[0].in_signal), "i");
    EXPECT_EQ(f.system.signal_name(entries[0].out_signal), "ms_slot_nbr");
    EXPECT_EQ(f.system.signal_name(entries[1].out_signal), "mscnt");
    // DIST_S pairs come output-major: all three inputs to pulscnt first.
    EXPECT_EQ(f.system.signal_name(entries[2].in_signal), "PACNT");
    EXPECT_EQ(f.system.signal_name(entries[2].out_signal), "pulscnt");
    EXPECT_EQ(f.system.signal_name(entries[3].in_signal), "TIC1");
    EXPECT_EQ(f.system.signal_name(entries[3].out_signal), "pulscnt");
    // Last entry is PRES_A.
    EXPECT_EQ(f.system.module_name(entries.back().module), "PRES_A");
}

TEST(Matrix, PaperMatrixRoundTrips) {
    const model::SystemModel system = target::make_arrestment_model();
    const PermeabilityMatrix pm = exp::paper_matrix(system);
    for (const auto& row : exp::paper_table1()) {
        EXPECT_DOUBLE_EQ(pm.get(row.module, row.in_signal, row.out_signal), row.value)
            << row.module << " " << row.in_signal << "->" << row.out_signal;
    }
    EXPECT_EQ(exp::paper_table1().size(), 25U);
}

}  // namespace
}  // namespace epea::epic
