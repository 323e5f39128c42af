// Semantic placement verifier (src/prove/) over the shared
// epic::PropagationGraph: hand-computed dominator and cut oracles on small
// shaped graphs, and the structural properties the subsystem promises
// system-wide — graph reach agrees with brute-force path enumeration and
// the analytic engine's positive reach, and every emitted cut certificate
// re-validates from its own serialized facts — over a seeded synth corpus.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <string>
#include <vector>

#include "analysis/matrix_lint.hpp"
#include "analytic/validate.hpp"
#include "epic/graph.hpp"
#include "model/builder.hpp"
#include "prove/certificate.hpp"
#include "prove/dominators.hpp"
#include "prove/prover.hpp"
#include "synth/generator.hpp"

namespace epea::prove {
namespace {

using epic::PropagationGraph;

std::uint32_t idx(const model::SystemModel& m, const std::string& name) {
    return static_cast<std::uint32_t>(m.signal_id(name).index());
}

/// Structure-only graph: every module input/output pair may propagate.
PropagationGraph structural(const model::SystemModel& m) {
    return PropagationGraph(epic::uniform_matrix(m, 1.0));
}

/// True when the permeable edges hold u -> t.
bool has_permeable_edge(const PropagationGraph& g, std::uint32_t u, std::uint32_t t) {
    const auto row = g.out_edges(u);
    return std::any_of(row.begin(), row.end(), [t](const epic::GraphEdge& e) {
        return e.to == t && e.permeable();
    });
}

/// in -> {a, b} -> out: the smallest reconvergent diamond.
model::SystemModel diamond() {
    model::SystemBuilder b;
    b.input("in", model::SignalKind::kContinuous, 8);
    b.intermediate("a", model::SignalKind::kContinuous, 8);
    b.intermediate("b", model::SignalKind::kContinuous, 8);
    b.output("out", model::SignalKind::kContinuous, 8);
    b.module("Ma").in("in").out("a");
    b.module("Mb").in("in").out("b");
    b.module("Join").in("a").in("b").out("out");
    return b.build();
}

/// in -> u <-> v -> out: a genuine 2-length feedback cycle (module A
/// consumes v from downstream, the >= 2-length SCC the paper's cycle
/// convention is about).
model::SystemModel two_cycle() {
    model::SystemBuilder b;
    b.input("in", model::SignalKind::kContinuous, 8);
    b.intermediate("u", model::SignalKind::kContinuous, 8);
    b.intermediate("v", model::SignalKind::kContinuous, 8);
    b.output("out", model::SignalKind::kContinuous, 8);
    b.module("A").in("in").in("v").out("u");
    b.module("B").in("u").out("v");
    b.module("C").in("v").out("out");
    return b.build();
}

TEST(Dominators, DiamondOracle) {
    const model::SystemModel m = diamond();
    const PropagationGraph g = structural(m);
    const DominatorTree dom = DominatorTree::dominators(g);

    // Every input->out path crosses in; neither diamond arm dominates.
    EXPECT_TRUE(dom.dominates(idx(m, "in"), idx(m, "out")));
    EXPECT_FALSE(dom.dominates(idx(m, "a"), idx(m, "out")));
    EXPECT_FALSE(dom.dominates(idx(m, "b"), idx(m, "out")));
    EXPECT_EQ(dom.strict_dominators(idx(m, "out")),
              std::vector<std::uint32_t>{idx(m, "in")});
    EXPECT_EQ(dom.idom(idx(m, "a")), idx(m, "in"));
    EXPECT_EQ(dom.idom(idx(m, "in")), DominatorTree::kNone);  // root child

    // Post-dominators mirror: every in->output path crosses out.
    const DominatorTree post = DominatorTree::post_dominators(g);
    EXPECT_TRUE(post.dominates(idx(m, "out"), idx(m, "in")));
    EXPECT_FALSE(post.dominates(idx(m, "a"), idx(m, "in")));
}

TEST(Dominators, ReconvergentFanInFromTwoInputs) {
    model::SystemBuilder b;
    b.input("in1", model::SignalKind::kContinuous, 8);
    b.input("in2", model::SignalKind::kContinuous, 8);
    b.intermediate("m", model::SignalKind::kContinuous, 8);
    b.output("out", model::SignalKind::kContinuous, 8);
    b.module("Mix").in("in1").in("in2").out("m");
    b.module("Drive").in("m").out("out");
    const model::SystemModel sys = b.build();

    const PropagationGraph g = structural(sys);
    const DominatorTree dom = DominatorTree::dominators(g);
    // Neither input dominates m (the other one suffices), so m hangs off
    // the virtual root; m itself is a mandatory waypoint for out.
    EXPECT_TRUE(dom.strict_dominators(idx(sys, "m")).empty());
    EXPECT_EQ(dom.idom(idx(sys, "out")), idx(sys, "m"));
    EXPECT_FALSE(dom.dominates(idx(sys, "in1"), idx(sys, "out")));
}

TEST(Dominators, TwoCycleScc) {
    const model::SystemModel m = two_cycle();
    const PropagationGraph g = structural(m);

    // The cycle u <-> v is real in the graph...
    const Prover prover(g);
    EXPECT_TRUE(prover.path_exists(idx(m, "u"), idx(m, "v")));
    EXPECT_TRUE(prover.path_exists(idx(m, "v"), idx(m, "u")));

    // ...but does not confuse the dominator fixpoint: every entry into
    // the SCC is through u, so u dominates v and not vice versa.
    const DominatorTree dom = DominatorTree::dominators(g);
    EXPECT_EQ(dom.idom(idx(m, "v")), idx(m, "u"));
    EXPECT_TRUE(dom.dominates(idx(m, "u"), idx(m, "out")));
    EXPECT_FALSE(dom.dominates(idx(m, "v"), idx(m, "u")));

    // Post: u's only way to the output is through v.
    const DominatorTree post = DominatorTree::post_dominators(g);
    EXPECT_TRUE(post.dominates(idx(m, "v"), idx(m, "u")));
}

TEST(Graph, MatrixGatesEdgesAndDropsSelfLoops) {
    model::SystemBuilder b;
    b.input("in", model::SignalKind::kContinuous, 8);
    b.intermediate("acc", model::SignalKind::kContinuous, 8);
    b.intermediate("fb", model::SignalKind::kContinuous, 8);
    b.output("out", model::SignalKind::kContinuous, 8);
    b.module("Int").in("in").in("acc").in("fb").out("acc");  // acc -> acc self pair
    b.module("Drive").in("acc").out("out");
    b.module("Leak").in("acc").out("fb");  // closes the acc -> fb -> acc cycle
    const model::SystemModel sys = b.build();

    // Structure-only: in->acc, fb->acc, acc->out, acc->fb; never acc->acc.
    EXPECT_EQ(structural(sys).edge_count(), 4U);

    // Matrix-gated: zeroed cells carry no edge. Leak's cell was measured
    // with no hit in 40 runs: point 0, Wilson upper bound above 0, so it
    // is an edge the engine composes but no error has been seen to cross.
    epic::PermeabilityMatrix pm(sys);
    pm.set("Int", "in", "acc", 0.8);
    pm.set("Int", "acc", "acc", 1.0);  // self loop, always excluded
    pm.set("Int", "fb", "acc", 1.0);
    pm.set("Drive", "acc", "out", 0.0);
    pm.set_counts("Leak", "acc", "fb", 0, 40);
    const PropagationGraph gated(pm);
    EXPECT_EQ(gated.edge_count(), 3U);
    const auto leak = gated.out_edges(idx(sys, "acc"));
    ASSERT_EQ(leak.size(), 1U);
    EXPECT_EQ(leak[0].to, idx(sys, "fb"));
    EXPECT_FALSE(leak[0].permeable());
    EXPECT_GT(leak[0].weight.hi, 0.0);

    // The zero-hit cell adds no prover reach...
    const Prover prover(gated);
    EXPECT_FALSE(prover.path_exists(idx(sys, "in"), idx(sys, "out")));
    EXPECT_TRUE(prover.path_exists(idx(sys, "in"), idx(sys, "acc")));
    EXPECT_FALSE(prover.path_exists(idx(sys, "acc"), idx(sys, "fb")));
    EXPECT_FALSE(prover.path_exists(idx(sys, "in"), idx(sys, "fb")));

    // ...no certificate edge...
    const util::JsonValue cert = graph_json(gated, SiteModel::kInput);
    const std::string edges = cert.as_object().at("edges").dump();
    EXPECT_EQ(edges, R"([["in","acc"],["fb","acc"]])");

    // ...closes no lint cycle, even at a threshold one hit in 40 clears...
    analysis::MatrixLintOptions any_cycle;
    any_cycle.feedback_warn = 1e-9;
    const auto cycle_found = [&any_cycle](const epic::PermeabilityMatrix& m) {
        const analysis::Report r = analysis::lint_matrix(m, "matrix:gated", any_cycle);
        return r.has("EPEA-W033") || r.has("EPEA-E034");
    };
    EXPECT_FALSE(cycle_found(pm));
    epic::PermeabilityMatrix hit = pm;
    hit.set_counts("Leak", "acc", "fb", 1, 40);
    EXPECT_TRUE(cycle_found(hit));

    // ...and the engine's point reach is 0 while its upper bound is not.
    const analytic::Engine engine(pm);
    const analytic::Bound fb = engine.permeability(sys.signal_id("in"), sys.signal_id("fb"));
    EXPECT_EQ(fb.point, 0.0);
    EXPECT_GT(fb.hi, 0.0);
    EXPECT_EQ(analytic::exactness_check(pm).mismatches, 0U);
}

TEST(Prover, DiamondCutCertificateAndWitness) {
    const model::SystemModel m = diamond();
    const PropagationGraph g = structural(m);
    const Prover prover(g);

    // {a, b} separates in from out: certificate, site-free reach sets.
    const CutResult both = prover.cut_check(
        {m.signal_id("a"), m.signal_id("b")}, SiteModel::kInput);
    EXPECT_TRUE(both.is_cut);
    ASSERT_EQ(both.outputs.size(), 1U);
    EXPECT_EQ(both.outputs[0].output, "out");
    EXPECT_FALSE(both.outputs[0].in_cut);
    for (const std::string& v : both.outputs[0].reach) EXPECT_NE(v, "in");

    // {a} alone leaks through b: concrete witness path, no certificate.
    const CutResult one =
        prover.cut_check({m.signal_id("a")}, SiteModel::kInput);
    EXPECT_FALSE(one.is_cut);
    EXPECT_EQ(one.witness_site, "in");
    EXPECT_EQ(one.witness_path,
              (std::vector<std::string>{"in", "b", "out"}));
    EXPECT_TRUE(one.outputs.empty());
}

TEST(Prover, DisconnectedOutputSeparatesTrivially) {
    model::SystemBuilder b;
    b.input("in", model::SignalKind::kContinuous, 8);
    b.intermediate("mid", model::SignalKind::kContinuous, 8);
    b.output("out1", model::SignalKind::kContinuous, 8);
    b.output("out2", model::SignalKind::kContinuous, 8);
    b.module("M1").in("in").out("mid");
    b.module("M2").in("mid").out("out1");
    b.module("M3").in("mid").out("out2");
    const model::SystemModel sys = b.build();

    epic::PermeabilityMatrix pm(sys);
    pm.set("M1", "in", "mid", 0.9);
    pm.set("M2", "mid", "out1", 0.9);
    pm.set("M3", "mid", "out2", 0.0);  // out2 unreachable
    const PropagationGraph g(pm);

    const DominatorTree dom = DominatorTree::dominators(g);
    EXPECT_TRUE(dom.reachable(idx(sys, "out1")));
    EXPECT_FALSE(dom.reachable(idx(sys, "out2")));

    // An EA on mid cuts out1; out2 is separated vacuously (its reach set
    // holds no error site), so the placement certifies as a cut.
    const Prover prover(g);
    const CutResult cut =
        prover.cut_check({sys.signal_id("mid")}, SiteModel::kInput);
    EXPECT_TRUE(cut.is_cut);
    ASSERT_EQ(cut.outputs.size(), 2U);
    for (const OutputSeparation& sep : cut.outputs) {
        for (const std::string& v : sep.reach) EXPECT_NE(v, "in");
    }
}

TEST(Prover, UnwitnessedAndMutualShadowing) {
    model::SystemBuilder b;
    b.input("in", model::SignalKind::kContinuous, 8);
    b.intermediate("x", model::SignalKind::kContinuous, 8);
    b.intermediate("y", model::SignalKind::kContinuous, 8);
    b.intermediate("w", model::SignalKind::kContinuous, 8);
    b.output("out", model::SignalKind::kContinuous, 8);
    b.module("M1").in("in").out("x");
    b.module("M2").in("x").out("y");
    b.module("M3").in("y").out("out");
    b.module("Side").in("in").out("w");
    const model::SystemModel sys = b.build();

    epic::PermeabilityMatrix pm(sys);
    pm.set("M1", "in", "x", 0.5);
    pm.set("M2", "x", "y", 0.5);
    pm.set("M3", "y", "out", 0.5);
    pm.set("Side", "in", "w", 0.0);  // w cut off from every error
    const PropagationGraph g(pm);
    const Prover prover(g);

    const PlacementCheck check = prover.check(
        {sys.signal_id("x"), sys.signal_id("y"), sys.signal_id("w")},
        SiteModel::kInput);
    EXPECT_EQ(check.unwitnessed, std::vector<std::string>{"w"});

    // x and y sit on the single in->out chain: each shadows the other.
    std::set<std::pair<std::string, std::string>> facts;
    for (const ShadowFact& f : check.shadows) {
        EXPECT_TRUE(f.mutual);
        facts.emplace(f.ea, f.by);
    }
    EXPECT_TRUE(facts.contains({"x", "y"}));
    EXPECT_TRUE(facts.contains({"y", "x"}));

    // Containment: x and y can witness M1/M2 errors, w witnesses nothing
    // upstream (only its own producer's footprint via its zeroed edge).
    ASSERT_TRUE(check.containment.contains("x"));
    const auto& x_region = check.containment.at("x");
    EXPECT_TRUE(std::find(x_region.begin(), x_region.end(), "M1") !=
                x_region.end());
}

TEST(Prover, WitnessSetsMatchReflexiveReach) {
    const model::SystemModel m = diamond();
    const PropagationGraph g = structural(m);
    const Prover prover(g);
    const auto sets = prover.witness_sets(
        {m.signal_id("a"), m.signal_id("out")}, SiteModel::kInput);
    ASSERT_EQ(sets.size(), 2U);
    ASSERT_EQ(sets[0].size(), 1U);  // one input site
    EXPECT_TRUE(sets[0][0]);
    EXPECT_TRUE(sets[1][0]);
}

// The subsystem's two global contracts, over a seeded synth corpus:
//  1. exactness — graph reach iff an enumerated simple path exists iff
//     engine reach > 0 (the predicate analytic::validate gates in CI);
//  2. certificates re-validate — every cut certificate's reach sets are
//     site-free and closed under reverse edges through non-cut vertices,
//     and every witness path is a real EA-free site->output path.
TEST(Prover, PropertySweepExactnessAndCertificates) {
    constexpr std::size_t kGraphs = 50;
    std::size_t cuts = 0;
    std::size_t witnesses = 0;
    for (std::size_t i = 0; i < kGraphs; ++i) {
        synth::LayeredOptions lopt;
        lopt.seed = 1000 + i;
        lopt.cycle_density = (i % 2 == 1) ? 0.25 : 0.0;
        const synth::SyntheticSystem sys = synth::random_layered_system(lopt);

        const analytic::ExactnessCheck exact =
            analytic::exactness_check(sys.matrix);
        EXPECT_EQ(exact.mismatches, 0U)
            << "seed " << lopt.seed << ": graph/enumerator/engine reachability drift at "
            << exact.worst.source << " -> " << exact.worst.observer;

        // Place an EA on every third intermediate signal and check the
        // verdict against the serialized facts alone.
        const model::SystemModel& m = *sys.system;
        std::vector<model::SignalId> placement;
        const auto intermediates =
            m.signals_with_role(model::SignalRole::kIntermediate);
        for (std::size_t k = 0; k < intermediates.size(); k += 3) {
            placement.push_back(intermediates[k]);
        }
        const PropagationGraph g(sys.matrix);
        const Prover prover(g);
        const CutResult cut = prover.cut_check(placement, SiteModel::kInput);

        std::set<std::string> cut_set(cut.cut.begin(), cut.cut.end());
        std::set<std::string> site_set;
        for (const std::uint32_t s : prover.error_sites(SiteModel::kInput)) {
            site_set.insert(m.signal_name(model::SignalId{s}));
        }
        if (cut.is_cut) {
            ++cuts;
            for (const OutputSeparation& sep : cut.outputs) {
                std::set<std::string> reach(sep.reach.begin(), sep.reach.end());
                for (const std::string& v : reach) {
                    EXPECT_FALSE(site_set.contains(v))
                        << "seed " << lopt.seed << ": error site " << v
                        << " reaches output " << sep.output;
                }
                if (sep.in_cut) continue;
                // Closure: an edge u->t with t in the reach set and u
                // outside the cut forces u into the reach set.
                for (std::uint32_t u = 0; u < g.node_count(); ++u) {
                    for (const epic::GraphEdge& e : g.out_edges(u)) {
                        if (!e.permeable()) continue;
                        const std::string un = m.signal_name(model::SignalId{u});
                        const std::string tn = m.signal_name(model::SignalId{e.to});
                        if (reach.contains(tn) && !cut_set.contains(un)) {
                            EXPECT_TRUE(reach.contains(un))
                                << "seed " << lopt.seed << ": reach set of "
                                << sep.output << " not closed at " << un;
                        }
                    }
                }
            }
        } else {
            ++witnesses;
            ASSERT_GE(cut.witness_path.size(), 1U);
            EXPECT_TRUE(site_set.contains(cut.witness_path.front()));
            EXPECT_EQ(cut.witness_path.front(), cut.witness_site);
            const auto out_id = m.find_signal(cut.witness_path.back());
            ASSERT_TRUE(out_id.has_value());
            EXPECT_EQ(m.signal(*out_id).role, model::SignalRole::kSystemOutput);
            for (const std::string& v : cut.witness_path) {
                EXPECT_FALSE(cut_set.contains(v))
                    << "seed " << lopt.seed << ": witness path crosses EA " << v;
            }
            for (std::size_t k = 0; k + 1 < cut.witness_path.size(); ++k) {
                const auto from = m.signal_id(cut.witness_path[k]);
                const auto to = m.signal_id(cut.witness_path[k + 1]);
                EXPECT_TRUE(has_permeable_edge(g, static_cast<std::uint32_t>(from.index()),
                                               static_cast<std::uint32_t>(to.index())))
                    << "seed " << lopt.seed << ": phantom edge "
                    << cut.witness_path[k] << " -> " << cut.witness_path[k + 1];
            }
        }
    }
    // The corpus must exercise both verdicts or the sweep proves nothing.
    EXPECT_GT(cuts, 0U);
    EXPECT_GT(witnesses, 0U);
}

}  // namespace
}  // namespace epea::prove
