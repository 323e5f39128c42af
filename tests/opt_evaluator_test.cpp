// Ground-truth evaluation tests (src/opt/): campaign-backed coverage with
// on-disk memoization. The key acceptance property: a repeated frontier
// run against a warm subset cache performs ZERO new campaign executions,
// proven both by the evaluator's campaign counter and by the campaign
// event journals (events.jsonl) staying untouched on disk.
#include <gtest/gtest.h>

#include "support/temp_dir.hpp"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/paper_data.hpp"
#include "opt/cache.hpp"
#include "opt/evaluator.hpp"
#include "opt/optimizer.hpp"

namespace {

using namespace epea;

namespace fs = std::filesystem;

using test::TempDir;

/// Total bytes of every events.jsonl under `dir` — the fingerprint of
/// campaign activity. Any new injection run would append journal lines.
std::uintmax_t journal_bytes(const fs::path& dir) {
    std::uintmax_t total = 0;
    for (const auto& entry : fs::recursive_directory_iterator(dir)) {
        if (entry.path().filename() == "events.jsonl") {
            total += fs::file_size(entry.path());
        }
    }
    return total;
}

opt::EvaluatorOptions tiny_options(const std::string& dir) {
    opt::EvaluatorOptions options;
    options.model = opt::ErrorModel::kInput;
    options.dir = dir;
    options.cases = 2;
    options.times_per_bit = 1;
    options.shards = 2;
    return options;
}

// ---------------------------------------------------------------- cache

TEST(OptCache, RoundTripsThroughDisk) {
    TempDir tmp("cache");
    const std::string key = opt::SubsetCache::key(
        opt::ErrorModel::kInput, 2, 1, 0x7ab1e1ULL, 20, {"pulscnt", "SetValue"});
    // The key binds subset AND experiment identity, canonically ordered.
    EXPECT_EQ(key, "input|c2|t1|s" + std::to_string(0x7ab1e1ULL) +
                       "|SetValue+pulscnt");
    // The severe model additionally pins the injection period.
    EXPECT_NE(opt::SubsetCache::key(opt::ErrorModel::kSevere, 2, 1, 1, 20, {"i"}),
              opt::SubsetCache::key(opt::ErrorModel::kSevere, 2, 1, 1, 40, {"i"}));

    {
        opt::SubsetCache cache(tmp.path.string());
        EXPECT_EQ(cache.size(), 0U);
        EXPECT_FALSE(cache.lookup(key).has_value());
        cache.store(key, opt::CacheEntry{0.5, 10, 20, 40});
        cache.flush();
    }
    opt::SubsetCache reloaded(tmp.path.string());
    ASSERT_EQ(reloaded.size(), 1U);
    const auto entry = reloaded.lookup(key);
    ASSERT_TRUE(entry.has_value());
    EXPECT_DOUBLE_EQ(entry->coverage, 0.5);
    EXPECT_EQ(entry->detected, 10U);
    EXPECT_EQ(entry->active, 20U);
    EXPECT_EQ(entry->runs, 40U);
}

TEST(OptCache, CorruptFileTreatedAsEmpty) {
    TempDir tmp("corrupt");
    {
        std::ofstream out(tmp.path / "subset_cache.json");
        out << "{ not json";
    }
    const opt::SubsetCache cache(tmp.path.string());
    EXPECT_EQ(cache.size(), 0U);
}

// ------------------------------------------------------------ evaluator

TEST(OptEvaluator, BatchesAllSubsetsIntoOneCampaign) {
    TempDir tmp("batch");
    opt::CampaignEvaluator evaluator(tiny_options(tmp.path.string()));

    // Three distinct subsets + one duplicate + the empty placement: one
    // campaign prices them all (drivers score every subset per run).
    const std::vector<std::vector<std::string>> subsets = {
        exp::paper_eh_signals(), exp::paper_pa_signals(), {"pulscnt"},
        {"pulscnt"},             {},
    };
    const std::vector<opt::CacheEntry> results = evaluator.evaluate(subsets);

    EXPECT_EQ(evaluator.campaigns_executed(), 1U);
    ASSERT_EQ(results.size(), 5U);
    // Ground truth for the input model: EH and PA detect the exact same
    // error set (Table 4's "coverage obtained was exactly the same").
    EXPECT_DOUBLE_EQ(results[0].coverage, results[1].coverage);
    EXPECT_EQ(results[0].detected, results[1].detected);
    // Detection comes from EA4 (pulscnt) alone, so {pulscnt} matches too.
    EXPECT_DOUBLE_EQ(results[2].coverage, results[0].coverage);
    EXPECT_GT(results[0].coverage, 0.0);
    // Duplicate subsets resolve identically; the empty subset covers 0.
    EXPECT_DOUBLE_EQ(results[3].coverage, results[2].coverage);
    EXPECT_DOUBLE_EQ(results[4].coverage, 0.0);
}

TEST(OptEvaluator, RejectsSignalsWithoutEa) {
    TempDir tmp("reject");
    opt::CampaignEvaluator evaluator(tiny_options(tmp.path.string()));
    EXPECT_THROW((void)evaluator.evaluate({{"TOC2"}}), std::invalid_argument);
}

TEST(OptEvaluator, WarmCacheExecutesZeroCampaigns) {
    TempDir tmp("warm");

    {
        opt::CampaignEvaluator evaluator(tiny_options(tmp.path.string()));
        (void)evaluator.evaluate({exp::paper_eh_signals(), exp::paper_pa_signals()});
        EXPECT_EQ(evaluator.campaigns_executed(), 1U);
    }
    const std::uintmax_t journal_before = journal_bytes(tmp.path);
    ASSERT_GT(journal_before, 0U);

    // A fresh evaluator over the same directory: every subset is served
    // from subset_cache.json — zero campaigns, journals untouched.
    opt::CampaignEvaluator warm(tiny_options(tmp.path.string()));
    const auto results =
        warm.evaluate({exp::paper_eh_signals(), exp::paper_pa_signals()});
    EXPECT_EQ(warm.campaigns_executed(), 0U);
    EXPECT_EQ(warm.cache_hits(), 2U);
    EXPECT_EQ(warm.cache_misses(), 0U);
    EXPECT_DOUBLE_EQ(results[0].coverage, results[1].coverage);
    EXPECT_EQ(journal_bytes(tmp.path), journal_before);
}

TEST(OptEvaluator, RefinementOnlyMeasuresNewSubsets) {
    TempDir tmp("refine");
    {
        opt::CampaignEvaluator evaluator(tiny_options(tmp.path.string()));
        (void)evaluator.evaluate({exp::paper_pa_signals()});
    }
    // Refining with one known and one new subset runs one campaign for
    // the new subset only.
    opt::CampaignEvaluator evaluator(tiny_options(tmp.path.string()));
    (void)evaluator.evaluate({exp::paper_pa_signals(), {"pulscnt"}});
    EXPECT_EQ(evaluator.cache_hits(), 1U);
    EXPECT_EQ(evaluator.cache_misses(), 1U);
    EXPECT_EQ(evaluator.campaigns_executed(), 1U);
}

// ---------------------------------------- ground-truth frontier (facade)

TEST(OptGroundTruth, FrontierValidatesC1AndRerunsFromCache) {
    TempDir tmp("frontier");
    opt::EvaluatorOptions options = tiny_options(tmp.path.string());

    opt::PlacementOptimizer optimizer = opt::PlacementOptimizer::ground_truth(options);
    const opt::Frontier frontier = optimizer.frontier();
    // All 127 subsets of the 7 EA locations, from exactly one campaign.
    EXPECT_EQ(frontier.points.size(), 127U);
    EXPECT_EQ(optimizer.campaigns_executed(), 1U);

    const opt::FrontierPoint* eh = nullptr;
    const opt::FrontierPoint* pa = nullptr;
    for (const opt::FrontierPoint& p : frontier.points) {
        if (p.label == "EH-set") eh = &p;
        if (p.label == "PA-set") pa = &p;
    }
    ASSERT_NE(eh, nullptr);
    ASSERT_NE(pa, nullptr);
    // C1 measured: identical coverage (same detection events), so both
    // sit within tolerance of the frontier; PA at ~57 % of EH cost.
    EXPECT_DOUBLE_EQ(eh->coverage, pa->coverage);
    EXPECT_LE(opt::coverage_slack(frontier.points, *eh), 0.02);
    EXPECT_LE(opt::coverage_slack(frontier.points, *pa), 0.02);
    EXPECT_LE(pa->cost.total() / eh->cost.total(), 0.65);

    const std::uintmax_t journal_before = journal_bytes(tmp.path);
    // The acceptance criterion: repeating the frontier against the warm
    // cache performs zero campaign executions.
    opt::PlacementOptimizer warm = opt::PlacementOptimizer::ground_truth(options);
    const opt::Frontier again = warm.frontier();
    EXPECT_EQ(warm.campaigns_executed(), 0U);
    EXPECT_EQ(journal_bytes(tmp.path), journal_before);
    ASSERT_EQ(again.points.size(), frontier.points.size());
    for (std::size_t i = 0; i < again.points.size(); ++i) {
        EXPECT_DOUBLE_EQ(again.points[i].coverage, frontier.points[i].coverage);
    }
}

}  // namespace
