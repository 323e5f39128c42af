// Fast-vs-full equivalence proofs (DESIGN.md §9, §14): every campaign
// kind — permeability, input coverage, severe, recovery — and the opt::
// subset evaluator must produce bit-identical results across all three
// execution paths: the batched SoA kernel, the scalar fast path, and the
// slow reference. These are the paired runs the acceptance criteria
// require; the small-scale mechanics are covered by fastpath_test and
// batch_test.
#include <gtest/gtest.h>

#include "support/temp_dir.hpp"

#include <filesystem>
#include <sstream>

#include "campaign/executor.hpp"
#include "epic/serialize.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/recovery.hpp"
#include "opt/evaluator.hpp"
#include "target/arrestment_system.hpp"

namespace {

using namespace epea;

namespace fs = std::filesystem;

using test::TempDir;

exp::CampaignOptions tiny_campaign(bool fastpath, fi::FastPathStats* stats,
                                   bool batch = false) {
    exp::CampaignOptions o;
    o.case_count = 2;
    o.times_per_bit = 2;
    o.use_fastpath = fastpath;
    o.use_batch = batch;
    o.fastpath_out = stats;
    return o;
}

std::string matrix_csv(const epic::PermeabilityMatrix& pm) {
    std::ostringstream out;
    epic::save_matrix_csv(out, pm);
    return out.str();
}

TEST(FastpathEquivalence, PermeabilityMatrixBitIdentical) {
    target::ArrestmentSystem sys;
    fi::FastPathStats batch_stats;
    fi::FastPathStats fast_stats;
    fi::FastPathStats slow_stats;

    const epic::PermeabilityMatrix batch = exp::estimate_arrestment_permeability(
        sys, tiny_campaign(true, &batch_stats, /*batch=*/true));
    const epic::PermeabilityMatrix fast =
        exp::estimate_arrestment_permeability(sys, tiny_campaign(true, &fast_stats));
    const epic::PermeabilityMatrix slow =
        exp::estimate_arrestment_permeability(sys, tiny_campaign(false, &slow_stats));

    EXPECT_EQ(matrix_csv(fast), matrix_csv(slow));
    EXPECT_EQ(matrix_csv(batch), matrix_csv(slow));
    // The fast path actually engaged: runs forked from snapshots and a
    // meaningful share of golden ticks was reused.
    EXPECT_GT(fast_stats.forked_runs, 0U);
    EXPECT_GT(fast_stats.ticks_saved, fast_stats.ticks_executed);
    EXPECT_EQ(fast_stats.lanes_launched, 0U);
    EXPECT_EQ(slow_stats.forked_runs, 0U);
    EXPECT_EQ(slow_stats.pruned_runs, 0U);
    EXPECT_EQ(fast_stats.runs(), slow_stats.runs());
    // The batch arm ran its plans as lanes — with every retirement kind
    // exercised, sealing included — and executed no scalar forks.
    EXPECT_EQ(batch_stats.runs(), slow_stats.runs());
    EXPECT_EQ(batch_stats.lanes_launched,
              batch_stats.forked_runs + batch_stats.full_runs);
    EXPECT_GT(batch_stats.lanes_launched, 0U);
    EXPECT_GT(batch_stats.lanes_retired_pruned, 0U);
    EXPECT_GT(batch_stats.lanes_retired_sealed, 0U);
    EXPECT_LT(batch_stats.ticks_executed, fast_stats.ticks_executed);
}

std::vector<exp::SubsetSpec> paper_subsets() {
    return {{"EH", {"EA1", "EA3", "EA6"}}, {"PA", {"EA2", "EA4", "EA5", "EA7"}}};
}

void expect_rows_equal(const exp::InputCoverageRow& a, const exp::InputCoverageRow& b) {
    EXPECT_EQ(a.signal, b.signal);
    EXPECT_EQ(a.injected, b.injected);
    EXPECT_EQ(a.active, b.active);
    EXPECT_EQ(a.detected_any, b.detected_any);
    EXPECT_EQ(a.detected_per_ea, b.detected_per_ea);
    EXPECT_EQ(a.detected_per_subset, b.detected_per_subset);
    EXPECT_EQ(a.latency.count(), b.latency.count());
    EXPECT_EQ(a.latency.sum(), b.latency.sum());
    EXPECT_EQ(a.latency.min(), b.latency.min());
    EXPECT_EQ(a.latency.max(), b.latency.max());
}

TEST(FastpathEquivalence, InputCoverageBitIdentical) {
    target::ArrestmentSystem sys;
    fi::FastPathStats batch_stats;
    fi::FastPathStats fast_stats;
    fi::FastPathStats slow_stats;

    exp::InputCoverageOptions batch_opt;
    batch_opt.campaign = tiny_campaign(true, &batch_stats, /*batch=*/true);
    exp::InputCoverageOptions fast_opt;
    fast_opt.campaign = tiny_campaign(true, &fast_stats);
    exp::InputCoverageOptions slow_opt;
    slow_opt.campaign = tiny_campaign(false, &slow_stats);

    const exp::InputCoverageResult batch =
        exp::input_coverage_experiment(sys, batch_opt, paper_subsets());
    const exp::InputCoverageResult fast =
        exp::input_coverage_experiment(sys, fast_opt, paper_subsets());
    const exp::InputCoverageResult slow =
        exp::input_coverage_experiment(sys, slow_opt, paper_subsets());

    ASSERT_EQ(fast.rows.size(), slow.rows.size());
    ASSERT_EQ(batch.rows.size(), slow.rows.size());
    EXPECT_EQ(fast.ea_names, slow.ea_names);
    EXPECT_EQ(batch.ea_names, slow.ea_names);
    for (std::size_t r = 0; r < fast.rows.size(); ++r) {
        expect_rows_equal(fast.rows[r], slow.rows[r]);
        expect_rows_equal(batch.rows[r], slow.rows[r]);
    }
    expect_rows_equal(fast.all, slow.all);
    expect_rows_equal(batch.all, slow.all);
    EXPECT_GT(fast_stats.forked_runs + fast_stats.skipped_runs, 0U);
    EXPECT_EQ(fast_stats.lanes_launched, 0U);
    // Coverage-mode lanes carry armed EAs through the batch kernel.
    EXPECT_GT(batch_stats.lanes_launched, 0U);
    EXPECT_EQ(slow_stats.forked_runs, 0U);
}

TEST(FastpathEquivalence, SevereCoverageBitIdentical) {
    target::ArrestmentSystem sys;

    // Three arms: periodic batch lanes, the scalar path with the batch
    // kernel off, and the reference slow path (--no-fastpath).
    struct Arm {
        bool fastpath;
        bool batch;
        fi::FastPathStats stats;
        exp::SevereCoverageResult result;
    };
    std::vector<Arm> arms = {{true, true, {}, {}}, {true, false, {}, {}}, {false, true, {}, {}}};
    for (Arm& arm : arms) {
        exp::CampaignOptions opt = tiny_campaign(arm.fastpath, &arm.stats, arm.batch);
        opt.case_count = 1;
        arm.result = exp::severe_coverage_experiment(sys, opt, paper_subsets());
    }

    const exp::SevereCoverageResult& ref = arms.back().result;
    for (const Arm& arm : arms) {
        SCOPED_TRACE(testing::Message() << "fastpath " << arm.fastpath << " batch " << arm.batch);
        EXPECT_EQ(arm.result.runs, ref.runs);
        EXPECT_EQ(arm.result.failures, ref.failures);
        ASSERT_EQ(arm.result.sets.size(), ref.sets.size());
        for (std::size_t s = 0; s < ref.sets.size(); ++s) {
            for (std::size_t r = 0; r < 3; ++r) {
                for (std::size_t k = 0; k < 3; ++k) {
                    EXPECT_EQ(arm.result.sets[s].cells[r][k].n, ref.sets[s].cells[r][k].n);
                    EXPECT_EQ(arm.result.sets[s].cells[r][k].detected,
                              ref.sets[s].cells[r][k].detected);
                }
            }
        }
        // Every arm simulates the same ticks: periodic runs neither fork
        // nor prune, batched or not.
        EXPECT_EQ(arm.stats.ticks_executed, arms.back().stats.ticks_executed);
        EXPECT_EQ(arm.stats.forked_runs, 0U);
        EXPECT_EQ(arm.stats.pruned_runs, 0U);
        // Only the golden trace for calibration comes through the cache.
        EXPECT_EQ(arm.stats.cache_misses, 1U);
    }
    // The batch arm runs every severe run as a lane; the others none.
    EXPECT_EQ(arms[0].stats.lanes_launched, arms[0].result.runs);
    EXPECT_EQ(arms[1].stats.lanes_launched, 0U);
    EXPECT_EQ(arms[2].stats.lanes_launched, 0U);
}

TEST(FastpathEquivalence, RecoveryBitIdentical) {
    target::ArrestmentSystem sys;
    fi::FastPathStats fast_stats;
    fi::FastPathStats slow_stats;

    exp::CampaignOptions fast_opt = tiny_campaign(true, &fast_stats, /*batch=*/true);
    fast_opt.case_count = 1;
    exp::CampaignOptions slow_opt = tiny_campaign(false, &slow_stats);
    slow_opt.case_count = 1;

    const exp::RecoveryResult fast =
        exp::recovery_experiment(sys, fast_opt, {"pulscnt", "SetValue"});
    const exp::RecoveryResult slow =
        exp::recovery_experiment(sys, slow_opt, {"pulscnt", "SetValue"});

    EXPECT_EQ(fast.runs, slow.runs);
    EXPECT_EQ(fast.failures_baseline, slow.failures_baseline);
    EXPECT_EQ(fast.failures_with_erm, slow.failures_with_erm);
    EXPECT_EQ(fast.repairs, slow.repairs);
    EXPECT_EQ(fast_stats.forked_runs, 0U);  // periodic: no golden to fork from
    // The detection-only half rides batch lanes; the fused kernel declines
    // armed recoverers, so the ERM half stays scalar.
    EXPECT_EQ(fast_stats.lanes_launched, fast.runs);
    EXPECT_EQ(fast_stats.runs(), fast.runs * 2);
    EXPECT_EQ(fast_stats.ticks_executed, slow_stats.ticks_executed);
}

/// One campaign per (kind, fastpath, batch) in its own directory;
/// returns the executor after a full run for result extraction.
campaign::CampaignExecutor run_campaign(const std::string& dir,
                                        campaign::CampaignKind kind, bool fastpath,
                                        bool batch = false) {
    campaign::CampaignSpec spec = campaign::CampaignSpec::defaults(kind);
    spec.case_ids.resize(2);
    spec.times_per_bit = 1;
    spec.shards = 2;
    campaign::CampaignExecutor exec(dir, std::move(spec));
    campaign::ExecutorOptions options;
    options.threads = 2;
    options.use_fastpath = fastpath;
    options.use_batch = batch;
    EXPECT_TRUE(exec.run(options));
    return exec;
}

TEST(FastpathEquivalence, CampaignExecutorMergedResultsBitIdentical) {
    TempDir tmp("campaign");
    static const model::SystemModel system = target::make_arrestment_model();

    const auto batch = run_campaign((tmp.path / "batch").string(),
                                    campaign::CampaignKind::kPermeability, true, true);
    const auto fast = run_campaign((tmp.path / "fast").string(),
                                   campaign::CampaignKind::kPermeability, true);
    const auto slow = run_campaign((tmp.path / "slow").string(),
                                   campaign::CampaignKind::kPermeability, false);
    EXPECT_EQ(matrix_csv(fast.merged_matrix(system)),
              matrix_csv(slow.merged_matrix(system)));
    EXPECT_EQ(matrix_csv(batch.merged_matrix(system)),
              matrix_csv(slow.merged_matrix(system)));

    // Lane counters travel through shard checkpoints into the merged
    // totals and the status reader.
    const fi::FastPathStats batch_totals = batch.fastpath_totals();
    EXPECT_GT(batch_totals.lanes_launched, 0U);
    EXPECT_GT(batch_totals.lanes_retired_sealed, 0U);
    EXPECT_EQ(fast.fastpath_totals().lanes_launched, 0U);
    const campaign::CampaignStatus batch_status =
        campaign::read_status((tmp.path / "batch").string());
    EXPECT_EQ(batch_status.fastpath.lanes_launched, batch_totals.lanes_launched);
    EXPECT_EQ(batch_status.fastpath.lanes_retired_sealed,
              batch_totals.lanes_retired_sealed);

    // Counters surface per shard: the checkpoints carry fastpath stats
    // and the thread count, and the totals reflect actual forking.
    const fi::FastPathStats totals = fast.fastpath_totals();
    EXPECT_GT(totals.forked_runs, 0U);
    EXPECT_GT(totals.ticks_saved, 0U);
    EXPECT_EQ(slow.fastpath_totals().forked_runs, 0U);
    for (const campaign::ShardResult& shard : fast.completed()) {
        EXPECT_EQ(shard.threads, 2U);
    }

    // And through the status reader (what `campaign status` renders).
    const campaign::CampaignStatus status =
        campaign::read_status((tmp.path / "fast").string());
    EXPECT_EQ(status.fastpath.forked_runs, totals.forked_runs);
    EXPECT_EQ(status.shard_threads, (std::vector<std::size_t>{2, 2}));
    const std::string rendered = campaign::render_status(status);
    EXPECT_NE(rendered.find("fast path:"), std::string::npos);
    EXPECT_NE(rendered.find("threads per shard:"), std::string::npos);
}

TEST(FastpathEquivalence, SevereAndRecoveryCampaignsBitIdentical) {
    TempDir tmp("campaign_sr");

    const auto slow_sev = run_campaign((tmp.path / "slow-sev").string(),
                                       campaign::CampaignKind::kSevere, false);
    const exp::SevereCoverageResult ss = slow_sev.merged_severe();
    for (const bool batch : {false, true}) {
        SCOPED_TRACE(testing::Message() << "batch " << batch);
        const auto fast_sev =
            run_campaign((tmp.path / ("fast-sev-" + std::to_string(batch))).string(),
                         campaign::CampaignKind::kSevere, true, batch);
        const exp::SevereCoverageResult fs = fast_sev.merged_severe();
        EXPECT_EQ(fs.runs, ss.runs);
        EXPECT_EQ(fs.failures, ss.failures);
        ASSERT_EQ(fs.sets.size(), ss.sets.size());
        for (std::size_t s = 0; s < fs.sets.size(); ++s) {
            for (std::size_t r = 0; r < 3; ++r) {
                for (std::size_t k = 0; k < 3; ++k) {
                    EXPECT_EQ(fs.sets[s].cells[r][k].detected,
                              ss.sets[s].cells[r][k].detected);
                }
            }
        }
    }

    const auto slow_rec = run_campaign((tmp.path / "slow-rec").string(),
                                       campaign::CampaignKind::kRecovery, false);
    const exp::RecoveryResult sr = slow_rec.merged_recovery();
    for (const bool batch : {false, true}) {
        SCOPED_TRACE(testing::Message() << "batch " << batch);
        const auto fast_rec =
            run_campaign((tmp.path / ("fast-rec-" + std::to_string(batch))).string(),
                         campaign::CampaignKind::kRecovery, true, batch);
        const exp::RecoveryResult fr = fast_rec.merged_recovery();
        EXPECT_EQ(fr.runs, sr.runs);
        EXPECT_EQ(fr.failures_baseline, sr.failures_baseline);
        EXPECT_EQ(fr.failures_with_erm, sr.failures_with_erm);
        EXPECT_EQ(fr.repairs, sr.repairs);
    }
}

TEST(FastpathEquivalence, EvaluatorGroundTruthBitIdentical) {
    TempDir tmp("evaluator");
    opt::EvaluatorOptions batch_opt;
    batch_opt.model = opt::ErrorModel::kInput;
    batch_opt.dir = (tmp.path / "batch").string();
    batch_opt.cases = 2;
    batch_opt.times_per_bit = 1;
    batch_opt.shards = 2;
    batch_opt.use_batch = true;
    opt::EvaluatorOptions fast_opt = batch_opt;
    fast_opt.dir = (tmp.path / "fast").string();
    fast_opt.use_batch = false;
    opt::EvaluatorOptions slow_opt = fast_opt;
    slow_opt.dir = (tmp.path / "slow").string();
    slow_opt.use_fastpath = false;

    opt::CampaignEvaluator batch(batch_opt);
    opt::CampaignEvaluator fast(fast_opt);
    opt::CampaignEvaluator slow(slow_opt);
    const std::vector<std::vector<std::string>> subsets{{"pulscnt", "SetValue"},
                                                        {"IsValue"}};
    const auto batch_entries = batch.evaluate(subsets);
    const auto fast_entries = fast.evaluate(subsets);
    const auto slow_entries = slow.evaluate(subsets);
    ASSERT_EQ(fast_entries.size(), slow_entries.size());
    ASSERT_EQ(batch_entries.size(), slow_entries.size());
    for (std::size_t i = 0; i < fast_entries.size(); ++i) {
        EXPECT_EQ(fast_entries[i].detected, slow_entries[i].detected);
        EXPECT_EQ(fast_entries[i].active, slow_entries[i].active);
        EXPECT_DOUBLE_EQ(fast_entries[i].coverage, slow_entries[i].coverage);
        EXPECT_EQ(batch_entries[i].detected, slow_entries[i].detected);
        EXPECT_EQ(batch_entries[i].active, slow_entries[i].active);
        EXPECT_DOUBLE_EQ(batch_entries[i].coverage, slow_entries[i].coverage);
    }
}

}  // namespace
