// perm_campaign and severe_campaign: whole fault-injection campaigns
// driven through campaign::CampaignExecutor::run, the entry point of
// `epea_tool campaign run`. Each campaign runs in a fresh directory with
// the executor's private golden cache.
//
// Set-up prepares the reference answer: one campaign of the seed's spec,
// whose merged result every timed campaign must reproduce byte for byte.
// After the timed loop, a seed-chosen one-case slice is re-run on the
// reference oracle (use_fastpath=false) and compared with the default
// path.
#include <algorithm>
#include <filesystem>
#include <sstream>

#include <unistd.h>

#include "bench.hpp"
#include "campaign/checkpoint.hpp"
#include "campaign/executor.hpp"
#include "epic/serialize.hpp"
#include "fi/fastpath.hpp"
#include "ledger.hpp"
#include "obs/trace.hpp"
#include "target/arrestment_system.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using epea::campaign::CampaignExecutor;
using epea::campaign::CampaignKind;
using epea::campaign::CampaignSpec;
using epea::campaign::ExecutorOptions;
using epea::fi::FastPathStats;
using epea::util::JsonArray;
using epea::util::JsonObject;
using epea::util::JsonValue;

/// Planned runs, independent of the executor: Table 1 injects each of
/// the 162 input bits `times_per_bit` times per case (25 x 162 x 10 =
/// 40500); Fig 3 runs one severe run per injectable RAM/stack location
/// group, 81 per case (25 x 81 = 2025).
constexpr std::uint64_t kPermRunsPerCasePerTime = 162;
constexpr std::uint64_t kSevereRunsPerCase = 81;
/// One worker: the process runs pinned to one CPU (see main.cpp), and
/// shards run one after another on it.
constexpr std::size_t kWorkerThreads = 1;
constexpr std::size_t kMinUnits = 3;

CampaignSpec make_spec(CampaignKind kind, std::uint64_t seed, bool tiny) {
    CampaignSpec spec = CampaignSpec::defaults(kind);
    if (tiny) {
        spec.case_ids = {3, 17};
        spec.times_per_bit = 1;
        spec.shards = 2;
    }
    epea::util::Rng rng(seed);
    rng.shuffle(spec.case_ids);
    if (kind == CampaignKind::kPermeability) spec.seed = rng();
    return spec;
}

/// Campaign `k` of a run deals the cases in its own seeded order, so a
/// run's median covers many shard deals and every deal must merge to the
/// same result.
CampaignSpec dealt(const CampaignSpec& base, std::uint64_t seed, std::size_t k) {
    CampaignSpec spec = base;
    epea::util::Rng rng = epea::util::Rng(seed).fork(k);
    rng.shuffle(spec.case_ids);
    return spec;
}

std::uint64_t planned_runs(const CampaignSpec& spec) {
    const std::uint64_t cases = spec.case_ids.size();
    return spec.kind == CampaignKind::kPermeability
               ? cases * kPermRunsPerCasePerTime * spec.times_per_bit
               : cases * kSevereRunsPerCase;
}

/// Canonical text of the merged severe result (every count, in order).
std::string severe_text(const epea::exp::SevereCoverageResult& r) {
    std::ostringstream os;
    os << "runs " << r.runs << " failures " << r.failures << " ram "
       << r.ram_locations << " stack " << r.stack_locations << '\n';
    for (const auto& set : r.sets) {
        os << set.set_name;
        for (const auto& region : set.cells) {
            for (const auto& cell : region) os << ' ' << cell.n << '/' << cell.detected;
        }
        os << '\n';
    }
    return os.str();
}

struct Unit {
    double wall_s = 0.0;     ///< construction -> merged result
    double execute_s = 0.0;  ///< executor's execute phase
    std::string merged;      ///< canonical merged result
    std::uint64_t runs = 0;
    FastPathStats fp;
    std::vector<double> shard_walls;
    std::size_t threads = 0;
    // Per-layer extras, filled when `layers` is requested.
    double merge_ms = 0.0;
    double checkpoint_ms = 0.0;
    double checkpoint_bytes = 0.0;
};

Unit run_unit(const CampaignSpec& spec, const std::string& dir,
              const ExecutorOptions& options,
              const epea::model::SystemModel& system, bool layers) {
    fs::remove_all(dir);
    Unit u;
    const auto t0 = Clock::now();
    CampaignExecutor executor(dir, spec);
    executor.run(options);
    if (spec.kind == CampaignKind::kPermeability) {
        const epea::epic::PermeabilityMatrix matrix = executor.merged_matrix(system);
        u.wall_s = seconds_since(t0);
        std::ostringstream os;
        epea::epic::save_matrix_csv(os, matrix);
        u.merged = os.str();
    } else {
        const epea::exp::SevereCoverageResult severe = executor.merged_severe();
        u.wall_s = seconds_since(t0);
        u.merged = severe_text(severe);
    }
    u.execute_s = executor.timers().seconds("execute");
    u.fp = executor.fastpath_totals();
    for (const auto& shard : executor.completed()) {
        u.runs += shard.runs;
        u.shard_walls.push_back(shard.wall_seconds);
        u.threads = std::max(u.threads, shard.threads);
    }
    if (layers) {
        const auto m0 = Clock::now();
        if (spec.kind == CampaignKind::kPermeability) {
            (void)executor.merged_matrix(system);
        } else {
            (void)executor.merged_severe();
        }
        u.merge_ms = 1e3 * seconds_since(m0);
        const std::string ckpt_dir = dir + "/checkpoint-timing";
        fs::create_directories(ckpt_dir);
        std::vector<double> ms;
        for (const auto& shard : executor.completed()) {
            const auto c0 = Clock::now();
            epea::campaign::save_shard(ckpt_dir, shard);
            ms.push_back(1e3 * seconds_since(c0));
            u.checkpoint_bytes += double(fs::file_size(
                dir + "/" + epea::campaign::shard_file_name(shard.shard)));
        }
        u.checkpoint_ms = median(ms);
    }
    fs::remove_all(dir);
    return u;
}

/// Problems with one campaign's output; empty when it is correct.
std::string unit_problems(const Unit& u, const CampaignSpec& spec,
                          const std::string& reference) {
    std::string p;
    const std::uint64_t planned = planned_runs(spec);
    if (u.runs != planned) {
        p += "runs " + std::to_string(u.runs) + " != planned " + std::to_string(planned) + "; ";
    }
    if (u.fp.runs() != u.runs) {
        p += "full+forked+skipped " + std::to_string(u.fp.runs()) + " != runs; ";
    }
    const std::uint64_t retired =
        u.fp.lanes_retired_pruned + u.fp.lanes_retired_sealed + u.fp.lanes_retired_end;
    if (retired != u.fp.lanes_launched) {
        p += "lanes retired " + std::to_string(retired) + " != launched " +
             std::to_string(u.fp.lanes_launched) + "; ";
    }
    if (u.merged != reference) {
        p += "merged result digest " + digest_hex(u.merged) + " != reference " +
             digest_hex(reference) + "; ";
    }
    return p;
}

}  // namespace

Outcome run_campaign_workload(const Args& args) {
    const CampaignKind kind = args.workload == "perm_campaign"
                                  ? CampaignKind::kPermeability
                                  : CampaignKind::kSevere;
    Outcome out;
    const epea::model::SystemModel system = epea::target::make_arrestment_model();
    const CampaignSpec spec = make_spec(kind, args.seed, args.tiny);
    ExecutorOptions options;
    options.threads = kWorkerThreads;
    out.threads_used = kWorkerThreads;

    const std::string root = args.work_dir + "/" + args.workload + "-" +
                             std::to_string(::getpid());
    fs::create_directories(root);

    // Set-up: one campaign on the seed's first deal gives the reference
    // answer, which every timed campaign must reproduce. setup_s is the
    // whole span from process start to the first timed campaign, so this
    // cold first campaign counts in it.
    const double pre_setup_s = seconds_since(process_start());
    std::string reference;
    std::size_t k = 0;
    double setup_campaign_s = 0.0;
    {
        const CampaignSpec deal = dealt(spec, args.seed, k);
        const Unit u = run_unit(deal, root + "/reference", options, system, false);
        setup_campaign_s = u.wall_s;
        reference = u.merged;
        // The planned-run and counter invariants; the merged bytes are
        // the reference itself.
        const std::string problems = unit_problems(u, deal, reference);
        out.check(problems.empty(), "set-up campaign: " + problems);
        ++k;
    }
    if (args.corrupt_reference) reference[reference.size() / 2] ^= 0x20;

    auto& tracer = epea::obs::Tracer::instance();
    if (args.trace) {
        tracer.set_sampling(1);
        tracer.set_ring_capacity(std::size_t{1} << 20);
    }
    const double setup_s = seconds_since(process_start());

    std::vector<double> walls;
    std::vector<double> traced_walls;
    std::vector<Unit> units;
    Ledger ledger;
    std::uint64_t dropped = 0;
    const auto loop_start = Clock::now();
    // A campaign starts only if it should end within --seconds, judged by
    // the last one's wall, so a run measures about --seconds, not up to one
    // campaign more.
    double last_wall = 0.0;
    for (; walls.size() + traced_walls.size() < kMinUnits ||
           seconds_since(loop_start) + last_wall <= args.seconds;
         ++k) {
        // Traced runs alternate untraced and traced campaigns so the
        // tracer's overhead is measured under the same conditions.
        const bool traced = args.trace && k % 2 == 1;
        const CampaignSpec deal = dealt(spec, args.seed, k);
        const std::string dir = root + "/c" + std::to_string(k);
        if (!traced) {
            Unit u = run_unit(deal, dir, options, system, args.trace);
            const std::string problems = unit_problems(u, deal, reference);
            out.check(problems.empty(), "campaign " + std::to_string(k) + ": " + problems);
            walls.push_back(u.wall_s);
            last_wall = u.wall_s;
            units.push_back(std::move(u));
            continue;
        }
        (void)tracer.drain();
        const std::uint64_t dropped_before = tracer.dropped();
        const std::uint32_t main_tid = epea::obs::current_tid();
        tracer.set_enabled(true);
        Unit u = run_unit(deal, dir, options, system, false);
        tracer.set_enabled(false);
        dropped += tracer.dropped() - dropped_before;
        const std::string problems = unit_problems(u, deal, reference);
        out.check(problems.empty(), "traced campaign " + std::to_string(k) + ": " + problems);
        // With one worker the executor runs every shard on the calling
        // thread, so the main thread's spans cover the whole campaign and
        // are reconciled against its wall.
        static_assert(kWorkerThreads == 1);
        LedgerWindow window;
        window.main_tid = main_tid;
        window.main_window_s = u.wall_s;
        window.unit_span = "campaign.shard";
        ledger.add(build_ledger(tracer.drain(), window));
        traced_walls.push_back(u.wall_s);
        last_wall = u.wall_s;
    }
    const double loop_s = seconds_since(loop_start);

    // Reference oracle on a seed-chosen one-case slice, outside the
    // timed region: default path versus use_fastpath=false.
    {
        CampaignSpec slice = spec;
        slice.case_ids = {spec.case_ids[args.seed % spec.case_ids.size()]};
        slice.shards = 1;
        ExecutorOptions oracle = options;
        oracle.threads = 1;
        const Unit fast = run_unit(slice, root + "/slice-default", oracle, system, false);
        oracle.use_fastpath = false;
        oracle.use_batch = false;
        const auto o0 = Clock::now();
        const Unit slow = run_unit(slice, root + "/slice-oracle", oracle, system, false);
        out.detail.emplace("oracle_slice_case", JsonValue(slice.case_ids.front()));
        out.detail.emplace("oracle_slice_s", JsonValue(seconds_since(o0)));
        out.check(fast.merged == slow.merged && fast.runs == slow.runs,
                  "oracle slice case " + std::to_string(slice.case_ids.front()) +
                      ": default path differs from use_fastpath=false");
    }

    const Unit& first = units.front();
    const double runs = double(planned_runs(spec));
    std::vector<double> wall_ms;
    std::vector<double> rates;
    for (const double w : walls) {
        wall_ms.push_back(1e3 * w);
        rates.push_back(runs / w);
    }
    out.metrics["setup_s"] = setup_s;
    out.metrics["latency_p50_ms"] = median(wall_ms);
    // Runs per second of campaign wall time: the median of the
    // per-campaign rates. The host core sometimes runs a few campaigns
    // about 20 % faster; the median ignores such a minority, where runs
    // over the summed walls moved with it.
    out.metrics["throughput_per_s"] = median(rates);
    out.metrics["peak_rss_mb"] = peak_rss_mb();

    out.detail.emplace("campaign_wall_s", json_samples(walls));
    JsonArray shard_walls;
    for (const Unit& u : units) shard_walls.push_back(json_samples(u.shard_walls));
    out.detail.emplace("shard_wall_s", JsonValue(std::move(shard_walls)));
    out.detail.emplace("campaigns_timed", JsonValue(walls.size()));
    out.detail.emplace("loop_s", JsonValue(loop_s));
    out.detail.emplace("runs_per_campaign", JsonValue(first.runs));
    out.detail.emplace("reference_digest", JsonValue(digest_hex(reference)));
    out.detail.emplace("pre_setup_s", JsonValue(pre_setup_s));
    out.detail.emplace("setup_campaign_s", JsonValue(setup_campaign_s));
    out.detail.emplace("spec", JsonValue::parse(spec.to_json()));

    if (!args.trace) {
        fs::remove_all(root);
        return out;
    }

    // ---- per-layer metrics (traced run) ----
    auto& m = out.metrics;
    std::vector<double> execute, shard_max, imbalance, idle, merge, ckpt, ckpt_bytes;
    for (const Unit& u : units) {
        execute.push_back(u.execute_s);
        const double mx = *std::max_element(u.shard_walls.begin(), u.shard_walls.end());
        double sum = 0.0;
        for (const double w : u.shard_walls) sum += w;
        shard_max.push_back(mx);
        imbalance.push_back(mx / (sum / double(u.shard_walls.size())));
        idle.push_back(1.0 - sum / (double(u.threads) * u.execute_s));
        merge.push_back(u.merge_ms);
        ckpt.push_back(u.checkpoint_ms);
        ckpt_bytes.push_back(u.checkpoint_bytes);
    }
    m["campaign.execute_s"] = median(execute);
    m["campaign.shard_wall_max_s"] = median(shard_max);
    m["campaign.shard_imbalance"] = median(imbalance);
    m["campaign.worker_idle_frac"] = median(idle);
    m["campaign.merge_ms"] = median(merge);
    m["campaign.checkpoint_ms"] = median(ckpt);
    m["campaign.checkpoint_bytes"] = median(ckpt_bytes);

    const FastPathStats& fp = first.fp;
    std::uint64_t batches = 0;
    for (const std::uint64_t n : fp.batch_widths) batches += n;
    m["fi.runs"] = double(fp.runs());
    m["fi.forked_runs"] = double(fp.forked_runs);
    m["fi.pruned_runs"] = double(fp.pruned_runs);
    m["fi.skipped_runs"] = double(fp.skipped_runs);
    m["fi.prune_ratio"] = fp.runs() ? double(fp.pruned_runs) / double(fp.runs()) : 0.0;
    m["fi.ticks_executed"] = double(fp.ticks_executed);
    m["fi.ticks_saved"] = double(fp.ticks_saved);
    m["fi.lanes_launched"] = double(fp.lanes_launched);
    m["fi.lanes_retired_pruned"] = double(fp.lanes_retired_pruned);
    m["fi.lanes_retired_sealed"] = double(fp.lanes_retired_sealed);
    m["fi.lanes_retired_end"] = double(fp.lanes_retired_end);
    m["fi.mean_batch_width"] = batches ? double(fp.lanes_launched) / double(batches) : 0.0;

    // Layer calls timed from outside: a plain scalar run and a golden
    // capture per case, as the experiment code in src/exp makes them (the
    // permeability estimator keeps per-tick snapshots, severe does not).
    {
        epea::target::ArrestmentSystem sys;
        const auto cases = epea::target::standard_test_cases();
        const auto max_ticks = static_cast<epea::runtime::Tick>(
            std::min<std::uint64_t>(spec.max_ticks, epea::target::kMaxRunTicks));
        double scalar_s = 0.0;
        double ticks = 0.0;
        double capture_s = 0.0;
        double golden_bytes = 0.0;
        for (const std::size_t c : spec.case_ids) {
            sys.configure(cases[c]);
            sys.sim().reset();
            const auto s0 = Clock::now();
            ticks += double(sys.sim().run(max_ticks).ticks);
            scalar_s += seconds_since(s0);
            sys.configure(cases[c]);
            const auto g0 = Clock::now();
            const epea::fi::GoldenCaseData golden = epea::fi::capture_golden_data(
                sys.sim(), max_ticks, kind == CampaignKind::kPermeability);
            capture_s += seconds_since(g0);
            golden_bytes += double(golden.approx_bytes());
        }
        const double n = double(spec.case_ids.size());
        m["runtime.scalar_ticks_per_s"] = ticks / scalar_s;
        m["fi.golden_capture_ms_per_case"] = 1e3 * capture_s / n;
        m["fi.golden_bytes_per_case"] = golden_bytes / n;
    }

    const double units_traced = double(std::max<std::size_t>(ledger.units, 1));
    const double batch_s = ledger.stage_s["batch-kernel"] / units_traced;
    m["target.batch_lane_ticks_per_s"] =
        fp.lanes_launched && batch_s > 0.0 ? double(fp.ticks_executed) / batch_s : 0.0;
    m["exp.orchestration_s"] = ledger.stage_s["orchestration"] / units_traced;
    m["obs.trace_overhead_pct"] = 100.0 * (median(traced_walls) / median(walls) - 1.0);
    m["obs.dropped_spans"] = double(dropped);
    m["obs.ledger_residual_pct"] = ledger.residual_pct();
    for (const char* stage : kStages) {
        m[std::string("stage.") + stage + "_s"] = ledger.stage_s[stage] / units_traced;
    }
    out.detail.emplace("ledger", ledger.to_json());
    out.detail.emplace("traced_campaign_wall_s", json_samples(traced_walls));
    fs::remove_all(root);
    return out;
}

}  // namespace perfbench
