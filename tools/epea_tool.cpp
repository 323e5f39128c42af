// epea_tool — command-line front end for the library's main workflows.
// Run it with no arguments for the command list, which is generated from
// the command table at the bottom of this file.
//
// Matrices written by `estimate` feed `analyze`, so the expensive
// campaign runs once and the analysis can be repeated offline. The
// `campaign` subcommands manage a campaign directory (spec.json, shard
// checkpoints, events.jsonl) that survives kills and resumes. `place`
// runs the src/opt/ placement optimizer — the visibility heuristic by
// default, the analytic engine with --benefit analytic, campaign-backed
// with --ground-truth (memoized under --dir). `analytic` answers
// permeability/exposure queries from a measured matrix without running
// a campaign, plans minimal delta campaigns after a model edit, and
// validates the engine against enumeration and campaign ground truth.
//
// Observed commands (estimate, campaign run|resume, place, serve) record
// spans and metrics for the duration of the run; campaign runs always
// leave manifest.json/metrics.json/trace.json in the campaign directory,
// and every observed command honours --trace-out FILE (Chrome trace JSON,
// Perfetto-loadable) and --metrics-out FILE (.prom selects Prometheus
// text, JSON otherwise).
//
// Every flag is declared once in the command table, with its kind and
// range. One parser checks a command line against that declaration and
// is the only place that refuses one: unknown flags, missing values,
// extra positionals and malformed or out-of-range numbers exit 2 with a
// message naming the flag. A runtime failure exits 1 as "<command>: why".
#include <algorithm>
#include <charconv>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <functional>
#include <iostream>
#include <limits>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <variant>
#include <vector>

#include "alt/tank_system.hpp"
#include "analysis/campaign_lint.hpp"
#include "analytic/benefit.hpp"
#include "analytic/report.hpp"
#include "analytic/context.hpp"
#include "analytic/delta.hpp"
#include "analytic/validate.hpp"
#include "analysis/matrix_lint.hpp"
#include "analysis/model_lint.hpp"
#include "analysis/placement_lint.hpp"
#include "analysis/source_lint.hpp"
#include "campaign/executor.hpp"
#include "campaign/observer.hpp"
#include "fi/batch.hpp"
#include "fi/fastpath.hpp"
#include "obs/manifest.hpp"
#include "epic/graph.hpp"
#include "epic/impact.hpp"
#include "epic/measures.hpp"
#include "epic/paths.hpp"
#include "epic/placement.hpp"
#include "epic/serialize.hpp"
#include "exp/arrestment_experiments.hpp"
#include "exp/paper_data.hpp"
#include "fi/golden.hpp"
#include "fi/injector.hpp"
#include "model/dot.hpp"
#include "opt/optimizer.hpp"
#include "opt/report.hpp"
#include "prove/certificate.hpp"
#include "prove/hints.hpp"
#include "prove/prover.hpp"
#include "serve/daemon.hpp"
#include "synth/generator.hpp"
#include "util/table.hpp"

#ifndef EPEA_VERSION
#define EPEA_VERSION "0.0.0-dev"
#endif

namespace {

using namespace epea;

// ---------------------------------------------------------------- arguments

enum class Kind { kSwitch, kText, kCount, kReal };

constexpr double kNoLimit = std::numeric_limits<double>::infinity();

/// One declared flag: its kind, the placeholder the usage text shows for
/// its value, whether it must be given, the closed range a count or real
/// value must lie in, and the flags it is only valid together with.
/// Declared through the factories, refined by `mandatory()` and `with()`.
struct Flag {
    const char* name;
    Kind kind;
    const char* meta = "";
    bool required = false;
    double min = -kNoLimit;
    double max = kNoLimit;
    std::vector<const char*> needs = {};

    static Flag toggle(const char* name) { return {name, Kind::kSwitch}; }
    static Flag text(const char* name, const char* meta) {
        return {name, Kind::kText, meta};
    }
    /// An unsigned decimal count, by default unbounded above.
    static Flag count(const char* name, const char* meta, double min = 0.0,
                      double max = kNoLimit) {
        return {name, Kind::kCount, meta, false, min, max};
    }
    static Flag real(const char* name, const char* meta, double min = -kNoLimit,
                     double max = kNoLimit) {
        return {name, Kind::kReal, meta, false, min, max};
    }

    [[nodiscard]] Flag mandatory() const {
        Flag f = *this;
        f.required = true;
        return f;
    }
    [[nodiscard]] Flag with(std::vector<const char*> others) const {
        Flag f = *this;
        f.needs = std::move(others);
        return f;
    }
};

struct Command;

/// A command line parsed against its command's declaration: every flag
/// value already has its declared type and lies in its declared range.
struct Args {
    const Command* command = nullptr;
    std::vector<std::string> argv;  ///< the tokens after the command path
    std::string positional;
    std::map<std::string, std::variant<bool, std::string, std::uint64_t, double>>
        values;

    [[nodiscard]] bool on(const char* flag) const { return values.count(flag) != 0; }

    template <class T>
    [[nodiscard]] std::optional<T> value(const char* flag) const {
        const auto it = values.find(flag);
        if (it == values.end()) return std::nullopt;
        return std::get<T>(it->second);
    }
    [[nodiscard]] std::optional<std::string> text(const char* flag) const {
        return value<std::string>(flag);
    }

    /// Copies the flag's value into `field` when the flag was given: text
    /// into strings, reals into floating-point fields, counts into the
    /// rest (the declared range guarantees the count fits).
    template <class T>
    void get(const char* flag, T& field) const {
        using Stored = std::conditional_t<
            std::is_same_v<T, std::string>, std::string,
            std::conditional_t<std::is_floating_point_v<T>, double, std::uint64_t>>;
        if (const auto v = value<Stored>(flag)) field = static_cast<T>(*v);
    }
};

/// One command-table entry: the command path, its one positional (with
/// the values it may take, when restricted), its flags and its handler.
struct Command {
    const char* path;
    const char* positional;
    std::vector<std::string> choices;
    std::vector<Flag> flags;
    int (*run)(const Args&);
};

// ------------------------------------------------------------ shared plumbing

/// --no-fastpath, --no-batch and --batch-width, shared by estimate,
/// campaign run/resume and ground-truth placement.
void read_exec_policy(const Args& a, fi::ExecPolicy& policy) {
    policy.use_fastpath = !a.on("--no-fastpath");
    policy.use_batch = !a.on("--no-batch");
    a.get("--batch-width", policy.batch_width);
}

std::ifstream open_in(const std::string& path) {
    std::ifstream in(path);
    if (!in) throw std::runtime_error("cannot read " + path);
    return in;
}

std::string read_text(const std::string& path) {
    std::ostringstream buf;
    buf << open_in(path).rdbuf();
    return buf.str();
}

/// Writes through `emit` into `path` and names the file on stderr.
void write_file(const std::string& path,
                const std::function<void(std::ostream&)>& emit) {
    std::ofstream file(path);
    if (!file) throw std::runtime_error("cannot write " + path);
    emit(file);
    std::fprintf(stderr, "wrote %s\n", path.c_str());
}

/// Writes through `emit` into the file named by `flag`, or to stdout
/// when that flag was not given.
void write_out(const Args& a, const char* flag,
               const std::function<void(std::ostream&)>& emit) {
    if (const auto path = a.text(flag)) {
        write_file(*path, emit);
    } else {
        emit(std::cout);
    }
}

/// The model named on the command line: `arrestment`, `tank`, or a
/// `.sys` file in the text format `describe` and `synth` write.
model::SystemModel load_target(const std::string& name) {
    if (name == "arrestment") return target::make_arrestment_model();
    if (name == "tank") return alt::make_tank_model();
    std::ifstream in = open_in(name);
    return epic::load_system_text(in);
}

/// The --matrix CSV read against `system`, or paper Table 1 without one.
epic::PermeabilityMatrix load_matrix(const Args& a, const model::SystemModel& system) {
    if (const auto file = a.text("--matrix")) {
        std::ifstream in = open_in(*file);
        return epic::load_matrix_csv(in, system);
    }
    return exp::paper_matrix(system);
}

std::vector<std::string> split_commas(const std::string& list) {
    std::vector<std::string> names;
    std::istringstream split(list);
    for (std::string name; std::getline(split, name, ',');) {
        if (!name.empty()) names.push_back(name);
    }
    return names;
}

// ------------------------------------------------------------------- commands

int cmd_describe(const Args& a) {
    const model::SystemModel system = target::make_arrestment_model();
    if (a.on("--dot")) {
        model::write_dot(std::cout, system);
        return 0;
    }
    epic::save_system_text(std::cout, system);
    std::printf("# %zu modules, %zu signals, %zu input/output pairs\n",
                system.module_count(), system.signal_count(), system.pair_count());
    return 0;
}

int cmd_simulate(const Args& a) {
    target::TestCase tc;
    a.get("--mass", tc.mass_kg);
    a.get("--speed", tc.engage_speed_mps);

    target::ArrestmentSystem sys;
    sys.configure(tc);
    const runtime::RunResult rr = sys.run_arrestment();
    const target::FailureReport report = sys.plant().failure_report();
    std::printf("%s: %.0f kg @ %.0f m/s stopped in %u ms at %.1f m "
                "(peak %.2f g, %.0f %% of allowed force)\n",
                report.failed() ? "FAILURE" : "OK", tc.mass_kg, tc.engage_speed_mps,
                rr.ticks, report.final_distance_m, report.peak_retardation_g,
                report.peak_force_ratio * 100.0);
    return report.failed() ? 1 : 0;
}

int cmd_estimate(const Args& a) {
    exp::CampaignOptions options = exp::CampaignOptions::from_env();
    a.get("--cases", options.case_count);
    a.get("--times", options.times_per_bit);
    read_exec_policy(a, options);
    fi::FastPathStats fastpath;
    options.fastpath_out = &fastpath;

    obs::ArgvRecorder recorder(a.argv, a.command->path, EPEA_VERSION);
    {
        util::JsonObject config;
        config.emplace("cases", util::JsonValue(options.case_count));
        config.emplace("times_per_bit", util::JsonValue(options.times_per_bit));
        config.emplace("seed", util::JsonValue(options.seed));
        config.emplace("max_ticks", util::JsonValue(options.max_ticks));
        recorder.manifest().config = std::move(config);
        recorder.manifest().seed_base = options.seed;
        recorder.manifest().fastpath = options.use_fastpath;
    }

    std::fprintf(stderr, "estimating (%zu cases x %zu times/bit)...\n",
                 options.case_count, options.times_per_bit);
    static const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = campaign::estimate_permeability(system, options);
    recorder.manifest().fastpath_stats = fi::fastpath_stats_json(fastpath);

    write_out(a, "--out", [&pm](std::ostream& os) { epic::save_matrix_csv(os, pm); });
    return recorder.finish();
}

int cmd_analyze(const Args& a) {
    static const model::SystemModel system = target::make_arrestment_model();
    std::ifstream file = open_in(a.positional);
    const epic::PermeabilityMatrix pm = epic::load_matrix_csv(file, system);
    const std::string sink_name = a.text("--sink").value_or("TOC2");
    const model::SignalId sink = system.signal_id(sink_name);

    util::TextTable table({"Signal", "X_s", "impact -> " + sink_name, "PA", "EXT",
                           "Motivation (extended)"},
                          {util::Align::kLeft, util::Align::kRight,
                           util::Align::kRight, util::Align::kLeft,
                           util::Align::kLeft, util::Align::kLeft});
    const auto pa = epic::pa_placement(pm);
    const auto ext = epic::extended_placement(pm);
    for (const auto& row : epic::exposure_profile(pm)) {
        const auto imp = row.signal == sink
                             ? std::optional<double>{}
                             : std::optional<double>{epic::impact(pm, row.signal, sink)};
        table.add_row({system.signal_name(row.signal),
                       row.exposure ? util::TextTable::num(*row.exposure) : "-",
                       imp ? util::TextTable::num(*imp) : "-",
                       pa[row.signal.index()].selected ? "x" : "-",
                       ext[row.signal.index()].selected ? "x" : "-",
                       ext[row.signal.index()].motivation});
    }
    std::cout << table;

    std::printf("\nBacktrack tree of %s:\n%s", sink_name.c_str(),
                epic::render_tree(system, epic::backward_paths(pm, sink), true)
                    .c_str());
    return 0;
}

int cmd_inject(const Args& a) {
    const std::string signal = *a.text("--signal");
    const std::uint64_t bit = *a.value<std::uint64_t>("--bit");
    const std::uint64_t at = *a.value<std::uint64_t>("--at");

    target::ArrestmentSystem sys;
    sys.configure(target::standard_test_cases()[12]);
    const model::SignalId sid = sys.system().signal_id(signal);

    fi::Injector injector(sys.sim());
    const fi::GoldenRun gr = fi::capture_golden_run(sys.sim(), target::kMaxRunTicks);
    ea::EaBank bank = exp::make_calibrated_bank(sys.system(), {gr.trace});
    bank.arm(sys.sim());

    injector.arm({fi::Injection::into_signal(sid, static_cast<unsigned>(bit),
                                             static_cast<runtime::Tick>(at))});
    sys.sim().reset();
    sys.sim().run(target::kMaxRunTicks);

    std::printf("injected %s bit %llu at t=%llu (fired %zu time(s))\n",
                signal.c_str(), static_cast<unsigned long long>(bit),
                static_cast<unsigned long long>(at), injector.fired_count());
    for (const auto sid2 : sys.system().all_signals()) {
        if (const auto t = sys.sim().trace()->first_difference(gr.trace, sid2)) {
            std::printf("  deviation: %-12s first differs at t=%u\n",
                        sys.system().signal_name(sid2).c_str(), *t);
        }
    }
    bool detected = false;
    for (std::size_t e = 0; e < bank.size(); ++e) {
        if (!bank.at(e).triggered()) continue;
        detected = true;
        std::printf("  detected by %s at t=%u\n", bank.at(e).name().c_str(),
                    bank.at(e).first_detection());
    }
    if (!detected) std::printf("  no EA detected the error\n");
    std::printf("outcome: %s\n",
                sys.plant().failure_report().failed() ? "SYSTEM FAILURE" : "arrested OK");
    sys.sim().clear_monitors();
    return 0;
}

void print_campaign_result(campaign::CampaignExecutor& exec, const Args& a) {
    switch (exec.spec().kind) {
        case campaign::CampaignKind::kPermeability: {
            static const model::SystemModel system = target::make_arrestment_model();
            const epic::PermeabilityMatrix pm = exec.merged_matrix(system);
            write_out(a, "--out",
                      [&pm](std::ostream& os) { epic::save_matrix_csv(os, pm); });
            break;
        }
        case campaign::CampaignKind::kSevere: {
            const exp::SevereCoverageResult severe = exec.merged_severe();
            std::printf("severe model: %llu runs, %llu failures\n",
                        static_cast<unsigned long long>(severe.runs),
                        static_cast<unsigned long long>(severe.failures));
            for (const auto& set : severe.sets) {
                std::printf("  %s: c_tot %.3f  c_fail %.3f  c_nofail %.3f\n",
                            set.set_name.c_str(), set.cells[2][0].coverage(),
                            set.cells[2][1].coverage(), set.cells[2][2].coverage());
            }
            break;
        }
        case campaign::CampaignKind::kRecovery: {
            const exp::RecoveryResult rec = exec.merged_recovery();
            std::printf("recovery: %llu runs, failure rate %.4f baseline -> %.4f "
                        "with ERMs (%llu repairs)\n",
                        static_cast<unsigned long long>(rec.runs),
                        rec.baseline_failure_rate(), rec.erm_failure_rate(),
                        static_cast<unsigned long long>(rec.repairs));
            break;
        }
        case campaign::CampaignKind::kInput: {
            const exp::InputCoverageResult input = exec.merged_input();
            std::printf("input model: %llu injections, %llu active\n",
                        static_cast<unsigned long long>(input.all.injected),
                        static_cast<unsigned long long>(input.all.active));
            for (std::size_t s = 0; s < input.subset_names.size(); ++s) {
                const double c =
                    input.all.active
                        ? static_cast<double>(input.all.detected_per_subset[s]) /
                              static_cast<double>(input.all.active)
                        : 0.0;
                std::printf("  %s: coverage %.3f\n", input.subset_names[s].c_str(), c);
            }
            break;
        }
    }
}

int run_and_report(campaign::CampaignExecutor& exec, const Args& a) {
    campaign::ExecutorOptions opts;  // threads default 0 = auto
    a.get("--threads", opts.threads);
    a.get("--max-shards", opts.max_shards);
    opts.echo_events = a.on("--verbose");
    read_exec_policy(a, opts);
    a.get("--timeline-interval", opts.timeline_interval_ms);
    a.get("--timeline-stall", opts.timeline_stall_samples);

    obs::ArgvRecorder recorder(a.argv, a.command->path, EPEA_VERSION);
    recorder.set_artifact_dir(exec.dir());
    recorder.manifest().config =
        util::JsonValue::parse(exec.spec().to_json()).as_object();
    recorder.manifest().seed_base = exec.spec().seed;
    recorder.manifest().fastpath = opts.use_fastpath;
    recorder.manifest().threads = opts.threads;

    const bool complete = exec.run(opts);
    recorder.manifest().fastpath_stats =
        fi::fastpath_stats_json(exec.fastpath_totals());
    const int obs_rc = recorder.finish();
    std::printf("%s", campaign::render_status(campaign::read_status(exec.dir())).c_str());
    std::printf("phase wall-clock:\n%s", exec.timers().summary().c_str());
    if (exec.adaptive_stopped()) {
        std::printf("adaptive stopping saved %llu runs\n",
                    static_cast<unsigned long long>(exec.saved_runs()));
    }
    if (!complete) {
        std::printf("campaign paused; `epea_tool campaign resume --dir %s` continues\n",
                    exec.dir().c_str());
        return obs_rc;
    }
    print_campaign_result(exec, a);
    return obs_rc;
}

int cmd_campaign_run(const Args& a) {
    campaign::CampaignSpec spec;
    if (const auto spec_file = a.text("--spec")) {
        spec = campaign::CampaignSpec::from_json(read_text(*spec_file));
    } else {
        spec = campaign::CampaignSpec::defaults(
            campaign::campaign_kind_from_string(
                a.text("--kind").value_or("permeability")));
        if (const auto c = a.value<std::uint64_t>("--cases")) {
            spec.case_ids.resize(std::min<std::size_t>(*c, spec.case_ids.size()));
        }
        a.get("--times", spec.times_per_bit);
        a.get("--shards", spec.shards);
        if (const auto w = a.value<double>("--adaptive")) {
            spec.adaptive.enabled = true;
            spec.adaptive.half_width = *w;
        }
        a.get("--min-trials", spec.adaptive.min_trials);
    }
    campaign::CampaignExecutor exec(*a.text("--dir"), std::move(spec));
    return run_and_report(exec, a);
}

int cmd_campaign_resume(const Args& a) {
    campaign::CampaignExecutor exec = campaign::CampaignExecutor::open(*a.text("--dir"));
    return run_and_report(exec, a);
}

int cmd_campaign_status(const Args& a) {
    const std::string dir = *a.text("--dir");
    if (a.on("--follow")) {
        // Poll-and-redraw live view: re-read the artifacts every interval
        // until the campaign completes. Plain re-print (no terminal
        // control), so it pipes and logs cleanly.
        double interval_s = 2.0;
        a.get("--interval", interval_s);
        if (interval_s <= 0.0) interval_s = 0.1;
        for (;;) {
            const campaign::CampaignStatus status = campaign::read_status(dir);
            std::printf("%s", campaign::render_status(status).c_str());
            std::fflush(stdout);
            if (status.complete()) return 0;
            std::printf("---\n");
            std::this_thread::sleep_for(std::chrono::duration<double>(interval_s));
        }
    }
    const campaign::CampaignStatus status = campaign::read_status(dir);
    if (a.on("--metrics")) {
        // Reconstruct the campaign's metric snapshot from its checkpointed
        // totals — same mapping as a live run, so the counters agree with
        // a --metrics-out export.
        fi::add_fastpath_metrics(status.fastpath);
        auto& reg = obs::MetricsRegistry::global();
        reg.counter("campaign.shard.runs").add(status.runs);
        reg.counter("campaign.shards.done").add(status.shards_done);
        reg.counter("campaign.runs.saved_adaptive").add(status.saved_runs);
        obs::write_prometheus(std::cout, reg.snapshot());
        return 0;
    }
    std::printf("%s", campaign::render_status(status).c_str());
    return 0;
}

/// Builds the optimizer requested by the `place` flags: --benefit
/// visibility (default; simple-path enumeration), analytic (the
/// propagation engine's fixpoint reach), or ground-truth (campaign-
/// backed; --ground-truth is a shorthand). The permeability matrix
/// backing the matrix-driven modes must outlive the optimizer, hence
/// the out-parameter holder.
opt::PlacementOptimizer make_place_optimizer(
    const Args& a, opt::ErrorModel model,
    std::unique_ptr<epic::PermeabilityMatrix>& pm_holder,
    const model::SystemModel& system, std::string& mode_out) {
    const std::string benefit = a.text("--benefit").value_or(
        a.on("--ground-truth") ? "ground-truth" : "visibility");
    if (benefit == "ground-truth") {
        const auto dir = a.text("--dir");
        if (!dir) {
            throw std::invalid_argument("--benefit ground-truth requires --dir DIR");
        }
        opt::EvaluatorOptions options;
        options.model = model;
        options.dir = *dir;
        a.get("--cases", options.cases);
        a.get("--times", options.times_per_bit);
        a.get("--shards", options.shards);
        a.get("--threads", options.threads);
        options.echo_events = a.on("--verbose");
        read_exec_policy(a, options);
        mode_out = "ground-truth";
        return opt::PlacementOptimizer::ground_truth(std::move(options));
    }
    pm_holder = std::make_unique<epic::PermeabilityMatrix>(exp::paper_matrix(system));
    if (benefit == "analytic") {
        mode_out = "analytic";
        return analytic::make_engine_optimizer(*pm_holder, model);
    }
    if (benefit != "visibility") {
        throw std::invalid_argument("unknown --benefit '" + benefit +
                                    "' (visibility|analytic|ground-truth)");
    }
    mode_out = "visibility";
    return opt::PlacementOptimizer::analytic(*pm_holder, model);
}

/// `place optimize|frontier|explain` — one handler; the three commands
/// share their flags and differ only in what they print.
int cmd_place(const Args& a) {
    const std::string command = a.command->path;
    const opt::ErrorModel model =
        opt::error_model_from_string(a.text("--error-model").value_or("input"));
    static const model::SystemModel system = target::make_arrestment_model();
    std::unique_ptr<epic::PermeabilityMatrix> pm_holder;
    std::string mode_name;
    opt::PlacementOptimizer optimizer =
        make_place_optimizer(a, model, pm_holder, system, mode_name);
    // Certificate-derived pruning for the matrix-backed benefit modes
    // (results are identical either way; --no-prune is the CI soundness
    // gate's unpruned arm). Ground truth never gets hints — measured
    // coverage may disagree with the structural graph.
    if (pm_holder && !a.on("--no-prune")) {
        prove::attach_structural_hints(optimizer, *pm_holder, model);
    }
    const char* mode = mode_name.c_str();

    obs::ArgvRecorder recorder(a.argv, command, EPEA_VERSION);
    {
        util::JsonObject config;
        config.emplace("error_model", util::JsonValue(opt::to_string(model)));
        config.emplace("mode", util::JsonValue(mode));
        recorder.manifest().config = std::move(config);
        recorder.manifest().fastpath = !a.on("--no-fastpath");
    }

    if (command == "place optimize") {
        opt::SearchOptions options;
        a.get("--budget-memory", options.budget.memory);
        a.get("--budget-time", options.budget.time);
        const opt::SearchResult result = optimizer.optimize(options);
        if (a.on("--json")) {
            // Shared reporter: byte-identical to POST /v1/place/optimize.
            std::fputs(opt::optimize_result_json(result, optimizer.candidates(),
                                                 model, mode_name)
                           .c_str(),
                       stdout);
            return recorder.finish();
        }
        std::printf("placement (%s, %s model, %s): {%s}\n", mode,
                    opt::to_string(model), result.exact ? "exact" : "greedy",
                    opt::canonical_subset(result.selected_names(optimizer.candidates()))
                        .c_str());
        std::printf("  coverage %.4f, memory %.0f B, time %.0f cmp/tick, "
                    "%zu benefit evaluations (%zu nodes, %zu structural "
                    "prunes)\n",
                    result.coverage, result.cost.memory, result.cost.time,
                    result.evaluations, result.nodes, result.structural_prunes);
        return recorder.finish();
    }

    const opt::Frontier frontier = optimizer.frontier();
    if (command == "place explain") {
        std::printf("%s", optimizer.explain(frontier).c_str());
    } else if (const auto prefix = a.text("--out-prefix")) {
        write_file(*prefix + ".csv",
                   [&](std::ostream& os) { opt::write_frontier_csv(os, frontier); });
        write_file(*prefix + ".json",
                   [&](std::ostream& os) { opt::write_frontier_json(os, frontier); });
        write_file(*prefix + ".dot", [&](std::ostream& os) {
            opt::write_frontier_dot(os, frontier,
                                    std::string("EA placement frontier (") +
                                        opt::to_string(model) + " model, " + mode + ")");
        });
    } else {
        opt::write_frontier_csv(std::cout, frontier);
    }
    if (optimizer.campaigns_executed() > 0 || !pm_holder) {
        std::fprintf(stderr, "ground truth: %zu campaign(s) executed\n",
                     optimizer.campaigns_executed());
    }
    return recorder.finish();
}

/// `obs metrics DIR` prints DIR/metrics.json (or the manifest's metric
/// snapshot) as Prometheus text; `obs trace DIR` summarizes
/// DIR/trace.json per span name. Both read artifacts a campaign run left
/// behind — no live process needed.
std::optional<util::JsonValue> read_json_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) return std::nullopt;
    std::ostringstream buf;
    buf << in.rdbuf();
    return util::JsonValue::parse(buf.str());
}

/// Phase attribution for `obs report` (DESIGN.md §15): every span name
/// maps to exactly one phase, and time is attributed *exclusively* (a
/// span's self time, minus its contained children on the same track), so
/// the phase totals sum to the union of traced time by construction.
const char* report_phase_of(const std::string& name) {
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

/// `epea_tool obs report DIR` — offline critical-path analysis over the
/// run artifacts (trace.json + metrics.json/manifest.json +
/// timeline.jsonl): phase breakdown on exclusive span time, per-worker
/// utilization, top-N slowest runs, lane-retirement counters and shard
/// wall-clock quantiles.
int cmd_obs_report(const Args& a) {
    const std::string& dir = a.positional;
    const bool as_json = a.on("--json");
    std::size_t top_n = 5;
    a.get("--top", top_n);
    const util::JsonValue trace = util::JsonValue::parse(read_text(dir + "/trace.json"));

    struct Ev {
        std::string name;
        std::int64_t tid = 0;
        double ts_us = 0.0;
        double dur_us = 0.0;
        double child_us = 0.0;  ///< direct children's duration (same track)
    };
    std::map<std::int64_t, std::string> track_names;
    std::map<std::int64_t, std::vector<Ev>> by_track;
    for (const util::JsonValue& ev : trace.at("traceEvents").as_array()) {
        const std::string& ph = ev.at("ph").as_string();
        if (ph == "M") {
            track_names[ev.at("tid").as_int()] = ev.at("args").at("name").as_string();
        } else if (ph == "X") {
            Ev e;
            e.name = ev.at("name").as_string();
            e.tid = ev.at("tid").as_int();
            e.ts_us = ev.at("ts").as_double();
            e.dur_us = ev.at("dur").as_double();
            by_track[e.tid].push_back(std::move(e));
        }
    }

    // Exclusive time per span: within one track, sort by (start asc,
    // duration desc) so parents precede the children they contain, then
    // charge each span's duration to its innermost open ancestor.
    struct PhaseAgg {
        std::uint64_t spans = 0;
        double exclusive_us = 0.0;
    };
    std::map<std::string, PhaseAgg> phases;
    struct WorkerAgg {
        double busy_us = 0.0;
        double first_us = 0.0;
        double last_us = 0.0;
        bool seen = false;
    };
    std::map<std::int64_t, WorkerAgg> workers;
    std::vector<const Ev*> slowest;
    double total_exclusive_us = 0.0;
    std::size_t spans = 0;
    for (auto& [tid, evs] : by_track) {
        std::sort(evs.begin(), evs.end(), [](const Ev& a, const Ev& b) {
            if (a.ts_us != b.ts_us) return a.ts_us < b.ts_us;
            return a.dur_us > b.dur_us;
        });
        std::vector<Ev*> stack;
        for (Ev& e : evs) {
            while (!stack.empty() &&
                   stack.back()->ts_us + stack.back()->dur_us <= e.ts_us) {
                stack.pop_back();
            }
            if (!stack.empty()) stack.back()->child_us += e.dur_us;
            stack.push_back(&e);
        }
        WorkerAgg& w = workers[tid];
        for (const Ev& e : evs) {
            ++spans;
            const double exclusive = std::max(0.0, e.dur_us - e.child_us);
            total_exclusive_us += exclusive;
            PhaseAgg& agg = phases[report_phase_of(e.name)];
            ++agg.spans;
            agg.exclusive_us += exclusive;
            w.busy_us += exclusive;
            if (!w.seen || e.ts_us < w.first_us) w.first_us = e.ts_us;
            if (!w.seen || e.ts_us + e.dur_us > w.last_us) {
                w.last_us = e.ts_us + e.dur_us;
            }
            w.seen = true;
            if (e.name == "fi.run" || e.name == "sim.run") {
                slowest.push_back(&e);
            }
        }
    }
    std::sort(slowest.begin(), slowest.end(), [](const Ev* a, const Ev* b) {
        if (a->dur_us != b->dur_us) return a->dur_us > b->dur_us;
        if (a->ts_us != b->ts_us) return a->ts_us < b->ts_us;
        return a->tid < b->tid;
    });
    if (slowest.size() > top_n) slowest.resize(top_n);

    // Metrics side: lane-retirement counters and the shard wall-clock
    // histogram, read like `obs metrics` (metrics.json preferred, the
    // manifest's embedded snapshot as fallback).
    obs::MetricsSnapshot snapshot;
    if (const auto metrics = read_json_file(dir + "/metrics.json")) {
        snapshot = obs::metrics_from_json(*metrics);
    } else if (const auto manifest = read_json_file(dir + "/manifest.json")) {
        snapshot = obs::metrics_from_json(manifest->at("metrics"));
    }
    const auto lane_counter = [&snapshot](const char* name) {
        return snapshot.counter(name);
    };
    const obs::MetricSample* shard_wall = snapshot.find("campaign.shard.wall_seconds");

    // Timeline summary (sample count + stall flags), torn-tail tolerant.
    std::size_t timeline_samples = 0;
    std::uint64_t stall_flags = 0;
    {
        std::ifstream timeline(dir + "/timeline.jsonl", std::ios::binary);
        std::map<std::int64_t, bool> was_stalled;
        std::string line;
        while (std::getline(timeline, line)) {
            if (line.empty()) continue;
            try {
                const util::JsonValue sample = util::JsonValue::parse(line);
                if (sample.at("type").as_string() != "sample") continue;
                ++timeline_samples;
                if (const util::JsonValue* ws = sample.find("workers")) {
                    for (const util::JsonValue& w : ws->as_array()) {
                        const std::int64_t id = w.at("worker").as_int();
                        const bool stalled = w.at("stalled").as_bool();
                        if (stalled && !was_stalled[id]) ++stall_flags;
                        was_stalled[id] = stalled;
                    }
                }
            } catch (const std::runtime_error&) {
            }
        }
    }

    if (as_json) {
        util::JsonObject root;
        root.emplace("dir", util::JsonValue(dir));
        root.emplace("spans", util::JsonValue(spans));
        root.emplace("total_exclusive_us", util::JsonValue(total_exclusive_us));
        util::JsonObject phase_obj;
        double phase_total = 0.0;
        for (const auto& [name, agg] : phases) {
            util::JsonObject p;
            p.emplace("spans", util::JsonValue(agg.spans));
            p.emplace("exclusive_us", util::JsonValue(agg.exclusive_us));
            phase_obj.emplace(name, util::JsonValue(std::move(p)));
            phase_total += agg.exclusive_us;
        }
        root.emplace("phases", util::JsonValue(std::move(phase_obj)));
        root.emplace("phase_total_us", util::JsonValue(phase_total));
        util::JsonArray worker_arr;
        for (const auto& [tid, w] : workers) {
            util::JsonObject wo;
            wo.emplace("tid", util::JsonValue(tid));
            const auto name_it = track_names.find(tid);
            wo.emplace("name", util::JsonValue(name_it != track_names.end()
                                                   ? name_it->second
                                                   : std::string()));
            wo.emplace("busy_us", util::JsonValue(w.busy_us));
            const double span_us = w.last_us - w.first_us;
            wo.emplace("span_us", util::JsonValue(span_us));
            wo.emplace("utilization",
                       util::JsonValue(span_us > 0.0 ? w.busy_us / span_us : 0.0));
            worker_arr.push_back(util::JsonValue(std::move(wo)));
        }
        root.emplace("workers", util::JsonValue(std::move(worker_arr)));
        util::JsonArray slow_arr;
        for (const Ev* e : slowest) {
            util::JsonObject so;
            so.emplace("name", util::JsonValue(e->name));
            so.emplace("tid", util::JsonValue(e->tid));
            so.emplace("ts_us", util::JsonValue(e->ts_us));
            so.emplace("dur_us", util::JsonValue(e->dur_us));
            slow_arr.push_back(util::JsonValue(std::move(so)));
        }
        root.emplace("slowest_runs", util::JsonValue(std::move(slow_arr)));
        util::JsonObject lanes;
        lanes.emplace("launched",
                      util::JsonValue(lane_counter("fi.lanes.launched")));
        lanes.emplace("retired_pruned",
                      util::JsonValue(lane_counter("fi.lanes.retired_pruned")));
        lanes.emplace("retired_end",
                      util::JsonValue(lane_counter("fi.lanes.retired_end")));
        lanes.emplace("retired_sealed",
                      util::JsonValue(lane_counter("fi.lanes.retired_sealed")));
        root.emplace("lanes", util::JsonValue(std::move(lanes)));
        util::JsonObject quants;
        if (shard_wall != nullptr) {
            quants.emplace("p50", util::JsonValue(obs::quantile_from_buckets(
                                      shard_wall->bounds,
                                      shard_wall->bucket_counts, 0.5)));
            quants.emplace("p90", util::JsonValue(obs::quantile_from_buckets(
                                      shard_wall->bounds,
                                      shard_wall->bucket_counts, 0.9)));
            quants.emplace("p99", util::JsonValue(obs::quantile_from_buckets(
                                      shard_wall->bounds,
                                      shard_wall->bucket_counts, 0.99)));
        }
        root.emplace("shard_wall_quantiles_s", util::JsonValue(std::move(quants)));
        util::JsonObject tl;
        tl.emplace("samples", util::JsonValue(timeline_samples));
        tl.emplace("stall_flags", util::JsonValue(stall_flags));
        root.emplace("timeline", util::JsonValue(std::move(tl)));
        std::printf("%s\n", util::JsonValue(std::move(root)).dump().c_str());
        return 0;
    }

    std::printf("obs report: %s (%zu spans, %.3f ms traced)\n", dir.c_str(),
                spans, total_exclusive_us / 1000.0);
    std::printf("phase breakdown (exclusive time):\n");
    for (const auto& [name, agg] : phases) {
        const double share = total_exclusive_us > 0.0
                                 ? 100.0 * agg.exclusive_us / total_exclusive_us
                                 : 0.0;
        std::printf("  %-14s %8llu spans  %12.3f ms  %5.1f%%\n", name.c_str(),
                    static_cast<unsigned long long>(agg.spans),
                    agg.exclusive_us / 1000.0, share);
    }
    std::printf("worker utilization:\n");
    for (const auto& [tid, w] : workers) {
        const auto name_it = track_names.find(tid);
        const double span_us = w.last_us - w.first_us;
        std::printf("  %-14s busy %10.3f ms of %10.3f ms  (%.1f%%)\n",
                    name_it != track_names.end() ? name_it->second.c_str()
                                                 : ("tid-" + std::to_string(tid)).c_str(),
                    w.busy_us / 1000.0, span_us / 1000.0,
                    span_us > 0.0 ? 100.0 * w.busy_us / span_us : 0.0);
    }
    if (!slowest.empty()) {
        std::printf("top %zu slowest runs:\n", slowest.size());
        for (const Ev* e : slowest) {
            std::printf("  %-10s tid %lld  at %12.3f ms  dur %10.3f ms\n",
                        e->name.c_str(), static_cast<long long>(e->tid),
                        e->ts_us / 1000.0, e->dur_us / 1000.0);
        }
    }
    if (lane_counter("fi.lanes.launched") > 0) {
        std::printf("batch lanes: %llu launched / %llu pruned / %llu to end / "
                    "%llu sealed\n",
                    static_cast<unsigned long long>(lane_counter("fi.lanes.launched")),
                    static_cast<unsigned long long>(
                        lane_counter("fi.lanes.retired_pruned")),
                    static_cast<unsigned long long>(
                        lane_counter("fi.lanes.retired_end")),
                    static_cast<unsigned long long>(
                        lane_counter("fi.lanes.retired_sealed")));
    }
    if (shard_wall != nullptr) {
        std::printf("shard wall-clock quantiles: p50 %.2fs  p90 %.2fs  p99 %.2fs\n",
                    obs::quantile_from_buckets(shard_wall->bounds,
                                               shard_wall->bucket_counts, 0.5),
                    obs::quantile_from_buckets(shard_wall->bounds,
                                               shard_wall->bucket_counts, 0.9),
                    obs::quantile_from_buckets(shard_wall->bounds,
                                               shard_wall->bucket_counts, 0.99));
    }
    if (timeline_samples > 0) {
        std::printf("timeline: %zu samples, %llu stall flag(s)\n",
                    timeline_samples,
                    static_cast<unsigned long long>(stall_flags));
    }
    return 0;
}

int cmd_obs_metrics(const Args& a) {
    const std::string& dir = a.positional;
    obs::MetricsSnapshot snapshot;
    if (const auto metrics = read_json_file(dir + "/metrics.json")) {
        snapshot = obs::metrics_from_json(*metrics);
    } else if (const auto manifest = read_json_file(dir + "/manifest.json")) {
        snapshot = obs::metrics_from_json(manifest->at("metrics"));
    } else {
        throw std::runtime_error("no metrics.json or manifest.json in " + dir);
    }
    obs::write_prometheus(std::cout, snapshot);
    // Ring-overflow accounting (manifest v3): surface per-track
    // dropped-span counts so silent trace truncation is visible from the
    // same command that shows the metrics.
    if (const auto manifest = read_json_file(dir + "/manifest.json")) {
        if (const util::JsonValue* dropped = manifest->find("dropped_spans")) {
            for (const auto& [track, count] : dropped->as_object()) {
                std::printf("# dropped spans: %s %lld\n", track.c_str(),
                            static_cast<long long>(count.as_int()));
            }
        }
    }
    return 0;
}

int cmd_obs_trace(const Args& a) {
    const std::string& dir = a.positional;
    const util::JsonValue trace = util::JsonValue::parse(read_text(dir + "/trace.json"));
    struct NameAgg {
        std::uint64_t count = 0;
        double total_us = 0.0;
    };
    std::map<std::string, NameAgg> by_name;
    std::map<std::int64_t, std::string> track_names;
    std::size_t spans = 0;
    for (const util::JsonValue& ev : trace.at("traceEvents").as_array()) {
        const std::string& ph = ev.at("ph").as_string();
        if (ph == "M") {
            track_names[ev.at("tid").as_int()] = ev.at("args").at("name").as_string();
        } else if (ph == "X") {
            ++spans;
            NameAgg& agg = by_name[ev.at("name").as_string()];
            ++agg.count;
            agg.total_us += ev.at("dur").as_double();
        }
    }
    std::printf("%s/trace.json: %zu spans\n", dir.c_str(), spans);
    for (const auto& [tid, name] : track_names) {
        std::printf("  track %lld: %s\n", static_cast<long long>(tid), name.c_str());
    }
    for (const auto& [name, agg] : by_name) {
        std::printf("  %-24s %8llu spans  %12.3f ms total\n", name.c_str(),
                    static_cast<unsigned long long>(agg.count), agg.total_us / 1000.0);
    }
    return 0;
}

/// `epea_tool check` — the semantic placement verifier (DESIGN.md §16).
/// Emits a machine-checkable cut certificate or a concrete witness path,
/// plus shadowing facts, containment regions and per-output dominator
/// chains, for a placement on a model. The graph comes from a
/// permeability matrix when one exists (paper Table 1 for arrestment, or
/// --matrix) and from the bare module structure otherwise (tank).
int cmd_check(const Args& a) {
    const std::string& target_name = a.positional;
    const model::SystemModel system = load_target(target_name);
    const bool measured = a.on("--matrix") || target_name == "arrestment";
    // Without a matrix every structural pair may propagate.
    const epic::PermeabilityMatrix pm =
        measured ? load_matrix(a, system) : epic::uniform_matrix(system, 1.0);
    const epic::PropagationGraph graph(pm);

    // Placement: a reference-set label, an explicit comma list, or — by
    // default — every EA-carrying candidate signal of the model.
    std::vector<std::string> names;
    const auto placement_flag = a.text("--placement");
    if (placement_flag &&
        (*placement_flag == "EH-set" || *placement_flag == "PA-set" ||
         *placement_flag == "EXT-set")) {
        for (const opt::ReferenceSet& set : opt::arrestment_reference_sets()) {
            if (set.label == *placement_flag) names = set.signals;
        }
    } else if (placement_flag) {
        names = split_commas(*placement_flag);
    } else {
        for (const model::SignalId id : epic::ea_candidate_signals(system)) {
            names.push_back(system.signal_name(id));
        }
    }
    std::vector<model::SignalId> ids;
    for (const std::string& name : names) ids.push_back(system.signal_id(name));

    const std::string em = a.text("--error-model").value_or("input");
    if (em != "input" && em != "severe") {
        throw std::invalid_argument("unknown --error-model '" + em + "' (input|severe)");
    }
    const prove::SiteModel sites =
        em == "input" ? prove::SiteModel::kInput : prove::SiteModel::kSevere;

    const prove::Prover prover(graph);
    const prove::PlacementCheck check = prover.check(ids, sites);

    const std::string rendered =
        a.on("--json") ? prove::check_json(graph, check, target_name,
                                           measured ? "matrix" : "structure")
                                 .dump() +
                             "\n"
                       : prove::check_text(check, target_name);
    write_out(a, "--out", [&rendered](std::ostream& os) { os << rendered; });
    return 0;
}

/// `epea_tool lint <target>` — the static verification layer (DESIGN.md
/// §11). Lints artifacts without executing anything: the propagation
/// model, a permeability matrix CSV, an EA placement and its frontier
/// export, a campaign directory, and the source tree's metric names.
/// Exit 0 when clean (warnings allowed), 2 when any error-severity
/// finding — or any finding at all under --strict — is reported.
int lint(const Args& a, const std::string& target) {
    const bool all = target == "all";
    const auto campaign_dir = a.text("--campaign-dir");
    const auto model_file = a.text("--model");
    analysis::Report report;

    // -- propagation model -------------------------------------------------
    if (all || target == "model") {
        if (model_file) {
            std::ifstream in = open_in(*model_file);
            report.merge(analysis::lint_model_text(in, "model:" + *model_file));
        } else {
            report.merge(analysis::lint_model(target::make_arrestment_model(),
                                              "model:arrestment"));
        }
    }

    // -- permeability matrix, EA placements and frontier exports -----------
    // Both are checked against the --model when one is given; a model
    // that has just reported errors cannot carry them.
    if ((all || target == "matrix" || target == "placement") &&
        report.error_count() == 0) {
        const model::SystemModel system =
            load_target(model_file.value_or("arrestment"));
        // The matrix file is linted as text, so a broken one is reported
        // rather than thrown; placements are checked only over a matrix
        // that lints clean of errors. Without --matrix, the arrestment
        // model has paper Table 1; a custom --model has no matrix to lint,
        // and its placements are checked over its structure alone (every
        // pair may propagate), as `check` does.
        std::optional<epic::PermeabilityMatrix> pm;
        if (const auto matrix_file = a.text("--matrix")) {
            const std::string csv = read_text(*matrix_file);
            std::istringstream lint_in(csv);
            analysis::Report matrix_report =
                analysis::lint_matrix_csv(lint_in, system, "matrix:" + *matrix_file);
            if (matrix_report.error_count() == 0) {
                std::istringstream in(csv);
                pm.emplace(epic::load_matrix_csv(in, system));
            }
            if (all || target == "matrix" || !pm) report.merge(std::move(matrix_report));
        } else if (model_file) {
            pm.emplace(epic::uniform_matrix(system, 1.0));
            if (all || target == "matrix") {
                std::fprintf(stderr, "no --matrix given: no matrix linted against %s\n",
                             model_file->c_str());
            }
        } else {
            pm.emplace(exp::paper_matrix(system));
            if (all || target == "matrix") {
                report.merge(analysis::lint_matrix(*pm, "matrix:paper-table-1"));
            }
        }

        if ((all || target == "placement") && pm) {
            // The reference sets and the committed frontier export are
            // the arrestment's, so a custom --model skips them.
            const bool full_coverage = a.on("--full-coverage");
            if (const auto list = a.text("--ea")) {
                const std::vector<std::string> names = split_commas(*list);
                report.merge(analysis::lint_placement(*pm, names, "placement:--ea"));
                report.merge(analysis::lint_placement_structure(
                    *pm, names, "placement:--ea", full_coverage));
            } else if (!model_file) {
                for (const opt::ReferenceSet& set : opt::arrestment_reference_sets()) {
                    report.merge(analysis::lint_placement(*pm, set.signals,
                                                          "placement:" + set.label));
                    report.merge(analysis::lint_placement_structure(
                        *pm, set.signals, "placement:" + set.label, full_coverage));
                }
            }

            std::string frontier_path = a.text("--frontier-dot").value_or("");
            if (frontier_path.empty() && all && !model_file) {
                // `lint all` from the repo root checks the committed export.
                const char* committed = "frontier_placement_input.dot";
                std::ifstream probe(committed);
                if (probe) frontier_path = committed;
            }
            if (!frontier_path.empty()) {
                std::ifstream in = open_in(frontier_path);
                const opt::PlacementOptimizer optimizer =
                    opt::PlacementOptimizer::analytic(*pm, opt::ErrorModel::kInput);
                std::vector<std::string> labels;
                for (const opt::ReferenceSet& set : opt::arrestment_reference_sets()) {
                    labels.push_back(set.label);
                }
                report.merge(analysis::lint_frontier_dot(
                    in, optimizer.candidates(), labels, "frontier:" + frontier_path));
            }
        }
    }

    // -- campaign directory ------------------------------------------------
    if ((all || target == "campaign") && campaign_dir) {
        report.merge(analysis::lint_campaign_dir(*campaign_dir));
    }

    // -- source tree -------------------------------------------------------
    if (all || target == "metrics") {
        const std::string root = a.text("--src").value_or(".");
        std::size_t names_seen = 0;
        report.merge(analysis::lint_metric_names(root, &names_seen));
        if (target == "metrics" && !a.on("--json")) {
            std::fprintf(stderr, "%zu distinct metric names scanned under %s\n",
                         names_seen, root.c_str());
        }
    }

    write_out(a, "--out", [&a, &report](std::ostream& os) {
        if (a.on("--json")) {
            analysis::write_json(os, report);
        } else {
            analysis::write_text(os, report);
        }
    });
    return report.exit_code(a.on("--strict"));
}

int cmd_lint(const Args& a) { return lint(a, a.positional); }

int cmd_lint_campaign(const Args& a) { return lint(a, "campaign"); }

int cmd_lint_rules(const Args&) {
    for (const analysis::RuleInfo& rule : analysis::rule_catalog()) {
        std::printf("%s %-7s %-28s %s\n", rule.id, analysis::to_string(rule.severity),
                    rule.title, rule.rationale);
    }
    return 0;
}

std::string bound_str(const analytic::Bound& b) {
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.4f [%.4f, %.4f]", b.point, b.lo, b.hi);
    return buf;
}

/// `analytic predict` — composed permeability / exposure / impact with
/// error bars, from a matrix CSV (default: the paper's Table 1), with no
/// injection run at all.
int cmd_analytic_predict(const Args& a) {
    static const model::SystemModel system = target::make_arrestment_model();
    const epic::PermeabilityMatrix pm = load_matrix(a, system);
    const analytic::Engine engine(pm);
    const std::string sink_name = a.text("--sink").value_or("TOC2");
    const model::SignalId sink = system.signal_id(sink_name);

    if (const auto source = a.text("--source")) {
        const analytic::Bound b = engine.permeability(system.signal_id(*source), sink);
        if (a.on("--json")) {
            // Shared reporter: byte-identical to POST /v1/analytic/predict.
            std::fputs(analytic::predict_pair_json(*source, sink_name, b,
                                                   !engine.any_unconverged())
                           .c_str(),
                       stdout);
        } else {
            std::printf("P(%s -> %s) = %s%s\n", source->c_str(), sink_name.c_str(),
                        bound_str(b).c_str(),
                        engine.any_unconverged() ? "  (iteration cap hit)" : "");
        }
        return 0;
    }

    if (a.on("--json")) {
        std::vector<analytic::PredictRow> rows;
        for (const model::SignalId s : system.all_signals()) {
            analytic::PredictRow row;
            row.signal = system.signal_name(s);
            row.exposure = engine.exposure(s);
            if (s != sink) row.impact = engine.permeability(s, sink);
            rows.push_back(std::move(row));
        }
        std::fputs(
            analytic::predict_profile_json(sink_name, rows, !engine.any_unconverged())
                .c_str(),
            stdout);
        return 0;
    }

    util::TextTable table({"Signal", "X_s [95% CI]", "impact -> " + sink_name},
                          {util::Align::kLeft, util::Align::kLeft, util::Align::kLeft});
    for (const model::SignalId s : system.all_signals()) {
        const auto x = engine.exposure(s);
        table.add_row({system.signal_name(s), x ? bound_str(*x) : "-",
                       s == sink ? "-" : bound_str(engine.permeability(s, sink))});
    }
    std::cout << table;
    std::printf("# %zu fixpoint solve(s), %s\n", engine.solves(),
                engine.any_unconverged() ? "iteration cap hit" : "all converged");
    return 0;
}

/// `analytic diff-plan` — module-level diff of an edited model against a
/// baseline, provenance checks on the cached campaign artifacts, a
/// minimal re-injection CampaignSpec, and (optionally) the spliced
/// merged matrix.
int cmd_analytic_diff_plan(const Args& a) {
    const model::SystemModel edited = load_target(*a.text("--model"));
    const model::SystemModel base =
        load_target(a.text("--base-model").value_or("arrestment"));
    const analytic::DeltaPlan plan = analytic::diff_models(base, edited);

    // Base spec: the cached campaign's own spec.json when a directory is
    // given (so the delta campaign reuses its sizing and seeds), the
    // permeability defaults otherwise.
    campaign::CampaignSpec base_spec =
        campaign::CampaignSpec::defaults(campaign::CampaignKind::kPermeability);
    const auto dir = a.text("--dir");
    analytic::ProvenanceCheck provenance;
    if (dir) {
        std::ifstream spec_in(*dir + "/spec.json");
        if (!spec_in) {
            provenance.ok = false;
            provenance.notes.push_back("cannot read " + *dir + "/spec.json");
        } else {
            std::ostringstream buf;
            buf << spec_in.rdbuf();
            base_spec = campaign::CampaignSpec::from_json(buf.str());
            const analytic::ProvenanceCheck manifest =
                analytic::check_manifest(*dir + "/manifest.json", base_spec);
            const analytic::ProvenanceCheck cache =
                analytic::check_subset_cache(*dir + "/subset_cache.json");
            provenance.ok = manifest.ok && cache.ok;
            provenance.notes.insert(provenance.notes.end(), manifest.notes.begin(),
                                    manifest.notes.end());
            provenance.notes.insert(provenance.notes.end(), cache.notes.begin(),
                                    cache.notes.end());
        }
    }
    const campaign::CampaignSpec delta_spec = analytic::to_campaign_spec(plan, base_spec);

    if (a.on("--json")) {
        util::JsonObject o;
        o.emplace("plan", plan.to_json());
        o.emplace("base_model_hash", util::JsonValue(analytic::model_hash(base)));
        o.emplace("edited_model_hash", util::JsonValue(analytic::model_hash(edited)));
        if (dir) {
            util::JsonObject p;
            p.emplace("ok", util::JsonValue(provenance.ok));
            util::JsonArray notes;
            for (const std::string& n : provenance.notes) notes.emplace_back(n);
            p.emplace("notes", util::JsonValue(std::move(notes)));
            o.emplace("provenance", util::JsonValue(std::move(p)));
        }
        std::printf("%s\n", util::JsonValue(std::move(o)).dump().c_str());
    } else {
        const auto list = [](const char* label, const std::vector<std::string>& names) {
            std::printf("%s (%zu):", label, names.size());
            for (const std::string& n : names) std::printf(" %s", n.c_str());
            std::printf("\n");
        };
        list("unchanged", plan.unchanged);
        list("changed", plan.changed);
        list("added", plan.added);
        list("removed", plan.removed);
        std::printf(plan.empty() ? "empty plan: every cached module row is still valid\n"
                                 : "delta campaign re-injects %zu module(s)\n",
                    plan.stale_modules().size());
        for (const std::string& n : provenance.notes) {
            std::fprintf(stderr, "provenance: %s\n", n.c_str());
        }
    }
    if (dir && !provenance.ok) {
        std::fprintf(stderr,
                     "analytic: provenance check failed; cached results are "
                     "untrustworthy — run a full campaign instead of a delta\n");
        return 1;
    }

    if (const auto spec_out = a.text("--spec-out")) {
        write_file(*spec_out, [&delta_spec](std::ostream& os) {
            os << delta_spec.to_json() << "\n";
        });
    }

    // The parser lets --cached and --fresh through only with each other
    // and --merged-out.
    if (const auto cached_file = a.text("--cached")) {
        // The cached matrix was measured on the base model, the fresh one
        // on the edited model; splice_matrix re-keys rows by module name.
        std::ifstream cached_in = open_in(*cached_file);
        std::ifstream fresh_in = open_in(*a.text("--fresh"));
        const epic::PermeabilityMatrix cached = epic::load_matrix_csv(cached_in, base);
        const epic::PermeabilityMatrix fresh = epic::load_matrix_csv(fresh_in, edited);
        const epic::PermeabilityMatrix merged =
            analytic::splice_matrix(edited, cached, fresh, plan);
        write_file(*a.text("--merged-out"),
                   [&merged](std::ostream& os) { epic::save_matrix_csv(os, merged); });
    }
    return 0;
}

/// `analytic validate` — the analytic-parity gate: engine vs exact
/// enumeration on Table 1, vs end-to-end campaign measurement, and a
/// synthetic divergence sweep. Writes the comparison JSON (the CI
/// artifact) and exits 1 when a prong exceeds its committed tolerance.
int cmd_analytic_validate(const Args& a) {
    analytic::ValidateOptions options;
    options.run_campaign = !a.on("--no-campaign");
    options.run_synth = !a.on("--no-synth");
    a.get("--cases", options.campaign.case_count);
    a.get("--times", options.campaign.times_per_bit);
    a.get("--graphs", options.synth_graphs);
    a.get("--seed", options.synth_seed);
    a.get("--enumeration-tolerance", options.enumeration_tolerance);
    a.get("--campaign-tolerance", options.campaign_tolerance);
    if (options.run_campaign) {
        std::fprintf(stderr,
                     "validating (enumeration + campaign of %zu cases x %zu "
                     "times/bit%s)...\n",
                     options.campaign.case_count, options.campaign.times_per_bit,
                     options.run_synth ? " + synth sweep" : "");
    }
    const analytic::ValidateResult result = analytic::validate_arrestment(options);
    const std::string text = result.report.dump();
    write_out(a, "--out", [&text](std::ostream& os) { os << text << "\n"; });
    std::fprintf(stderr, "analytic validate: %s\n", result.pass ? "PASS" : "FAIL");
    return result.pass ? 0 : 1;
}

/// `epea_tool synth` — emit a seeded random layered system (and its
/// matrix) in the text formats the other commands consume. The same
/// seed and shape flags always produce byte-identical output.
int cmd_synth(const Args& a) {
    synth::LayeredOptions options;
    a.get("--layers", options.layers);
    a.get("--width", options.modules_per_layer);
    a.get("--fan-in", options.inputs_per_module);
    a.get("--fan-out", options.outputs_per_module);
    a.get("--edge-density", options.edge_density);
    a.get("--cycle-density", options.cycle_density);
    a.get("--seed", options.seed);
    const synth::SyntheticSystem sys = synth::random_layered_system(options);
    write_out(a, "--out",
              [&sys](std::ostream& os) { epic::save_system_text(os, *sys.system); });
    if (const auto out = a.text("--matrix-out")) {
        write_file(*out,
                   [&sys](std::ostream& os) { epic::save_matrix_csv(os, sys.matrix); });
    }
    std::fprintf(stderr, "# synth: %zu layers x %zu modules, %zu signals, seed %llu\n",
                 options.layers, options.modules_per_layer, sys.system->signal_count(),
                 static_cast<unsigned long long>(options.seed));
    return 0;
}

/// `epea_tool serve` — the long-running placement/analysis daemon
/// (DESIGN.md §13). Loads model + matrix once, answers concurrent
/// HTTP/JSON queries until SIGINT/SIGTERM, then drains gracefully and
/// flushes the usual observability artifacts.
int cmd_serve(const Args& a) {
    serve::DaemonOptions options;
    options.service.tool_version = EPEA_VERSION;
    a.get("--model", options.service.model_path);
    a.get("--matrix", options.service.matrix_path);
    a.get("--eval-dir", options.service.eval_dir);
    a.get("--cases", options.service.gt_cases);
    a.get("--times", options.service.gt_times);
    a.get("--port", options.server.port);
    a.get("--threads", options.server.threads);

    obs::ArgvRecorder recorder(a.argv, a.command->path, EPEA_VERSION);
    {
        util::JsonObject config;
        config.emplace("eval_dir", util::JsonValue(options.service.eval_dir));
        config.emplace("port", util::JsonValue(options.server.port));
        config.emplace("threads", util::JsonValue(options.server.threads));
        recorder.manifest().config = std::move(config);
        recorder.manifest().threads = options.server.threads;
    }
    const int rc = serve::run_daemon(options);
    const int obs_rc = recorder.finish();
    return rc != 0 ? rc : obs_rc;
}

int cmd_version(const Args&) {
    std::printf("epea_tool %s (%s, obs %s)\n", EPEA_VERSION, obs::build_type(),
                obs::kEnabled ? "on" : "off");
    return 0;
}

// -------------------------------------------------------------- command table

std::vector<Flag> join(std::initializer_list<std::vector<Flag>> groups) {
    std::vector<Flag> flags;
    for (const std::vector<Flag>& group : groups) {
        flags.insert(flags.end(), group.begin(), group.end());
    }
    return flags;
}

std::vector<Command> make_commands() {
    using F = Flag;
    constexpr double kU32 = std::numeric_limits<std::uint32_t>::max();
    // How runs execute (one fi::ExecPolicy) and the observability exports.
    const std::vector<Flag> exec = {
        F::toggle("--no-fastpath"), F::toggle("--no-batch"),
        F::count("--batch-width", "N", 1,
                 static_cast<double>(fi::BatchRunner::kMaxWidth))};
    const std::vector<Flag> observe = {F::text("--trace-out", "FILE"),
                                       F::text("--metrics-out", "FILE")};
    // campaign run and resume drive one executor run.
    const std::vector<Flag> run = {
        F::text("--dir", "DIR").mandatory(), F::count("--threads", "T"),
        F::count("--max-shards", "N"), F::text("--out", "FILE"), F::toggle("--verbose"),
        F::count("--timeline-interval", "MS", 0, kU32),
        F::count("--timeline-stall", "N", 0, kU32)};
    // Every lint target takes the same flags; `lint campaign` needs a dir.
    const std::vector<Flag> lint = {
        F::toggle("--json"), F::toggle("--strict"), F::text("--out", "FILE"),
        F::text("--model", "FILE"), F::text("--matrix", "FILE"),
        F::text("--ea", "S1,S2,..."), F::toggle("--full-coverage"),
        F::text("--frontier-dot", "FILE"), F::text("--src", "DIR")};
    const Flag campaign_dir = F::text("--campaign-dir", "DIR");
    const std::vector<Flag> place = join(
        {{F::text("--error-model", "input|severe"),
          F::text("--benefit", "visibility|analytic|ground-truth"),
          F::real("--budget-memory", "B"), F::real("--budget-time", "T"),
          F::toggle("--json"), F::toggle("--no-prune"), F::text("--out-prefix", "PATH"),
          F::toggle("--ground-truth"), F::text("--dir", "DIR"), F::count("--cases", "N"),
          F::count("--times", "M"), F::count("--shards", "S"), F::count("--threads", "T"),
          F::toggle("--verbose")},
         exec,
         observe});
    return {
        {"describe", nullptr, {}, {F::toggle("--dot")}, cmd_describe},
        {"simulate", nullptr, {}, {F::real("--mass", "KG"), F::real("--speed", "MPS")},
         cmd_simulate},
        {"estimate", nullptr, {},
         join({{F::count("--cases", "N"), F::count("--times", "M"),
                F::text("--out", "FILE")},
               exec,
               observe}),
         cmd_estimate},
        {"analyze", "FILE", {}, {F::text("--sink", "SIGNAL")}, cmd_analyze},
        {"inject", nullptr, {},
         {F::text("--signal", "NAME").mandatory(),
          F::count("--bit", "B", 0, 31).mandatory(),
          F::count("--at", "TICK", 0, kU32).mandatory()},
         cmd_inject},
        {"campaign run", nullptr, {},
         join({run,
               {F::text("--spec", "FILE"), F::text("--kind", "K"),
                F::count("--cases", "N"), F::count("--times", "M"),
                F::count("--shards", "S"),
                F::real("--adaptive", "HALF_WIDTH", 0, 1), F::count("--min-trials", "N")},
               exec,
               observe}),
         cmd_campaign_run},
        {"campaign resume", nullptr, {}, join({run, exec, observe}), cmd_campaign_resume},
        {"campaign status", nullptr, {},
         {F::text("--dir", "DIR").mandatory(), F::toggle("--metrics"),
          F::toggle("--follow"), F::real("--interval", "SECONDS")},
         cmd_campaign_status},
        {"obs trace", "DIR", {}, {}, cmd_obs_trace},
        {"obs metrics", "DIR", {}, {}, cmd_obs_metrics},
        {"obs report", "DIR", {}, {F::toggle("--json"), F::count("--top", "N")},
         cmd_obs_report},
        {"place optimize", nullptr, {}, place, cmd_place},
        {"place frontier", nullptr, {}, place, cmd_place},
        {"place explain", nullptr, {}, place, cmd_place},
        {"check", "<arrestment|tank|FILE.sys>", {},
         {F::text("--matrix", "FILE"),
          F::text("--placement", "S1,S2,...|EH-set|PA-set|EXT-set"),
          F::text("--error-model", "input|severe"), F::toggle("--json"),
          F::text("--out", "FILE")},
         cmd_check},
        {"lint", "TARGET", {"model", "matrix", "placement", "metrics", "all"},
         join({lint, {campaign_dir}}), cmd_lint},
        {"lint campaign", nullptr, {}, join({{campaign_dir.mandatory()}, lint}),
         cmd_lint_campaign},
        {"lint rules", nullptr, {}, {}, cmd_lint_rules},
        {"analytic predict", nullptr, {},
         {F::text("--matrix", "FILE"), F::text("--source", "SIG"),
          F::text("--sink", "SIG"), F::toggle("--json")},
         cmd_analytic_predict},
        {"analytic diff-plan", nullptr, {},
         {F::text("--model", "FILE").mandatory(), F::text("--base-model", "FILE"),
          F::text("--dir", "DIR"), F::text("--spec-out", "FILE"), F::toggle("--json"),
          // Splicing: --merged-out alone is accepted and ignored.
          F::text("--cached", "FILE").with({"--fresh", "--merged-out"}),
          F::text("--fresh", "FILE").with({"--cached", "--merged-out"}),
          F::text("--merged-out", "FILE")},
         cmd_analytic_diff_plan},
        {"analytic validate", nullptr, {},
         {F::toggle("--no-campaign"), F::toggle("--no-synth"), F::count("--cases", "N"),
          F::count("--times", "M"), F::count("--graphs", "N"), F::count("--seed", "S"),
          F::real("--enumeration-tolerance", "D"), F::real("--campaign-tolerance", "D"),
          F::text("--out", "FILE")},
         cmd_analytic_validate},
        {"synth", nullptr, {},
         {F::count("--layers", "N"), F::count("--width", "N"), F::count("--fan-in", "N"),
          F::count("--fan-out", "N"), F::real("--edge-density", "D", 0, 1),
          F::real("--cycle-density", "D", 0, 1), F::count("--seed", "S"),
          F::text("--out", "FILE"), F::text("--matrix-out", "FILE")},
         cmd_synth},
        {"serve", nullptr, {},
         join({{F::text("--model", "FILE"), F::text("--matrix", "FILE"),
                F::count("--port", "N", 0, 65535), F::count("--threads", "T"),
                F::text("--eval-dir", "DIR"), F::count("--cases", "N"),
                F::count("--times", "M")},
               observe}),
         cmd_serve},
        {"version", nullptr, {}, {}, cmd_version},
    };
}

const std::vector<Command>& commands() {
    static const std::vector<Command> table = make_commands();
    return table;
}

// --------------------------------------------------------------------- parser

/// `lead` + one command's usage: its path, its positional, then its flags
/// (required ones bare, optional ones bracketed), wrapped under the path.
std::string usage_of(const Command& c, const std::string& lead) {
    std::vector<std::string> words;
    if (c.positional) {
        std::string choices;
        for (const std::string& choice : c.choices) {
            choices += (choices.empty() ? "<" : "|") + choice;
        }
        words.push_back(choices.empty() ? c.positional : choices + ">");
    }
    for (const Flag& f : c.flags) {
        const std::string word =
            f.kind == Kind::kSwitch ? f.name : std::string(f.name) + " " + f.meta;
        words.push_back(f.required ? word : "[" + word + "]");
    }
    std::string out = lead + c.path;
    const std::size_t indent = out.size();
    std::size_t column = indent;
    for (const std::string& word : words) {
        if (column + 1 + word.size() > 80) {
            out += "\n" + std::string(indent, ' ');
            column = indent;
        }
        out += " " + word;
        column += 1 + word.size();
    }
    return out + "\n";
}

int usage() {
    std::string text = "usage: epea_tool <command> [options]\n";
    for (const Command& c : commands()) text += usage_of(c, "  ");
    std::fputs(text.c_str(), stderr);
    return 2;
}

/// Refuses a command line: names what is wrong, shows the command's
/// usage, and returns the bad-arguments exit status.
int reject(const Command& command, const std::string& why) {
    std::fprintf(stderr, "epea_tool: %s: %s\n%s", command.path, why.c_str(),
                 usage_of(command, "usage: epea_tool ").c_str());
    return 2;
}

std::string range_str(const Flag& f) {
    char buf[80];
    std::snprintf(buf, sizeof buf, "[%.15g, %.15g]", f.min, f.max);
    return buf;
}

/// The one argument parser: checks `a.argv` against its command's
/// declaration and stores every value with its declared type. Returns 0,
/// or the exit status of the refusal it printed.
int parse(Args& a) {
    const Command& c = *a.command;
    for (std::size_t i = 0; i < a.argv.size(); ++i) {
        const std::string& token = a.argv[i];
        if (token.rfind("--", 0) != 0) {
            if (!c.positional || !a.positional.empty()) {
                return reject(c, "unexpected argument '" + token + "'");
            }
            if (!c.choices.empty() &&
                std::find(c.choices.begin(), c.choices.end(), token) == c.choices.end()) {
                return reject(c, "unknown " + std::string(c.positional) + " '" + token +
                                     "'");
            }
            a.positional = token;
            continue;
        }
        const auto f = std::find_if(c.flags.begin(), c.flags.end(),
                                    [&token](const Flag& f) { return token == f.name; });
        if (f == c.flags.end()) return reject(c, "unknown flag " + token);
        if (f->kind == Kind::kSwitch) {
            a.values.emplace(token, true);
            continue;
        }
        if (i + 1 == a.argv.size()) return reject(c, "flag " + token + " needs a value");
        const std::string& text = a.argv[++i];
        if (f->kind == Kind::kText) {
            a.values.emplace(token, text);
            continue;
        }
        const char* first = text.data();
        const char* last = first + text.size();
        double number = 0.0;
        if (f->kind == Kind::kCount) {
            std::uint64_t n = 0;
            const auto [end, ec] = std::from_chars(first, last, n);
            if (ec != std::errc() || end != last) {
                return reject(c, token + " takes an unsigned count, not '" + text + "'");
            }
            a.values.emplace(token, n);
            number = static_cast<double>(n);
        } else {
            const auto [end, ec] = std::from_chars(first, last, number);
            if (ec != std::errc() || end != last || !std::isfinite(number)) {
                return reject(c, token + " takes a finite number, not '" + text + "'");
            }
            a.values.emplace(token, number);
        }
        if (number < f->min || number > f->max) {
            return reject(c, token + " must be in " + range_str(*f) + ", not " + text);
        }
    }
    for (const Flag& f : c.flags) {
        if (f.required && !a.on(f.name)) {
            return reject(c, "missing " + std::string(f.name) + " " + f.meta);
        }
        for (const char* other : f.needs) {
            if (a.on(f.name) && !a.on(other)) {
                return reject(c, std::string(f.name) + " needs " + other);
            }
        }
    }
    if (c.positional && a.positional.empty()) {
        return reject(c, "missing " + std::string(c.positional));
    }
    return 0;
}

}  // namespace

int main(int argc, char** argv) {
    const std::vector<std::string> words(argv + 1, argv + argc);
    // The longest command path that prefixes the words wins ("lint rules"
    // over "lint").
    const Command* command = nullptr;
    std::size_t depth = 0;
    for (const Command& c : commands()) {
        std::istringstream path(c.path);
        std::size_t n = 0;
        bool match = true;
        for (std::string word; path >> word; ++n) {
            match = match && n < words.size() && words[n] == word;
        }
        if (match && n > depth) {
            command = &c;
            depth = n;
        }
    }
    if (!command) {
        if (!words.empty()) {
            // Name the subcommand too when the first word is a group.
            std::string name = words[0];
            const auto in_group = [&name](const Command& c) {
                return std::string(c.path).rfind(name + " ", 0) == 0;
            };
            if (words.size() > 1 &&
                std::any_of(commands().begin(), commands().end(), in_group)) {
                name += " " + words[1];
            }
            std::fprintf(stderr, "epea_tool: unknown command '%s'\n", name.c_str());
        }
        return usage();
    }

    Args a;
    a.command = command;
    a.argv.assign(words.begin() + static_cast<std::ptrdiff_t>(depth), words.end());
    if (const int rc = parse(a)) return rc;
    try {
        return command->run(a);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "%s: %s\n", command->path, e.what());
        return 1;
    }
}
