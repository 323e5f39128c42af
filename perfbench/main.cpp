// epea_perfbench — the repository benchmark's workload binary. One
// process runs one workload for one seed and prints, as its last line,
// {"correct", "attempted", "failed", "metrics"}; the full record (host
// and build fingerprint, samples, checks, stage ledger) goes to the file
// named by --record. See README.md in this directory.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <set>
#include <string>
#include <thread>

#include <sched.h>

#include "bench.hpp"
#include "obs/enabled.hpp"

#ifndef __has_feature
#define __has_feature(x) 0
#endif

namespace perfbench {

namespace {
const Clock::time_point g_process_start = Clock::now();
}

Clock::time_point process_start() { return g_process_start; }

std::vector<MetricDecl> per_layer_decls() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> n;
        for (const char* cls : kServeClasses) {
            n.push_back(std::string("serve.handle_us.") + cls);
            n.push_back(std::string("serve.roundtrip_us.") + cls);
        }
        // fi.fork spans only occur on the scalar fast path (use_batch=false),
        // which no workload runs: that stage would read 0 on every run, so
        // it stays in the ledger table but is not a declared metric.
        for (const char* stage : kStages) {
            if (std::string(stage) != "fork") n.push_back(std::string("stage.") + stage + "_s");
        }
        return n;
    }();
    std::vector<MetricDecl> d = {
        {"campaign.execute_s", "s"},
        {"campaign.shard_wall_max_s", "s"},
        {"campaign.shard_imbalance", "ratio"},
        {"campaign.worker_idle_frac", "ratio"},
        {"campaign.merge_ms", "ms"},
        {"campaign.checkpoint_ms", "ms"},
        {"campaign.checkpoint_bytes", "bytes"},
        {"fi.golden_capture_ms_per_case", "ms"},
        {"fi.golden_bytes_per_case", "bytes"},
        {"fi.runs", "count"},
        {"fi.forked_runs", "count"},
        {"fi.pruned_runs", "count"},
        {"fi.skipped_runs", "count"},
        {"fi.prune_ratio", "ratio"},
        {"fi.ticks_executed", "count"},
        {"fi.ticks_saved", "count"},
        {"fi.lanes_launched", "count"},
        {"fi.lanes_retired_pruned", "count"},
        {"fi.lanes_retired_sealed", "count"},
        {"fi.lanes_retired_end", "count"},
        {"fi.mean_batch_width", "lanes"},
        {"target.batch_lane_ticks_per_s", "1/s"},
        {"runtime.scalar_ticks_per_s", "1/s"},
        {"exp.orchestration_s", "s"},
        {"serve.transport_us", "us"},
        {"serve.latency_p99_ms", "ms"},
        {"serve.memo_hit_rate", "ratio"},
        {"analytic.solve_us", "us"},
        {"opt.build_us", "us"},
        {"opt.search_us", "us"},
        {"opt.evaluations", "count"},
        {"opt.nodes", "count"},
        {"opt.structural_prunes", "count"},
        {"analysis.lint_us", "us"},
        {"obs.trace_overhead_pct", "%"},
        {"obs.dropped_spans", "count"},
        {"obs.ledger_residual_pct", "%"},
    };
    for (const std::string& n : names) {
        const bool serve = n.rfind("serve.", 0) == 0;
        d.push_back({n.c_str(), serve ? "us" : "s"});
    }
    return d;
}

void Outcome::check(bool ok, const std::string& what) {
    ++attempted;
    if (ok) return;
    ++failed;
    if (failures.size() < 8) failures.push_back(what);
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

double percentile(std::vector<double> v, double q) {
    if (v.empty()) return 0.0;
    std::sort(v.begin(), v.end());
    if (q == 0.5 && v.size() % 2 == 0) return 0.5 * (v[v.size() / 2 - 1] + v[v.size() / 2]);
    const auto rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
    return v[std::min(v.size(), std::max<std::size_t>(rank, 1)) - 1];
}

double peak_rss_mb() {
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

epea::util::JsonValue json_samples(const std::vector<double>& v) {
    return epea::util::JsonValue(epea::util::JsonArray(v.begin(), v.end()));
}

std::string digest_hex(const std::string& bytes) {
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : bytes) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h));
    return buf;
}

}  // namespace perfbench

namespace {

using namespace perfbench;
using epea::util::JsonArray;
using epea::util::JsonObject;
using epea::util::JsonValue;

/// Sanitizers compiled into this binary, however they were switched on.
/// GCC defines no macro for UBSan; clang answers all three.
std::string sanitizers() {
    std::string s;
#if defined(__SANITIZE_ADDRESS__) || __has_feature(address_sanitizer)
    s += "address ";
#endif
#if defined(__SANITIZE_THREAD__) || __has_feature(thread_sanitizer)
    s += "thread ";
#endif
#if __has_feature(undefined_behavior_sanitizer)
    s += "undefined ";
#endif
    if (!s.empty()) s.pop_back();
    return s;
}

std::string cpu_model() {
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            return colon == std::string::npos ? line : line.substr(colon + 2);
        }
    }
    return "unknown";
}

/// Pins the calling thread, and so every thread it starts later, to one
/// CPU: the last one it may run on. The reference host is a 4-vCPU VM on
/// a shared machine, and there the host, not the program, decided how
/// fast anything spread over several vCPUs ran:
///   - a campaign on 2 worker threads had 15-50 % of its vCPU time
///     stolen by the host, and the median campaign wall spread 0.22-0.25
///     of its median over ten seeds;
///   - a serve round trip hands work from a client thread to a server
///     thread and back; each hand-over to an idle vCPU waited until the
///     host ran that vCPU, and the 99th-percentile round trip read
///     1.6-9.8 ms from run to run.
/// On one CPU steal fell to 0-3 % and a hand-over is a local context
/// switch (p99 0.94-0.98 ms in the same hour). Returns the CPU, or -1
/// when pinning is not possible.
int pin_to_one_cpu() {
    cpu_set_t allowed;
    CPU_ZERO(&allowed);
    if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return -1;
    int cpu = -1;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
        if (CPU_ISSET(c, &allowed)) cpu = c;
    }
    if (cpu < 0) return -1;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    return sched_setaffinity(0, sizeof one, &one) == 0 ? cpu : -1;
}

int usage() {
    std::cerr << "usage: epea_perfbench --workload perm_campaign|severe_campaign|serve_mixed\n"
                 "         --seed N --seconds S --trace 0|1 [--work-dir DIR]\n"
                 "         [--record FILE] [--commit ID] [--source-digest HEX]\n"
                 "         [--tiny] [--corrupt-reference]\n";
    return 2;
}

}  // namespace

int main(int argc, char** argv) {
    Args args;
    std::string record_path;
    std::string commit = "unknown";
    std::string source_digest = "unknown";
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string a = argv[i];
            const auto value = [&]() -> std::string {
                if (i + 1 >= argc) throw std::invalid_argument(a + " needs a value");
                return argv[++i];
            };
            if (a == "--workload") args.workload = value();
            else if (a == "--seed") args.seed = std::stoull(value());
            else if (a == "--seconds") args.seconds = std::stod(value());
            else if (a == "--trace") args.trace = value() == "1";
            else if (a == "--work-dir") args.work_dir = value();
            else if (a == "--record") record_path = value();
            else if (a == "--commit") commit = value();
            else if (a == "--source-digest") source_digest = value();
            else if (a == "--tiny") args.tiny = true;
            else if (a == "--corrupt-reference") args.corrupt_reference = true;
            else throw std::invalid_argument("unknown argument " + a);
        }
    } catch (const std::exception& e) {
        std::cerr << "epea_perfbench: " << e.what() << '\n';
        return usage();
    }
    const std::set<std::string> workloads = {"perm_campaign", "severe_campaign", "serve_mixed"};
    if (!workloads.count(args.workload) || args.seconds <= 0.0) return usage();

    const std::string build_type = PERFBENCH_BUILD_TYPE;
    const std::string sanitize = sanitizers();
    if (!args.trace && (build_type != "Release" || !sanitize.empty())) {
        std::cerr << "epea_perfbench: refusing to report end-to-end numbers from a '"
                  << build_type << "' build" << (sanitize.empty() ? "" : " with sanitizers")
                  << "; configure with -DCMAKE_BUILD_TYPE=Release\n";
        return 3;
    }

    const int pinned_cpu = pin_to_one_cpu();
    Outcome out;
    try {
        out = args.workload == "serve_mixed" ? run_serve_workload(args)
                                             : run_campaign_workload(args);
    } catch (const std::exception& e) {
        std::cerr << "epea_perfbench: " << args.workload << " failed: " << e.what() << '\n';
        return 1;
    }

    // The declared metric set of this mode, in declaration order. An
    // end-to-end metric must have been measured; a per-layer metric the
    // workload's layers never touch reads 0.
    std::vector<MetricDecl> decls;
    if (args.trace) {
        decls = per_layer_decls();
    } else {
        decls.assign(std::begin(kEndToEnd), std::end(kEndToEnd));
    }
    JsonObject metrics;
    for (const MetricDecl& d : decls) {
        const auto it = out.metrics.find(d.name);
        if (it == out.metrics.end() && !args.trace) {
            std::cerr << "epea_perfbench: metric " << d.name << " was not measured\n";
            return 1;
        }
        JsonObject m;
        m.emplace("value", JsonValue(it != out.metrics.end() ? it->second : 0.0));
        m.emplace("unit", JsonValue(d.unit));
        metrics.emplace(d.name, JsonValue(std::move(m)));
    }

    JsonObject summary;
    summary.emplace("correct", JsonValue(out.failed == 0));
    summary.emplace("attempted", JsonValue(out.attempted));
    summary.emplace("failed", JsonValue(out.failed));
    summary.emplace("metrics", JsonValue(metrics));

    JsonObject host;
    host.emplace("cpu_model", JsonValue(cpu_model()));
    host.emplace("nproc", JsonValue(std::thread::hardware_concurrency()));
    host.emplace("threads_used", JsonValue(out.threads_used));
    host.emplace("pinned_cpu", JsonValue(pinned_cpu));
    host.emplace("build_type", JsonValue(build_type));
    host.emplace("sanitize", JsonValue(sanitize));
    host.emplace("compiler", JsonValue(PERFBENCH_COMPILER));
    host.emplace("epea_obs_enabled", JsonValue(epea::obs::kEnabled));
    host.emplace("commit", JsonValue(commit));
    host.emplace("source_digest", JsonValue(source_digest));

    JsonArray failures;
    for (const std::string& f : out.failures) failures.emplace_back(f);
    JsonObject record;
    record.emplace("workload", JsonValue(args.workload));
    record.emplace("seed", JsonValue(args.seed));
    record.emplace("seconds", JsonValue(args.seconds));
    record.emplace("trace", JsonValue(args.trace));
    record.emplace("tiny", JsonValue(args.tiny));
    record.emplace("fingerprint", JsonValue(std::move(host)));
    record.emplace("error_rate",
                   JsonValue(out.attempted ? double(out.failed) / double(out.attempted) : 0.0));
    record.emplace("failures", JsonValue(std::move(failures)));
    record.emplace("detail", JsonValue(std::move(out.detail)));
    record.emplace("summary", JsonValue(summary));
    if (!record_path.empty()) {
        std::ofstream f(record_path);
        f << JsonValue(std::move(record)).dump() << '\n';
        if (!f) {
            std::cerr << "epea_perfbench: cannot write " << record_path << '\n';
            return 1;
        }
    }
    for (const std::string& f : out.failures) std::cerr << "FAILED: " << f << '\n';
    std::cout << JsonValue(std::move(summary)).dump() << std::endl;
    return 0;
}
