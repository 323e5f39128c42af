// Shared plumbing of the repository benchmark: command-line arguments,
// the result record every workload fills in, the declared metric sets
// and small statistics helpers.
//
// A workload is one process run. It prepares its reference answers
// (set-up), repeats its timed unit (a whole campaign, or one HTTP round
// trip) until the requested measuring time has passed, checks every
// output against the reference answers, and reports:
//   - untraced runs: the end-to-end metrics (kEndToEnd);
//   - traced runs:   the per-layer metrics (kPerLayer), including the
//                    stage ledger of the obs::Tracer spans.
// Both sets are fixed: every workload reports every metric of the set,
// with 0 for a layer the workload does not exercise.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "util/json.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point t0) {
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /// Scratch root: a campaign workload works in its own subdirectory
    /// and removes it when done.
    std::string work_dir = ".bench_build/work";
    /// Self-test sizing: a couple of cases / requests instead of the
    /// paper-scale workload. Never used for reported numbers.
    bool tiny = false;
    /// Self-test hook: corrupts the reference answer so every checked
    /// output must count as a failed operation.
    bool corrupt_reference = false;
};

struct MetricDecl {
    const char* name;
    const char* unit;
};

/// End-to-end metrics (untraced runs). "unit" below means the workload's
/// timed unit: one whole campaign, or one client round trip.
inline constexpr MetricDecl kEndToEnd[] = {
    {"setup_s", "s"},            // process start -> first timed unit
    {"latency_p50_ms", "ms"},    // median wall time of one unit
    {"throughput_per_s", "1/s"}, // injection runs/s or requests/s
    {"peak_rss_mb", "MB"},       // VmHWM of the workload process
};

/// Stage names shared with `epea_tool obs report`, plus `idle` (worker
/// thread time with no span open).
inline constexpr const char* kStages[] = {
    "golden-build", "fork", "batch-kernel", "scalar-run", "checkpoint",
    "merge", "orchestration", "other", "idle",
};

inline constexpr const char* kServeClasses[] = {
    "predict_pair", "predict_profile", "optimize", "lint", "healthz", "metrics",
};

/// Per-layer metrics (traced runs), in report order.
[[nodiscard]] std::vector<MetricDecl> per_layer_decls();

/// The record one workload run produces.
struct Outcome {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> failures;  ///< first few failure messages
    std::map<std::string, double> metrics;
    std::size_t threads_used = 0;
    /// Free-form detail written to the result file (samples, ledger
    /// table, checks); not part of the one-line summary.
    epea::util::JsonObject detail;

    /// Counts one checked operation; a false `ok` is a failure.
    void check(bool ok, const std::string& what);
};

[[nodiscard]] double median(std::vector<double> v);
/// Nearest-rank percentile, q in [0, 1].
[[nodiscard]] double percentile(std::vector<double> v, double q);
/// Peak resident set size of this process (VmHWM), MiB.
[[nodiscard]] double peak_rss_mb();
/// A JSON array of the samples, for the run record.
[[nodiscard]] epea::util::JsonValue json_samples(const std::vector<double>& v);
/// Stable 64-bit FNV-1a digest of a byte string, as hex.
[[nodiscard]] std::string digest_hex(const std::string& bytes);

/// Process start (static initialisation of epea_perfbench); set-up is
/// measured from here.
[[nodiscard]] Clock::time_point process_start();

Outcome run_campaign_workload(const Args& args);
Outcome run_serve_workload(const Args& args);

}  // namespace perfbench
