// Flight-recorder sampler unit tier (DESIGN.md §15): sample_once drives
// the sampler synchronously, so stall detection, metric increments and
// the JSONL shape are tested without timing dependence.
#include <gtest/gtest.h>

#include "support/temp_dir.hpp"

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "util/json.hpp"

namespace {

using namespace epea;

namespace fs = std::filesystem;

using test::TempDir;

std::vector<std::string> read_lines(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    std::vector<std::string> lines;
    std::string line;
    while (std::getline(in, line)) {
        if (!line.empty()) lines.push_back(line);
    }
    return lines;
}

std::uint64_t stalled_counter() {
    return obs::MetricsRegistry::global().counter("campaign.worker.stalled").value();
}

TEST(TimelineSampler, WritesSamplesWithTheDocumentedShape) {
    TempDir tmp("shape");
    obs::TimelineOptions options;
    options.path = (tmp.path / "timeline.jsonl").string();
    options.stall_samples = 3;
    std::vector<obs::WorkerProgress> workers(2);
    workers[0].set_phase(obs::TimelinePhase::kExecute);
    workers[0].current_shard.store(1);
    workers[0].runs.store(10);
    workers[0].cache_hits.store(3);
    workers[0].cache_misses.store(1);
    workers[0].lanes_launched.store(8);
    workers[0].lanes_retired.store(6);
    obs::TimelineSampler sampler(std::move(options), &workers,
                                 [] { return std::uint64_t{4}; });
    sampler.sample_once();
    workers[0].runs.store(30);
    sampler.sample_once();
    EXPECT_EQ(sampler.samples_written(), 2U);

    const auto lines = read_lines(tmp.path / "timeline.jsonl");
    ASSERT_EQ(lines.size(), 2U);
    const util::JsonValue first = util::JsonValue::parse(lines[0]);
    EXPECT_EQ(first.at("type").as_string(), "sample");
    EXPECT_EQ(first.at("seq").as_int(), 0);
    EXPECT_EQ(first.at("queue_depth").as_int(), 4);
    EXPECT_EQ(first.at("stalled_workers").as_int(), 0);
    const util::JsonArray& ws = first.at("workers").as_array();
    ASSERT_EQ(ws.size(), 2U);
    EXPECT_EQ(ws[0].at("worker").as_int(), 0);
    EXPECT_EQ(ws[0].at("phase").as_string(), "execute");
    EXPECT_EQ(ws[0].at("shard").as_int(), 1);
    EXPECT_EQ(ws[0].at("runs").as_int(), 10);
    EXPECT_NEAR(ws[0].at("golden_hit_rate").as_double(), 0.75, 1e-9);
    EXPECT_EQ(ws[0].at("lanes_in_flight").as_int(), 2);
    EXPECT_EQ(ws[0].at("lanes_launched").as_int(), 8);
    EXPECT_FALSE(ws[0].at("stalled").as_bool());
    EXPECT_EQ(ws[1].at("phase").as_string(), "idle");
    EXPECT_EQ(ws[1].at("shard").as_int(), -1);

    const util::JsonValue second = util::JsonValue::parse(lines[1]);
    EXPECT_EQ(second.at("seq").as_int(), 1);
    // runs/s derives from the per-sample runs delta: it must be > 0 for
    // the worker that advanced and 0 for the idle one.
    const util::JsonArray& ws2 = second.at("workers").as_array();
    EXPECT_GT(ws2[0].at("runs_per_s").as_double(), 0.0);
    EXPECT_EQ(ws2[1].at("runs_per_s").as_double(), 0.0);
}

TEST(TimelineSampler, FlagsAStalledWorkerOnceAndRecovers) {
    TempDir tmp("stall");
    obs::TimelineOptions options;
    options.path = (tmp.path / "timeline.jsonl").string();
    options.stall_samples = 2;
    std::vector<obs::WorkerProgress> workers(1);
    workers[0].set_phase(obs::TimelinePhase::kExecute);
    workers[0].current_shard.store(0);
    obs::TimelineSampler sampler(std::move(options), &workers,
                                 [] { return std::uint64_t{0}; });

    const std::uint64_t metric_before = stalled_counter();
    // First sample establishes the signature; the next two are quiet,
    // so the stall flips exactly at sample 3 and stays (one transition,
    // one metric increment — not one per sample).
    sampler.sample_once();
    EXPECT_EQ(sampler.stalled_now(), 0U);
    sampler.sample_once();
    EXPECT_EQ(sampler.stalled_now(), 0U);
    sampler.sample_once();
    EXPECT_EQ(sampler.stalled_now(), 1U);
    EXPECT_EQ(sampler.stall_flags(), 1U);
    sampler.sample_once();
    EXPECT_EQ(sampler.stall_flags(), 1U);
    EXPECT_EQ(stalled_counter(), metric_before + 1);

    // Any progress clears the flag.
    workers[0].runs.fetch_add(1);
    sampler.sample_once();
    EXPECT_EQ(sampler.stalled_now(), 0U);

    // A later second stall is a second transition.
    sampler.sample_once();
    sampler.sample_once();
    sampler.sample_once();
    EXPECT_EQ(sampler.stall_flags(), 2U);
    EXPECT_EQ(stalled_counter(), metric_before + 2);

    const auto lines = read_lines(tmp.path / "timeline.jsonl");
    std::size_t stalled_lines = 0;
    for (const std::string& line : lines) {
        const util::JsonValue v = util::JsonValue::parse(line);
        if (v.at("stalled_workers").as_int() > 0) ++stalled_lines;
    }
    EXPECT_GE(stalled_lines, 2U);
}

TEST(TimelineSampler, IdleWorkersAndHeartbeatsAreNeverStalls) {
    TempDir tmp("idle");
    obs::TimelineOptions options;
    options.path = (tmp.path / "timeline.jsonl").string();
    options.stall_samples = 1;
    std::vector<obs::WorkerProgress> workers(2);
    // Worker 0 idles forever; worker 1 executes but only heartbeats (a
    // long case inside the permeability estimator makes no run progress,
    // yet must not be flagged).
    workers[1].set_phase(obs::TimelinePhase::kExecute);
    obs::TimelineSampler sampler(std::move(options), &workers,
                                 [] { return std::uint64_t{0}; });
    for (int i = 0; i < 5; ++i) {
        workers[1].heartbeat.fetch_add(1);
        sampler.sample_once();
    }
    EXPECT_EQ(sampler.stalled_now(), 0U);
    EXPECT_EQ(sampler.stall_flags(), 0U);
}

TEST(TimelineSampler, DisabledAndStoppedSamplerAreSafe) {
    // interval 0 or an empty path: start() must be a no-op and stop()
    // must stay idempotent.
    std::vector<obs::WorkerProgress> workers(1);
    obs::TimelineOptions off;
    off.interval_ms = 0;
    obs::TimelineSampler sampler(std::move(off), &workers,
                                 [] { return std::uint64_t{0}; });
    sampler.start();
    sampler.stop();
    sampler.stop();
    EXPECT_EQ(sampler.samples_written(), 0U);
}

TEST(TimelineSampler, StartStopWritesAFinalSample) {
    TempDir tmp("final");
    obs::TimelineOptions options;
    options.path = (tmp.path / "timeline.jsonl").string();
    options.interval_ms = 3600 * 1000;  // cadence never fires in-test
    std::vector<obs::WorkerProgress> workers(1);
    obs::TimelineSampler sampler(std::move(options), &workers,
                                 [] { return std::uint64_t{0}; });
    sampler.start();
    sampler.stop();
    // stop() takes the final sample even when the cadence never fired,
    // so short campaigns still leave at least one line.
    EXPECT_GE(sampler.samples_written(), 1U);
    EXPECT_GE(read_lines(tmp.path / "timeline.jsonl").size(), 1U);
}

}  // namespace
