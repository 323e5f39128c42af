// Batched injection execution (DESIGN.md §14) — the scheduler side of
// the structure-of-arrays batch kernel.
//
// BatchRunner collects single-injection plans, groups them into width-W
// lockstep batches and forks each as a lane: a one-shot plan from the
// golden boundary snapshot at its injection tick, a periodic plan from
// the start snapshot captured by begin_periodic(). All live lanes advance
// one tick per inner-loop pass through a runtime::BatchBackend (the
// target's fused SoA kernel, or the target-agnostic ScalarLaneBackend
// when none is installed). Every lane carries its own flip schedule —
// first tick, period and, for kRandomBit plans, a generator seeded like
// the Injector's — and launches its flip on each due tick. One-shot
// lanes retire on convergence-prune (full state equality with the golden
// boundary — same rule as InjectionRunner), on environment finish, on
// the tick budget, and — in permeability mode — at the golden end, where
// the outcome can no longer change, or earlier when the consumer's
// attribution seal rule is decided (see SealRule). Periodic lanes keep
// re-perturbing their state, so they never prune or seal: they retire on
// environment finish or the tick budget. Retired lanes are compacted out
// of the hot loop.
//
// Bit-identity contract: consumed in submission order, the outcomes
// reproduce exactly what the scalar fast path (and hence the slow path)
// would have produced — fired flags, per-signal first value-differences
// over the common trace prefix (permeability), and monitor/EA detection
// and environment state at run end (coverage).
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fi/fastpath.hpp"
#include "fi/injection.hpp"
#include "runtime/batch.hpp"
#include "runtime/simulator.hpp"
#include "util/rng.hpp"

namespace epea::fi {

/// Outcome of one batched injection run, mirroring what the scalar fast
/// path exposes through the injector, the trace and the monitor state.
struct BatchOutcome {
    bool fired = false;          ///< the flip executed (injection tick < golden end)
    runtime::Tick end_tick = 0;  ///< RunResult::ticks equivalent
    bool finished = false;       ///< RunResult::env_finished equivalent
    bool pruned = false;         ///< retired on state re-convergence
    /// Permeability mode: per-signal first tick (index = SignalId) where
    /// the lane's post-step signals differed from the golden trace;
    /// kInvalidTick = never. Recorded online over the common prefix —
    /// what Trace::first_difference(value-diffs-only) computes.
    std::vector<runtime::Tick> first_diff;
    /// Coverage mode: the monitor and environment snapshot sections at
    /// run end (EA detection and plant state; golden end state for
    /// pruned/skipped runs).
    std::vector<std::uint64_t> monitors;
    std::vector<std::uint64_t> environment;
};

class BatchRunner {
public:
    /// Attribution seal (permeability mode): declares which first-diff
    /// facts decide a lane's outcome, so the lane can retire the moment
    /// they are all in. First diffs are recorded in time order — at the
    /// end of tick k every recorded diff is <= k and every future one is
    /// >= k+1 — which makes two retirement rules exact:
    ///
    ///  - any_of (direct attribution's contamination witnesses, the
    ///    module's non-injected inputs): once ANY of them has a first
    ///    diff c <= k, the contamination minimum is final, and an output
    ///    whose diff is still unrecorded can only diff at >= k+1 > c —
    ///    decided not-affected. Must be empty when the consumer reads
    ///    raw output first-diffs (the any-output-diff ablation), which
    ///    a later diff would still change.
    ///  - all_of (the module's outputs): once ALL of them have a first
    ///    diff <= k, each is <= any contamination value that could still
    ///    arrive (>= k+1) — decided affected — and the recorded diffs
    ///    themselves are exact.
    ///
    /// Sealed lanes may under-record first diffs of signals outside the
    /// rule; consumers must read only what their rule covers.
    struct SealRule {
        std::vector<model::SignalId> any_of;
        std::vector<model::SignalId> all_of;
    };
    /// submit() seal handle meaning "never seal" (coverage mode, or
    /// consumers without a sound rule).
    static constexpr std::uint32_t kNoSeal = 0xffffffffU;

    /// What the consumer reads from the outcomes; decides lane
    /// retirement policy and which outcome fields are recorded.
    enum class Mode {
        /// Permeability estimation reads fired + first_diff only, and
        /// attribution uses the common trace prefix — a lane alive at the
        /// golden end can no longer change its outcome and retires there.
        kPermeability,
        /// Coverage experiments read fired + monitor and environment
        /// state; EAs can still fire after the golden end, so lanes run
        /// to environment finish. Periodic plans run only in this mode.
        kCoverage,
    };

    /// Default lanes per lockstep batch. Wide batches amortize the
    /// low-occupancy tail (lanes retire at different ticks); at 256
    /// lanes the arrestment SoA state is ~200 KiB — still cache
    /// resident — and the Table-1 campaign measures fastest here.
    static constexpr std::size_t kAutoWidth = 256;
    /// Convergence-prune confirmation cadence: full-state lane compares
    /// are strided (one cache line per word), so they run only every
    /// N-th tick. A converged lane evolves exactly like the golden run,
    /// so checking late never changes an outcome — it only delays the
    /// retirement by up to N-1 ticks.
    static constexpr runtime::Tick kPruneCheckPeriod = 8;
    /// Hard cap on --batch-width style requests (CLI and serve validate
    /// against this, like worker-thread counts).
    static constexpr std::size_t kMaxWidth = 256;

    explicit BatchRunner(runtime::Simulator& sim) noexcept : sim_(&sim) {}

    void set_mode(Mode mode) noexcept { mode_ = mode; }
    /// Lanes per lockstep batch; 0 = auto (kAutoWidth).
    void set_width(std::size_t width) noexcept { width_ = width; }
    [[nodiscard]] std::size_t effective_width() const noexcept {
        return width_ == 0 ? kAutoWidth : width_;
    }

    void set_golden(std::shared_ptr<const GoldenCaseData> golden) noexcept {
        golden_ = std::move(golden);
    }

    /// True when submit/flush can run batches for this golden data and
    /// tick budget; callers keep the scalar path otherwise.
    [[nodiscard]] bool ready(runtime::Tick max_ticks) const noexcept {
        return golden_ && golden_->has_snapshots() && golden_->max_ticks == max_ticks &&
               sim_->snapshot_supported();
    }

    /// Registers a seal rule for later submits; returns its handle.
    /// Rules persist across clear() — consumers register once per
    /// (module, port) and reuse the handles for every case.
    std::uint32_t add_seal_rule(SealRule rule);

    /// Captures the state periodic lanes fork from — the simulator right
    /// after reset() in its current configuration, armed monitors and
    /// recoverers included — and the tick budget they run to. Returns
    /// whether the target's fused kernel takes such lanes; when it does
    /// not, callers keep periodic plans on the scalar path, since without
    /// fork or prune a lane multiplexed through ScalarLaneBackend costs
    /// more than a scalar run.
    bool begin_periodic(runtime::Tick max_ticks);

    /// Queues one injection. Returns the ticket index for outcome().
    /// `seal` is an add_seal_rule() handle, or kNoSeal to run the lane to
    /// its normal retirement; `seed` drives kRandomBit draws (memory-word
    /// plans only) exactly as Injector::arm does. Periodic plans need
    /// coverage mode and no seal.
    std::size_t submit(const Injection& injection, std::uint32_t seal = kNoSeal,
                       std::uint64_t seed = 1);

    /// Runs every queued injection to retirement. Outcomes become valid,
    /// indexed by ticket in submission order. One-shot plans need a
    /// batch-ready golden, periodic plans a begin_periodic() since the
    /// last clear().
    void flush();

    [[nodiscard]] const BatchOutcome& outcome(std::size_t ticket) const {
        return outcomes_.at(ticket);
    }

    /// Drops outcomes, tickets and the periodic start (start of a new
    /// case).
    void clear() {
        pending_.clear();
        outcomes_.clear();
        periodic_max_ticks_ = 0;
    }

    [[nodiscard]] const FastPathStats& stats() const noexcept { return stats_; }
    [[nodiscard]] FastPathStats& stats() noexcept { return stats_; }

private:
    struct Pending {
        std::size_t ticket = 0;
        std::uint32_t seal = kNoSeal;
        std::uint64_t seed = 1;
        unsigned width = 0;  ///< memory word width (kRandomBit draws)
        Injection inj;

        /// Tick the lane forks at: periodic lanes start from tick 0.
        [[nodiscard]] runtime::Tick fork_tick() const noexcept {
            return inj.period != 0 ? 0 : inj.at;
        }
    };
    /// A live lane's metadata, read by the retirement scan every tick.
    struct Lane {
        std::size_t ticket = 0;
        runtime::Tick t0 = 0;  ///< fork tick
        runtime::Tick at = 0;  ///< first firing tick
        std::uint32_t seal = kNoSeal;
    };
    /// A live lane's flip schedule, kept apart from Lane so the per-tick
    /// scans stay within a few cache lines.
    struct Schedule {
        runtime::Tick next = 0;  ///< next firing tick (periodic lanes)
        runtime::Tick period = 0;
        unsigned width = 0;
        runtime::BatchFlip flip;
        util::Rng rng{};  ///< kRandomBit draws, seeded per run
    };

    void run_batch(const Pending* batch, std::size_t count);
    void launch(std::size_t lane, runtime::Tick now);
    void retire_lane(std::size_t lane, runtime::Tick end, bool finished, bool pruned,
                     bool sealed = false);
    [[nodiscard]] bool seal_decided(std::size_t lane) const noexcept;
    [[nodiscard]] static runtime::BatchFlip to_flip(const Injection& inj) noexcept;

    runtime::Simulator* sim_;
    std::shared_ptr<const GoldenCaseData> golden_;
    Mode mode_ = Mode::kPermeability;
    std::size_t width_ = 0;
    std::vector<SealRule> seal_rules_;
    runtime::Snapshot start_;                 ///< periodic lanes fork from here
    runtime::Tick periodic_max_ticks_ = 0;    ///< 0 = no begin_periodic() yet
    std::vector<Pending> pending_;
    std::vector<BatchOutcome> outcomes_;
    FastPathStats stats_;

    // Per-batch working state (capacity reused across batches).
    std::unique_ptr<runtime::ScalarLaneBackend> fallback_;
    runtime::BatchState state_;
    std::vector<Lane> lanes_;
    std::vector<Schedule> schedules_;
    std::vector<runtime::Tick> first_diff_;  ///< [signal * width + lane]
    std::vector<std::uint8_t> mismatch_;     ///< per-lane, reset each tick
    std::vector<std::uint8_t> fd_new_;       ///< lane recorded a first diff this tick
};

}  // namespace epea::fi
