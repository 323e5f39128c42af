// The run front (DESIGN.md §9): the one per-case entry point through
// which every experiment driver executes its injection runs. A driver
// says HOW runs execute with an ExecPolicy and WHAT to run as a queue of
// plans per test case; CaseRunner owns the golden lookup, the dispatch
// (batch kernel, scalar fast path or reference slow path) and the merged
// FastPathStats, and hands outcomes back in submission order in
// BatchOutcome's shape whichever path ran them — so each driver keeps
// exactly one tally loop.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "fi/batch.hpp"
#include "fi/fastpath.hpp"
#include "fi/injection.hpp"
#include "fi/injector.hpp"
#include "runtime/simulator.hpp"

namespace epea::fi {

/// How injection runs execute — the only declaration of these options;
/// every option struct that drives runs inherits it. Results are
/// bit-identical under every setting.
struct ExecPolicy {
    /// Fast path (§9): fork from golden boundary snapshots and prune on
    /// re-convergence; off = the reference slow path.
    bool use_fastpath = true;
    /// Batch kernel (§14) for single-injection plans; off = scalar fast
    /// path.
    bool use_batch = true;
    /// Lanes per lockstep batch; 0 = BatchRunner::kAutoWidth.
    std::size_t batch_width = 0;
    /// Shared golden-run cache (thread-safe); null = a private one.
    GoldenCache* golden_cache = nullptr;
};

/// Thrown by the run front once its thread's stop flag is raised.
struct RunCancelled : std::runtime_error {
    RunCancelled() : std::runtime_error("injection runs cancelled") {}
};

/// Installs `stop` as the calling thread's cancellation flag while in
/// scope. The run front checks it between runs and between lockstep
/// batches — how a campaign worker abandons a shard past the adaptive
/// stop point.
class StopScope {
public:
    explicit StopScope(const std::atomic<bool>& stop) noexcept;
    ~StopScope();
    StopScope(const StopScope&) = delete;
    StopScope& operator=(const StopScope&) = delete;

    /// Throws RunCancelled when the calling thread's flag is set.
    static void check();

private:
    const std::atomic<bool>* previous_;
};

class CaseRunner {
public:
    using Mode = BatchRunner::Mode;
    /// Called with (submission index, outcome) for every run of a flush,
    /// in submission order. Permeability mode fills first_diff; in
    /// coverage mode the simulator's monitors and environment hold the
    /// run's end state during the call (batched outcomes are restored
    /// into them), and a scalar run leaves the whole system there.
    using Tally = std::function<void(std::size_t, const BatchOutcome&)>;

    /// The injector must already be installed on `sim`.
    CaseRunner(runtime::Simulator& sim, Injector& injector, const ExecPolicy& policy,
               Mode mode);

    /// True when runs can fork from snapshot goldens (policy and target).
    [[nodiscard]] bool fast() const noexcept;

    /// Golden data of global case `case_index` in capture context `tag`
    /// (golden_key), captured from the current configuration on a miss.
    /// With fast() it carries boundary snapshots; tag "trace", and every
    /// tag without fast(), gives the bare golden trace, which is the same
    /// in every context (monitors never alter signals).
    [[nodiscard]] std::shared_ptr<const GoldenCaseData> golden(const std::string& tag,
                                                               std::size_t case_index,
                                                               runtime::Tick max_ticks);

    /// Starts a case and picks the dispatch of its single-injection
    /// one-shot plans: the batch kernel when the policy allows and
    /// `golden` is batch-ready, else the scalar path, which is the slow
    /// path without a snapshot golden. Periodic plans need no golden
    /// (their drivers pass null): with the batch policy, a coverage-mode
    /// flush forks them as lanes from one start snapshot taken after
    /// sim.reset() in the configuration of the flush, and they stay
    /// scalar when the target's fused kernel declines that configuration
    /// (armed recoverers, no fused kernel). Multi-injection plans always
    /// run scalar. Permeability mode needs a golden.
    void begin_case(std::shared_ptr<const GoldenCaseData> golden, runtime::Tick max_ticks);

    /// Registers a batch seal rule; handles stay valid for every case.
    /// Sealed runs, batched or scalar, record first diffs only for the
    /// rule's signals.
    std::uint32_t add_seal_rule(BatchRunner::SealRule rule);

    /// Queues one run; `seed` drives kRandomBit draws.
    void submit(std::vector<Injection> plan, std::uint64_t seed = 1,
                std::uint32_t seal = BatchRunner::kNoSeal);

    /// Executes the queued runs, calling `tally` for each.
    void flush(const Tally& tally);

    /// Golden lookups plus every run so far.
    [[nodiscard]] FastPathStats stats() const;

private:
    struct Queued {
        std::vector<Injection> plan;
        std::uint64_t seed = 1;
        std::uint32_t seal = BatchRunner::kNoSeal;
    };

    runtime::Simulator* sim_;
    Injector* injector_;
    ExecPolicy policy_;
    Mode mode_;
    GoldenCache own_cache_;
    InjectionRunner runner_;
    BatchRunner batch_;
    std::shared_ptr<const GoldenCaseData> golden_;
    runtime::Tick max_ticks_ = 0;
    bool batched_ = false;
    std::vector<Queued> queue_;
    std::vector<std::vector<model::SignalId>> sealed_signals_;  ///< by seal handle
    BatchOutcome scalar_;
    FastPathStats lookups_;
};

}  // namespace epea::fi
