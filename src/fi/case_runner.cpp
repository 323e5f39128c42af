#include "fi/case_runner.hpp"

#include <algorithm>

#include "fi/comparison.hpp"
#include "runtime/snapshot.hpp"

namespace epea::fi {

namespace {

thread_local const std::atomic<bool>* t_stop = nullptr;

}  // namespace

StopScope::StopScope(const std::atomic<bool>& stop) noexcept : previous_(t_stop) {
    t_stop = &stop;
}

StopScope::~StopScope() { t_stop = previous_; }

void StopScope::check() {
    if (t_stop != nullptr && t_stop->load(std::memory_order_relaxed)) throw RunCancelled();
}

CaseRunner::CaseRunner(runtime::Simulator& sim, Injector& injector,
                       const ExecPolicy& policy, Mode mode)
    : sim_(&sim),
      injector_(&injector),
      policy_(policy),
      mode_(mode),
      runner_(sim, injector),
      batch_(sim) {
    runner_.set_enabled(policy_.use_fastpath);
    batch_.set_mode(mode_);
    batch_.set_width(policy_.batch_width);
}

bool CaseRunner::fast() const noexcept {
    return policy_.use_fastpath && sim_->snapshot_supported();
}

std::shared_ptr<const GoldenCaseData> CaseRunner::golden(const std::string& tag,
                                                         std::size_t case_index,
                                                         runtime::Tick max_ticks) {
    const bool snapshots = fast() && tag != "trace";
    GoldenCache& cache = policy_.golden_cache ? *policy_.golden_cache : own_cache_;
    return cache.get_or_capture(
        golden_key(snapshots ? tag : "trace", case_index),
        [&] { return capture_golden_data(*sim_, max_ticks, snapshots); }, &lookups_);
}

void CaseRunner::begin_case(std::shared_ptr<const GoldenCaseData> golden,
                            runtime::Tick max_ticks) {
    golden_ = std::move(golden);
    max_ticks_ = max_ticks;
    runner_.set_golden(golden_);
    batch_.set_golden(golden_);
    batched_ = policy_.use_fastpath && policy_.use_batch && batch_.ready(max_ticks);
    batch_.clear();
    queue_.clear();
}

std::uint32_t CaseRunner::add_seal_rule(BatchRunner::SealRule rule) {
    std::vector<model::SignalId> read = rule.any_of;
    read.insert(read.end(), rule.all_of.begin(), rule.all_of.end());
    sealed_signals_.push_back(std::move(read));
    return batch_.add_seal_rule(std::move(rule));
}

void CaseRunner::submit(std::vector<Injection> plan, std::uint64_t seed,
                        std::uint32_t seal) {
    queue_.push_back(Queued{std::move(plan), seed, seal});
}

void CaseRunner::flush(const Tally& tally) {
    // Periodic plans ride lanes only in coverage mode and only through
    // the target's fused kernel, judged in the configuration they run in.
    const auto periodic = [](const Queued& q) {
        return q.plan.size() == 1 && q.plan.front().period != 0;
    };
    const bool periodic_lanes = policy_.use_fastpath && policy_.use_batch &&
                                mode_ == Mode::kCoverage &&
                                std::any_of(queue_.begin(), queue_.end(), periodic) &&
                                batch_.begin_periodic(max_ticks_);

    // Each run's batch ticket, or kScalar for the scalar path.
    constexpr std::size_t kScalar = static_cast<std::size_t>(-1);
    std::vector<std::size_t> tickets(queue_.size(), kScalar);
    for (std::size_t i = 0; i < queue_.size(); ++i) {
        const Queued& q = queue_[i];
        if (q.plan.size() == 1 && (periodic(q) ? periodic_lanes : batched_)) {
            tickets[i] = batch_.submit(q.plan.front(), q.seal, q.seed);
        }
    }
    batch_.flush();

    for (std::size_t i = 0; i < queue_.size(); ++i) {
        if (tickets[i] != kScalar) {
            const BatchOutcome& oc = batch_.outcome(tickets[i]);
            if (mode_ == Mode::kCoverage) {
                // The simulator's monitor order is the snapshot section's
                // stream order.
                runtime::StateReader monitors(oc.monitors);
                for (runtime::SignalMonitor* m : sim_->monitors()) m->restore_state(monitors);
                runtime::StateReader environment(oc.environment);
                sim_->environment().restore_state(environment);
            }
            tally(i, oc);
            continue;
        }
        StopScope::check();
        const std::uint64_t pruned_before = runner_.stats().pruned_runs;
        const runtime::RunResult rr =
            runner_.run(std::move(queue_[i].plan), max_ticks_, queue_[i].seed);
        scalar_.fired = injector_->fired_count() != 0;
        scalar_.end_tick = rr.ticks;
        scalar_.finished = rr.env_finished;
        scalar_.pruned = runner_.stats().pruned_runs != pruned_before;
        if (mode_ == Mode::kPermeability) {
            static const std::vector<model::SignalId> kEverySignal;
            const std::uint32_t seal = queue_[i].seal;
            scalar_.first_diff = first_differences(
                golden_->run, *sim_->trace(),
                seal == BatchRunner::kNoSeal ? kEverySignal : sealed_signals_[seal]);
        }
        tally(i, scalar_);
    }
    queue_.clear();
    batch_.clear();
}

FastPathStats CaseRunner::stats() const {
    FastPathStats total = lookups_;
    total.merge(runner_.stats());
    total.merge(batch_.stats());
    return total;
}

}  // namespace epea::fi
