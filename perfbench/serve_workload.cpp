// serve_mixed: a closed loop of keep-alive loopback clients against an
// in-process serve::Service behind serve::HttpServer, the pair that
// `epea_tool serve` runs. The seeded request stream mixes analytic
// predictions, optimizer queries, lint uploads, health checks and
// metric scrapes.
//
// Set-up builds the service and asks it every distinct request of the
// stream in-process; those answers are the reference every HTTP
// response body must equal byte for byte (the /metrics body changes as
// counters move, so it is checked for status and shape only).
//
// Every class has the same share of the stream. No recorded traffic mix
// exists to weight them by; bench/serve_load's mixed phase also sends
// its classes in equal shares.
#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include "analysis/model_lint.hpp"
#include "analytic/benefit.hpp"
#include "analytic/engine.hpp"
#include "bench.hpp"
#include "epic/serialize.hpp"
#include "exp/paper_data.hpp"
#include "ledger.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"
#include "opt/optimizer.hpp"
#include "prove/hints.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "util/rng.hpp"

namespace perfbench {
namespace {

using epea::util::JsonObject;
using epea::util::JsonValue;

constexpr std::size_t kClients = 2;
constexpr std::size_t kServerThreads = 2;
/// One set-up takes about 15 ms, within the host's noise; repeating it
/// makes the measured set-up span long enough to be steady.
constexpr std::size_t kSetupRepeats = 64;
/// A traced run alternates untraced and traced loops of equal length,
/// starting untraced, so the tracer's overhead is measured under the
/// same conditions.
constexpr std::size_t kTracedRunLoops = 6;
/// Round trips kept per class and client for the per-class medians.
constexpr std::size_t kReservoir = 4096;
/// Throughput and latency quantiles are taken per window of this many
/// seconds; the reported value is the median over the windows, so a
/// transient stall of the host moves one window, not the result.
constexpr double kWindowS = 1.0;
constexpr std::size_t kStreamPerClient = 4096;
constexpr std::size_t kClassCount = std::size(kServeClasses);
constexpr std::size_t kMetricsClass = 5;

struct Request {
    std::size_t cls = 0;
    epea::serve::HttpRequest http;
    std::string reference;  ///< in-process answer (empty for /metrics)
};

epea::serve::HttpRequest make_http(const char* method, const char* target,
                                   std::string body) {
    epea::serve::HttpRequest r;
    r.method = method;
    r.target = target;
    r.version = "HTTP/1.1";
    r.body = std::move(body);
    return r;
}

std::string json_body(JsonObject o) { return JsonValue(std::move(o)).dump(); }

/// The distinct requests of each class.
std::array<std::vector<Request>, kClassCount> request_pool(
    const epea::model::SystemModel& system) {
    std::array<std::vector<Request>, kClassCount> pool;
    const auto add = [&pool](std::size_t cls, epea::serve::HttpRequest http) {
        pool[cls].push_back(Request{cls, std::move(http), {}});
    };
    const auto signals = system.all_signals();
    for (const auto src : signals) {
        for (const auto sink : signals) {
            if (src == sink) continue;
            JsonObject o;
            o.emplace("sink", JsonValue(system.signal_name(sink)));
            o.emplace("source", JsonValue(system.signal_name(src)));
            add(0, make_http("POST", "/v1/analytic/predict", json_body(std::move(o))));
        }
    }
    for (const auto sink : signals) {
        JsonObject o;
        o.emplace("sink", JsonValue(system.signal_name(sink)));
        add(1, make_http("POST", "/v1/analytic/predict", json_body(std::move(o))));
    }
    for (const char* benefit : {"visibility", "analytic"}) {
        for (const char* model : {"input", "severe"}) {
            for (const double budget : {0.0, 250.0}) {
                JsonObject o;
                o.emplace("benefit", JsonValue(benefit));
                o.emplace("error_model", JsonValue(model));
                if (budget > 0.0) o.emplace("budget_memory", JsonValue(budget));
                add(2, make_http("POST", "/v1/place/optimize", json_body(std::move(o))));
            }
        }
    }
    std::ostringstream model_text;
    epea::epic::save_system_text(model_text, system);
    std::ostringstream matrix_text;
    epea::epic::save_matrix_csv(matrix_text, epea::exp::paper_matrix(system));
    for (const auto& [kind, text] :
         {std::pair<const char*, std::string>{"model", model_text.str()},
          std::pair<const char*, std::string>{"matrix", matrix_text.str()}}) {
        JsonObject o;
        o.emplace("kind", JsonValue(kind));
        o.emplace("text", JsonValue(text));
        add(3, make_http("POST", "/v1/lint", json_body(std::move(o))));
    }
    add(4, make_http("GET", "/healthz", ""));
    add(kMetricsClass, make_http("GET", "/metrics", ""));
    return pool;
}

/// Seeded stream of (class, pool index) pairs, one per client. Every
/// class takes an equal share of a stream, and each class cycles through
/// its distinct requests in a seeded order, so every seed asks for the
/// same work and the seed sets only the order. (With independent draws,
/// the few heaviest requests, such as the largest reach profiles, would
/// take a share that differs by seed, and the latency tail with it.)
std::vector<std::vector<std::pair<std::size_t, std::size_t>>> make_streams(
    const std::array<std::vector<Request>, kClassCount>& pool, std::uint64_t seed,
    std::size_t per_client) {
    epea::util::Rng rng(seed);
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> streams(kClients);
    for (auto& stream : streams) {
        for (std::size_t i = 0; i < per_client; ++i) stream.emplace_back(i % kClassCount, 0);
        rng.shuffle(stream);
        std::array<std::vector<std::size_t>, kClassCount> order;
        for (std::size_t k = 0; k < kClassCount; ++k) {
            for (std::size_t i = 0; i < pool[k].size(); ++i) order[k].push_back(i);
            rng.shuffle(order[k]);
        }
        std::array<std::size_t, kClassCount> seen{};
        for (auto& [cls, idx] : stream) idx = order[cls][seen[cls]++ % order[cls].size()];
    }
    return streams;
}

std::string response_problem(const Request& req, int status, const std::string& body) {
    if (status != 200) return "status " + std::to_string(status);
    if (req.cls == kMetricsClass) {
        return body.find("serve_requests") == std::string::npos ? "metrics body lacks "
                                                                  "serve_requests"
                                                                : "";
    }
    return body == req.reference ? "" : "body differs from the in-process answer";
}

/// Latency quantiles of one client over one window.
struct WindowStat {
    std::size_t index = 0;
    std::uint64_t requests = 0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

struct LoopResult {
    double wall_s = 0.0;
    std::uint64_t requests = 0;
    std::array<std::uint64_t, kClassCount> by_class{};
    /// Uniform sample of each class's round trips (microseconds).
    std::array<std::vector<double>, kClassCount> sample_us;
    std::vector<WindowStat> windows;  ///< complete windows, every client
    double window_s = kWindowS;

    /// Folds in another loop's totals and samples (not its windows).
    void add(const LoopResult& o) {
        wall_s += o.wall_s;
        requests += o.requests;
        for (std::size_t k = 0; k < kClassCount; ++k) {
            by_class[k] += o.by_class[k];
            sample_us[k].insert(sample_us[k].end(), o.sample_us[k].begin(),
                                o.sample_us[k].end());
        }
    }
};

void describe_loop(const LoopResult& loop, Outcome& out) {
    JsonObject counts;
    for (std::size_t k = 0; k < kClassCount; ++k) {
        counts.emplace(kServeClasses[k], JsonValue(loop.by_class[k]));
    }
    out.detail.emplace("requests_by_class", JsonValue(std::move(counts)));
    out.detail.emplace("latency_samples", JsonValue(loop.requests));
    out.detail.emplace("loop_s", JsonValue(loop.wall_s));
}

/// Handler time the service has measured so far: the sum of its
/// per-endpoint latency histograms.
double handler_seconds() {
    double s = 0.0;
    for (const auto& sample : epea::obs::MetricsRegistry::global().snapshot().samples) {
        if (sample.kind == epea::obs::MetricKind::kHistogram &&
            sample.name.rfind("serve.latency.", 0) == 0) {
            s += sample.value;
        }
    }
    return s;
}

/// Throughput and latency quantiles as medians over the windows; memory
/// stays bounded, so the loop's own bookkeeping does not grow with the
/// request rate (peak_rss_mb measures the service).
struct Windowed {
    double throughput = 0.0;
    double p50_ms = 0.0;
    double p99_ms = 0.0;
};

Windowed windowed(const LoopResult& loop) {
    std::map<std::size_t, std::uint64_t> per_window;
    std::vector<double> p50, p99;
    for (const WindowStat& w : loop.windows) {
        per_window[w.index] += w.requests;
        p50.push_back(w.p50_ms);
        p99.push_back(w.p99_ms);
    }
    std::vector<double> rate;
    for (const auto& [index, n] : per_window) rate.push_back(double(n) / loop.window_s);
    return Windowed{median(rate), median(p50), median(p99)};
}

/// Closed loop: every client sends its stream (cyclically) until the
/// deadline, checking each response. Each client keeps only its current
/// window's latencies and a fixed-size reservoir per class.
LoopResult client_loop(std::uint16_t port,
                       const std::array<std::vector<Request>, kClassCount>& pool,
                       const std::vector<std::vector<std::pair<std::size_t, std::size_t>>>& streams,
                       double seconds, std::size_t max_per_client, Outcome& out) {
    struct PerClient {
        std::array<std::vector<double>, kClassCount> sample_us;
        std::array<std::uint64_t, kClassCount> seen{};
        std::vector<double> window_ms;
        std::size_t window = 0;
        std::vector<WindowStat> windows;
        std::uint64_t attempted = 0;
        std::uint64_t failed = 0;
        std::string first_failure;

        void close_window() {
            if (window_ms.empty()) return;
            windows.push_back(WindowStat{window, window_ms.size(), median(window_ms),
                                         percentile(window_ms, 0.99)});
            window_ms.clear();
        }
    };
    std::vector<PerClient> per(kClients);
    for (auto& me : per) {
        for (auto& v : me.sample_us) v.reserve(kReservoir);
        me.window_ms.reserve(1 << 16);
    }
    const auto t0 = Clock::now();
    std::vector<std::thread> threads;
    for (std::size_t c = 0; c < kClients; ++c) {
        threads.emplace_back([&, c] {
            PerClient& me = per[c];
            epea::util::Rng rng(c + 1);
            epea::serve::HttpClient client(port);
            const auto& stream = streams[c];
            for (std::size_t i = 0; i < max_per_client && seconds_since(t0) < seconds; ++i) {
                const auto [cls, idx] = stream[i % stream.size()];
                const Request& req = pool[cls][idx];
                std::string problem;
                const auto r0 = Clock::now();
                try {
                    const auto resp =
                        client.request(req.http.method, req.http.target, req.http.body);
                    const auto r1 = Clock::now();
                    const double us = 1e6 * std::chrono::duration<double>(r1 - r0).count();
                    const auto w = static_cast<std::size_t>(
                        std::chrono::duration<double>(r1 - t0).count() / kWindowS);
                    if (w != me.window) {
                        me.close_window();
                        me.window = w;
                    }
                    me.window_ms.push_back(1e-3 * us);
                    // Reservoir sampling (Algorithm R) per class.
                    const std::uint64_t n = ++me.seen[cls];
                    if (n <= kReservoir) {
                        me.sample_us[cls].push_back(us);
                    } else if (const std::uint64_t j = rng.below(n); j < kReservoir) {
                        me.sample_us[cls][j] = us;
                    }
                    problem = response_problem(req, resp.status, resp.body);
                } catch (const std::exception& e) {
                    problem = e.what();
                    client.disconnect();
                }
                ++me.attempted;
                if (!problem.empty()) {
                    ++me.failed;
                    if (me.first_failure.empty()) {
                        me.first_failure = std::string(kServeClasses[cls]) + " " +
                                           req.http.target + ": " + problem;
                    }
                }
            }
        });
    }
    for (auto& t : threads) t.join();
    LoopResult r;
    r.wall_s = seconds_since(t0);
    // Windows the deadline cut short are dropped; a loop shorter than two
    // windows is taken whole, as one window.
    const auto complete = static_cast<std::size_t>(r.wall_s / kWindowS);
    for (auto& me : per) {
        if (complete >= 2) {
            if (me.window < complete) me.close_window();
            for (const WindowStat& w : me.windows) {
                if (w.index < complete) r.windows.push_back(w);
            }
        }
        r.requests += me.attempted;
        out.attempted += me.attempted;
        out.failed += me.failed;
        if (!me.first_failure.empty() && out.failures.size() < 8) {
            out.failures.push_back(me.first_failure);
        }
        for (std::size_t k = 0; k < kClassCount; ++k) {
            r.by_class[k] += me.seen[k];
            r.sample_us[k].insert(r.sample_us[k].end(), me.sample_us[k].begin(),
                                  me.sample_us[k].end());
        }
    }
    if (complete < 2) {
        std::vector<double> all_ms;
        for (const auto& v : r.sample_us) {
            for (const double us : v) all_ms.push_back(1e-3 * us);
        }
        r.window_s = r.wall_s;
        r.windows.push_back(WindowStat{0, r.requests, median(all_ms), percentile(all_ms, 0.99)});
    }
    return r;
}

/// Median microseconds of `fn` over `reps` calls.
template <typename Fn>
double median_us(std::size_t reps, Fn&& fn) {
    std::vector<double> us;
    for (std::size_t i = 0; i < reps; ++i) {
        const auto t0 = Clock::now();
        fn(i);
        us.push_back(1e6 * seconds_since(t0));
    }
    return median(us);
}

}  // namespace

Outcome run_serve_workload(const Args& args) {
    Outcome out;
    out.threads_used = kClients + kServerThreads;
    const std::size_t per_client = args.tiny ? 64 : kStreamPerClient;

    // Set-up, repeated: build the service and its reference answers. The
    // repeats must agree, and the last service is the one served.
    const double pre_setup_s = seconds_since(process_start());
    std::vector<double> setup_reps;
    std::unique_ptr<epea::serve::Service> service;
    std::array<std::vector<Request>, kClassCount> pool;
    std::vector<std::vector<std::pair<std::size_t, std::size_t>>> streams;
    for (std::size_t rep = 0; rep < kSetupRepeats; ++rep) {
        const auto t0 = Clock::now();
        service.reset();
        epea::serve::ServiceOptions options;
        options.tool_version = "perfbench";
        service = std::make_unique<epea::serve::Service>(std::move(options));
        auto fresh = request_pool(service->system());
        streams = make_streams(fresh, args.seed, per_client);
        std::vector<std::vector<bool>> used(kClassCount);
        for (std::size_t k = 0; k < kClassCount; ++k) used[k].assign(fresh[k].size(), false);
        for (const auto& stream : streams) {
            for (const auto& [cls, idx] : stream) used[cls][idx] = true;
        }
        bool agree = true;
        for (std::size_t k = 0; k < kClassCount; ++k) {
            for (std::size_t i = 0; i < fresh[k].size(); ++i) {
                if (!used[k][i] || k == kMetricsClass) continue;
                const auto resp = service->handle(fresh[k][i].http);
                fresh[k][i].reference = resp.body;
                if (rep > 0) agree = agree && resp.body == pool[k][i].reference;
            }
        }
        if (rep > 0) out.check(agree, "set-up repeat answers agree");
        pool = std::move(fresh);
        setup_reps.push_back(seconds_since(t0));
    }
    if (args.corrupt_reference) {
        for (auto& req : pool[0]) {
            if (!req.reference.empty()) req.reference[req.reference.size() / 2] ^= 0x20;
        }
    }

    epea::serve::ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = kServerThreads;
    epea::serve::Service& svc = *service;
    epea::serve::HttpServer server(
        server_options, [&svc](const epea::serve::HttpRequest& req) { return svc.handle(req); });
    server.start();
    // setup_s: the whole span from process start to the first request.
    const double setup_s = seconds_since(process_start());

    const std::size_t max_per_client = args.tiny ? per_client : SIZE_MAX;
    if (!args.trace) {
        const LoopResult loop =
            client_loop(server.port(), pool, streams, args.seconds, max_per_client, out);
        server.shutdown();
        const Windowed w = windowed(loop);
        out.metrics["setup_s"] = setup_s;
        out.metrics["latency_p50_ms"] = w.p50_ms;
        out.metrics["throughput_per_s"] = w.throughput;
        out.metrics["peak_rss_mb"] = peak_rss_mb();
        describe_loop(loop, out);
        out.detail.emplace("windows", JsonValue(loop.windows.size()));
        out.detail.emplace("latency_p99_ms", JsonValue(w.p99_ms));
        out.detail.emplace("pre_setup_s", JsonValue(pre_setup_s));
        out.detail.emplace("setup_repeats_s", json_samples(setup_reps));
        return out;
    }

    // ---- per-layer metrics (traced run) ----
    auto& m = out.metrics;
    auto& tracer = epea::obs::Tracer::instance();
    tracer.set_sampling(1);
    tracer.set_ring_capacity(std::size_t{1} << 20);
    const auto memo_before = svc.memo_stats();
    LoopResult loop;    // untraced loops
    std::vector<double> untraced_p99_ms;
    LoopResult traced;  // traced loops
    Ledger ledger;
    std::uint64_t dropped = 0;
    const double loop_s = args.seconds / double(kTracedRunLoops);
    for (std::size_t k = 0; k < kTracedRunLoops; ++k) {
        if (k % 2 == 0) {
            const LoopResult r =
                client_loop(server.port(), pool, streams, loop_s, max_per_client, out);
            for (const WindowStat& w : r.windows) untraced_p99_ms.push_back(w.p99_ms);
            loop.add(r);
            continue;
        }
        (void)tracer.drain();
        const std::uint64_t dropped_before = tracer.dropped();
        const double handled_before = handler_seconds();
        tracer.set_enabled(true);
        const LoopResult r =
            client_loop(server.port(), pool, streams, loop_s, max_per_client, out);
        tracer.set_enabled(false);
        dropped += tracer.dropped() - dropped_before;
        // The server threads' handler spans are reconciled against the
        // service's own latency histograms.
        LedgerWindow window;
        window.main_tid = epea::obs::current_tid();
        window.worker_tracks = kServerThreads;
        window.worker_window_s = r.wall_s;
        window.unit_span = "serve.";
        window.worker_clock_s = handler_seconds() - handled_before;
        ledger.add(build_ledger(tracer.drain(), window));
        traced.add(r);
    }
    server.shutdown();
    const auto memo_after = svc.memo_stats();
    describe_loop(loop, out);
    m["obs.dropped_spans"] = double(dropped);
    m["obs.ledger_residual_pct"] = ledger.residual_pct();
    m["obs.trace_overhead_pct"] =
        100.0 * ((double(loop.requests) / loop.wall_s) /
                     (double(traced.requests) / traced.wall_s) -
                 1.0);
    const double units_traced = double(std::max<std::size_t>(ledger.units, 1));
    for (const char* stage : kStages) {
        const auto it = ledger.stage_s.find(stage);
        m[std::string("stage.") + stage + "_s"] =
            it != ledger.stage_s.end() ? it->second / units_traced : 0.0;
    }
    out.detail.emplace("ledger", ledger.to_json());

    // Handler time in-process on the same bodies, against the client's
    // round trip for the same class.
    double transport_weighted = 0.0;
    double weight = 0.0;
    for (std::size_t k = 0; k < kClassCount; ++k) {
        const auto& reqs = pool[k];
        const std::size_t reps = args.tiny ? 4 : (k == 2 ? 64 : 512);
        const double handle_us =
            median_us(reps, [&](std::size_t i) { (void)svc.handle(reqs[i % reqs.size()].http); });
        const double roundtrip_us = median(loop.sample_us[k]);
        m[std::string("serve.handle_us.") + kServeClasses[k]] = handle_us;
        m[std::string("serve.roundtrip_us.") + kServeClasses[k]] = roundtrip_us;
        const double n = double(loop.by_class[k]);
        transport_weighted += n * (roundtrip_us - handle_us);
        weight += n;
    }
    m["serve.transport_us"] = weight > 0.0 ? transport_weighted / weight : 0.0;
    m["serve.latency_p99_ms"] = median(untraced_p99_ms);
    const double asks = double((memo_after.hits - memo_before.hits) +
                               (memo_after.misses - memo_before.misses));
    m["serve.memo_hit_rate"] =
        asks > 0.0 ? double(memo_after.hits - memo_before.hits) / asks : 0.0;

    // The layers behind the handlers, timed directly.
    const auto& system = svc.system();
    const epea::epic::PermeabilityMatrix pm = epea::exp::paper_matrix(system);
    const epea::analytic::Engine engine(pm);
    const auto signals = system.all_signals();
    m["analytic.solve_us"] = median_us(signals.size() * (args.tiny ? 1 : 20), [&](std::size_t i) {
        (void)engine.solve(signals[i % signals.size()]);
    });
    std::vector<double> build_us;
    std::vector<double> search_us;
    double evaluations = 0.0;
    double nodes = 0.0;
    double prunes = 0.0;
    for (const bool analytic : {false, true}) {
        for (const auto model : {epea::opt::ErrorModel::kInput, epea::opt::ErrorModel::kSevere}) {
            const auto b0 = Clock::now();
            epea::opt::PlacementOptimizer optimizer =
                analytic ? epea::analytic::make_engine_optimizer(pm, model)
                         : epea::opt::PlacementOptimizer::analytic(pm, model);
            epea::prove::attach_structural_hints(optimizer, pm, model);
            build_us.push_back(1e6 * seconds_since(b0));
            const auto s0 = Clock::now();
            const epea::opt::SearchResult result = optimizer.optimize({});
            search_us.push_back(1e6 * seconds_since(s0));
            evaluations += double(result.evaluations);
            nodes += double(result.nodes);
            prunes += double(result.structural_prunes);
        }
    }
    m["opt.build_us"] = median(build_us);
    m["opt.search_us"] = median(search_us);
    m["opt.evaluations"] = evaluations;
    m["opt.nodes"] = nodes;
    m["opt.structural_prunes"] = prunes;
    std::ostringstream model_text;
    epea::epic::save_system_text(model_text, system);
    const std::string text = model_text.str();
    m["analysis.lint_us"] = median_us(args.tiny ? 4 : 200, [&](std::size_t) {
        std::istringstream in(text);
        (void)epea::analysis::lint_model_text(in, "model:bench");
    });
    return out;
}

}  // namespace perfbench
