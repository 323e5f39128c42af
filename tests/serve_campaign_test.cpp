// Serve subsystem, campaign tier (SLOW): the acceptance criterion that
// N concurrent identical cold ground-truth optimize requests execute
// exactly ONE campaign batch (single-flight, proven by run counters and
// by counting eval-* directories on disk), byte-identity of the warm
// ground-truth answer against the real CLI, the campaign submit/status
// endpoints, and the early-disconnect robustness + fd-leak check from
// the request-parsing satellite.
#include <gtest/gtest.h>

#include "support/temp_dir.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "campaign/spec.hpp"
#include "serve/client.hpp"
#include "serve/http.hpp"
#include "serve/service.hpp"
#include "util/json.hpp"

namespace {

using namespace epea;

namespace fs = std::filesystem;

using test::TempDir;

std::string run_cli(const std::string& args) {
    const std::string cmd = std::string(EPEA_TOOL) + " " + args + " 2>/dev/null";
    FILE* pipe = popen(cmd.c_str(), "r");
    if (pipe == nullptr) return "";
    std::string out;
    char buf[4096];
    std::size_t n = 0;
    while ((n = fread(buf, 1, sizeof buf, pipe)) > 0) out.append(buf, n);
    const int rc = pclose(pipe);
    EXPECT_EQ(rc, 0) << "CLI failed: " << cmd;
    return out;
}

std::size_t count_eval_dirs(const fs::path& dir) {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator(dir)) {
        if (entry.is_directory() &&
            entry.path().filename().string().rfind("eval-", 0) == 0) {
            ++n;
        }
    }
    return n;
}

std::size_t open_fd_count() {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++n;
    }
    return n;
}

// ---------------------------------------------- ground-truth optimize

TEST(ServeGroundTruth, ConcurrentColdRequestsCoalesceToOneCampaign) {
    TempDir tmp("gt_singleflight");
    serve::ServiceOptions service_options;
    service_options.eval_dir = tmp.path.string();
    service_options.gt_cases = 2;
    service_options.gt_times = 1;
    service_options.gt_shards = 2;
    serve::Service service(std::move(service_options));
    serve::ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = 4;
    serve::HttpServer server(
        server_options,
        [&service](const serve::HttpRequest& req) { return service.handle(req); });
    server.start();

    const std::string body = R"({"benefit":"ground-truth","error_model":"input"})";
    constexpr int kClients = 4;
    std::vector<std::string> answers(kClients);
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kClients);
    for (int t = 0; t < kClients; ++t) {
        threads.emplace_back([&, t] {
            serve::HttpClient client(server.port());
            ready.fetch_add(1);
            while (ready.load() < kClients) std::this_thread::yield();
            const serve::ClientResponse r =
                client.post("/v1/place/optimize", body);
            EXPECT_EQ(r.status, 200);
            answers[t] = r.body;
        });
    }
    for (std::thread& th : threads) th.join();

    // All requests were identical and cold: one leader ran the search,
    // everyone else joined its flight and shares the same bytes.
    EXPECT_EQ(service.singleflight_leads(), 1U);
    EXPECT_EQ(service.singleflight_joins(),
              static_cast<std::uint64_t>(kClients - 1));
    for (int t = 1; t < kClients; ++t) EXPECT_EQ(answers[t], answers[0]);
    ASSERT_FALSE(answers[0].empty());

    // Run counters: every campaign the service executed left exactly one
    // eval-* directory; N cold callers paid for a single leader's worth.
    const std::size_t dirs = count_eval_dirs(tmp.path);
    EXPECT_GE(dirs, 1U);
    EXPECT_EQ(service.campaigns_executed(), dirs);
    const std::uint64_t cold_campaigns = service.campaigns_executed();

    // A warm repeat answers from subset_cache.json: zero new campaigns,
    // identical bytes.
    serve::HttpClient warm(server.port());
    const serve::ClientResponse again = warm.post("/v1/place/optimize", body);
    EXPECT_EQ(again.status, 200);
    EXPECT_EQ(again.body, answers[0]);
    EXPECT_EQ(service.campaigns_executed(), cold_campaigns);
    EXPECT_EQ(count_eval_dirs(tmp.path), dirs);

    // Byte-identity with the CLI over the same warm cache directory.
    const std::string cli = run_cli(
        "place optimize --error-model input --benefit ground-truth --dir " +
        tmp.path.string() + " --cases 2 --times 1 --shards 2 --json");
    EXPECT_EQ(answers[0], cli);

    server.shutdown();
}

// ------------------------------------------------- campaign lifecycle

TEST(ServeCampaign, SubmitRunsToFinishedStatus) {
    TempDir tmp("campaign_submit");
    serve::ServiceOptions service_options;
    service_options.eval_dir = tmp.path.string();
    serve::Service service(std::move(service_options));
    serve::ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = 2;
    serve::HttpServer server(
        server_options,
        [&service](const serve::HttpRequest& req) { return service.handle(req); });
    server.start();
    serve::HttpClient client(server.port());

    // A deliberately tiny spec so the slow tier stays bounded.
    campaign::CampaignSpec spec = campaign::CampaignSpec::defaults(
        campaign::CampaignKind::kInput);
    spec.case_ids = {0, 1};
    spec.times_per_bit = 1;
    spec.shards = 2;
    const std::string body =
        "{\"dir\":\"job1\",\"spec\":" + spec.to_json() + ",\"threads\":1}";
    const serve::ClientResponse submitted =
        client.post("/v1/campaign/submit", body);
    ASSERT_EQ(submitted.status, 202);
    const util::JsonValue v = util::JsonValue::parse(submitted.body);
    const std::string id = v.at("id").as_string();
    EXPECT_EQ(v.at("state").as_string(), "running");
    EXPECT_EQ(v.at("dir").as_string(), tmp.path.string() + "/job1");

    // Poll status until the job thread lands (bounded by the test
    // timeout; the tiny spec takes seconds).
    std::string state = "running";
    util::JsonValue status;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(3);
    while (std::chrono::steady_clock::now() < deadline) {
        const serve::ClientResponse r =
            client.get("/v1/campaign/" + id + "/status");
        ASSERT_EQ(r.status, 200);
        status = util::JsonValue::parse(r.body);
        state = status.at("state").as_string();
        if (state != "running") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    EXPECT_EQ(state, "finished");
    EXPECT_TRUE(status.at("complete").as_bool());
    EXPECT_GT(status.at("runs").as_int(), 0);
    EXPECT_EQ(status.at("shards_done").as_int(), status.at("shards_total").as_int());

    // Unknown ids answer 404, not a crash or an empty body.
    EXPECT_EQ(client.get("/v1/campaign/nope/status").status, 404);

    server.shutdown();
    service.join_campaigns();
}

serve::HttpRequest post_request(const std::string& target,
                                const std::string& body) {
    serve::HttpRequest req;
    req.method = "POST";
    req.target = target;
    req.version = "HTTP/1.1";
    req.body = body;
    return req;
}

serve::HttpRequest get_request(const std::string& target) {
    serve::HttpRequest req;
    req.method = "GET";
    req.target = target;
    req.version = "HTTP/1.1";
    return req;
}

/// Submits a campaign into `dir` (pre-created as a regular FILE, so the
/// executor fails instantly) and returns the job id.
std::string submit_failing_job(serve::Service& service, const fs::path& eval_dir,
                               const std::string& dir) {
    std::ofstream(eval_dir / dir) << "not a directory";
    const serve::HttpResponse r = service.handle(
        post_request("/v1/campaign/submit", "{\"dir\":\"" + dir + "\"}"));
    EXPECT_EQ(r.status, 202);
    return util::JsonValue::parse(r.body).at("id").as_string();
}

/// Polls {id}/status until the job leaves "running"; returns the final
/// status body (or the last one seen at the deadline).
util::JsonValue await_job(serve::Service& service, const std::string& id) {
    util::JsonValue status;
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::minutes(1);
    while (std::chrono::steady_clock::now() < deadline) {
        const serve::HttpResponse r =
            service.handle(get_request("/v1/campaign/" + id + "/status"));
        EXPECT_EQ(r.status, 200);
        status = util::JsonValue::parse(r.body);
        if (status.at("state").as_string() != "running") break;
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
    return status;
}

// A campaign that fails while the daemon drains must not deadlock:
// the worker's error write takes the per-job mutex, never the table
// mutex join_campaigns holds its snapshot under.
TEST(ServeCampaign, FailedJobReportsErrorAndDrainJoins) {
    TempDir tmp("campaign_fail");
    serve::ServiceOptions options;
    options.eval_dir = tmp.path.string();
    serve::Service service(std::move(options));

    const std::string id = submit_failing_job(service, tmp.path, "blocked");
    // Drain races the failing worker; pre-fix this could deadlock when
    // the catch path wanted the mutex the joiner held.
    service.join_campaigns();

    const util::JsonValue status = await_job(service, id);
    EXPECT_EQ(status.at("state").as_string(), "failed");
    EXPECT_FALSE(status.at("error").as_string().empty());
}

// Finished/failed jobs beyond max_finished_jobs are reaped on the next
// submit, so a long-lived daemon's job table stays bounded.
TEST(ServeCampaign, FinishedJobsAreReapedBeyondRetentionCap) {
    TempDir tmp("campaign_reap");
    serve::ServiceOptions options;
    options.eval_dir = tmp.path.string();
    options.max_finished_jobs = 1;
    serve::Service service(std::move(options));

    std::vector<std::string> ids;
    for (int i = 0; i < 4; ++i) {
        ids.push_back(
            submit_failing_job(service, tmp.path, "f" + std::to_string(i)));
        // Each job must be terminal before the next submit so the reap
        // set is deterministic: submit #3 evicts f0, submit #4 evicts f1.
        EXPECT_EQ(await_job(service, ids.back()).at("state").as_string(),
                  "failed");
    }
    EXPECT_EQ(service.handle(get_request("/v1/campaign/" + ids[0] + "/status"))
                  .status, 404);
    EXPECT_EQ(service.handle(get_request("/v1/campaign/" + ids[1] + "/status"))
                  .status, 404);
    EXPECT_EQ(service.handle(get_request("/v1/campaign/" + ids[2] + "/status"))
                  .status, 200);
    EXPECT_EQ(service.handle(get_request("/v1/campaign/" + ids[3] + "/status"))
                  .status, 200);
    service.join_campaigns();
}

// --------------------------------------- disconnects and fd hygiene

TEST(ServeDisconnect, EarlyCloseLeaksNoFdsAndServerSurvives) {
    serve::ServiceOptions service_options;
    serve::Service service(std::move(service_options));
    serve::ServerOptions server_options;
    server_options.port = 0;
    server_options.threads = 2;
    server_options.recv_timeout_ms = 50;
    serve::HttpServer server(
        server_options,
        [&service](const serve::HttpRequest& req) { return service.handle(req); });
    server.start();

    // Warm everything (lazy metric registration, worker wakeups) before
    // taking the fd baseline.
    {
        serve::HttpClient warm(server.port());
        ASSERT_EQ(warm.get("/healthz").status, 200);
        ASSERT_EQ(warm.post("/v1/analytic/predict", "{}").status, 200);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::size_t baseline = open_fd_count();

    const auto raw_connect = [&server]() -> int {
        const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
        if (fd < 0) return -1;
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_port = htons(server.port());
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                      sizeof addr) != 0) {
            ::close(fd);
            return -1;
        }
        return fd;
    };

    for (int i = 0; i < 20; ++i) {
        // (a) vanish mid-request: headers promise a body that never comes.
        int fd = raw_connect();
        ASSERT_GE(fd, 0);
        const char partial[] =
            "POST /v1/analytic/predict HTTP/1.1\r\n"
            "Content-Length: 100\r\n\r\n{\"sour";
        (void)::send(fd, partial, sizeof partial - 1, MSG_NOSIGNAL);
        ::close(fd);

        // (b) vanish mid-response: full request, closed before reading.
        fd = raw_connect();
        ASSERT_GE(fd, 0);
        const char full[] =
            "POST /v1/analytic/predict HTTP/1.1\r\n"
            "Content-Length: 2\r\n\r\n{}";
        (void)::send(fd, full, sizeof full - 1, MSG_NOSIGNAL);
        ::close(fd);
    }

    // The server must still answer, and every abandoned connection's fd
    // must be returned to the kernel once its worker notices.
    serve::HttpClient client(server.port());
    EXPECT_EQ(client.get("/healthz").status, 200);
    client.disconnect();

    std::size_t now = open_fd_count();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    while (now > baseline && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        now = open_fd_count();
    }
    EXPECT_LE(now, baseline);

    server.shutdown();
}

}  // namespace
