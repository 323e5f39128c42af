// Serve subsystem, SSE tier (SLOW): GET /v1/campaign/{id}/events must
// stream well-framed Server-Sent Events for a live submitted campaign
// (status hello, journal/timeline progress, terminal done), survive a
// client that disconnects mid-stream without leaking its fd, and let a
// graceful drain complete promptly while a stream is open.
#include <gtest/gtest.h>

#include "support/temp_dir.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <filesystem>
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

std::size_t open_fd_count() {
    std::size_t n = 0;
    for (const auto& entry : fs::directory_iterator("/proc/self/fd")) {
        (void)entry;
        ++n;
    }
    return n;
}

int raw_connect(std::uint16_t port) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) return -1;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0) {
        ::close(fd);
        return -1;
    }
    timeval tv{};
    tv.tv_usec = 250 * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
    return fd;
}

/// Opens an SSE stream for `id` and returns the socket (response not yet
/// read).
int open_stream(std::uint16_t port, const std::string& id) {
    const int fd = raw_connect(port);
    if (fd < 0) return -1;
    const std::string req = "GET /v1/campaign/" + id +
                            "/events HTTP/1.1\r\nConnection: close\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) !=
        static_cast<ssize_t>(req.size())) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/// Reads from `fd` until EOF, `until` appears, or the deadline.
std::string read_stream(int fd, const std::string& until,
                        std::chrono::seconds budget) {
    std::string out;
    const auto deadline = std::chrono::steady_clock::now() + budget;
    while (std::chrono::steady_clock::now() < deadline) {
        if (!until.empty() && out.find(until) != std::string::npos) break;
        char buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof buf, 0);
        if (n == 0) break;  // server closed: end of stream
        if (n < 0) {
            if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
            break;
        }
        out.append(buf, static_cast<std::size_t>(n));
    }
    return out;
}

struct Harness {
    serve::Service service;
    serve::HttpServer server;

    explicit Harness(const std::string& eval_dir)
        : service(make_options(eval_dir)),
          server(make_server_options(),
                 [this](const serve::HttpRequest& req) {
                     return service.handle(req);
                 }) {
        server.start();
    }

    static serve::ServiceOptions make_options(const std::string& eval_dir) {
        serve::ServiceOptions o;
        o.eval_dir = eval_dir;
        return o;
    }
    static serve::ServerOptions make_server_options() {
        serve::ServerOptions o;
        o.port = 0;
        o.threads = 3;
        o.recv_timeout_ms = 50;
        return o;
    }

    /// Submits a tiny campaign and returns the job id.
    std::string submit(std::size_t cases, std::size_t times) {
        campaign::CampaignSpec spec =
            campaign::CampaignSpec::defaults(campaign::CampaignKind::kInput);
        spec.case_ids.clear();
        for (std::size_t c = 0; c < cases; ++c) spec.case_ids.push_back(c);
        spec.times_per_bit = times;
        spec.shards = 2;
        serve::HttpClient client(server.port());
        const serve::ClientResponse r = client.post(
            "/v1/campaign/submit",
            "{\"dir\":\"job\",\"spec\":" + spec.to_json() + ",\"threads\":1}");
        EXPECT_EQ(r.status, 202);
        return util::JsonValue::parse(r.body).at("id").as_string();
    }

    void await(const std::string& id) {
        serve::HttpClient client(server.port());
        const auto deadline =
            std::chrono::steady_clock::now() + std::chrono::minutes(3);
        while (std::chrono::steady_clock::now() < deadline) {
            const serve::ClientResponse r =
                client.get("/v1/campaign/" + id + "/status");
            ASSERT_EQ(r.status, 200);
            if (util::JsonValue::parse(r.body).at("state").as_string() !=
                "running") {
                return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(100));
        }
        FAIL() << "campaign " << id << " never left running";
    }
};

// ------------------------------------------------------------ framing

TEST(ServeStream, StreamsLiveEventsWithSseFraming) {
    TempDir tmp("framing");
    Harness h(tmp.path.string());
    const std::string id = h.submit(2, 1);

    const int fd = open_stream(h.server.port(), id);
    ASSERT_GE(fd, 0);
    const std::string out =
        read_stream(fd, "event: done", std::chrono::seconds(180));
    ::close(fd);

    // Response head: a streaming 200 with no Content-Length.
    EXPECT_NE(out.find("HTTP/1.1 200 OK"), std::string::npos) << out;
    EXPECT_NE(out.find("Content-Type: text/event-stream"), std::string::npos);
    EXPECT_NE(out.find("Connection: close"), std::string::npos);
    EXPECT_EQ(out.find("Content-Length"), std::string::npos);

    // Frames: the status hello, at least one live progress event from
    // the journal, and the terminal done — each "data:" on its own line
    // and each frame closed by a blank line.
    EXPECT_NE(out.find("event: status\ndata: {"), std::string::npos);
    EXPECT_NE(out.find("event: campaign\ndata: {"), std::string::npos);
    EXPECT_NE(out.find("event: done\ndata: {"), std::string::npos);
    const std::size_t body_at = out.find("\r\n\r\n");
    ASSERT_NE(body_at, std::string::npos);
    const std::string body = out.substr(body_at + 4);
    // Every data line carries one complete JSON object.
    std::size_t pos = 0;
    std::size_t frames = 0;
    while ((pos = body.find("data: ", pos)) != std::string::npos) {
        const std::size_t eol = body.find('\n', pos);
        ASSERT_NE(eol, std::string::npos);
        const std::string payload = body.substr(pos + 6, eol - pos - 6);
        EXPECT_NO_THROW((void)util::JsonValue::parse(payload)) << payload;
        EXPECT_EQ(body.compare(eol, 2, "\n\n"), 0)
            << "frame not closed by a blank line at " << pos;
        pos = eol;
        ++frames;
    }
    EXPECT_GE(frames, 3U);

    h.await(id);
    h.server.shutdown();
    h.service.join_campaigns();
}

TEST(ServeStream, UnknownIdAnswers404NotAStream) {
    TempDir tmp("unknown");
    Harness h(tmp.path.string());
    serve::HttpClient client(h.server.port());
    const serve::ClientResponse r = client.get("/v1/campaign/nope/events");
    EXPECT_EQ(r.status, 404);
    h.server.shutdown();
}

// ----------------------------------------------------- fd hygiene

TEST(ServeStream, MidStreamDisconnectLeaksNoFds) {
    TempDir tmp("disconnect");
    Harness h(tmp.path.string());

    // Warm lazy initialization before taking the fd baseline.
    {
        serve::HttpClient warm(h.server.port());
        ASSERT_EQ(warm.get("/healthz").status, 200);
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    const std::size_t baseline = open_fd_count();

    const std::string id = h.submit(3, 2);
    // Open streams against the live job and vanish after the first
    // bytes: the worker must notice on a failed send or the terminal
    // check and return the fd.
    for (int i = 0; i < 5; ++i) {
        const int fd = open_stream(h.server.port(), id);
        ASSERT_GE(fd, 0);
        char buf[256];
        (void)::recv(fd, buf, sizeof buf, 0);
        ::close(fd);
    }
    h.await(id);

    std::size_t now = open_fd_count();
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (now > baseline && std::chrono::steady_clock::now() < deadline) {
        std::this_thread::sleep_for(std::chrono::milliseconds(100));
        now = open_fd_count();
    }
    EXPECT_LE(now, baseline);

    h.server.shutdown();
    h.service.join_campaigns();
}

// ---------------------------------------------------------- drain

TEST(ServeStream, DrainCompletesWithAnOpenStream) {
    TempDir tmp("drain");
    Harness h(tmp.path.string());
    const std::string id = h.submit(3, 2);

    const int fd = open_stream(h.server.port(), id);
    ASSERT_GE(fd, 0);
    // Wait for the stream to be live (the hello frame) so shutdown races
    // a genuinely open stream, not a queued connection.
    const std::string hello =
        read_stream(fd, "event: status", std::chrono::seconds(30));
    ASSERT_NE(hello.find("event: status"), std::string::npos);

    // Graceful drain must complete promptly: the stream writer polls
    // cancelled() and its sends abandon on stopping, so shutdown is
    // bounded by the poll cadence, not the campaign duration.
    const auto t0 = std::chrono::steady_clock::now();
    h.server.shutdown();
    const double drain_s =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    EXPECT_LT(drain_s, 30.0);

    // The client sees the stream end (EOF), not a hang.
    const std::string rest = read_stream(fd, "", std::chrono::seconds(10));
    (void)rest;  // content irrelevant; read_stream returning is the point
    ::close(fd);

    h.service.join_campaigns();
}

}  // namespace
