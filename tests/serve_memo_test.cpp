// Concurrency stress for the serve-layer shared state (src/serve/),
// written to run under the TSan CI job: the shard-locked ReachProfile
// memo under mixed hit/miss/evict/clear traffic, single-flight
// coalescing, concurrent readers over the on-disk subset (golden
// result) cache, and the Service handling predict requests from many
// threads at once. Fast tier — small iteration counts, real threads.
#include <gtest/gtest.h>

#include "support/temp_dir.hpp"

#include <atomic>
#include <chrono>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "opt/cache.hpp"
#include "serve/http.hpp"
#include "serve/memo.hpp"
#include "serve/service.hpp"
#include "serve/singleflight.hpp"
#include "util/json.hpp"

namespace {

using namespace epea;

namespace fs = std::filesystem;

using test::TempDir;

// ------------------------------------------------------------- memo

TEST(ServeMemo, EvictionKeepsShardBudget) {
    serve::ShardedMemo<int> memo(4, 2);
    for (int i = 0; i < 100; ++i) {
        const std::string key = "k" + std::to_string(i);
        auto [value, hit] = memo.get_or_compute(key, [i] { return i; });
        EXPECT_FALSE(hit);
        EXPECT_EQ(*value, i);
    }
    EXPECT_LE(memo.size(), 8U);  // 4 shards x 2 entries
    const serve::MemoStats stats = memo.stats();
    EXPECT_EQ(stats.misses, 100U);
    EXPECT_GE(stats.evictions, 92U);
}

TEST(ServeMemo, EvictedEntryStaysValidForHolders) {
    serve::ShardedMemo<std::string> memo(1, 1);
    auto [first, hit1] = memo.get_or_compute("a", [] { return std::string("A"); });
    auto [second, hit2] = memo.get_or_compute("b", [] { return std::string("B"); });
    // "a" was evicted to admit "b", but our shared_ptr keeps it alive.
    EXPECT_EQ(*first, "A");
    EXPECT_EQ(*second, "B");
    EXPECT_EQ(memo.peek("a"), nullptr);
    EXPECT_NE(memo.peek("b"), nullptr);
}

TEST(ServeMemo, ConcurrentMixedHitMissEvictClear) {
    // Tiny per-shard budget so eviction churns constantly while readers
    // race; one thread clears periodically (model-reload invalidation).
    serve::ShardedMemo<int> memo(4, 2);
    constexpr int kThreads = 8;
    constexpr int kIters = 2000;
    std::vector<std::string> keys;
    for (int n = 0; n < 32; ++n) keys.push_back("k" + std::to_string(n));
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&memo, &keys, &failed, t] {
            for (int i = 0; i < kIters; ++i) {
                const int n = (t * 7 + i) % 32;
                const std::string& key = keys[n];
                auto [value, hit] =
                    memo.get_or_compute(key, [n] { return n * 10; });
                if (*value != n * 10) failed.store(true);
                if (i % 16 == 0) {
                    auto peeked = memo.peek(key);
                    if (peeked && *peeked != n * 10) failed.store(true);
                }
                if (t == 0 && i % 500 == 499) memo.clear();
            }
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_FALSE(failed.load());
    const serve::MemoStats stats = memo.stats();
    EXPECT_EQ(stats.hits + stats.misses,
              static_cast<std::uint64_t>(kThreads) * kIters);
    EXPECT_GT(stats.evictions, 0U);
    EXPECT_LE(memo.size(), 8U);
}

// ------------------------------------------------------ single-flight

TEST(ServeSingleFlight, ConcurrentIdenticalCallsRunComputeOnce) {
    serve::SingleFlight<int> flight;
    std::atomic<int> computed{0};
    std::atomic<int> ready{0};
    constexpr int kThreads = 8;
    std::vector<std::thread> threads;
    std::vector<int> results(kThreads, -1);
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) std::this_thread::yield();
            auto [value, led] = flight.run("key", [&computed] {
                computed.fetch_add(1);
                std::this_thread::sleep_for(std::chrono::milliseconds(50));
                return 42;
            });
            results[t] = *value;
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(computed.load(), 1);  // exactly one leader computed
    EXPECT_EQ(flight.leads(), 1U);
    EXPECT_EQ(flight.joins(), static_cast<std::uint64_t>(kThreads - 1));
    for (const int r : results) EXPECT_EQ(r, 42);
}

TEST(ServeSingleFlight, DistinctKeysDoNotCoalesce) {
    serve::SingleFlight<int> flight;
    std::atomic<int> computed{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 4; ++t) {
        threads.emplace_back([&flight, &computed, t] {
            auto [value, led] = flight.run("key" + std::to_string(t), [&computed, t] {
                computed.fetch_add(1);
                return t;
            });
            EXPECT_EQ(*value, t);
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(computed.load(), 4);
    EXPECT_EQ(flight.leads(), 4U);
    EXPECT_EQ(flight.joins(), 0U);
}

TEST(ServeSingleFlight, LeaderExceptionReachesWaitersThenRetries) {
    serve::SingleFlight<int> flight;
    EXPECT_THROW(
        flight.run("key", []() -> int { throw std::runtime_error("boom"); }),
        std::runtime_error);
    // The failed flight was removed: a later identical call retries.
    auto [value, led] = flight.run("key", [] { return 7; });
    EXPECT_EQ(*value, 7);
    EXPECT_TRUE(led);
}

// --------------------------------------- subset (golden result) cache

TEST(ServeSubsetCache, ConcurrentReadersOverWarmCache) {
    TempDir tmp("subset_cache");
    std::vector<std::string> keys;
    {
        opt::SubsetCache cache(tmp.path.string());
        for (int i = 0; i < 64; ++i) {
            const std::string key = opt::SubsetCache::key(
                opt::ErrorModel::kInput, 2, 1, 7, 20,
                {"sig" + std::to_string(i)});
            cache.store(key, opt::CacheEntry{i / 64.0,
                                             static_cast<std::uint64_t>(i),
                                             64, 128});
            keys.push_back(key);
        }
        cache.flush();
    }
    // The serve optimizer shares one warm cache across worker threads;
    // lookups are const and must be race-free.
    opt::SubsetCache cache(tmp.path.string());
    ASSERT_EQ(cache.size(), 64U);
    std::atomic<bool> failed{false};
    std::vector<std::thread> threads;
    for (int t = 0; t < 8; ++t) {
        threads.emplace_back([&cache, &keys, &failed, t] {
            for (int i = 0; i < 500; ++i) {
                const int n = (t + i) % 64;
                const auto entry = cache.lookup(keys[n]);
                if (!entry || entry->detected != static_cast<std::uint64_t>(n)) {
                    failed.store(true);
                }
            }
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_FALSE(failed.load());
}

// ------------------------------------------------ service under load

TEST(ServeServiceStress, ConcurrentPredictAcrossSources) {
    serve::ServiceOptions options;
    options.memo_shards = 4;
    options.memo_entries_per_shard = 2;  // force eviction under load
    serve::Service service(std::move(options));

    const std::vector<std::string> sources = {
        "i", "pulscnt", "SetValue", "mscnt", "slow_speed", "stopped"};
    std::atomic<int> bad{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < 6; ++t) {
        threads.emplace_back([&service, &sources, &bad, t] {
            for (int i = 0; i < 50; ++i) {
                serve::HttpRequest req;
                req.method = "POST";
                req.target = "/v1/analytic/predict";
                req.version = "HTTP/1.1";
                req.body = "{\"source\":\"" + sources[(t + i) % sources.size()] +
                           "\"}";
                const serve::HttpResponse resp = service.handle(req);
                if (resp.status != 200) bad.fetch_add(1);
            }
        });
    }
    for (std::thread& th : threads) th.join();
    EXPECT_EQ(bad.load(), 0);
    const serve::MemoStats stats = service.memo_stats();
    EXPECT_EQ(stats.hits + stats.misses, 300U);
    // Same source asked repeatedly: the memo must actually hit.
    EXPECT_GT(stats.hits, 0U);
}

}  // namespace
