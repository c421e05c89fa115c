/**
 * @file
 * WorkerPool unit tests: every task submitted into a TaskGroup runs
 * exactly once, waitGroup returns only when its group drained, and
 * concurrent groups on one pool complete independently — the protocol
 * the pipelined window schedule and the monitoring service run on.
 */

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"

namespace bfly {
namespace {

/** Submit fn(i) for i in [0, n) into a fresh group and wait for it. */
template <typename Fn>
void
runAll(WorkerPool &pool, std::size_t n, Fn fn)
{
    TaskGroup group;
    for (std::size_t i = 0; i < n; ++i)
        pool.submitTask(
            group,
            [](void *ctx, std::size_t i) { (*static_cast<Fn *>(ctx))(i); },
            &fn, i);
    pool.waitGroup(group);
    EXPECT_EQ(group.outstanding(), 0u);
}

TEST(WorkerPool, RunsEveryItemExactlyOnce)
{
    WorkerPool pool(4);
    const std::size_t n = 97;
    std::vector<std::atomic<int>> counts(n);
    runAll(pool, n, [&](std::size_t i) {
        counts[i].fetch_add(1, std::memory_order_relaxed);
    });
    for (std::size_t i = 0; i < n; ++i)
        EXPECT_EQ(counts[i].load(), 1) << "item " << i;
}

TEST(WorkerPool, BatchLargerThanWorkerCount)
{
    WorkerPool pool(2);
    const std::size_t n = 1000;
    std::atomic<std::uint64_t> sum{0};
    runAll(pool, n, [&](std::size_t i) {
        sum.fetch_add(i + 1, std::memory_order_relaxed);
    });
    EXPECT_EQ(sum.load(), n * (n + 1) / 2);
}

TEST(WorkerPool, ZeroCountIsANoOp)
{
    WorkerPool pool(3);
    bool ran = false;
    runAll(pool, 0, [&](std::size_t) { ran = true; });
    EXPECT_FALSE(ran);
}

TEST(WorkerPool, SingleWorkerPool)
{
    WorkerPool pool(1);
    std::atomic<int> count{0};
    runAll(pool, 17, [&](std::size_t) {
        count.fetch_add(1, std::memory_order_relaxed);
    });
    EXPECT_EQ(count.load(), 17);
}

TEST(WorkerPool, ReusedAcrossManyBatches)
{
    // Many short rounds on one pool: a straggler finishing a task of
    // round k must never be counted against, or run an item of, round
    // k+1.
    WorkerPool pool(4);
    Rng rng(7);
    for (int round = 0; round < 500; ++round) {
        const std::size_t n = 1 + rng.below(13);
        std::vector<std::atomic<int>> counts(n);
        runAll(pool, n, [&](std::size_t i) {
            counts[i].fetch_add(1, std::memory_order_relaxed);
        });
        for (std::size_t i = 0; i < n; ++i)
            ASSERT_EQ(counts[i].load(), 1)
                << "round " << round << " item " << i;
    }
}

TEST(WorkerPool, ConcurrentGroupsDrainIndependently)
{
    // Two drivers share one pool, as the service's sessions do: each
    // waits on its own group and sees exactly its own tasks finished.
    WorkerPool pool(3);
    std::atomic<int> counts[2] = {0, 0};
    auto driver = [&](int which) {
        for (int round = 0; round < 100; ++round) {
            const int before = counts[which].load();
            runAll(pool, 8, [&](std::size_t) {
                counts[which].fetch_add(1, std::memory_order_relaxed);
            });
            ASSERT_EQ(counts[which].load(), before + 8);
        }
    };
    std::thread other(driver, 1);
    driver(0);
    other.join();
    EXPECT_EQ(counts[0].load(), 800);
    EXPECT_EQ(counts[1].load(), 800);
}

TEST(WorkerPool, DefaultSizePicksHardwareConcurrency)
{
    WorkerPool pool;
    EXPECT_GE(pool.workers(), 1u);
}

} // namespace
} // namespace bfly
