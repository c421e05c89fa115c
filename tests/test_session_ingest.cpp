/**
 * @file
 * A session's log decoded straight into epoch blocks (BlockIngest):
 * however the per-thread logs are cut into chunks — mid-varint, right at
 * a marker, one byte at a time — the adopted layout is block for block
 * EpochLayout::fromHeartbeats of the reassembled trace (and, adaptive,
 * coalescedFromHeartbeats over the realized spans). Through a real
 * SessionMux, an invalid opcode anywhere ends the session with
 * CorruptLog and hands its whole budget back, and decode storage
 * recycled from session to session changes no report and never holds
 * more than the shard's base budget slice.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <memory>
#include <sstream>
#include <thread>

#include "common/rng.hpp"
#include "common/worker_pool.hpp"
#include "service/session_mux.hpp"
#include "telemetry/exporter.hpp"
#include "telemetry/metrics.hpp"
#include "trace/log_codec.hpp"

namespace bfly {
namespace {

using namespace std::chrono_literals;

/**
 * A random heartbeat-marked trace: threads carry different numbers of
 * markers (shorter threads are padded with empty blocks), markers may
 * repeat or end a thread (empty epochs, trailing ones included), and
 * SiteSummary events and far address jumps (long varints) are mixed in.
 * @p threads = 0 picks 1..4 threads; each has fewer than @p max_events.
 */
Trace
randomMarkedTrace(Rng &rng, std::size_t threads = 0,
                  std::size_t max_events = 120)
{
    Trace trace;
    trace.threads.resize(threads > 0 ? threads : 1 + rng.below(4));
    for (std::size_t t = 0; t < trace.threads.size(); ++t) {
        ThreadTrace &thread = trace.threads[t];
        thread.tid = static_cast<ThreadId>(t);
        const std::size_t n = rng.below(max_events);
        Addr addr = 0x10000;
        for (std::size_t i = 0; i < n; ++i) {
            addr += rng.below(4) == 0 ? rng.next() >> rng.below(40)
                                      : 8 * rng.below(16);
            switch (rng.below(9)) {
              case 0:
                thread.events.push_back(Event::heartbeat());
                break;
              case 1:
                thread.events.push_back(Event::siteSummary(
                    static_cast<std::uint32_t>(1 + rng.below(1u << 20)),
                    1 + rng.below(1u << 30)));
                break;
              case 2:
                thread.events.push_back(Event::alloc(addr, 64));
                break;
              case 3:
                thread.events.push_back(Event::freeOf(addr, 64));
                break;
              case 4:
                thread.events.push_back(
                    Event::assign2(addr, addr ^ 0x40, addr + 0x1000));
                break;
              case 5:
                thread.events.push_back(Event::nop());
                break;
              case 6:
                thread.events.push_back(Event::write(addr, 4));
                break;
              default:
                thread.events.push_back(Event::read(addr, 8));
                break;
            }
        }
        if (rng.below(3) == 0) // trailing empty epochs
            for (std::size_t k = 1 + rng.below(3); k > 0; --k)
                thread.events.push_back(Event::heartbeat());
    }
    return trace;
}

/** One thread's chunk of encoded log. */
struct Chunk
{
    ThreadId tid = 0;
    std::vector<std::uint8_t> bytes;
};

/**
 * Every thread's log cut at random offsets — including mid-varint,
 * right before and right after a marker, and single bytes — and the
 * threads' chunks interleaved at random (each thread's stay in order).
 */
std::vector<Chunk>
randomChunks(const Trace &trace, Rng &rng)
{
    std::vector<std::vector<Chunk>> per_thread(trace.numThreads());
    for (ThreadId t = 0; t < trace.numThreads(); ++t) {
        LogEncoder enc;
        std::vector<std::size_t> cuts;
        for (const Event &e : trace.threads[t].events) {
            const bool marker = e.kind == EventKind::Heartbeat;
            if (marker && rng.below(2) == 0)
                cuts.push_back(enc.bytes().size());
            enc.encode(e);
            if (marker && rng.below(2) == 0)
                cuts.push_back(enc.bytes().size());
        }
        const std::vector<std::uint8_t> &bytes = enc.bytes();
        for (std::size_t k = rng.below(6); k > 0; --k)
            cuts.push_back(rng.below(bytes.size() + 1));
        if (rng.below(8) == 0) // the worst case: one byte at a time
            for (std::size_t i = 0; i <= bytes.size(); ++i)
                cuts.push_back(i);
        cuts.push_back(0);
        cuts.push_back(bytes.size());
        std::sort(cuts.begin(), cuts.end());
        cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
        for (std::size_t i = 0; i + 1 < cuts.size(); ++i)
            per_thread[t].push_back(
                {t, std::vector<std::uint8_t>(bytes.begin() + cuts[i],
                                              bytes.begin() + cuts[i + 1])});
    }
    std::vector<Chunk> out;
    std::vector<std::size_t> next(per_thread.size(), 0);
    for (;;) {
        std::vector<ThreadId> open;
        for (ThreadId t = 0; t < per_thread.size(); ++t)
            if (next[t] < per_thread[t].size())
                open.push_back(t);
        if (open.empty())
            return out;
        const ThreadId t = open[rng.below(open.size())];
        out.push_back(std::move(per_thread[t][next[t]++]));
    }
}

bool
sameEvent(const Event &a, const Event &b)
{
    return a.kind == b.kind && a.addr == b.addr && a.size == b.size &&
           a.nsrc == b.nsrc && (a.nsrc < 1 || a.src0 == b.src0) &&
           (a.nsrc < 2 || a.src1 == b.src1) &&
           (a.kind != EventKind::SiteSummary ||
            (a.site == b.site && a.summaryCount() == b.summaryCount()));
}

void
expectSameLayout(const EpochLayout &want, const EpochLayout &got)
{
    ASSERT_EQ(got.numEpochs(), want.numEpochs());
    ASSERT_EQ(got.numThreads(), want.numThreads());
    EXPECT_EQ(got.instructionCount(), want.instructionCount());
    for (EpochId l = 0; l < want.numEpochs(); ++l) {
        for (ThreadId t = 0; t < want.numThreads(); ++t) {
            const BlockView a = want.block(l, t);
            const BlockView b = got.block(l, t);
            ASSERT_EQ(b.size(), a.size()) << "l=" << l << " t=" << t;
            EXPECT_EQ(b.first, a.first) << "l=" << l << " t=" << t;
            EXPECT_EQ(b.epoch, a.epoch);
            EXPECT_EQ(b.thread, a.thread);
            for (std::size_t i = 0; i < a.size(); ++i)
                ASSERT_TRUE(sameEvent(a.events[i], b.events[i]))
                    << "l=" << l << " t=" << t << " i=" << i;
        }
    }
}

/** Feed @p chunks through a fresh ingest; every chunk must decode. */
BlockIngest
ingestAll(const Trace &trace, const std::vector<Chunk> &chunks)
{
    BlockIngest ingest(trace.numThreads());
    for (const Chunk &c : chunks)
        EXPECT_EQ(ingest.feed(c.tid, c.bytes), DecodeStatus::NeedMore);
    return ingest;
}

TEST(BlockIngest, ChunkedLogsAdoptTheHeartbeatLayout)
{
    Rng rng(20261019);
    for (int round = 0; round < 300; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const Trace trace = randomMarkedTrace(rng);
        const std::vector<Chunk> chunks = randomChunks(trace, rng);

        BlockIngest ingest = ingestAll(trace, chunks);
        std::size_t events = 0, summaries = 0;
        for (const ThreadTrace &t : trace.threads) {
            events += t.events.size();
            for (const Event &e : t.events)
                summaries += e.kind == EventKind::SiteSummary;
        }
        EXPECT_EQ(ingest.eventsDecoded(), events);
        EXPECT_EQ(ingest.summaryEvents(), summaries);
        EXPECT_EQ(ingest.pendingBytes(), 0u);
        expectSameLayout(EpochLayout::fromHeartbeats(trace),
                         std::move(ingest).layout());
    }
}

TEST(BlockIngest, AdaptiveSessionsCoalesceTheDecodedBoundaries)
{
    Rng rng(77);
    for (int round = 0; round < 100; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const Trace trace = randomMarkedTrace(rng);
        BlockIngest ingest = ingestAll(trace, randomChunks(trace, rng));

        const std::size_t seed = rng.below(4);
        auto group = std::make_shared<std::size_t>(seed);
        const ReslicePolicy cycle = [group](EpochId,
                                            std::span<const std::size_t>) {
            static constexpr std::size_t kCycle[4] = {1, 2, 4, 8};
            return kCycle[(*group)++ % 4];
        };
        std::vector<std::uint32_t> spans;
        const EpochLayout got = std::move(ingest).layout(cycle, &spans);
        ASSERT_FALSE(spans.empty());
        expectSameLayout(EpochLayout::coalescedFromHeartbeats(trace, spans),
                         got);
    }
}

// ------------------------------------------------------- through the mux

/** Drive @p chunks (then TraceEnd) through @p mux, retrying on Busy;
 *  return the session's published result. */
service::SessionResult
serve(service::SessionMux &mux, const service::SessionSpec &spec,
           const std::vector<Chunk> &chunks)
{
    const std::uint64_t id = mux.open(spec);
    std::uint64_t seq = 0;
    while (seq <= chunks.size()) {
        service::BusyInfo busy;
        service::RejectInfo reject;
        const service::Admission verdict =
            seq == chunks.size()
                ? mux.submitTraceEnd(id, seq, busy, reject)
                : mux.submitChunk(id, {seq, chunks[seq].tid},
                                  chunks[seq].bytes, busy, reject);
        if (verdict == service::Admission::Busy) {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(busy.retryMs));
            seq = busy.seq;
        } else if (verdict == service::Admission::Rejected) {
            // A pump that failed the session already dropped it: its
            // verdict is the published result, not this one.
            if (reject.code == service::RejectCode::Protocol)
                break;
            service::SessionResult result;
            result.failed = true;
            result.reject = reject;
            return result;
        } else {
            ++seq;
        }
    }
    const auto deadline = std::chrono::steady_clock::now() + 30s;
    while (std::chrono::steady_clock::now() < deadline) {
        for (service::SessionResult &r : mux.drainCompleted())
            if (r.sessionId == id)
                return std::move(r);
        std::this_thread::sleep_for(1ms);
    }
    ADD_FAILURE() << "session " << id << " never completed";
    return {};
}

service::SessionSpec
addrcheckSpec(const Trace &trace)
{
    service::SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(service::Lifeguard::AddrCheck);
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    spec.heapBase = 0x10000;
    spec.heapLimit = ~Addr{0} >> 1;
    return spec;
}

TEST(BlockIngest, ServedSessionsMatchTheReference)
{
    WorkerPool pool(2);
    service::MuxConfig cfg;
    service::SessionMux mux(pool, cfg, {});
    Rng rng(5);
    for (int round = 0; round < 40; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        const Trace trace = randomMarkedTrace(rng);
        const service::SessionSpec spec = addrcheckSpec(trace);
        const service::SessionResult result =
            serve(mux, spec, randomChunks(trace, rng));
        ASSERT_FALSE(result.failed) << result.reject.message;
        EXPECT_TRUE(result.report.identical(service::analyzeReference(
            spec, trace, EpochLayout::fromHeartbeats(trace))));
    }
    EXPECT_EQ(mux.globalBytes(), 0u);
}

TEST(BlockIngest, InvalidOpcodeAnywhereEndsTheSessionAsCorrupt)
{
    WorkerPool pool(2);
    service::MuxConfig cfg;
    service::SessionMux mux(pool, cfg, {});
    Rng rng(11);
    for (int round = 0; round < 60; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        Trace trace = randomMarkedTrace(rng);
        // The opcode slot of a random event (or the log's end) of a
        // random thread gets a kind nibble no event has.
        const ThreadId victim =
            static_cast<ThreadId>(rng.below(trace.numThreads()));
        auto &events = trace.threads[victim].events;
        const std::size_t at = rng.below(events.size() + 1);
        LogEncoder prefix;
        for (std::size_t i = 0; i < at; ++i)
            prefix.encode(events[i]);
        std::vector<Chunk> chunks = randomChunks(trace, rng);
        // Splice the bad byte in at that offset of the victim's log.
        std::size_t offset = prefix.bytes().size();
        for (Chunk &c : chunks) {
            if (c.tid != victim)
                continue;
            if (offset <= c.bytes.size()) {
                c.bytes.insert(c.bytes.begin() +
                                   static_cast<std::ptrdiff_t>(offset),
                               std::uint8_t{0x0f});
                offset = SIZE_MAX;
                break;
            }
            offset -= c.bytes.size();
        }
        if (offset != SIZE_MAX) // the victim's log is empty
            chunks.push_back({victim, {0x0f}});

        const service::SessionResult result =
            serve(mux, addrcheckSpec(trace), chunks);
        ASSERT_TRUE(result.failed);
        EXPECT_EQ(result.reject.code, service::RejectCode::CorruptLog)
            << result.reject.message;
        EXPECT_EQ(mux.globalBytes(), 0u);
    }
}

TEST(BlockIngest, LogEndingMidEventIsCorrupt)
{
    WorkerPool pool(1);
    service::MuxConfig cfg;
    service::SessionMux mux(pool, cfg, {});
    const Trace trace = [] {
        Trace t;
        t.threads.resize(1);
        t.threads[0].events = {Event::read(0x123456789, 8)};
        return t;
    }();
    std::vector<std::uint8_t> bytes = encodeEvents(trace.threads[0].events);
    bytes.pop_back(); // the address varint never ends
    const service::SessionResult result =
        serve(mux, addrcheckSpec(trace), {{0, bytes}});
    ASSERT_TRUE(result.failed);
    EXPECT_EQ(result.reject.code, service::RejectCode::CorruptLog);
    EXPECT_EQ(mux.globalBytes(), 0u);
}

// ------------------------------------------------------ recycled storage

/** Each thread's log cut into @p chunk_bytes pieces, thread by thread. */
std::vector<Chunk>
evenChunks(const Trace &trace, std::size_t chunk_bytes)
{
    std::vector<Chunk> out;
    for (ThreadId t = 0; t < trace.numThreads(); ++t) {
        const std::vector<std::uint8_t> bytes =
            encodeEvents(trace.threads[t].events);
        for (std::size_t off = 0; off < bytes.size(); off += chunk_bytes) {
            const std::size_t n = std::min(chunk_bytes, bytes.size() - off);
            out.push_back({t, std::vector<std::uint8_t>(
                                  bytes.begin() + off,
                                  bytes.begin() + off + n)});
        }
    }
    return out;
}

/** The reference for a served session: the heartbeat slicing of
 *  @p trace, coarsened by the spans the server realized (adaptive). */
service::RemoteReport
referenceOf(const service::SessionSpec &spec, const Trace &trace,
            const service::SessionResult &result)
{
    return service::analyzeLayout(
        spec, result.realizedSpans.empty()
                  ? EpochLayout::fromHeartbeats(trace)
                  : EpochLayout::coalescedFromHeartbeats(
                        trace, result.realizedSpans));
}

TEST(BlockIngest, AdoptedStorageStartsEmptyAndKeepsItsCapacity)
{
    Rng rng(31);
    const Trace trace = randomMarkedTrace(rng, 3, 2000);
    const std::vector<Chunk> chunks = randomChunks(trace, rng);
    std::vector<std::vector<Event>> storage =
        ingestAll(trace, chunks).layout().releaseEvents();
    ASSERT_EQ(storage.size(), trace.numThreads());
    std::vector<const Event *> data;
    std::vector<std::size_t> capacity;
    for (const std::vector<Event> &events : storage) {
        ASSERT_FALSE(events.empty());
        data.push_back(events.data());
        capacity.push_back(events.capacity());
    }

    // Adopted storage starts empty: nothing decoded, no events laid out.
    {
        BlockIngest ingest(trace.numThreads(), std::move(storage));
        EXPECT_EQ(ingest.eventsDecoded(), 0u);
        EpochLayout empty = std::move(ingest).layout();
        EXPECT_EQ(empty.instructionCount(), 0u);
        storage = std::move(empty).releaseEvents();
    }

    // A second session of the same shape decodes into the same memory:
    // no vector was reallocated.
    BlockIngest ingest(trace.numThreads(), std::move(storage));
    for (const Chunk &c : chunks)
        EXPECT_EQ(ingest.feed(c.tid, c.bytes), DecodeStatus::NeedMore);
    EpochLayout layout = std::move(ingest).layout();
    expectSameLayout(EpochLayout::fromHeartbeats(trace), layout);
    storage = std::move(layout).releaseEvents();
    for (std::size_t t = 0; t < storage.size(); ++t) {
        EXPECT_EQ(storage[t].data(), data[t]) << "t=" << t;
        EXPECT_EQ(storage[t].capacity(), capacity[t]) << "t=" << t;
    }
}

/** A process-global mux metric; tests read deltas, since every mux in
 *  the process moves the same ones. */
std::uint64_t
muxMetric(const char *name, bool gauge = false)
{
    telemetry::MetricsRegistry &global = telemetry::globalRegistry();
    return global.value(gauge ? global.gauge(name) : global.counter(name));
}

std::uint64_t
storageReused()
{
    return muxMetric("bfly.service.mux.storage_reused");
}

std::uint64_t
storageDropped()
{
    return muxMetric("bfly.service.mux.storage_dropped");
}

std::uint64_t
recycledGauge()
{
    return muxMetric("bfly.service.mux.recycled_bytes", true);
}

TEST(BlockIngest, RecycledStorageKeepsEveryReportExact)
{
    for (const bool adaptive : {false, true}) {
        SCOPED_TRACE(adaptive ? "adaptive, force-cycled" : "static");
        WorkerPool pool(2);
        service::MuxConfig cfg;
        cfg.adaptive = adaptive;
        cfg.adaptiveForceCycle = adaptive;
        service::SessionMux mux(pool, cfg, {});
        Rng rng(adaptive ? 43 : 41);
        const std::uint64_t reused_before = storageReused();

        const auto expect_exact = [&](const Trace &trace,
                                      const std::vector<Chunk> &chunks) {
            const service::SessionSpec spec = addrcheckSpec(trace);
            const service::SessionResult result = serve(mux, spec, chunks);
            ASSERT_FALSE(result.failed) << result.reject.message;
            EXPECT_EQ(result.realizedSpans.empty(), !adaptive);
            EXPECT_TRUE(
                result.report.identical(referenceOf(spec, trace, result)));
        };

        // A large session leaves its storage on the spare list ...
        const Trace large = randomMarkedTrace(rng, 4, 20000);
        expect_exact(large, evenChunks(large, 4096));
        EXPECT_EQ(storageReused(), reused_before);
        EXPECT_GT(mux.recycledBytes(), 0u);

        // ... smaller sessions of other thread counts decode into it, a
        // corrupt and an aborted session drop what they took, and the
        // sessions after them still match the reference exactly.
        for (int round = 0; round < 12; ++round) {
            SCOPED_TRACE("round " + std::to_string(round));
            const Trace trace = randomMarkedTrace(rng, 1 + round % 3);
            std::vector<Chunk> chunks = randomChunks(trace, rng);
            if (round == 4) {
                chunks.push_back({0, {0x0f}}); // no event has this kind
                const service::SessionResult result =
                    serve(mux, addrcheckSpec(trace), chunks);
                ASSERT_TRUE(result.failed);
                EXPECT_EQ(result.reject.code,
                          service::RejectCode::CorruptLog);
            } else if (round == 8) {
                const std::uint64_t id = mux.open(addrcheckSpec(trace));
                service::BusyInfo busy;
                service::RejectInfo reject;
                for (std::uint64_t seq = 0; seq < chunks.size() / 2; ++seq)
                    mux.submitChunk(id, {seq, chunks[seq].tid},
                                    chunks[seq].bytes, busy, reject);
                mux.abort(id);
            } else {
                expect_exact(trace, chunks);
            }
        }
        EXPECT_GT(storageReused(), reused_before);
        EXPECT_EQ(mux.globalBytes(), 0u);
    }
}

TEST(BlockIngest, SpareStorageStaysWithinTheBaseSliceOnEveryShard)
{
    // A thread's events start in 1,024 slots (40 KB), so a four-thread
    // session holds 160 KB of capacity, over the 128 KB slice, while it
    // is charged only for the fewer than 300 events per thread it holds.
    constexpr std::size_t kSlice = 128 * 1024;
    const std::uint64_t gauge_before = recycledGauge();
    const std::uint64_t reused_before = storageReused();
    const std::uint64_t dropped_before = storageDropped();
    {
        WorkerPool pool(2);
        service::BudgetPool rebalance;
        service::MuxConfig cfg;
        cfg.globalBudgetBytes = 2 * kSlice;
        service::SessionMux a(pool, cfg, {}, kSlice, &rebalance);
        service::SessionMux b(pool, cfg, {}, kSlice, &rebalance);

        std::atomic<std::size_t> peak{0};
        const auto client = [&](service::SessionMux &mux,
                                std::uint64_t seed) {
            Rng rng(seed);
            for (int round = 0; round < 12; ++round) {
                const Trace trace = randomMarkedTrace(rng, 4, 300);
                const service::SessionSpec spec = addrcheckSpec(trace);
                const service::SessionResult result =
                    serve(mux, spec, evenChunks(trace, 1 << 16));
                EXPECT_FALSE(result.failed) << result.reject.message;
                EXPECT_TRUE(result.report.identical(
                    referenceOf(spec, trace, result)));
                std::size_t seen = peak.load();
                const std::size_t now = mux.recycledBytes();
                while (now > seen && !peak.compare_exchange_weak(seen, now))
                    ;
            }
        };
        std::thread ta(client, std::ref(a), 1);
        std::thread tb(client, std::ref(b), 2);
        ta.join();
        tb.join();

        EXPECT_GT(peak.load(), 0u);
        EXPECT_LE(peak.load(), kSlice);
        for (const service::SessionMux *mux : {&a, &b})
            EXPECT_LE(mux->recycledBytes(), kSlice);
        EXPECT_GT(storageReused(), reused_before);
        EXPECT_GT(storageDropped(), dropped_before);

        // The metrics dump carries the recycled storage: the gauge is
        // the sum over live muxes.
        EXPECT_EQ(recycledGauge() - gauge_before,
                  a.recycledBytes() + b.recycledBytes());
        std::ostringstream dump;
        telemetry::writeMetricsJson(dump);
        for (const char *name :
             {"\"recycled_bytes\"", "\"storage_reused\"",
              "\"storage_dropped\""})
            EXPECT_NE(dump.str().find(name), std::string::npos) << name;
    }
    // A mux takes its spare list, and its share of the gauge, with it.
    EXPECT_EQ(recycledGauge(), gauge_before);
}

TEST(BlockIngest, IdleSessionsPinNoMoreThanTheBaseSlice)
{
    // Idle sessions left open between large ones must not each walk off
    // with a large session's vectors: lent storage counts against the
    // cap until the session returns or frees it.
    constexpr std::size_t kSlice = 512 * 1024;
    constexpr std::size_t kThreads = 4;
    WorkerPool pool(2);
    service::MuxConfig cfg;
    service::SessionMux mux(pool, cfg, {}, kSlice);
    Rng rng(53);
    const std::uint64_t gauge_before = recycledGauge();
    const std::uint64_t dropped_before = storageDropped();

    std::vector<std::uint64_t> idle;
    std::uint64_t pinned_vectors = 0;
    std::size_t floor_bytes = ~std::size_t{0}; // least large vector
    for (int round = 0; round < 12; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        // Every thread of a large session logs 1,000 to 2,000 events,
        // about a ninth of them markers: some 35 KB of capacity or more,
        // so twelve rounds of four vectors would pin over three slices,
        // while one session's charge (under 320 KB) fits in the slice.
        Trace large;
        do
            large = randomMarkedTrace(rng, kThreads, 2000);
        while (std::any_of(large.threads.begin(), large.threads.end(),
                           [](const ThreadTrace &t) {
                               return t.events.size() < 1000;
                           }));
        const std::vector<Chunk> chunks = evenChunks(large, 4096);
        for (const std::vector<Event> &events :
             ingestAll(large, chunks).layout().releaseEvents())
            floor_bytes = std::min(floor_bytes,
                                   events.size() * sizeof(Event));
        const service::SessionSpec spec = addrcheckSpec(large);
        const service::SessionResult result = serve(mux, spec, chunks);
        ASSERT_FALSE(result.failed) << result.reject.message;
        EXPECT_TRUE(
            result.report.identical(referenceOf(spec, large, result)));

        // A tiny session opens, takes what is spare, and goes idle.
        const std::uint64_t reused = storageReused();
        Trace tiny;
        tiny.threads.resize(kThreads);
        idle.push_back(mux.open(addrcheckSpec(tiny)));
        pinned_vectors += storageReused() - reused;
        EXPECT_LE(mux.recycledBytes(), kSlice);
    }
    // Every vector the idle sessions hold was grown by a large session.
    EXPECT_GT(pinned_vectors, 0u);
    EXPECT_LE(pinned_vectors * floor_bytes, kSlice);
    EXPECT_GT(storageDropped(), dropped_before);
    EXPECT_EQ(recycledGauge() - gauge_before, mux.recycledBytes());

    // Closing the idle sessions ends their loans.
    for (const std::uint64_t id : idle)
        mux.abort(id);
    EXPECT_EQ(mux.recycledBytes(), 0u);
    EXPECT_EQ(recycledGauge(), gauge_before);
    EXPECT_EQ(mux.globalBytes(), 0u);
}

} // namespace
} // namespace bfly
