/**
 * @file
 * Ablation A3 / capacity planning: throughput of the core primitives the
 * butterfly analysis is built from — set algebra, shadow memory, the
 * simulated heap, the interleaver, and the full ADDRCHECK lifeguard
 * (events per second of wall-clock, i.e. the speed of this
 * implementation, distinct from the simulated-cycle figures).
 */

#include <benchmark/benchmark.h>

#include "bench/bench_common.hpp"
#include "butterfly/window.hpp"
#include "common/addr_set.hpp"
#include "common/shadow_memory.hpp"
#include "memmodel/interleaver.hpp"

namespace bfly {
namespace {

void
BM_AddrSetUnion(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    AddrSet a, b;
    Rng rng(1);
    for (std::size_t i = 0; i < n; ++i) {
        a.insert(rng.next() % (4 * n));
        b.insert(rng.next() % (4 * n));
    }
    for (auto _ : state) {
        AddrSet c = a;
        c.unionWith(b);
        benchmark::DoNotOptimize(c.size());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AddrSetUnion)->Range(64, 16384);

void
BM_AddrSetIntersects(benchmark::State &state)
{
    const std::size_t n = static_cast<std::size_t>(state.range(0));
    AddrSet a, b;
    Rng rng(2);
    for (std::size_t i = 0; i < n; ++i) {
        a.insert(rng.next() % (8 * n));
        b.insert(rng.next() % (8 * n));
    }
    for (auto _ : state)
        benchmark::DoNotOptimize(a.intersects(b));
    state.SetItemsProcessed(state.iterations() *
                            static_cast<std::int64_t>(n));
}
BENCHMARK(BM_AddrSetIntersects)->Range(64, 16384);

void
BM_ShadowMemory(benchmark::State &state)
{
    ShadowMemory<std::uint8_t> shadow(0);
    Rng rng(3);
    std::uint64_t n = 0;
    for (auto _ : state) {
        const Addr a = rng.below(1 << 22);
        if (n & 1)
            shadow.set(a, 1);
        else
            benchmark::DoNotOptimize(shadow.get(a));
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_ShadowMemory);

void
BM_SimHeapMallocFree(benchmark::State &state)
{
    SimHeap heap(0x10000000, 64 * 1024 * 1024);
    Rng rng(4);
    std::vector<Addr> live;
    std::uint64_t n = 0;
    for (auto _ : state) {
        if (live.size() < 256 || rng.chance(0.5)) {
            const Addr a = heap.malloc(16 + 16 * rng.below(16));
            if (a != kNoAddr)
                live.push_back(a);
        } else {
            const std::size_t k = rng.below(live.size());
            heap.free(live[k]);
            live[k] = live.back();
            live.pop_back();
        }
        ++n;
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(n));
}
BENCHMARK(BM_SimHeapMallocFree);

void
BM_InterleaverThroughput(benchmark::State &state)
{
    WorkloadConfig wcfg;
    wcfg.numThreads = 4;
    wcfg.instrPerThread = 20000;
    const Workload w = makeRandomMix(wcfg);
    std::uint64_t events = 0;
    std::uint64_t seed = 1;
    for (auto _ : state) {
        Rng rng(seed++);
        InterleaveConfig icfg;
        icfg.model = MemModel::TSO;
        const Trace trace = interleave(w.programs, icfg, rng);
        events += trace.instructionCount();
        benchmark::DoNotOptimize(trace.threads.size());
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_InterleaverThroughput)->Unit(benchmark::kMillisecond);

void
BM_ButterflyAddrCheckThroughput(benchmark::State &state)
{
    // Wall-clock events/second of the functional lifeguard itself.
    WorkloadConfig wcfg;
    wcfg.numThreads = static_cast<unsigned>(state.range(0));
    wcfg.instrPerThread = 50000;
    const Workload w = makeOcean(wcfg);
    Rng rng(6);
    const Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    const EpochLayout layout = EpochLayout::byGlobalSeq(
        trace, 2048 * wcfg.numThreads);
    AddrCheckConfig acfg;
    acfg.heapBase = w.heapBase;
    acfg.heapLimit = w.heapLimit;

    std::uint64_t events = 0;
    for (auto _ : state) {
        ButterflyAddrCheck butterfly(layout, acfg);
        WindowSchedule().run(layout, butterfly);
        benchmark::DoNotOptimize(butterfly.errors().size());
        events += trace.instructionCount();
    }
    state.SetItemsProcessed(static_cast<std::int64_t>(events));
}
BENCHMARK(BM_ButterflyAddrCheckThroughput)
    ->Arg(2)
    ->Arg(4)
    ->Arg(8)
    ->Unit(benchmark::kMillisecond);

void
BM_ReferenceVsPipelined(benchmark::State &state)
{
    // Wall-clock cost of the streaming source: the step loop over a
    // materialized layout vs the same loop admitting and retiring
    // epochs from an EpochStream.
    const bool pipelined = state.range(0) != 0;
    WorkloadConfig wcfg;
    wcfg.numThreads = 8;
    wcfg.instrPerThread = 50000;
    const Workload w = makeBarnes(wcfg);
    Rng rng(7);
    const Trace trace = interleave(w.programs, InterleaveConfig{}, rng);
    const std::size_t global_h = 2048 * 8;
    const EpochLayout layout = EpochLayout::byGlobalSeq(trace, global_h);
    AddrCheckConfig acfg;
    acfg.heapBase = w.heapBase;
    acfg.heapLimit = w.heapLimit;

    for (auto _ : state) {
        ButterflyAddrCheck butterfly(layout, acfg);
        if (pipelined) {
            EpochStream::Config scfg;
            scfg.globalH = global_h;
            EpochStream stream(trace, scfg);
            WindowSchedule().runPipelined(stream, butterfly);
        } else {
            WindowSchedule().run(layout, butterfly);
        }
        benchmark::DoNotOptimize(butterfly.errors().size());
    }
    state.SetLabel(pipelined ? "pipelined" : "reference");
}
BENCHMARK(BM_ReferenceVsPipelined)
    ->Arg(0)
    ->Arg(1)
    ->Unit(benchmark::kMillisecond);

} // namespace
} // namespace bfly

BENCHMARK_MAIN();
