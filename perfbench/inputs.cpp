#include "inputs.hpp"

#include "common/rng.hpp"
#include "memmodel/interleaver.hpp"
#include "trace/epoch_slicer.hpp"
#include "trace/log_codec.hpp"
#include "workloads/workload.hpp"

namespace perfbench {

namespace {

using bfly::service::Lifeguard;

constexpr unsigned kThreads = 4;
/** Per-thread heartbeat interval; the global H is this times threads. */
constexpr std::size_t kEpochPerThread = 2048;

/** tiny_sessions connections: enough to keep a 4-core server saturated
 *  with sessions whose cost is mostly per-session overhead. */
constexpr unsigned kTinyConnections = 32;
/** Enough traces that p90, which falls among the slowest lifeguards'
 *  sessions, does not hinge on a few traces of one seed. */
constexpr std::size_t kTinyTracesPerLifeguard = 16;

std::uint64_t
subSeed(std::uint64_t seed, std::uint64_t k)
{
    // splitmix64 step: distinct, well-mixed seeds per generated trace.
    std::uint64_t z =
        seed * 0x9e3779b97f4a7c15ull + (k + 1) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

std::vector<std::size_t>
permutation(std::size_t n, bfly::Rng &rng)
{
    std::vector<std::size_t> p(n);
    for (std::size_t i = 0; i < n; ++i)
        p[i] = i;
    for (std::size_t i = n; i > 1; --i)
        std::swap(p[i - 1], p[rng.below(i)]);
    return p;
}

/** Generate, interleave, slice, mark and reference one session. */
void
addSession(Plan &plan, bfly::WorkloadFactory factory,
           const bfly::WorkloadConfig &cfg, Lifeguard lifeguard)
{
    const auto t0 = Clock::now();
    const bfly::Workload w = factory(cfg);
    const auto t1 = Clock::now();
    bfly::Rng rng(cfg.seed ^ 0x5eed);
    const bfly::Trace trace =
        bfly::interleave(w.programs, bfly::InterleaveConfig{}, rng);
    const auto t2 = Clock::now();

    const std::size_t global_h = kEpochPerThread * cfg.numThreads;
    const bfly::EpochLayout layout =
        bfly::EpochLayout::byGlobalSeq(trace, global_h);

    SessionInput in;
    in.label = w.name + "/" + bfly::service::lifeguardName(lifeguard);
    in.spec.lifeguard = static_cast<std::uint8_t>(lifeguard);
    in.spec.memModel = 0;
    in.spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    in.spec.granularity = 8;
    in.spec.heapBase = w.heapBase;
    in.spec.heapLimit = w.heapLimit;
    in.spec.globalH = global_h;
    in.spec.windowEpochs = 4;
    in.marked = bfly::withHeartbeatMarkers(trace, layout);
    in.events = trace.instructionCount();
    const auto t3 = Clock::now();
    in.reference = bfly::service::analyzeReference(in.spec, trace, layout);
    const auto t4 = Clock::now();

    plan.genMs += msBetween(t0, t1);
    plan.interleaveMs += msBetween(t1, t2);
    plan.referenceMs += msBetween(t3, t4);
    plan.sessions.push_back(std::move(in));
}

bfly::WorkloadConfig
config(std::uint64_t seed, std::size_t instr_per_thread)
{
    bfly::WorkloadConfig cfg;
    cfg.numThreads = kThreads;
    cfg.seed = seed;
    cfg.instrPerThread = instr_per_thread;
    return cfg;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {"box_addrcheck",
                                                   "tiny_sessions"};
    return names;
}

Plan
makePlan(const std::string &workload, std::uint64_t seed)
{
    Plan plan;
    plan.name = workload;
    bfly::Rng rng(subSeed(seed, 1000));

    if (workload == "box_addrcheck") {
        // The six paper kernels at benchmark scale: long phases and an
        // idle spacer of three epochs around init and teardown.
        std::uint64_t k = 0;
        for (const auto &[name, factory] : bfly::paperWorkloads()) {
            bfly::WorkloadConfig cfg = config(subSeed(seed, k++), 60000);
            cfg.phaseEvents = 9000;
            cfg.warmupNops = 3 * kEpochPerThread;
            addSession(plan, factory, cfg, Lifeguard::AddrCheck);
        }
        plan.connections = kThreads;
    } else if (workload == "tiny_sessions") {
        std::uint64_t k = 0;
        for (std::size_t i = 0; i < kTinyTracesPerLifeguard; ++i)
            for (Lifeguard lg : bfly::service::kAllLifeguards)
                addSession(plan, bfly::makeRandomMix,
                           config(subSeed(seed, k++), 500), lg);
        plan.connections = kTinyConnections;
    }

    for (std::size_t c = 0; c < plan.connections; ++c)
        plan.rotation.push_back(permutation(plan.sessions.size(), rng));
    return plan;
}

} // namespace perfbench
