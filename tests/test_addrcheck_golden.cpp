/**
 * @file
 * Golden pins for ADDRCHECK's observables: the service report
 * fingerprint, the error records in log order, eventsChecked,
 * isolationViolations, and the perf-model feeds (summed summarySize and
 * sosUpdateWork). They are pinned for the six paper kernels, shaped like
 * the box benchmark's sessions (long phases, idle spacers) at test
 * scale, and for a fixed set of fuzzer cases. Every case runs under the
 * reference loop and the pipelined schedule; both must reproduce the
 * same pinned row.
 *
 * The rows were recorded from the per-key hash-set implementation, so a
 * change of ADDRCHECK's internal representation has to reproduce them
 * bit for bit. A mismatch prints the observed row in table syntax.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "butterfly/window.hpp"
#include "common/worker_pool.hpp"
#include "fuzz/trace_fuzzer.hpp"
#include "lifeguards/addrcheck.hpp"
#include "memmodel/interleaver.hpp"
#include "service/analyzer.hpp"
#include "trace/log_codec.hpp"
#include "workloads/workload.hpp"

namespace bfly {
namespace {

/** One pinned observation. */
struct Golden
{
    std::uint64_t fingerprint; ///< RemoteReport::fingerprint
    std::uint64_t order;       ///< FNV over errors().records(), log order
    std::uint64_t checked;     ///< eventsChecked()
    std::uint64_t isolation;   ///< isolationViolations()
    std::uint64_t summaries;   ///< sum of summarySize(l, t)
    std::uint64_t sosWork;     ///< sum of sosUpdateWork(l)

    bool
    operator==(const Golden &o) const
    {
        return fingerprint == o.fingerprint && order == o.order &&
               checked == o.checked && isolation == o.isolation &&
               summaries == o.summaries && sosWork == o.sosWork;
    }
};

std::string
row(const Golden &g)
{
    char buf[200];
    std::snprintf(buf, sizeof buf,
                  "{0x%016llxull, 0x%016llxull, %llu, %llu, %llu, %llu}",
                  static_cast<unsigned long long>(g.fingerprint),
                  static_cast<unsigned long long>(g.order),
                  static_cast<unsigned long long>(g.checked),
                  static_cast<unsigned long long>(g.isolation),
                  static_cast<unsigned long long>(g.summaries),
                  static_cast<unsigned long long>(g.sosWork));
    return buf;
}

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ull;
}

struct Mode
{
    const char *name;
    bool pipelined;
};

constexpr Mode kModes[] = {{"sequential", false}, {"pipelined", true}};

/** Run ADDRCHECK over one session in @p mode and collect its row. */
Golden
observe(const service::SessionSpec &spec, const Trace &trace,
        const EpochLayout &layout, const Mode &mode, WorkerPool &pool)
{
    // The pipelined runs stream the same epochs, cut at heartbeat
    // markers placed on the layout's boundaries.
    const Trace marked = withHeartbeatMarkers(trace, layout);
    Golden g{};
    g.fingerprint =
        mode.pipelined
            ? service::analyzeStreaming(spec, marked, pool).fingerprint
            : service::analyzeReference(spec, trace, layout).fingerprint;

    AddrCheckConfig cfg;
    cfg.granularity = spec.granularity;
    cfg.heapBase = spec.heapBase;
    cfg.heapLimit = spec.heapLimit;
    ButterflyAddrCheck check(layout, cfg);
    if (mode.pipelined) {
        EpochStream::Config scfg;
        scfg.fromHeartbeats = true;
        EpochStream stream(marked, scfg);
        WindowSchedule(&pool).runPipelined(stream, check);
    } else {
        WindowSchedule().run(layout, check);
    }

    g.order = 0xcbf29ce484222325ull;
    for (const ErrorRecord &r : check.errors().records()) {
        fnv(g.order, r.tid);
        fnv(g.order, r.index);
        fnv(g.order, r.addr);
        fnv(g.order, static_cast<std::uint64_t>(r.kind));
        fnv(g.order, r.size);
    }
    g.checked = check.eventsChecked();
    g.isolation = check.isolationViolations();
    for (EpochId l = 0; l < layout.numEpochs(); ++l) {
        g.sosWork += check.sosUpdateWork(l);
        for (ThreadId t = 0; t < layout.numThreads(); ++t)
            g.summaries += check.summarySize(l, t);
    }
    return g;
}

void
expectAllModes(const service::SessionSpec &spec, const Trace &trace,
               const EpochLayout &layout, const Golden &want,
               const std::string &label)
{
    WorkerPool pool(4);
    for (const Mode &mode : kModes) {
        Golden got = observe(spec, trace, layout, mode, pool);
        // The pipelined schedule commits blocks as they finish, so its
        // log order is not deterministic; the fingerprint still covers
        // its records.
        if (mode.pipelined)
            got.order = want.order;
        EXPECT_TRUE(got == want)
            << label << " [" << mode.name << "]: observed " << row(got);
    }
}

// --------------------------------------------------------------------
// Paper kernels, box-benchmark phase shape.
// --------------------------------------------------------------------

/** The box benchmark's per-thread epoch (perfbench/inputs.cpp). */
constexpr std::size_t kBoxEpochPerThread = 2048;

struct KernelPin
{
    const char *name;
    std::size_t epochPerThread; ///< per-thread H (global H = this * 4)
    Golden want;
};

/** The box benchmark's epoch, and an 8x smaller one: that changes every
 *  summary, and for barnes the flagged events. */
constexpr KernelPin kKernelPins[] = {
    {"barnes", 2048,
     {0x8f4d9c70cd77a1f3ull, 0xbabe1ae1e7f0bdc3ull,
      146240, 75, 130491, 93440}},
    {"barnes", 256,
     {0x7f398091cea77055ull, 0xbfe277891188851dull,
      146240, 3, 135147, 93440}},
    {"fft", 2048,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      141632, 0, 102339, 65536}},
    {"fft", 256,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      141632, 0, 120124, 66560}},
    {"fmm", 2048,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      98336, 0, 72630, 49920}},
    {"fmm", 256,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      98336, 0, 82684, 49920}},
    {"ocean", 2048,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      91360, 0, 73310, 50176}},
    {"ocean", 256,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      91360, 0, 73383, 50176}},
    {"blackscholes", 2048,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      33888, 0, 14816, 3648}},
    {"blackscholes", 256,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      33888, 0, 33888, 3648}},
    {"lu", 2048,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      116618, 0, 97984, 66368}},
    {"lu", 256,
     {0x192268089ccf3cbdull, 0xcbf29ce484222325ull,
      116618, 0, 101289, 66368}},
};

TEST(AddrCheckGolden, PaperKernelsMatchPinnedObservables)
{
    const auto &kernels = paperWorkloads();
    ASSERT_EQ(2 * kernels.size(), std::size(kKernelPins));
    for (std::size_t i = 0; i < std::size(kKernelPins); ++i) {
        const KernelPin &pin = kKernelPins[i];
        const std::size_t k = i / 2;
        const auto &[name, factory] = kernels[k];
        ASSERT_EQ(name, pin.name);

        // Generated exactly as the box benchmark generates a session.
        WorkloadConfig wcfg;
        wcfg.numThreads = 4;
        wcfg.seed = 101 + k;
        wcfg.instrPerThread = 24000;
        wcfg.phaseEvents = 9000;
        wcfg.warmupNops = 3 * kBoxEpochPerThread;
        const Workload w = factory(wcfg);
        Rng rng(wcfg.seed ^ 0x5eed);
        const Trace trace =
            interleave(w.programs, InterleaveConfig{}, rng);
        const std::size_t global_h = pin.epochPerThread * wcfg.numThreads;
        const EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, global_h);

        service::SessionSpec spec;
        spec.lifeguard =
            static_cast<std::uint8_t>(service::Lifeguard::AddrCheck);
        spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
        spec.granularity = 8;
        spec.heapBase = w.heapBase;
        spec.heapLimit = w.heapLimit;
        spec.globalH = global_h;
        expectAllModes(spec, trace, layout, pin.want,
                       name + "/h" + std::to_string(pin.epochPerThread));
    }
}

// --------------------------------------------------------------------
// Fuzzer cases (TraceFuzzer::generate is a pure function of the seed).
// --------------------------------------------------------------------

struct FuzzPin
{
    std::uint64_t seed;
    const char *scenario;
    Golden want;
};

constexpr FuzzPin kFuzzPins[] = {
    {2, "leak-launder",
     {0xe5c3a60aaab54d0bull, 0xafcfb530d6f75349ull,
      132, 63, 52, 21}},
    {3, "racy-alloc-free",
     {0xb25ee2d3bc93d138ull, 0xc4bcdabafa624cebull,
      178, 101, 150, 36}},
    {5, "taint-launder",
     {0x0944d915e0b26d60ull, 0x4cb2b7742dc5305cull,
      369, 0, 62, 0}},
    {6, "random-soup",
     {0x185b6d5d6bca2754ull, 0x2127e6b8067ba976ull,
      726, 442, 531, 112}},
    {7, "heartbeat-straddle",
     {0x8cd049365b5e5cd6ull, 0x1a2a60e5061286b6ull,
      125, 0, 38, 8}},
    {9, "racy-alloc-free",
     {0x883698fe621c7b6aull, 0xa7310e0a91a8f69eull,
      339, 0, 140, 55}},
    {11, "leak-launder",
     {0x20a1949bb2ee9a1dull, 0x762b94fec6464a2aull,
      206, 0, 50, 21}},
    {12, "taint-launder",
     {0x2f603f454387273eull, 0x1f73cbd5aaeb1520ull,
      364, 0, 173, 0}},
    {13, "heartbeat-straddle",
     {0xfa0a8a8d5e1b3ad4ull, 0xc6de40b030510e98ull,
      771, 81, 623, 120}},
    {14, "random-soup",
     {0x4275b70f042dcbbdull, 0xe458412241510ecaull,
      149, 78, 88, 21}},
    {15, "epoch-skew",
     {0xd354a35ae1fce6e6ull, 0x6b73be991f3b8b2bull,
      201, 0, 94, 38}},
    {16, "heartbeat-straddle",
     {0x4a058ee30d5f6dcaull, 0x5916e8304b7b0eb4ull,
      223, 24, 118, 24}},
    {17, "heartbeat-straddle",
     {0x4059e200dcf29a20ull, 0x6bbe3c08a07d0c7cull,
      1110, 134, 913, 128}},
    {18, "taint-launder",
     {0xf87054e7f058586cull, 0xb9fb71b41edffad8ull,
      864, 0, 214, 0}},
    {19, "heartbeat-straddle",
     {0x3d066b48598f13afull, 0xcb87088574bdeebfull,
      97, 0, 41, 8}},
    {20, "degenerate-epochs",
     {0xf004c88ba3045d87ull, 0x59093f40b98a5441ull,
      54, 2, 53, 2}},
    {21, "taint-launder",
     {0x4ff677c698ac64e6ull, 0xf0f944da864c1a40ull,
      441, 0, 229, 0}},
    {22, "lock-churn",
     {0x944b6f3927f194b2ull, 0x0dd6bfcd05ef0f4cull,
      311, 37, 175, 48}},
    {23, "leak-launder",
     {0x63e753aa8e1ec463ull, 0xdbb152d9b2fa7a49ull,
      376, 186, 210, 46}},
    {24, "random-soup",
     {0x607684967c2cefd3ull, 0x75a805447d8b30b4ull,
      715, 434, 556, 126}},
    {26, "heartbeat-straddle",
     {0xc70fc18169ad7973ull, 0x39b780055abd7753ull,
      853, 82, 558, 80}},
    {27, "random-soup",
     {0x6428621a912046b7ull, 0x2f13d83bca4a7875ull,
      97, 0, 38, 18}},
    {28, "random-soup",
     {0xbe40f56b317334d1ull, 0xa92f1a100280e2e5ull,
      80, 0, 37, 14}},
    {29, "taint-launder",
     {0x886ba666163d3d98ull, 0x031384a35496329aull,
      506, 0, 99, 0}},
    {30, "random-soup",
     {0xa641904869817512ull, 0x0def45dbba33fa30ull,
      794, 588, 446, 103}},
    {32, "degenerate-epochs",
     {0x48b820ac8b170aa4ull, 0xd96043965fdf76cdull,
      27, 0, 26, 7}},
    {33, "racy-alloc-free",
     {0xff9375df26da5436ull, 0xa5f4b9946e253e36ull,
      961, 595, 669, 152}},
    {34, "epoch-skew",
     {0xaf2a0a92cedb03f4ull, 0x7a2eceb997c7d85dull,
      1412, 562, 1002, 283}},
    {36, "racy-alloc-free",
     {0x830a7af58412c929ull, 0x1ed51f94669abbb0ull,
      30, 0, 22, 6}},
    {38, "degenerate-epochs",
     {0x2583ddb5e1070531ull, 0x8be26dbce4c33e8full,
      26, 0, 25, 0}},
    {39, "leak-launder",
     {0xd1f2a786a8a7a289ull, 0xfd194ae43d8c73f1ull,
      97, 18, 74, 15}},
    {40, "lock-churn",
     {0xff61b1831c97fd3dull, 0xe3fa0531187d1699ull,
      160, 56, 126, 64}},
    {41, "lock-churn",
     {0x0d82c98e06e50ce8ull, 0xf72cea38e36cfc60ull,
      234, 31, 160, 64}},
    {42, "lock-churn",
     {0x7e3461ff0a677ff2ull, 0x769c76cd39c7627cull,
      49, 11, 36, 24}},
    {43, "racy-alloc-free",
     {0x1a4c72d1f1b0dcbfull, 0x96f8abb61680aa11ull,
      413, 257, 318, 74}},
    {44, "heartbeat-straddle",
     {0x647d73057a354373ull, 0x79905eb3976889e9ull,
      554, 54, 412, 56}},
    {45, "degenerate-epochs",
     {0x63a18a240c748650ull, 0x90c83859bc538194ull,
      35, 2, 34, 10}},
    {46, "taint-launder",
     {0x8005ccd1a68782ceull, 0xf3df137ef822c572ull,
      608, 0, 169, 0}},
    {47, "taint-launder",
     {0x28f1b6a7ae94a943ull, 0x39632f4be3db8ca9ull,
      157, 0, 40, 0}},
    {49, "taint-launder",
     {0xcbfe5dcbe84c3f32ull, 0xf953770facf5fdb2ull,
      84, 0, 47, 0}},
    {50, "taint-launder",
     {0x7152810ca42f1f5full, 0x83564483074c5717ull,
      42, 0, 12, 0}},
    {51, "taint-launder",
     {0x07dd5fed3e0cc84cull, 0x8d87710a407076d8ull,
      1005, 0, 328, 0}},
    {52, "epoch-skew",
     {0xc899ace6000258e5ull, 0x0f23d700f042ad22ull,
      1242, 691, 742, 176}},
    {53, "taint-launder",
     {0xbc63713de347c002ull, 0x4624ca30331ac262ull,
      150, 0, 20, 0}},
    {54, "degenerate-epochs",
     {0x83fe9d65e77b7068ull, 0x782e4248e778dc7aull,
      35, 0, 35, 10}},
    {55, "epoch-skew",
     {0xc25c6d77e41b4a7full, 0x1d752206b8c7dca1ull,
      317, 0, 87, 29}},
    {56, "taint-launder",
     {0x4a5168592fe0ab07ull, 0xdbc14e5a88323767ull,
      1323, 0, 721, 0}},
    {57, "heartbeat-straddle",
     {0x1e0a6e0a06a33e37ull, 0xde792571101b4189ull,
      768, 117, 437, 64}},
    {58, "taint-launder",
     {0x2db8318b61f403f7ull, 0x1e2d91863f68e24full,
      72, 0, 17, 0}},
    {60, "leak-launder",
     {0x4b73a5a4bca084f2ull, 0x4243e7f7127f731full,
      344, 190, 253, 53}},
};

TEST(AddrCheckGolden, FuzzerCasesMatchPinnedObservables)
{
    const fuzz::TraceFuzzer fuzzer{fuzz::FuzzerConfig{}};
    for (const FuzzPin &pin : kFuzzPins) {
        const fuzz::FuzzCase c = fuzzer.generate(pin.seed);
        ASSERT_EQ(c.scenario, pin.scenario) << "seed " << pin.seed;
        const Trace trace = c.materialize();
        const EpochLayout layout = EpochLayout::byGlobalSeq(trace, c.globalH);

        service::SessionSpec spec;
        spec.lifeguard =
            static_cast<std::uint8_t>(service::Lifeguard::AddrCheck);
        spec.memModel = c.model == MemModel::TSO ? 1 : 0;
        spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
        spec.granularity = 8;
        spec.heapBase = c.heapBase;
        spec.heapLimit = c.heapLimit;
        spec.globalH = c.globalH;
        expectAllModes(spec, trace, layout, pin.want,
                       "seed " + std::to_string(pin.seed) + " (" +
                           c.scenario + ")");
    }
}

} // namespace
} // namespace bfly
