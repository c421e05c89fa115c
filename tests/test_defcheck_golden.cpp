/**
 * @file
 * Golden pins for DEFINEDCHECK's observables: the service report
 * fingerprint and the error records in log order. They are pinned for
 * the six paper kernels at test scale, for a fixed set of fuzzer cases
 * (range churn among them), and for sessions shaped like the
 * tiny-session benchmark's (four threads of 500 random-mix events, one
 * epoch). Every case runs under the reference loop and the pipelined
 * schedule; both must reproduce the same pinned row.
 *
 * The rows were recorded from the implementation that replayed each
 * block's effects per read (IN_{l,t,i} rebuilt from LSOS for every
 * check), so a change of DEFINEDCHECK's internal representation has to
 * reproduce them bit for bit. A mismatch prints the observed row in
 * table syntax.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "butterfly/window.hpp"
#include "common/worker_pool.hpp"
#include "fuzz/trace_fuzzer.hpp"
#include "lifeguards/defcheck.hpp"
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
    std::uint64_t errors;      ///< errors().size()

    bool operator==(const Golden &) const = default;
};

std::string
row(const Golden &g)
{
    char buf[120];
    std::snprintf(buf, sizeof buf, "{0x%016llxull, 0x%016llxull, %llu}",
                  static_cast<unsigned long long>(g.fingerprint),
                  static_cast<unsigned long long>(g.order),
                  static_cast<unsigned long long>(g.errors));
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

service::SessionSpec
specOf(const Trace &trace, Addr heap_base, Addr heap_limit,
       std::size_t global_h, MemModel model)
{
    service::SessionSpec spec;
    spec.lifeguard = static_cast<std::uint8_t>(service::Lifeguard::DefCheck);
    spec.memModel = model == MemModel::TSO ? 1 : 0;
    spec.numThreads = static_cast<std::uint32_t>(trace.numThreads());
    spec.granularity = 8;
    spec.heapBase = heap_base;
    spec.heapLimit = heap_limit;
    spec.globalH = global_h;
    return spec;
}

/** Run DEFINEDCHECK over one session in @p mode and collect its row. */
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

    DefCheckConfig cfg;
    cfg.granularity = spec.granularity;
    cfg.heapBase = spec.heapBase;
    cfg.heapLimit = spec.heapLimit;
    ButterflyDefCheck check(layout, cfg);
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
    g.errors = check.errors().size();
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
// Paper kernels at test scale.
// --------------------------------------------------------------------

struct KernelPin
{
    const char *name;
    std::size_t epochPerThread; ///< per-thread H (global H = this * 4)
    Golden want;
};

constexpr KernelPin kKernelPins[] = {
    {"barnes", 512,
     {0xb0ae1e62dc0cc5e6ull, 0x45c783e8c8693976ull, 18}},
    {"barnes", 128,
     {0x1dacdd861c9d92eaull, 0xf207fb853f00baaeull, 6}},
    {"fft", 512,
     {0x6f8ffe5216e99b0dull, 0xc7c1caa3e6ff890dull, 2583}},
    {"fft", 128,
     {0xa411fd3f266e913eull, 0x52d14592513db67eull, 2394}},
    {"fmm", 512,
     {0xd98cca018a93b3b4ull, 0x7b9a36cc8bed375aull, 4501}},
    {"fmm", 128,
     {0x2e59a6438db91926ull, 0xd0929fd5295b1032ull, 4486}},
    {"ocean", 512,
     {0x3bb05c037bb39a3dull, 0x0152c9b51deb60a5ull, 384}},
    {"ocean", 128,
     {0xdfa43b1b4e78d72dull, 0xa59e4fca97bda2b5ull, 192}},
    {"blackscholes", 512,
     {0x535eed4968b581b2ull, 0x8f0d0c565d0359e4ull, 384}},
    {"blackscholes", 128,
     {0xffd7dedd623806abull, 0x2a4e45d7cb796023ull, 63}},
    {"lu", 512,
     {0xe28e748da33308b2ull, 0x9db5eaab14d06d9eull, 4930}},
    {"lu", 128,
     {0xe28e748da33308b2ull, 0x084017d7105c55d8ull, 4930}},
};

TEST(DefCheckGolden, PaperKernelsMatchPinnedObservables)
{
    const auto &kernels = paperWorkloads();
    ASSERT_EQ(2 * kernels.size(), std::size(kKernelPins));
    for (std::size_t i = 0; i < std::size(kKernelPins); ++i) {
        const KernelPin &pin = kKernelPins[i];
        const std::size_t k = i / 2;
        const auto &[name, factory] = kernels[k];
        ASSERT_EQ(name, pin.name);

        WorkloadConfig wcfg;
        wcfg.numThreads = 4;
        wcfg.seed = 201 + k;
        wcfg.instrPerThread = 3000;
        const Workload w = factory(wcfg);
        Rng rng(wcfg.seed ^ 0x5eed);
        const Trace trace =
            interleave(w.programs, InterleaveConfig{}, rng);
        const std::size_t global_h = pin.epochPerThread * wcfg.numThreads;
        const EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, global_h);
        expectAllModes(specOf(trace, w.heapBase, w.heapLimit, global_h,
                              MemModel::SequentiallyConsistent),
                       trace, layout, pin.want,
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
    {1, "range-churn",
     {0x4a10c012f49e9f17ull, 0x6cedfeb7e531a86full, 11}},
    {2, "leak-launder",
     {0x6a6309f6494d5d0dull, 0x06cd74a7096cfdddull, 30}},
    {3, "racy-alloc-free",
     {0x4c2bb93ee5fcbe5full, 0x6777da8b0ac5e9d1ull, 72}},
    {4, "range-churn",
     {0x4f2fa78647625cbdull, 0x816c93839300c103ull, 162}},
    {5, "taint-launder",
     {0x1ea38c82a7d093dfull, 0x1f9a78f960d8b797ull, 23}},
    {6, "random-soup",
     {0x68f871e5058e8a08ull, 0xf3a6a4340cd13ac2ull, 244}},
    {7, "heartbeat-straddle",
     {0xe9f1fcb718149079ull, 0x3dfb5324db8fec81ull, 40}},
    {8, "range-churn",
     {0x4e071c5723de3d76ull, 0x19e04db442d4793cull, 152}},
    {9, "racy-alloc-free",
     {0xd2ce16a9f36bead9ull, 0x1002789933a8a061ull, 83}},
    {10, "range-churn",
     {0x3cd923ba276513a0ull, 0x41c35862677b5b78ull, 258}},
    {11, "leak-launder",
     {0x116df926cf8246c2ull, 0xb8d142328f162aa2ull, 15}},
    {12, "taint-launder",
     {0xd85c3bee96fcadbdull, 0x3986f526b89c8195ull, 21}},
    {13, "heartbeat-straddle",
     {0xd468af1c551c1e19ull, 0xc56aeee30d25d07dull, 166}},
    {14, "random-soup",
     {0x6caac7c759e72805ull, 0x0712e2a17f101dd7ull, 50}},
    {15, "epoch-skew",
     {0x017e73f9474af614ull, 0x906d1ac4beb06ba4ull, 51}},
    {16, "heartbeat-straddle",
     {0x4527d6af7b40e006ull, 0x31cbcad8a34ed6acull, 75}},
    {17, "heartbeat-straddle",
     {0xb256a3f0ad5e08efull, 0x4babcd326fdecaa1ull, 217}},
    {18, "taint-launder",
     {0x40fc7cbc970753ebull, 0xd60f72aa86ab0037ull, 38}},
    {19, "heartbeat-straddle",
     {0xfca0797c45612dacull, 0x30ba65625dc9519cull, 34}},
    {20, "degenerate-epochs",
     {0x66881d3993a45b17ull, 0xffdcb148eddba86dull, 18}},
    {21, "taint-launder",
     {0x3baeacb0bc1e1ca3ull, 0x78d49c2a373b2a39ull, 24}},
    {22, "lock-churn",
     {0x6e45e40122e0fe7dull, 0x4a220e689b76e803ull, 50}},
    {23, "leak-launder",
     {0x5e4bc96867bae4a4ull, 0x69b6ff4fb54e4ccaull, 78}},
    {24, "random-soup",
     {0x665e3f31eb863c8full, 0xd687c3225827236full, 239}},
    {25, "range-churn",
     {0x920296fa6510b869ull, 0x6ff0736111d14311ull, 44}},
    {26, "heartbeat-straddle",
     {0x4ddef4d4a409255eull, 0x0736484f16d59c92ull, 182}},
    {27, "random-soup",
     {0xf1547a5631edbce9ull, 0xa8c824e6403f5391ull, 13}},
    {28, "random-soup",
     {0x185f2e8621bfd3e2ull, 0xfe7fd4c5c77b3342ull, 24}},
    {29, "taint-launder",
     {0xecc3ee10b789ea27ull, 0x2f46c6286eb58c9full, 28}},
    {30, "random-soup",
     {0x16e9d0ffe3eda67eull, 0x578e45e612bd3734ull, 299}},
    {31, "range-churn",
     {0xf2b94be2c2e44547ull, 0xe3cc368e9f0b2129ull, 114}},
    {32, "degenerate-epochs",
     {0x0ce6cfbc57741bd1ull, 0x17150987f32b2039ull, 11}},
    {33, "racy-alloc-free",
     {0xd7cc722ce8ae2892ull, 0x6b97e3121185d762ull, 340}},
    {34, "epoch-skew",
     {0x3254fc64e956b86cull, 0x687631d433e1bc50ull, 466}},
    {35, "range-churn",
     {0x5e347ef4a5e2cfb9ull, 0x42cc419b415f206dull, 250}},
    {36, "racy-alloc-free",
     {0x1d1fc7e121db9d85ull, 0x6c94dc01a469beadull, 14}},
    {37, "range-churn",
     {0xdf131df3e07e7e79ull, 0xf072ad51c885aa81ull, 11}},
    {38, "degenerate-epochs",
     {0x4585e238be439114ull, 0x794442a55fac4faaull, 15}},
    {39, "leak-launder",
     {0x965fbbe3270d6fb8ull, 0x027007a668518ea6ull, 20}},
    {40, "lock-churn",
     {0xcd9d974ccdfe3b69ull, 0x4d7752e12d924edbull, 56}},
    {41, "lock-churn",
     {0x863b121d96b9db0bull, 0x448eae38444256f1ull, 68}},
    {42, "lock-churn",
     {0x8759cd5e25e26634ull, 0x5f9169130df71f44ull, 11}},
    {43, "racy-alloc-free",
     {0xd561cfbc53b7dca0ull, 0x26f63fd70f3a6ec4ull, 149}},
    {44, "heartbeat-straddle",
     {0x46af21cf7724e3bdull, 0x6f1a316e081413ddull, 135}},
    {45, "degenerate-epochs",
     {0xd0d6d67e078d6cbcull, 0x7cb31a841b1159bcull, 12}},
    {46, "taint-launder",
     {0xe8683f338f59fd92ull, 0xa1718979b0d47c60ull, 29}},
    {47, "taint-launder",
     {0xaa8dcfa4b65acb0bull, 0x96ccff961a890743ull, 15}},
    {48, "range-churn",
     {0x7fec3fedf043b60eull, 0x4eed47f18bb0d50eull, 82}},
    {49, "taint-launder",
     {0x2503acbc0ad1f294ull, 0x769ab46e5a6f3424ull, 20}},
    {50, "taint-launder",
     {0x9d5b2d143f3c0420ull, 0x72482bd9b00dd770ull, 7}},
    {51, "taint-launder",
     {0xdd1c4a88711c03a7ull, 0x74c43c1c49d438a9ull, 18}},
    {52, "epoch-skew",
     {0x1d48eccc162c628cull, 0xd0376e53fcbb64a6ull, 438}},
    {53, "taint-launder",
     {0x78f72cb4564f7cc3ull, 0x477a8210f5f37a5bull, 11}},
    {54, "degenerate-epochs",
     {0xacd7feb102027d12ull, 0x1e5759bdf8ceea1eull, 9}},
    {55, "epoch-skew",
     {0xcf75e691ac436bf4ull, 0xb52c7b2c95ccce84ull, 80}},
    {56, "taint-launder",
     {0x5ca872777cafa09bull, 0x137d1a297dea43b7ull, 19}},
    {57, "heartbeat-straddle",
     {0x8432f1ded7979fdeull, 0x444063544e78178aull, 196}},
    {58, "taint-launder",
     {0x814826760afde6deull, 0x71a5e78ea1a4c9feull, 14}},
    {59, "range-churn",
     {0xc84a0ff06b546b05ull, 0x0adc432b426b621bull, 85}},
    {60, "leak-launder",
     {0x8456f05a5587aa70ull, 0x7099610c8306eeb0ull, 71}},
    {61, "epoch-skew",
     {0x749ae7cb2734da69ull, 0x993c4564ab1ff43dull, 42}},
    {62, "leak-launder",
     {0x048875deacc5e611ull, 0x47a487cfe8fc2f53ull, 44}},
    {63, "leak-launder",
     {0xecc2c3fa13d45487ull, 0x49e08c71d01bf07full, 17}},
    {64, "epoch-skew",
     {0xaed4adacf63e8794ull, 0x07cba9ba3ca945baull, 401}},
};

TEST(DefCheckGolden, FuzzerCasesMatchPinnedObservables)
{
    const fuzz::TraceFuzzer fuzzer{fuzz::FuzzerConfig{}};
    for (const FuzzPin &pin : kFuzzPins) {
        const fuzz::FuzzCase c = fuzzer.generate(pin.seed);
        ASSERT_EQ(c.scenario, pin.scenario) << "seed " << pin.seed;
        const Trace trace = c.materialize();
        const EpochLayout layout = EpochLayout::byGlobalSeq(trace, c.globalH);
        expectAllModes(
            specOf(trace, c.heapBase, c.heapLimit, c.globalH, c.model),
            trace, layout, pin.want,
            "seed " + std::to_string(pin.seed) + " (" + c.scenario + ")");
    }
}

// --------------------------------------------------------------------
// Tiny-session shape: 4 threads x 500 random-mix events, one epoch.
// --------------------------------------------------------------------

struct MixPin
{
    std::uint64_t seed;
    Golden want;
};

constexpr MixPin kMixPins[] = {
    {1,
     {0x6e1ebf38e0a6a181ull, 0xeae06570142ffec9ull, 1099}},
    {2,
     {0xc9d1871b59999f63ull, 0xf3ae045893e47bfbull, 994}},
    {3,
     {0x6ed5bb71549ee287ull, 0xb36d6c3fa0212e7full, 1124}},
    {4,
     {0x7a6e332511355a68ull, 0xc43eee79f62a2c78ull, 1110}},
};

TEST(DefCheckGolden, TinySessionsMatchPinnedObservables)
{
    for (const MixPin &pin : kMixPins) {
        WorkloadConfig wcfg;
        wcfg.numThreads = 4;
        wcfg.seed = pin.seed;
        wcfg.instrPerThread = 500;
        const Workload w = makeRandomMix(wcfg);
        Rng rng(wcfg.seed ^ 0x5eed);
        const Trace trace =
            interleave(w.programs, InterleaveConfig{}, rng);
        // The benchmark's 2048 events per thread: the whole session is
        // one epoch.
        const std::size_t global_h = 2048 * wcfg.numThreads;
        const EpochLayout layout =
            EpochLayout::byGlobalSeq(trace, global_h);
        ASSERT_EQ(layout.numEpochs(), 1u);
        expectAllModes(specOf(trace, w.heapBase, w.heapLimit, global_h,
                              MemModel::SequentiallyConsistent),
                       trace, layout, pin.want,
                       "random-mix seed " + std::to_string(pin.seed));
    }
}

} // namespace
} // namespace bfly
