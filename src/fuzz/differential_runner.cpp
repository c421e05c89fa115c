#include "fuzz/differential_runner.hpp"

#include <algorithm>
#include <iterator>
#include <sstream>
#include <tuple>

#include "butterfly/reaching_defs.hpp"
#include "butterfly/window.hpp"
#include "common/worker_pool.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrcheck_oracle.hpp"
#include "lifeguards/addrleak.hpp"
#include "lifeguards/defcheck.hpp"
#include "lifeguards/lockset.hpp"
#include "lifeguards/taintcheck.hpp"
#include "staticpass/classify.hpp"
#include "telemetry/metrics.hpp"
#include "telemetry/trace_span.hpp"
#include "trace/epoch_slicer.hpp"

namespace bfly::fuzz {

namespace {

const char *const kLifeguardNames[] = {"ADDRCHECK",     "TAINTCHECK",
                                       "DEFINEDCHECK",  "REACHING-DEFS",
                                       "LOCKSET",       "ADDRLEAK"};
const char *const kModeNames[] = {"sequential", "pipelined"};
const char *const kInvariantNames[] = {"mode-equivalence",
                                       "oracle-subsumption",
                                       "fp-monotonicity",
                                       "elision-soundness"};

/** Pre-interned fuzz metric ids. */
struct FuzzMetrics
{
    telemetry::MetricId cases;
    telemetry::MetricId events;
    telemetry::MetricId violations;

    static const FuzzMetrics &
    get()
    {
        static const FuzzMetrics m = [] {
            auto &r = telemetry::registry();
            FuzzMetrics f;
            f.cases = r.counter("bfly.fuzz.cases");
            f.events = r.counter("bfly.fuzz.events");
            f.violations = r.counter("bfly.fuzz.violations");
            return f;
        }();
        return m;
    }
};

/** Canonical, order-independent form of an error log. */
std::vector<ErrorRecord>
canonicalRecords(const ErrorLog &log)
{
    std::vector<ErrorRecord> out = log.records();
    std::sort(out.begin(), out.end(),
              [](const ErrorRecord &a, const ErrorRecord &b) {
                  return std::tie(a.tid, a.index, a.addr, a.kind, a.size) <
                         std::tie(b.tid, b.index, b.addr, b.kind, b.size);
              });
    return out;
}

bool
sameRecord(const ErrorRecord &a, const ErrorRecord &b)
{
    return a.tid == b.tid && a.index == b.index && a.addr == b.addr &&
           a.kind == b.kind && a.size == b.size;
}

/** One mode's observable result for one lifeguard. */
struct Report
{
    std::vector<ErrorRecord> records; ///< canonical error records
    std::vector<Addr> sos;            ///< final SOS (where exposed)
    std::uint64_t fingerprint = 0;    ///< dataflow sets (reaching defs)
    std::uint64_t resolveFallbacks = 0; ///< TAINTCHECK budget fallbacks
};

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ull;
}

bool
sameReport(const Report &a, const Report &b)
{
    if (a.records.size() != b.records.size() || a.sos != b.sos ||
        a.fingerprint != b.fingerprint)
        return false;
    for (std::size_t i = 0; i < a.records.size(); ++i)
        if (!sameRecord(a.records[i], b.records[i]))
            return false;
    return true;
}

std::string
diffReports(const Report &seq, const Report &other)
{
    std::ostringstream os;
    os << "records " << seq.records.size() << " vs "
       << other.records.size();
    const std::size_t n =
        std::min(seq.records.size(), other.records.size());
    for (std::size_t i = 0; i < n; ++i) {
        if (!sameRecord(seq.records[i], other.records[i])) {
            os << "; first diff at " << i << ": "
               << seq.records[i].toString() << " vs "
               << other.records[i].toString();
            return os.str();
        }
    }
    if (seq.records.size() != other.records.size()) {
        const auto &longer = seq.records.size() > other.records.size()
                                 ? seq.records
                                 : other.records;
        os << "; extra: " << longer[n].toString();
    } else if (seq.sos != other.sos) {
        os << "; SOS sizes " << seq.sos.size() << " vs "
           << other.sos.size();
    } else if (seq.fingerprint != other.fingerprint) {
        os << "; dataflow fingerprints differ";
    }
    return os.str();
}

/** Drop records of @p kind (the FaultPlan's corruption primitive). */
void
dropKind(Report &report, ErrorKind kind)
{
    report.records.erase(
        std::remove_if(report.records.begin(), report.records.end(),
                       [&](const ErrorRecord &r) {
                           return r.kind == kind;
                       }),
        report.records.end());
}

/** Rebuild an ErrorLog from canonical records (post-fault). */
ErrorLog
logOf(const std::vector<ErrorRecord> &records)
{
    ErrorLog log;
    for (const ErrorRecord &r : records)
        log.report(r);
    return log;
}

/** Per-case execution context shared by the mode runs. */
struct CaseContext
{
    const FuzzCase &c;
    const Trace &trace;
    const EpochLayout &layout;

    AddrCheckConfig addrCfg;
    TaintCheckConfig taintCfg;
    DefCheckConfig defCfg;
    LockSetConfig lockCfg;
    AddrLeakConfig leakCfg;
    TaintTermination termination;
};

/** Drive @p driver over the case in @p mode. */
void
drive(const CaseContext &ctx, RunMode mode, AnalysisDriver &driver)
{
    switch (mode) {
      case RunMode::Sequential:
        WindowSchedule().run(ctx.layout, driver);
        break;
      case RunMode::Pipelined: {
        // The same epochs as the layout (same globalH), sliced as the
        // graph admits them.
        EpochStream::Config scfg;
        scfg.globalH = ctx.c.globalH;
        EpochStream stream(ctx.trace, scfg);
        WorkerPool pool(std::max<std::size_t>(1, ctx.trace.numThreads()));
        WindowSchedule(&pool).runPipelined(stream, driver);
        break;
      }
    }
}

Report
runLifeguard(const CaseContext &ctx, Lifeguard lg, RunMode mode)
{
    Report report;
    switch (lg) {
      case Lifeguard::AddrCheck: {
        ButterflyAddrCheck driver(ctx.layout, ctx.addrCfg);
        drive(ctx, mode, driver);
        report.records = canonicalRecords(driver.errors());
        report.sos = driver.sosNow().sorted();
        break;
      }
      case Lifeguard::TaintCheck: {
        ButterflyTaintCheck driver(ctx.layout, ctx.taintCfg,
                                   ctx.termination);
        drive(ctx, mode, driver);
        report.records = canonicalRecords(driver.errors());
        report.sos = driver.sosNow().sorted();
        report.resolveFallbacks = driver.resolveFallbacks();
        break;
      }
      case Lifeguard::DefCheck: {
        ButterflyDefCheck driver(ctx.layout, ctx.defCfg);
        drive(ctx, mode, driver);
        report.records = canonicalRecords(driver.errors());
        break;
      }
      case Lifeguard::LockSet: {
        ButterflyLockSet driver(ctx.layout, ctx.lockCfg);
        drive(ctx, mode, driver);
        report.records = canonicalRecords(driver.errors());
        break;
      }
      case Lifeguard::AddrLeak: {
        ButterflyAddrLeak driver(ctx.layout, ctx.leakCfg);
        drive(ctx, mode, driver);
        report.records = canonicalRecords(driver.errors());
        report.sos = driver.sosNow().sorted();
        break;
      }
      case Lifeguard::ReachingDefs: {
        ReachingDefinitions driver(ctx.layout.numThreads());
        drive(ctx, mode, driver);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (EpochId l = 0; l < ctx.layout.numEpochs(); ++l) {
            for (DefId d : driver.sos(l).sorted())
                fnv(h, d);
            fnv(h, 0x5051);
            for (DefId d : driver.genEpoch(l).sorted())
                fnv(h, d);
            fnv(h, 0x5052);
            for (ThreadId t = 0; t < ctx.layout.numThreads(); ++t) {
                for (DefId d : driver.blockResults(l, t).in.sorted())
                    fnv(h, d);
                fnv(h, 0x5053);
                for (DefId d : driver.blockResults(l, t).out.sorted())
                    fnv(h, d);
                fnv(h, 0x5054);
            }
        }
        report.fingerprint = h;
        break;
      }
    }
    return report;
}

/** ADDRCHECK false positives at epoch size @p global_h (sequential). */
std::size_t
addrFalsePositivesAt(const CaseContext &ctx, std::size_t global_h,
                     const ErrorLog &oracle_log)
{
    const EpochLayout layout =
        EpochLayout::byGlobalSeq(ctx.trace, global_h);
    ButterflyAddrCheck butterfly(layout, ctx.addrCfg);
    WindowSchedule().run(layout, butterfly);
    return compareToOracle(butterfly.errors(), oracle_log,
                           ctx.addrCfg.granularity)
        .falsePositives;
}

/** ADDRLEAK false positives at epoch size @p global_h (sequential). */
std::size_t
leakFalsePositivesAt(const CaseContext &ctx, std::size_t global_h,
                     const ErrorLog &oracle_log)
{
    const EpochLayout layout =
        EpochLayout::byGlobalSeq(ctx.trace, global_h);
    ButterflyAddrLeak butterfly(layout, ctx.leakCfg);
    WindowSchedule().run(layout, butterfly);
    return compareToOracle(butterfly.errors(), oracle_log,
                           ctx.leakCfg.granularity)
        .falsePositives;
}

/**
 * LOCKSET false positives at epoch size @p global_h, counted per flagged
 * *variable* rather than per flagged event: the race is a property of
 * the variable, and shrinking epochs may move the report to a different
 * (earlier) access of the same variable while the set of reported
 * variables provably only shrinks.
 */
std::size_t
lockKeyFalsePositivesAt(const CaseContext &ctx, std::size_t global_h,
                        const ErrorLog &oracle_log)
{
    const EpochLayout layout =
        EpochLayout::byGlobalSeq(ctx.trace, global_h);
    ButterflyLockSet butterfly(layout, ctx.lockCfg);
    WindowSchedule().run(layout, butterfly);

    std::size_t fp = 0;
    for (const ErrorRecord &rec : butterfly.errors().records()) {
        bool real = false;
        for (const ErrorRecord &o : oracle_log.records()) {
            if (o.addr == rec.addr) {
                real = true;
                break;
            }
        }
        if (!real)
            ++fp;
    }
    return fp;
}

} // namespace

const char *
lifeguardName(Lifeguard lg)
{
    return kLifeguardNames[static_cast<unsigned>(lg)];
}

const char *
runModeName(RunMode mode)
{
    return kModeNames[static_cast<unsigned>(mode)];
}

const char *
invariantName(Invariant inv)
{
    return kInvariantNames[static_cast<unsigned>(inv)];
}

std::string
Violation::toString() const
{
    std::string out = std::string(invariantName(invariant)) + " [" +
                      lifeguardName(lifeguard) + "]";
    if (invariant == Invariant::ModeEquivalence)
        out += std::string(" (") + runModeName(mode) + ")";
    if (!detail.empty())
        out += ": " + detail;
    return out;
}

CaseOutcome
DifferentialRunner::run(const FuzzCase &c) const
{
    const FuzzMetrics &metrics = FuzzMetrics::get();
    telemetry::TraceSpan span("fuzz.case");

    CaseOutcome outcome;
    outcome.events = c.totalEvents();

    const Trace trace = [&] {
        telemetry::TraceSpan s("fuzz.materialize");
        return c.materialize();
    }();
    const EpochLayout layout =
        EpochLayout::byGlobalSeq(trace, c.globalH);
    outcome.epochs = layout.numEpochs();

    CaseContext ctx{c,  trace, layout,
                    {}, {},    {},
                    {}, {},
                    TaintTermination::SequentialConsistency};
    ctx.addrCfg.heapBase = c.heapBase;
    ctx.addrCfg.heapLimit = c.heapLimit;
    ctx.defCfg.heapBase = c.heapBase;
    ctx.defCfg.heapLimit = c.heapLimit;
    ctx.lockCfg.heapBase = c.heapBase;
    ctx.lockCfg.heapLimit = c.heapLimit;
    ctx.leakCfg.heapBase = c.heapBase;
    ctx.leakCfg.heapLimit = c.heapLimit;
    if (c.model == MemModel::TSO)
        ctx.termination = TaintTermination::Relaxed;

    Report sequential[std::size(kAllLifeguards)];
    for (Lifeguard lg : kAllLifeguards) {
        telemetry::TraceSpan s("fuzz.lifeguard", "lifeguard",
                               static_cast<std::uint64_t>(lg));
        const auto li = static_cast<std::size_t>(lg);
        sequential[li] = runLifeguard(ctx, lg, RunMode::Sequential);
        if (config_.fault.corrupts(lg, RunMode::Sequential))
            dropKind(sequential[li], config_.fault.dropKind);

        if (config_.checkModeEquivalence) {
            for (RunMode mode : kAllModes) {
                if (mode == RunMode::Sequential)
                    continue;
                Report r = runLifeguard(ctx, lg, mode);
                if (config_.fault.corrupts(lg, mode))
                    dropKind(r, config_.fault.dropKind);
                if (!sameReport(sequential[li], r))
                    outcome.violations.push_back(
                        {Invariant::ModeEquivalence, lg, mode,
                         diffReports(sequential[li], r)});
            }
        }
    }

    outcome.butterflyErrors =
        sequential[static_cast<std::size_t>(Lifeguard::AddrCheck)]
            .records.size();
    outcome.taintFallbacks =
        sequential[static_cast<std::size_t>(Lifeguard::TaintCheck)]
            .resolveFallbacks;

    ErrorLog addrOracleLog;
    ErrorLog lockOracleLog;
    ErrorLog leakOracleLog;
    if (config_.checkOracleSubsumption || config_.checkFpMonotonicity ||
        config_.checkElision) {
        telemetry::TraceSpan s("fuzz.oracles");
        AddrCheckOracle addrOracle(ctx.addrCfg);
        addrOracle.runOnTrace(trace);
        addrOracleLog = addrOracle.errors();
        TaintCheckOracle taintOracle(ctx.taintCfg);
        taintOracle.runOnTrace(trace);
        DefCheckOracle defOracle(ctx.defCfg);
        defOracle.runOnTrace(trace);
        LockSetOracle lockOracle(ctx.lockCfg);
        lockOracle.runOnTrace(trace);
        lockOracleLog = lockOracle.errors();
        AddrLeakOracle leakOracle(ctx.leakCfg);
        leakOracle.runOnTrace(trace);
        leakOracleLog = leakOracle.errors();
        outcome.oracleErrors = addrOracleLog.size() +
                               taintOracle.errors().size() +
                               defOracle.errors().size() +
                               lockOracleLog.size() +
                               leakOracleLog.size();

        const struct
        {
            Lifeguard lg;
            const ErrorLog &oracle;
            unsigned granularity;
        } pairs[] = {
            {Lifeguard::AddrCheck, addrOracleLog,
             ctx.addrCfg.granularity},
            {Lifeguard::TaintCheck, taintOracle.errors(),
             ctx.taintCfg.granularity},
            {Lifeguard::DefCheck, defOracle.errors(),
             ctx.defCfg.granularity},
            {Lifeguard::LockSet, lockOracleLog,
             ctx.lockCfg.granularity},
            {Lifeguard::AddrLeak, leakOracleLog,
             ctx.leakCfg.granularity},
        };
        for (const auto &p : pairs) {
            const auto li = static_cast<std::size_t>(p.lg);
            const ErrorLog monitored = logOf(sequential[li].records);
            const AccuracyReport acc =
                compareToOracle(monitored, p.oracle, p.granularity);
            if (p.lg == Lifeguard::AddrCheck)
                outcome.falsePositives = acc.falsePositives;
            if (config_.checkOracleSubsumption &&
                acc.falseNegatives != 0) {
                std::ostringstream os;
                os << acc.falseNegatives << " of " << p.oracle.size()
                   << " oracle errors missed";
                outcome.violations.push_back({Invariant::OracleSubsumption,
                                              p.lg, RunMode::Sequential,
                                              os.str()});
            }
        }

        // Elision axis: classify deterministic pseudo-sites, elide, and
        // prove the elided run still misses nothing the full-trace
        // oracle flags. The oracle always replays the *unelided* trace,
        // so every clean case is a per-case zero-FN certificate.
        if (config_.checkElision) {
            telemetry::TraceSpan es("fuzz.elision");
            Trace stamped = trace;
            staticpass::SiteTable sites;
            staticpass::ClassifyOptions copt;
            copt.heapBase = c.heapBase;
            copt.heapLimit = c.heapLimit;
            const staticpass::ElisionPlan plan =
                staticpass::buildElisionPlan(stamped, sites, copt);
            staticpass::ElisionStats estats;
            const Trace elided =
                staticpass::applyElisionPlan(stamped, plan, &estats);
            outcome.elidedEvents = estats.elidedEvents;
            outcome.summaryEvents = estats.summaryEvents;

            const EpochLayout elayout =
                EpochLayout::byGlobalSeq(elided, c.globalH);
            CaseContext ectx{c,           elided,      elayout,
                             ctx.addrCfg, ctx.taintCfg, ctx.defCfg,
                             ctx.lockCfg, ctx.leakCfg,  ctx.termination};
            for (const auto &p : pairs) {
                Report r =
                    runLifeguard(ectx, p.lg, RunMode::Sequential);
                if (config_.fault.corrupts(p.lg, RunMode::Sequential))
                    dropKind(r, config_.fault.dropKind);
                const AccuracyReport acc = compareToOracle(
                    logOf(r.records), p.oracle, p.granularity);
                if (acc.falseNegatives != 0) {
                    std::ostringstream os;
                    os << acc.falseNegatives << " of " << p.oracle.size()
                       << " oracle errors missed after eliding "
                       << estats.elidedEvents << " events";
                    outcome.violations.push_back(
                        {Invariant::ElisionSoundness, p.lg,
                         RunMode::Sequential, os.str()});
                }
            }
        }
    }

    if (config_.checkFpMonotonicity && config_.monotonicityFactor > 1) {
        telemetry::TraceSpan s("fuzz.monotonicity");
        const std::size_t large_h = c.globalH * config_.monotonicityFactor;
        const struct
        {
            Lifeguard lg;
            std::size_t fpSmall;
            std::size_t fpLarge;
        } mono[] = {
            {Lifeguard::AddrCheck,
             addrFalsePositivesAt(ctx, c.globalH, addrOracleLog),
             addrFalsePositivesAt(ctx, large_h, addrOracleLog)},
            {Lifeguard::LockSet,
             lockKeyFalsePositivesAt(ctx, c.globalH, lockOracleLog),
             lockKeyFalsePositivesAt(ctx, large_h, lockOracleLog)},
            {Lifeguard::AddrLeak,
             leakFalsePositivesAt(ctx, c.globalH, leakOracleLog),
             leakFalsePositivesAt(ctx, large_h, leakOracleLog)},
        };
        for (const auto &m : mono) {
            if (m.fpSmall > m.fpLarge) {
                std::ostringstream os;
                os << "FP(H=" << c.globalH << ")=" << m.fpSmall
                   << " > FP(H=" << large_h << ")=" << m.fpLarge;
                outcome.violations.push_back({Invariant::FpMonotonicity,
                                              m.lg, RunMode::Sequential,
                                              os.str()});
            }
        }
    }

    auto &reg = telemetry::registry();
    reg.add(metrics.cases, 1);
    reg.add(metrics.events, outcome.events);
    reg.add(metrics.violations, outcome.violations.size());
    return outcome;
}

} // namespace bfly::fuzz
