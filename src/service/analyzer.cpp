#include "service/analyzer.hpp"

#include <algorithm>
#include <tuple>

#include "butterfly/reaching_defs.hpp"
#include "butterfly/window.hpp"
#include "lifeguards/addrcheck.hpp"
#include "lifeguards/addrleak.hpp"
#include "lifeguards/defcheck.hpp"
#include "lifeguards/lockset.hpp"
#include "lifeguards/taintcheck.hpp"

namespace bfly::service {

namespace {

const char *const kLifeguardNames[] = {"ADDRCHECK",     "TAINTCHECK",
                                       "DEFINEDCHECK",  "REACHING-DEFS",
                                       "LOCKSET",       "ADDRLEAK"};

void
fnv(std::uint64_t &h, std::uint64_t v)
{
    h ^= v;
    h *= 0x100000001b3ull;
}

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

/** Fold the canonical observables into the report's fingerprint, so a
 *  single u64 in the Summary frame already witnesses the full report
 *  (records and SOS are also streamed and compared field-by-field). */
void
fingerprintObservables(RemoteReport &report)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const ErrorRecord &r : report.records) {
        fnv(h, r.tid);
        fnv(h, r.index);
        fnv(h, r.addr);
        fnv(h, static_cast<std::uint64_t>(r.kind));
        fnv(h, r.size);
    }
    fnv(h, 0x5050);
    for (Addr a : report.sos)
        fnv(h, a);
    fnv(h, report.fingerprint); // dataflow component (reaching defs)
    report.fingerprint = h;
}

/**
 * Construct the requested lifeguard, run @p drive over it, and collect
 * the canonical report. @p drive receives the driver and returns the
 * streaming peak-residency (0 for materialized runs).
 */
template <typename DriveFn>
RemoteReport
runLifeguard(const SessionSpec &spec, std::size_t num_threads,
             std::size_t num_epochs, DriveFn &&drive)
{
    RemoteReport report;
    report.epochs = num_epochs;

    switch (static_cast<Lifeguard>(spec.lifeguard)) {
      case Lifeguard::AddrCheck: {
        AddrCheckConfig cfg;
        cfg.granularity = spec.granularity;
        cfg.heapBase = spec.heapBase;
        cfg.heapLimit = spec.heapLimit;
        ButterflyAddrCheck driver(num_threads, cfg);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        report.sos = driver.sosNow().sorted();
        break;
      }
      case Lifeguard::TaintCheck: {
        TaintCheckConfig cfg;
        cfg.granularity = spec.granularity;
        const TaintTermination termination =
            spec.memModel == 1 ? TaintTermination::Relaxed
                               : TaintTermination::SequentialConsistency;
        ButterflyTaintCheck driver(num_threads, cfg, termination);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        report.sos = driver.sosNow().sorted();
        break;
      }
      case Lifeguard::DefCheck: {
        DefCheckConfig cfg;
        cfg.granularity = spec.granularity;
        cfg.heapBase = spec.heapBase;
        cfg.heapLimit = spec.heapLimit;
        ButterflyDefCheck driver(num_threads, cfg);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        break;
      }
      case Lifeguard::LockSet: {
        LockSetConfig cfg;
        cfg.granularity = spec.granularity;
        cfg.heapBase = spec.heapBase;
        cfg.heapLimit = spec.heapLimit;
        ButterflyLockSet driver(num_threads, cfg);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        break;
      }
      case Lifeguard::AddrLeak: {
        AddrLeakConfig cfg;
        cfg.granularity = spec.granularity;
        cfg.heapBase = spec.heapBase;
        cfg.heapLimit = spec.heapLimit;
        ButterflyAddrLeak driver(num_threads, cfg);
        report.peakResidentEpochs = drive(driver);
        report.records = canonicalRecords(driver.errors());
        report.sos = driver.sosNow().sorted();
        break;
      }
      case Lifeguard::ReachingDefs: {
        ReachingDefinitions driver(num_threads);
        report.peakResidentEpochs = drive(driver);
        std::uint64_t h = 0xcbf29ce484222325ull;
        for (EpochId l = 0; l < num_epochs; ++l) {
            for (DefId d : driver.sos(l).sorted())
                fnv(h, d);
            fnv(h, 0x5051);
            for (DefId d : driver.genEpoch(l).sorted())
                fnv(h, d);
            fnv(h, 0x5052);
            for (ThreadId t = 0; t < num_threads; ++t) {
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
    fingerprintObservables(report);
    return report;
}

} // namespace

const char *
lifeguardName(Lifeguard lg)
{
    return kLifeguardNames[static_cast<unsigned>(lg)];
}

bool
RemoteReport::identical(const RemoteReport &other) const
{
    if (records.size() != other.records.size() || sos != other.sos ||
        fingerprint != other.fingerprint || epochs != other.epochs ||
        events != other.events)
        return false;
    for (std::size_t i = 0; i < records.size(); ++i) {
        const ErrorRecord &a = records[i];
        const ErrorRecord &b = other.records[i];
        if (a.tid != b.tid || a.index != b.index || a.addr != b.addr ||
            a.kind != b.kind || a.size != b.size)
            return false;
    }
    return true;
}

RemoteReport
analyzeStreaming(const SessionSpec &spec, const Trace &trace,
                 WorkerPool &pool,
                 const EpochStream::ReslicePolicy &reslice,
                 std::vector<std::uint32_t> *realized_spans)
{
    EpochStream::Config cfg;
    cfg.windowEpochs = spec.windowEpochs;
    cfg.fromHeartbeats = true;
    cfg.reslice = reslice;
    EpochStream stream(trace, cfg);
    if (realized_spans)
        *realized_spans = stream.realizedSpans();

    RemoteReport report = runLifeguard(
        spec, trace.numThreads(), stream.numEpochs(),
        [&](AnalysisDriver &driver) {
            const PipelineStats stats =
                WindowSchedule(&pool).runPipelined(stream, driver);
            return stats.peakResidentEpochs;
        });
    report.events = trace.instructionCount();
    return report;
}

RemoteReport
analyzeReference(const SessionSpec &spec, const Trace &trace,
                 const EpochLayout &layout)
{
    RemoteReport report = runLifeguard(
        spec, layout.numThreads(), layout.numEpochs(),
        [&](AnalysisDriver &driver) {
            WindowSchedule().run(layout, driver);
            return std::size_t{0};
        });
    report.events = trace.instructionCount();
    return report;
}

} // namespace bfly::service
