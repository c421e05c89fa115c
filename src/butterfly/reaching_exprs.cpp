#include "butterfly/reaching_exprs.hpp"

#include "common/logging.hpp"

namespace bfly {

ReachingExpressions::ReachingExpressions(std::size_t num_threads,
                                         ExprExtractor effects)
    : numThreads_(num_threads), effects_(std::move(effects))
{
    sos_.resize(2); // SOS_0 = SOS_1 = empty
}

const ReachingExpressions::BlockPrivate &
ReachingExpressions::priv(EpochId l, ThreadId t) const
{
    ensure(l < blocks_.size() && t < blocks_[l].size(),
           "block results not yet computed");
    return blocks_[l][t];
}

ReachingExpressions::BlockPrivate &
ReachingExpressions::priv(EpochId l, ThreadId t)
{
    if (blocks_.size() <= l)
        blocks_.resize(l + 1);
    if (blocks_[l].size() < numThreads_)
        blocks_[l].resize(numThreads_);
    return blocks_[l][t];
}

void
ReachingExpressions::beginPass(EpochId l, bool second)
{
    // Size the per-epoch block storage once per pass, before its blocks
    // run, rather than on each block's first touch.
    (void)second;
    if (blocks_.size() <= l)
        blocks_.resize(l + 1);
    if (blocks_[l].size() < numThreads_)
        blocks_[l].resize(numThreads_);
}

ExprSet
ReachingExpressions::computeLsos(EpochId l, ThreadId t) const
{
    // LSOS_{l,t} = (GEN_{l-1,t} - U_{t'!=t} KILL_{l-2,t'})
    //              U (SOS_l - KILL_{l-1,t})
    ensure(l < sos_.size(), "SOS not available for requested epoch");
    if (l == 0)
        return {};

    const BlockResults &head = priv(l - 1, t).res;
    ExprSet lsos = head.gen;
    if (l >= 2) {
        for (ThreadId u = 0; u < numThreads_ && !lsos.empty(); ++u) {
            if (u != t)
                lsos.subtract(priv(l - 2, u).res.kill);
        }
    }
    ExprSet carried = sos_[l];
    carried.subtract(head.kill);
    lsos.unionWith(carried);
    return lsos;
}

void
ReachingExpressions::pass1(const BlockView &block)
{
    BlockPrivate &bp = priv(block.epoch, block.thread);
    bp.res = BlockResults{};
    bp.effects.clear();

    // Sequential GEN/KILL over the block: an expression is generated
    // (killed) at block end if its last effect in the block is a gen
    // (kill), so GEN and KILL stay disjoint. KILL-SIDE-OUT accumulates
    // every kill regardless of position.
    ExprSet &gen = bp.res.gen;
    ExprSet &kill = bp.res.kill;
    for (InstrOffset i = 0; i < block.size(); ++i) {
        const std::optional<ExprEffect> eff = effects_(block.events[i]);
        if (!eff)
            continue;
        const KeyRun &r = eff->run;
        if (eff->gen) {
            gen.insert(r.lo, r.hi);
            kill.erase(r.lo, r.hi);
        } else {
            kill.insert(r.lo, r.hi);
            gen.erase(r.lo, r.hi);
            bp.res.killSideOut.insert(r.lo, r.hi);
        }
        bp.effects.push_back(OffsetEffect{i, *eff});
    }

    bp.res.lsos = computeLsos(block.epoch, block.thread);
}

void
ReachingExpressions::pass2(const BlockView &block)
{
    const EpochId l = block.epoch;
    const ThreadId t = block.thread;
    BlockPrivate &bp = priv(l, t);

    // Meet: KILL-SIDE-IN = union of wing KILL-SIDE-OUTs (epochs l-1..l+1).
    ExprSet side_in;
    const EpochId lo = l >= 1 ? l - 1 : 0;
    for (EpochId w = lo; w <= l + 1 && w < blocks_.size(); ++w) {
        for (ThreadId u = 0; u < numThreads_; ++u) {
            if (u != t && u < blocks_[w].size())
                side_in.unionWith(blocks_[w][u].res.killSideOut);
        }
    }
    bp.res.killSideIn = std::move(side_in);

    // IN = LSOS - KILL-SIDE-IN.
    bp.res.in = bp.res.lsos;
    bp.res.in.subtract(bp.res.killSideIn);
}

void
ReachingExpressions::finalizeEpoch(EpochId l)
{
    if (killEpoch_.size() <= l) {
        killEpoch_.resize(l + 1);
        genEpoch_.resize(l + 1);
    }

    // KILL_l = U_t KILL_{l,t}
    ExprSet kill;
    for (ThreadId t = 0; t < numThreads_; ++t)
        kill.unionWith(priv(l, t).res.kill);
    killEpoch_[l] = std::move(kill);

    // GEN_l: generated at the end of some block (l, t), and every other
    // thread u generates-or-never-kills it across epochs l-1..l. Per
    // expression, u rules it out exactly when u kills it in epoch l, or
    // kills it in epoch l-1 without generating it again in epoch l (a
    // block's GEN and KILL are disjoint):
    //   BLOCKED_u = KILL_{l,u} U (KILL_{l-1,u} - GEN_{l,u})
    //   GEN_l     = U_t (GEN_{l,t} - U_{u!=t} BLOCKED_u)
    std::vector<ExprSet> blocked(numThreads_);
    for (ThreadId u = 0; u < numThreads_; ++u) {
        const BlockResults &cur = priv(l, u).res;
        if (l >= 1) {
            blocked[u] = priv(l - 1, u).res.kill;
            blocked[u].subtract(cur.gen);
        }
        blocked[u].unionWith(cur.kill);
    }
    ExprSet gen_epoch;
    for (ThreadId t = 0; t < numThreads_; ++t) {
        ExprSet gen = priv(l, t).res.gen;
        for (ThreadId u = 0; u < numThreads_ && !gen.empty(); ++u) {
            if (u != t)
                gen.subtract(blocked[u]);
        }
        gen_epoch.unionWith(gen);
    }
    genEpoch_[l] = std::move(gen_epoch);

    // SOS_{l+2} = GEN_l U (SOS_{l+1} - KILL_l).
    ensure(sos_.size() >= l + 2, "SOS pipeline out of order");
    if (sos_.size() == l + 2)
        sos_.resize(l + 3);
    ExprSet next = sos_[l + 1];
    next.subtract(killEpoch_[l]);
    next.unionWith(genEpoch_[l]);
    sos_[l + 2] = std::move(next);
}

const ExprSet &
ReachingExpressions::sos(EpochId l) const
{
    ensure(l < sos_.size(), "SOS not computed for epoch");
    return sos_[l];
}

const ReachingExpressions::BlockResults &
ReachingExpressions::blockResults(EpochId l, ThreadId t) const
{
    return priv(l, t).res;
}

const ExprSet &
ReachingExpressions::genEpoch(EpochId l) const
{
    ensure(l < genEpoch_.size(), "epoch not finalized");
    return genEpoch_[l];
}

const ExprSet &
ReachingExpressions::killEpoch(EpochId l) const
{
    ensure(l < killEpoch_.size(), "epoch not finalized");
    return killEpoch_[l];
}

ReachingExpressions::InWalk::InWalk(const ReachingExpressions &exprs,
                                    EpochId l, ThreadId t)
    : block_(exprs.priv(l, t))
{}

bool
ReachingExpressions::InWalk::allIn(InstrOffset i, const KeyRun &r)
{
    // Apply the block's own effects before instruction i: the check of
    // an instruction sees the state before its own effect.
    for (; next_ < block_.effects.size() &&
           block_.effects[next_].offset < i;
         ++next_) {
        const ExprEffect &eff = block_.effects[next_].effect;
        const KeyRun &e = eff.run;
        (eff.gen ? gen_ : kill_).insert(e.lo, e.hi);
        (eff.gen ? kill_ : gen_).erase(e.lo, e.hi);
        cached_ = false;
    }
    for (ExprId p = r.lo;;) {
        if (!cached_ || p < runLo_ || p > runHi_)
            locate(p);
        if (!runIn_)
            return false;
        if (runHi_ >= r.hi)
            return true;
        p = runHi_ + 1;
    }
}

void
ReachingExpressions::InWalk::locate(ExprId p)
{
    // e in IN_{l,t,i} iff it is not killed by a wing and either the walk
    // generated it or the walk did not kill it and it is in LSOS_{l,t}:
    //   (gen || (!kill && LSOS)) && !KILL-SIDE-IN
    //   = (gen && !KILL-SIDE-IN) || (!kill && IN_{l,t})
    // Every set is consulted: each bounds the run.
    ExprId lo = 0;
    ExprId hi = ~ExprId{0};
    const bool gen = gen_.runAt(p, lo, hi);
    const bool kill = kill_.runAt(p, lo, hi);
    const bool in = block_.res.in.runAt(p, lo, hi);
    const bool side_killed = block_.res.killSideIn.runAt(p, lo, hi);
    runIn_ = (gen && !side_killed) || (!kill && in);
    runLo_ = lo;
    runHi_ = hi;
    cached_ = true;
}

} // namespace bfly
