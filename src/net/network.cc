#include "net/network.hh"

#include <algorithm>
#include <cassert>
#include <iomanip>
#include <limits>
#include <ostream>
#include <string>

#include "obs/tracer.hh"
#include "sim/error.hh"

namespace cedar::net
{

namespace
{

void
checkCluster(sim::ClusterId cluster, unsigned n_clusters)
{
    if (cluster < 0 || static_cast<unsigned>(cluster) >= n_clusters)
        throw sim::SimError("network: cluster " +
                            std::to_string(cluster) +
                            " out of range (network has " +
                            std::to_string(n_clusters) + ")");
}

obs::ResourceClass
classOfBank(FastBank bank)
{
    switch (bank) {
    case FastBank::stage1:
        return obs::ResourceClass::stage1_port;
    case FastBank::stage2:
        return obs::ResourceClass::stage2_port;
    case FastBank::returnA:
        return obs::ResourceClass::return_a_port;
    case FastBank::returnB:
        return obs::ResourceClass::return_b_port;
    case FastBank::module:
    default:
        return obs::ResourceClass::memory_module;
    }
}

FastBank
bankOfClass(obs::ResourceClass cls)
{
    switch (cls) {
    case obs::ResourceClass::stage1_port:
        return FastBank::stage1;
    case obs::ResourceClass::stage2_port:
        return FastBank::stage2;
    case obs::ResourceClass::return_a_port:
        return FastBank::returnA;
    case obs::ResourceClass::return_b_port:
        return FastBank::returnB;
    case obs::ResourceClass::memory_module:
    default:
        return FastBank::module;
    }
}

} // namespace

Network::Network(unsigned n_clusters, unsigned ces_per_cluster,
                 mem::GlobalMemory &gmem)
    : nClusters_(n_clusters), cesPerCluster_(ces_per_cluster),
      gmem_(gmem), cache_(gmem.map())
{
    if (n_clusters == 0 || ces_per_cluster == 0)
        throw sim::ConfigError(
            "network: needs at least one cluster and one CE per "
            "cluster");
    const unsigned groups = gmem.map().numGroups();
    for (unsigned c = 0; c < n_clusters; ++c) {
        stage1_.emplace_back("stage1.cluster" + std::to_string(c), groups);
        returnB_.emplace_back("returnB.cluster" + std::to_string(c),
                              ces_per_cluster);
    }
    for (unsigned g = 0; g < groups; ++g) {
        stage2In_.emplace_back("stage2.group" + std::to_string(g),
                               n_clusters);
        returnA_.emplace_back("returnA.group" + std::to_string(g),
                              n_clusters);
    }
}

void
Network::noteWait(obs::ResourceClass cls, std::int32_t res,
                  sim::Tick arrival, sim::Tick free_at)
{
    if (tracer_)
        tracer_->resourceWait(cls, res, arrival,
                              free_at > arrival ? free_at - arrival : 0);
}

sim::Tick
Network::forwardPath(sim::Tick when, sim::ClusterId cluster, unsigned group,
                     unsigned len, std::uint32_t flow)
{
    // Latency compositions saturate instead of wrapping; a saturated
    // arrival makes serve() throw its overflow error, which is the
    // behaviour the reservation layer already defines at the ceiling.
    const auto groups = static_cast<unsigned>(stage2In_.size());
    auto &p1 = stage1_[cluster].port(group);
    const sim::Tick a1 = sim::satAdd(when, hop_latency);
    noteWait(obs::ResourceClass::stage1_port,
             static_cast<std::int32_t>(cluster * groups + group), a1,
             p1.freeAt());
    const sim::Tick t1 = p1.serve(a1, len);
    if (tracer_)
        tracer_->flowStage(
            flow, obs::FlowStage::stage1, t1,
            static_cast<std::int32_t>(cluster * groups + group), len);

    auto &p2 = stage2In_[group].port(cluster);
    const sim::Tick a2 = sim::satAdd(t1, hop_latency);
    noteWait(obs::ResourceClass::stage2_port,
             static_cast<std::int32_t>(group * nClusters_ + cluster),
             a2, p2.freeAt());
    const sim::Tick t2 = p2.serve(a2, len);
    if (tracer_)
        tracer_->flowStage(
            flow, obs::FlowStage::stage2, t2,
            static_cast<std::int32_t>(group * nClusters_ + cluster), len);
    return t2;
}

sim::Tick
Network::returnPath(sim::Tick when, sim::ClusterId cluster, int ce_port,
                    unsigned group, unsigned len, std::uint32_t flow)
{
    auto &pa = returnA_[group].port(cluster);
    const sim::Tick a3 = sim::satAdd(when, hop_latency);
    noteWait(obs::ResourceClass::return_a_port,
             static_cast<std::int32_t>(group * nClusters_ + cluster),
             a3, pa.freeAt());
    const sim::Tick t3 = pa.serve(a3, len);

    auto &pb = returnB_[cluster].port(ce_port);
    const sim::Tick a4 = sim::satAdd(t3, hop_latency);
    noteWait(obs::ResourceClass::return_b_port,
             static_cast<std::int32_t>(cluster * cesPerCluster_ +
                                       static_cast<unsigned>(ce_port)),
             a4, pb.freeAt());
    const sim::Tick t4 = pb.serve(a4, len);
    if (tracer_)
        tracer_->flowStage(
            flow, obs::FlowStage::ret, t4,
            static_cast<std::int32_t>(cluster * cesPerCluster_ +
                                      static_cast<unsigned>(ce_port)),
            len);
    return sim::satAdd(t4, hop_latency);
}

XferResult
Network::chunkAccess(sim::Tick when, sim::ClusterId cluster, int ce_port,
                     const mem::Chunk &chunk, std::uint32_t flow)
{
    checkCluster(cluster, nClusters_);
    assert(chunk.len >= 1 && chunk.len <= gmem_.map().groupSize());

    const unsigned group = gmem_.map().group(chunk.addr);
    const sim::Tick t2 = forwardPath(when, cluster, group, chunk.len, flow);
    const auto mem =
        gmem_.accessChunk(sim::satAdd(t2, hop_latency), chunk, flow);

    XferResult res;
    res.unloaded = unloadedLatency(chunk.len, false);
    if (mem.complete == sim::max_tick) {
        // A dead module never responds; there is no return traffic.
        res.complete = sim::max_tick;
        return res;
    }
    res.complete = returnPath(mem.complete, cluster, ce_port, group,
                              chunk.len, flow);
    return res;
}

XferResult
Network::burst(sim::Tick start, sim::ClusterId cluster, int ce_port,
               sim::Addr addr, unsigned words, std::uint32_t flow)
{
    checkCluster(cluster, nClusters_);

    if (fastEligible(flow)) {
        FastMissCtx miss;
        sim::Tick rel = 0;
        unsigned last = 0;
        if (fastReplay(start, cluster, ce_port, gmem_.map().module(addr),
                       words, /*is_rmw=*/false, miss, rel, last)) {
            ++fastStats_.fastBursts;
            XferResult out;
            out.complete = start + rel;
            out.unloaded = words + unloadedLatency(last, false);
            return out;
        }
        ++fastStats_.slowBursts;
        return slowBurstEligible(start, cluster, ce_port, addr, words,
                                 miss);
    }
    ++fastStats_.slowBursts;

    sim::Tick issue = start;
    sim::Tick complete = start;
    sim::Tick unloaded_last = 0;
    unsigned issued = 0;
    gmem_.map().forEachChunk(addr, words, [&](const mem::Chunk &chunk) {
        const auto res = chunkAccess(issue, cluster, ce_port, chunk, flow);
        complete = std::max(complete, res.complete);
        unloaded_last = res.unloaded;
        issued += chunk.len;
        // The CE issues the stream pipelined at one word per cycle.
        issue = sim::satAdd(start, issued);
    });

    XferResult res;
    res.complete = complete;
    // Zero-contention duration of the same stream: pipeline fill of
    // all but the last chunk, plus the last chunk's full latency.
    res.unloaded = (issue - start) + unloaded_last;
    return res;
}

XferResult
Network::slowBurstEligible(sim::Tick start, sim::ClusterId cluster,
                           int ce_port, sim::Addr addr, unsigned words,
                           const FastMissCtx &miss)
{
    // fastEligible() held for this access: flow == 0 (no milestone
    // subscriber, so every flowStage call would be a no-op) and the
    // telemetry route is either "publish nothing" (no tracer) or
    // "the MetricsHub absorbs every resource_wait" — resolve it to
    // one pointer instead of re-deciding per serve. The serves below
    // are chunkAccess/forwardPath/returnPath flattened statement for
    // statement; the bit-identity tests hold this loop to the
    // generic one.
    obs::MetricsHub *hub = tracer_ != nullptr ? hub_ : nullptr;
    const bool rec = miss.record;

    if (rec) {
        snapshotServers(miss);
        waitScratch_.clear();
    }

    // Family validity tracking (§10.2): while the recorded run
    // executes, collect per bank the one-sided constraint constant
    // c_b — for a shift-keyed bank the worst arrival-minus-horizon
    // over its serves, for a passive bank the worst canonical offset
    // minus first-arrival over its servers. c_b <= 0 leaves the bank
    // a one-sided slack; c_b > 0 restricts it to its exact recorded
    // shift (see ParamPattern::cmin).
    const ShapeInfo *shp = miss.sh;
    const bool recParam = rec && miss.paramRecord;
    std::array<std::int64_t, fast_bank_count> cmin;
    if (recParam) {
        cmin.fill(std::numeric_limits<std::int64_t>::min());
        seenScratch_.assign(shp->servers.size(), 0);
    }
    const auto track = [&](unsigned b, std::size_t j, sim::Tick arrival,
                           sim::Tick free_at) {
        if ((miss.paramMask >> b) & 1u) {
            const std::int64_t c = static_cast<std::int64_t>(arrival) -
                                   static_cast<std::int64_t>(free_at);
            if (c > cmin[b])
                cmin[b] = c;
        } else if (seenScratch_[j] == 0) {
            seenScratch_[j] = 1;
            const std::int64_t c =
                static_cast<std::int64_t>(offsetScratch_[j]) -
                static_cast<std::int64_t>(arrival - start);
            if (c > cmin[b])
                cmin[b] = c;
        }
    };

    const mem::AddressMap &map = gmem_.map();
    Crossbar &s1row = stage1_[cluster];
    Crossbar &rbrow = returnB_[cluster];

    sim::Tick issue = start;
    sim::Tick complete = start;
    unsigned issued = 0;
    unsigned last_len = 0;

    const auto note = [&](obs::ResourceClass cls, sim::Tick arrival,
                          sim::Tick free_at) {
        const sim::Tick w = free_at > arrival ? free_at - arrival : 0;
        if (hub != nullptr)
            hub->recordWaits(cls, w, 1);
        if (rec)
            waitScratch_.emplace_back(cls, w);
    };

    map.forEachChunk(addr, words, [&](const mem::Chunk &chunk) {
        const unsigned group = map.group(chunk.addr);
        const std::uint32_t grank =
            recParam ? shp->groupRank[group] : 0;

        auto &p1 = s1row.port(group);
        const sim::Tick a1 = sim::satAdd(issue, hop_latency);
        const sim::Tick f1 = p1.freeAt();
        note(obs::ResourceClass::stage1_port, a1, f1);
        if (recParam)
            track(0, shp->bankBegin[0] + grank, a1, f1);
        const sim::Tick t1 = p1.serve(a1, chunk.len);

        auto &p2 = stage2In_[group].port(cluster);
        const sim::Tick a2 = sim::satAdd(t1, hop_latency);
        const sim::Tick f2 = p2.freeAt();
        note(obs::ResourceClass::stage2_port, a2, f2);
        if (recParam)
            track(1, shp->bankBegin[1] + grank, a2, f2);
        const sim::Tick t2 = p2.serve(a2, chunk.len);

        // No fault plan touches the memory on this path (another
        // fastEligible condition), so each word's service effect is
        // exactly word_service with no floor.
        const sim::Tick marr = sim::satAdd(t2, hop_latency);
        sim::Tick memdone = 0;
        for (unsigned i = 0; i < chunk.len; ++i) {
            const unsigned m = map.module(chunk.addr + i);
            sim::FifoServer &ms = gmem_.moduleServerMut(m);
            const sim::Tick fm = ms.freeAt();
            note(obs::ResourceClass::memory_module, marr, fm);
            if (recParam)
                track(4, shp->bankBegin[4] + shp->moduleRank[m], marr,
                      fm);
            memdone = std::max(
                memdone,
                ms.serve(marr, mem::GlobalMemory::word_service));
        }

        auto &pa = returnA_[group].port(cluster);
        const sim::Tick a3 = sim::satAdd(memdone, hop_latency);
        const sim::Tick f3 = pa.freeAt();
        note(obs::ResourceClass::return_a_port, a3, f3);
        if (recParam)
            track(2, shp->bankBegin[2] + grank, a3, f3);
        const sim::Tick t3 = pa.serve(a3, chunk.len);

        auto &pb = rbrow.port(ce_port);
        const sim::Tick a4 = sim::satAdd(t3, hop_latency);
        const sim::Tick f4 = pb.freeAt();
        note(obs::ResourceClass::return_b_port, a4, f4);
        if (recParam)
            track(3, shp->bankBegin[3], a4, f4);
        const sim::Tick t4 = pb.serve(a4, chunk.len);

        complete = std::max(complete, sim::satAdd(t4, hop_latency));
        last_len = chunk.len;
        issued += chunk.len;
        // The CE issues the stream pipelined at one word per cycle.
        issue = sim::satAdd(start, issued);
    });

    XferResult res;
    res.complete = complete;
    res.unloaded = (issue - start) + unloadedLatency(last_len, false);

    // Second sighting: file the run's outcome. The deltas recorded
    // here are, by the fast path's translation invariance, exactly
    // what a scratch replay at start = 0 would compute — without
    // paying that second full serve sequence. A family variant
    // subsumes the exact pattern when the store keeps it (score =
    // number of exact-shift-only banks; a full family only trades up
    // toward fully general variants); otherwise fall back to the
    // exact vector if it earned recording itself. Skip only the
    // degenerate saturated case, where "complete - start" is no
    // longer translation invariant.
    if (rec && complete != sim::max_tick) {
        bool storeAsParam = false;
        std::uint8_t non_rigid = 0;
        if (recParam) {
            for (unsigned b = 0; b < fast_bank_count; ++b)
                if (shp->bankCount[b] != 0 && cmin[b] > 0)
                    ++non_rigid;
            storeAsParam = cache_.wouldAcceptParam(*shp, paramScratch_,
                                                   paramHash_, non_rigid);
        }
        if (storeAsParam) {
            ParamPattern pp;
            pp.pat = diffPattern(miss, start, complete - start,
                                 last_len);
            pp.mask = miss.paramMask;
            pp.nonRigid = non_rigid;
            pp.base = paramBase_;
            pp.cmin = cmin;
            cache_.storeParam(*miss.sh, paramScratch_, paramHash_,
                              std::move(pp));
        } else if (miss.exactRecord) {
            cache_.store(*miss.sh, offsetScratch_, offsetHash_,
                         diffPattern(miss, start, complete - start,
                                     last_len));
        }
    }
    return res;
}

void
Network::snapshotServers(const FastMissCtx &miss)
{
    snapScratch_.clear();
#ifndef NDEBUG
    debugSnap_.clear();
#endif
    for (const sim::FifoServer *s : *miss.servers) {
        const auto &st = s->stats();
        snapScratch_.push_back(st.waitTicks());
#ifndef NDEBUG
        debugSnap_.push_back({st.requests(), st.busyTicks()});
#endif
    }
}

BurstPattern
Network::diffPattern(const FastMissCtx &miss, sim::Tick start,
                     sim::Tick rel_complete, unsigned last_len)
{
    const ShapeInfo &sh = *miss.sh;
    BurstPattern p;
    p.relComplete = rel_complete;
    p.lastLen = last_len;
    p.servers.reserve(sh.servers.size());
    for (std::size_t j = 0; j < sh.servers.size(); ++j) {
        const sim::FifoServer &s = *(*miss.servers)[j];
        const auto &st = s.stats();
        // Serve counts and service ticks are the shape's, whatever
        // the offsets (tests/test_fastpath.cc checks the same in
        // every build).
        assert(st.requests() - debugSnap_[j][0] == sh.requests[j]);
        assert(st.busyTicks() - debugSnap_[j][1] == sh.busy[j]);
        // Every touched server served at least once at an arrival
        // past start, so its horizon sits beyond it.
        p.servers.push_back(
            PatternServer{st.waitTicks() - snapScratch_[j],
                          s.freeAt() - start});
    }

    // Condense the captured per-serve waits by (class, value). The
    // list order is irrelevant for bit-identity: histogram bucket
    // counts and per-class wait sums are commutative.
    waitCondenser_.condense(waitScratch_, p.waits);
    return p;
}

bool
Network::fastEligible(std::uint32_t flow) const
{
    // The pattern replay is only legal when (a) the toggle is on,
    // (b) nobody watches individual flow milestones (a live flow id
    // means a timeline subscriber expects per-stage events), (c) no
    // fault plan touches the memory — fault windows break the
    // translation invariance — and (d) the telemetry this access
    // would publish is exactly "MetricsHub absorbs every
    // resource_wait", which recordWaits reproduces in batch. The
    // memory must publish through the same tracer; otherwise the
    // slow path's module waits would go elsewhere.
    if (!fastPath_ || flow != 0 || gmem_.hasFaults())
        return false;
    if (gmem_.tracerPtr() != tracer_)
        return false;
    if (tracer_ == nullptr)
        return true; // the slow path publishes nothing either
    return hub_ != nullptr &&
           tracer_->bus().soleSubscriber(obs::EventKind::resource_wait) ==
               hub_;
}

sim::FifoServer &
Network::fastServer(FastBank bank, std::uint32_t idx,
                    sim::ClusterId cluster, int ce_port)
{
    switch (bank) {
    case FastBank::stage1:
        return stage1_[cluster].port(idx);
    case FastBank::stage2:
        return stage2In_[idx].port(cluster);
    case FastBank::returnA:
        return returnA_[idx].port(cluster);
    case FastBank::returnB:
        return returnB_[cluster].port(ce_port);
    case FastBank::module:
    default:
        return gmem_.moduleServerMut(idx);
    }
}

const std::vector<sim::FifoServer *> &
Network::resolvedServers(ShapeInfo &sh, sim::ClusterId cluster,
                         int ce_port)
{
    // An out-of-range port fails here exactly as on the slow path: in
    // the returnB crossbar's bounds-checked port lookup.
    if (ce_port < 0 || static_cast<unsigned>(ce_port) >= cesPerCluster_)
        returnB_[cluster].port(static_cast<unsigned>(ce_port));
    if (sh.resolved.empty())
        sh.resolved.resize(static_cast<std::size_t>(nClusters_) *
                           cesPerCluster_);
    auto &v = sh.resolved[static_cast<std::size_t>(cluster) *
                              cesPerCluster_ +
                          static_cast<unsigned>(ce_port)];
    if (v.empty() && !sh.servers.empty()) {
        v.reserve(sh.servers.size());
        for (const ServerRef &r : sh.servers)
            v.push_back(&fastServer(r.bank, r.idx, cluster, ce_port));
    }
    return v;
}

bool
Network::fastReplay(sim::Tick start, sim::ClusterId cluster, int ce_port,
                    unsigned first_module, unsigned words, bool is_rmw,
                    FastMissCtx &miss, sim::Tick &rel_complete,
                    unsigned &last_len)
{
    ShapeInfo &sh = cache_.shape(first_module, words, is_rmw);
    const auto &srvs = resolvedServers(sh, cluster, ce_port);

    // The replay key: every touched server's free horizon relative
    // to this access's start. An exact match means the pattern's
    // recorded run saw precisely this queue state, so every serve
    // start, wait and updated horizon — including the access's
    // self-queueing — is the recorded one shifted by start.
    //
    // Canonicalization: an offset at or below the server's idle
    // first-arrival tick can never delay a serve or record wait (the
    // request arrives later than the horizon clears), so it is
    // quotiented to zero before keying. Convoy phases at 16/32p
    // produce thousands of vectors differing only in such don't-care
    // entries — e.g. a return-path port whose residual backlog
    // clears long before this access's words come back — and they
    // all collapse onto one canonical pattern, bit-identically.
    offsetScratch_.clear();
    std::uint64_t h = fnv_basis;
    sim::Tick max_off = 0;
    for (std::size_t j = 0; j < srvs.size(); ++j) {
        const sim::Tick f = srvs[j]->freeAt();
        sim::Tick off = f > start ? f - start : 0;
        if (off <= sh.firstArrival[j])
            off = 0;
        offsetScratch_.push_back(off);
        h = fnvStep(h, off);
        max_off = std::max(max_off, off);
    }
    offsetHash_ = h;

    if (const BurstPattern *p = cache_.find(sh, offsetScratch_, h)) {
        // Near the tick ceiling the slow path's overflow throw
        // applies. (The pattern exists, so no re-recording.)
        if (p->relComplete > sim::max_tick - start) {
            miss.sh = &sh;
            miss.servers = &srvs;
            return false;
        }

        const auto &entries = p->servers;
        assert(entries.size() == srvs.size());
        for (std::size_t j = 0; j < entries.size(); ++j)
            srvs[j]->applyBatch(sh.requests[j], entries[j].waitSum,
                                sh.busy[j], start + entries[j].freeAt);

        if (tracer_ != nullptr)
            for (const auto &w : p->waits)
                hub_->recordWaits(w.cls, w.wait, w.count);

        rel_complete = p->relComplete;
        last_len = p->lastLen;
        return true;
    }

    miss.sh = &sh;
    miss.servers = &srvs;

    // Exact miss: try the parametric families (DESIGN.md §10.2).
    // Build the base-subtracted key — a bank whose canonical offsets
    // are all nonzero is shift-keyed (its base becomes a family
    // parameter); any other bank keeps its entries verbatim. The
    // rule is purely structural, so the recording side and every
    // lookup derive identical keys.
    bool paramCandidate = false;
    if (!is_rmw) {
        paramScratch_.clear();
        std::uint64_t ph = fnv_basis;
        std::uint8_t mask = 0;
        for (unsigned b = 0; b < fast_bank_count; ++b) {
            const std::uint32_t begin = sh.bankBegin[b];
            const std::uint32_t n = sh.bankCount[b];
            if (n == 0) {
                paramBase_[b] = 0;
                continue;
            }
            sim::Tick mn = offsetScratch_[begin];
            for (std::uint32_t k = 1; k < n; ++k)
                mn = std::min(mn, offsetScratch_[begin + k]);
            // A stage1 bank below its static rigidity floors cannot
            // shift rigidly (some serve would be arrival-bound), so
            // it stays passive — which for stage1 is unconditionally
            // replayable, since its arrivals never shift.
            bool shiftable = mn > 0;
            if (shiftable &&
                b == static_cast<unsigned>(FastBank::stage1)) {
                for (std::uint32_t k = 0; k < n; ++k)
                    if (offsetScratch_[begin + k] <
                        sh.stage1Floor[begin + k]) {
                        shiftable = false;
                        break;
                    }
            }
            if (shiftable) {
                mask |= static_cast<std::uint8_t>(1u << b);
                paramBase_[b] = mn;
                for (std::uint32_t k = 0; k < n; ++k) {
                    const sim::Tick e = offsetScratch_[begin + k] - mn;
                    paramScratch_.push_back(e);
                    ph = fnvStep(ph, e);
                }
            } else {
                paramBase_[b] = 0;
                for (std::uint32_t k = 0; k < n; ++k) {
                    const sim::Tick e = offsetScratch_[begin + k];
                    paramScratch_.push_back(e);
                    ph = fnvStep(ph, e);
                }
            }
        }
        paramScratch_.push_back(mask);
        paramHash_ = fnvStep(ph, mask);
        miss.paramMask = mask;
        paramCandidate = mask != 0;
        if (paramCandidate) {
            if (const ParamFamily *fam =
                    cache_.findParam(sh, paramScratch_, paramHash_)) {
                for (const ParamPattern &pp : *fam)
                    if (applyParam(pp, paramBase_, start, sh, srvs,
                                   rel_complete, last_len))
                        return true;
            }
        }
    }

    miss.exactRecord = cache_.shouldRecord(sh, offsetScratch_, h);
    if (paramCandidate)
        miss.paramRecord = max_off < BurstPatternCache::max_offset &&
                           cache_.shouldRecordParam(sh, paramScratch_,
                                                    paramHash_);
    miss.record = miss.exactRecord || miss.paramRecord;
    return false;
}

bool
Network::applyParam(const ParamPattern &pp,
                    const std::array<sim::Tick, fast_bank_count> &bases,
                    sim::Tick start, const ShapeInfo &sh,
                    const std::vector<sim::FifoServer *> &srvs,
                    sim::Tick &rel_complete, unsigned &last_len)
{
    // Per-bank shift algebra, in the burst DAG's topological order.
    // beta[b] is the shift of bank b's request arrivals — the serve-
    // start shift (alpha) of the bank feeding it; stage1 arrivals
    // are CE issue times, which no offset moves. A shift-keyed bank
    // serves on its own horizon chain, so its starts move with its
    // base delta; a passive bank's starts follow its arrivals.
    // Each one-sided constraint keeps every recorded max() branch
    // decision (horizon vs arrival) intact, which is what makes the
    // shifted replay bit-exact.
    static constexpr FastBank topo[fast_bank_count] = {
        FastBank::stage1, FastBank::stage2, FastBank::module,
        FastBank::returnA, FastBank::returnB};
    std::int64_t alpha[fast_bank_count];
    std::int64_t beta[fast_bank_count];
    std::int64_t in = 0;
    for (const FastBank fb : topo) {
        const auto b = static_cast<unsigned>(fb);
        beta[b] = in;
        if ((pp.mask >> b) & 1u) {
            const std::int64_t d = static_cast<std::int64_t>(bases[b]) -
                                   static_cast<std::int64_t>(pp.base[b]);
            if (d != in && (pp.cmin[b] > 0 || d - in < pp.cmin[b]))
                return false;
            alpha[b] = d;
        } else {
            // beta == 0 replays a passive bank verbatim — offsets
            // and arrivals both identical to the recording — so it
            // is valid whatever the recording looked like.
            if (in != 0 && (pp.cmin[b] > 0 || in < pp.cmin[b]))
                return false;
            alpha[b] = in;
        }
        in = alpha[b];
    }

    // Completion is the last returnB serve plus a hop: it shifts
    // with returnB's starts. Near the tick ceiling the slow path's
    // overflow behaviour stays authoritative, as on the exact path.
    const std::int64_t rel =
        static_cast<std::int64_t>(pp.pat.relComplete) +
        alpha[static_cast<unsigned>(FastBank::returnB)];
    if (rel < 0 || static_cast<sim::Tick>(rel) > sim::max_tick - start)
        return false;

    const auto &entries = pp.pat.servers;
    assert(entries.size() == srvs.size());
    for (std::size_t j = 0; j < entries.size(); ++j) {
        const auto b = static_cast<unsigned>(sh.servers[j].bank);
        const PatternServer &e = entries[j];
        // Every serve's wait moves by (alpha - beta); the validity
        // constraints bound that from below by minus the smallest
        // recorded wait, so no shifted wait goes negative.
        srvs[j]->applyBatch(
            sh.requests[j],
            static_cast<sim::Tick>(
                static_cast<std::int64_t>(e.waitSum) +
                static_cast<std::int64_t>(sh.requests[j]) *
                    (alpha[b] - beta[b])),
            sh.busy[j],
            start + static_cast<sim::Tick>(
                        static_cast<std::int64_t>(e.freeAt) + alpha[b]));
    }

    if (tracer_ != nullptr)
        for (const auto &w : pp.pat.waits) {
            const auto b =
                static_cast<unsigned>(bankOfClass(w.cls));
            hub_->recordWaits(
                w.cls,
                static_cast<sim::Tick>(static_cast<std::int64_t>(w.wait) +
                                       (alpha[b] - beta[b])),
                w.count);
        }

    rel_complete = static_cast<sim::Tick>(rel);
    last_len = pp.pat.lastLen;
    return true;
}

XferResult
Network::rmw(sim::Tick when, sim::ClusterId cluster, int ce_port,
             sim::Addr addr, const sim::RmwFn &f, std::uint32_t flow)
{
    checkCluster(cluster, nClusters_);

    FastMissCtx miss;
    if (fastEligible(flow)) {
        sim::Tick rel = 0;
        unsigned last = 0;
        if (fastReplay(when, cluster, ce_port, gmem_.map().module(addr),
                       1, /*is_rmw=*/true, miss, rel, last)) {
            ++fastStats_.fastRmws;
            XferResult out;
            out.complete = when + rel;
            out.unloaded = unloadedLatency(1, true);
            // The value mutation the skipped module serve would have
            // applied, in the same (synchronous) serialisation order.
            out.oldValue = gmem_.forceRmw(addr, f);
            return out;
        }
        if (miss.record)
            snapshotServers(miss);
    }
    ++fastStats_.slowRmws;

    const unsigned group = gmem_.map().group(addr);
    const sim::Tick t2 = forwardPath(when, cluster, group, 1, flow);

    std::uint64_t old = 0;
    const auto mem =
        gmem_.rmw(sim::satAdd(t2, hop_latency), addr, f, &old, flow);

    XferResult res;
    res.unloaded = unloadedLatency(1, true);
    res.oldValue = old;
    if (mem.complete == sim::max_tick) {
        res.complete = sim::max_tick;
        return res;
    }
    res.complete = returnPath(mem.complete, cluster, ce_port, group, 1,
                              flow);

    // Second sighting: file this run as the offset vector's pattern.
    // An RMW serves every touched server exactly once, so each
    // server's wait-sum delta is its one published wait — the
    // per-serve capture the burst loop needs collapses to the stats
    // diff itself.
    if (miss.record && res.complete != sim::max_tick) {
        waitScratch_.clear();
        const ShapeInfo &sh = *miss.sh;
        for (std::size_t j = 0; j < sh.servers.size(); ++j) {
            const sim::Tick w =
                (*miss.servers)[j]->stats().waitTicks() - snapScratch_[j];
            waitScratch_.emplace_back(classOfBank(sh.servers[j].bank), w);
        }
        cache_.store(*miss.sh, offsetScratch_, offsetHash_,
                     diffPattern(miss, when, res.complete - when, 1));
    }
    return res;
}

sim::Tick
Network::unloadedLatency(unsigned len, bool is_rmw) const
{
    // Six hop traversals (CE->s1, s1->s2, s2->mem, mem->rA, rA->rB,
    // rB->CE), one port service per switch stage in each direction,
    // and the module service time.
    const sim::Tick mem_service = is_rmw ? mem::GlobalMemory::rmw_service
                                         : mem::GlobalMemory::word_service;
    return 6 * hop_latency + 4 * static_cast<sim::Tick>(len) + mem_service;
}

void
Network::stallSwitch(sim::Tick when, unsigned stage, unsigned idx,
                     sim::Tick duration)
{
    Crossbar *fwd = nullptr;
    Crossbar *ret = nullptr;
    obs::ResourceClass fwd_cls, ret_cls;
    if (stage == 1 && idx < stage1_.size()) {
        fwd = &stage1_[idx];
        ret = &returnB_[idx];
        fwd_cls = obs::ResourceClass::stage1_port;
        ret_cls = obs::ResourceClass::return_b_port;
    } else if (stage == 2 && idx < stage2In_.size()) {
        fwd = &stage2In_[idx];
        ret = &returnA_[idx];
        fwd_cls = obs::ResourceClass::stage2_port;
        ret_cls = obs::ResourceClass::return_a_port;
    } else {
        throw sim::SimError("network: no stage" + std::to_string(stage) +
                            " switch " + std::to_string(idx));
    }
    // The stall reservations go through serve() and therefore count
    // as requests in ServerStats; publish matching (zero or pile-up)
    // waits so per-class request counts stay consistent.
    for (unsigned p = 0; p < fwd->numPorts(); ++p) {
        auto &port = fwd->port(p);
        noteWait(fwd_cls,
                 static_cast<std::int32_t>(idx * fwd->numPorts() + p),
                 when, port.freeAt());
        port.serve(when, duration);
    }
    for (unsigned p = 0; p < ret->numPorts(); ++p) {
        auto &port = ret->port(p);
        noteWait(ret_cls,
                 static_cast<std::int32_t>(idx * ret->numPorts() + p),
                 when, port.freeAt());
        port.serve(when, duration);
    }
}

namespace
{

template <typename Banks, typename Fn>
void
visitBank(const char *tag, Banks &banks, Fn &&f)
{
    for (auto &xb : banks) {
        for (unsigned p = 0; p < xb.numPorts(); ++p)
            f(PortSite{tag, xb.name(), p}, xb.port(p));
    }
}

} // namespace

void
Network::visitPorts(
    const std::function<void(const PortSite &, const sim::FifoServer &)>
        &f) const
{
    visitBank("stage1", stage1_, f);
    visitBank("stage2", stage2In_, f);
    visitBank("returnA", returnA_, f);
    visitBank("returnB", returnB_, f);
}

void
Network::visitPortsMut(
    const std::function<void(const PortSite &, sim::FifoServer &)> &f)
{
    visitBank("stage1", stage1_, f);
    visitBank("stage2", stage2In_, f);
    visitBank("returnA", returnA_, f);
    visitBank("returnB", returnB_, f);
}

sim::Tick
Network::switchWaitTicks() const
{
    sim::Tick t = 0;
    for (const auto &x : stage1_)
        t += x.totalWaitTicks();
    for (const auto &x : stage2In_)
        t += x.totalWaitTicks();
    for (const auto &x : returnA_)
        t += x.totalWaitTicks();
    for (const auto &x : returnB_)
        t += x.totalWaitTicks();
    return t;
}

sim::Tick
Network::totalWaitTicks() const
{
    return switchWaitTicks() + gmem_.totalWaitTicks();
}

namespace
{

void
reportBank(std::ostream &os, const std::string &label,
           const Crossbar &xb, sim::Tick elapsed)
{
    std::uint64_t requests = 0;
    for (unsigned p = 0; p < xb.numPorts(); ++p)
        requests += xb.port(p).stats().requests();
    const double busy =
        elapsed ? 100.0 * static_cast<double>(xb.totalBusyTicks()) /
                      (static_cast<double>(elapsed) * xb.numPorts())
                : 0.0;
    const double wait =
        requests ? static_cast<double>(xb.totalWaitTicks()) /
                       static_cast<double>(requests)
                 : 0.0;
    os << "  " << std::left << std::setw(18) << label << std::right
       << std::setw(10) << requests << " req " << std::setw(6)
       << std::fixed << std::setprecision(1) << busy << "% busy "
       << std::setw(7) << std::setprecision(1) << wait
       << " mean wait\n";
}

} // namespace

void
Network::report(std::ostream &os, sim::Tick elapsed) const
{
    os << "network utilisation over " << elapsed << " cycles:\n";
    for (unsigned c = 0; c < nClusters_; ++c)
        reportBank(os, stage1_[c].name(), stage1_[c], elapsed);
    for (unsigned g = 0; g < stage2In_.size(); ++g)
        reportBank(os, stage2In_[g].name(), stage2In_[g], elapsed);

    // Memory modules, grouped per stage-2 switch.
    const unsigned group_size = gmem_.map().groupSize();
    for (unsigned g = 0; g < gmem_.map().numGroups(); ++g) {
        std::uint64_t requests = 0;
        sim::Tick busy = 0, wait = 0;
        for (unsigned m = 0; m < group_size; ++m) {
            const auto &st =
                gmem_.moduleServer(g * group_size + m).stats();
            requests += st.requests();
            busy += st.busyTicks();
            wait += st.waitTicks();
        }
        const double busy_pct =
            elapsed ? 100.0 * static_cast<double>(busy) /
                          (static_cast<double>(elapsed) * group_size)
                    : 0.0;
        const double mean_wait =
            requests ? static_cast<double>(wait) /
                           static_cast<double>(requests)
                     : 0.0;
        os << "  modules.group" << g << "    " << std::right
           << std::setw(10) << requests << " req " << std::setw(6)
           << std::fixed << std::setprecision(1) << busy_pct
           << "% busy " << std::setw(7) << std::setprecision(1)
           << mean_wait << " mean wait\n";
    }
}

void
Network::reset()
{
    for (auto &x : stage1_)
        x.reset();
    for (auto &x : stage2In_)
        x.reset();
    for (auto &x : returnA_)
        x.reset();
    for (auto &x : returnB_)
        x.reset();
}

} // namespace cedar::net
