#include "net/fastpath.hh"

#include <algorithm>

#include "mem/global_memory.hh"
#include "net/network.hh"
#include "sim/fifo_server.hh"

namespace cedar::net
{

namespace
{

/** Scratch index space: [0,g) stage1, [g,2g) stage2, [2g,3g)
 *  returnA, [3g] returnB (one shared CE port), [3g+1, ...) modules. */
std::size_t
flatIndex(const ServerRef &r, unsigned groups)
{
    switch (r.bank) {
    case FastBank::stage1:
        return r.idx;
    case FastBank::stage2:
        return groups + r.idx;
    case FastBank::returnA:
        return 2 * groups + r.idx;
    case FastBank::returnB:
        return 3 * groups;
    case FastBank::module:
    default:
        return 3 * groups + 1 + r.idx;
    }
}

ServerRef
refOf(std::size_t i, unsigned groups)
{
    if (i < groups)
        return {FastBank::stage1, static_cast<std::uint32_t>(i)};
    if (i < 2 * groups)
        return {FastBank::stage2, static_cast<std::uint32_t>(i - groups)};
    if (i < 3 * groups)
        return {FastBank::returnA,
                static_cast<std::uint32_t>(i - 2 * groups)};
    if (i == 3 * groups)
        return {FastBank::returnB, 0};
    return {FastBank::module,
            static_cast<std::uint32_t>(i - 3 * groups - 1)};
}

} // namespace

std::size_t
SightingTable::slotOf(std::uint64_t key) const
{
    const std::size_t mask = slots_.size() - 1;
    std::size_t i = flatHome(key, bits_);
    while (slots_[i].count != 0 && slots_[i].key != key)
        i = (i + 1) & mask;
    return i;
}

void
SightingTable::grow()
{
    bits_ = bits_ != 0 ? bits_ + 1 : 10;
    std::vector<Slot> old(std::size_t(1) << bits_, Slot{0, 0});
    old.swap(slots_);
    for (const Slot &s : old)
        if (s.count != 0)
            slots_[slotOf(s.key)] = s;
}

std::uint64_t
SightingTable::bump(std::uint64_t key)
{
    if (2 * (size_ + 1) > slots_.size())
        grow();
    Slot &s = slots_[slotOf(key)];
    if (s.count == 0) {
        s.key = key;
        ++size_;
    }
    return ++s.count;
}

std::uint64_t
SightingTable::count(std::uint64_t key) const
{
    return slots_.empty() ? 0 : slots_[slotOf(key)].count;
}

void
WaitCondenser::condense(const std::vector<Sample> &samples,
                        std::vector<PatternWaits> &out)
{
    // At most samples.size() distinct pairs: keep the table at or
    // below half load. Regrowing drops every stamp at once.
    if (slots_.size() < 2 * samples.size()) {
        while ((std::size_t(1) << bits_) < 2 * samples.size())
            ++bits_;
        slots_.assign(std::size_t(1) << bits_, Slot{0, 0});
        gen_ = 0;
    }
    if (++gen_ == 0) {
        for (Slot &s : slots_)
            s.gen = 0;
        gen_ = 1;
    }
    const std::size_t mask = slots_.size() - 1;
    for (const auto &[cls, wait] : samples) {
        const std::uint64_t h =
            (wait << 3) ^ static_cast<std::uint64_t>(cls);
        for (std::size_t i = flatHome(h, bits_);; i = (i + 1) & mask) {
            Slot &s = slots_[i];
            if (s.gen != gen_) {
                s.gen = gen_;
                s.entry = static_cast<std::uint32_t>(out.size());
                out.push_back(PatternWaits{wait, 1, cls});
                break;
            }
            PatternWaits &w = out[s.entry];
            if (w.cls == cls && w.wait == wait) {
                ++w.count;
                break;
            }
        }
    }
}

/**
 * Replay the exact slow-path serve sequence of one access shape on an
 * idle scratch machine at start = 0 and keep what every offset vector
 * shares: per touched server the earliest request arrival, the serve
 * count and the busy ticks. The arithmetic here must mirror
 * Network::forwardPath/returnPath, GlobalMemory::accessChunk/rmw and
 * the burst chunk loop statement for statement — the bit-identity
 * and shape-constant tests hold it to that.
 */
void
BurstPatternCache::idleProbe(ShapeInfo &sh) const
{
    constexpr sim::Tick hop = Network::hop_latency;
    const unsigned groups = map_.numGroups();
    const unsigned mods = map_.numModules();

    std::vector<sim::FifoServer> scratch(3 * groups + 1 + mods);
    std::vector<sim::Tick> first_arrival(scratch.size(), sim::max_tick);

    auto serveAt = [&](std::size_t si, sim::Tick arrival,
                       sim::Tick service) {
        first_arrival[si] = std::min(first_arrival[si], arrival);
        return scratch[si].serve(arrival, service);
    };

    // A canonical address with the same home module reproduces the
    // chunk/group/module sequence of every address in the shape
    // class: chunk boundaries depend on addr % group_size and
    // routing on addr % n_modules, and group_size divides n_modules.
    const sim::Addr addr0 = sh.firstModule;

    if (sh.isRmw) {
        const unsigned g = map_.group(addr0);
        const sim::Tick t1 = serveAt(g, hop, 1);
        const sim::Tick t2 = serveAt(groups + g, t1 + hop, 1);
        const sim::Tick done =
            serveAt(3 * groups + 1 + sh.firstModule, t2 + hop,
                    mem::GlobalMemory::rmw_service);
        const sim::Tick t3 = serveAt(2 * groups + g, done + hop, 1);
        serveAt(3 * groups, t3 + hop, 1);
    } else {
        unsigned issued = 0;
        map_.forEachChunk(addr0, sh.words, [&](const mem::Chunk &chunk) {
            // The CE issues the stream pipelined at one word/cycle.
            const sim::Tick issue = issued;
            const unsigned g = map_.group(chunk.addr);
            const sim::Tick t1 = serveAt(g, issue + hop, chunk.len);
            const sim::Tick t2 = serveAt(groups + g, t1 + hop, chunk.len);
            const sim::Tick arrival = t2 + hop;
            sim::Tick memdone = 0;
            for (unsigned i = 0; i < chunk.len; ++i) {
                const unsigned m = map_.module(chunk.addr + i);
                memdone = std::max(
                    memdone, serveAt(3 * groups + 1 + m, arrival,
                                     mem::GlobalMemory::word_service));
            }
            const sim::Tick t3 =
                serveAt(2 * groups + g, memdone + hop, chunk.len);
            serveAt(3 * groups, t3 + hop, chunk.len);
            issued += chunk.len;
        });
    }

    for (const ServerRef &r : sh.servers) {
        const std::size_t si = flatIndex(r, groups);
        const auto &st = scratch[si].stats();
        sh.firstArrival.push_back(first_arrival[si]);
        // Only read for shapes within max_shape_serves, where the
        // narrowing is exact (shouldRecord refuses the others).
        sh.requests.push_back(static_cast<std::uint32_t>(st.requests()));
        sh.busy.push_back(st.busyTicks());
        sh.serves += st.requests();
    }
}

/**
 * Derive a shape's touched-server set by walking its address
 * sequence. Which servers see traffic depends only on the addresses
 * — never on contention — so the set (and its canonical ascending
 * order) is valid for every offset vector.
 */
ShapeInfo
BurstPatternCache::makeShape(unsigned first_module, unsigned words,
                             bool is_rmw) const
{
    const unsigned groups = map_.numGroups();

    ShapeInfo sh;
    sh.firstModule = first_module;
    sh.words = words;
    sh.isRmw = is_rmw;

    std::vector<char> touched(3 * groups + 1 + map_.numModules(), 0);

    const sim::Addr addr0 = first_module;
    if (is_rmw) {
        const unsigned g = map_.group(addr0);
        touched[g] = 1;
        touched[groups + g] = 1;
        touched[3 * groups + 1 + first_module] = 1;
        touched[2 * groups + g] = 1;
        touched[3 * groups] = 1;
    } else {
        map_.forEachChunk(addr0, words, [&](const mem::Chunk &chunk) {
            const unsigned g = map_.group(chunk.addr);
            touched[g] = 1;
            touched[groups + g] = 1;
            for (unsigned i = 0; i < chunk.len; ++i)
                touched[3 * groups + 1 + map_.module(chunk.addr + i)] = 1;
            touched[2 * groups + g] = 1;
            touched[3 * groups] = 1;
        });
    }

    for (std::size_t i = 0; i < touched.size(); ++i)
        if (touched[i])
            sh.servers.push_back(refOf(i, groups));
    sh.patterns = FlatKeyTable<BurstPattern>(sh.servers.size());
    sh.paramPatterns = FlatKeyTable<ParamFamily>(sh.servers.size() + 1);

    // Bank ranges (servers are emitted in flat-index order, so each
    // bank is contiguous) and group/module ranks — the coordinates
    // the recording loop uses to map a serve back to its position in
    // the canonical gather order.
    sh.groupRank.assign(groups, 0);
    sh.moduleRank.assign(map_.numModules(), 0);
    for (std::size_t j = 0; j < sh.servers.size(); ++j) {
        const auto b = static_cast<unsigned>(sh.servers[j].bank);
        if (sh.bankCount[b] == 0)
            sh.bankBegin[b] = static_cast<std::uint32_t>(j);
        const std::uint32_t rank = sh.bankCount[b]++;
        if (sh.servers[j].bank == FastBank::stage1)
            sh.groupRank[sh.servers[j].idx] = rank;
        else if (sh.servers[j].bank == FastBank::module)
            sh.moduleRank[sh.servers[j].idx] = rank;
    }

    // Stage1 rigidity floors: arrivals there are CE issue times,
    // fixed by the chunk sequence alone, so the horizon-bound
    // condition "offset + served-so-far >= arrival" resolves per
    // server to a static minimum offset.
    sh.stage1Floor.assign(sh.servers.size(), 0);
    if (!is_rmw) {
        std::vector<sim::Tick> cum(groups, 0);
        unsigned issued = 0;
        map_.forEachChunk(addr0, words, [&](const mem::Chunk &chunk) {
            const unsigned g = map_.group(chunk.addr);
            const sim::Tick arr = issued + Network::hop_latency;
            sim::Tick &floor =
                sh.stage1Floor[sh.bankBegin[static_cast<unsigned>(
                                   FastBank::stage1)] +
                               sh.groupRank[g]];
            if (arr > cum[g] && arr - cum[g] > floor)
                floor = arr - cum[g];
            cum[g] += chunk.len;
            issued += chunk.len;
        });
    }

    // Idle probe: replay the shape once against an empty machine to
    // learn each touched server's earliest possible request arrival
    // — the canonicalization threshold (see ShapeInfo::firstArrival)
    // — and its offset-independent serve count and busy ticks. One
    // extra scratch replay per *shape* (a handful per app), amortised
    // over the millions of lookups and replays that use them.
    idleProbe(sh);
    return sh;
}

} // namespace cedar::net
