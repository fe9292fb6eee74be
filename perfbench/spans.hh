/**
 * @file
 * Benchmark-side spans: every public library call the runner makes
 * is timed through a Probe, which always measures the call and, in
 * traced mode, also keeps a span (name, layer, start, end, parent,
 * point id) in memory. Spans are written out once, when the run
 * ends, as a Chrome/Perfetto trace_event document.
 *
 * A span's self time is its duration minus the part of that interval
 * its direct children cover (the union of their intervals, clipped
 * to the parent), so a root's self time plus its descendants' self
 * times equals the root's wall time exactly.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "bench_json.hh"

namespace perfbench
{

/** One timed interval; times are steady-clock nanoseconds. */
struct Span
{
    std::string name;
    std::string layer; //!< src/ module the callee belongs to
    std::string point; //!< per-point id ("" for pass-level spans)
    std::int64_t start = 0;
    std::int64_t end = 0;
    int parent = -1; //!< index into the span list, -1 for a root
};

inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/**
 * Self time of every span in @p spans (parallel to it). Children
 * are the spans whose parent index names the span; overlapping
 * children are counted once and the parts that stick out of the
 * parent are ignored.
 */
inline std::vector<std::int64_t>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent < 0)
            continue;
        if (static_cast<std::size_t>(s.parent) >= spans.size())
            throw std::invalid_argument("span parent out of range");
        kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start,
                                                              s.end);
    }
    std::vector<std::int64_t> self(spans.size());
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &p = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = p.start; // covered up to here
        for (auto [b, e] : iv) {
            b = std::max({b, p.start, reach});
            e = std::min(e, p.end);
            if (e > b) {
                covered += e - b;
                reach = e;
            }
        }
        self[i] = (p.end - p.start) - covered;
    }
    return self;
}

/** Sum of self times per layer, in nanoseconds. */
inline std::map<std::string, std::int64_t>
selfTimeByLayer(const std::vector<Span> &spans)
{
    const auto self = selfTimes(spans);
    std::map<std::string, std::int64_t> out;
    for (std::size_t i = 0; i < spans.size(); ++i)
        out[spans[i].layer] += self[i];
    return out;
}

/**
 * Self time of span @p root plus that of every span below it, given
 * @p self from selfTimes(). Equals the root's duration when its
 * descendants nest properly (as spans opened and closed on one
 * thread do).
 */
inline std::int64_t
subtreeSelfTime(const std::vector<Span> &spans,
                const std::vector<std::int64_t> &self, std::size_t root)
{
    std::int64_t sum = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        std::size_t j = i;
        while (j != root && spans[j].parent >= 0)
            j = static_cast<std::size_t>(spans[j].parent);
        if (j == root)
            sum += self[i];
    }
    return sum;
}

/**
 * Times calls and, when tracing, records them as nested spans. Spans
 * must be opened and closed on the thread that owns the probe, in
 * stack order (a Scope does both).
 */
class Probe
{
  public:
    explicit Probe(bool tracing) : tracing_(tracing) {}

    void setTracing(bool on) { tracing_ = on; }

    /** A running measurement; stop() (or destruction) ends it. */
    class Scope
    {
      public:
        Scope(Probe &p, std::string name, std::string layer,
              std::string point)
            : probe_(p), start_(nowNs())
        {
            if (probe_.tracing_) {
                index_ = static_cast<int>(probe_.spans_.size());
                probe_.spans_.push_back(
                    {std::move(name), std::move(layer), std::move(point),
                     start_, start_,
                     probe_.open_.empty() ? -1 : probe_.open_.back()});
                probe_.open_.push_back(index_);
            }
        }
        ~Scope() { stop(); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** End the measurement; returns its duration in seconds. */
        double
        stop()
        {
            if (!running_)
                return seconds_;
            running_ = false;
            const std::int64_t end = nowNs();
            seconds_ = static_cast<double>(end - start_) * 1e-9;
            if (index_ >= 0) {
                probe_.spans_[static_cast<std::size_t>(index_)].end = end;
                probe_.open_.pop_back();
            }
            return seconds_;
        }

      private:
        Probe &probe_;
        std::int64_t start_;
        int index_ = -1;
        bool running_ = true;
        double seconds_ = 0;
    };

    Scope
    scope(std::string name, std::string layer, std::string point = {})
    {
        return Scope(*this, std::move(name), std::move(layer),
                     std::move(point));
    }

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool tracing_;
    std::vector<Span> spans_;
    std::vector<int> open_; //!< indices of the spans still running
};

/** Chrome/Perfetto trace_event rendering of @p spans ('X' slices). */
inline void
writeSpanJson(std::ostream &os, const std::vector<Span> &spans)
{
    const auto self = selfTimes(spans);
    const std::int64_t t0 = spans.empty() ? 0 : spans.front().start;
    cedar::tools::JsonWriter w(os);
    w.beginObject();
    w.key("traceEvents").beginArray();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        w.beginObject();
        w.field("name", s.name);
        w.field("cat", s.layer);
        w.field("ph", "X");
        w.field("pid", 1);
        w.field("tid", 1);
        w.field("ts", static_cast<double>(s.start - t0) * 1e-3);
        w.field("dur", static_cast<double>(s.end - s.start) * 1e-3);
        w.key("args").beginObject();
        w.field("id", static_cast<std::int64_t>(i));
        w.field("parent", static_cast<std::int64_t>(s.parent));
        w.field("point", s.point);
        w.field("self_us", static_cast<double>(self[i]) * 1e-3);
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.endObject();
    os << "\n";
}

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
