/**
 * @file
 * Host-speed probe. The benchmark's hosts are shared, and the speed
 * one process gets from them drifts by 15-20% over seconds to
 * minutes, so a bare wall time mostly measures the neighbours. The
 * runner therefore runs a fixed kernel of its own before the first
 * library call it times and after every one, and scales each call's
 * host time by how fast the kernel ran just before and just after it:
 *
 *     normalized = measured * reference_s / mean(kernel before, after)
 *
 * A normalized time is in seconds on a host where the kernel takes
 * reference_s. The kernel is the benchmark's own code, so no change
 * to the library moves it: a library that gets slower still reads
 * slower. What it takes out is the host's speed at that time. The
 * speed changes within seconds, so each call takes the samples next
 * to it rather than a mean over a whole pass.
 *
 * A kernel only follows the host's speed for work like its own, so
 * there are two, and each workload uses the one like its calls:
 * heap_table does what the simulator's event loop does (a binary
 * heap of pending times and a read-modify-write into an 8 MB table
 * at a pseudo-random index per step), format what the JSON exporters
 * do (the shortest decimal form of a double that reads back exactly,
 * found by printing and re-parsing at growing precision).
 */

#ifndef PERFBENCH_HOSTSPEED_HH
#define PERFBENCH_HOSTSPEED_HH

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <stdexcept>
#include <vector>

namespace perfbench
{

/** reference_s over the mean of the kernel's times before and after
 *  a measured call: the factor that call's host time is scaled by.
 *  @throws std::invalid_argument on a time <= 0. */
inline double
speedFactor(double reference_s, double before_s, double after_s)
{
    if (!(reference_s > 0) || !(before_s > 0) || !(after_s > 0))
        throw std::invalid_argument("kernel times must be positive");
    return reference_s * 2.0 / (before_s + after_s);
}

class HostSpeed
{
  public:
    /** What the kernel does, after the library work it stands for. */
    enum class Kernel
    {
        heap_table, //!< the event loop: heap pops/pushes, table writes
        format,     //!< the exporters: shortest round-trip doubles
    };

    /** A kernel's time, in seconds, on the host whose speed the
     *  normalized times are given at (the Intel Xeon 4-vCPU VM the
     *  benchmark was sized on, where each kernel takes about this
     *  long). It fixes only the scale of every normalized time. */
    static constexpr double reference_s = 0.045;
    /** Heap and table steps per heap_table run. */
    static constexpr unsigned steps = 250000;
    /** Numbers per format run. */
    static constexpr unsigned numbers = 7000;

    /** Allocates the kernel's memory and runs it once, untimed, so
     *  the first timed run pays no page faults. */
    HostSpeed() : table_(1u << 20)
    {
        heap_.reserve(heap_size + 1);
        run();
    }

    /** Switch kernels (before the first sample); runs the new one
     *  once, untimed. */
    void
    use(Kernel k)
    {
        kind_ = k;
        run();
    }


    /** Run the kernel once; returns and remembers its seconds. */
    double
    sample()
    {
        const auto t0 = std::chrono::steady_clock::now();
        run();
        const double s = std::chrono::duration<double>(
                             std::chrono::steady_clock::now() - t0)
                             .count();
        before_ = after_;
        after_ = s;
        factors_.push_back(reference_s / s);
        return s;
    }

    /** Factor for the call made between the last two samples. */
    double
    factor() const
    {
        return speedFactor(reference_s, before_, after_);
    }

    /** reference_s over each sample's time, in sample order. */
    const std::vector<double> &factors() const { return factors_; }

  private:
    static constexpr std::size_t heap_size = 65536;

    void
    run()
    {
        if (kind_ == Kernel::format)
            formatKernel();
        else
            heapTableKernel();
    }

    /** Shortest round-trip decimal form of pseudo-random numbers with
     *  up to nine significant digits, as JSON exporters write them. */
    void
    formatKernel()
    {
        std::uint64_t x = 88172645463325252ull;
        char buf[40];
        std::uint64_t acc = 0;
        for (unsigned i = 0; i < numbers; ++i) {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            const double v = static_cast<double>(x % 1000000000) / 1000.0;
            for (int prec = 1; prec <= 17; ++prec) {
                std::snprintf(buf, sizeof buf, "%.*g", prec, v);
                double back = 0;
                std::sscanf(buf, "%lf", &back);
                if (back == v)
                    break;
            }
            acc += static_cast<unsigned char>(buf[0]);
        }
        sink_ = acc; // keeps the kernel's work
    }

    void
    heapTableKernel()
    {
        std::uint64_t x = 88172645463325252ull;
        auto next = [&x] {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            return x;
        };
        const std::greater<std::uint64_t> later;
        heap_.clear();
        for (std::size_t i = 0; i < heap_size; ++i) {
            heap_.push_back(next() & 0xffff);
            std::push_heap(heap_.begin(), heap_.end(), later);
        }
        std::uint64_t t = 0;
        const std::size_t mask = table_.size() - 1;
        for (unsigned i = 0; i < steps; ++i) {
            std::pop_heap(heap_.begin(), heap_.end(), later);
            t = heap_.back();
            const std::uint64_t r = next();
            table_[r & mask] += t;
            heap_.back() = t + (r >> 48);
            std::push_heap(heap_.begin(), heap_.end(), later);
        }
        sink_ = table_[x & 1023] + t; // keeps the kernel's work
    }

    std::vector<std::uint64_t> heap_;
    std::vector<std::uint64_t> table_;
    volatile std::uint64_t sink_ = 0;
    Kernel kind_ = Kernel::heap_table;
    double before_ = reference_s, after_ = reference_s;
    std::vector<double> factors_;
};

} // namespace perfbench

#endif // PERFBENCH_HOSTSPEED_HH
