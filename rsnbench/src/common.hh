/**
 * @file
 * Shared pieces of the repo benchmark: arguments, the metric sink, the
 * per-workload result, quantiles and output-accuracy helpers.
 *
 * Every workload runs the same shape of measurement (README.md):
 * several set-ups (the median is setup_s), then timed passes over the
 * workload's op list until --seconds have elapsed. With --trace 1 each
 * pass runs twice, untraced then traced, so the tracing overhead and the
 * observe-without-perturbing check come from the same process.
 */

#ifndef RSNBENCH_COMMON_HH
#define RSNBENCH_COMMON_HH

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

#include "ref/ref_math.hh"

namespace rsnbench {

using Clock = std::chrono::steady_clock;

/** Milliseconds elapsed from @p t0 to @p t1. */
double msBetween(Clock::time_point t0, Clock::time_point t1);

/** When the process started (captured during static initialization). */
Clock::time_point processStart();

/**
 * CPU time, in ms, of the calling thread and of the whole process
 * (CLOCK_THREAD_CPUTIME_ID, CLOCK_PROCESS_CPUTIME_ID). Host times use
 * these, not wall time: the guest kernel leaves the time its vCPUs were
 * not running (steal) out of CPU time, and time spent waiting for a
 * vCPU is not CPU time either.
 */
double threadCpuMs();
double processCpuMs();

struct Args {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string git_sha = "none";
    std::string git_dirty = "unknown";
};

/** One named metric with its unit; order of insertion is kept. */
struct Metric {
    std::string name;
    double value = 0;
    std::string unit;
};

/**
 * What a workload hands back to main(): the check census and the
 * metrics. attempted counts the workload's ops (model ops, sweep points
 * or serving load-point simulations); failed counts those whose output
 * check failed. Global checks that belong to no single op (a missing
 * per-layer invariant, say) add to `errors` and make the run incorrect.
 */
struct Result {
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> errors;
    std::vector<Metric> e2e;
    std::vector<Metric> layer;

    void e2eMetric(const std::string &n, double v, const std::string &u)
    {
        e2e.push_back({n, v, u});
    }
    void layerMetric(const std::string &n, double v, const std::string &u)
    {
        layer.push_back({n, v, u});
    }
    void fail(const std::string &why) { errors.push_back(why); }
    /** Count a failed op; the first three are kept as errors. */
    void opFailed(const std::string &why)
    {
        if (++failed <= 3)
            fail(why);
    }
    bool correct() const { return failed == 0 && errors.empty(); }
};

/**
 * Quantile (q in [0, 1]) of @p v, interpolated linearly between the two
 * nearest ranks (numpy's default); 0 for an empty vector. With the
 * few passes a serving run makes, a nearest-rank p90 would be the
 * slowest pass alone.
 */
double quantile(std::vector<double> v, double q);

/** Median of @p v. */
inline double
median(std::vector<double> v)
{
    return quantile(std::move(v), 0.5);
}

/** Peak resident set of this process in MB (getrusage). */
double peakRssMb();

/** FNV-1a over raw bytes, chained through @p h. */
std::uint64_t fnv1a(const void *data, std::size_t n,
                    std::uint64_t h = 1469598103934665603ull);

/** Accuracy of one produced tensor against its FP32 reference. */
struct Accuracy {
    double max_rel_err = 0;  ///< max|got - ref| / max|ref|
    double pcc = 1;          ///< Pearson correlation (1 for constant equal)
};
Accuracy accuracy(const rsn::ref::Matrix &got,
                  const rsn::ref::Matrix &ref);

} // namespace rsnbench

#endif // RSNBENCH_COMMON_HH
