#include "common.hh"

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>

namespace rsnbench {

namespace {
const Clock::time_point g_process_start = Clock::now();

double
cpuMs(clockid_t clock)
{
    struct timespec ts{};
    clock_gettime(clock, &ts);
    return double(ts.tv_sec) * 1e3 + double(ts.tv_nsec) / 1e6;
}
} // namespace

Clock::time_point
processStart()
{
    return g_process_start;
}

double
msBetween(Clock::time_point t0, Clock::time_point t1)
{
    return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

double
threadCpuMs()
{
    return cpuMs(CLOCK_THREAD_CPUTIME_ID);
}

double
processCpuMs()
{
    return cpuMs(CLOCK_PROCESS_CPUTIME_ID);
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

double
peakRssMb()
{
    struct rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

std::uint64_t
fnv1a(const void *data, std::size_t n, std::uint64_t h)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 1099511628211ull;
    }
    return h;
}

Accuracy
accuracy(const rsn::ref::Matrix &got, const rsn::ref::Matrix &ref)
{
    Accuracy a;
    const std::size_t n = std::min(got.data.size(), ref.data.size());
    if (n == 0 || got.data.size() != ref.data.size()) {
        a.max_rel_err = INFINITY;
        a.pcc = 0;
        return a;
    }
    double max_diff = 0, max_ref = 0, sum_g = 0, sum_r = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double g = got.data[i], r = ref.data[i];
        max_diff = std::max(max_diff, std::fabs(g - r));
        max_ref = std::max(max_ref, std::fabs(r));
        sum_g += g;
        sum_r += r;
    }
    a.max_rel_err = max_ref > 0 ? max_diff / max_ref : max_diff;
    const double mg = sum_g / n, mr = sum_r / n;
    double cov = 0, var_g = 0, var_r = 0;
    for (std::size_t i = 0; i < n; ++i) {
        const double dg = got.data[i] - mg, dr = ref.data[i] - mr;
        cov += dg * dr;
        var_g += dg * dg;
        var_r += dr * dr;
    }
    // tt-metal comp_pcc convention: two constant tensors correlate
    // perfectly when equal; a constant against a varying one does not.
    if (var_g == 0 || var_r == 0)
        a.pcc = (var_g == var_r && max_diff == 0) ? 1.0 : 0.0;
    else
        a.pcc = cov / std::sqrt(var_g * var_r);
    return a;
}

} // namespace rsnbench
