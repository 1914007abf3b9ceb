#include "serve/arrivals.hh"

#include <cmath>
#include <sstream>

#include "common/log.hh"

namespace rsn::serve {

lib::Model
RequestClass::build(std::uint32_t batch) const
{
    return lib::tinyEncoder(batch, seq, hidden, heads, ff, fuse_qkv);
}

std::vector<RequestClass>
defaultClasses()
{
    // Keep the seq=32 class's shape equal to the golden tiny-encoder
    // config (tests/lib/test_golden_e2e.cc): a faults-off batch of two
    // such requests must still cost exactly the pinned 11084 ticks.
    return {
        {"tiny-s32", 32, 64, 4, 128, true, 3},
        {"tiny-s64", 64, 64, 4, 128, true, 1},
    };
}

std::vector<Arrival>
poissonArrivals(std::uint64_t seed, Tick mean_gap, std::size_t count,
                const std::vector<RequestClass> &classes)
{
    rsn_assert(!classes.empty(), "arrival stream needs >= 1 class");
    if (mean_gap < 1)
        mean_gap = 1;
    std::uint64_t total_weight = 0;
    for (const RequestClass &c : classes)
        total_weight += c.weight ? c.weight : 1;

    std::vector<Arrival> out;
    out.reserve(count);
    Tick now = 0;
    for (std::size_t i = 0; i < count; ++i) {
        // Exponential gap via inverse transform; the +1 on the mantissa
        // keeps u in (0, 1] so log(u) is finite. Gaps round up to >= 1
        // tick so two draws never merge into one instant.
        const std::uint64_t bits = mix64(seed ^ (2 * i));
        const double u = double((bits >> 11) + 1) * 0x1.0p-53;
        const double gap = -std::log(u) * double(mean_gap);
        now += gap < 1 ? Tick(1) : Tick(gap);

        std::uint64_t r = mix64(seed ^ (2 * i + 1)) % total_weight;
        std::uint32_t cls = 0;
        for (std::size_t c = 0; c < classes.size(); ++c) {
            const std::uint64_t w =
                classes[c].weight ? classes[c].weight : 1;
            if (r < w) {
                cls = static_cast<std::uint32_t>(c);
                break;
            }
            r -= w;
        }
        out.push_back({now, cls});
    }
    return out;
}

std::vector<Arrival>
parseTrace(const std::string &text, std::size_t num_classes,
           Status *status)
{
    *status = Status::success();
    std::vector<Arrival> out;
    std::istringstream in(text);
    std::string line;
    std::size_t lineno = 0;
    Tick prev = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::istringstream fields(line);
        unsigned long long tick = 0;
        unsigned long cls = 0;
        if (!(fields >> tick)) {
            if (fields.eof())
                continue;  // blank / comment-only line
            *status = Status::error(StatusCode::InvalidConfig,
                "trace line " + std::to_string(lineno) + ": bad tick");
            return {};
        }
        if (!(fields >> cls) || cls >= num_classes) {
            *status = Status::error(StatusCode::InvalidConfig,
                "trace line " + std::to_string(lineno) +
                ": class index must be in [0, " +
                std::to_string(num_classes) + ")");
            return {};
        }
        if (tick < prev) {
            *status = Status::error(StatusCode::InvalidConfig,
                "trace line " + std::to_string(lineno) +
                ": ticks must be non-decreasing");
            return {};
        }
        prev = tick;
        out.push_back({Tick(tick), static_cast<std::uint32_t>(cls)});
    }
    return out;
}

} // namespace rsn::serve
