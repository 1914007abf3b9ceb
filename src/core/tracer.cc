#include "core/tracer.hh"

#include <cstdio>
#include <fstream>

namespace rsn::core {

Tracer::Tracer(RsnMachine &machine)
    : mach_(machine), spans_(machine.fus().size())
{
    for (std::size_t i = 0; i < spans_.size(); ++i)
        mach_.fus()[i]->setSpanSink(&spans_[i]);
}

Tracer::~Tracer()
{
    for (const auto &f : mach_.fus())
        f->setSpanSink(nullptr);
}

std::size_t
Tracer::sliceCount() const
{
    std::size_t n = 0;
    for (const auto &s : spans_)
        n += s.size();
    return n;
}

std::string
Tracer::toChromeJson() const
{
    // One process, one thread per FU track; durations in microseconds of
    // modeled time.
    const double us_per_tick = 1e6 / mach_.config().clocks.plHz;
    std::string out = "{\"traceEvents\":[\n";
    const char *sep = "";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const std::string &track = mach_.fus()[i]->name();
        for (const auto &s : spans_[i]) {
            char buf[256];
            std::snprintf(buf, sizeof(buf),
                          "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                          "\"tid\":\"%s\",\"ts\":%.3f,\"dur\":%.3f}",
                          sep, s.kind, track.c_str(),
                          s.begin * us_per_tick,
                          (s.end - s.begin) * us_per_tick);
            out += buf;
            sep = ",\n";
        }
    }
    out += "\n]}\n";
    return out;
}

bool
Tracer::writeChromeJson(const std::string &path) const
{
    std::ofstream f(path);
    if (!f)
        return false;
    f << toChromeJson();
    return bool(f);
}

} // namespace rsn::core
