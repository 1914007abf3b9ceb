#include "isa/uop.hh"

#include <type_traits>

#include "common/log.hh"

namespace rsn::isa {

namespace {

/** The printer: " name=value" per field, flags as " name+" / " name-",
 *  mesh routes as " src->dst". */
struct Printer {
    std::string s;

    template <class T>
    void
    num(const char *name, const T &v, int)
    {
        if constexpr (std::is_same_v<T, bool>) {
            s += detail::formatv(" %s%c", name, v ? '+' : '-');
        } else if constexpr (std::is_same_v<T, Dtype>) {
            s += detail::formatv(" %s=%s", name, dtypeName(v));
        } else if constexpr (std::is_same_v<T, MeshMode>) {
            static constexpr const char *kModes[] = {"par", "bcast", "dist"};
            s += detail::formatv(" %s=%s", name, kModes[int(v)]);
        } else {
            s += detail::formatv(" %s=%llu", name, (unsigned long long)v);
        }
    }
    void
    fu(const char *name, const FuId &f)
    {
        s += detail::formatv(" %s=%s", name, f.toString().c_str());
    }
    void pad(int) {}
    void
    list(const char *, const std::vector<MeshRoute> &routes, int)
    {
        for (const auto &r : routes)
            s += " " + r.src.toString() + "->" + r.dst.toString();
    }
};

/** The uOP kind each FU type runs, in FuType order. */
const Uop kKinds[kNumFuTypes] = {MmeUop{},  MemAUop{}, MemBUop{},
                                 MemCUop{}, MeshUop{}, MeshUop{},
                                 DdrUop{},  LpddrUop{}};

} // namespace

std::string
uopToString(const Uop &u)
{
    return std::visit(
        [](const auto &v) {
            Printer p{v.kName};
            v.fields(v, p);
            return p.s;
        },
        u);
}

const char *
uopKindName(const Uop &u)
{
    return std::visit([](const auto &v) { return v.kName; }, u);
}

Uop
uopFor(FuType t)
{
    const int i = static_cast<int>(t);
    return i < kNumFuTypes ? kKinds[i] : Uop{HaltUop{}};
}

bool
uopMatchesFuType(const Uop &u, FuType t)
{
    const int i = static_cast<int>(t);
    return i < kNumFuTypes && u.index() == kKinds[i].index();
}

} // namespace rsn::isa
