#include "isa/packet.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace rsn::isa {

namespace {

/**
 * The assembler's writer: appends each field's low `bits` bits to a
 * little-endian bit stream. A value wider than its field is fatal,
 * naming the packet, the field and the value.
 */
class Writer : public BitVisitor<Writer>
{
  public:
    explicit Writer(std::vector<std::uint8_t> &out) : out_(out) {}

    std::size_t packet = 0;  ///< Packet being written.

    void
    num(const char *name, const auto &v, int bits)
    {
        const auto x = static_cast<std::uint64_t>(v);
        if (x >> bits)
            rsn_fatal("packet %zu: field %s = %llu does not fit in %d bits",
                      packet, name, (unsigned long long)x, bits);
        acc_ |= x << held_;
        for (held_ += bits; held_ >= 8; held_ -= 8, acc_ >>= 8)
            out_.push_back(static_cast<std::uint8_t>(acc_));
    }

  private:
    std::vector<std::uint8_t> &out_;
    std::uint64_t acc_ = 0;  ///< Bits not yet emitted, LSB first.
    int held_ = 0;
};

/** The disassembler's reader: the writer's bit stream, read back. */
class Reader : public BitVisitor<Reader>
{
  public:
    explicit Reader(const std::vector<std::uint8_t> &in) : in_(in) {}

    bool done() const { return pos_ == in_.size() && held_ == 0; }

    template <class T>
    void
    num(const char *, T &v, int bits)
    {
        for (; held_ < bits; held_ += 8) {
            rsn_assert(pos_ < in_.size(), "disassembler ran past end");
            acc_ |= std::uint64_t(in_[pos_++]) << held_;
        }
        v = static_cast<T>(acc_ & ((std::uint64_t(1) << bits) - 1));
        acc_ >>= bits;
        held_ -= bits;
    }

  private:
    const std::vector<std::uint8_t> &in_;
    std::size_t pos_ = 0;
    std::uint64_t acc_ = 0;
    int held_ = 0;
};

/**
 * Sum @p per_uop over the uOP streams the decoder issues to the
 * instances of FU type @p t selected by @p instances: the expanded
 * window once per reuse pass and masked instance, plus the halt of a
 * `last` packet.
 */
template <class F>
std::uint64_t
sumIssued(const std::vector<RsnPacket> &packets, FuType t,
          unsigned instances, F per_uop)
{
    std::uint64_t sum = 0;
    std::vector<Uop> uops;
    for (const auto &p : packets) {
        const int fanout = std::popcount(p.mask & instances);
        if (p.opcode != t || fanout == 0)
            continue;
        uops.clear();
        for (const auto &m : p.mops)
            expandMopInto(m, uops);
        std::uint64_t per_pass = 0;
        for (const auto &u : uops)
            per_pass += per_uop(u);
        sum += fanout * (per_pass * p.reuse +
                         (p.last ? per_uop(Uop{HaltUop{}}) : 0));
    }
    return sum;
}

} // namespace

bool
RsnPacket::valid(std::string *why) const
{
    auto fail = [&](const char *msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (static_cast<int>(opcode) >= kNumFuTypes)
        return fail("invalid opcode");
    if (mask == 0)
        return fail("empty FU mask");
    if (mops.size() > kMaxWindow)
        return fail("window size exceeds 7-bit field");
    if (reuse == 0 || reuse > kMaxReuse)
        return fail("reuse outside [1, 4095]");
    if (!last && mops.empty())
        return fail("non-last packet with empty window");
    for (const auto &m : mops) {
        if (!uopMatchesFuType(m, opcode))
            return fail("uOP kind does not match packet opcode");
    }
    return true;
}

void
expandMopInto(const Uop &mop, std::vector<Uop> &out)
{
    std::visit(
        [&](const auto &m) {
            if constexpr (requires { m.stride_count; }) {
                for (std::uint32_t i = 0; i < m.stride_count; ++i) {
                    auto u = m;
                    u.addr = m.addr + std::uint64_t(i) * m.stride_offset;
                    u.stride_count = 1;
                    u.stride_offset = 0;
                    out.emplace_back(u);
                }
            } else {
                out.emplace_back(m);
            }
        },
        mop);
}

void
RsnProgram::appendHalts(const std::array<int, kNumFuTypes> &counts)
{
    for (int t = 0; t < kNumFuTypes; ++t) {
        if (counts[t] <= 0)
            continue;
        packets_.push_back(RsnPacket{
            .opcode = static_cast<FuType>(t),
            .mask = static_cast<std::uint8_t>((1u << counts[t]) - 1),
            .last = true,
            .mops = {}});
    }
}

void
RsnProgram::validate() const
{
    for (std::size_t i = 0; i < packets_.size(); ++i) {
        std::string why;
        if (!packets_[i].valid(&why))
            rsn_fatal("packet %zu invalid: %s", i, why.c_str());
    }
}

std::uint64_t
RsnProgram::packetCount(FuType t) const
{
    return std::ranges::count(packets_, t, &RsnPacket::opcode);
}

Bytes
RsnProgram::instructionBytes(FuType t) const
{
    Bytes b = 0;
    for (const auto &p : packets_)
        if (p.opcode == t)
            b += p.wireBytes();
    return b;
}

Bytes
RsnProgram::totalBytes() const
{
    Bytes b = 0;
    for (const auto &p : packets_)
        b += p.wireBytes();
    return b;
}

Bytes
RsnProgram::expandedUopBytes(FuType t) const
{
    return sumIssued(packets_, t, 0xff, [](const Uop &u) {
        return std::visit([](const auto &v) { return wireBytes(v); }, u);
    });
}

std::uint64_t
RsnProgram::uopCountFor(FuId fu) const
{
    return sumIssued(packets_, fu.type, 1u << fu.index,
                     [](const Uop &) { return 1; });
}

std::vector<std::uint8_t>
assemble(const RsnProgram &prog)
{
    prog.validate();
    std::vector<std::uint8_t> out;
    Writer w(out);
    for (const auto &p : prog.packets()) {
        RsnPacket::fields(p, w);
        ++w.packet;
    }
    return out;
}

RsnProgram
disassemble(const std::vector<std::uint8_t> &bytes)
{
    RsnProgram prog;
    Reader r(bytes);
    while (!r.done()) {
        RsnPacket p;
        RsnPacket::fields(p, r);
        prog.append(std::move(p));
    }
    prog.validate();
    return prog;
}

} // namespace rsn::isa
