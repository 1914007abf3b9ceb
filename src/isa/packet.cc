#include "isa/packet.hh"

#include <bit>

#include "common/log.hh"

namespace rsn::isa {

namespace {

/** Little serializer used by the assembler. */
class ByteWriter
{
  public:
    explicit ByteWriter(std::vector<std::uint8_t> &out) : out_(out) {}

    void u8(std::uint8_t v) { out_.push_back(v); }
    void u16(std::uint16_t v) { u8(v & 0xff); u8(v >> 8); }
    void
    u32(std::uint32_t v)
    {
        u16(v & 0xffff);
        u16(v >> 16);
    }
    void
    u64(std::uint64_t v)
    {
        u32(v & 0xffffffff);
        u32(v >> 32);
    }
    void fuId(FuId f) { u8((static_cast<int>(f.type) << 4) | f.index); }

  private:
    std::vector<std::uint8_t> &out_;
};

class ByteReader
{
  public:
    ByteReader(const std::vector<std::uint8_t> &in, std::size_t &pos)
        : in_(in), pos_(pos)
    {}

    std::uint8_t
    u8()
    {
        rsn_assert(pos_ < in_.size(), "disassembler ran past end");
        return in_[pos_++];
    }
    std::uint16_t
    u16()
    {
        std::uint16_t lo = u8();
        return lo | (std::uint16_t(u8()) << 8);
    }
    std::uint32_t
    u32()
    {
        std::uint32_t lo = u16();
        return lo | (std::uint32_t(u16()) << 16);
    }
    std::uint64_t
    u64()
    {
        std::uint64_t lo = u32();
        return lo | (std::uint64_t(u32()) << 32);
    }
    FuId
    fuId()
    {
        std::uint8_t v = u8();
        return FuId{static_cast<FuType>(v >> 4),
                    static_cast<std::uint8_t>(v & 0xf)};
    }

  private:
    const std::vector<std::uint8_t> &in_;
    std::size_t &pos_;
};

/** @{ A dtype tag rides in two spare bits of a uOP's flag field,
 *  starting at bit @p shift (uop.hh: the wire sizes do not grow). */
static_assert(kNumDtypes <= 4, "dtype tags get two flag bits");

unsigned
dtypeBits(Dtype d, int shift)
{
    return (static_cast<unsigned>(d) & 3u) << shift;
}

Dtype
dtypeFromBits(unsigned flags, int shift)
{
    return static_cast<Dtype>((flags >> shift) & 3u);
}
/** @} */

void
serializeUop(ByteWriter &w, const Uop &u)
{
    std::visit(
        [&](const auto &v) {
            using T = std::decay_t<decltype(v)>;
            if constexpr (std::is_same_v<T, MmeUop>) {
                w.u16(v.reps); w.u16(v.k_steps);
                w.u16(v.tile_m); w.u16(v.tile_k); w.u16(v.tile_n);
                w.u8((v.add_bias << 0) | (v.accum_k << 1) |
                     dtypeBits(v.out_dtype, 2));
            } else if constexpr (std::is_same_v<T, DdrUop>) {
                w.u32(static_cast<std::uint32_t>(v.addr));
                w.u32(v.stride_offset);
                w.u16(v.stride_count);
                w.u8((v.load << 0) | (v.store << 1) |
                     dtypeBits(v.dtype, 2));
                w.fuId(v.dest); w.fuId(v.src);
                w.u32(v.rows); w.u32(v.cols); w.u32(v.pitch);
            } else if constexpr (std::is_same_v<T, LpddrUop>) {
                w.u32(static_cast<std::uint32_t>(v.addr));
                w.u32(v.stride_offset);
                w.u16(v.stride_count);
                w.fuId(v.dest);
                w.u8((v.load_bias << 0) | dtypeBits(v.dtype, 2));
                w.u32(v.rows); w.u32(v.cols); w.u32(v.pitch);
            } else if constexpr (std::is_same_v<T, MeshUop>) {
                w.u32(v.repeats);
                w.u8(static_cast<std::uint8_t>(v.mode));
                w.u8(static_cast<std::uint8_t>(v.routes.size()));
                for (const auto &r : v.routes) {
                    w.fuId(r.src);
                    w.fuId(r.dst);
                }
            } else if constexpr (std::is_same_v<T, MemAUop>) {
                w.u16(v.rows); w.u16(v.cols);
                w.u8(v.slices); w.fuId(v.src);
                w.u8((v.load << 0) | (v.send << 1));
            } else if constexpr (std::is_same_v<T, MemBUop>) {
                w.u16(v.rows); w.u16(v.cols);
                w.fuId(v.src);
                w.u8((v.load << 0) | (v.send << 1) | (v.transpose << 2) |
                     (v.load_bias << 3));
            } else if constexpr (std::is_same_v<T, MemCUop>) {
                w.u16(v.rows); w.u16(v.cols);
                w.u16(v.recv_chunks); w.u16(v.send_chunks);
                w.fuId(v.send_dest);
                w.u16((v.recv << 0) | (v.store << 1) | (v.send_mme << 2) |
                      (v.softmax << 3) | (v.gelu << 4) |
                      (v.layernorm << 5) | (v.scale_shift << 6) |
                      (v.add_residual << 7) | dtypeBits(v.out_dtype, 8));
            } else if constexpr (std::is_same_v<T, HaltUop>) {
                w.u8(0xff);
            }
        },
        u);
}

Uop
deserializeUop(ByteReader &r, FuType opcode)
{
    switch (opcode) {
      case FuType::Mme: {
        MmeUop v;
        v.reps = r.u16(); v.k_steps = r.u16();
        v.tile_m = r.u16(); v.tile_k = r.u16(); v.tile_n = r.u16();
        std::uint8_t f = r.u8();
        v.add_bias = f & 1; v.accum_k = f & 2;
        v.out_dtype = dtypeFromBits(f, 2);
        return v;
      }
      case FuType::Ddr: {
        DdrUop v;
        v.addr = r.u32(); v.stride_offset = r.u32();
        v.stride_count = r.u16();
        std::uint8_t f = r.u8();
        v.load = f & 1; v.store = f & 2;
        v.dtype = dtypeFromBits(f, 2);
        v.dest = r.fuId(); v.src = r.fuId();
        v.rows = r.u32(); v.cols = r.u32(); v.pitch = r.u32();
        return v;
      }
      case FuType::Lpddr: {
        LpddrUop v;
        v.addr = r.u32(); v.stride_offset = r.u32();
        v.stride_count = r.u16();
        v.dest = r.fuId();
        std::uint8_t f = r.u8();
        v.load_bias = f & 1;
        v.dtype = dtypeFromBits(f, 2);
        v.rows = r.u32(); v.cols = r.u32(); v.pitch = r.u32();
        return v;
      }
      case FuType::MeshA:
      case FuType::MeshB: {
        MeshUop v;
        v.repeats = r.u32();
        v.mode = static_cast<MeshMode>(r.u8());
        std::uint8_t n = r.u8();
        for (int i = 0; i < n; ++i) {
            MeshRoute rt;
            rt.src = r.fuId();
            rt.dst = r.fuId();
            v.routes.push_back(rt);
        }
        return v;
      }
      case FuType::MemA: {
        MemAUop v;
        v.rows = r.u16(); v.cols = r.u16();
        v.slices = r.u8(); v.src = r.fuId();
        std::uint8_t f = r.u8();
        v.load = f & 1; v.send = f & 2;
        return v;
      }
      case FuType::MemB: {
        MemBUop v;
        v.rows = r.u16(); v.cols = r.u16();
        v.src = r.fuId();
        std::uint8_t f = r.u8();
        v.load = f & 1; v.send = f & 2; v.transpose = f & 4;
        v.load_bias = f & 8;
        return v;
      }
      case FuType::MemC: {
        MemCUop v;
        v.rows = r.u16(); v.cols = r.u16();
        v.recv_chunks = r.u16(); v.send_chunks = r.u16();
        v.send_dest = r.fuId();
        std::uint16_t f = r.u16();
        v.recv = f & 1; v.store = f & 2; v.send_mme = f & 4;
        v.softmax = f & 8; v.gelu = f & 16; v.layernorm = f & 32;
        v.scale_shift = f & 64; v.add_residual = f & 128;
        v.out_dtype = dtypeFromBits(f, 8);
        return v;
      }
      default:
        rsn_panic("cannot deserialize opcode %d", int(opcode));
    }
}

} // namespace

std::uint32_t
RsnPacket::headerWord() const
{
    std::uint32_t w = 0;
    w |= (static_cast<std::uint32_t>(opcode) & 0xf) << 28;
    w |= std::uint32_t(mask) << 20;
    w |= std::uint32_t(last ? 1 : 0) << 19;
    w |= (std::uint32_t(mops.size()) & 0x7f) << 12;
    w |= std::uint32_t(reuse) & 0xfff;
    return w;
}

RsnPacket
RsnPacket::fromHeaderWord(std::uint32_t w)
{
    RsnPacket p;
    p.opcode = static_cast<FuType>((w >> 28) & 0xf);
    p.mask = (w >> 20) & 0xff;
    p.last = (w >> 19) & 1;
    p.reuse = w & 0xfff;
    p.mops.resize((w >> 12) & 0x7f);  // placeholder slots for window size
    return p;
}

Bytes
RsnPacket::wireBytes() const
{
    Bytes b = 4;
    for (const auto &m : mops)
        b += uopWireBytes(m);
    return b;
}

bool
RsnPacket::valid(std::string *why) const
{
    auto fail = [&](const char *msg) {
        if (why)
            *why = msg;
        return false;
    };
    if (opcode == FuType::NumTypes)
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
    if (const auto *d = std::get_if<DdrUop>(&mop)) {
        for (std::uint32_t i = 0; i < d->stride_count; ++i) {
            DdrUop u = *d;
            u.addr = d->addr + std::uint64_t(i) * d->stride_offset;
            u.stride_count = 1;
            u.stride_offset = 0;
            out.emplace_back(u);
        }
        return;
    }
    if (const auto *l = std::get_if<LpddrUop>(&mop)) {
        for (std::uint32_t i = 0; i < l->stride_count; ++i) {
            LpddrUop u = *l;
            u.addr = l->addr + std::uint64_t(i) * l->stride_offset;
            u.stride_count = 1;
            u.stride_offset = 0;
            out.emplace_back(u);
        }
        return;
    }
    out.push_back(mop);
}

std::vector<Uop>
expandMop(const Uop &mop)
{
    std::vector<Uop> out;
    expandMopInto(mop, out);
    return out;
}

void
RsnProgram::append(RsnPacket p)
{
    packets_.push_back(std::move(p));
}

void
RsnProgram::appendHalts(const std::array<int, kNumFuTypes> &counts)
{
    for (int t = 0; t < kNumFuTypes; ++t) {
        if (counts[t] <= 0)
            continue;
        RsnPacket p;
        p.opcode = static_cast<FuType>(t);
        p.mask = static_cast<std::uint8_t>((1u << counts[t]) - 1);
        p.last = true;
        p.reuse = 1;
        packets_.push_back(std::move(p));
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
    std::uint64_t n = 0;
    for (const auto &p : packets_)
        n += p.opcode == t;
    return n;
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
    Bytes b = 0;
    for (const auto &p : packets_) {
        if (p.opcode != t)
            continue;
        int fanout = std::popcount(p.mask);
        Bytes per_pass = 0;
        for (const auto &m : p.mops)
            for (const auto &u : expandMop(m))
                per_pass += uopWireBytes(u);
        b += per_pass * p.reuse * fanout;
        if (p.last)
            b += HaltUop::wireBytes() * fanout;
    }
    return b;
}

std::uint64_t
RsnProgram::uopCountFor(FuId fu) const
{
    std::uint64_t n = 0;
    for (const auto &p : packets_) {
        if (p.opcode != fu.type || !(p.mask & (1u << fu.index)))
            continue;
        std::uint64_t per_pass = 0;
        for (const auto &m : p.mops)
            per_pass += expandMop(m).size();
        n += per_pass * p.reuse;
        if (p.last)
            ++n;
    }
    return n;
}

std::vector<std::uint8_t>
assemble(const RsnProgram &prog)
{
    std::vector<std::uint8_t> out;
    ByteWriter w(out);
    for (const auto &p : prog.packets()) {
        w.u32(p.headerWord());
        for (const auto &m : p.mops)
            serializeUop(w, m);
    }
    return out;
}

RsnProgram
disassemble(const std::vector<std::uint8_t> &bytes)
{
    RsnProgram prog;
    std::size_t pos = 0;
    ByteReader r(bytes, pos);
    while (pos < bytes.size()) {
        RsnPacket p = RsnPacket::fromHeaderWord(r.u32());
        std::size_t window = p.mops.size();
        p.mops.clear();
        for (std::size_t i = 0; i < window; ++i)
            p.mops.push_back(deserializeUop(r, p.opcode));
        prog.append(std::move(p));
    }
    return prog;
}

} // namespace rsn::isa
