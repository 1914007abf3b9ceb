#include <gtest/gtest.h>

#include "isa/packet.hh"

namespace {

using namespace rsn;
using namespace rsn::isa;

RsnPacket
samplePacket()
{
    RsnPacket p;
    p.opcode = FuType::MemA;
    p.mask = 0x5;
    p.reuse = 12;
    MemAUop u;
    u.rows = 768;
    u.cols = 128;
    u.slices = 6;
    u.src = {FuType::Ddr, 0};
    u.load = true;
    u.send = true;
    p.mops.emplace_back(u);
    return p;
}

/** @p p's assembled 32-bit header, read back as a little-endian word. */
std::uint32_t
headerWordOf(const RsnPacket &p)
{
    RsnProgram prog;
    prog.append(p);
    const auto b = assemble(prog);
    return b[0] | b[1] << 8 | b[2] << 16 | std::uint32_t(b[3]) << 24;
}

/** @p p after an assembler round trip. */
RsnPacket
roundTrip(const RsnPacket &p)
{
    RsnProgram prog;
    prog.append(p);
    return disassemble(assemble(prog)).packets().at(0);
}

TEST(PacketHeader, EncodesAllFields)
{
    RsnPacket p = samplePacket();
    p.last = true;
    // opcode:4 | mask:8 | last:1 | window:7 | reuse:12
    EXPECT_EQ(headerWordOf(p), std::uint32_t(FuType::MemA) << 28 |
                                   0x5u << 20 | 1u << 19 | 1u << 12 | 12u);
    EXPECT_EQ(roundTrip(p), p);
}

class HeaderRoundTrip
    : public ::testing::TestWithParam<std::tuple<int, int, int>>
{};

TEST_P(HeaderRoundTrip, AllFieldCombinations)
{
    auto [opcode, mask, reuse] = GetParam();
    RsnPacket p;
    p.opcode = static_cast<FuType>(opcode);
    p.mask = static_cast<std::uint8_t>(mask);
    p.reuse = static_cast<std::uint16_t>(reuse);
    p.mops.assign(opcode % 7, uopFor(p.opcode));
    p.last = p.mops.empty();
    EXPECT_EQ(headerWordOf(p),
              std::uint32_t(opcode) << 28 | std::uint32_t(mask) << 20 |
                  std::uint32_t(p.last) << 19 | (opcode % 7) << 12 |
                  std::uint32_t(reuse));
    EXPECT_EQ(roundTrip(p), p);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, HeaderRoundTrip,
    ::testing::Combine(::testing::Values(0, 3, 7),
                       ::testing::Values(1, 0x3f, 0xff),
                       ::testing::Values(1, 128, 4095)));

TEST(PacketValidation, RejectsBadFields)
{
    std::string why;
    RsnPacket p = samplePacket();
    EXPECT_TRUE(p.valid(&why)) << why;

    RsnPacket bad = p;
    bad.mask = 0;
    EXPECT_FALSE(bad.valid(&why));

    bad = p;
    bad.reuse = 0;
    EXPECT_FALSE(bad.valid(&why));

    bad = p;
    bad.mops.clear();  // non-last with empty window
    EXPECT_FALSE(bad.valid(&why));
    bad.last = true;
    EXPECT_TRUE(bad.valid(&why));

    bad = p;
    bad.opcode = FuType::Mme;  // MemA uop under MME opcode
    EXPECT_FALSE(bad.valid(&why));
}

TEST(PacketValidation, RejectsHaltInWindow)
{
    // Halts ride on the `last` bit; the decoder injects them. A halt in
    // a window has no encoding, so the packet is invalid and the
    // assembler refuses it rather than emit bytes it cannot read back.
    RsnPacket p = samplePacket();
    p.mops.emplace_back(HaltUop{});
    EXPECT_FALSE(p.valid());
    RsnProgram prog;
    prog.append(p);
    EXPECT_THROW(assemble(prog), std::runtime_error);
}

/** Message of the error assemble() raises for @p prog ("" if none). */
std::string
assembleError(const RsnProgram &prog)
{
    try {
        (void)assemble(prog);
    } catch (const std::runtime_error &e) {
        return e.what();
    }
    return "";
}

TEST(Assembler, RejectsValuesTooWideForTheirField)
{
    // A DDR address past 4 GiB does not fit the 32-bit wire field: the
    // assembler names the packet, the field and the value instead of
    // truncating it.
    RsnProgram prog;
    prog.append(samplePacket());
    RsnPacket ddr;
    ddr.opcode = FuType::Ddr;
    ddr.mask = 1;
    DdrUop d;
    d.load = true;
    d.dest = {FuType::MemA, 0};
    d.addr = Addr(1) << 32;
    ddr.mops.emplace_back(d);
    prog.append(ddr);
    std::string err = assembleError(prog);
    EXPECT_NE(err.find("packet 1: field addr = 4294967296"),
              std::string::npos)
        << err;

    // The largest address that fits still round-trips.
    std::get<DdrUop>(ddr.mops[0]).addr = 0xffffffffu;
    EXPECT_EQ(roundTrip(ddr), ddr);

    // A mesh route count is 8 bits wide.
    RsnPacket mesh;
    mesh.opcode = FuType::MeshA;
    mesh.mask = 1;
    MeshUop mu;
    mu.routes.resize(256);
    mesh.mops.emplace_back(mu);
    RsnProgram wide;
    wide.append(mesh);
    err = assembleError(wide);
    EXPECT_NE(err.find("packet 0: field routes = 256"),
              std::string::npos)
        << err;
}

TEST(ExpandMop, StridedDdrUnrollsPerBlock)
{
    DdrUop u;
    u.load = true;
    u.dest = {FuType::MemA, 0};
    u.addr = 0x1000;
    u.stride_count = 4;
    u.stride_offset = 0x100;
    u.rows = 8;
    u.cols = 8;
    u.pitch = 8;
    std::vector<Uop> uops;
    expandMopInto(Uop{u}, uops);
    ASSERT_EQ(uops.size(), 4u);
    for (int i = 0; i < 4; ++i) {
        const auto &d = std::get<DdrUop>(uops[i]);
        EXPECT_EQ(d.addr, 0x1000u + i * 0x100u);
        EXPECT_EQ(d.stride_count, 1u);
        EXPECT_EQ(d.rows, 8u);
    }
}

TEST(ExpandMop, NonStridedPassesThrough)
{
    MmeUop u;
    u.reps = 4;
    std::vector<Uop> uops;
    expandMopInto(Uop{u}, uops);
    ASSERT_EQ(uops.size(), 1u);
    EXPECT_EQ(std::get<MmeUop>(uops[0]).reps, 4u);
}

TEST(Program, CountsBytesAndPackets)
{
    RsnProgram prog;
    prog.append(samplePacket());
    prog.append(samplePacket());
    RsnPacket ddr;
    ddr.opcode = FuType::Ddr;
    ddr.mask = 1;
    DdrUop du;
    du.load = true;
    du.dest = {FuType::MemA, 0};
    du.rows = du.cols = du.pitch = 8;
    ddr.mops.emplace_back(du);
    prog.append(ddr);

    EXPECT_EQ(prog.packetCount(FuType::MemA), 2u);
    EXPECT_EQ(prog.packetCount(FuType::Ddr), 1u);
    EXPECT_EQ(prog.instructionBytes(FuType::MemA),
              2 * (4 + wireBytes(MemAUop{})));
    EXPECT_EQ(prog.totalBytes(),
              2 * (4 + wireBytes(MemAUop{})) + 4 + wireBytes(DdrUop{}));
}

TEST(Program, ExpandedUopBytesAccountReuseAndMask)
{
    RsnProgram prog;
    RsnPacket p = samplePacket();  // mask 0x5 (2 FUs), reuse 12, 1 mop
    prog.append(p);
    EXPECT_EQ(prog.expandedUopBytes(FuType::MemA),
              12u * 2u * wireBytes(MemAUop{}));
}

TEST(Program, UopCountForSelectsInstance)
{
    RsnProgram prog;
    RsnPacket p = samplePacket();  // mask 0x5: instances 0 and 2
    prog.append(p);
    EXPECT_EQ(prog.uopCountFor({FuType::MemA, 0}), 12u);
    EXPECT_EQ(prog.uopCountFor({FuType::MemA, 1}), 0u);
    EXPECT_EQ(prog.uopCountFor({FuType::MemA, 2}), 12u);
}

TEST(Program, HaltsTargetEveryConfiguredInstance)
{
    RsnProgram prog;
    std::array<int, kNumFuTypes> counts{};
    counts[static_cast<int>(FuType::Mme)] = 6;
    counts[static_cast<int>(FuType::Ddr)] = 1;
    prog.appendHalts(counts);
    ASSERT_EQ(prog.size(), 2u);
    EXPECT_TRUE(prog.packets()[0].last);
    EXPECT_EQ(prog.packets()[0].mask, 0x3f);
    EXPECT_EQ(prog.uopCountFor({FuType::Mme, 5}), 1u);  // the halt
}

TEST(Assembler, RoundTripsEveryUopKind)
{
    RsnProgram prog;

    RsnPacket mme;
    mme.opcode = FuType::Mme;
    mme.mask = 0x3f;
    mme.reuse = 3;
    MmeUop m;
    m.reps = 4;
    m.k_steps = 8;
    m.tile_m = 768;
    m.tile_k = 128;
    m.tile_n = 1024;
    m.add_bias = true;
    m.out_dtype = Dtype::Bf16;
    mme.mops.emplace_back(m);
    m.out_dtype = Dtype::F16;
    m.accum_k = false;
    mme.mops.emplace_back(m);
    prog.append(mme);

    RsnPacket mesh;
    mesh.opcode = FuType::MeshA;
    mesh.mask = 1;
    MeshUop mu;
    mu.repeats = 96;
    mu.mode = MeshMode::Parallel;
    mu.routes.push_back({{FuType::MemA, 0}, {FuType::Mme, 0}});
    mu.routes.push_back({{FuType::MemC, 1}, {FuType::Mme, 4}});
    mesh.mops.emplace_back(mu);
    prog.append(mesh);

    RsnPacket ddr;
    ddr.opcode = FuType::Ddr;
    ddr.mask = 1;
    DdrUop d;
    d.addr = 0xABCD00;
    d.stride_count = 8;
    d.stride_offset = 512;
    d.load = true;
    d.dest = {FuType::MemA, 0};
    d.rows = 768;
    d.cols = 128;
    d.pitch = 1024;
    d.dtype = Dtype::Bf16;
    ddr.mops.emplace_back(d);
    d.load = false;
    d.store = true;
    d.src = {FuType::MemC, 5};
    d.dtype = Dtype::F16;
    ddr.mops.emplace_back(d);
    prog.append(ddr);

    RsnPacket lp;
    lp.opcode = FuType::Lpddr;
    lp.mask = 1;
    LpddrUop l;
    l.addr = 0x5000;
    l.dest = {FuType::MemB, 2};
    l.load_bias = true;
    l.rows = 2;
    l.cols = 1024;
    l.pitch = 1024;
    lp.mops.emplace_back(l);
    l.load_bias = false;
    l.dtype = Dtype::Bf16;
    lp.mops.emplace_back(l);
    l.dtype = Dtype::F16;
    lp.mops.emplace_back(l);
    prog.append(lp);

    RsnPacket ma = samplePacket();  // MemA, reuse 12
    ma.last = true;
    prog.append(ma);

    RsnPacket mb;
    mb.opcode = FuType::MemB;
    mb.mask = 0x7;
    MemBUop b;
    b.rows = 128;
    b.cols = 1024;
    b.src = {FuType::Lpddr, 0};
    b.load = true;
    b.send = true;
    b.transpose = true;
    mb.mops.emplace_back(b);
    prog.append(mb);

    RsnPacket mc;
    mc.opcode = FuType::MemC;
    mc.mask = 0x3f;
    MemCUop c;
    c.rows = 128;
    c.cols = 1024;
    c.recv_chunks = 1;
    c.send_chunks = 2;
    c.recv = true;
    c.store = true;
    c.softmax = true;
    c.scale_shift = true;
    c.add_residual = true;
    c.out_dtype = Dtype::Bf16;
    mc.mops.emplace_back(c);
    c.out_dtype = Dtype::F16;
    mc.mops.emplace_back(c);
    prog.append(mc);

    auto bytes = assemble(prog);
    EXPECT_EQ(bytes.size(), prog.totalBytes());
    RsnProgram back = disassemble(bytes);
    ASSERT_EQ(back.size(), prog.size());
    for (std::size_t i = 0; i < prog.size(); ++i) {
        const RsnPacket &a = prog.packets()[i], &b = back.packets()[i];
        EXPECT_EQ(b.opcode, a.opcode);
        EXPECT_EQ(b.mask, a.mask);
        EXPECT_EQ(b.last, a.last);
        EXPECT_EQ(b.reuse, a.reuse);
        ASSERT_EQ(b.mops.size(), a.mops.size());
        for (std::size_t j = 0; j < a.mops.size(); ++j)
            EXPECT_EQ(b.mops[j], a.mops[j])
                << "packet " << i << " mop " << j;
    }
}

TEST(Uop, WireBytesMatchSerializer)
{
    // Serialize one of each and compare against the declared size.
    auto sizeOf = [](Uop u, FuType t) {
        RsnProgram p;
        RsnPacket pkt;
        pkt.opcode = t;
        pkt.mask = 1;
        pkt.mops.push_back(std::move(u));
        p.append(pkt);
        return assemble(p).size() - 4;
    };
    EXPECT_EQ(sizeOf(MmeUop{}, FuType::Mme), wireBytes(MmeUop{}));
    EXPECT_EQ(sizeOf(DdrUop{}, FuType::Ddr), wireBytes(DdrUop{}));
    EXPECT_EQ(sizeOf(LpddrUop{}, FuType::Lpddr), wireBytes(LpddrUop{}));
    EXPECT_EQ(sizeOf(MemAUop{}, FuType::MemA), wireBytes(MemAUop{}));
    EXPECT_EQ(sizeOf(MemBUop{}, FuType::MemB), wireBytes(MemBUop{}));
    EXPECT_EQ(sizeOf(MemCUop{}, FuType::MemC), wireBytes(MemCUop{}));
    MeshUop mu;
    mu.routes.resize(6);
    EXPECT_EQ(sizeOf(mu, FuType::MeshA), wireBytes(mu));

    // The sizes Fig. 9's compression ratios are computed from; a field
    // list change that moves one fails to compile here.
    static_assert(wireBytes(MmeUop{}) == 11);
    static_assert(wireBytes(DdrUop{}) == 25);
    static_assert(wireBytes(LpddrUop{}) == 24);
    static_assert(wireBytes(MemAUop{}) == 7);
    static_assert(wireBytes(MemBUop{}) == 6);
    static_assert(wireBytes(MemCUop{}) == 11);
    static_assert(wireBytes(HaltUop{}) == 1);
    EXPECT_EQ(wireBytes(mu), 6u + 2u * 6u);
}

TEST(Uop, ToStringIsNonEmptyForAllKinds)
{
    EXPECT_FALSE(uopToString(Uop{MmeUop{}}).empty());
    EXPECT_FALSE(uopToString(Uop{DdrUop{}}).empty());
    EXPECT_FALSE(uopToString(Uop{LpddrUop{}}).empty());
    MeshUop mu;
    mu.routes.push_back({{FuType::MemA, 0}, {FuType::Mme, 0}});
    EXPECT_NE(uopToString(Uop{mu}).find("MemA0->MME0"),
              std::string::npos);
    EXPECT_FALSE(uopToString(Uop{MemAUop{}}).empty());
    EXPECT_FALSE(uopToString(Uop{MemBUop{}}).empty());
    EXPECT_FALSE(uopToString(Uop{MemCUop{}}).empty());
    EXPECT_EQ(uopToString(Uop{HaltUop{}}), "halt");
}

TEST(Uop, MatchesFuType)
{
    EXPECT_TRUE(uopMatchesFuType(Uop{MmeUop{}}, FuType::Mme));
    EXPECT_FALSE(uopMatchesFuType(Uop{MmeUop{}}, FuType::MemA));
    EXPECT_TRUE(uopMatchesFuType(Uop{MeshUop{}}, FuType::MeshA));
    EXPECT_TRUE(uopMatchesFuType(Uop{MeshUop{}}, FuType::MeshB));
    EXPECT_FALSE(uopMatchesFuType(Uop{MeshUop{}}, FuType::Ddr));
    // A halt is never a window uOP: the decoder injects it on `last`.
    for (int t = 0; t < kNumFuTypes; ++t)
        EXPECT_FALSE(uopMatchesFuType(Uop{HaltUop{}},
                                      static_cast<FuType>(t)));
}

} // namespace
