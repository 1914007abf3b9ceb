/**
 * @file
 * RSN instruction packets and programs (paper Sec. 3.3, Fig. 8).
 *
 * A program is a single sequence of UDP-like instruction packets. Each
 * packet has a 32-bit header — opcode (FU type), mask (targeted FU
 * instances), last (FU exit), window size (mOPs in this packet), reuse
 * (replay count) — followed by a payload of mOPs. Second-level decoders
 * expand the mOP window into uOPs (a strided DDR/LPDDR mOP becomes
 * stride_count single-block uOPs) and replay it @c reuse times into each
 * FU's uOP queue, the third level.
 *
 * Instruction compression (Fig. 9) = assembled packet bytes vs. the bytes
 * of the fully-expanded uOP streams.
 */

#ifndef RSN_ISA_PACKET_HH
#define RSN_ISA_PACKET_HH

#include <array>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "isa/uop.hh"

namespace rsn::isa {

/** Packet header field limits imposed by the 32-bit encoding. */
inline constexpr std::uint32_t kMaxWindow = 127;   ///< 7 bits.
inline constexpr std::uint32_t kMaxReuse = 4095;   ///< 12 bits.
inline constexpr std::uint32_t kMaxMaskBits = 8;   ///< 8 FU instances.

/** One RSN instruction packet. */
struct RsnPacket {
    FuType opcode = FuType::NumTypes;
    std::uint8_t mask = 0;      ///< Bit i selects FU instance i.
    bool last = false;          ///< Signals FU exit after this packet.
    std::uint16_t reuse = 1;    ///< Times the mOP window replays.
    std::vector<Uop> mops;      ///< The mOP window (size = "window size").

    /**
     * Wire format (uop.hh's field-list convention): the 32-bit header
     * opcode:4 | mask:8 | last:1 | window:7 | reuse:12, most significant
     * field first, then the window's mOPs, whose kind the opcode picks.
     */
    static constexpr void
    fields(auto &p, auto &v)
    {
        v.num("reuse", p.reuse, 12);
        v.count("window", p.mops, 7);
        v.num("last", p.last, 1);
        v.num("mask", p.mask, 8);
        v.num("opcode", p.opcode, 4);
        for (auto &m : p.mops)
            v.uop(p.opcode, m);
    }

    /** Assembled size: 4-byte header + serialized mOPs. */
    Bytes wireBytes() const { return isa::wireBytes(*this); }

    /** Check structural validity (field ranges, uOP/opcode agreement,
     *  no halt in the window). */
    bool valid(std::string *why = nullptr) const;

    bool operator==(const RsnPacket &) const = default;
};

/**
 * Append @p mop's uOP sequence to @p out (the decoder's expansion, which
 * fills its uOP cache). A strided DDR/LPDDR mOP unrolls into one
 * single-block uOP per stride; everything else passes through unchanged.
 */
void expandMopInto(const Uop &mop, std::vector<Uop> &out);

/** A full RSN program: the packet sequence plus measurement helpers. */
class RsnProgram
{
  public:
    void append(RsnPacket p) { packets_.push_back(std::move(p)); }
    const std::vector<RsnPacket> &packets() const { return packets_; }
    std::size_t size() const { return packets_.size(); }
    bool empty() const { return packets_.empty(); }

    /** Append `last` packets halting every FU instance in @p counts. */
    void appendHalts(const std::array<int, kNumFuTypes> &counts);

    /** Validate every packet; fatal on the first invalid one. */
    void validate() const;

    /** Number of packets targeting @p t. */
    std::uint64_t packetCount(FuType t) const;

    /** Assembled instruction bytes targeting @p t (incl. headers). */
    Bytes instructionBytes(FuType t) const;

    /** Total assembled program bytes. */
    Bytes totalBytes() const;

    /**
     * Bytes of the fully-expanded uOP streams for @p t: every reuse
     * iteration, every masked FU instance, every expanded uOP.
     */
    Bytes expandedUopBytes(FuType t) const;

    /** Expanded uOP count for one FU instance. */
    std::uint64_t uopCountFor(FuId fu) const;

  private:
    std::vector<RsnPacket> packets_;
};

/** Serialize a program to bytes (assembler). Fatal on an invalid
 *  packet or on a field value too wide for its wire field. */
std::vector<std::uint8_t> assemble(const RsnProgram &prog);

/** Parse bytes back into packets (disassembler). Fatal unless the
 *  bytes decode to a valid program. */
RsnProgram disassemble(const std::vector<std::uint8_t> &bytes);

} // namespace rsn::isa

#endif // RSN_ISA_PACKET_HH
