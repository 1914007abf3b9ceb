/**
 * @file
 * Micro-operation (uOP) control planes for every FU type.
 *
 * These transcribe paper Table 2 ("uOP Control Planes Managing FUs in
 * RSN-XNN"). A uOP carries *control information only* — never data — so
 * instructions stay off the critical path (Sec. 2.4). Each uOP launches a
 * single kernel execution on its FU.
 *
 * Wire format. Every uOP struct lists its fields once, in wire order, in
 * a static `fields(u, v)`. The list is a little-endian bit stream: each
 * entry takes the next `bits` bits, least significant first, so 16- and
 * 32-bit fields land as little-endian integers and flag bits pack into a
 * flag field from bit 0 up. Four visitors walk the list: the assembler's
 * writer and the disassembler's reader (packet.cc), the byte counter
 * (wireBytes below, the sizes Fig. 9's compression ratios are computed
 * from) and the printer (uopToString). Each handles four entries:
 *
 *   v.num(name, field, bits)   an integer, bool or enum of that width
 *   v.fu(name, field)          a FuId in one byte: index:4, then type:4
 *   v.pad(bits)                reserved bits, written as zero
 *   v.list(name, vec, bits)    a count of that width, then each
 *                              element's own field list
 *
 * RsnPacket (packet.hh) lists its header the same way, followed by its
 * window's uOPs (v.count, v.uop), so one walk covers a whole program.
 * A value too wide for its field is an assembler error, never truncated.
 */

#ifndef RSN_ISA_UOP_HH
#define RSN_ISA_UOP_HH

#include <cstdint>
#include <string>
#include <variant>
#include <vector>

#include "common/dtype.hh"
#include "common/types.hh"

namespace rsn::isa {

/** Width of the DDR/LPDDR `addr` field: every off-chip tensor must end
 *  at or below 2^kAddrBits bytes (ProgramBuilder::declareTensor). */
inline constexpr int kAddrBits = 32;

/**
 * MME: "matrix size, tile size, add bias, add previous layer, calculate
 * scale and shift, accumulate along k".
 *
 * One uOP directs the computation of @c reps output slabs; each slab
 * accumulates @c k_steps pairs of (LHS, RHS) chunks. Sizes are the
 * *per-chunk* dimensions seen by this MME (after mesh slicing).
 */
struct MmeUop {
    std::uint16_t reps = 1;       ///< Output slabs to produce.
    std::uint16_t k_steps = 1;    ///< Accumulation chunks per slab.
    std::uint16_t tile_m = 0;     ///< Rows per LHS chunk / output slab.
    std::uint16_t tile_k = 0;     ///< Depth per chunk pair.
    std::uint16_t tile_n = 0;     ///< Cols per RHS chunk / output slab.
    bool add_bias = false;        ///< Consume a bias chunk first, add it.
    bool accum_k = true;          ///< Accumulate along k before emitting.
    /** Element type of the emitted output slabs. The accumulator is
     *  always FP32; the result is downconverted just before emit.
     *  Operand dtypes arrive on the chunks themselves. */
    Dtype out_dtype = Dtype::F32;

    bool operator==(const MmeUop &) const = default;
    static constexpr const char *kName = "mme";
    static constexpr void
    fields(auto &u, auto &v)
    {
        v.num("reps", u.reps, 16);
        v.num("k_steps", u.k_steps, 16);
        v.num("tile_m", u.tile_m, 16);
        v.num("tile_k", u.tile_k, 16);
        v.num("tile_n", u.tile_n, 16);
        v.num("add_bias", u.add_bias, 1);
        v.num("accum_k", u.accum_k, 1);
        v.num("out_dtype", u.out_dtype, 2);
        v.pad(4);
    }
};

/**
 * DDR: "addr, stride size, stride offset, stride count, load, destFU,
 * store, srcFU". Moves feature maps between off-chip DDR and on-chip FUs.
 *
 * A load reads one block and streams it to @c dest; a store receives one
 * chunk from @c src and writes it back. A strided mOP (@c stride_count
 * blocks, @c addr advancing by @c stride_offset bytes) is expanded into
 * single-block uOPs by the decoder (expandMopInto), as for LPDDR.
 */
struct DdrUop {
    Addr addr = 0;
    std::uint32_t stride_offset = 0;  ///< Byte advance between blocks.
    std::uint16_t stride_count = 1;   ///< Number of blocks.
    bool load = false;
    FuId dest = kNoFu;
    bool store = false;
    FuId src = kNoFu;
    /** Block geometry (rows x cols elements, row pitch in elements). */
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint32_t pitch = 0;
    /** Device-side element type: loads emit chunks of this dtype (host
     *  truth is FP32; conversion happens at the DDR boundary) and DRAM
     *  traffic is rows*cols*dtypeBytes(dtype) per block. */
    Dtype dtype = Dtype::F32;

    bool operator==(const DdrUop &) const = default;
    static constexpr const char *kName = "ddr";
    static constexpr void
    fields(auto &u, auto &v)
    {
        v.num("addr", u.addr, kAddrBits);
        v.num("stride_offset", u.stride_offset, 32);
        v.num("stride_count", u.stride_count, 16);
        v.num("load", u.load, 1);
        v.num("store", u.store, 1);
        v.num("dtype", u.dtype, 2);
        v.pad(4);
        v.fu("dest", u.dest);
        v.fu("src", u.src);
        v.num("rows", u.rows, 32);
        v.num("cols", u.cols, 32);
        v.num("pitch", u.pitch, 32);
    }
};

/** LPDDR: "addr, stride size, stride offset, stride count, destFU,
 *  load bias". Loads read-only weights and bias. */
struct LpddrUop {
    Addr addr = 0;
    std::uint32_t stride_offset = 0;
    std::uint16_t stride_count = 1;
    FuId dest = kNoFu;
    bool load_bias = false;  ///< Block is a bias / LN-parameter vector.
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::uint32_t pitch = 0;
    /** Device-side element type of the loaded block (weights). Bias /
     *  LN-parameter vectors must stay F32 (see docs/datapath.md). */
    Dtype dtype = Dtype::F32;

    bool operator==(const LpddrUop &) const = default;
    static constexpr const char *kName = "lpddr";
    static constexpr void
    fields(auto &u, auto &v)
    {
        v.num("addr", u.addr, kAddrBits);
        v.num("stride_offset", u.stride_offset, 32);
        v.num("stride_count", u.stride_count, 16);
        v.fu("dest", u.dest);
        v.num("load_bias", u.load_bias, 1);
        v.pad(1);
        v.num("dtype", u.dtype, 2);
        v.pad(4);
        v.num("rows", u.rows, 32);
        v.num("cols", u.cols, 32);
        v.num("pitch", u.pitch, 32);
    }
};

/** One mesh route: move chunks from FU @c src to FU @c dst. */
struct MeshRoute {
    FuId src;
    FuId dst;
    bool operator==(const MeshRoute &) const = default;
    static constexpr void
    fields(auto &r, auto &v)
    {
        v.fu("src", r.src);
        v.fu("dst", r.dst);
    }
};

/** How a mesh kernel interprets its route list. */
enum class MeshMode : std::uint8_t {
    Parallel,    ///< Independent routes forward concurrently.
    Broadcast,   ///< One source replicated to every destination.
    Distribute,  ///< Round-robin: chunk i goes to route (i % routes).
};

/**
 * MeshA/B: "size, srcFUs, destFUs".
 *
 * Parallel mode serves pipelined mappings (distinct producer/consumer
 * pairs); Broadcast serves shared operands (one RHS tile to every MME);
 * Distribute deals consecutive chunks from one source across the MMEs
 * (M-split of an LHS tile). @c repeats iterations flow per kernel.
 */
struct MeshUop {
    std::uint32_t repeats = 1;
    MeshMode mode = MeshMode::Parallel;
    std::vector<MeshRoute> routes;

    bool operator==(const MeshUop &) const = default;
    static constexpr const char *kName = "mesh";
    static constexpr void
    fields(auto &u, auto &v)
    {
        v.num("repeats", u.repeats, 32);
        v.num("mode", u.mode, 8);
        v.list("routes", u.routes, 8);
    }
};

/**
 * MemA: "matrix size, tile size, srcFU, load data, send to MME".
 *
 * Holds one LHS tile in a ping-pong buffer pair. When both load and send
 * are set, the two run in parallel on opposite buffers (Fig. 7b).
 * Sending slices the buffered tile into @c slices row-slices, one per
 * destination MME.
 */
struct MemAUop {
    std::uint16_t rows = 0;
    std::uint16_t cols = 0;
    std::uint8_t slices = 1;
    FuId src = kNoFu;       ///< Producer of loaded data (DDR).
    bool load = false;
    bool send = false;

    bool operator==(const MemAUop &) const = default;
    static constexpr const char *kName = "memA";
    static constexpr void
    fields(auto &u, auto &v)
    {
        v.num("rows", u.rows, 16);
        v.num("cols", u.cols, 16);
        v.num("slices", u.slices, 8);
        v.fu("src", u.src);
        v.num("load", u.load, 1);
        v.num("send", u.send, 1);
        v.pad(6);
    }
};

/**
 * MemB: "matrix size, tile size, load data, send to MME, transpose input,
 * load bias". Holds one RHS tile; optionally transposes (attention K^T)
 * and forwards a bias vector ahead of the tile.
 */
struct MemBUop {
    std::uint16_t rows = 0;
    std::uint16_t cols = 0;
    FuId src = kNoFu;
    bool load = false;
    bool send = false;
    bool transpose = false;
    bool load_bias = false;  ///< Also receive + forward a bias chunk.

    bool operator==(const MemBUop &) const = default;
    static constexpr const char *kName = "memB";
    static constexpr void
    fields(auto &u, auto &v)
    {
        v.num("rows", u.rows, 16);
        v.num("cols", u.cols, 16);
        v.fu("src", u.src);
        v.num("load", u.load, 1);
        v.num("send", u.send, 1);
        v.num("transpose", u.transpose, 1);
        v.num("load_bias", u.load_bias, 1);
        v.pad(4);
    }
};

/**
 * MemC: "matrix size from MME, matrix size to DDR, tile size from MME,
 * tile size to DDR, receive from MME, send to MME, softmax, gelu,
 * mean/variance/normalization". Plus residual add and LN scale&shift,
 * which this implementation hosts in MemC (see DESIGN.md deviations).
 *
 * Ping-pong buffered: a receive kernel fills one buffer while a
 * send/store kernel drains the other, enabling the paper's RCEV/SEND
 * overlap around Softmax (Fig. 11).
 */
struct MemCUop {
    std::uint16_t rows = 0;      ///< Buffered tile rows.
    std::uint16_t cols = 0;      ///< Buffered tile cols.
    std::uint16_t recv_chunks = 1;  ///< Chunks to receive from MME.
    std::uint16_t send_chunks = 1;  ///< Chunks to emit when sending.
    bool recv = false;           ///< Receive tile from the partner MME.
    bool store = false;          ///< Emit tile toward the DDR FU.
    bool send_mme = false;       ///< Emit tile toward a mesh (next MM).
    FuId send_dest = kNoFu;      ///< MeshA or MeshB when send_mme.
    bool softmax = false;
    bool gelu = false;
    bool layernorm = false;      ///< Mean/variance/normalize rows.
    bool scale_shift = false;    ///< Apply gamma/beta (recv params first).
    bool add_residual = false;   ///< Add a residual tile (recv it first).
    /** Element type of emitted chunks (store / send_mme). Fused
     *  operators always compute in FP32 — a typed buffered tile is
     *  upconverted once before the first fused op and downconverted to
     *  this dtype on the way out. */
    Dtype out_dtype = Dtype::F32;

    bool operator==(const MemCUop &) const = default;
    static constexpr const char *kName = "memC";
    static constexpr void
    fields(auto &u, auto &v)
    {
        v.num("rows", u.rows, 16);
        v.num("cols", u.cols, 16);
        v.num("recv_chunks", u.recv_chunks, 16);
        v.num("send_chunks", u.send_chunks, 16);
        v.fu("send_dest", u.send_dest);
        v.num("recv", u.recv, 1);
        v.num("store", u.store, 1);
        v.num("send_mme", u.send_mme, 1);
        v.num("softmax", u.softmax, 1);
        v.num("gelu", u.gelu, 1);
        v.num("layernorm", u.layernorm, 1);
        v.num("scale_shift", u.scale_shift, 1);
        v.num("add_residual", u.add_residual, 1);
        v.num("out_dtype", u.out_dtype, 2);
        v.pad(6);
    }
};

/**
 * Decoder-injected uOP that terminates an FU's kernel loop ("last").
 * Its one byte counts in the expanded uOP streams (Fig. 9); it never
 * travels in a packet window, which RsnPacket::valid() enforces.
 */
struct HaltUop {
    bool operator==(const HaltUop &) const = default;
    static constexpr const char *kName = "halt";
    static constexpr void fields(auto &, auto &v) { v.pad(8); }
};

/** A uOP for any FU type. */
using Uop = std::variant<MmeUop, DdrUop, LpddrUop, MeshUop, MemAUop,
                         MemBUop, MemCUop, HaltUop>;

/** Debug rendering of any uOP: its kind, then each field. */
std::string uopToString(const Uop &u);

/** Short name of a uOP's kind ("mme", "ddr", ..., "halt"). */
const char *uopKindName(const Uop &u);

/** A default uOP of the kind FU type @p t runs (MeshUop for both
 *  meshes; HaltUop for an invalid type). */
Uop uopFor(FuType t);

/** FU type a uOP kind belongs to (Mesh uOPs fit both MeshA and MeshB).
 *  A halt fits none: the decoder injects it on a packet's `last` bit. */
bool uopMatchesFuType(const Uop &u, FuType t);

/**
 * Base of the visitors that see every entry as bits — the writer, the
 * reader and the byte counter: a FuId, a pad, a count, a list and a
 * window uOP all reduce to Derived::num.
 */
template <class Derived>
struct BitVisitor {
    /** A FuId is one byte: index in the low nibble, type in the high. */
    constexpr void
    fu(const char *, auto &f)
    {
        self().num("index", f.index, 4);
        self().num("type", f.type, 4);
    }
    constexpr void
    pad(int bits)
    {
        std::uint64_t zero = 0;
        self().num("pad", zero, bits);
    }
    /** A count of that width alone; the elements follow elsewhere. */
    constexpr void
    count(const char *name, auto &elems, int bits)
    {
        std::size_t n = elems.size();
        self().num(name, n, bits);
        if constexpr (requires { elems.resize(n); })
            elems.resize(n);
    }
    constexpr void
    list(const char *name, auto &elems, int bits)
    {
        count(name, elems, bits);
        for (auto &e : elems)
            e.fields(e, self());
    }
    /** A packet-window uOP: its kind is the one @p opcode runs. */
    constexpr void
    uop(FuType opcode, auto &m)
    {
        if constexpr (requires { m = uopFor(opcode); })
            m = uopFor(opcode);
        std::visit([&](auto &u) { u.fields(u, self()); }, m);
    }
    constexpr Derived &self() { return static_cast<Derived &>(*this); }
};

/** The byte counter. */
struct WireCounter : BitVisitor<WireCounter> {
    Bytes bits = 0;
    constexpr void num(const char *, const auto &, int b) { bits += b; }
};

/** Wire size of one uOP (a compile-time constant for every kind but
 *  MeshUop). Rounds up, so a field list that is not whole bytes shows
 *  as a mismatch against the writer (Uop.WireBytesMatchSerializer). */
template <class U>
constexpr Bytes
wireBytes(const U &u)
{
    WireCounter c;
    U::fields(u, c);
    return (c.bits + 7) / 8;
}

} // namespace rsn::isa

#endif // RSN_ISA_UOP_HH
