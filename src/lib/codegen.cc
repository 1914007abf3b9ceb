#include "lib/codegen.hh"

#include <algorithm>
#include <array>
#include <map>
#include <type_traits>

#include "common/log.hh"
#include "fu/mem_fus.hh"

namespace rsn::lib {

namespace {

constexpr FuId kMeshA{FuType::MeshA, 0};
constexpr FuId kDdr{FuType::Ddr, 0};
constexpr FuId kLpddr{FuType::Lpddr, 0};

std::uint32_t
ceilDiv(std::uint32_t a, std::uint32_t b)
{
    return (a + b - 1) / b;
}

/** @{ uOP constructors for the fields every mapping sets. Narrower uOP
 *  fields take the low bits, as a plain assignment would. */
isa::MmeUop
mmeUop(std::uint32_t reps, std::uint32_t k_steps, std::uint32_t m,
       std::uint32_t k, std::uint32_t n, Dtype out)
{
    isa::MmeUop u;
    u.reps = reps;
    u.k_steps = k_steps;
    u.tile_m = m;
    u.tile_k = k;
    u.tile_n = n;
    u.out_dtype = out;
    return u;
}

/** A MemA fill: load a rows x cols LHS tile from DDR. */
isa::MemAUop
memAFill(std::uint32_t rows, std::uint32_t cols, std::uint32_t slices)
{
    isa::MemAUop u;
    u.rows = rows;
    u.cols = cols;
    u.slices = slices;
    u.src = kDdr;
    u.load = true;
    return u;
}

/** A MemB fill: load a rows x cols RHS tile from @p src. */
isa::MemBUop
memBFill(std::uint32_t rows, std::uint32_t cols, FuId src,
         bool transpose = false)
{
    isa::MemBUop u;
    u.rows = rows;
    u.cols = cols;
    u.src = src;
    u.load = true;
    u.transpose = transpose;
    return u;
}

/** A MemC fill: receive a rows x cols tile from the partner MME, to be
 *  emitted later in @p send_chunks pieces of @p out. */
isa::MemCUop
memCFill(std::uint32_t rows, std::uint32_t cols, std::uint32_t send_chunks,
         Dtype out)
{
    isa::MemCUop u;
    u.rows = rows;
    u.cols = cols;
    u.recv_chunks = 1;
    u.send_chunks = send_chunks;
    u.recv = true;
    u.out_dtype = out;
    return u;
}
/** @} */

/** The MemA/MemB drain of @p fill: a send of its geometry only. */
template <typename U>
U
sendOnly(const U &fill)
{
    U u;
    u.rows = fill.rows;
    u.cols = fill.cols;
    if constexpr (std::is_same_v<U, isa::MemAUop>)
        u.slices = fill.slices;
    u.send = true;
    return u;
}

/** The MemC drain of @p fill: the same tile with no receive and no fused
 *  operator, stored to DDR or, given @p mesh, re-injected into it. */
isa::MemCUop
memCDrain(isa::MemCUop fill, FuId mesh = kNoFu)
{
    fill.recv = fill.softmax = fill.gelu = fill.layernorm = false;
    fill.scale_shift = fill.add_residual = false;
    fill.store = mesh == kNoFu;
    fill.send_mme = !fill.store;
    fill.send_dest = mesh;
    return fill;
}

/** @p fill that also drains the other buffer: the steady-state uOP of a
 *  double-buffered scratchpad (Fig. 7b load ∥ send, Fig. 11 RCEV ∥ SEND). */
template <typename U>
U
withDrain(U fill, const U &drain)
{
    if constexpr (std::is_same_v<U, isa::MemCUop>) {
        fill.store = drain.store;
        fill.send_mme = drain.send_mme;
        fill.send_dest = drain.send_dest;
    } else {
        fill.send = drain.send;
    }
    return fill;
}

/** A single-block DDR/LPDDR uOP: @p rows x @p cols elements from element
 *  (@p row, @p col) of row-major tensor @p t, @p dtype on the device. */
template <typename U>
U
blockOf(const TensorInfo &t, Addr row, Addr col, std::uint32_t rows,
        std::uint32_t cols, Dtype dtype)
{
    U u;
    u.addr = t.addr + (row * t.cols + col) * sizeof(float);
    u.rows = rows;
    u.cols = cols;
    u.pitch = t.cols;
    u.dtype = dtype;
    return u;
}

/** Head @p h's seq x dhead block of attention tensor @p t: the heads of
 *  one batch sit side by side from column @p col_off, batches stack. */
isa::DdrUop
headBlock(const AttentionBlock &a, const TensorInfo &t,
          std::uint32_t col_off, std::uint32_t h, Dtype dtype)
{
    return blockOf<isa::DdrUop>(
        t, Addr(h / a.heads_per_batch) * a.seq,
        col_off + Addr(h % a.heads_per_batch) * a.dhead, a.seq, a.dhead,
        dtype);
}

} // namespace

const TensorInfo &
CompiledModel::tensor(const std::string &name) const
{
    for (const auto &t : tensors)
        if (t.name == name)
            return t;
    rsn_fatal("unknown tensor '%s'", name.c_str());
}

bool
CompiledModel::hasTensor(const std::string &name) const
{
    for (const auto &t : tensors)
        if (t.name == name)
            return true;
    return false;
}

ProgramBuilder::ProgramBuilder(core::RsnMachine &machine,
                               ScheduleOptions opts)
    : mach_(machine), opts_(opts)
{
    rsn_assert(opts.store_split >= 1, "store_split must be >= 1");
}

void
ProgramBuilder::emit(FuType op, std::uint8_t mask, isa::Uop u)
{
    rsn_assert(mask != 0, "empty mask");
    rsn_assert(isa::uopMatchesFuType(u, op), "uop/op mismatch");
    entries_.push_back(Entry{op, mask, std::move(u)});
}

namespace {

/** Byte span a DDR block uOP touches (bounding range). */
std::pair<Addr, Addr>
blockSpan(const isa::DdrUop &u)
{
    Addr end = u.addr +
               (Addr(u.rows ? u.rows - 1 : 0) * u.pitch + u.cols) *
                   sizeof(float);
    return {u.addr, end};
}

bool
spansOverlap(std::pair<Addr, Addr> a, std::pair<Addr, Addr> b)
{
    return a.first < b.second && b.first < a.second;
}

} // namespace

void
ProgramBuilder::emitDdrLoad(FuId dest, isa::DdrUop u, std::uint32_t drain)
{
    u.dest = dest;
    u.load = true;
    u.store = false;
    // True data dependencies override overlap: any pending store whose
    // range intersects this load must land first (DDR executes in
    // program order, so ordering the uOPs is sufficient). Queue order is
    // preserved, so everything up to the last conflicting piece drains.
    auto load_span = blockSpan(u);
    std::size_t drain_to = 0;
    for (std::size_t i = 0; i < pending_stores_.size(); ++i)
        if (spansOverlap(load_span, blockSpan(pending_stores_[i])))
            drain_to = i + 1;
    for (std::size_t i = 0; i < drain_to; ++i) {
        emit(FuType::Ddr, 1, pending_stores_.front());
        pending_stores_.pop_front();
    }
    emit(FuType::Ddr, 1, u);
    if (!opts_.interleave_load_store)
        return;
    // Drain queued store pieces into this load's gap (Sec. 4.4) — but
    // keep `store_lag_` pieces pending: a tile's results only exist once
    // its compute finishes, one tile behind the load front. Draining too
    // eagerly would block the in-order DDR FU on data that is not ready
    // yet and serialize the pipeline.
    for (std::uint32_t i = 0;
         i < drain && pending_stores_.size() > store_lag_; ++i) {
        emit(FuType::Ddr, 1, pending_stores_.front());
        pending_stores_.pop_front();
    }
}

void
ProgramBuilder::queueDdrStore(FuId src, isa::DdrUop u)
{
    u.src = src;
    u.load = false;
    u.store = true;
    if (opts_.interleave_load_store) {
        pending_stores_.push_back(std::move(u));
    } else {
        emit(FuType::Ddr, 1, std::move(u));
    }
}

void
ProgramBuilder::emitLpddrLoad(FuId dest, isa::LpddrUop u)
{
    u.dest = dest;
    emit(FuType::Lpddr, 0x1, u);
}

void
ProgramBuilder::flushStores()
{
    while (!pending_stores_.empty()) {
        emit(FuType::Ddr, 1, pending_stores_.front());
        pending_stores_.pop_front();
    }
}

TensorInfo
ProgramBuilder::declareTensor(const std::string &name, std::uint32_t rows,
                              std::uint32_t cols, bool weight)
{
    for (auto &t : tensors_) {
        if (t.name == name) {
            rsn_assert(t.rows == rows && t.cols == cols,
                       "tensor '%s' redeclared with new shape",
                       name.c_str());
            return t;
        }
    }
    TensorInfo t;
    t.name = name;
    t.rows = rows;
    t.cols = cols;
    t.is_weight = weight;
    const std::uint64_t elems = std::uint64_t(rows) * cols;
    t.addr = mach_.host().alloc(elems, name);
    // The uOP addr field cannot encode a block of a tensor that ends
    // past its width; reject the model here rather than simulate a
    // program that has no encoding.
    const Addr end = t.addr + elems * sizeof(float);
    if (end > Addr(1) << isa::kAddrBits)
        rsn_fatal("tensor '%s' ends at byte %llu, past the %d-bit DDR/LPDDR "
                  "address space",
                  name.c_str(), static_cast<unsigned long long>(end),
                  isa::kAddrBits);
    tensors_.push_back(t);
    return t;
}

TensorInfo
ProgramBuilder::tensor(const std::string &name) const
{
    for (const auto &t : tensors_)
        if (t.name == name)
            return t;
    rsn_fatal("tensor '%s' used before declaration", name.c_str());
}

template <typename U>
ProgramBuilder::UopStream
ProgramBuilder::pingPong(std::uint8_t mask, std::initializer_list<U> fills,
                         const U &drain, std::uint64_t chunks) const
{
    UopStream s{mask, {}};
    const bool overlap = opts_.double_buffer && chunks > 1;
    for (std::uint64_t i = 0; i < chunks; ++i) {
        const U &fill = fills.begin()[i % fills.size()];
        if (overlap) {
            s.uops.push_back(i == 0 ? fill : withDrain(fill, drain));
        } else {
            s.uops.push_back(fill);
            s.uops.push_back(drain);
        }
    }
    if (overlap)
        s.uops.push_back(drain);
    return s;
}

void
ProgramBuilder::emitInterleaved(FuType op,
                                const std::vector<UopStream> &streams)
{
    // Stay below the per-FU uOP FIFO so one stream's block never wedges
    // the shared second-level decoder.
    const std::size_t depth = mach_.config().uop_fifo_depth;
    rsn_assert(depth > 0, "interleave block must fit the uOP FIFO");
    const std::size_t block = std::clamp<std::size_t>(depth - 1, 1, 4);
    std::vector<std::size_t> pos(streams.size(), 0);
    bool more = true;
    while (more) {
        more = false;
        for (std::size_t s = 0; s < streams.size(); ++s) {
            std::size_t n = std::min(block,
                                     streams[s].uops.size() - pos[s]);
            for (std::size_t i = 0; i < n; ++i)
                emit(op, streams[s].mask, streams[s].uops[pos[s] + i]);
            pos[s] += n;
            if (pos[s] < streams[s].uops.size())
                more = true;
        }
    }
}

template <typename RouteFn>
void
ProgramBuilder::emitLaneMeshes(std::uint32_t heads, std::uint32_t lanes,
                               RouteFn routes)
{
    for (auto [upto, repeats] : {std::pair{lanes, heads / lanes},
                                 std::pair{heads % lanes, 1u}}) {
        if (upto == 0 || repeats == 0)
            continue;
        isa::MeshUop ma;
        ma.repeats = repeats;
        ma.mode = isa::MeshMode::Parallel;
        isa::MeshUop mb = ma;
        routes(upto, ma.routes, mb.routes);
        emit(FuType::MeshA, 0x1, ma);
        emit(FuType::MeshB, 0x1, mb);
    }
}

void
ProgramBuilder::beginSegment()
{
    segment_start_ = entries_.size();
}

void
ProgramBuilder::endSegment()
{
    // Partition the segment's entries per FU type (order preserved).
    std::array<std::vector<Entry>, kNumFuTypes> lanes;
    for (std::size_t i = segment_start_; i < entries_.size(); ++i)
        lanes[static_cast<int>(entries_[i].op)].push_back(
            std::move(entries_[i]));
    entries_.resize(segment_start_);

    // MME and mesh control is a handful of long-running uOPs (reps /
    // repeats cover the whole segment): they must reach their FUs before
    // any data flows, so they lead the segment.
    for (FuType t : {FuType::Mme, FuType::MeshA, FuType::MeshB}) {
        auto &lane = lanes[static_cast<int>(t)];
        for (auto &e : lane)
            entries_.push_back(std::move(e));
        lane.clear();
    }

    // Pace every other type's stream proportionally so control uOPs
    // arrive in lockstep with the data movement they direct. Instruction
    // consumption is data-paced: emitting one type's stream faster than
    // its data flows would pile unconsumed packets into its FIFO and
    // eventually stall the shared fetch unit ahead of the DDR packets the
    // whole pipeline depends on.
    auto cap_for = [&](FuType t) -> std::size_t {
        return (t == FuType::Ddr || t == FuType::Lpddr) ? 8 : 4;
    };
    std::size_t rounds = 1;
    for (int t = 0; t < kNumFuTypes; ++t) {
        std::size_t need = (lanes[t].size() + cap_for(FuType(t)) - 1) /
                           cap_for(FuType(t));
        rounds = std::max(rounds, need);
    }
    // Bresenham pacing: after round r, exactly floor((r+1) * len / rounds)
    // entries of each type have been emitted, so no stream runs ahead of
    // the others by more than one entry per round.
    std::array<std::size_t, kNumFuTypes> pos{};
    for (std::size_t r = 0; r < rounds; ++r) {
        for (int t = 0; t < kNumFuTypes; ++t) {
            auto &lane = lanes[t];
            std::size_t target = (r + 1) * lane.size() / rounds;
            while (pos[t] < target)
                entries_.push_back(std::move(lane[pos[t]++]));
        }
    }
    for (int t = 0; t < kNumFuTypes; ++t)
        rsn_assert(pos[t] == lanes[t].size(), "pacing left entries behind");
}

// -------------------------------------------------------------- Linear --

void
ProgramBuilder::genLinear(const LinearLayer &l)
{
    const auto &cfg = mach_.config();
    const int n_mme = cfg.num_mme;
    // Precision policy (core/config.hh): weights and activations may be
    // typed; bias and LN gamma/beta always load as FP32. Host tensors
    // stay FP32 truth — the DDR/LPDDR FUs convert at the boundary.
    const Dtype act = cfg.precision.linear_activations;
    const Dtype wgt = cfg.precision.linear_weights;

    const TensorInfo in_t = tensor(l.in_src.empty() ? "input" : l.in_src);
    rsn_assert(in_t.rows >= l.m && in_t.cols == l.k,
               "linear '%s': input shape mismatch", l.name.c_str());
    const TensorInfo w_t = declareTensor("W." + l.name, l.k, l.n, true);
    TensorInfo b_t, ln_t, res_t;
    if (l.bias)
        b_t = declareTensor("b." + l.name, 1, l.n, true);
    if (l.layernorm)
        ln_t = declareTensor("ln." + l.name, 2, l.n, true);
    if (l.residual) {
        res_t = tensor(l.residual_src);
        rsn_assert(res_t.cols == l.n,
                   "linear '%s': residual width mismatch", l.name.c_str());
    }
    const TensorInfo out_t = declareTensor(l.out_name, l.m, l.n, false);

    const std::uint32_t TM = std::min(opts_.out_tile_m, l.m);
    const std::uint32_t TN = std::min(opts_.out_tile_n, l.n);
    const std::uint32_t KS = std::min(opts_.k_step, l.k);
    rsn_assert(TM >= std::uint32_t(n_mme),
               "linear '%s': m too small for the M-split", l.name.c_str());
    if (l.layernorm)
        rsn_assert(TN == l.n, "LayerNorm needs full-width output tiles");

    const std::uint32_t m_tiles = ceilDiv(l.m, TM);
    const std::uint32_t n_tiles = ceilDiv(l.n, TN);
    const std::uint32_t k_steps = ceilDiv(l.k, KS);
    const std::uint32_t tiles = m_tiles * n_tiles;

    mm_flops_ += 2ull * l.m * l.k * l.n;

    // --- Control plane for the on-chip FUs (few compressed packets). ---
    const auto all_mme = std::uint8_t((1u << n_mme) - 1);
    isa::MmeUop mu = mmeUop(tiles, k_steps, TM, KS, TN, act);
    mu.add_bias = l.bias;
    emit(FuType::Mme, all_mme, mu);

    const std::uint64_t lhs_chunks = std::uint64_t(tiles) * k_steps;
    const isa::MemAUop al = memAFill(TM, KS, n_mme);
    emitInterleaved(FuType::MemA,
                    {pingPong(0x1, {al}, sendOnly(al), lhs_chunks)});

    const std::uint64_t rhs_chunks =
        std::uint64_t(tiles) * (k_steps + (l.bias ? 1 : 0));
    const isa::MemBUop bl = memBFill(KS, TN, kLpddr);
    emitInterleaved(FuType::MemB,
                    {pingPong(0x1, {bl}, sendOnly(bl), rhs_chunks)});

    isa::MeshUop ma;
    ma.repeats = static_cast<std::uint32_t>(lhs_chunks);
    ma.mode = isa::MeshMode::Distribute;
    isa::MeshUop mb;
    mb.repeats = static_cast<std::uint32_t>(rhs_chunks);
    mb.mode = isa::MeshMode::Broadcast;
    for (int i = 0; i < n_mme; ++i) {
        ma.routes.push_back({memA(0), mme(i)});
        mb.routes.push_back({memB(0), mme(i)});
    }
    emit(FuType::MeshA, 0x1, ma);
    emit(FuType::MeshB, 0x1, mb);

    isa::MemCUop cr = memCFill(TM / n_mme, TN, opts_.store_split, act);
    cr.gelu = l.gelu;
    cr.layernorm = l.layernorm;
    cr.scale_shift = l.layernorm;
    cr.add_residual = l.residual;
    emitInterleaved(FuType::MemC,
                    {pingPong(all_mme, {cr}, memCDrain(cr), tiles)});

    // --- Off-chip movement: the fine-grained DDR/LPDDR order. ---
    const std::uint32_t pieces_per_tile = n_mme * opts_.store_split;
    const std::uint32_t loads_per_tile =
        k_steps + (l.residual ? n_mme : 0);
    const std::uint32_t drain =
        std::max<std::uint32_t>(1, ceilDiv(pieces_per_tile,
                                           loads_per_tile));
    store_lag_ = pieces_per_tile;

    for (std::uint32_t nt = 0; nt < n_tiles; ++nt) {
        const std::uint32_t n0 = nt * TN;
        const std::uint32_t tn = std::min(TN, l.n - n0);
        for (std::uint32_t mt = 0; mt < m_tiles; ++mt) {
            const std::uint32_t m0 = mt * TM;
            const std::uint32_t tm = std::min(TM, l.m - m0);

            if (l.bias) {
                auto lb = blockOf<isa::LpddrUop>(b_t, 0, n0, 1, tn,
                                                 Dtype::F32);
                lb.load_bias = true;
                emitLpddrLoad(memB(0), lb);
            }
            for (std::uint32_t ks = 0; ks < k_steps; ++ks) {
                const std::uint32_t k0 = ks * KS;
                const std::uint32_t kk = std::min(KS, l.k - k0);
                emitLpddrLoad(memB(0), blockOf<isa::LpddrUop>(
                                           w_t, k0, n0, kk, tn, wgt));
                emitDdrLoad(memA(0),
                            blockOf<isa::DdrUop>(in_t, m0, k0, tm, kk, act),
                            drain);
            }

            auto slices = fu::sliceRows(tm, n_mme);
            if (l.residual) {
                for (int i = 0; i < n_mme; ++i)
                    emitDdrLoad(memC(i),
                                blockOf<isa::DdrUop>(
                                    res_t, m0 + slices[i].first, n0,
                                    slices[i].second, tn, act),
                                drain);
            }
            if (l.layernorm) {
                auto lp = blockOf<isa::LpddrUop>(ln_t, 0, n0, 2, tn,
                                                 Dtype::F32);
                lp.load_bias = true;
                for (int i = 0; i < n_mme; ++i)
                    emitLpddrLoad(memC(i), lp);
            }

            // Stores take their byte count from the arriving chunk; the
            // tag is stamped for stride-merge uniformity and tracing.
            for (int i = 0; i < n_mme; ++i)
                for (const auto &[poff, prows] :
                     fu::sliceRows(slices[i].second, opts_.store_split))
                    queueDdrStore(memC(i),
                                  blockOf<isa::DdrUop>(
                                      out_t, m0 + slices[i].first + poff,
                                      n0, prows, tn, act));
        }
    }
}

// ----------------------------------------------------------- Attention --

void
ProgramBuilder::genAttention(const AttentionBlock &a)
{
    mm_flops_ += 4ull * a.heads * a.seq * a.dhead * a.seq;
    if (opts_.pipeline_attention)
        genAttentionPipelined(a);
    else
        genAttentionSequential(a);
}

namespace {

/** Heads handled by lane l when @p heads round-robin over @p lanes. */
std::uint32_t
laneCount(std::uint32_t heads, std::uint32_t lanes, std::uint32_t l)
{
    if (l >= lanes)
        return 0;
    return heads / lanes + (l < heads % lanes ? 1 : 0);
}

/** Lane masks grouped by identical head counts. */
std::map<std::uint32_t, std::uint8_t>
lanesByCount(std::uint32_t heads, std::uint32_t lanes,
             std::uint32_t shift = 0)
{
    std::map<std::uint32_t, std::uint8_t> groups;
    for (std::uint32_t l = 0; l < lanes; ++l) {
        std::uint32_t c = laneCount(heads, lanes, l);
        if (c > 0)
            groups[c] |= std::uint8_t(1u << (l + shift));
    }
    return groups;
}

} // namespace

void
ProgramBuilder::genAttentionPipelined(const AttentionBlock &a)
{
    const std::uint32_t S = a.seq;
    const std::uint32_t D = a.dhead;
    const std::uint32_t H = a.heads;
    const std::uint32_t lanes = std::min<std::uint32_t>(3, H);
    const std::uint32_t batch = H / a.heads_per_batch;

    const TensorInfo q_t = tensor(a.q_src);
    const TensorInfo k_t = tensor(a.k_src);
    const TensorInfo v_t = tensor(a.v_src);
    const TensorInfo out_t = declareTensor(
        a.out_name, batch * S, a.heads_per_batch * D, false);
    // Q/K/V, score and context tiles all carry the attention
    // activation dtype; softmax itself runs in FP32 inside MemC.
    const Dtype act = mach_.config().precision.attention_activations;

    // MME and MemC control, per group of lanes with equal head counts.
    // Streams for one FU type are emitted interleaved so no sibling FU
    // starves behind a full uOP FIFO (Sec. 3.3).
    std::vector<UopStream> mema_streams, memb_streams, memc_streams;
    for (const auto &[count, mask] : lanesByCount(H, lanes)) {
        const auto mask2 = std::uint8_t(mask << 3);
        emit(FuType::Mme, mask, mmeUop(count, 1, S, D, S, act));
        emit(FuType::Mme, mask2, mmeUop(count, 1, S, S, D, act));

        // MemA: one Q tile per head.
        const isa::MemAUop q = memAFill(S, D, 1);
        mema_streams.push_back(pingPong(mask, {q}, sendOnly(q), count));

        // MemB: K (transposed) then V per head, a two-entry fill cycle.
        const isa::MemBUop k = memBFill(S, D, kDdr, true);
        const isa::MemBUop v = memBFill(S, D, kDdr);
        memb_streams.push_back(
            pingPong(mask, {k, v}, sendOnly(k), 2ull * count));

        // MemC lane-0 group: softmax and re-injection into MeshA.
        isa::MemCUop probs = memCFill(S, S, 1, act);
        probs.softmax = true;
        memc_streams.push_back(
            pingPong(mask, {probs}, memCDrain(probs, kMeshA), count));

        // MemC lane-3 group: context tiles draining to DDR.
        const isa::MemCUop ctx = memCFill(S, D, 1, act);
        memc_streams.push_back(
            pingPong(mask2, {ctx}, memCDrain(ctx), count));
    }
    emitInterleaved(FuType::MemA, mema_streams);
    emitInterleaved(FuType::MemB, memb_streams);
    emitInterleaved(FuType::MemC, memc_streams);

    // Lane l: Q and probabilities through MeshA, K^T and V through MeshB.
    emitLaneMeshes(H, lanes, [](std::uint32_t upto, auto &ma, auto &mb) {
        for (std::uint32_t l = 0; l < upto; ++l) {
            ma.push_back({memA(l), mme(l)});
            ma.push_back({memC(l), mme(3 + l)});
            mb.push_back({memB(l), mme(l)});
            mb.push_back({memB(l), mme(3 + l)});
        }
    });

    // Off-chip movement per head, in head order. Context stores lag the
    // load front by a pipeline depth of two heads per lane.
    store_lag_ = 2 * lanes;
    for (std::uint32_t h = 0; h < H; ++h) {
        const std::uint32_t lane = h % lanes;
        emitDdrLoad(memA(lane), headBlock(a, q_t, a.q_col_off, h, act), 1);
        emitDdrLoad(memB(lane), headBlock(a, k_t, a.k_col_off, h, act), 1);
        emitDdrLoad(memB(lane), headBlock(a, v_t, a.v_col_off, h, act), 1);
        queueDdrStore(memC(3 + lane), headBlock(a, out_t, 0, h, act));
    }
}

void
ProgramBuilder::genAttentionSequential(const AttentionBlock &a)
{
    const std::uint32_t S = a.seq;
    const std::uint32_t D = a.dhead;
    const std::uint32_t H = a.heads;
    const std::uint32_t lanes = std::min<std::uint32_t>(6, H);
    const std::uint32_t batch = H / a.heads_per_batch;
    constexpr std::uint32_t n_mem = 3;
    const std::uint32_t score_split = 4;

    const TensorInfo q_t = tensor(a.q_src);
    const TensorInfo k_t = tensor(a.k_src);
    const TensorInfo v_t = tensor(a.v_src);
    const TensorInfo sc_t =
        declareTensor("scores." + a.name, H * S, S, false);
    const TensorInfo out_t = declareTensor(
        a.out_name, batch * S, a.heads_per_batch * D, false);
    const Dtype act = mach_.config().precision.attention_activations;

    // Pass 1: scores = Q K^T, softmaxed, spilled to DDR. Pass 2:
    // context = scores V.
    auto gen_pass = [&](bool first_pass) {
        std::vector<UopStream> mema_streams, memb_streams, memc_streams;
        for (const auto &[count, mask] : lanesByCount(H, lanes))
            emit(FuType::Mme, mask,
                 mmeUop(count, 1, S, first_pass ? D : S,
                        first_pass ? S : D, act));
        // MemA/MemB: chunk counts per scratchpad instance (a scratchpad
        // serves lanes l and l+3).
        for (std::uint32_t i = 0; i < n_mem; ++i) {
            std::uint32_t cnt = laneCount(H, lanes, i) +
                                (lanes > 3 ? laneCount(H, lanes, i + 3)
                                           : 0);
            if (cnt == 0)
                continue;
            const auto mask = std::uint8_t(1u << i);
            const isa::MemAUop al = memAFill(S, first_pass ? D : S, 1);
            isa::MemAUop as = al;  // this mapping's drain keeps its src
            as.load = false;
            as.send = true;
            mema_streams.push_back(pingPong(mask, {al}, as, cnt));
            const isa::MemBUop bl = memBFill(S, D, kDdr, first_pass);
            memb_streams.push_back(pingPong(mask, {bl}, sendOnly(bl), cnt));
        }
        // MemC: per lane.
        for (const auto &[count, mask] : lanesByCount(H, lanes)) {
            isa::MemCUop cr = memCFill(S, first_pass ? S : D,
                                       first_pass ? score_split : 1, act);
            cr.softmax = first_pass;
            memc_streams.push_back(
                pingPong(mask, {cr}, memCDrain(cr), count));
        }
        emitInterleaved(FuType::MemA, mema_streams);
        emitInterleaved(FuType::MemB, memb_streams);
        emitInterleaved(FuType::MemC, memc_streams);
        // MemA_i and MemB_i feed MME_i and MME_{i+3}; each mesh lists its
        // routes grouped by source scratchpad.
        emitLaneMeshes(H, lanes, [&](std::uint32_t upto, auto &ma,
                                     auto &mb) {
            for (std::uint32_t i = 0; i < n_mem; ++i)
                for (std::uint32_t l = i; l < upto; l += n_mem) {
                    ma.push_back({memA(i), mme(l)});
                    mb.push_back({memB(i), mme(l)});
                }
        });

        // DDR traffic in head order.
        store_lag_ = lanes * (first_pass ? score_split : 1);
        for (std::uint32_t h = 0; h < H; ++h) {
            const std::uint32_t lane = h % lanes;
            const FuId lhs = memA(lane % n_mem), rhs = memB(lane % n_mem);
            if (first_pass) {
                emitDdrLoad(lhs, headBlock(a, q_t, a.q_col_off, h, act), 2);
                emitDdrLoad(rhs, headBlock(a, k_t, a.k_col_off, h, act), 2);
                for (const auto &[poff, prows] :
                     fu::sliceRows(S, score_split))
                    queueDdrStore(memC(lane), blockOf<isa::DdrUop>(
                                                  sc_t, Addr(h) * S + poff,
                                                  0, prows, S, act));
            } else {
                emitDdrLoad(lhs,
                            blockOf<isa::DdrUop>(sc_t, Addr(h) * S, 0, S, S,
                                                 act),
                            1);
                emitDdrLoad(rhs, headBlock(a, v_t, a.v_col_off, h, act), 1);
                queueDdrStore(memC(lane), headBlock(a, out_t, 0, h, act));
            }
        }
    };

    gen_pass(true);
    // All score tiles must land in DDR before the second pass reads them.
    flushStores();
    // The two passes have different control/data ratios; pace each one
    // separately.
    endSegment();
    beginSegment();
    gen_pass(false);
}

// ---------------------------------------------------------------- Pack --

namespace {

/**
 * Merge runs of consecutive single-block DDR/LPDDR uOPs whose addresses
 * advance by a constant delta into one strided mOP — the second-level
 * decoder unrolls them back (Sec. 3.3's "stride size and stride count"
 * customization). This is where the off-chip FUs get their (modest)
 * Fig. 9 compression.
 */
template <typename T>
bool
tryMergeStride(isa::Uop &acc_uop, const isa::Uop &next)
{
    auto *acc = std::get_if<T>(&acc_uop);
    const auto *nxt = std::get_if<T>(&next);
    if (!acc || !nxt || nxt->stride_count != 1)
        return false;
    // Geometry and flow must match exactly (only addr may differ).
    T a = *acc, b = *nxt;
    a.addr = b.addr = 0;
    a.stride_count = b.stride_count = 1;
    a.stride_offset = b.stride_offset = 0;
    if (!(a == b))
        return false;
    if (acc->stride_count == 1) {
        if (nxt->addr <= acc->addr ||
            nxt->addr - acc->addr > 0xffffffffull)
            return false;
        acc->stride_offset =
            static_cast<std::uint32_t>(nxt->addr - acc->addr);
        acc->stride_count = 2;
        return true;
    }
    Addr expected = acc->addr +
                    Addr(acc->stride_count) * acc->stride_offset;
    if (nxt->addr != expected || acc->stride_count >= 0xfff0)
        return false;
    ++acc->stride_count;
    return true;
}

} // namespace

isa::RsnProgram
ProgramBuilder::pack() const
{
    // Stride-merge pre-pass over the raw stream.
    std::vector<Entry> merged;
    merged.reserve(entries_.size());
    for (const Entry &e : entries_) {
        if (!merged.empty() && merged.back().op == e.op &&
            merged.back().mask == e.mask) {
            if (e.op == FuType::Ddr &&
                tryMergeStride<isa::DdrUop>(merged.back().uop, e.uop))
                continue;
            if (e.op == FuType::Lpddr &&
                tryMergeStride<isa::LpddrUop>(merged.back().uop, e.uop))
                continue;
        }
        merged.push_back(e);
    }
    const auto &entries_ref = merged;

    isa::RsnProgram prog;
    const std::size_t n = entries_ref.size();
    std::size_t i = 0;

    auto same = [&](std::size_t x, std::size_t y) {
        return entries_ref[x].op == entries_ref[y].op &&
               entries_ref[x].mask == entries_ref[y].mask &&
               entries_ref[x].uop == entries_ref[y].uop;
    };

    while (i < n) {
        // Find the repeating window (period p, r repetitions) that covers
        // the most entries, bounded by the header's field widths.
        std::size_t best_p = 1, best_r = 1;
        const std::size_t max_p = std::min<std::size_t>(8, n - i);
        for (std::size_t p = 1; p <= max_p; ++p) {
            bool uniform = true;
            for (std::size_t j = 0; j < p && uniform; ++j)
                uniform = entries_ref[i + j].op == entries_ref[i].op &&
                          entries_ref[i + j].mask == entries_ref[i].mask;
            if (!uniform)
                break;
            std::size_t r = 1;
            while (r < isa::kMaxReuse && i + (r + 1) * p <= n) {
                bool match = true;
                for (std::size_t j = 0; j < p && match; ++j)
                    match = same(i + j, i + r * p + j);
                if (!match)
                    break;
                ++r;
            }
            if (r >= 2 && p * r > best_p * best_r) {
                best_p = p;
                best_r = r;
            }
        }

        isa::RsnPacket pkt;
        pkt.opcode = entries_ref[i].op;
        pkt.mask = entries_ref[i].mask;
        if (best_r >= 2) {
            pkt.reuse = static_cast<std::uint16_t>(best_r);
            for (std::size_t j = 0; j < best_p; ++j)
                pkt.mops.push_back(entries_ref[i + j].uop);
            i += best_p * best_r;
        } else {
            // Non-repeating run: batch consecutive same-op/mask uops.
            pkt.reuse = 1;
            while (i < n && entries_ref[i].op == pkt.opcode &&
                   entries_ref[i].mask == pkt.mask &&
                   pkt.mops.size() < isa::kMaxWindow) {
                // Stop if a compressible repetition starts here.
                if (!pkt.mops.empty() && i + 1 < n && same(i, i + 1))
                    break;
                pkt.mops.push_back(entries_ref[i].uop);
                ++i;
            }
        }
        prog.append(std::move(pkt));
    }

    std::array<int, kNumFuTypes> counts{};
    counts[static_cast<int>(FuType::Mme)] = mach_.config().num_mme;
    counts[static_cast<int>(FuType::MemA)] = mach_.config().num_mem_a;
    counts[static_cast<int>(FuType::MemB)] = mach_.config().num_mem_b;
    counts[static_cast<int>(FuType::MemC)] = mach_.config().num_mem_c;
    counts[static_cast<int>(FuType::MeshA)] = 1;
    counts[static_cast<int>(FuType::MeshB)] = 1;
    counts[static_cast<int>(FuType::Ddr)] = 1;
    counts[static_cast<int>(FuType::Lpddr)] = 1;
    prog.appendHalts(counts);
    prog.validate();
    return prog;
}

CompiledModel
ProgramBuilder::compile(const Model &model)
{
    rsn_assert(entries_.empty(), "ProgramBuilder::compile is single-use");
    declareTensor("input", model.input_rows, model.input_cols, false);

    for (const auto &seg : model.segments) {
        beginSegment();
        if (const auto *l = std::get_if<LinearLayer>(&seg))
            genLinear(*l);
        else if (const auto *a = std::get_if<AttentionBlock>(&seg))
            genAttention(*a);
        if (!opts_.overlap_prolog_epilog)
            flushStores();
        endSegment();
    }
    beginSegment();
    flushStores();
    endSegment();

    CompiledModel out;
    out.program = pack();
    out.tensors = tensors_;
    out.mm_flops = mm_flops_;
    return out;
}

CompiledModel
compileModel(core::RsnMachine &machine, const Model &model,
             ScheduleOptions opts)
{
    ProgramBuilder b(machine, opts);
    return b.compile(model);
}

} // namespace rsn::lib
