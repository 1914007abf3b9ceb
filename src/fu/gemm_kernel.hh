/**
 * @file
 * FP32 GEMM entry points for the MME's functional path (acc += lhs @
 * rhs on row-major tiles), plus the packing scratch they share.
 *
 * The blocked, vectorized implementations live in the per-ISA kernel
 * TUs (src/fu/kernels/kernel_impl.inc) and are selected at runtime
 * through the kernel registry (fu/kernel_registry.hh): gemmAccumulate
 * below is a thin inline wrapper over the active KernelTable. The
 * classic three-piece structure — MR-interleaved LHS packing, a
 * register-blocked FMA microkernel (one 8-row, two-vector-wide body for
 * every register ISA: AVX-512 8x32, AVX2+FMA 8x16, NEON 8x8; plus an
 * auto-vectorized portable 2x16), RHS packed only for the ragged n%NR
 * tail — is documented in the .inc.
 *
 * This TU keeps the **scalar reference kernel** (gemmRefAccumulate):
 * identical loop order to the pre-blocked MME, no reassociation. It is
 * the semantic baseline the property tests pin every table against,
 * and the `scalar` table's GEMM entry (the exact reference path).
 *
 * ## FP tolerance policy
 *
 * The blocked kernels accumulate each output element in a register over
 * k and add the partial sum into acc once; the scalar reference adds
 * every product into acc directly. Both are exact-order FP32 chains but
 * *different* chains, so results may differ by O(k) ULPs (FMA also
 * contracts multiply-add rounding). Consumers must compare with a
 * tolerance, not bit-exactly: tests use |a-b| <= 1e-4 + 1e-4 * |b|
 * per element (ref_math-style allclose), generous for every shape the
 * datapath produces (k <= a few thousand). Simulated *timing* is
 * payload-independent, so kernel choice never changes tick counts.
 */

#ifndef RSN_FU_GEMM_KERNEL_HH
#define RSN_FU_GEMM_KERNEL_HH

#include <cstdint>

#include "fu/kernel_registry.hh"
#include "sim/tile_pool.hh"

namespace rsn::fu {

/**
 * Scalar reference kernel: acc(m x n) += lhs(m x k) @ rhs(k x n), all
 * row-major and dense. This is the pre-blocked MME loop (including its
 * skip of zero LHS elements, which never changes the result) and the
 * baseline the property tests compare the blocked kernels against.
 * Like every table's GEMM, any zero dimension is a no-op that reads
 * neither operand.
 */
void gemmRefAccumulate(float *acc, const float *lhs, const float *rhs,
                       std::uint32_t m, std::uint32_t k, std::uint32_t n);

/**
 * Packing scratch for gemmAccumulate: pooled tiles holding the LHS and
 * RHS panels, plus two *conversion* panels for the typed paths — the
 * bf16 GEMM upconverts its RHS into cvtRhsPanel, and the MME's
 * mixed-dtype fallback upconverts whole operands into cvtLhs/cvtRhs
 * before running the FP32 kernel (the pack panels can't double for
 * this: the FP32 implementation packs *into* them while reading the
 * converted operand). Owned per MME FU and reused across every chunk
 * product the FU ever computes — the panels only ever grow (to the
 * largest shape seen), so steady-state packing allocates nothing.
 * release() drops the tiles back to the pool (FU reset).
 */
class GemmScratch
{
  public:
    /** Writable LHS panel of at least @p elems floats (grows if needed). */
    float *
    lhsPanel(std::uint64_t elems)
    {
        return panel(lhs_, elems);
    }

    /** Writable RHS panel of at least @p elems floats (grows if needed). */
    float *
    rhsPanel(std::uint64_t elems)
    {
        return panel(rhs_, elems);
    }

    /** Writable FP32 upconversion panel for a typed LHS operand. */
    float *
    cvtLhsPanel(std::uint64_t elems)
    {
        return panel(cvt_lhs_, elems);
    }

    /** Writable FP32 upconversion panel for a typed RHS operand. */
    float *
    cvtRhsPanel(std::uint64_t elems)
    {
        return panel(cvt_rhs_, elems);
    }

    /** Return the panels to the pool (RsnMachine::reset / FU teardown). */
    void
    release()
    {
        lhs_.release();
        rhs_.release();
        cvt_lhs_.release();
        cvt_rhs_.release();
    }

  private:
    static float *
    panel(sim::TileRef &t, std::uint64_t elems)
    {
        if (t.capacity() < elems)
            t = sim::TilePool::instance().acquire(elems);
        return t.mutableData();
    }

    sim::TileRef lhs_;
    sim::TileRef rhs_;
    sim::TileRef cvt_lhs_;
    sim::TileRef cvt_rhs_;
};

/**
 * Accumulating matrix product through the active kernel table:
 * acc(m x n) += lhs(m x k) @ rhs(k x n), row-major, packing through
 * @p scratch. Any dimension may be zero (no-op). See the file comment
 * for the FP tolerance contract relative to gemmRefAccumulate.
 */
inline void
gemmAccumulate(GemmScratch &scratch, float *acc, const float *lhs,
               const float *rhs, std::uint32_t m, std::uint32_t k,
               std::uint32_t n)
{
    kernel::active().gemm_accumulate(scratch, acc, lhs, rhs, m, k, n);
}

} // namespace rsn::fu

#endif // RSN_FU_GEMM_KERNEL_HH
