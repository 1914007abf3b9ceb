#include "shim.hh"

#include <cstring>
#include <vector>

#include "common.hh"
#include "common/dtype.hh"
#include "fu/gemm_kernel.hh"
#include "serve/arrivals.hh"
#include "trace.hh"

namespace rsnbench::shim {

namespace {

using rsn::Dtype;
using rsn::kernel::KernelTable;
using trace::KernelClass;

const KernelTable *g_inner = nullptr;
KernelTable g_table{};

/** Times the enclosing scope as one call of class C. */
class Timed
{
  public:
    Timed(KernelClass c, std::uint64_t work)
        : c_(c), work_(work), start_(trace::nowNs())
    {}
    ~Timed() { trace::kernelCall(c_, start_, trace::nowNs(), work_); }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    KernelClass c_;
    std::uint64_t work_;
    std::int64_t start_;
};

std::uint64_t
flops(std::uint32_t m, std::uint32_t k, std::uint32_t n)
{
    return 2ull * m * k * n;
}

void
gemmF32(rsn::fu::GemmScratch &s, float *acc, const float *lhs,
        const float *rhs, std::uint32_t m, std::uint32_t k, std::uint32_t n)
{
    Timed t(KernelClass::GemmF32, flops(m, k, n));
    g_inner->gemm_accumulate(s, acc, lhs, rhs, m, k, n);
}

void
softmax(float *tile, std::uint32_t rows, std::uint32_t cols)
{
    Timed t(KernelClass::Softmax, std::uint64_t(rows) * cols);
    g_inner->softmax_rows(tile, rows, cols);
}

void
gelu(float *tile, std::size_t n)
{
    Timed t(KernelClass::Gelu, n);
    g_inner->gelu_inplace(tile, n);
}

void
layernorm(float *tile, std::uint32_t rows, std::uint32_t cols)
{
    Timed t(KernelClass::Layernorm, std::uint64_t(rows) * cols);
    g_inner->layernorm_rows(tile, rows, cols);
}

void
transpose(float *dst, const float *src, std::uint32_t rows,
          std::uint32_t cols)
{
    Timed t(KernelClass::Transpose, std::uint64_t(rows) * cols);
    g_inner->transpose(dst, src, rows, cols);
}

void
convertToF32(float *dst, const void *src, Dtype src_dtype, std::uint64_t n)
{
    Timed t(KernelClass::ConvertToF32, n * (rsn::dtypeBytes(src_dtype) + 4));
    g_inner->convert_rows_to_f32(dst, src, src_dtype, n);
}

void
convertFromF32(void *dst, Dtype dst_dtype, const float *src, std::uint64_t n)
{
    Timed t(KernelClass::ConvertFromF32,
            n * (4 + rsn::dtypeBytes(dst_dtype)));
    g_inner->convert_rows_from_f32(dst, dst_dtype, src, n);
}

void
gemmBf16(rsn::fu::GemmScratch &s, float *acc, const std::uint16_t *lhs,
         const std::uint16_t *rhs, std::uint32_t m, std::uint32_t k,
         std::uint32_t n)
{
    Timed t(KernelClass::GemmBf16, flops(m, k, n));
    g_inner->gemm_accumulate_bf16(s, acc, lhs, rhs, m, k, n);
}

void
transposeU16(std::uint16_t *dst, const std::uint16_t *src,
             std::uint32_t rows, std::uint32_t cols)
{
    Timed t(KernelClass::TransposeU16, std::uint64_t(rows) * cols);
    g_inner->transpose_u16(dst, src, rows, cols);
}

std::vector<float>
randomFloats(std::size_t n, std::uint64_t seed)
{
    std::vector<float> v(n);
    for (float &x : v) {
        seed = rsn::serve::mix64(seed);
        x = static_cast<float>(static_cast<std::int64_t>(seed >> 40) -
                               (1 << 23)) /
            (1 << 23);
    }
    return v;
}

std::vector<std::uint16_t>
randomBf16(std::size_t n, std::uint64_t seed)
{
    std::vector<std::uint16_t> v(n);
    const std::vector<float> f = randomFloats(n, seed);
    for (std::size_t i = 0; i < n; ++i)
        v[i] = rsn::f32ToBf16(f[i]);
    return v;
}

template <typename T>
bool
sameBytes(const std::vector<T> &a, const std::vector<T> &b)
{
    return a.size() == b.size() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(T)) == 0;
}

} // namespace

const KernelTable &
timingTable(const KernelTable &inner)
{
    g_inner = &inner;
    g_table = inner;
    g_table.gemm_accumulate = gemmF32;
    g_table.softmax_rows = softmax;
    g_table.gelu_inplace = gelu;
    g_table.layernorm_rows = layernorm;
    g_table.transpose = transpose;
    g_table.convert_rows_to_f32 = convertToF32;
    g_table.convert_rows_from_f32 = convertFromF32;
    g_table.gemm_accumulate_bf16 = gemmBf16;
    g_table.transpose_u16 = transposeU16;
    return g_table;
}

std::string
checkForwarding(const KernelTable &inner)
{
    const KernelTable &shim = timingTable(inner);
    // Ragged shapes on purpose: the register kernels' tail paths must
    // forward as exactly as their full blocks.
    const std::uint32_t m = 19, k = 37, n = 45;
    rsn::fu::GemmScratch scratch_a, scratch_b;

    {
        const auto lhs = randomFloats(m * k, 1), rhs = randomFloats(k * n, 2);
        auto a = randomFloats(m * n, 3), b = a;
        inner.gemm_accumulate(scratch_a, a.data(), lhs.data(), rhs.data(),
                              m, k, n);
        shim.gemm_accumulate(scratch_b, b.data(), lhs.data(), rhs.data(),
                             m, k, n);
        if (!sameBytes(a, b))
            return "gemm_accumulate";
    }
    {
        const auto lhs = randomBf16(m * k, 4), rhs = randomBf16(k * n, 5);
        auto a = randomFloats(m * n, 6), b = a;
        inner.gemm_accumulate_bf16(scratch_a, a.data(), lhs.data(),
                                   rhs.data(), m, k, n);
        shim.gemm_accumulate_bf16(scratch_b, b.data(), lhs.data(),
                                  rhs.data(), m, k, n);
        if (!sameBytes(a, b))
            return "gemm_accumulate_bf16";
    }
    {
        auto a = randomFloats(m * n, 7), b = a;
        inner.softmax_rows(a.data(), m, n);
        shim.softmax_rows(b.data(), m, n);
        if (!sameBytes(a, b))
            return "softmax_rows";
        inner.gelu_inplace(a.data(), a.size());
        shim.gelu_inplace(b.data(), b.size());
        if (!sameBytes(a, b))
            return "gelu_inplace";
        inner.layernorm_rows(a.data(), m, n);
        shim.layernorm_rows(b.data(), m, n);
        if (!sameBytes(a, b))
            return "layernorm_rows";
    }
    {
        const auto src = randomFloats(m * n, 8);
        std::vector<float> a(m * n), b(m * n);
        inner.transpose(a.data(), src.data(), m, n);
        shim.transpose(b.data(), src.data(), m, n);
        if (!sameBytes(a, b))
            return "transpose";
        const auto src16 = randomBf16(m * n, 9);
        std::vector<std::uint16_t> a16(m * n), b16(m * n);
        inner.transpose_u16(a16.data(), src16.data(), m, n);
        shim.transpose_u16(b16.data(), src16.data(), m, n);
        if (!sameBytes(a16, b16))
            return "transpose_u16";
    }
    for (Dtype d : {Dtype::Bf16, Dtype::F16, Dtype::F32}) {
        const auto src = randomFloats(m * n, 10);
        std::vector<std::uint8_t> a(m * n * rsn::dtypeBytes(d)), b(a.size());
        inner.convert_rows_from_f32(a.data(), d, src.data(), m * n);
        shim.convert_rows_from_f32(b.data(), d, src.data(), m * n);
        if (!sameBytes(a, b))
            return std::string("convert_rows_from_f32/") + rsn::dtypeName(d);
        std::vector<float> fa(m * n), fb(m * n);
        inner.convert_rows_to_f32(fa.data(), a.data(), d, m * n);
        shim.convert_rows_to_f32(fb.data(), a.data(), d, m * n);
        if (!sameBytes(fa, fb))
            return std::string("convert_rows_to_f32/") + rsn::dtypeName(d);
    }
    scratch_a.release();
    scratch_b.release();
    return "";
}

} // namespace rsnbench::shim
