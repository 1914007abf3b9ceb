#include "ref/ref_math.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>

#include "common/log.hh"

namespace rsn::ref {

Matrix
randomMatrix(std::uint32_t rows, std::uint32_t cols, std::uint32_t seed,
             float scale)
{
    Matrix m(rows, cols);
    // xorshift32; seed 0 would be a fixed point, nudge it.
    std::uint32_t s = seed ? seed : 0x9e3779b9u;
    for (auto &v : m.data) {
        s ^= s << 13;
        s ^= s >> 17;
        s ^= s << 5;
        // Map to [-scale, scale).
        v = (float(s) / 4294967296.0f * 2.0f - 1.0f) * scale;
    }
    return m;
}

namespace {

/**
 * The definition of matmul(): c(i,j) = 0 + a(i,0)*b(0,j) + a(i,1)*b(1,j)
 * + ... in ascending k, each product and each sum rounded on its own
 * (this file compiles with -ffp-contract=off, so no host fuses them).
 * Skipping a zero a(i,k) keeps the bits for finite b: the products are
 * +-0, and an accumulator that starts at +0 never holds -0, so adding
 * them changes nothing. Softmax rows are mostly exact zeros, which makes
 * the skip worth more than blocking on hosts without AVX2.
 */
void
matmulLoop(const Matrix &a, const Matrix &b, Matrix &c)
{
    for (std::uint32_t i = 0; i < a.rows; ++i) {
        for (std::uint32_t k = 0; k < a.cols; ++k) {
            float av = a.at(i, k);
            if (av == 0.f)
                continue;
            for (std::uint32_t j = 0; j < b.cols; ++j)
                c.at(i, j) += av * b.at(k, j);
        }
    }
}

#if defined(__x86_64__) || defined(__i386__)

/** Register tile of the AVX2 path: kMr rows of C by two 8-lane vectors. */
constexpr std::uint32_t kMr = 4;
constexpr std::uint32_t kNr = 16;

typedef float V8 __attribute__((vector_size(32)));

/**
 * One Rows x kNr tile of C over the whole of K; @p a points at the
 * tile's first row of A (K floats per row). Every lane runs the
 * definition's chain: it starts at +0 and adds the rounded product
 * a(i,k)*b(k,j) for k = 0, 1, ... (target avx2 has no FMA to fuse
 * with). @p panel is K rows of kNr packed columns of B; only the first
 * @p w columns reach C.
 */
template <std::uint32_t Rows>
[[gnu::target("avx2")]] void
tileAvx2(const float *a, std::uint32_t K, const float *panel, float *c,
         std::size_t ldc, std::uint32_t w)
{
    V8 acc[Rows][2] = {};
    for (std::uint32_t k = 0; k < K; ++k) {
        V8 b0, b1;
        std::memcpy(&b0, panel + std::size_t(k) * kNr, sizeof(V8));
        std::memcpy(&b1, panel + std::size_t(k) * kNr + 8, sizeof(V8));
        for (std::uint32_t r = 0; r < Rows; ++r) {
            const float av = a[std::size_t(r) * K + k];
            acc[r][0] = acc[r][0] + av * b0;
            acc[r][1] = acc[r][1] + av * b1;
        }
    }
    for (std::uint32_t r = 0; r < Rows; ++r) {
        float out[kNr];
        std::memcpy(out, acc[r], sizeof(out));
        std::copy(out, out + w, c + r * ldc);
    }
}

/** Sweep kMr-row tiles over each packed kNr-column panel of B. */
[[gnu::target("avx2")]] void
matmulAvx2(const Matrix &a, const Matrix &b, Matrix &c)
{
    const std::uint32_t m = a.rows, kk = a.cols, n = b.cols;
    std::vector<float> panel(std::size_t(kk) * kNr);
    for (std::uint32_t j0 = 0; j0 < n; j0 += kNr) {
        const std::uint32_t w = std::min(kNr, n - j0);
        // Zero-pad the ragged edge: its lanes compute but never land.
        for (std::uint32_t k = 0; k < kk; ++k) {
            const float *src = b.data.data() + std::size_t(k) * n + j0;
            float *dst = panel.data() + std::size_t(k) * kNr;
            std::fill(std::copy(src, src + w, dst), dst + kNr, 0.f);
        }
        for (std::uint32_t i0 = 0; i0 < m; i0 += kMr) {
            const float *ap = a.data.data() + std::size_t(i0) * kk;
            float *cp = c.data.data() + std::size_t(i0) * n + j0;
            static_assert(kMr == 4, "the cases below cover 1..kMr rows");
            switch (std::min(kMr, m - i0)) {
            case 4: tileAvx2<4>(ap, kk, panel.data(), cp, n, w); break;
            case 3: tileAvx2<3>(ap, kk, panel.data(), cp, n, w); break;
            case 2: tileAvx2<2>(ap, kk, panel.data(), cp, n, w); break;
            default: tileAvx2<1>(ap, kk, panel.data(), cp, n, w); break;
            }
        }
    }
}

#endif

} // namespace

namespace detail {

bool
canRun(MatmulPath path)
{
    switch (path) {
    case MatmulPath::Loop:
        return true;
    case MatmulPath::Avx2:
#if defined(__x86_64__) || defined(__i386__)
        __builtin_cpu_init();
        return __builtin_cpu_supports("avx2");
#else
        return false;
#endif
    }
    return false;
}

Matrix
matmulVia(MatmulPath path, const Matrix &a, const Matrix &b)
{
    rsn_assert(a.cols == b.rows, "matmul shape mismatch");
    rsn_assert(canRun(path), "matmul path %d cannot run on this host",
               int(path));
    Matrix c(a.rows, b.cols);
#if defined(__x86_64__) || defined(__i386__)
    if (path == MatmulPath::Avx2) {
        matmulAvx2(a, b, c);
        return c;
    }
#endif
    matmulLoop(a, b, c);
    return c;
}

} // namespace detail

Matrix
matmul(const Matrix &a, const Matrix &b)
{
    using detail::MatmulPath;
    static const MatmulPath best = detail::canRun(MatmulPath::Avx2)
                                       ? MatmulPath::Avx2
                                       : MatmulPath::Loop;
    return detail::matmulVia(best, a, b);
}

Matrix
matmulBt(const Matrix &a, const Matrix &b)
{
    rsn_assert(a.cols == b.cols, "matmulBt shape mismatch");
    // Same chain as the dot-product form acc += a(i,k)*b(j,k).
    return matmul(a, transpose(b));
}

Matrix
transpose(const Matrix &a)
{
    Matrix t(a.cols, a.rows);
    for (std::uint32_t i = 0; i < a.rows; ++i)
        for (std::uint32_t j = 0; j < a.cols; ++j)
            t.at(j, i) = a.at(i, j);
    return t;
}

Matrix
addBias(const Matrix &a, const std::vector<float> &bias)
{
    rsn_assert(bias.size() >= a.cols, "bias too small");
    Matrix c = a;
    for (std::uint32_t i = 0; i < a.rows; ++i)
        for (std::uint32_t j = 0; j < a.cols; ++j)
            c.at(i, j) += bias[j];
    return c;
}

Matrix
add(const Matrix &a, const Matrix &b)
{
    rsn_assert(a.rows == b.rows && a.cols == b.cols, "add shape mismatch");
    Matrix c = a;
    for (std::size_t i = 0; i < c.data.size(); ++i)
        c.data[i] += b.data[i];
    return c;
}

Matrix
softmax(const Matrix &a)
{
    Matrix c = a;
    for (std::uint32_t i = 0; i < a.rows; ++i) {
        float mx = -INFINITY;
        for (std::uint32_t j = 0; j < a.cols; ++j)
            mx = std::max(mx, c.at(i, j));
        double sum = 0;
        for (std::uint32_t j = 0; j < a.cols; ++j)
            sum += std::exp(double(c.at(i, j)) - mx);
        for (std::uint32_t j = 0; j < a.cols; ++j)
            c.at(i, j) = float(std::exp(double(c.at(i, j)) - mx) / sum);
    }
    return c;
}

Matrix
gelu(const Matrix &a)
{
    Matrix c = a;
    for (auto &x : c.data) {
        double v = x;
        x = float(0.5 * v * (1.0 + std::erf(v / std::sqrt(2.0))));
    }
    return c;
}

Matrix
layernorm(const Matrix &a, const std::vector<float> &gamma,
          const std::vector<float> &beta)
{
    rsn_assert(gamma.size() >= a.cols && beta.size() >= a.cols,
               "layernorm params too small");
    Matrix c(a.rows, a.cols);
    for (std::uint32_t i = 0; i < a.rows; ++i) {
        double mean = 0;
        for (std::uint32_t j = 0; j < a.cols; ++j)
            mean += a.at(i, j);
        mean /= a.cols;
        double var = 0;
        for (std::uint32_t j = 0; j < a.cols; ++j) {
            double d = a.at(i, j) - mean;
            var += d * d;
        }
        var /= a.cols;
        double inv = 1.0 / std::sqrt(var + 1e-5);
        for (std::uint32_t j = 0; j < a.cols; ++j)
            c.at(i, j) = float((a.at(i, j) - mean) * inv * gamma[j] +
                               beta[j]);
    }
    return c;
}

bool
allclose(const Matrix &a, const Matrix &b, float rtol, float atol,
         std::string *why)
{
    if (a.rows != b.rows || a.cols != b.cols) {
        if (why)
            *why = "shape mismatch";
        return false;
    }
    for (std::size_t i = 0; i < a.data.size(); ++i) {
        float x = a.data[i], y = b.data[i];
        float tol = atol + rtol * std::abs(y);
        if (std::abs(x - y) > tol || std::isnan(x) != std::isnan(y)) {
            if (why) {
                char buf[128];
                std::snprintf(buf, sizeof(buf),
                              "elem %zu: %g vs %g (tol %g)", i, x, y, tol);
                *why = buf;
            }
            return false;
        }
    }
    return true;
}

float
maxAbsDiff(const Matrix &a, const Matrix &b)
{
    rsn_assert(a.data.size() == b.data.size(), "shape mismatch");
    float mx = 0.f;
    for (std::size_t i = 0; i < a.data.size(); ++i)
        mx = std::max(mx, std::abs(a.data[i] - b.data[i]));
    return mx;
}

} // namespace rsn::ref
