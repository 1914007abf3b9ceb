/**
 * @file
 * Reference FP32 implementations used to validate the streamed datapath.
 *
 * These are independent of the FU implementations: nothing here links to
 * fu/ or the kernel registry, so a bug in the datapath math cannot hide
 * behind a shared subroutine. They play the role of the paper's
 * python_gold reference outputs (Artifact Appendix A.6).
 *
 * matmul() is defined by its triple loop: c(i,j) = 0 + a(i,0)*b(0,j) +
 * a(i,1)*b(1,j) + ... in ascending k, each product and each sum rounded
 * on its own, with no FMA on any host. Its faster paths are bit-identical
 * to that definition for finite operands, so the reference's outputs do
 * not depend on the CPU that computes them.
 */

#ifndef RSN_REF_REF_MATH_HH
#define RSN_REF_REF_MATH_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace rsn::ref {

/** Row-major matrix with shape bookkeeping. */
struct Matrix {
    std::uint32_t rows = 0;
    std::uint32_t cols = 0;
    std::vector<float> data;

    Matrix() = default;
    Matrix(std::uint32_t r, std::uint32_t c)
        : rows(r), cols(c), data(std::size_t(r) * c, 0.f)
    {}
    /** Take a row-major payload of r * c elements. */
    Matrix(std::uint32_t r, std::uint32_t c, std::vector<float> payload)
        : rows(r), cols(c), data(std::move(payload))
    {}
    /** Wrap a raw row-major payload (e.g. a pooled chunk tile). */
    Matrix(std::uint32_t r, std::uint32_t c, const float *src)
        : rows(r), cols(c), data(src, src + std::size_t(r) * c)
    {}

    float &at(std::uint32_t r, std::uint32_t c)
    {
        return data[std::size_t(r) * cols + c];
    }
    float at(std::uint32_t r, std::uint32_t c) const
    {
        return data[std::size_t(r) * cols + c];
    }
};

/** Deterministic pseudo-random matrix in [-scale, scale] (xorshift). */
Matrix randomMatrix(std::uint32_t rows, std::uint32_t cols,
                    std::uint32_t seed, float scale = 1.0f);

/** C = A * B, by the fastest path this CPU runs (see the file comment). */
Matrix matmul(const Matrix &a, const Matrix &b);

/** C = A * B^T: matmul(a, transpose(b)). */
Matrix matmulBt(const Matrix &a, const Matrix &b);

namespace detail {

/**
 * The paths matmul() picks from, once, at first use: Avx2 (packed
 * panels, 4x16 register tiles) where the CPU has AVX2, else the Loop
 * definition. Exposed so tests can hold each path to the definition.
 */
enum class MatmulPath { Loop, Avx2 };

/** Whether this build and CPU can run @p path. */
bool canRun(MatmulPath path);

/** matmul() through @p path, which must be runnable. */
Matrix matmulVia(MatmulPath path, const Matrix &a, const Matrix &b);

} // namespace detail

/** Transpose. */
Matrix transpose(const Matrix &a);

/** Add a row vector (bias) to every row. */
Matrix addBias(const Matrix &a, const std::vector<float> &bias);

/** Element-wise sum. */
Matrix add(const Matrix &a, const Matrix &b);

/** Row-wise softmax. */
Matrix softmax(const Matrix &a);

/** Element-wise exact GELU. */
Matrix gelu(const Matrix &a);

/** Row-wise LayerNorm with gamma/beta (eps = 1e-5). */
Matrix layernorm(const Matrix &a, const std::vector<float> &gamma,
                 const std::vector<float> &beta);

/**
 * Compare matrices with combined absolute/relative tolerance.
 * @return true when all elements agree; fills @p why on mismatch.
 */
bool allclose(const Matrix &a, const Matrix &b, float rtol, float atol,
              std::string *why = nullptr);

/** Max absolute element difference. */
float maxAbsDiff(const Matrix &a, const Matrix &b);

} // namespace rsn::ref

#endif // RSN_REF_REF_MATH_HH
