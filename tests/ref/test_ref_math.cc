// Holds every matmul() path this CPU can run to the reference's
// definition, bit for bit. Compiled with -ffp-contract=off (see
// CMakeLists.txt), so the oracles below round each product and each sum
// on their own, exactly as src/ref/ref_math.hh defines matmul().

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <vector>

#include "ref/ref_math.hh"

namespace {

using namespace rsn;
using ref::Matrix;
using ref::detail::MatmulPath;

/** The definition: c(i,j) = 0 + a(i,0)*b(0,j) + ... in ascending k. */
Matrix
oracleMatmul(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows, b.cols);
    for (std::uint32_t i = 0; i < a.rows; ++i)
        for (std::uint32_t j = 0; j < b.cols; ++j) {
            float acc = 0.f;
            for (std::uint32_t k = 0; k < a.cols; ++k)
                acc = acc + a.at(i, k) * b.at(k, j);
            c.at(i, j) = acc;
        }
    return c;
}

/** matmulBt's former definition: one dot product per output. */
Matrix
oracleMatmulBt(const Matrix &a, const Matrix &b)
{
    Matrix c(a.rows, b.rows);
    for (std::uint32_t i = 0; i < a.rows; ++i)
        for (std::uint32_t j = 0; j < b.rows; ++j) {
            float acc = 0.f;
            for (std::uint32_t k = 0; k < a.cols; ++k)
                acc += a.at(i, k) * b.at(j, k);
            c.at(i, j) = acc;
        }
    return c;
}

/**
 * Operands shaped like the reference's real inputs: a third exact +0,
 * some -0 and denormals (softmax rows underflow to both), and signed
 * normals over several binades so partial sums cancel and round.
 */
Matrix
mixedMatrix(std::uint32_t rows, std::uint32_t cols, std::uint32_t seed)
{
    Matrix m(rows, cols);
    std::uint32_t s = seed * 2654435761u + 1;
    for (float &v : m.data) {
        s ^= s << 13;
        s ^= s >> 17;
        s ^= s << 5;
        const float unit = float(s >> 8) / float(1u << 24);  // [0, 1)
        switch (s % 10) {
        case 0: case 1: case 2: v = 0.f; break;
        case 3: v = -0.f; break;
        case 4: v = unit * 1e-39f; break;   // denormal
        case 5: v = -unit * 1e-40f; break;  // denormal
        case 6: v = unit * 1e4f - 5e3f; break;
        default: v = unit * 2.f - 1.f; break;
        }
    }
    return m;
}

std::vector<MatmulPath>
runnablePaths()
{
    std::vector<MatmulPath> paths;
    for (MatmulPath p : {MatmulPath::Loop, MatmulPath::Avx2})
        if (ref::detail::canRun(p))
            paths.push_back(p);
    return paths;
}

::testing::AssertionResult
bitIdentical(const Matrix &got, const Matrix &want)
{
    if (got.rows != want.rows || got.cols != want.cols)
        return ::testing::AssertionFailure() << "shape differs";
    for (std::size_t i = 0; i < want.data.size(); ++i) {
        std::uint32_t g, w;
        std::memcpy(&g, &got.data[i], 4);
        std::memcpy(&w, &want.data[i], 4);
        if (g != w) {
            std::ostringstream os;
            os << "element " << i << ": " << got.data[i] << " (0x"
               << std::hex << g << ") vs " << want.data[i] << " (0x" << w
               << ")";
            return ::testing::AssertionFailure() << os.str();
        }
    }
    return ::testing::AssertionSuccess();
}

TEST(RefMatmul, LoopPathAlwaysRuns)
{
    EXPECT_TRUE(ref::detail::canRun(MatmulPath::Loop));
#if !defined(__x86_64__) && !defined(__i386__)
    EXPECT_FALSE(ref::detail::canRun(MatmulPath::Avx2));
#endif
}

TEST(RefMatmul, EveryPathMatchesTheDefinitionBitForBit)
{
    std::uint32_t seed = 1;
    for (std::uint32_t m : {1u, 3u, 4u, 5u, 17u, 128u})
        for (std::uint32_t k : {0u, 1u, 2u, 7u, 129u})
            for (std::uint32_t n : {1u, 15u, 16u, 17u, 33u, 100u}) {
                const Matrix a = mixedMatrix(m, k, seed++);
                const Matrix b = mixedMatrix(k, n, seed++);
                const Matrix want = oracleMatmul(a, b);
                for (MatmulPath p : runnablePaths())
                    EXPECT_TRUE(bitIdentical(
                        ref::detail::matmulVia(p, a, b), want))
                        << "path " << int(p) << ", " << m << "x" << k
                        << "x" << n;
                EXPECT_TRUE(bitIdentical(ref::matmul(a, b), want));
            }
}

TEST(RefMatmul, SoftmaxTimesValuesMatchesTheDefinition)
{
    // The attention context product: probability rows that are mostly
    // exact zeros and denormals against signed values.
    Matrix logits = ref::randomMatrix(33, 129, 7, 60.f);
    const Matrix probs = ref::softmax(logits);
    const Matrix v = mixedMatrix(129, 64, 11);
    const Matrix want = oracleMatmul(probs, v);
    for (MatmulPath p : runnablePaths())
        EXPECT_TRUE(bitIdentical(ref::detail::matmulVia(p, probs, v), want))
            << "path " << int(p);
}

TEST(RefMatmul, CancellationLeavesPositiveZero)
{
    // x + (-x) rounds to +0, and later -0 products must leave it there.
    Matrix a(1, 4, std::vector<float>{1.f, 1.f, -0.f, 1.f});
    Matrix b(4, 17, std::vector<float>(4 * 17, 0.f));
    for (std::uint32_t j = 0; j < 17; ++j) {
        b.at(0, j) = 3.f;
        b.at(1, j) = -3.f;
        b.at(2, j) = 5.f;
        b.at(3, j) = -0.f;
    }
    const Matrix want = oracleMatmul(a, b);
    EXPECT_FALSE(std::signbit(want.at(0, 0)));
    for (MatmulPath p : runnablePaths())
        EXPECT_TRUE(bitIdentical(ref::detail::matmulVia(p, a, b), want))
            << "path " << int(p);
}

TEST(RefMatmul, EmptyInnerDimensionGivesZeros)
{
    const Matrix a(5, 0), b(0, 17);
    const Matrix zeros(5, 17);
    for (MatmulPath p : runnablePaths())
        EXPECT_TRUE(bitIdentical(ref::detail::matmulVia(p, a, b), zeros))
            << "path " << int(p);
}

TEST(RefMatmul, MatmulBtMatchesTheDotProductDefinition)
{
    std::uint32_t seed = 100;
    for (std::uint32_t m : {1u, 5u, 128u})
        for (std::uint32_t k : {0u, 1u, 7u, 64u})
            for (std::uint32_t n : {1u, 17u, 100u}) {
                const Matrix a = mixedMatrix(m, k, seed++);
                const Matrix b = mixedMatrix(n, k, seed++);
                EXPECT_TRUE(
                    bitIdentical(ref::matmulBt(a, b), oracleMatmulBt(a, b)))
                    << m << "x" << k << "x" << n;
            }
}

} // namespace
