/**
 * @file
 * Unit tests for the tensor substrate: storage, arithmetic, matmul
 * variants, im2col/col2im, convolution, pooling and softmax.
 */

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "nn/pooling.h"
#include "scoped_threads.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"

using namespace superbnn;

TEST(Tensor, DefaultIsEmpty)
{
    Tensor t;
    EXPECT_EQ(t.size(), 0u);
    EXPECT_TRUE(t.empty());
    EXPECT_EQ(t.rank(), 0u);
}

TEST(Tensor, ZeroInitialized)
{
    Tensor t({2, 3});
    EXPECT_EQ(t.size(), 6u);
    for (std::size_t i = 0; i < t.size(); ++i)
        EXPECT_EQ(t[i], 0.0f);
}

TEST(Tensor, FillConstructor)
{
    Tensor t({4}, 2.5f);
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(t[i], 2.5f);
}

TEST(Tensor, FromVector)
{
    Tensor t = Tensor::fromVector({1.0f, 2.0f, 3.0f});
    EXPECT_EQ(t.rank(), 1u);
    EXPECT_EQ(t.dim(0), 3u);
    EXPECT_EQ(t[1], 2.0f);
}

TEST(Tensor, TwoDimAccess)
{
    Tensor t({2, 3});
    t.at(1, 2) = 7.0f;
    EXPECT_EQ(t[5], 7.0f);
    EXPECT_EQ(t.at(1, 2), 7.0f);
}

TEST(Tensor, FourDimAccess)
{
    Tensor t({2, 3, 4, 5});
    t.at(1, 2, 3, 4) = 9.0f;
    EXPECT_EQ(t[((1 * 3 + 2) * 4 + 3) * 5 + 4], 9.0f);
}

TEST(Tensor, ReshapePreservesData)
{
    Tensor t = Tensor::fromVector({1, 2, 3, 4, 5, 6});
    Tensor r = t.reshaped({2, 3});
    EXPECT_EQ(r.at(1, 0), 4.0f);
    EXPECT_EQ(r.size(), 6u);
}

TEST(Tensor, ElementwiseArithmetic)
{
    Tensor a = Tensor::fromVector({1, 2, 3});
    Tensor b = Tensor::fromVector({4, 5, 6});
    Tensor c = a + b;
    EXPECT_EQ(c[0], 5.0f);
    EXPECT_EQ(c[2], 9.0f);
    Tensor d = b - a;
    EXPECT_EQ(d[1], 3.0f);
    Tensor e = a * b;
    EXPECT_EQ(e[2], 18.0f);
    Tensor f = a * 2.0f;
    EXPECT_EQ(f[0], 2.0f);
}

TEST(Tensor, InPlaceScalar)
{
    Tensor a = Tensor::fromVector({1, 2});
    a += 1.0f;
    EXPECT_EQ(a[0], 2.0f);
    a *= 3.0f;
    EXPECT_EQ(a[1], 9.0f);
}

TEST(Tensor, Reductions)
{
    Tensor t = Tensor::fromVector({1, 2, 3, 4});
    EXPECT_DOUBLE_EQ(t.sum(), 10.0);
    EXPECT_DOUBLE_EQ(t.mean(), 2.5);
    EXPECT_NEAR(t.variance(), 1.25, 1e-9);
    EXPECT_EQ(t.maxValue(), 4.0f);
    EXPECT_EQ(t.minValue(), 1.0f);
    EXPECT_EQ(t.argmax(), 3u);
}

TEST(Tensor, EqualsAndAllClose)
{
    Tensor a = Tensor::fromVector({1, 2});
    Tensor b = Tensor::fromVector({1, 2});
    Tensor c = Tensor::fromVector({1, 2.000001f});
    EXPECT_TRUE(a.equals(b));
    EXPECT_FALSE(a.equals(c));
    EXPECT_TRUE(a.allClose(c, 1e-4f));
    EXPECT_FALSE(a.allClose(Tensor::fromVector({1, 3}), 0.5f));
}

TEST(Tensor, ShapeString)
{
    Tensor t({2, 3, 4});
    EXPECT_EQ(t.shapeString(), "Tensor[2, 3, 4]");
}

TEST(Tensor, RandnStatistics)
{
    Rng rng(11);
    Tensor t = Tensor::randn({10000}, rng, 1.0f, 2.0f);
    EXPECT_NEAR(t.mean(), 1.0, 0.1);
    EXPECT_NEAR(std::sqrt(t.variance()), 2.0, 0.1);
}

TEST(Tensor, RandRange)
{
    Rng rng(12);
    Tensor t = Tensor::rand({1000}, rng, -2.0f, 3.0f);
    EXPECT_GE(t.minValue(), -2.0f);
    EXPECT_LT(t.maxValue(), 3.0f);
}

TEST(Tensor, KaimingScalesWithFanIn)
{
    Rng rng(13);
    Tensor a = Tensor::kaiming({64, 100}, rng, 100);
    EXPECT_NEAR(std::sqrt(a.variance()), std::sqrt(2.0 / 100.0), 0.02);
}

// --- matmul ---

TEST(MatMul, Known2x2)
{
    Tensor a = Tensor::fromVector({1, 2, 3, 4}).reshaped({2, 2});
    Tensor b = Tensor::fromVector({5, 6, 7, 8}).reshaped({2, 2});
    Tensor c = matmul(a, b);
    EXPECT_EQ(c.at(0, 0), 19.0f);
    EXPECT_EQ(c.at(0, 1), 22.0f);
    EXPECT_EQ(c.at(1, 0), 43.0f);
    EXPECT_EQ(c.at(1, 1), 50.0f);
}

TEST(MatMul, TransposedVariantsAgree)
{
    Rng rng(5);
    Tensor a = Tensor::randn({7, 5}, rng);
    Tensor b = Tensor::randn({5, 9}, rng);
    Tensor c = matmul(a, b);

    // matmulTransposedB(a, b^T) == a b.
    Tensor bt({9, 5});
    for (std::size_t i = 0; i < 5; ++i)
        for (std::size_t j = 0; j < 9; ++j)
            bt.at(j, i) = b.at(i, j);
    EXPECT_TRUE(matmulTransposedB(a, bt).allClose(c, 1e-4f));

    // matmulTransposedA(a^T, b) == a b.
    Tensor at({5, 7});
    for (std::size_t i = 0; i < 7; ++i)
        for (std::size_t j = 0; j < 5; ++j)
            at.at(j, i) = a.at(i, j);
    EXPECT_TRUE(matmulTransposedA(at, b).allClose(c, 1e-4f));
}

TEST(MatMul, IdentityIsNoop)
{
    Rng rng(6);
    Tensor a = Tensor::randn({4, 4}, rng);
    Tensor eye({4, 4});
    for (std::size_t i = 0; i < 4; ++i)
        eye.at(i, i) = 1.0f;
    EXPECT_TRUE(matmul(a, eye).allClose(a, 1e-6f));
    EXPECT_TRUE(matmul(eye, a).allClose(a, 1e-6f));
}

// --- differential kernels: the pool-partitioned matmuls against
// in-test scalar loops, bit for bit, at several pool sizes ---

namespace {

/** Random (rows, cols) matrix with exact zeros at every 7th entry. */
Tensor
randnWithZeros(std::size_t rows, std::size_t cols, Rng &rng)
{
    Tensor t = Tensor::randn({rows, cols}, rng);
    for (std::size_t i = 0; i < t.size(); i += 7)
        t[i] = 0.0f;
    return t;
}

Tensor
naiveMatmul(const Tensor &a, const Tensor &b)
{
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk)
                if (a.at(i, kk) != 0.0f)
                    acc += a.at(i, kk) * b.at(kk, j);
            c.at(i, j) = acc;
        }
    return c;
}

Tensor
naiveMatmulTransposedB(const Tensor &a, const Tensor &b)
{
    const std::size_t m = a.dim(0), k = a.dim(1), n = b.dim(0);
    Tensor c({m, n});
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            double acc = 0.0;
            for (std::size_t kk = 0; kk < k; ++kk)
                acc += static_cast<double>(a.at(i, kk)) * b.at(j, kk);
            c.at(i, j) = static_cast<float>(acc);
        }
    return c;
}

Tensor
naiveMatmulTransposedA(const Tensor &a, const Tensor &b)
{
    const std::size_t k = a.dim(0), m = a.dim(1), n = b.dim(1);
    Tensor c({m, n});
    for (std::size_t i = 0; i < m; ++i)
        for (std::size_t j = 0; j < n; ++j) {
            float acc = 0.0f;
            for (std::size_t kk = 0; kk < k; ++kk)
                if (a.at(kk, i) != 0.0f)
                    acc += a.at(kk, i) * b.at(kk, j);
            c.at(i, j) = acc;
        }
    return c;
}

bool
bitEqual(const Tensor &x, const Tensor &y)
{
    return x.shape() == y.shape()
        && std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0;
}

/** (m, k, n): one row; rows split into uneven blocks; tiny (inline). */
const std::size_t kMatmulShapes[][3] = {
    {1, 37, 11}, {100, 40, 25}, {67, 300, 9}, {3, 5, 4}};

} // namespace

TEST(MatMulDifferential, BitEqualToScalarLoopsAtEveryPoolSize)
{
    for (const char *threads : test_util::kPoolSizes) {
        const test_util::ScopedThreads scope(threads);
        Rng rng(71);
        for (const auto &shape : kMatmulShapes) {
            const std::size_t m = shape[0], k = shape[1], n = shape[2];
            const Tensor a = randnWithZeros(m, k, rng);
            const Tensor b = randnWithZeros(k, n, rng);
            const Tensor bt = randnWithZeros(n, k, rng);
            const Tensor at = randnWithZeros(k, m, rng);
            EXPECT_TRUE(bitEqual(matmul(a, b), naiveMatmul(a, b)))
                << "matmul " << m << "x" << k << "x" << n << " @ "
                << threads;
            EXPECT_TRUE(bitEqual(matmulTransposedB(a, bt),
                                 naiveMatmulTransposedB(a, bt)))
                << "matmulTransposedB " << m << "x" << k << "x" << n
                << " @ " << threads;
            EXPECT_TRUE(bitEqual(matmulTransposedA(at, b),
                                 naiveMatmulTransposedA(at, b)))
                << "matmulTransposedA " << m << "x" << k << "x" << n
                << " @ " << threads;
        }
    }
}

TEST(ParallelRowBlocks, PartitionsRowsIntoWorkSizedBlocks)
{
    const test_util::ScopedThreads scope("4");
    for (const std::size_t work : {1u, 1000u, 40000u}) {
        std::vector<int> seen(101, 0);
        std::vector<std::pair<std::size_t, std::size_t>> blocks(101);
        parallelRowBlocks(101, work, [&](std::size_t lo, std::size_t hi) {
            blocks[lo] = {lo, hi};
            for (std::size_t r = lo; r < hi; ++r)
                ++seen[r];
        });
        for (int v : seen)
            EXPECT_EQ(v, 1) << "work " << work;
        // Every block but the last carries at least 32k multiply-adds.
        for (const auto &[lo, hi] : blocks)
            if (hi != 0 && hi != 101)
                EXPECT_GE((hi - lo) * work, 32768u) << "work " << work;
    }
    std::size_t calls = 0;
    parallelRowBlocks(0, 100, [&](std::size_t, std::size_t) { ++calls; });
    EXPECT_EQ(calls, 0u);
}

// --- conv / im2col ---

namespace {

/** Direct (reference) convolution for cross-checking im2col conv2d. */
Tensor
naiveConv(const Tensor &input, const Tensor &weight, const Tensor &bias,
          const Conv2dSpec &spec)
{
    const std::size_t n = input.dim(0), c = input.dim(1);
    const std::size_t h = input.dim(2), w = input.dim(3);
    const std::size_t o = weight.dim(0), k = spec.kernel;
    const std::size_t oh = spec.outExtent(h), ow = spec.outExtent(w);
    Tensor out({n, o, oh, ow});
    for (std::size_t ni = 0; ni < n; ++ni)
        for (std::size_t oi = 0; oi < o; ++oi)
            for (std::size_t oy = 0; oy < oh; ++oy)
                for (std::size_t ox = 0; ox < ow; ++ox) {
                    double acc = bias.empty() ? 0.0 : bias[oi];
                    for (std::size_t ci = 0; ci < c; ++ci)
                        for (std::size_t ky = 0; ky < k; ++ky)
                            for (std::size_t kx = 0; kx < k; ++kx) {
                                const std::ptrdiff_t iy =
                                    static_cast<std::ptrdiff_t>(
                                        oy * spec.stride + ky)
                                    - static_cast<std::ptrdiff_t>(
                                        spec.padding);
                                const std::ptrdiff_t ix =
                                    static_cast<std::ptrdiff_t>(
                                        ox * spec.stride + kx)
                                    - static_cast<std::ptrdiff_t>(
                                        spec.padding);
                                if (iy < 0 || ix < 0
                                    || iy >= static_cast<std::ptrdiff_t>(h)
                                    || ix >= static_cast<std::ptrdiff_t>(w))
                                    continue;
                                acc += input.at(ni, ci, iy, ix)
                                    * weight.at(oi, ci, ky, kx);
                            }
                    out.at(ni, oi, oy, ox) = static_cast<float>(acc);
                }
    return out;
}

} // namespace

struct ConvCase
{
    std::size_t n, c, h, o, kernel, stride, padding;
};

class ConvParamTest : public ::testing::TestWithParam<ConvCase>
{
};

TEST_P(ConvParamTest, MatchesNaiveConvolution)
{
    const auto p = GetParam();
    Rng rng(99);
    Tensor input = Tensor::randn({p.n, p.c, p.h, p.h}, rng);
    Tensor weight =
        Tensor::randn({p.o, p.c, p.kernel, p.kernel}, rng);
    Tensor bias = Tensor::randn({p.o}, rng);
    Conv2dSpec spec{p.kernel, p.stride, p.padding};
    // im2col + matmul, the lowering BinaryConv2d runs, with the bias
    // added per output channel.
    const std::size_t oh = spec.outExtent(p.h);
    const std::size_t plane = oh * oh;
    const Tensor prod = matmul(
        weight.reshaped({p.o, p.c * p.kernel * p.kernel}),
        im2col(input, spec)); // (O, N*oh*ow)
    Tensor fast({p.n, p.o, oh, oh});
    for (std::size_t oi = 0; oi < p.o; ++oi)
        for (std::size_t ni = 0; ni < p.n; ++ni)
            for (std::size_t q = 0; q < plane; ++q)
                fast[(ni * p.o + oi) * plane + q] =
                    prod[oi * p.n * plane + ni * plane + q] + bias[oi];
    Tensor ref = naiveConv(input, weight, bias, spec);
    EXPECT_TRUE(fast.allClose(ref, 1e-3f))
        << fast.shapeString() << " vs " << ref.shapeString();
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConvParamTest,
    ::testing::Values(ConvCase{1, 1, 5, 1, 3, 1, 0},
                      ConvCase{2, 3, 8, 4, 3, 1, 1},
                      ConvCase{1, 2, 7, 3, 3, 2, 1},
                      ConvCase{2, 4, 6, 8, 1, 1, 0},
                      ConvCase{1, 3, 9, 2, 5, 2, 2},
                      ConvCase{3, 1, 4, 2, 2, 2, 0}));

TEST(Im2Col, RoundTripAdjoint)
{
    // col2im(im2col(x)) multiplies each pixel by its patch multiplicity;
    // verify via the adjoint identity <im2col(x), y> == <x, col2im(y)>.
    Rng rng(7);
    const Conv2dSpec spec{3, 1, 1};
    Tensor x = Tensor::randn({2, 3, 6, 6}, rng);
    Tensor cx = im2col(x, spec);
    Tensor y = Tensor::randn(cx.shape(), rng);
    Tensor aty = col2im(y, x.shape(), spec);
    double lhs = 0.0, rhs = 0.0;
    for (std::size_t i = 0; i < cx.size(); ++i)
        lhs += static_cast<double>(cx[i]) * y[i];
    for (std::size_t i = 0; i < x.size(); ++i)
        rhs += static_cast<double>(x[i]) * aty[i];
    EXPECT_NEAR(lhs, rhs, 1e-2 * std::max(1.0, std::fabs(lhs)));
}

TEST(Im2Col, OutputShape)
{
    Tensor x({1, 2, 5, 5});
    Conv2dSpec spec{3, 1, 0};
    Tensor cols = im2col(x, spec);
    EXPECT_EQ(cols.dim(0), 2u * 9u);
    EXPECT_EQ(cols.dim(1), 9u);
}

// --- pooling ---

TEST(Pooling, MaxPoolValuesAndIndices)
{
    Tensor x({1, 1, 4, 4});
    for (std::size_t i = 0; i < 16; ++i)
        x[i] = static_cast<float>(i);
    auto res = maxPool2d(x, {2, 2, 0});
    EXPECT_EQ(res.output.dim(2), 2u);
    EXPECT_EQ(res.output.at(0, 0, 0, 0), 5.0f);
    EXPECT_EQ(res.output.at(0, 0, 1, 1), 15.0f);
    EXPECT_EQ(res.indices[0], 5u);
    EXPECT_EQ(res.indices[3], 15u);
}

TEST(Pooling, MaxPoolOnBipolarValuesActsAsOr)
{
    Tensor x({1, 1, 2, 2}, -1.0f);
    x[2] = 1.0f;
    auto res = maxPool2d(x, {2, 2, 0});
    EXPECT_EQ(res.output[0], 1.0f);
    Tensor all_neg({1, 1, 2, 2}, -1.0f);
    EXPECT_EQ(maxPool2d(all_neg, {2, 2, 0}).output[0], -1.0f);
}

TEST(Pooling, WindowWithoutAMaximumStaysInItsPlane)
{
    // Windows with no value above -inf: all NaN, all -inf, or wholly in
    // padding. Each must record an index inside its own plane, so the
    // per-plane backward scatter touches nothing else.
    Tensor padded({1, 2, 4, 4}, 1.0f);
    const MaxPoolResult pres = maxPool2d(padded, {2, 2, 2});
    for (std::size_t o = 0; o < pres.indices.size(); ++o)
        EXPECT_EQ(pres.indices[o] / 16, o / 16) << "output " << o;

    const std::size_t n = 4, c = 32, h = 64, w = 64, plane = h * w;
    const std::size_t nan_plane = 37, inf_plane = 70;
    Rng rng(5);
    Tensor x = Tensor::randn({n, c, h, w}, rng);
    for (std::size_t i = 0; i < plane; ++i) {
        x[nan_plane * plane + i] = std::numeric_limits<float>::quiet_NaN();
        x[inf_plane * plane + i] = -std::numeric_limits<float>::infinity();
    }
    for (const char *threads : test_util::kPoolSizes) {
        const test_util::ScopedThreads scope(threads);
        const MaxPoolResult res = maxPool2d(x, {2, 2, 0});
        const std::size_t out_plane = res.output.size() / (n * c);
        for (std::size_t o = 0; o < res.indices.size(); ++o)
            ASSERT_EQ(res.indices[o] / plane, o / out_plane)
                << "output " << o << " @ " << threads;

        // Gradient only on the two windowless planes.
        nn::MaxPool2d pool(2, 2);
        const Tensor y = pool.forward(x, true);
        Tensor g(y.shape());
        for (std::size_t i = 0; i < out_plane; ++i) {
            g[nan_plane * out_plane + i] = 1.0f;
            g[inf_plane * out_plane + i] = 1.0f;
        }
        const Tensor dx = pool.backward(g);
        double in_planes = 0.0;
        std::size_t stray = 0;
        for (std::size_t i = 0; i < dx.size(); ++i) {
            const std::size_t u = i / plane;
            if (u == nan_plane || u == inf_plane)
                in_planes += dx[i];
            else
                stray += dx[i] != 0.0f;
        }
        EXPECT_EQ(stray, 0u) << "@ " << threads;
        EXPECT_EQ(in_planes, 2.0 * static_cast<double>(out_plane))
            << "@ " << threads;
    }
}

// --- softmax ---

TEST(Softmax, RowsSumToOne)
{
    Rng rng(21);
    Tensor logits = Tensor::randn({5, 7}, rng, 0.0f, 3.0f);
    Tensor p = softmaxRows(logits);
    for (std::size_t r = 0; r < 5; ++r) {
        double s = 0.0;
        for (std::size_t c = 0; c < 7; ++c) {
            EXPECT_GT(p.at(r, c), 0.0f);
            s += p.at(r, c);
        }
        EXPECT_NEAR(s, 1.0, 1e-5);
    }
}

TEST(Softmax, StableUnderLargeLogits)
{
    Tensor logits({1, 3});
    logits[0] = 1000.0f;
    logits[1] = 1001.0f;
    logits[2] = 999.0f;
    Tensor p = softmaxRows(logits);
    EXPECT_FALSE(std::isnan(p[0]));
    EXPECT_GT(p[1], p[0]);
    EXPECT_GT(p[0], p[2]);
}

TEST(Softmax, ArgmaxPreserved)
{
    Rng rng(31);
    for (int trial = 0; trial < 20; ++trial) {
        Tensor logits = Tensor::randn({1, 10}, rng);
        Tensor p = softmaxRows(logits);
        EXPECT_EQ(logits.argmax(), p.argmax());
    }
}
