/// Cross-backend tests of the SIMD abstraction layer: every operation of the
/// active backend (AVX2 where compiled in) is checked against the portable
/// scalar backend on randomized lanes, mirroring how the paper validated its
/// intrinsics wrapper. The width-generic suite at the bottom runs the same
/// contracts over every 4-wide AND 8-wide backend (Vec8dScalar, and
/// Vec8dAvx512 where compiled in) — the runtime-dispatch kernels
/// (core/kernel_dispatch.h) rely on all of them agreeing bitwise.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "simd/simd.h"
#include "simd/simplex4.h"
#include "util/alignment.h"
#include "util/fastmath.h"
#include "util/random.h"
#include "util/simplex.h"

namespace tpf::simd {
namespace {

template <typename V>
std::array<double, 4> lanes(V v) {
    alignas(32) double out[4];
    v.storeu(out);
    return {out[0], out[1], out[2], out[3]};
}

using Backends = ::testing::Types<
#if defined(__AVX2__)
    Vec4dAvx2,
#endif
#if defined(__SSE2__) || defined(_M_X64)
    Vec4dSse2,
#endif
    Vec4dScalar>;

template <typename V>
class SimdBackendTest : public ::testing::Test {};
TYPED_TEST_SUITE(SimdBackendTest, Backends);

TYPED_TEST(SimdBackendTest, SetAndLane) {
    auto v = TypeParam::set(1.0, 2.0, 3.0, 4.0);
    EXPECT_EQ(v.lane(0), 1.0);
    EXPECT_EQ(v.lane(1), 2.0);
    EXPECT_EQ(v.lane(2), 3.0);
    EXPECT_EQ(v.lane(3), 4.0);
}

TYPED_TEST(SimdBackendTest, BroadcastZeroLoadStore) {
    EXPECT_EQ(TypeParam::zero().hsum(), 0.0);
    auto b = TypeParam::broadcast(2.5);
    EXPECT_EQ(b.hsum(), 10.0);

    alignas(32) double buf[4] = {5, 6, 7, 8};
    auto v = TypeParam::load(buf);
    alignas(32) double out[4];
    v.store(out);
    for (int i = 0; i < 4; ++i) EXPECT_EQ(out[i], buf[i]);

    double ubuf[5] = {0, 1, 2, 3, 4};
    auto u = TypeParam::loadu(ubuf + 1);
    EXPECT_EQ(u.lane(3), 4.0);
}

TYPED_TEST(SimdBackendTest, ArithmeticMatchesScalar) {
    Random rng(11);
    for (int t = 0; t < 100; ++t) {
        double a[4], b[4];
        for (int i = 0; i < 4; ++i) {
            a[i] = rng.uniform(-10.0, 10.0);
            b[i] = rng.uniform(0.1, 10.0);
        }
        auto va = TypeParam::loadu(a), vb = TypeParam::loadu(b);
        auto sum = lanes(va + vb);
        auto dif = lanes(va - vb);
        auto mul = lanes(va * vb);
        auto quo = lanes(va / vb);
        auto neg = lanes(-va);
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(sum[i], a[i] + b[i]);
            EXPECT_EQ(dif[i], a[i] - b[i]);
            EXPECT_EQ(mul[i], a[i] * b[i]);
            EXPECT_EQ(quo[i], a[i] / b[i]);
            EXPECT_EQ(neg[i], -a[i]);
        }
    }
}

TYPED_TEST(SimdBackendTest, FmaddMatchesStdFma) {
    Random rng(13);
    for (int t = 0; t < 100; ++t) {
        double a[4], b[4], c[4];
        for (int i = 0; i < 4; ++i) {
            a[i] = rng.uniform(-5.0, 5.0);
            b[i] = rng.uniform(-5.0, 5.0);
            c[i] = rng.uniform(-5.0, 5.0);
        }
        auto r = lanes(TypeParam::fmadd(TypeParam::loadu(a), TypeParam::loadu(b),
                                        TypeParam::loadu(c)));
        auto s = lanes(TypeParam::fmsub(TypeParam::loadu(a), TypeParam::loadu(b),
                                        TypeParam::loadu(c)));
        for (int i = 0; i < 4; ++i) {
            EXPECT_EQ(r[i], std::fma(a[i], b[i], c[i]));
            EXPECT_EQ(s[i], std::fma(a[i], b[i], -c[i]));
        }
    }
}

TYPED_TEST(SimdBackendTest, MinMaxAbsSqrt) {
    auto a = TypeParam::set(-1.0, 2.0, -3.0, 4.0);
    auto b = TypeParam::set(1.0, -2.0, 3.0, -4.0);
    auto mn = lanes(TypeParam::min(a, b));
    auto mx = lanes(TypeParam::max(a, b));
    auto ab = lanes(TypeParam::abs(a));
    EXPECT_EQ(mn[0], -1.0);
    EXPECT_EQ(mn[1], -2.0);
    EXPECT_EQ(mx[0], 1.0);
    EXPECT_EQ(mx[3], 4.0);
    EXPECT_EQ(ab[0], 1.0);
    EXPECT_EQ(ab[2], 3.0);

    auto sq = lanes(TypeParam::sqrt(TypeParam::set(4.0, 9.0, 16.0, 25.0)));
    EXPECT_EQ(sq[0], 2.0);
    EXPECT_EQ(sq[3], 5.0);
}

TYPED_TEST(SimdBackendTest, RsqrtFastMatchesScalarHelperBitwise) {
    Random rng(17);
    for (int t = 0; t < 50; ++t) {
        double a[4];
        for (int i = 0; i < 4; ++i) a[i] = rng.uniform(1e-6, 1e6);
        auto r = lanes(TypeParam::rsqrtFast(TypeParam::loadu(a)));
        for (int i = 0; i < 4; ++i) EXPECT_EQ(r[i], fastInvSqrt<3>(a[i]));
    }
}

TYPED_TEST(SimdBackendTest, CompareAndBlend) {
    auto a = TypeParam::set(1.0, 5.0, 3.0, 7.0);
    auto b = TypeParam::set(2.0, 4.0, 3.0, 8.0);

    auto lt = a < b;
    EXPECT_TRUE(lt.lane(0));
    EXPECT_FALSE(lt.lane(1));
    EXPECT_FALSE(lt.lane(2));
    EXPECT_TRUE(lt.lane(3));
    EXPECT_TRUE(lt.any());
    EXPECT_FALSE(lt.all());

    auto le = a <= b;
    EXPECT_TRUE(le.lane(2));

    auto eq = a == b;
    EXPECT_TRUE(eq.lane(2));
    EXPECT_FALSE(eq.lane(0));

    auto sel = lanes(TypeParam::blend(lt, a, b));
    EXPECT_EQ(sel[0], 1.0); // lt -> a
    EXPECT_EQ(sel[1], 4.0); // !lt -> b
    EXPECT_EQ(sel[3], 7.0);

    auto band = (a < b) & (a > TypeParam::zero());
    EXPECT_TRUE(band.lane(0));
    auto bor = (a < b) | (a == b);
    EXPECT_TRUE(bor.lane(2));
    auto bnot = !(a < b);
    EXPECT_TRUE(bnot.lane(1));
    EXPECT_FALSE(bnot.lane(0));
}

TYPED_TEST(SimdBackendTest, RotateAndReverse) {
    auto v = TypeParam::set(10.0, 20.0, 30.0, 40.0);
    auto r1 = lanes(v.rotateLeft1());
    EXPECT_EQ(r1[0], 20.0);
    EXPECT_EQ(r1[1], 30.0);
    EXPECT_EQ(r1[2], 40.0);
    EXPECT_EQ(r1[3], 10.0);
    auto rev = lanes(v.reverse());
    EXPECT_EQ(rev[0], 40.0);
    EXPECT_EQ(rev[3], 10.0);
}

TYPED_TEST(SimdBackendTest, HorizontalReductions) {
    auto v = TypeParam::set(1.0, 2.0, 3.0, 4.0);
    EXPECT_EQ(v.hsum(), 10.0);
    EXPECT_EQ(v.hmax(), 4.0);
    EXPECT_EQ(v.hmin(), 1.0);
    // hsum association matches ((a+b)+(c+d)).
    auto w = TypeParam::set(0.1, 0.2, 0.3, 0.4);
    EXPECT_EQ(w.hsum(), (0.1 + 0.2) + (0.3 + 0.4));
}

#if defined(__AVX2__)
TEST(SimdCross, Avx2MatchesScalarOnRandomInputs) {
    Random rng(23);
    for (int t = 0; t < 200; ++t) {
        double a[4], b[4];
        for (int i = 0; i < 4; ++i) {
            a[i] = rng.uniform(-100.0, 100.0);
            b[i] = rng.uniform(0.5, 100.0);
        }
        auto va = Vec4dAvx2::loadu(a), vb = Vec4dAvx2::loadu(b);
        auto sa = Vec4dScalar::loadu(a), sb = Vec4dScalar::loadu(b);
        EXPECT_EQ((va + vb).hsum(), (sa + sb).hsum());
        // Product compared lane-wise: comparing hsum of a product would let
        // the compiler fuse the scalar mul+add chain into fma and differ in
        // the last ulp from the mul_pd/hadd sequence.
        for (int i = 0; i < 4; ++i)
            EXPECT_EQ((va * vb).lane(i), (sa * sb).lane(i));
        EXPECT_EQ(Vec4dAvx2::fmadd(va, vb, va).lane(2),
                  Vec4dScalar::fmadd(sa, sb, sa).lane(2));
        EXPECT_EQ(Vec4dAvx2::rsqrtFast(vb).lane(1),
                  Vec4dScalar::rsqrtFast(sb).lane(1));
        EXPECT_EQ(va.rotateLeft1().lane(3), sa.rotateLeft1().lane(3));
    }
}

TEST(SimdCross, BackendNameReportsAvx2) {
    EXPECT_EQ(backendName(), "AVX2");
}
#endif

// ---------------------------------------------------------------------------
// Width-generic suite: the same lane contracts for every backend of every
// width, written against V::width instead of literal 4s. Every op the
// dispatched kernel bodies use is covered, each compared lane-wise against
// plain scalar arithmetic (std::fma for the fused ops).

using AllWidthBackends = ::testing::Types<
#if defined(__AVX2__)
    Vec4dAvx2,
#endif
#if defined(__SSE2__) || defined(_M_X64)
    Vec4dSse2,
#endif
#if defined(__AVX512F__)
    Vec8dAvx512,
#endif
    Vec4dScalar, Vec8dScalar>;

template <typename V>
class SimdWidthTest : public ::testing::Test {};
TYPED_TEST_SUITE(SimdWidthTest, AllWidthBackends);

template <typename V>
std::vector<double> allLanes(V v) {
    alignas(64) double out[V::width];
    v.storeu(out);
    return std::vector<double>(out, out + V::width);
}

TYPED_TEST(SimdWidthTest, LaneArithmeticMatchesScalar) {
    constexpr int W = TypeParam::width;
    Random rng(29);
    for (int t = 0; t < 100; ++t) {
        double a[W], b[W], c[W];
        for (int i = 0; i < W; ++i) {
            a[i] = rng.uniform(-10.0, 10.0);
            b[i] = rng.uniform(0.1, 10.0);
            c[i] = rng.uniform(-5.0, 5.0);
        }
        auto va = TypeParam::loadu(a), vb = TypeParam::loadu(b),
             vc = TypeParam::loadu(c);
        auto sum = allLanes(va + vb);
        auto dif = allLanes(va - vb);
        auto mul = allLanes(va * vb);
        auto quo = allLanes(va / vb);
        auto neg = allLanes(-va);
        auto fma = allLanes(TypeParam::fmadd(va, vb, vc));
        auto fms = allLanes(TypeParam::fmsub(va, vb, vc));
        auto rsq = allLanes(TypeParam::rsqrtFast(vb));
        for (int i = 0; i < W; ++i) {
            EXPECT_EQ(sum[i], a[i] + b[i]);
            EXPECT_EQ(dif[i], a[i] - b[i]);
            EXPECT_EQ(mul[i], a[i] * b[i]);
            EXPECT_EQ(quo[i], a[i] / b[i]);
            EXPECT_EQ(neg[i], -a[i]);
            EXPECT_EQ(fma[i], std::fma(a[i], b[i], c[i]));
            EXPECT_EQ(fms[i], std::fma(a[i], b[i], -c[i]));
            EXPECT_EQ(rsq[i], fastInvSqrt<3>(b[i]));
        }
    }
}

TYPED_TEST(SimdWidthTest, NegatePreservesSignedZeroAndSpecials) {
    constexpr int W = TypeParam::width;
    // -(+0.0) must be -0.0 *bitwise* (the AVX-512 backend flips the sign bit
    // in the integer domain; a 0.0 - x fallback would get +0.0 wrong).
    double zeros[W];
    for (int i = 0; i < W; ++i) zeros[i] = i % 2 ? -0.0 : 0.0;
    auto neg = allLanes(-TypeParam::loadu(zeros));
    for (int i = 0; i < W; ++i) {
        EXPECT_EQ(std::signbit(neg[i]), !(i % 2)) << "lane " << i;
    }
    double inf[W];
    for (int i = 0; i < W; ++i) inf[i] = HUGE_VAL;
    auto ninf = allLanes(-TypeParam::loadu(inf));
    for (int i = 0; i < W; ++i) EXPECT_EQ(ninf[i], -HUGE_VAL);
}

TYPED_TEST(SimdWidthTest, SimplexProjectionMatchesScalarOnSignedZerosAndTies) {
    constexpr int W = TypeParam::width;
    // Signed zeros and exact ties: the inputs on which a hardware min/max
    // (second operand on ties) and the scalar a > b ? a : b / std::max part
    // ways. The multi-cell phi kernel relies on bitwise agreement here.
    const double cases[][4] = {
        {-0.0, 1.0, 0.0, 0.0},   {0.0, -0.0, 1.0, 0.0},
        {1.0, -0.0, -0.0, -0.0}, {-0.0, -0.0, -0.0, 1.0},
        {0.5, 0.5, -0.0, 0.0},   {0.25, 0.25, 0.25, 0.25},
        {1.0, 1.0, 0.0, -0.0},   {0.5, -0.0, 0.5, 0.0},
        {-0.0, 0.0, -0.0, 0.0},  {0.3, 0.3, 0.3, -0.0},
        {1.25, -0.0, -0.25, 0.0}, {0.0, 0.0, 0.0, 0.0},
    };
    constexpr int kCases = sizeof(cases) / sizeof(cases[0]);
    // Also random draws from a tie-heavy value set.
    const double pool[] = {-0.0, 0.0, 0.25, 0.5, 1.0, -0.25, 1.5};
    Random rng(37);
    for (int t = 0; t < kCases + 64; ++t) {
        double in[4][W], want[4][W];
        for (int l = 0; l < W; ++l) {
            for (int a = 0; a < 4; ++a) {
                in[a][l] = t < kCases
                               ? cases[(t + l) % kCases][a]
                               : pool[static_cast<int>(rng.uniform(0.0, 7.0)) % 7];
                want[a][l] = in[a][l];
            }
            projectToSimplex4(want[0][l], want[1][l], want[2][l], want[3][l]);
        }
        TypeParam x0 = TypeParam::loadu(in[0]), x1 = TypeParam::loadu(in[1]),
                  x2 = TypeParam::loadu(in[2]), x3 = TypeParam::loadu(in[3]);
        projectToSimplex4Lanes(x0, x1, x2, x3);
        const std::vector<double> got[4] = {allLanes(x0), allLanes(x1),
                                            allLanes(x2), allLanes(x3)};
        for (int a = 0; a < 4; ++a)
            for (int l = 0; l < W; ++l)
                EXPECT_EQ(std::memcmp(&got[a][static_cast<std::size_t>(l)],
                                      &want[a][l], sizeof(double)),
                          0)
                    << "case " << t << " lane " << l << " phase " << a << ": "
                    << got[a][static_cast<std::size_t>(l)] << " vs "
                    << want[a][l];
    }
}

TYPED_TEST(SimdWidthTest, LoadStoreAlignment) {
    constexpr int W = TypeParam::width;
    // Aligned round-trip: 64-byte alignment satisfies every width.
    alignas(64) double abuf[W];
    alignas(64) double aout[W];
    for (int i = 0; i < W; ++i) abuf[i] = 1.5 * i + 0.25;
    TypeParam::load(abuf).store(aout);
    for (int i = 0; i < W; ++i) EXPECT_EQ(aout[i], abuf[i]);

    // Unaligned round-trip at every misalignment offset within a vector.
    double ubuf[3 * W];
    for (int i = 0; i < 3 * W; ++i) ubuf[i] = 0.5 * i - 3.0;
    for (int off = 0; off < W; ++off) {
        double uout[2 * W];
        TypeParam::loadu(ubuf + off).storeu(uout + off);
        for (int i = 0; i < W; ++i)
            EXPECT_EQ(uout[off + i], ubuf[off + i]) << "offset " << off;
    }
}

TYPED_TEST(SimdWidthTest, RemainderGuard) {
    constexpr int W = TypeParam::width;
    // The kernels' nx % width pattern: full vectors plus a masked tail whose
    // inactive lanes must never reach memory. blend against the old contents
    // models the keepLanes tail used by the width-8 mu sweep.
    constexpr int n = 3 * W - W / 2 - 1; // deliberately not a multiple of W
    double in[n], want[n];
    Random rng(31);
    for (int i = 0; i < n; ++i) {
        in[i] = rng.uniform(-4.0, 4.0);
        want[i] = std::fma(in[i], 2.0, 1.0);
    }
    double got[n + W]; // slack so the tail's full-width storeu stays in range
    for (int i = 0; i < n + W; ++i) got[i] = -777.0;

    const auto two = TypeParam::broadcast(2.0);
    const auto one = TypeParam::broadcast(1.0);
    int x = 0;
    for (; x + W <= n; x += W)
        TypeParam::fmadd(TypeParam::loadu(in + x), two, one).storeu(got + x);
    if (x < n) {
        // Tail: compute all W lanes from a clamped load, keep only the first
        // n - x via blend, write back the untouched old values beyond.
        double tail[W];
        for (int i = 0; i < W; ++i) tail[i] = in[x + i < n ? x + i : n - 1];
        double idx[W];
        for (int i = 0; i < W; ++i) idx[i] = static_cast<double>(i);
        const auto keep = TypeParam::loadu(idx) <
                          TypeParam::broadcast(static_cast<double>(n - x));
        const auto fresh = TypeParam::fmadd(TypeParam::loadu(tail), two, one);
        TypeParam::blend(keep, fresh, TypeParam::loadu(got + x))
            .storeu(got + x);
    }
    for (int i = 0; i < n; ++i) EXPECT_EQ(got[i], want[i]) << "cell " << i;
    for (int i = n; i < n + W; ++i)
        EXPECT_EQ(got[i], -777.0) << "tail lane leaked past n at " << i;
}

TYPED_TEST(SimdWidthTest, MasksAndReductions) {
    constexpr int W = TypeParam::width;
    double a[W], b[W];
    for (int i = 0; i < W; ++i) {
        a[i] = static_cast<double>(i);
        b[i] = static_cast<double>(W - 1 - i);
    }
    auto va = TypeParam::loadu(a), vb = TypeParam::loadu(b);

    const auto lt = va < vb;
    for (int i = 0; i < W; ++i) EXPECT_EQ(lt.lane(i), a[i] < b[i]);
    EXPECT_TRUE(lt.any());
    EXPECT_FALSE(lt.all());
    const auto ge = !lt;
    for (int i = 0; i < W; ++i) EXPECT_EQ(ge.lane(i), !(a[i] < b[i]));

    auto sel = allLanes(TypeParam::blend(lt, va, vb));
    for (int i = 0; i < W; ++i) EXPECT_EQ(sel[i], a[i] < b[i] ? a[i] : b[i]);

    // Pairwise hsum association is part of the cross-width contract.
    double expect = 0.0;
    if (W == 4) {
        expect = (a[0] + a[1]) + (a[2] + a[3]);
    } else {
        expect = ((a[0] + a[1]) + (a[2] + a[3])) +
                 ((a[4] + a[5]) + (a[6] + a[7]));
    }
    EXPECT_EQ(va.hsum(), expect);
    EXPECT_EQ(va.hmax(), a[W - 1]);
    EXPECT_EQ(va.hmin(), a[0]);
}

#if defined(__AVX512F__)
TEST(SimdCross, Avx512MatchesScalar8OnRandomInputs) {
    Random rng(37);
    for (int t = 0; t < 200; ++t) {
        double a[8], b[8];
        for (int i = 0; i < 8; ++i) {
            a[i] = rng.uniform(-100.0, 100.0);
            b[i] = rng.uniform(0.5, 100.0);
        }
        auto va = Vec8dAvx512::loadu(a), vb = Vec8dAvx512::loadu(b);
        auto sa = Vec8dScalar::loadu(a), sb = Vec8dScalar::loadu(b);
        EXPECT_EQ((va + vb).hsum(), (sa + sb).hsum());
        for (int i = 0; i < 8; ++i) {
            EXPECT_EQ((va * vb).lane(i), (sa * sb).lane(i));
            EXPECT_EQ(Vec8dAvx512::fmadd(va, vb, va).lane(i),
                      Vec8dScalar::fmadd(sa, sb, sa).lane(i));
            EXPECT_EQ(Vec8dAvx512::rsqrtFast(vb).lane(i),
                      Vec8dScalar::rsqrtFast(sb).lane(i));
        }
    }
}
#endif

} // namespace
} // namespace tpf::simd
