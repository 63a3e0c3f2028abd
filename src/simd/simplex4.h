#pragma once
/// \file simplex4.h
/// Vectorized Gibbs-simplex projection for the multi-cell kernels: four phase
/// values held in four registers (one lane per cell). The vertical sorting
/// network, the threshold selection and the final clamp mirror
/// tpf::projectToSimplex4 operation-for-operation, so the result is bitwise
/// identical per cell — signed zeros and ties included. That is why every
/// min/max is a compare plus blend in the scalar operand order: the hardware
/// min/max instructions return their second operand on ties, so
/// max_pd(-0.0, 0.0) gives +0.0 where std::max(-0.0, 0.0) keeps -0.0.

#include "simd/simd.h"

namespace tpf::simd {

namespace detail {
/// hi = a > b ? a : b, lo = a > b ? b : a (tpf::cmpExchDesc).
template <typename V>
inline void cmpExchDesc(V& hi, V& lo) {
    const auto gt = hi > lo;
    const V a = hi, b = lo;
    hi = V::blend(gt, a, b);
    lo = V::blend(gt, b, a);
}

/// std::max(d, 0.0), i.e. d < 0.0 ? 0.0 : d.
template <typename V>
inline V maxZero(V d) {
    const V zero = V::zero();
    return V::blend(d < zero, zero, d);
}
} // namespace detail

/// Project (x0, x1, x2, x3) lane-wise onto the unit simplex.
template <typename V>
inline void projectToSimplex4Lanes(V& x0, V& x1, V& x2, V& x3) {
    V u0 = x0, u1 = x1, u2 = x2, u3 = x3;
    // Sorting network (descending): (0,1)(2,3)(0,2)(1,3)(1,2) — identical to
    // the scalar projectToSimplex4.
    detail::cmpExchDesc(u0, u1);
    detail::cmpExchDesc(u2, u3);
    detail::cmpExchDesc(u0, u2);
    detail::cmpExchDesc(u1, u3);
    detail::cmpExchDesc(u1, u2);

    const V one = V::broadcast(1.0);
    const V c0 = u0;
    const V c1 = c0 + u1;
    const V c2 = c1 + u2;
    const V c3 = c2 + u3;
    const V t0 = c0 - one;
    const V t1 = (c1 - one) * V::broadcast(0.5);
    const V t2 = (c2 - one) * V::broadcast(1.0 / 3.0);
    const V t3 = (c3 - one) * V::broadcast(0.25);

    const V zero = V::zero();
    V tau = t0;
    tau = V::blend(u1 - t1 > zero, t1, tau);
    tau = V::blend(u2 - t2 > zero, t2, tau);
    tau = V::blend(u3 - t3 > zero, t3, tau);

    x0 = detail::maxZero(x0 - tau);
    x1 = detail::maxZero(x1 - tau);
    x2 = detail::maxZero(x2 - tau);
    x3 = detail::maxZero(x3 - tau);
}

} // namespace tpf::simd
