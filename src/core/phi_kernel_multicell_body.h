/// \file phi_kernel_multicell_body.h
/// Width-generic multi-cell phi-sweep body (Figure 5 "four cells",
/// generalized: one SIMD vector holds the same phase of V::width consecutive
/// x-cells). NO include guard on purpose: included inside an anonymous
/// namespace with a `using V = <vector type>;` alias in scope — see
/// phi_kernel_cellwise_body.h for the linkage rationale and the prerequisite
/// includes.
///
/// Bitwise contract: for every (useStag, shortcuts) pair this body writes the
/// same bits as the cellwise body (phi_kernel_cellwise_body.h) with T(z) on.
/// Per phase a it evaluates the cellwise lane-a expression tree, not the
/// scalar model's:
///  - pairwise terms are summed over b = a+1, a+2, a+3 (mod 4), starting
///    from a +0.0 accumulator exactly where the rotations do;
///  - every four-lane sum (S, sum phi^2, omega-bar, the mean) is associated
///    as (v_a + v_{a+1}) + (v_{a+2} + v_{a+3}) — one result for lanes 0/2,
///    another for lanes 1/3;
///  - with shortcuts, a cell is bulk when some phase is exactly 1.0 in it
///    and its six face neighbours, and a bulk cell copies pC. A group of W
///    cells that is wholly bulk skips the arithmetic; any other group
///    computes every lane and blends;
///  - with shortcuts and staggered buffers, the cellwise body buffers +0.0
///    as a bulk cell's upper-face fluxes, so a non-bulk cell above a bulk one
///    reads +0.0 where a fresh evaluation gives -0.0 (-2 eps times a +0.0
///    sum). This body recomputes every minus face — a W-wide face flux costs
///    less than buffering four phases per face — and reproduces the buffer
///    with a per-cell bulk flag: the minus-face flux is +0.0 where the lower
///    neighbour on that axis is bulk, except at x == 0, y == 0 and
///    z == zBegin, where the cellwise body seeds its buffers fresh;
///  - the simplex projection runs lane-wise with the scalar semantics
///    (simd/simplex4.h).
///
/// Remainder handling for nx % V::width != 0 (still requiring nx % 4 == 0 and
/// nx >= V::width): the last x-group is shifted down to start at nx - width
/// and overlaps the previous group. Outputs are a pure function of the
/// inputs, so recomputing the overlapped cells reproduces their bits. The
/// bulk flags are stored per cell, so the tail's x-minus mask is cell x-1's
/// own flag, never a carry between groups.

static_assert(N == 4, "the lane-sum associations are written for 4 phases");

/// Per-sweep constants in broadcast form; gammaRot[a][k-1] = gamma[a][(a+k)%4]
/// (the cellwise body's gammaRot lanes, split per phase).
struct PhiMultiConsts {
    V gammaRot[N][3];
    V kinvA[N], kinvB2[N], kinvD[N], dtInvTau[N];
    V half, two, quarter, one, invDx, halfInvDx, m2eps, twoEps, w16, gamma3;

    static PhiMultiConsts build(const ModelConsts& mc) {
        PhiMultiConsts c;
        for (int a = 0; a < N; ++a) {
            for (int k = 1; k <= 3; ++k)
                c.gammaRot[a][k - 1] = V::broadcast(mc.gamma[a][(a + k) % 4]);
            c.kinvA[a] = V::broadcast(mc.kinvA[a]);
            c.kinvB2[a] = V::broadcast(2.0 * mc.kinvB[a]);
            c.kinvD[a] = V::broadcast(mc.kinvD[a]);
            c.dtInvTau[a] = V::broadcast(mc.dt * mc.invTauEps[a]);
        }
        c.half = V::broadcast(0.5);
        c.two = V::broadcast(2.0);
        c.quarter = V::broadcast(0.25);
        c.one = V::broadcast(1.0);
        c.invDx = V::broadcast(mc.invDx);
        c.halfInvDx = V::broadcast(mc.halfInvDx);
        c.m2eps = V::broadcast(-2.0 * mc.eps);
        c.twoEps = V::broadcast(2.0 * mc.eps);
        c.w16 = V::broadcast(mc.w16);
        c.gamma3 = V::broadcast(mc.gamma3);
        return c;
    }
};

/// Slice thermo values in broadcast form.
struct SliceMulti {
    V xix[N], xiy[N], om[N];
    V Tt, TtInvEps;

    static SliceMulti from(const SliceThermo& st, double invEps) {
        SliceMulti s;
        for (int a = 0; a < N; ++a) {
            s.xix[a] = V::broadcast(st.xix[a]);
            s.xiy[a] = V::broadcast(st.xiy[a]);
            s.om[a] = V::broadcast(st.om[a]);
        }
        s.Tt = V::broadcast(st.Tt);
        s.TtInvEps = V::broadcast(st.Tt * invEps);
        return s;
    }
};

/// Four-lane sums with the cellwise associations: \p even is lane 0/2's
/// (v0+v1)+(v2+v3), \p odd is lane 1/3's (v1+v2)+(v3+v0).
inline void laneSumsM(const V v[N], V& even, V& odd) {
    even = (v[0] + v[1]) + (v[2] + v[3]);
    odd = (v[1] + v[2]) + (v[3] + v[0]);
}

/// Face flux for V::width consecutive faces along one axis, per phase a:
/// inputs are per-phase vectors over the cell pairs.
inline void faceFluxM(const PhiMultiConsts& c, const V pL[N], const V pR[N],
                      V flux[N]) {
    V pf[N], dp[N];
    for (int a = 0; a < N; ++a) {
        pf[a] = c.half * (pL[a] + pR[a]);
        dp[a] = (pR[a] - pL[a]) * c.invDx;
    }
    for (int a = 0; a < N; ++a) {
        V acc = V::zero();
        for (int k = 1; k <= 3; ++k) {
            const int b = (a + k) % 4;
            acc += c.gammaRot[a][k - 1] * pf[b] * (pf[a] * dp[b] - pf[b] * dp[a]);
        }
        flux[a] = c.m2eps * acc;
    }
}

/// The cellwise cellUpdate over V::width cells; returns the projected
/// phi(t+dt) per phase in \p out.
inline void cellUpdateM(const PhiMultiConsts& c, const SliceMulti& sv,
                        const V pC[N], const V pW[N], const V pE[N],
                        const V pS[N], const V pNn[N], const V pB[N],
                        const V pT[N], const V fxm[N], const V fxp[N],
                        const V fym[N], const V fyp[N], const V fzm[N],
                        const V fzp[N], V mux, V muy, V out[N]) {
    V div[N], g0[N], g1[N], g2[N];
    for (int a = 0; a < N; ++a) {
        div[a] = (((fxp[a] - fxm[a]) + (fyp[a] - fym[a])) + (fzp[a] - fzm[a])) *
                 c.invDx;
        g0[a] = (pE[a] - pW[a]) * c.halfInvDx;
        g1[a] = (pNn[a] - pS[a]) * c.halfInvDx;
        g2[a] = (pT[a] - pB[a]) * c.halfInvDx;
    }

    // da/dphi and the obstacle pair sum, partners in rotation order.
    V dad[N], sumGP[N], p2[N];
    for (int a = 0; a < N; ++a) {
        V acc = V::zero();
        for (int k = 1; k <= 3; ++k) {
            const int b = (a + k) % 4;
            const V dot = (pC[a] * g0[b] - pC[b] * g0[a]) * g0[b] +
                          (pC[a] * g1[b] - pC[b] * g1[a]) * g1[b] +
                          (pC[a] * g2[b] - pC[b] * g2[a]) * g2[b];
            acc += c.gammaRot[a][k - 1] * dot;
        }
        dad[a] = acc * c.twoEps;
        sumGP[a] = c.gammaRot[a][0] * pC[(a + 1) % 4] +
                   c.gammaRot[a][1] * pC[(a + 2) % 4] +
                   c.gammaRot[a][2] * pC[(a + 3) % 4];
        p2[a] = pC[a] * pC[a];
    }

    V S[2], s2[2];
    laneSumsM(pC, S[0], S[1]);
    laneSumsM(p2, s2[0], s2[1]);
    const V invS2[2] = {c.one / s2[0], c.one / s2[1]};
    const V P[2] = {c.half * (S[0] * S[0] - s2[0]),
                    c.half * (S[1] * S[1] - s2[1])};

    // Driving force from the grand potentials.
    V om[N], omh[N];
    for (int a = 0; a < N; ++a) {
        const V quad = c.half * (c.kinvA[a] * mux * mux +
                                 c.kinvB2[a] * mux * muy +
                                 c.kinvD[a] * muy * muy);
        om[a] = -quad - (mux * sv.xix[a] + muy * sv.xiy[a]) + sv.om[a];
        omh[a] = om[a] * (p2[a] * invS2[a & 1]);
    }
    V omBar[2];
    laneSumsM(omh, omBar[0], omBar[1]);

    // Assemble, anti-symmetrize, advance, project.
    V rhs[N];
    for (int a = 0; a < N; ++a) {
        const int l = a & 1;
        const V dom = c.w16 * sumGP[a] +
                      c.gamma3 * (P[l] - pC[a] * (S[l] - pC[a]));
        const V dpsi = c.two * pC[a] * invS2[l] * (om[a] - omBar[l]);
        rhs[a] = sv.Tt * (div[a] - dad[a]) - sv.TtInvEps * dom - dpsi;
    }
    V mean[2];
    laneSumsM(rhs, mean[0], mean[1]);
    mean[0] = c.quarter * mean[0];
    mean[1] = c.quarter * mean[1];
    for (int a = 0; a < N; ++a)
        out[a] = pC[a] + c.dtInvTau[a] * (rhs[a] - mean[a & 1]);
    simd::projectToSimplex4Lanes(out[0], out[1], out[2], out[3]);
}

inline void loadPhaseM(const Field<double>& f, int x, int y, int z, V out[N]) {
    for (int a = 0; a < N; ++a) out[a] = V::loadu(f.ptr(x, y, z, a));
}

/// \tparam kCut bulk shortcuts; \tparam kBelowBulk (with kCut) the staggered
/// buffers' +0.0 minus-face flux above a bulk cell.
template <bool kCut, bool kBelowBulk>
void phiSweepMultiCellImpl(SimBlock& blk, const StepContext& ctx) {
    static_assert(kCut || !kBelowBulk, "only shortcuts zero buffered fluxes");
    constexpr int W = V::width;
    TPF_ASSERT(ctx.tz != nullptr, "multi-cell phi kernel requires a TzCache");
    TPF_ASSERT(blk.phiSrc.layout() == Layout::fzyx &&
                   blk.muSrc.layout() == Layout::fzyx,
               "multi-cell vectorization requires the fzyx (SoA) layout");
    TPF_ASSERT(blk.size.x % 4 == 0 && blk.size.x >= W,
               "multi-cell vectorization requires nx divisible by 4 and nx >= width");
    const PhiMultiConsts c = PhiMultiConsts::build(ctx.mc);
    const Field<double>& P = blk.phiSrc;
    const Field<double>& Mu = blk.muSrc;
    Field<double>& Dst = blk.phiDst;
    const int nx = blk.size.x, ny = blk.size.y, nz = blk.size.z;
    const int z0 = ctx.zLo(), z1 = ctx.zHi(nz);

    // Bulk flags (1.0 / 0.0) of two z-slices, alternating by z parity, one
    // row of nx cells behind a 0.0 pad so that "cell x - 1" of x == 0 reads
    // as not bulk.
    std::vector<double> flags;
    const std::size_t rowStride = static_cast<std::size_t>(nx) + 1;
    if (kBelowBulk) flags.assign(2 * static_cast<std::size_t>(ny) * rowStride, 0.0);
    auto flagRow = [&](int z, int y) {
        return flags.data() +
               (static_cast<std::size_t>(z & 1) * static_cast<std::size_t>(ny) +
                static_cast<std::size_t>(y)) *
                   rowStride +
               1;
    };

    for (int z = z0; z < z1; ++z) {
        const SliceMulti sv = SliceMulti::from(ctx.tz->at(z), ctx.mc.invEps);
        for (int y = 0; y < ny; ++y) {
            for (int x = 0; x < nx; x += W) {
                // Overlapped tail group (see file comment).
                const int xx = x + W <= nx ? x : nx - W;
                V pC[N], pW[N], pE[N], pS[N], pNn[N], pB[N], pT[N];
                loadPhaseM(P, xx, y, z, pC);
                loadPhaseM(P, xx - 1, y, z, pW);
                loadPhaseM(P, xx + 1, y, z, pE);
                loadPhaseM(P, xx, y - 1, z, pS);
                loadPhaseM(P, xx, y + 1, z, pNn);
                loadPhaseM(P, xx, y, z - 1, pB);
                loadPhaseM(P, xx, y, z + 1, pT);

                typename V::Mask bulk{};
                if (kCut) {
                    bulk = (pC[0] == c.one) & (pW[0] == c.one) &
                           (pE[0] == c.one) & (pS[0] == c.one) &
                           (pNn[0] == c.one) & (pB[0] == c.one) &
                           (pT[0] == c.one);
                    for (int a = 1; a < N; ++a)
                        bulk = bulk | ((pC[a] == c.one) & (pW[a] == c.one) &
                                       (pE[a] == c.one) & (pS[a] == c.one) &
                                       (pNn[a] == c.one) & (pB[a] == c.one) &
                                       (pT[a] == c.one));
                    if (kBelowBulk)
                        V::blend(bulk, c.one, V::zero()).storeu(flagRow(z, y) + xx);
                    if (bulk.all()) {
                        for (int a = 0; a < N; ++a)
                            pC[a].storeu(Dst.ptr(xx, y, z, a));
                        continue;
                    }
                }

                V fxm[N], fxp[N], fym[N], fyp[N], fzm[N], fzp[N];
                faceFluxM(c, pW, pC, fxm);
                faceFluxM(c, pC, pE, fxp);
                faceFluxM(c, pS, pC, fym);
                faceFluxM(c, pC, pNn, fyp);
                faceFluxM(c, pB, pC, fzm);
                faceFluxM(c, pC, pT, fzp);
                if (kBelowBulk) {
                    // The cellwise buffers hold +0.0 above a bulk cell,
                    // except on the first row/slice, where it seeds fresh.
                    const V zero = V::zero();
                    const auto xBelow =
                        V::loadu(flagRow(z, y) + xx - 1) == c.one;
                    for (int a = 0; a < N; ++a)
                        fxm[a] = V::blend(xBelow, zero, fxm[a]);
                    if (y > 0) {
                        const auto yBelow =
                            V::loadu(flagRow(z, y - 1) + xx) == c.one;
                        for (int a = 0; a < N; ++a)
                            fym[a] = V::blend(yBelow, zero, fym[a]);
                    }
                    if (z > z0) {
                        const auto zBelow =
                            V::loadu(flagRow(z - 1, y) + xx) == c.one;
                        for (int a = 0; a < N; ++a)
                            fzm[a] = V::blend(zBelow, zero, fzm[a]);
                    }
                }

                V out[N];
                cellUpdateM(c, sv, pC, pW, pE, pS, pNn, pB, pT, fxm, fxp, fym,
                            fyp, fzm, fzp, V::loadu(Mu.ptr(xx, y, z, 0)),
                            V::loadu(Mu.ptr(xx, y, z, 1)), out);
                for (int a = 0; a < N; ++a) {
                    if (kCut) out[a] = V::blend(bulk, pC[a], out[a]);
                    out[a].storeu(Dst.ptr(xx, y, z, a));
                }
            }
        }
    }
}

/// Entry point: T(z) is always on; (useStag, shortcuts) as in the cellwise
/// body. Without shortcuts the staggered buffers only cache fresh values, so
/// useStag then changes nothing.
inline void phiSweepMultiCellBody(SimBlock& b, const StepContext& ctx,
                                  bool useStag, bool shortcuts) {
    if (!shortcuts)
        phiSweepMultiCellImpl<false, false>(b, ctx);
    else if (useStag)
        phiSweepMultiCellImpl<true, true>(b, ctx);
    else
        phiSweepMultiCellImpl<true, false>(b, ctx);
}
