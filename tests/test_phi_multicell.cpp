/// Bitwise lockdown of the multi-cell phi body (docs/KERNELS.md "Production
/// phi kernel"): for every available dispatch target and every
/// (useStag, shortcuts) pair, KernelTarget::phiMultiCell must write exactly
/// the bits of the cellwise body with the same flags — on x-widths that
/// exercise whole groups, the overlapped tail group (nx % 8 == 4) and the
/// 4-wide instance (nx < 8), and on slabbed sweeps. The production kind
/// (SimdTzStagCut) must equal the cellwise reference on every width,
/// including the nx % 4 != 0 fallback.
///
/// The inputs are a window-on solidification state after 120 steps, where
/// bulk cells border interface cells on every axis (asserted, so the
/// comparison cannot pass vacuously), plus a hand-built block in which a
/// bulk cell's true upper-face flux is -0.0 while the staggered buffers hold
/// +0.0 there.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/model_common.h"
#include "core/solver.h"
#include "thermo/agalcu.h"
#include "util/random.h"

namespace tpf::core {
namespace {

/// Restores the startup dispatch choice no matter how a test exits.
struct TargetGuard {
    ~TargetGuard() { setKernelTarget("auto"); }
};

/// Inputs of one phi sweep: a block plus the context it is swept with.
struct SweepInput {
    std::unique_ptr<SimBlock> block;
    ModelConsts mc;
    TzCache tz;
    double time = 0.0, windowOffset = 0.0;

    StepContext ctx() const {
        StepContext c;
        c.mc = mc;
        c.tz = &tz;
        c.time = time;
        c.windowOffset = windowOffset;
        return c;
    }
};

/// Exactly 1.0 in one phase in the cell and its six face neighbours (the
/// shortcut test of the kernels).
bool isBulk(const Field<double>& p, int x, int y, int z) {
    for (int a = 0; a < N; ++a) {
        if (p(x, y, z, a) == 1.0 && p(x - 1, y, z, a) == 1.0 &&
            p(x + 1, y, z, a) == 1.0 && p(x, y - 1, z, a) == 1.0 &&
            p(x, y + 1, z, a) == 1.0 && p(x, y, z - 1, a) == 1.0 &&
            p(x, y, z + 1, a) == 1.0)
            return true;
    }
    return false;
}

/// Empty string when the interiors of \p a and \p b are bitwise equal, else
/// the first differing value.
std::string diffInterior(const Field<double>& a, const Field<double>& b) {
    std::string msg;
    const CellInterval in = a.interior();
    for (int f = 0; f < a.nf() && msg.empty(); ++f) {
        forEachCell(in, [&](int x, int y, int z) {
            if (!msg.empty()) return;
            const double va = a(x, y, z, f), vb = b(x, y, z, f);
            if (std::memcmp(&va, &vb, sizeof(double)) != 0) {
                char buf[160];
                std::snprintf(buf, sizeof(buf),
                              "first difference at (%d,%d,%d) phase %d: "
                              "%.17g vs %.17g",
                              x, y, z, f, va, vb);
                msg = buf;
            }
        });
    }
    return msg;
}

/// The z-partitions a sweep is run under (nz >= 4): the whole block, and
/// four uneven slabs, one of them a single slice, so every slab restarts its
/// z buffers.
std::vector<std::vector<int>> partitions(int nz) {
    const int a = std::max(1, nz / 5);
    return {{0, nz}, {0, a, a + 1, std::max(a + 2, 3 * nz / 5), nz}};
}

using SweepFn = std::function<void(SimBlock&, const StepContext&)>;

/// Sweep \p in with \p fn over the slabs \p cuts into a fresh destination
/// pre-filled with \p sentinel, and return that destination.
Field<double> sweep(const SweepInput& in, const std::vector<int>& cuts,
                    double sentinel, const SweepFn& fn) {
    SimBlock& b = *in.block;
    b.phiDst.fill(sentinel);
    const StepContext base = in.ctx();
    for (std::size_t i = 0; i + 1 < cuts.size(); ++i) {
        const CellInterval slab{0, 0, cuts[i], b.size.x - 1, b.size.y - 1,
                                cuts[i + 1] - 1};
        fn(b, base.forSlab(slab));
    }
    Field<double> out(b.size.x, b.size.y, b.size.z, N, 1, Layout::fzyx);
    out.copyFrom(b.phiDst);
    return out;
}

/// Every target's multi-cell and cellwise bodies against the scalar
/// target's cellwise body, for all flag pairs and partitions; and the
/// production kind through runPhiKernel.
void expectMultiCellMatchesCellwise(const SweepInput& in) {
    TargetGuard guard;
    const auto targets = availableKernelTargets();
    ASSERT_STREQ(targets.front()->name, "scalar");
    const KernelTarget* scalar = targets.front();
    const int nx = in.block->size.x;

    for (const auto& cuts : partitions(in.block->size.z)) {
        SCOPED_TRACE("slabs=" + std::to_string(cuts.size() - 1));
        for (const bool stag : {false, true}) {
            for (const bool cut : {false, true}) {
                SCOPED_TRACE("useStag=" + std::to_string(stag) +
                             " shortcuts=" + std::to_string(cut));
                const Field<double> ref = sweep(
                    in, cuts, -7.0, [&](SimBlock& b, const StepContext& c) {
                        scalar->phiCellwise(b, c, true, stag, cut);
                    });
                for (const KernelTarget* t : targets) {
                    SCOPED_TRACE(std::string("target=") + t->name);
                    if (nx % 4 == 0) {
                        const Field<double> multi = sweep(
                            in, cuts, -9.0,
                            [&](SimBlock& b, const StepContext& c) {
                                t->phiMultiCell(b, c, stag, cut);
                            });
                        const std::string d = diffInterior(ref, multi);
                        EXPECT_TRUE(d.empty()) << "multi-cell: " << d;
                    }
                    const Field<double> cell = sweep(
                        in, cuts, -9.0, [&](SimBlock& b, const StepContext& c) {
                            t->phiCellwise(b, c, true, stag, cut);
                        });
                    const std::string d = diffInterior(ref, cell);
                    EXPECT_TRUE(d.empty()) << "cellwise: " << d;

                    if (stag && cut) {
                        ASSERT_TRUE(setKernelTarget(t->name));
                        const Field<double> prod = sweep(
                            in, cuts, -9.0,
                            [&](SimBlock& b, const StepContext& c) {
                                runPhiKernel(PhiKernelKind::SimdTzStagCut, b, c);
                            });
                        const std::string dp = diffInterior(ref, prod);
                        EXPECT_TRUE(dp.empty()) << "production: " << dp;
                    }
                }
            }
        }
    }
}

/// A window-on solidification run (32 x 16 x 64, 8 Voronoi grains) after
/// 120 steps, kept for the whole suite.
class PhiMultiCell : public ::testing::Test {
protected:
    static void SetUpTestSuite() {
        SolverConfig cfg;
        cfg.globalCells = {32, 16, 64};
        cfg.overlapMu = true;
        cfg.model.temp.gradient = 0.5;
        cfg.model.temp.zEut0 = 12.0;
        cfg.model.temp.velocity = 0.02;
        cfg.init.fillHeight = 26;
        cfg.init.seedsPerArea = 8;
        cfg.window.enabled = true;
        cfg.window.triggerFraction = 0.2;
        cfg.window.checkEvery = 8;
        solver_ = new Solver(cfg);
        solver_->initialize();
        solver_->run(kSteps);
    }
    static void TearDownTestSuite() {
        delete solver_;
        solver_ = nullptr;
    }

    /// The live state restricted to x in [-1, nx] (ghosts included): a block
    /// of width nx whose cells and ghosts all come from the run.
    static SweepInput liveInput(int nx) {
        const SimBlock& live = *solver_->localBlocks().front();
        SweepInput in;
        in.block = std::make_unique<SimBlock>(
            Int3{nx, live.size.y, live.size.z});
        SimBlock& b = *in.block;
        forEachCell(b.phiSrc.withGhosts(), [&](int x, int y, int z) {
            for (int a = 0; a < N; ++a)
                b.phiSrc(x, y, z, a) = live.phiSrc(x, y, z, a);
            for (int k = 0; k < KC; ++k)
                b.muSrc(x, y, z, k) = live.muSrc(x, y, z, k);
        });
        in.mc = ModelConsts::build(solver_->config().model, solver_->system());
        in.time = solver_->time();
        in.windowOffset = solver_->windowOffsetCells();
        in.tz.build(in.mc, solver_->temperature(), live.origin.z, b.size.z,
                    in.time, in.windowOffset);
        return in;
    }

    static constexpr int kSteps = 120;
    static Solver* solver_;
};

Solver* PhiMultiCell::solver_ = nullptr;

TEST_F(PhiMultiCell, LiveStateBordersBulkOnEveryAxis) {
    EXPECT_GT(solver_->windowOffsetCells(), 0.0)
        << "the window never moved: not a window-on state";
    const SweepInput in = liveInput(32);
    const Field<double>& p = in.block->phiSrc;
    const SimBlock& b = *in.block;
    // Non-bulk cells whose lower neighbour along an axis is bulk and read
    // from the staggered buffer (not at the axis' first cell): the cells
    // whose minus-face flux is the buffered +0.0.
    long long belowBulk[3] = {0, 0, 0};
    long long bulkGroups = 0, mixedGroups = 0;
    forEachCell(p.interior(), [&](int x, int y, int z) {
        if (isBulk(p, x, y, z)) return;
        if (x > 0 && isBulk(p, x - 1, y, z)) ++belowBulk[0];
        if (y > 0 && isBulk(p, x, y - 1, z)) ++belowBulk[1];
        if (z > 0 && isBulk(p, x, y, z - 1)) ++belowBulk[2];
    });
    for (int z = 0; z < b.size.z; ++z)
        for (int y = 0; y < b.size.y; ++y)
            for (int x = 0; x < b.size.x; x += 8) {
                int nb = 0;
                for (int i = 0; i < 8; ++i) nb += isBulk(p, x + i, y, z);
                bulkGroups += nb == 8;
                mixedGroups += nb > 0 && nb < 8;
            }
    EXPECT_GT(belowBulk[0], 0) << "no non-bulk cell above a bulk one in x";
    EXPECT_GT(belowBulk[1], 0) << "no non-bulk cell above a bulk one in y";
    EXPECT_GT(belowBulk[2], 0) << "no non-bulk cell above a bulk one in z";
    EXPECT_GT(bulkGroups, 0) << "no wholly bulk 8-cell group";
    EXPECT_GT(mixedGroups, 0) << "no partly bulk 8-cell group";
}

TEST_F(PhiMultiCell, MatchesCellwiseBitwiseOnLiveState) {
    // 32: whole 8-groups; 20 and 12: the overlapped tail group on 8-wide
    // targets; 8: one group; 4: the 4-wide instance; 6: the production
    // fallback to the cellwise body.
    for (const int nx : {32, 20, 12, 8, 4, 6}) {
        SCOPED_TRACE("nx=" + std::to_string(nx));
        expectMultiCellMatchesCellwise(liveInput(nx));
    }
}

/// Hand-built block: phase 0 everywhere except one interface cell, so bulk
/// cells border non-bulk ones on every axis. Between two identical pure
/// cells the face flux evaluates to -2 eps * (+0.0) = -0.0, while the
/// staggered buffers hold +0.0 for a bulk cell's upper faces.
TEST(PhiMultiCellFixture, BulkUpperFaceFluxIsNegativeZero) {
    const thermo::TernarySystem sys = thermo::makeAgAlCu();
    const ModelParams prm = ModelParams::defaults();
    const FrozenTemperature temp{prm.temp};

    SweepInput in;
    in.block = std::make_unique<SimBlock>(Int3{12, 6, 6});
    SimBlock& b = *in.block;
    Random rng(5);
    forEachCell(b.phiSrc.withGhosts(), [&](int x, int y, int z) {
        for (int a = 0; a < N; ++a) b.phiSrc(x, y, z, a) = a == 0 ? 1.0 : 0.0;
        b.muSrc(x, y, z, 0) = rng.uniform(-0.02, 0.02);
        b.muSrc(x, y, z, 1) = rng.uniform(-0.02, 0.02);
    });
    const double mixed[N] = {0.55, 0.45, 0.0, 0.0};
    for (int a = 0; a < N; ++a) b.phiSrc(7, 3, 3, a) = mixed[a];
    in.mc = ModelConsts::build(prm, sys);
    in.tz.build(in.mc, temp, 0, b.size.z, 0.0, 0.0);

    // The bulk cell one step below each neighbour of the interface cell.
    const Field<double>& p = b.phiSrc;
    const struct {
        int x, y, z;   // bulk cell
        int ux, uy, uz; // its non-bulk upper neighbour
    } faces[] = {{5, 3, 3, 6, 3, 3}, {7, 1, 3, 7, 2, 3}, {7, 3, 1, 7, 3, 2}};
    for (const auto& f : faces) {
        ASSERT_TRUE(isBulk(p, f.x, f.y, f.z));
        ASSERT_FALSE(isBulk(p, f.ux, f.uy, f.uz));
        double pL[N], pR[N], flux[N];
        for (int a = 0; a < N; ++a) {
            pL[a] = p(f.x, f.y, f.z, a);
            pR[a] = p(f.ux, f.uy, f.uz, a);
        }
        phiFaceFlux(in.mc, pL, pR, flux);
        for (int a = 0; a < N; ++a) {
            EXPECT_EQ(flux[a], 0.0);
            EXPECT_TRUE(std::signbit(flux[a])) << "phase " << a;
        }
    }
    expectMultiCellMatchesCellwise(in);
}

} // namespace
} // namespace tpf::core
