#include "core/voronoi.h"

#include <cmath>
#include <vector>

#include "util/fastmath.h"
#include "util/random.h"
#include "util/simplex.h"

namespace tpf::core {

namespace {

struct Seed {
    double x, y;
    int phase;
};

/// Global seed list — identical on every rank because it only depends on the
/// configuration (the paper's initialization phase computes the global block
/// setup once and distributes it).
std::vector<Seed> makeSeeds(const BlockForest& bf, const VoronoiConfig& cfg,
                            const std::array<double, 3>& fractions) {
    const Int3 g = bf.globalCells();
    const int per = cfg.seedsPerArea > 0 ? cfg.seedsPerArea : 12;
    const int count =
        std::max(3, (g.x / per) * std::max(1, g.y / per));

    Random rng(cfg.seed);
    std::vector<Seed> seeds;
    seeds.reserve(static_cast<std::size_t>(count));
    for (int i = 0; i < count; ++i) {
        Seed s;
        s.x = rng.uniform(0.0, static_cast<double>(g.x));
        s.y = rng.uniform(0.0, static_cast<double>(g.y));
        const double r = rng.uniform();
        if (r < fractions[0])
            s.phase = 0;
        else if (r < fractions[0] + fractions[1])
            s.phase = 1;
        else
            s.phase = 2;
        seeds.push_back(s);
    }
    return seeds;
}

/// Squared distance under periodic wrapping in x and y.
double periodicDist2(double dx, double dy, double Lx, double Ly, bool px,
                     bool py) {
    if (px) {
        dx = std::abs(dx);
        if (dx > 0.5 * Lx) dx = Lx - dx;
    }
    if (py) {
        dy = std::abs(dy);
        if (dy > 0.5 * Ly) dy = Ly - dy;
    }
    return dx * dx + dy * dy;
}

} // namespace

void initVoronoi(SimBlock& b, const BlockForest& bf, const VoronoiConfig& cfg,
                 const thermo::TernarySystem& sys) {
    std::array<double, 3> fr = cfg.fractions;
    if (fr[0] + fr[1] + fr[2] <= 0.0) {
        const auto lf = sys.leverFractions();
        fr = lf.solid;
    }

    const auto seeds = makeSeeds(bf, cfg, fr);
    const Int3 g = bf.globalCells();
    const auto per = bf.periodic();
    const Vec2 muE = sys.muEut();

    Field<double>& phi = b.phiSrc;
    Field<double>& mu = b.muSrc;

    // Diffuse solid-liquid front: the obstacle model's compact sine profile
    // of width ~eps around the fill height avoids the large initial mu
    // transient a sharp front would cause. Interface width fixed at 4 cells
    // (the solver's default eps).
    const double w = 4.0;
    auto liquidFraction = [&](double gz) {
        const double s = (gz - static_cast<double>(cfg.fillHeight)) / w;
        if (s <= -0.5) return 0.0;
        if (s >= 0.5) return 1.0;
        return 0.5 * (1.0 + sinpiCompact(s));
    };

    // The nearest-seed search depends on the lateral position only, so it
    // runs once per (x, y) column of the block (ghosts included) rather than
    // once per cell, and only when some z plane is not fully liquid.
    struct Column {
        int phase1 = 0, phase2 = 0;
        double w1 = 0.0; ///< weight of phase1 across the Voronoi edge
    };
    const CellInterval all = phi.withGhosts();
    const int rowLen = all.xMax - all.xMin + 1;
    bool anySolid = false;
    for (int z = all.zMin; z <= all.zMax; ++z) {
        const double gz = static_cast<double>(b.origin.z + z) + 0.5;
        anySolid |= liquidFraction(gz) < 1.0;
    }
    std::vector<Column> columns;
    if (anySolid) {
        columns.resize(static_cast<std::size_t>(rowLen) *
                       static_cast<std::size_t>(all.yMax - all.yMin + 1));
        for (int y = all.yMin; y <= all.yMax; ++y) {
            for (int x = all.xMin; x <= all.xMax; ++x) {
                const double gx = static_cast<double>(b.origin.x + x) + 0.5;
                const double gy = static_cast<double>(b.origin.y + y) + 0.5;
                // Nearest seed and nearest seed of a *different* phase: the
                // solid-solid boundary gets the same compact sine profile
                // across the Voronoi edge (sharp lateral boundaries would
                // imprint a long-lived chemical-potential transient into the
                // solid, where diffusion is frozen).
                double d1 = 1e300, d2 = 1e300;
                int phase1 = 0, phase2 = 0;
                for (const Seed& s : seeds) {
                    const double d = std::sqrt(periodicDist2(
                        gx - s.x, gy - s.y, static_cast<double>(g.x),
                        static_cast<double>(g.y), per[0], per[1]));
                    if (d < d1) {
                        if (phase1 != s.phase) {
                            d2 = d1;
                            phase2 = phase1;
                        }
                        d1 = d;
                        phase1 = s.phase;
                    } else if (d < d2 && s.phase != phase1) {
                        d2 = d;
                        phase2 = s.phase;
                    }
                }
                const double edgeDist = 0.5 * (d2 - d1); // 0 on the edge
                const double t = std::min(edgeDist / w, 0.5);
                columns[static_cast<std::size_t>(y - all.yMin) * rowLen +
                        static_cast<std::size_t>(x - all.xMin)] =
                    Column{phase1, phase2, 0.5 * (1.0 + sinpiCompact(t))};
            }
        }
    }

    forEachCell(all, [&](int x, int y, int z) {
        const double gz = static_cast<double>(b.origin.z + z) + 0.5;

        const double liq = liquidFraction(gz);
        double p[N] = {0.0, 0.0, 0.0, 0.0};
        p[LIQ] = liq;
        if (liq < 1.0) {
            const Column& c =
                columns[static_cast<std::size_t>(y - all.yMin) * rowLen +
                        static_cast<std::size_t>(x - all.xMin)];
            p[c.phase1] += (1.0 - liq) * c.w1;
            p[c.phase2] += (1.0 - liq) * (1.0 - c.w1);
        }
        projectToSimplex4(p[0], p[1], p[2], p[3]);
        for (int a = 0; a < N; ++a) phi(x, y, z, a) = p[a];
        mu(x, y, z, 0) = muE.x;
        mu(x, y, z, 1) = muE.y;
    });

    b.phiDst.copyFrom(b.phiSrc);
    b.muDst.copyFrom(b.muSrc);
}

} // namespace tpf::core
