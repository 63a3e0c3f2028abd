#include "analysis/correlation.h"

#include <algorithm>
#include <cmath>

#include "analysis/lamellae.h" // indicatorPlane: the shared phase threshold
#include "util/assert.h"

namespace tpf::analysis {

namespace {
inline int wrap(int v, int n) { return ((v % n) + n) % n; }

/// The indicator plane tiled 2 x 2 (row stride 2 * nx): a periodic shift by
/// (ox, oy) with 0 <= ox < nx, 0 <= oy < ny becomes a plain offset, so the
/// lag loops need no modulo.
std::vector<unsigned char> doubledPlane(const unsigned char* ind, int nx,
                                        int ny) {
    const std::size_t w = 2 * static_cast<std::size_t>(nx);
    std::vector<unsigned char> dbl(w * 2 * static_cast<std::size_t>(ny));
    for (int y = 0; y < 2 * ny; ++y) {
        const unsigned char* src = ind + static_cast<std::size_t>(y % ny) *
                                             static_cast<std::size_t>(nx);
        unsigned char* dst = dbl.data() + static_cast<std::size_t>(y) * w;
        std::copy(src, src + nx, dst);
        std::copy(src, src + nx, dst + nx);
    }
    return dbl;
}

/// Integer S2 hit counts of one plane, accumulated into \p hits.
void accumulatePlaneHits(const unsigned char* ind, int nx, int ny, int axis,
                         int maxShift, std::vector<long long>& hits) {
    const std::vector<unsigned char> dbl = doubledPlane(ind, nx, ny);
    const std::size_t w = 2 * static_cast<std::size_t>(nx);
    // Offset of lag r inside the doubled plane.
    std::vector<std::size_t> lagOffset(static_cast<std::size_t>(maxShift) + 1);
    for (int r = 0; r <= maxShift; ++r)
        lagOffset[static_cast<std::size_t>(r)] =
            axis == 0 ? static_cast<std::size_t>(r % nx)
                      : static_cast<std::size_t>(r % ny) * w;
    for (int y = 0; y < ny; ++y) {
        for (int x = 0; x < nx; ++x) {
            if (!ind[static_cast<std::size_t>(y) * nx + x]) continue;
            const unsigned char* at =
                dbl.data() + static_cast<std::size_t>(y) * w + x;
            for (int r = 0; r <= maxShift; ++r)
                if (at[lagOffset[static_cast<std::size_t>(r)]])
                    ++hits[static_cast<std::size_t>(r)];
        }
    }
}

} // namespace

std::vector<double> twoPointCorrelationPlane(const unsigned char* ind, int nx,
                                             int ny, int axis, int maxShift) {
    TPF_ASSERT(axis == 0 || axis == 1, "correlation axis must be x or y");
    TPF_ASSERT(ind != nullptr && nx > 0 && ny > 0, "invalid indicator plane");

    std::vector<long long> hits(static_cast<std::size_t>(maxShift) + 1, 0);
    accumulatePlaneHits(ind, nx, ny, axis, maxShift, hits);

    std::vector<double> s2(hits.size());
    const double inv = 1.0 / (static_cast<double>(nx) * ny);
    for (std::size_t r = 0; r < hits.size(); ++r)
        s2[r] = static_cast<double>(hits[r]) * inv;
    return s2;
}

std::vector<double> twoPointCorrelation(const Field<double>& phi, int phase,
                                        int axis, int maxShift, int z0,
                                        int z1) {
    TPF_ASSERT(axis == 0 || axis == 1, "correlation axis must be x or y");
    TPF_ASSERT(z0 >= 0 && z1 < phi.nz() && z0 <= z1, "invalid z slab");
    const int nx = phi.nx(), ny = phi.ny();

    std::vector<long long> hits(static_cast<std::size_t>(maxShift) + 1, 0);
    for (int z = z0; z <= z1; ++z) {
        const auto ind = indicatorPlane(phi, phase, z);
        accumulatePlaneHits(ind.data(), nx, ny, axis, maxShift, hits);
    }

    std::vector<double> s2(hits.size());
    const double inv = 1.0 / (static_cast<double>(nx) * ny * (z1 - z0 + 1));
    for (std::size_t r = 0; r < hits.size(); ++r)
        s2[r] = static_cast<double>(hits[r]) * inv;
    return s2;
}

double lamellarSpacingEstimate(const std::vector<double>& s2) {
    // First local minimum then the following local maximum of S2(r): the
    // maximum position approximates the repeat distance of the lamellae.
    // Monotone or constant profiles never complete the descend+ascend
    // pattern and yield 0 = "no estimate" (see the header contract).
    std::size_t i = 1;
    while (i + 1 < s2.size() && s2[i] > s2[i + 1]) ++i; // descend
    std::size_t minPos = i;
    while (i + 1 < s2.size() && s2[i] <= s2[i + 1]) ++i; // ascend
    if (i == minPos || i + 1 >= s2.size()) return 0.0;
    return static_cast<double>(i);
}

std::vector<double> correlationMap2DPlane(const unsigned char* ind, int nx,
                                          int ny, int maxShift) {
    TPF_ASSERT(ind != nullptr && nx > 0 && ny > 0, "invalid indicator plane");
    const int side = 2 * maxShift + 1;
    std::vector<double> map(static_cast<std::size_t>(side) * side, 0.0);

    const std::vector<unsigned char> dbl = doubledPlane(ind, nx, ny);
    const std::size_t w = 2 * static_cast<std::size_t>(nx);
    for (int dy = -maxShift; dy <= maxShift; ++dy) {
        const auto oy = static_cast<std::size_t>(wrap(dy, ny));
        for (int dx = -maxShift; dx <= maxShift; ++dx) {
            const auto ox = static_cast<std::size_t>(wrap(dx, nx));
            long long hits = 0;
            for (int y = 0; y < ny; ++y) {
                const unsigned char* a = ind + static_cast<std::size_t>(y) * nx;
                const unsigned char* b =
                    dbl.data() + (static_cast<std::size_t>(y) + oy) * w + ox;
                int rowHits = 0;
                for (int x = 0; x < nx; ++x) rowHits += a[x] & b[x];
                hits += rowHits;
            }
            map[static_cast<std::size_t>(dy + maxShift) * side +
                (dx + maxShift)] =
                static_cast<double>(hits) / (static_cast<double>(nx) * ny);
        }
    }
    return map;
}

std::vector<double> correlationMap2D(const Field<double>& phi, int phase,
                                     int z, int maxShift) {
    const auto ind = indicatorPlane(phi, phase, z);
    return correlationMap2DPlane(ind.data(), phi.nx(), phi.ny(), maxShift);
}

CorrelationPca correlationPca(const std::vector<double>& map, int maxShift) {
    const int side = 2 * maxShift + 1;
    TPF_ASSERT(static_cast<int>(map.size()) == side * side,
               "correlation map size mismatch");

    // Background-subtract (uncorrelated level = fraction^2 ~ far-field value)
    // and clamp negatives so the weights form a density over lag vectors.
    const double center = map[static_cast<std::size_t>(maxShift) * side +
                              maxShift]; // = phase fraction
    const double background = center * center;

    double w = 0.0;
    Mat2 M;
    for (int dy = -maxShift; dy <= maxShift; ++dy) {
        for (int dx = -maxShift; dx <= maxShift; ++dx) {
            const double c =
                map[static_cast<std::size_t>(dy + maxShift) * side +
                    (dx + maxShift)] -
                background;
            if (c <= 0.0) continue;
            w += c;
            M += Mat2{static_cast<double>(dx) * dx, static_cast<double>(dx) * dy,
                      static_cast<double>(dx) * dy, static_cast<double>(dy) * dy} *
                 c;
        }
    }
    CorrelationPca out;
    if (w <= 0.0) return out;
    M = M * (1.0 / w);
    const auto ev = M.symEigenvalues();
    out.lambdaMinor = ev[0];
    out.lambdaMajor = ev[1];
    out.axisMajor = M.symEigenvector(ev[1]);
    return out;
}

} // namespace tpf::analysis
