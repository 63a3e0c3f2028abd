#include "io/simplify.h"

#include <algorithm>
#include <cmath>

#include "util/assert.h"

namespace tpf::io {

namespace {

/// Symmetric 4x4 error quadric, upper triangle stored as
/// [a2 ab ac ad | b2 bc bd | c2 cd | d2] for the plane ax+by+cz+d = 0.
struct Quadric {
    double q[10] = {};

    void addPlane(Vec3 n, double d, double w) {
        const double a = n.x, b = n.y, c = n.z;
        q[0] += w * a * a;
        q[1] += w * a * b;
        q[2] += w * a * c;
        q[3] += w * a * d;
        q[4] += w * b * b;
        q[5] += w * b * c;
        q[6] += w * b * d;
        q[7] += w * c * c;
        q[8] += w * c * d;
        q[9] += w * d * d;
    }

    Quadric& operator+=(const Quadric& o) {
        for (int i = 0; i < 10; ++i) q[i] += o.q[i];
        return *this;
    }

    double eval(Vec3 v) const {
        return q[0] * v.x * v.x + 2 * q[1] * v.x * v.y + 2 * q[2] * v.x * v.z +
               2 * q[3] * v.x + q[4] * v.y * v.y + 2 * q[5] * v.y * v.z +
               2 * q[6] * v.y + q[7] * v.z * v.z + 2 * q[8] * v.z + q[9];
    }

    /// Minimizer of the quadric (solves the 3x3 normal system); false if the
    /// system is near-singular (caller falls back to endpoint candidates).
    bool optimalPoint(Vec3& out) const {
        const double A[3][3] = {
            {q[0], q[1], q[2]}, {q[1], q[4], q[5]}, {q[2], q[5], q[7]}};
        const double b[3] = {-q[3], -q[6], -q[8]};
        // Cramer's rule with a conditioning guard.
        const double det = A[0][0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1]) -
                           A[0][1] * (A[1][0] * A[2][2] - A[1][2] * A[2][0]) +
                           A[0][2] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]);
        double scale = 0.0;
        for (auto& row : A)
            for (double v : row) scale = std::max(scale, std::abs(v));
        if (std::abs(det) < 1e-10 * scale * scale * scale) return false;
        const double inv = 1.0 / det;
        out.x = inv * (b[0] * (A[1][1] * A[2][2] - A[1][2] * A[2][1]) -
                       A[0][1] * (b[1] * A[2][2] - A[1][2] * b[2]) +
                       A[0][2] * (b[1] * A[2][1] - A[1][1] * b[2]));
        out.y = inv * (A[0][0] * (b[1] * A[2][2] - A[1][2] * b[2]) -
                       b[0] * (A[1][0] * A[2][2] - A[1][2] * A[2][0]) +
                       A[0][2] * (A[1][0] * b[2] - b[1] * A[2][0]));
        out.z = inv * (A[0][0] * (A[1][1] * b[2] - b[1] * A[2][1]) -
                       A[0][1] * (A[1][0] * b[2] - b[1] * A[2][0]) +
                       b[0] * (A[1][0] * A[2][1] - A[1][1] * A[2][0]));
        return std::isfinite(out.x) && std::isfinite(out.y) &&
               std::isfinite(out.z);
    }
};

/// A collapse candidate as the heap orders it: 16 bytes, so heap sifts move
/// little. The rest of the candidate lives in a side array under \p id.
struct HeapEntry {
    double error;
    int id;
};

/// Min-heap on the error alone, through the std::push_heap/std::pop_heap
/// algorithm std::priority_queue runs: equal errors pop in the same order as
/// a priority_queue of full candidates with the same comparator would.
bool laterCollapse(const HeapEntry& a, const HeapEntry& b) {
    return a.error > b.error;
}

struct Candidate {
    int v1, v2;       ///< collapse v2 into v1 at position pos
    Vec3 pos;
    int stamp1, stamp2; ///< vertex versions at push time
};

struct Connectivity {
    std::vector<std::vector<int>> vertexFaces; // face ids per vertex
    std::vector<char> faceAlive;
};

bool faceContains(const std::array<int, 3>& t, int v) {
    return t[0] == v || t[1] == v || t[2] == v;
}

} // namespace

std::size_t simplifyMesh(TriMesh& mesh, const SimplifyOptions& opt) {
    const std::size_t nv = mesh.vertices.size();
    const std::size_t nf = mesh.triangles.size();
    if (nf == 0) return 0;

    // --- initial quadrics from face planes ---
    std::vector<Quadric> quadrics(nv);
    for (std::size_t f = 0; f < nf; ++f) {
        const auto& t = mesh.triangles[f];
        const Vec3& a = mesh.vertices[static_cast<std::size_t>(t[0])];
        const Vec3& b = mesh.vertices[static_cast<std::size_t>(t[1])];
        const Vec3& c = mesh.vertices[static_cast<std::size_t>(t[2])];
        Vec3 n = (b - a).cross(c - a);
        const double area2 = n.norm();
        if (area2 < 1e-300) continue;
        n = n * (1.0 / area2);
        const double d = -n.dot(a);
        const double w = 0.5 * area2; // area weighting
        for (int corner : t)
            quadrics[static_cast<std::size_t>(corner)].addPlane(n, d, w);
    }

    // --- open-boundary constraint planes, locked-vertex pins, seed order ---
    // Edges in sorted (a < b) key order instead of a hash map: the boundary
    // planes below are accumulated into floating-point quadrics, and
    // accumulation order must not depend on hash iteration order or the
    // simplified mesh stops being bitwise reproducible across standard
    // libraries (tpf-lint: unordered-iteration). The order comes from a
    // counting sort on a, then a sort of each vertex's short (b, 3f+e) run.
    // Each entry carries its edge slot 3f+e, so the first entry of a key
    // group is the edge's first occurrence in face order — the order the
    // heap is seeded in below.
    std::vector<char> locked(nv, 0);
    std::vector<char> firstUse(3 * nf, 0); ///< edge slot 3f+e seeds the heap
    {
        const auto edgeOf = [&](std::size_t slot) {
            const auto& t = mesh.triangles[slot / 3];
            const int a = t[slot % 3];
            const int b = t[(slot + 1) % 3];
            return a < b ? std::pair{a, b} : std::pair{b, a};
        };
        std::vector<int> runStart(nv + 1, 0); ///< a -> first entry of its run
        for (std::size_t slot = 0; slot < 3 * nf; ++slot)
            ++runStart[static_cast<std::size_t>(edgeOf(slot).first) + 1];
        for (std::size_t v = 0; v < nv; ++v) runStart[v + 1] += runStart[v];
        std::vector<std::pair<int, int>> edges(3 * nf); // (b, 3f+e) by a
        {
            std::vector<int> fill(runStart.begin(), runStart.end() - 1);
            for (std::size_t slot = 0; slot < 3 * nf; ++slot) {
                const auto [a, b] = edgeOf(slot);
                edges[static_cast<std::size_t>(
                    fill[static_cast<std::size_t>(a)]++)] = {
                    b, static_cast<int>(slot)};
            }
        }
        for (std::size_t v = 0; v < nv; ++v) {
            const auto runBegin = static_cast<std::size_t>(runStart[v]);
            const auto runEnd = static_cast<std::size_t>(runStart[v + 1]);
            std::sort(edges.begin() + static_cast<std::ptrdiff_t>(runBegin),
                      edges.begin() + static_cast<std::ptrdiff_t>(runEnd));
            for (std::size_t i = runBegin; i < runEnd;) {
                std::size_t j = i + 1;
                while (j < runEnd && edges[j].first == edges[i].first) ++j;
                const bool boundaryEdge = (j - i == 1);
                const auto ea = v;
                const auto eb = static_cast<std::size_t>(edges[i].first);
                const auto slot = static_cast<std::size_t>(edges[i].second);
                firstUse[slot] = 1;
                i = j;
                if (!boundaryEdge) continue; // interior edge
                if (opt.lockOpenBoundary) locked[ea] = locked[eb] = 1;
                // Constraint plane through the edge, perpendicular to the
                // face.
                const auto& t = mesh.triangles[slot / 3];
                const Vec3& a = mesh.vertices[ea];
                const Vec3& b = mesh.vertices[eb];
                const Vec3& fa = mesh.vertices[static_cast<std::size_t>(t[0])];
                const Vec3& fb = mesh.vertices[static_cast<std::size_t>(t[1])];
                const Vec3& fc = mesh.vertices[static_cast<std::size_t>(t[2])];
                const Vec3 faceN = (fb - fa).cross(fc - fa);
                Vec3 n = (b - a).cross(faceN);
                const double len = n.norm();
                if (len < 1e-300) continue;
                n = n * (1.0 / len);
                quadrics[ea].addPlane(n, -n.dot(a), opt.openBoundaryWeight);
                quadrics[eb].addPlane(n, -n.dot(b), opt.openBoundaryWeight);
            }
        }
    }
    // Locked vertices (block-boundary preservation during hierarchical
    // reduction): edges touching them are never collapsed.
    if (opt.lockedVertex) {
        for (std::size_t v = 0; v < nv; ++v)
            if (opt.lockedVertex(mesh.vertices[v])) locked[v] = 1;
    }

    // --- connectivity ---
    Connectivity conn;
    conn.vertexFaces.resize(nv);
    conn.faceAlive.assign(nf, 1);
    for (std::size_t f = 0; f < nf; ++f)
        for (int corner : mesh.triangles[f])
            conn.vertexFaces[static_cast<std::size_t>(corner)].push_back(
                static_cast<int>(f));

    std::vector<int> stamp(nv, 0);
    std::vector<HeapEntry> heap;
    std::vector<Candidate> candidates; ///< indexed by HeapEntry::id
    std::vector<int> freeIds;          ///< candidate slots popped off the heap

    auto pushEdge = [&](int v1, int v2) {
        if (v1 == v2) return;
        if (locked[static_cast<std::size_t>(v1)] ||
            locked[static_cast<std::size_t>(v2)])
            return;
        Quadric q = quadrics[static_cast<std::size_t>(v1)];
        q += quadrics[static_cast<std::size_t>(v2)];
        Vec3 best;
        double bestErr;
        if (q.optimalPoint(best)) {
            bestErr = q.eval(best);
        } else {
            const Vec3 cands[3] = {
                mesh.vertices[static_cast<std::size_t>(v1)],
                mesh.vertices[static_cast<std::size_t>(v2)],
                (mesh.vertices[static_cast<std::size_t>(v1)] +
                 mesh.vertices[static_cast<std::size_t>(v2)]) *
                    0.5};
            best = cands[0];
            bestErr = q.eval(cands[0]);
            for (const Vec3& c : {cands[1], cands[2]}) {
                const double e = q.eval(c);
                if (e < bestErr) {
                    bestErr = e;
                    best = c;
                }
            }
        }
        const Candidate c{v1, v2, best, stamp[static_cast<std::size_t>(v1)],
                          stamp[static_cast<std::size_t>(v2)]};
        int id;
        if (freeIds.empty()) {
            id = static_cast<int>(candidates.size());
            candidates.push_back(c);
        } else {
            id = freeIds.back();
            freeIds.pop_back();
            candidates[static_cast<std::size_t>(id)] = c;
        }
        heap.push_back(HeapEntry{bestErr, id});
        std::push_heap(heap.begin(), heap.end(), laterCollapse);
    };

    // Seed the heap with every edge, in first-occurrence order.
    for (std::size_t slot = 0; slot < firstUse.size(); ++slot) {
        if (!firstUse[slot]) continue;
        const auto& t = mesh.triangles[slot / 3];
        int a = t[slot % 3];
        int b = t[(slot + 1) % 3];
        if (a > b) std::swap(a, b);
        pushEdge(a, b);
    }
    firstUse = {};

    std::size_t aliveFaces = nf;
    std::size_t collapses = 0;
    const std::size_t target =
        opt.targetTriangles == 0 ? 1 : opt.targetTriangles;
    std::vector<int> neighbors; // reused across collapses (hot loop)

    while (aliveFaces > target && !heap.empty()) {
        std::pop_heap(heap.begin(), heap.end(), laterCollapse);
        const HeapEntry entry = heap.back();
        heap.pop_back();
        const Candidate top = candidates[static_cast<std::size_t>(entry.id)];
        freeIds.push_back(entry.id);
        const auto v1 = static_cast<std::size_t>(top.v1);
        const auto v2 = static_cast<std::size_t>(top.v2);
        if (top.stamp1 != stamp[v1] || top.stamp2 != stamp[v2]) continue;
        if (entry.error > opt.maxError) break;

        // Fold-over check: surviving faces around v1/v2 must not flip.
        bool flip = false;
        for (int pass = 0; pass < 2 && !flip; ++pass) {
            const auto vv = pass == 0 ? v1 : v2;
            for (int f : conn.vertexFaces[vv]) {
                if (!conn.faceAlive[static_cast<std::size_t>(f)]) continue;
                const auto& t = mesh.triangles[static_cast<std::size_t>(f)];
                if (faceContains(t, top.v1) && faceContains(t, top.v2))
                    continue; // face dies
                Vec3 p[3], pNew[3];
                for (int c = 0; c < 3; ++c) {
                    p[c] = mesh.vertices[static_cast<std::size_t>(
                        t[static_cast<std::size_t>(c)])];
                    pNew[c] = (t[static_cast<std::size_t>(c)] == top.v1 ||
                               t[static_cast<std::size_t>(c)] == top.v2)
                                  ? top.pos
                                  : p[c];
                }
                const Vec3 nOld = (p[1] - p[0]).cross(p[2] - p[0]);
                const Vec3 nNew = (pNew[1] - pNew[0]).cross(pNew[2] - pNew[0]);
                if (nOld.dot(nNew) <= 0.0) {
                    flip = true;
                    break;
                }
            }
        }
        if (flip) continue;

        // Perform the collapse: v2 -> v1 at top.pos.
        mesh.vertices[v1] = top.pos;
        quadrics[v1] += quadrics[v2];
        ++stamp[v1];
        ++stamp[v2];

        for (int f : conn.vertexFaces[v2]) {
            if (!conn.faceAlive[static_cast<std::size_t>(f)]) continue;
            auto& t = mesh.triangles[static_cast<std::size_t>(f)];
            if (faceContains(t, top.v1)) {
                conn.faceAlive[static_cast<std::size_t>(f)] = 0;
                --aliveFaces;
            } else {
                for (int& c : t)
                    if (c == top.v2) c = top.v1;
                conn.vertexFaces[v1].push_back(f);
            }
        }
        conn.vertexFaces[v2].clear();
        ++collapses;

        // Compact v1's face list while it is hot: dead faces would otherwise
        // accumulate and every later fold-over check around this vertex
        // would rescan them.
        {
            auto& vf = conn.vertexFaces[v1];
            vf.erase(std::remove_if(vf.begin(), vf.end(),
                                    [&](int f) {
                                        return !conn.faceAlive
                                            [static_cast<std::size_t>(f)];
                                    }),
                     vf.end());
        }

        // Refresh candidate edges around the merged vertex. Sorted-unique
        // vector, not an unordered_set: the push order seeds the collapse
        // heap, and heap tie-breaking must not inherit hash iteration order
        // (tpf-lint: unordered-iteration).
        neighbors.clear();
        for (int f : conn.vertexFaces[v1]) {
            if (!conn.faceAlive[static_cast<std::size_t>(f)]) continue;
            for (int c : mesh.triangles[static_cast<std::size_t>(f)])
                if (c != top.v1) neighbors.push_back(c);
        }
        std::sort(neighbors.begin(), neighbors.end());
        neighbors.erase(std::unique(neighbors.begin(), neighbors.end()),
                        neighbors.end());
        for (int nb : neighbors) pushEdge(top.v1, nb);
    }

    // Compact the face list and drop orphaned vertices.
    std::vector<std::array<int, 3>> keptFaces;
    keptFaces.reserve(aliveFaces);
    for (std::size_t f = 0; f < nf; ++f)
        if (conn.faceAlive[f]) keptFaces.push_back(mesh.triangles[f]);
    mesh.triangles = std::move(keptFaces);
    mesh.compactVertices();
    return collapses;
}

} // namespace tpf::io
