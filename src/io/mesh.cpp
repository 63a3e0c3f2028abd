#include "io/mesh.h"

#include <cmath>
#include <cstdint>
#include <unordered_map>

#include "util/assert.h"

namespace tpf::io {

namespace {

/// Weld lookup over 4x4x4 super-bins of the quantization grid: an
/// open-addressing table from super-bin coordinates (bin >> 2, which floors
/// on negative bins too) to the head of an intrusive chain of kept-vertex
/// indices. The neighbourhood [b-1, b+1] of a bin b spans one or two
/// super-bins per axis, so a lookup probes 1-8 slots instead of 27 bins.
class SuperBinTable {
public:
    explicit SuperBinTable(std::size_t expected) {
        std::size_t cap = 16;
        while (cap < 2 * expected) cap *= 2;
        slots_.assign(cap, Slot{});
    }

    /// Chain head of super-bin (x, y, z); -1 when the super-bin is empty.
    int find(std::int64_t x, std::int64_t y, std::int64_t z) const {
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(x, y, z) & mask;; i = (i + 1) & mask) {
            const Slot& s = slots_[i];
            if (s.head < 0) return -1;
            if (s.x == x && s.y == y && s.z == z) return s.head;
        }
    }

    /// Chain head slot of super-bin (x, y, z), inserted as -1 when absent.
    int& head(std::int64_t x, std::int64_t y, std::int64_t z) {
        if (2 * (used_ + 1) > slots_.size()) grow();
        const std::size_t mask = slots_.size() - 1;
        for (std::size_t i = hash(x, y, z) & mask;; i = (i + 1) & mask) {
            Slot& s = slots_[i];
            if (s.head < 0) {
                s = Slot{x, y, z, -1};
                ++used_;
                return s.head;
            }
            if (s.x == x && s.y == y && s.z == z) return s.head;
        }
    }

private:
    struct Slot {
        std::int64_t x = 0, y = 0, z = 0;
        int head = -1; ///< -1: free slot (a stored chain is never empty)
    };

    static std::size_t hash(std::int64_t x, std::int64_t y, std::int64_t z) {
        std::uint64_t h = static_cast<std::uint64_t>(x) * 0x9E3779B97F4A7C15ULL;
        h ^= static_cast<std::uint64_t>(y) * 0xC2B2AE3D27D4EB4FULL;
        h ^= static_cast<std::uint64_t>(z) * 0x165667B19E3779F9ULL;
        return static_cast<std::size_t>(h ^ (h >> 29));
    }

    void grow() {
        std::vector<Slot> old(2 * slots_.size());
        old.swap(slots_);
        const std::size_t mask = slots_.size() - 1;
        for (const Slot& s : old) {
            if (s.head < 0) continue;
            std::size_t i = hash(s.x, s.y, s.z) & mask;
            while (slots_[i].head >= 0) i = (i + 1) & mask;
            slots_[i] = s;
        }
    }

    std::vector<Slot> slots_;
    std::size_t used_ = 0;
};

} // namespace

void TriMesh::append(const TriMesh& o) {
    const int base = static_cast<int>(vertices.size());
    vertices.insert(vertices.end(), o.vertices.begin(), o.vertices.end());
    triangles.reserve(triangles.size() + o.triangles.size());
    for (const auto& t : o.triangles)
        triangles.push_back({t[0] + base, t[1] + base, t[2] + base});
}

std::vector<int> TriMesh::weldVertices(double tol) {
    TPF_ASSERT(tol > 0.0, "weld tolerance must be positive");
    const double inv = 1.0 / tol;

    // Each kept vertex sits in the quantization bin of its position. A bin
    // can hold several representatives (points within a bin but further
    // than tol apart along some axis stay distinct); the super-bin table
    // chains them intrusively through chainPrev, so no bin costs a heap
    // allocation. The table starts at the size a raw marching-tet mesh
    // needs (about one kept vertex per four inputs) and grows on demand.
    SuperBinTable table(vertices.size() / 4);
    std::vector<int> remap(vertices.size());
    std::vector<Vec3> keptVertices;
    std::vector<std::array<std::int64_t, 3>> keptBins;
    std::vector<int> chainPrev; ///< kept index -> previous in its super-bin

    for (std::size_t i = 0; i < vertices.size(); ++i) {
        const Vec3& v = vertices[i];
        const std::int64_t bx = static_cast<std::int64_t>(std::llround(v.x * inv));
        const std::int64_t by = static_cast<std::int64_t>(std::llround(v.y * inv));
        const std::int64_t bz = static_cast<std::int64_t>(std::llround(v.z * inv));
        // Candidates are the kept vertices of the 27 bins around (bx, by,
        // bz): two points within tol can land in adjacent bins when they
        // straddle a quantization boundary, which used to leave hairline
        // cracks at tet/cube seams. The super-bins covering [b-1, b+1] hold
        // every such vertex, and the stored-bin test drops the others, so the
        // candidate set is exactly the 27-bin one. Among all candidates
        // within tol (per axis) the earliest-kept index wins, so welding
        // stays a pure function of the input vertex order — first-insertion
        // order, never the table layout or the probe order.
        int match = -1;
        for (std::int64_t sz = (bz - 1) >> 2; sz <= (bz + 1) >> 2; ++sz) {
            for (std::int64_t sy = (by - 1) >> 2; sy <= (by + 1) >> 2; ++sy) {
                for (std::int64_t sx = (bx - 1) >> 2; sx <= (bx + 1) >> 2;
                     ++sx) {
                    for (int k = table.find(sx, sy, sz); k >= 0;
                         k = chainPrev[static_cast<std::size_t>(k)]) {
                        const auto kk = static_cast<std::size_t>(k);
                        const auto& kb = keptBins[kk];
                        if (kb[0] < bx - 1 || kb[0] > bx + 1 ||
                            kb[1] < by - 1 || kb[1] > by + 1 ||
                            kb[2] < bz - 1 || kb[2] > bz + 1)
                            continue; // outside the 27-bin neighbourhood
                        const Vec3& u = keptVertices[kk];
                        if (std::abs(u.x - v.x) <= tol &&
                            std::abs(u.y - v.y) <= tol &&
                            std::abs(u.z - v.z) <= tol &&
                            (match < 0 || k < match))
                            match = k;
                    }
                }
            }
        }
        if (match < 0) {
            match = static_cast<int>(keptVertices.size());
            keptVertices.push_back(v);
            keptBins.push_back({bx, by, bz});
            int& head = table.head(bx >> 2, by >> 2, bz >> 2);
            chainPrev.push_back(head);
            head = match;
        }
        remap[i] = match;
    }

    std::vector<std::array<int, 3>> keptTriangles;
    keptTriangles.reserve(triangles.size());
    for (const auto& t : triangles) {
        const std::array<int, 3> m{remap[static_cast<std::size_t>(t[0])],
                                   remap[static_cast<std::size_t>(t[1])],
                                   remap[static_cast<std::size_t>(t[2])]};
        if (m[0] == m[1] || m[1] == m[2] || m[0] == m[2]) continue; // degenerate
        keptTriangles.push_back(m);
    }

    vertices = std::move(keptVertices);
    triangles = std::move(keptTriangles);
    return remap;
}

void TriMesh::compactVertices() {
    std::vector<int> remap(vertices.size(), -1);
    std::vector<Vec3> kept;
    for (auto& t : triangles) {
        for (int& idx : t) {
            auto& m = remap[static_cast<std::size_t>(idx)];
            if (m < 0) {
                m = static_cast<int>(kept.size());
                kept.push_back(vertices[static_cast<std::size_t>(idx)]);
            }
            idx = m;
        }
    }
    vertices = std::move(kept);
}

double TriMesh::totalArea() const {
    double area = 0.0;
    for (const auto& t : triangles) {
        const Vec3& a = vertices[static_cast<std::size_t>(t[0])];
        const Vec3& b = vertices[static_cast<std::size_t>(t[1])];
        const Vec3& c = vertices[static_cast<std::size_t>(t[2])];
        area += 0.5 * (b - a).cross(c - a).norm();
    }
    return area;
}

namespace {

struct EdgeKey {
    int a, b; // a < b
    bool operator==(const EdgeKey&) const = default;
};
struct EdgeKeyHash {
    std::size_t operator()(const EdgeKey& e) const {
        return std::hash<long long>()((static_cast<long long>(e.a) << 32) ^ e.b);
    }
};

std::unordered_map<EdgeKey, int, EdgeKeyHash> edgeUseCounts(const TriMesh& m) {
    std::unordered_map<EdgeKey, int, EdgeKeyHash> counts;
    counts.reserve(m.triangles.size() * 3);
    for (const auto& t : m.triangles) {
        for (int e = 0; e < 3; ++e) {
            int a = t[static_cast<std::size_t>(e)];
            int b = t[static_cast<std::size_t>((e + 1) % 3)];
            if (a > b) std::swap(a, b);
            ++counts[EdgeKey{a, b}];
        }
    }
    return counts;
}

} // namespace

long long TriMesh::eulerCharacteristic() const {
    const auto counts = edgeUseCounts(*this);
    // Count only vertices in use.
    std::vector<char> used(vertices.size(), 0);
    for (const auto& t : triangles)
        for (int idx : t) used[static_cast<std::size_t>(idx)] = 1;
    long long v = 0;
    for (char u : used) v += u;
    return v - static_cast<long long>(counts.size()) +
           static_cast<long long>(triangles.size());
}

bool TriMesh::isClosed() const {
    if (triangles.empty()) return false;
    // tpf-lint: allow(unordered-iteration) -- pure all-of predicate; the
    // result is independent of hash iteration order.
    for (const auto& [edge, count] : edgeUseCounts(*this))
        if (count != 2) return false;
    return true;
}

std::pair<Vec3, Vec3> TriMesh::boundingBox() const {
    Vec3 lo{1e300, 1e300, 1e300}, hi{-1e300, -1e300, -1e300};
    for (const Vec3& v : vertices) {
        lo.x = std::min(lo.x, v.x);
        lo.y = std::min(lo.y, v.y);
        lo.z = std::min(lo.z, v.z);
        hi.x = std::max(hi.x, v.x);
        hi.y = std::max(hi.y, v.y);
        hi.z = std::max(hi.z, v.z);
    }
    return {lo, hi};
}

Vec3 TriMesh::triangleNormal(std::size_t t) const {
    const auto& tr = triangles[t];
    const Vec3& a = vertices[static_cast<std::size_t>(tr[0])];
    const Vec3& b = vertices[static_cast<std::size_t>(tr[1])];
    const Vec3& c = vertices[static_cast<std::size_t>(tr[2])];
    const Vec3 n = (b - a).cross(c - a);
    const double len = n.norm();
    if (len < 1e-300) return {0.0, 0.0, 0.0};
    return n * (1.0 / len);
}

} // namespace tpf::io
