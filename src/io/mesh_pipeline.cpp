#include "io/mesh_pipeline.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <utility>

#include "core/slab_sweep.h"
#include "io/marching_cubes.h"
#include "io/reduction.h"
#include "io/simplify.h"
#include "perf/perf.h"
#include "util/assert.h"

namespace tpf::io {

namespace {

/// One canonical extraction chunk: a kSlabHeight z-slab of one local slab.
struct ChunkRef {
    const Field<double>* field = nullptr;
    Int3 origin;    ///< global origin of the owning slab
    int lz0 = 0;    ///< local z of the chunk's first cube plane
    int lz1 = 0;    ///< local z one past the chunk's last cube plane
    int gz0 = 0;    ///< global z of the chunk (the canonical sort key)
};

/// Record framing inside the gathered blob: position of the component in
/// the request, global chunk z and payload size, then the serializeMesh()
/// bytes. Trivially copyable, 8-byte fields.
struct ChunkHeader {
    std::int64_t component = 0;
    std::int64_t gz0 = 0;
    std::uint64_t bytes = 0;
};
static_assert(std::is_trivially_copyable_v<ChunkHeader>);

} // namespace

std::vector<TriMesh> stitchIsoSurfaces(const std::vector<MeshLocalSlab>& slabs,
                                       const std::vector<int>& components,
                                       vmpi::Comm* comm,
                                       const MeshPipelineOptions& opt,
                                       MeshPipelineTimings* timings) {
    // Canonical chunking: every slab interior splits into the same fixed
    // kSlabHeight z-slabs the kernel sweeps use. The partition is a function
    // of the interval alone, so with block z-splits aligned to the slab grid
    // the chunk set — and every chunk's input — is identical in any
    // ranks x threads decomposition. Ascending global z is the order every
    // component's chunks are stitched in.
    std::vector<ChunkRef> chunks;
    for (const MeshLocalSlab& s : slabs) {
        TPF_ASSERT(s.field != nullptr && s.field->ghost() >= 1,
                   "mesh pipeline slabs need a field with a ghost layer");
        const CellInterval interior{0, 0, 0, s.field->nx() - 1,
                                    s.field->ny() - 1, s.field->nz() - 1};
        for (const CellInterval& c : core::slabPartition(interior)) {
            ChunkRef r;
            r.field = s.field;
            r.origin = s.origin;
            r.lz0 = c.zMin;
            r.lz1 = c.zMax + 1;
            r.gz0 = s.origin.z + c.zMin;
            chunks.push_back(r);
        }
    }
    std::stable_sort(chunks.begin(), chunks.end(),
                     [](const ChunkRef& a, const ChunkRef& b) {
                         return a.gz0 < b.gz0;
                     });

    // One fan-out over every (component, chunk) pair. A task extracts its
    // chunk (lateral self-wrap + z ghosts, welded), reduces it in situ and
    // serializes the result, so no more raw chunk meshes are alive than the
    // pool has threads. Reduction locks the chunk's open-boundary vertices —
    // chunk interfaces and domain borders — so the interfaces survive
    // bit-exactly for the stitching weld (the paper's high-weight boundary
    // preservation). Each task writes only its own slots, so the thread
    // count never changes the bytes.
    const std::size_t nChunks = chunks.size();
    const std::size_t nTasks = components.size() * nChunks;
    std::vector<std::vector<std::byte>> payloads(nTasks);
    std::vector<double> extractSec(nTasks, 0.0), simplifySec(nTasks, 0.0);
    util::parallelFor(opt.pool, static_cast<int>(nTasks), [&](int task) {
        const auto t = static_cast<std::size_t>(task);
        const ChunkRef& c = chunks[t % nChunks];
        const double t0 = perf::now();
        TriMesh mesh = extractIsoSurfaceWrapXY(
            *c.field, components[t / nChunks], opt.iso,
            Vec3{static_cast<double>(c.origin.x),
                 static_cast<double>(c.origin.y),
                 static_cast<double>(c.origin.z)},
            c.lz0, c.lz1);
        const double t1 = perf::now();
        extractSec[t] = t1 - t0;
        if (opt.reduceTarget < 1.0 && !mesh.empty()) {
            SimplifyOptions so;
            so.targetTriangles = static_cast<std::size_t>(std::ceil(
                std::max(0.0, opt.reduceTarget) *
                static_cast<double>(mesh.numTriangles())));
            so.maxError = opt.maxError;
            so.lockOpenBoundary = true;
            simplifyMesh(mesh, so);
        }
        payloads[t] = serializeMesh(mesh);
        simplifySec[t] = perf::now() - t1;
    });
    if (timings != nullptr) {
        for (std::size_t t = 0; t < nTasks; ++t) {
            timings->extractSec += extractSec[t];
            timings->simplifySec += simplifySec[t];
        }
    }

    // Frame the records component-major, chunks in ascending global z, then
    // one rank-ordered gather and the canonical per-component stitch on root.
    const double t0 = perf::now();
    std::vector<std::byte> blob;
    for (std::size_t t = 0; t < nTasks; ++t) {
        ChunkHeader h;
        h.component = static_cast<std::int64_t>(t / nChunks);
        h.gz0 = chunks[t % nChunks].gz0;
        h.bytes = payloads[t].size();
        const std::size_t at = blob.size();
        blob.resize(at + sizeof h + payloads[t].size());
        std::memcpy(blob.data() + at, &h, sizeof h);
        std::memcpy(blob.data() + at + sizeof h, payloads[t].data(),
                    payloads[t].size());
        payloads[t] = {};
    }

    std::vector<TriMesh> stitched(components.size());
    std::vector<std::vector<std::byte>> perRank;
    if (comm != nullptr && comm->size() > 1) {
        perRank = comm->gatherAllBytes(blob);
        if (!comm->isRoot()) {
            if (timings != nullptr) timings->gatherSec += perf::now() - t0;
            return stitched;
        }
    } else {
        perRank.push_back(std::move(blob));
    }

    // Parse every rank's records and append each component's chunks in
    // ascending global-z order. Chunk z keys are unique per component
    // (z-only decomposition), so the sort makes the triangle stream
    // independent of which rank produced which chunk.
    std::vector<std::vector<std::pair<std::int64_t, TriMesh>>> parts(
        components.size());
    for (const std::vector<std::byte>& rankBlob : perRank) {
        std::size_t at = 0;
        while (at < rankBlob.size()) {
            TPF_ASSERT(at + sizeof(ChunkHeader) <= rankBlob.size(),
                       "truncated mesh chunk header");
            ChunkHeader h;
            std::memcpy(&h, rankBlob.data() + at, sizeof h);
            at += sizeof h;
            TPF_ASSERT(at + h.bytes <= rankBlob.size(),
                       "truncated mesh chunk payload");
            TPF_ASSERT(h.component >= 0 &&
                           static_cast<std::size_t>(h.component) <
                               components.size(),
                       "mesh chunk component out of range");
            std::vector<std::byte> payload(
                rankBlob.begin() + static_cast<std::ptrdiff_t>(at),
                rankBlob.begin() + static_cast<std::ptrdiff_t>(at + h.bytes));
            at += h.bytes;
            parts[static_cast<std::size_t>(h.component)].emplace_back(
                h.gz0, deserializeMesh(payload));
        }
    }
    perRank.clear();

    // The final boundary welds are independent per component.
    const auto nComponents = static_cast<int>(components.size());
    util::parallelFor(opt.pool, nComponents, [&](int k) {
        auto& own = parts[static_cast<std::size_t>(k)];
        std::stable_sort(own.begin(), own.end(),
                         [](const auto& a, const auto& b) {
                             return a.first < b.first;
                         });
        TriMesh& out = stitched[static_cast<std::size_t>(k)];
        for (auto& [gz0, part] : own) out.append(part);
        own.clear();
        out.weldVertices(opt.weldTol);
    });
    if (timings != nullptr) timings->gatherSec += perf::now() - t0;
    return stitched;
}

std::vector<TriMesh> extractGlobalPhaseSurfaces(
    const std::vector<std::unique_ptr<core::SimBlock>>& blocks,
    const BlockForest& bf, vmpi::Comm* comm, const std::vector<int>& phases,
    const MeshPipelineOptions& opt, MeshPipelineTimings* timings) {
    TPF_ASSERT(bf.blockGrid().x == 1 && bf.blockGrid().y == 1,
               "the in-situ mesh pipeline needs the z-slab decomposition "
               "(blocks spanning the full periodic x/y extent)");
    std::vector<MeshLocalSlab> slabs;
    slabs.reserve(blocks.size());
    for (const auto& b : blocks)
        slabs.push_back(MeshLocalSlab{&b->phiSrc, b->origin});
    return stitchIsoSurfaces(slabs, phases, comm, opt, timings);
}

} // namespace tpf::io
