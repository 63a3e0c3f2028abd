#pragma once
/// \file marching_cubes.h
/// Per-block iso-surface extraction of the phase interfaces (paper §3.2).
///
/// The paper uses a custom marching-cubes variant; this implementation
/// marches the Kuhn tetrahedral decomposition of each cell-centered cube
/// (tables in mc_tables.h), which needs no 256-case tables and is provably
/// consistent across cube and block boundaries: per-block meshes extracted
/// with ghost extension stitch into a single watertight surface (verified by
/// the mesh tests). Like the paper's variant it produces triangles with edge
/// lengths of order dx — "unnecessarily fine" — which the quadric-error
/// simplification (simplify.h) then coarsens.

#include "core/sim_block.h"
#include "grid/field.h"
#include "io/mesh.h"
#include "util/thread_pool.h"

namespace tpf::io {

/// Extract the iso-surface \p field(component) == iso. Cube lower corners run
/// over the interior; upper corners read the +1 ghost layer, so the surface
/// extends exactly to the neighbor block's first cell (stitchable). Vertex
/// positions are cell-center coordinates shifted by \p origin.
TriMesh extractIsoSurface(const Field<double>& field, int component, double iso,
                          Vec3 origin);

/// Thread-parallel variant: the cube sweep fans out over the fixed z-slab
/// partition of core/slab_sweep.h with deterministic per-slab append order,
/// so the result is bitwise identical for every thread count (nullptr or a
/// 1-thread pool: serial).
TriMesh extractIsoSurface(const Field<double>& field, int component, double iso,
                          Vec3 origin, util::ThreadPool* pool);

/// Extract only the cubes whose lower corner z lies in [z0, z1), reading the
/// +1 lateral corners through periodic x/y self-wrap instead of ghost cells
/// (valid when the block spans the whole periodic x/y extent, the production
/// z-slab decomposition); only the z ghost planes are read, which the D3C19
/// phi exchange keeps valid. This is the per-chunk unit of the in-situ
/// rank-parallel pipeline (io/mesh_pipeline.h).
TriMesh extractIsoSurfaceWrapXY(const Field<double>& field, int component,
                                double iso, Vec3 origin, int z0, int z1);

/// extractIsoSurfaceWrapXY() without its weld: every triangle carries its own
/// three vertex copies, the raw marching output the weld consumes.
TriMesh marchIsoSurfaceWrapXY(const Field<double>& field, int component,
                              double iso, Vec3 origin, int z0, int z1);

/// Interface mesh of one phase of a simulation block (phi_a = 0.5 surface)
/// in global cell coordinates.
TriMesh extractPhaseSurface(const core::SimBlock& blk, int phase,
                            double iso = 0.5);

} // namespace tpf::io
