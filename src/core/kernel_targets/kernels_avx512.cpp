/// \file kernels_avx512.cpp
/// The "avx512" dispatch target: the multi-cell phi/mu bodies instantiated
/// 8-wide with Vec8dAvx512; the cellwise phi body stays 4-wide on Vec4dAvx2
/// (its lane rotations encode the four phases of one cell — width is part of
/// its meaning, not a tuning knob), and so does the multi-cell phi body for
/// blocks with 4 <= nx < 8. Compiled with per-file
/// `-mavx2 -mfma -mavx512f` (src/CMakeLists.txt); deliberately WITHOUT
/// -mavx512vl, so 256-bit operations shared with the avx2 target keep their
/// VEX encodings and cannot leak EVEX instructions through vague-linkage
/// inline functions into non-AVX-512 code paths.

#include <algorithm>
#include <vector>

#include "core/kernel_dispatch.h"
#include "core/kernels.h"
#include "core/model_common.h"
#include "simd/simplex4.h"
#include "simd/vec4d_avx2.h"
#include "simd/vec8d_avx512.h"
#include "util/alignment.h"

namespace tpf::core {

#if defined(__AVX512F__) && defined(__AVX2__) && defined(__FMA__)

namespace {

namespace cellwise {
using V = simd::Vec4dAvx2;
#include "core/phi_kernel_cellwise_body.h"
} // namespace cellwise

namespace multicell {
using V = simd::Vec8dAvx512;
#include "core/phi_kernel_multicell_body.h"
#include "core/mu_kernel_multicell_body.h"
} // namespace multicell

namespace multicell4 {
using V = simd::Vec4dAvx2;
#include "core/phi_kernel_multicell_body.h"
} // namespace multicell4

void phiMultiCell(SimBlock& b, const StepContext& ctx, bool useStag,
                  bool shortcuts) {
    if (b.size.x >= simd::Vec8dAvx512::width)
        multicell::phiSweepMultiCellBody(b, ctx, useStag, shortcuts);
    else
        multicell4::phiSweepMultiCellBody(b, ctx, useStag, shortcuts);
}

const KernelTarget kTarget = {
    "avx512",
    simd::Vec8dAvx512::width,
    &cellwise::phiSweepCellwiseBody,
    &phiMultiCell,
    &multicell::muSweepMultiCellBody,
};

} // namespace

const KernelTarget* kernelTargetAvx512() { return &kTarget; }

#else

const KernelTarget* kernelTargetAvx512() { return nullptr; }

#endif

} // namespace tpf::core
