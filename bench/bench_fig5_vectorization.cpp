/// Reproduces **Figure 5**: "Comparison of different vectorization strategies
/// on one SuperMUC core, block size chosen as 60^3" — phi-kernel MLUP/s for
///   (a) cellwise vectorization (one SIMD vector = the 4 phases of a cell),
///   (b) cellwise with shortcuts (per-cell bulk branch),
///   (c) multi-cell vectorization with shortcuts — the production kind: one
///       vector = W consecutive cells (W = 8 on avx512), wholly bulk groups
///       skip the arithmetic, partly bulk groups blend per cell, bitwise
///       equal to (b) (docs/KERNELS.md "Production phi kernel"),
///   (d) the same multi-cell body without staggered buffers (SimdFourCell),
/// each measured on interface / liquid / solid blocks with the active
/// dispatch target.
///
/// Paper's shape: cellwise-with-shortcuts is fastest in all three scenarios,
/// because four-cell code cannot branch per cell. Blending the per-cell
/// shortcut into the multi-cell body removes that disadvantage.

#include <cstdio>

#include "bench_common.h"
#include "core/kernel_dispatch.h"
#include "simd/simd.h"

using namespace tpf;
using namespace tpf::bench;
using core::PhiKernelKind;
using core::Scenario;

int main() {
    std::printf("== Figure 5: phi-kernel vectorization strategies "
                "(60^3 block, one core) ==\n");
    std::printf("SIMD backend: %s\n\n", tpf::simd::backendName().c_str());

    Table t({"scenario", "cellwise [MLUP/s]", "cellwise+shortcuts [MLUP/s]",
             "multi-cell+shortcuts [MLUP/s]", "multi-cell, no stag [MLUP/s]"});

    for (Scenario sc :
         {Scenario::Interface, Scenario::Liquid, Scenario::Solid}) {
        KernelBench kb(sc);
        const double cellwise = kb.phiMlups(PhiKernelKind::SimdTzStag);
        // The production kind no longer runs the cellwise body on fzyx
        // blocks; time that body through the dispatch target directly.
        auto c = kb.ctx();
        const double cellwiseCut =
            static_cast<double>(kb.blk->numCells()) /
            perf::timeIt(
                [&] {
                    core::activeKernelTarget()->phiCellwise(*kb.blk, c, true,
                                                             true, true);
                },
                0.4) /
            1e6;
        const double multiCut = kb.phiMlups(PhiKernelKind::SimdTzStagCut);
        const double fourCell = kb.phiMlups(PhiKernelKind::SimdFourCell);
        t.addRow({scenarioLabel(sc), Table::num(cellwise, 2),
                  Table::num(cellwiseCut, 2), Table::num(multiCut, 2),
                  Table::num(fourCell, 2)});
    }
    t.print();

    std::printf("\nPaper's observation: \"In all three parts of the domain, "
                "the single cell kernel with shortcuts performes best.\" Here "
                "the multi-cell body with per-cell blended shortcuts is "
                "compared against it bit for bit.\n");
    return 0;
}
