/// \file driver.cpp
/// tpf-perfbench: the pinned end-to-end solidification benchmark
/// (perfbench/README.md).
///
/// Runs one named workload through the public calls tpf-sim makes —
/// vmpi::runParallel, core::Solver construction / initialize() / step(),
/// analysis::Pipeline::sample, analysis::MeshObserver::sample and
/// io::saveCheckpoint — and times each layer with its own clock around those
/// calls; nothing inside src/ is instrumented for it. The in-situ sample()
/// calls are made here at fixed cadences instead of through attach(), so
/// each can be timed on its own.
///
/// A run is a closed loop of repetitions. Each repetition runs in a process
/// of its own, forked from the driver: it launches the ranks, builds and
/// initializes a fresh Solver (the set-up), makes kSteps back-to-back steps
/// with the workload's in-situ calls (the timed phase) and ends with a
/// bitwise fingerprint of the state. Repetitions continue
/// until --seconds of timed phase are collected. With --trace 1, untraced
/// and traced repetitions alternate: the traced ones add a clock around
/// every call and, outside the timed steps, the per-layer probes.
///
/// The last stdout line is one JSON object with the metrics, fingerprints
/// and check results; run.py builds this binary, adds the machine and source
/// fingerprint and prints the benchmark's result line.

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "analysis/mesh_observer.h"
#include "analysis/observers.h"
#include "core/kernel_dispatch.h"
#include "core/solver.h"
#include "io/checkpoint.h"
#include "io/csv_writer.h"
#include "perf/streambench.h"
#include "util/crc32.h"
#include "vmpi/comm.h"

namespace {

using namespace tpf;
namespace fs = std::filesystem;
using vmpi::TransportKind;

double now() {
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

// --- the pinned problem ------------------------------------------------------

constexpr Int3 kCells{32, 32, 128};
constexpr long long kCellCount =
    static_cast<long long>(kCells.x) * kCells.y * kCells.z;
/// Steps per repetition. Not a multiple of the 100-step mesh cadence, so
/// the pooled p99 falls inside the analysis-step group rather than on the
/// edge between two output groups (where it would flip between them).
constexpr int kSteps = 250;
constexpr int kReportEvery = 50; ///< cadence of the collective diagnostics
constexpr int kSweepRepeats = 3; ///< kernel-probe sweeps per traced repetition
/// VoronoiConfig's default seed: the seed golden.json records.
constexpr std::uint64_t kGoldenSeed = 42;

struct Shape {
    int ranks = 1;
    int threads = 1;
    TransportKind transport = TransportKind::Thread;
};

struct Workload {
    const char* name;
    Shape shape;      ///< the measured configuration
    Shape reference;  ///< cross-check configuration; must agree bitwise
    double zEut;      ///< initial eutectic isotherm (< 0: tpf-sim default)
    int fillHeight;   ///< Voronoi solid height (< 0: tpf-sim default)
    int analyzeEvery; ///< in-situ cadences in steps, 0 = off
    int meshEvery;
    int checkpointEvery;
};

const Workload kWorkloads[] = {
    {"lamellar-serial", {1, 1, TransportKind::Thread},
     {4, 1, TransportKind::Shm}, 96.0, 80, 0, 0, 0},
    {"lamellar-shm4", {4, 1, TransportKind::Shm},
     {1, 1, TransportKind::Thread}, 96.0, 80, 0, 0, 0},
    {"melt-insitu-hybrid", {2, 2, TransportKind::Thread},
     {1, 1, TransportKind::Thread}, -1.0, -1, 20, 100, 200},
};

/// The solver configuration tpf-sim builds for
///   tpf-sim --scenario solidify --size 32,32,128 --window --overlap mu
///           --seeds 4 --ranks R --threads T [--zeut Z --fill-height H]
/// with every other flag at its default.
///
/// --seeds 4 (64 Voronoi grains instead of the default 4) makes every seed
/// give a statistically equal microstructure. With 4 grains the phase draw
/// decides the work: after 250 lamellar steps the share of non-pure
/// (interface) cells ranged from 0.06 to 0.58 over 11 seeds, and a seed
/// whose grains all drew one phase ran twice as fast. With 64 grains it
/// ranged from 0.56 to 0.58.
core::SolverConfig makeConfig(const Workload& w, const Shape& s,
                              std::uint64_t seed) {
    core::SolverConfig cfg;
    cfg.globalCells = kCells;
    cfg.threads = s.threads;
    cfg.model.temp.gradient = 0.5;
    cfg.model.temp.velocity = 0.02;
    cfg.model.temp.zEut0 = w.zEut >= 0.0 ? w.zEut : 0.375 * kCells.z;
    cfg.init.fillHeight = w.fillHeight >= 0 ? w.fillHeight : 3 * kCells.z / 16;
    cfg.init.seed = seed;
    cfg.init.seedsPerArea = 4;
    cfg.window.enabled = true;
    cfg.overlapMu = true;
    cfg.overlapPhi = false;
    cfg.schedule = core::SweepSchedule::Split;
    if (s.ranks > 1) cfg.blockSize = {kCells.x, kCells.y, kCells.z / s.ranks};
    return cfg;
}

// --- statistics --------------------------------------------------------------

/// Linear-interpolation percentile (q in [0, 1]); NaN for no samples.
double percentile(std::vector<double> v, double q) {
    if (v.empty()) return std::nan("");
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double median(std::vector<double> v) { return percentile(std::move(v), 0.5); }

// --- correctness fingerprint -------------------------------------------------

struct Fingerprint {
    std::uint32_t phi = 0, mu = 0;
    std::uint32_t csv = 0, mesh = 0; ///< analysis CSV, mesh index
    bool insitu = false;             ///< csv/mesh belong to the workload

    std::string str() const {
        char buf[96];
        if (insitu)
            std::snprintf(buf, sizeof buf,
                          "phi=%08x mu=%08x csv=%08x mesh=%08x", phi, mu, csv,
                          mesh);
        else
            std::snprintf(buf, sizeof buf, "phi=%08x mu=%08x", phi, mu);
        return buf;
    }
};

/// Collective. CRC-32 of the phi and of the mu interiors in the canonical
/// global order (z, y, x, component): every rank serializes its blocks in
/// that order, root sorts the blocks by global z origin and chains the CRC
/// over them. The value is therefore independent of ranks, threads,
/// transport and field layout. Needs z-slab blocks (full x/y extent).
void fieldCrcs(core::Solver& solver, vmpi::Comm& comm, Fingerprint& fp) {
    const Int3 g = solver.forest().globalCells();
    const Int3 bs = solver.forest().blockSize();
    if (bs.x != g.x || bs.y != g.y)
        throw std::runtime_error("fingerprint needs z-slab blocks");
    std::vector<std::byte> mine;
    auto put = [&mine](const void* p, std::size_t n) {
        const auto* b = static_cast<const std::byte*>(p);
        mine.insert(mine.end(), b, b + n);
    };
    for (const auto& b : solver.localBlocks()) {
        const std::int32_t z0 = b->origin.z;
        put(&z0, sizeof z0);
        for (const Field<double>* f : {&b->phiSrc, &b->muSrc})
            for (int z = 0; z < b->size.z; ++z)
                for (int y = 0; y < b->size.y; ++y)
                    for (int x = 0; x < b->size.x; ++x)
                        for (int c = 0; c < f->nf(); ++c) {
                            const double v = (*f)(x, y, z, c);
                            put(&v, sizeof v);
                        }
    }
    const auto all = comm.gatherAllBytes(mine);
    if (!comm.isRoot()) return;

    const std::size_t cells = static_cast<std::size_t>(bs.x) * bs.y * bs.z;
    const std::size_t phiBytes = cells * core::N * sizeof(double);
    const std::size_t muBytes = cells * core::KC * sizeof(double);
    const std::size_t record = sizeof(std::int32_t) + phiBytes + muBytes;
    std::vector<std::pair<std::int32_t, const std::byte*>> blocks;
    for (const auto& r : all) {
        if (r.size() % record != 0)
            throw std::runtime_error("fingerprint gather: ragged block data");
        for (std::size_t off = 0; off < r.size(); off += record) {
            std::int32_t z0 = 0;
            std::memcpy(&z0, r.data() + off, sizeof z0);
            blocks.emplace_back(z0, r.data() + off + sizeof z0);
        }
    }
    std::sort(blocks.begin(), blocks.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    fp.phi = 0;
    fp.mu = 0;
    for (const auto& [z0, p] : blocks) {
        fp.phi = util::crc32(p, phiBytes, fp.phi);
        fp.mu = util::crc32(p + phiBytes, muBytes, fp.mu);
    }
}

std::uint32_t fileCrc(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in) throw std::runtime_error("cannot read " + path.string());
    const std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                                  std::istreambuf_iterator<char>());
    return util::crc32(bytes.data(), bytes.size());
}

/// Total triangles of the last frame in a mesh index CSV (tri_s* columns).
long long lastFrameTriangles(const fs::path& index) {
    const io::CsvSeries s = io::readCsvSeries(index.string());
    if (s.rows.empty()) throw std::runtime_error("empty " + index.string());
    long long tri = 0;
    for (std::size_t c = 0; c < s.columns.size(); ++c)
        if (s.columns[c].rfind("tri_s", 0) == 0)
            tri += std::stoll(s.rows.back().at(c));
    return tri;
}

// --- one repetition ----------------------------------------------------------

struct RepResult {
    bool traced = false;
    bool ok = false;
    std::string error;
    Fingerprint fp;

    double setupS = 0.0; ///< launch call -> first timed step (rank 0)
    double timedS = 0.0; ///< sum of the per-step intervals
    double peakRssMib = 0.0;
    std::vector<double> stepMs; ///< step + the in-situ calls after it

    // Per-layer samples (traced repetitions only).
    double spawnS = 0.0, constructS = 0.0, initializeS = 0.0; // max over ranks
    std::vector<double> solverStepMs, diagMs, analysisMs, meshMs, checkpointMs;
    std::vector<double> phiExchangeMs, muExchangeMs;
    std::vector<double> fractionsMs, lamellaeMs, correlationMs;
    double ghostBytesPerStep = 0.0;
    double checkpointMib = 0.0;
    long long meshTriangles = 0;
    double phiSweepMlups = 0.0, muSweepMlups = 0.0, sweepImbalance = 0.0;

    double mlups() const {
        return static_cast<double>(kCellCount) * kSteps / timedS / 1e6;
    }
    double stepMsP50() const { return percentile(stepMs, 0.5); }
};

/// Visit every field of \p r with \p ar: one list for writing a result into
/// the pipe from a repetition's process and for reading it back.
template <typename Ar>
void fields(Ar& ar, RepResult& r) {
    ar(r.traced), ar(r.ok), ar(r.error), ar(r.fp);
    ar(r.setupS), ar(r.timedS), ar(r.peakRssMib), ar(r.stepMs);
    ar(r.spawnS), ar(r.constructS), ar(r.initializeS);
    ar(r.solverStepMs), ar(r.diagMs), ar(r.analysisMs), ar(r.meshMs);
    ar(r.checkpointMs), ar(r.phiExchangeMs), ar(r.muExchangeMs);
    ar(r.fractionsMs), ar(r.lamellaeMs), ar(r.correlationMs);
    ar(r.ghostBytesPerStep), ar(r.checkpointMib), ar(r.meshTriangles);
    ar(r.phiSweepMlups), ar(r.muSweepMlups), ar(r.sweepImbalance);
}

struct Pack {
    std::string bytes;
    template <typename T>
    void operator()(const T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        bytes.append(reinterpret_cast<const char*>(&v), sizeof v);
    }
    void operator()(const std::string& s) {
        (*this)(s.size());
        bytes += s;
    }
    void operator()(const std::vector<double>& v) {
        (*this)(v.size());
        bytes.append(reinterpret_cast<const char*>(v.data()),
                     v.size() * sizeof(double));
    }
};

struct Unpack {
    const std::string& bytes;
    std::size_t at = 0;
    /// Element count of the next string or vector, checked against the bytes
    /// left.
    std::size_t count(std::size_t elementSize) {
        std::size_t n = 0;
        (*this)(n);
        if (n > (bytes.size() - at) / elementSize)
            throw std::runtime_error("truncated repetition result");
        return n;
    }
    void take(void* p, std::size_t n) {
        if (n > bytes.size() - at)
            throw std::runtime_error("truncated repetition result");
        std::memcpy(p, bytes.data() + at, n);
        at += n;
    }
    template <typename T>
    void operator()(T& v) {
        static_assert(std::is_trivially_copyable_v<T>);
        take(&v, sizeof v);
    }
    void operator()(std::string& s) {
        s.resize(count(1));
        take(s.data(), s.size());
    }
    void operator()(std::vector<double>& v) {
        v.resize(count(sizeof(double)));
        take(v.data(), v.size() * sizeof(double));
    }
};

/// Run \p fn on root and agree collectively on its success, so a root-only
/// failure (an unwritable directory) fails every rank instead of leaving the
/// others blocked in the next collective — the pattern tpf-sim uses.
template <typename F>
void onRoot(vmpi::Comm& comm, F&& fn) {
    int ok = 1;
    std::string what;
    if (comm.isRoot()) {
        try {
            fn();
        } catch (const std::exception& e) {
            ok = 0;
            what = e.what();
        }
    }
    if (comm.size() > 1) ok = comm.bcast(ok);
    if (!ok)
        throw std::runtime_error(comm.isRoot() ? what
                                               : "root rank output set-up failed");
}

/// Call \p fn; when \p on, append its duration in ms to \p out.
template <typename F>
void timeIf(bool on, std::vector<double>& out, F&& fn) {
    if (!on) {
        fn();
        return;
    }
    const double t = now();
    fn();
    out.push_back((now() - t) * 1e3);
}

std::size_t ghostBytesSent(core::Solver& solver) {
    return solver.phiExchange().bytesSent() + solver.muExchange().bytesSent();
}

double rssMib() {
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

/// Collective kernel probe: core::runPhiKernel / runMuKernel at the solver's
/// configured kinds and the active dispatch target, over the solver's slab
/// partition and pool, on copies of this rank's live blocks. All ranks sweep
/// at once, as in a step; the rate uses the slowest rank.
void sweepProbe(core::Solver& solver, vmpi::Comm& comm, RepResult& res) {
    const core::SolverConfig& cfg = solver.config();
    const core::ModelConsts mc =
        core::ModelConsts::build(cfg.model, solver.system());
    struct Copy {
        std::unique_ptr<core::SimBlock> block;
        core::TzCache tz;
    };
    std::vector<Copy> copies;
    for (const auto& live : solver.localBlocks()) {
        Copy c;
        c.block = std::make_unique<core::SimBlock>(
            solver.forest(), live->blockIdx, cfg.phiLayout, cfg.muLayout);
        c.block->phiSrc.copyFrom(live->phiSrc);
        c.block->phiDst.copyFrom(live->phiDst);
        c.block->muSrc.copyFrom(live->muSrc);
        c.block->muDst.copyFrom(live->muDst);
        c.tz.build(mc, solver.temperature(), c.block->origin.z,
                   c.block->size.z, solver.time(), solver.windowOffsetCells());
        copies.push_back(std::move(c));
    }
    auto sweep = [&](bool phi) {
        for (Copy& c : copies) {
            core::StepContext ctx;
            ctx.mc = mc;
            ctx.tz = &c.tz;
            ctx.temp = &solver.temperature();
            ctx.time = solver.time();
            ctx.windowOffset = solver.windowOffsetCells();
            core::SimBlock& b = *c.block;
            const CellInterval whole{0, 0, 0, b.size.x - 1, b.size.y - 1,
                                     b.size.z - 1};
            core::parallelForSlabs(
                solver.pool(), whole, [&](const CellInterval& slab) {
                    if (phi)
                        core::runPhiKernel(cfg.phiKernel, b,
                                           ctx.forSlab(slab));
                    else
                        core::runMuKernel(cfg.muKernel, b, ctx.forSlab(slab));
                });
        }
    };
    std::vector<double> phiT, muT;
    for (int r = 0; r < kSweepRepeats; ++r) {
        comm.barrier();
        double t = now();
        sweep(true);
        phiT.push_back(now() - t);
        comm.barrier();
        t = now();
        sweep(false);
        muT.push_back(now() - t);
    }
    const double phi = median(phiT), mu = median(muT);
    const double maxPhi = comm.allreduceMax(phi);
    const double maxMu = comm.allreduceMax(mu);
    const double maxBoth = comm.allreduceMax(phi + mu);
    const double meanBoth = comm.allreduceSum(phi + mu) / comm.size();
    res.phiSweepMlups = static_cast<double>(kCellCount) / maxPhi / 1e6;
    res.muSweepMlups = static_cast<double>(kCellCount) / maxMu / 1e6;
    res.sweepImbalance = maxBoth / meanBoth;
}

/// Per-layer probes of a traced repetition, after its timed steps: in-situ
/// layers the workload does not call in its loop are sampled once on the
/// live state, then the single-observer pipelines, the kernel probe and the
/// checkpoint size.
void layerProbes(const Workload& w, core::Solver& solver, vmpi::Comm& comm,
                 const fs::path& dir, RepResult& res) {
    const long long step = solver.stepsDone();
    if (w.analyzeEvery == 0) {
        analysis::Pipeline p;
        for (const auto& name : analysis::observerNames())
            p.add(analysis::makeObserver(name));
        timeIf(true, res.analysisMs, [&] { p.sample(solver, step); });
    }
    fs::path meshIndex = dir / "mesh" / "mesh_index.csv";
    if (w.meshEvery == 0) {
        analysis::MeshObserver::Options mo;
        mo.dir = (dir / "probe_mesh").string();
        analysis::MeshObserver probe(mo);
        onRoot(comm, [&] { probe.create(true); });
        timeIf(true, res.meshMs, [&] { probe.sample(solver, step); });
        meshIndex = probe.indexPath();
    }
    if (w.checkpointEvery == 0)
        timeIf(true, res.checkpointMs, [&] {
            io::saveCheckpoint((dir / "probe_checkpoint").string(), solver);
        });
    const std::pair<const char*, std::vector<double>*> singles[] = {
        {"fractions", &res.fractionsMs},
        {"lamellae", &res.lamellaeMs},
        {"correlation", &res.correlationMs}};
    for (const auto& [name, out] : singles) {
        analysis::Pipeline p;
        p.add(analysis::makeObserver(name));
        timeIf(true, *out, [&] { p.sample(solver, step); });
    }
    sweepProbe(solver, comm, res);
    res.checkpointMib =
        static_cast<double>(comm.allreduceSumLL(
            static_cast<long long>(io::checkpointBytes(solver)))) /
        (1024.0 * 1024.0);
    if (comm.isRoot()) res.meshTriangles = lastFrameTriangles(meshIndex);
}

/// One rank of one repetition. Only root writes into \p out (rank 0 runs in
/// the calling process on every transport); other ranks' values reach it
/// through collectives.
void runRank(const Workload& w, const core::SolverConfig& cfg, bool traced,
             const fs::path& dir, double tLaunch, vmpi::Comm& comm,
             RepResult& out) {
    const bool root = comm.isRoot();
    RepResult res; // this rank's samples; root's are handed to \p out
    res.traced = traced;
    const double tEnter = now();
    core::Solver solver(cfg, &comm);
    const double tBuilt = now();
    solver.initialize();
    const double tInit = now();

    analysis::Pipeline pipeline;
    std::unique_ptr<analysis::MeshObserver> mesh;
    if (w.analyzeEvery > 0) {
        for (const auto& name : analysis::observerNames())
            pipeline.add(analysis::makeObserver(name));
        onRoot(comm, [&] {
            fs::create_directories(dir);
            pipeline.createCsv((dir / "analysis.csv").string());
        });
    }
    if (w.meshEvery > 0) {
        analysis::MeshObserver::Options mo;
        mo.dir = (dir / "mesh").string();
        mo.every = w.meshEvery;
        mesh = std::make_unique<analysis::MeshObserver>(mo);
        onRoot(comm, [&] { mesh->create(true); });
    }

    comm.barrier();
    const double t0 = now();
    const std::size_t bytes0 = ghostBytesSent(solver);
    std::size_t probeBytes = 0;
    std::vector<double> stepMs;
    stepMs.reserve(kSteps);
    double timed = 0.0;
    for (int k = 1; k <= kSteps; ++k) {
        const double ts = now();
        solver.step();
        if (traced) res.solverStepMs.push_back((now() - ts) * 1e3);
        const long long step = solver.stepsDone();
        if (w.analyzeEvery > 0 && k % w.analyzeEvery == 0)
            timeIf(traced, res.analysisMs,
                   [&] { pipeline.sample(solver, step); });
        if (mesh && k % w.meshEvery == 0)
            timeIf(traced, res.meshMs, [&] { mesh->sample(solver, step); });
        if (k % kReportEvery == 0)
            timeIf(traced, res.diagMs, [&] {
                solver.phaseFractions();
                solver.solidFractions();
                solver.frontPosition();
            });
        if (w.checkpointEvery > 0 && k % w.checkpointEvery == 0)
            timeIf(traced, res.checkpointMs, [&] {
                char name[64];
                std::snprintf(name, sizeof name, "checkpoint_step%06lld",
                              step);
                io::saveCheckpoint((dir / name).string(), solver);
            });
        const double te = now();
        stepMs.push_back((te - ts) * 1e3);
        timed += te - ts;

        // One extra blocking exchange on the live schemes after the step's
        // swap, outside the timed interval. It re-sends ghost values that
        // are already current, so the fingerprint must not change.
        if (traced && k % kReportEvery == 0) {
            const std::size_t before = ghostBytesSent(solver);
            comm.barrier();
            double t = now();
            solver.phiExchange().communicate();
            res.phiExchangeMs.push_back((now() - t) * 1e3);
            comm.barrier();
            t = now();
            solver.muExchange().communicate();
            res.muExchangeMs.push_back((now() - t) * 1e3);
            probeBytes += ghostBytesSent(solver) - before;
        }
    }

    const long long loopBytes = comm.allreduceSumLL(static_cast<long long>(
        ghostBytesSent(solver) - bytes0 - probeBytes));
    Fingerprint fp;
    fieldCrcs(solver, comm, fp);
    if (root && w.analyzeEvery > 0) {
        fp.insitu = true;
        fp.csv = fileCrc(dir / "analysis.csv");
        fp.mesh = mesh ? fileCrc(mesh->indexPath()) : 0;
    }
    const std::vector<double> rss = comm.gather(rssMib());
    const double spawn = comm.allreduceMax(tEnter - tLaunch);
    const double construct = comm.allreduceMax(tBuilt - tEnter);
    const double initialize = comm.allreduceMax(tInit - tBuilt);

    if (traced) layerProbes(w, solver, comm, dir, res);

    if (!root) return;
    res.fp = fp;
    res.setupS = t0 - tLaunch;
    res.timedS = timed;
    res.stepMs = std::move(stepMs);
    res.peakRssMib = *std::max_element(rss.begin(), rss.end());
    res.spawnS = spawn;
    res.constructS = construct;
    res.initializeS = initialize;
    res.ghostBytesPerStep = static_cast<double>(loopBytes) / kSteps;
    out = std::move(res);
}

RepResult repetition(const Workload& w, const Shape& shape, std::uint64_t seed,
                     bool traced, const fs::path& dir) {
    RepResult res;
    res.traced = traced;
    const core::SolverConfig cfg = makeConfig(w, shape, seed);
    try {
        fs::create_directories(dir);
        const double tLaunch = now();
        vmpi::runParallel(shape.transport, shape.ranks, [&](vmpi::Comm& comm) {
            runRank(w, cfg, traced, dir, tLaunch, comm, res);
        });
        res.ok = true;
    } catch (const std::exception& e) {
        res.ok = false;
        res.error = e.what();
    }
    std::error_code ec;
    fs::remove_all(dir, ec); // keep the checkout small: outputs were hashed
    return res;
}

/// One repetition in a process of its own, forked from the driver, which
/// makes no repetition itself. Each repetition therefore starts from the
/// same small heap, as a fresh tpf-sim process does: its set-up pays the
/// same page faults, its allocator tunes itself as tpf-sim's does, and its
/// ru_maxrss is its own. The result comes back through a pipe.
RepResult runRep(const Workload& w, const Shape& shape, std::uint64_t seed,
                 bool traced, const fs::path& dir) {
    RepResult res;
    res.traced = traced;
    int fds[2];
    if (pipe(fds) != 0) {
        res.error = std::string("pipe: ") + std::strerror(errno);
        return res;
    }
    std::fflush(nullptr);
    const pid_t pid = fork();
    if (pid == 0) {
        close(fds[0]);
        RepResult mine = repetition(w, shape, seed, traced, dir);
        Pack pack;
        fields(pack, mine);
        const char* p = pack.bytes.data();
        std::size_t left = pack.bytes.size();
        while (left > 0) {
            const ssize_t n = write(fds[1], p, left);
            if (n < 0 && errno == EINTR) continue;
            if (n <= 0) _exit(1);
            p += n;
            left -= static_cast<std::size_t>(n);
        }
        _exit(0);
    }
    close(fds[1]);
    if (pid < 0) {
        close(fds[0]);
        res.error = std::string("fork: ") + std::strerror(errno);
        return res;
    }
    std::string bytes;
    char buf[1 << 16];
    for (;;) {
        const ssize_t n = read(fds[0], buf, sizeof buf);
        if (n < 0 && errno == EINTR) continue;
        if (n <= 0) break;
        bytes.append(buf, static_cast<std::size_t>(n));
    }
    close(fds[0]);
    int status = 0;
    while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
    }
    if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        res.error = "repetition process ended with status " +
                    std::to_string(status);
        return res;
    }
    try {
        Unpack unpack{bytes};
        fields(unpack, res);
    } catch (const std::exception& e) {
        res = RepResult{};
        res.traced = traced;
        res.error = e.what();
    }
    return res;
}

// --- output ------------------------------------------------------------------

std::string jsonString(const std::string& s) {
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            out += ' ';
        } else {
            out += c;
        }
    }
    return out + "\"";
}

struct Metric {
    std::string name, unit;
    double value;
};

std::string jsonNumber(double v) {
    if (!std::isfinite(v)) return "null";
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

template <typename Get>
std::vector<double> pooled(const std::vector<const RepResult*>& reps, Get get) {
    std::vector<double> all;
    for (const RepResult* r : reps) {
        const std::vector<double>& v = get(*r);
        all.insert(all.end(), v.begin(), v.end());
    }
    return all;
}

template <typename Get>
double medianOf(const std::vector<const RepResult*>& reps, Get get) {
    std::vector<double> v;
    for (const RepResult* r : reps) v.push_back(get(*r));
    return median(std::move(v));
}

/// Every option is required; run.py passes them all.
struct Options {
    std::string workload;
    std::string seed, seconds, trace;
    std::string out;
    std::string golden; ///< expected fingerprint at kGoldenSeed
    std::string l3Kib;  ///< L3 size in KiB; sizes the STREAM arrays
};

int usage(const char* argv0) {
    std::fprintf(stderr,
                 "usage: %s --workload <name> --seed N --seconds S "
                 "--trace 0|1 --out DIR --golden FP --l3-kib K\n"
                 "workloads:",
                 argv0);
    for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
    std::fprintf(stderr, "\n");
    return 2;
}

} // namespace

int main(int argc, char** argv) {
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (i + 1 >= argc) return usage(argv[0]);
        const std::string v = argv[++i];
        if (a == "--workload") opt.workload = v;
        else if (a == "--seed") opt.seed = v;
        else if (a == "--seconds") opt.seconds = v;
        else if (a == "--trace") opt.trace = v;
        else if (a == "--out") opt.out = v;
        else if (a == "--golden") opt.golden = v;
        else if (a == "--l3-kib") opt.l3Kib = v;
        else return usage(argv[0]);
    }
    const Workload* wp = nullptr;
    for (const Workload& w : kWorkloads)
        if (opt.workload == w.name) wp = &w;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    long long l3Kib = 0;
    try {
        seed = std::stoull(opt.seed);
        seconds = std::stod(opt.seconds);
        l3Kib = std::stoll(opt.l3Kib);
    } catch (const std::exception&) {
        return usage(argv[0]);
    }
    if (wp == nullptr || !(seconds > 0.0) || l3Kib <= 0 ||
        (opt.trace != "0" && opt.trace != "1") || opt.out.empty() ||
        opt.golden.empty())
        return usage(argv[0]);
    const Workload& w = *wp;
    const bool trace = opt.trace == "1";
    const fs::path out = opt.out;
    const double tStart = now();

    // STREAM triad once per traced run, over arrays totalling at least 4x the
    // L3 size, with as many threads as the workload runs ranks x threads.
    const int workers = w.shape.ranks * w.shape.threads;
    const long long l3Mib = (l3Kib + 1023) / 1024;
    const int streamArrayMib = static_cast<int>((4 * l3Mib + 2) / 3);
    perf::StreamResult stream;
    if (trace) stream = perf::runStream(streamArrayMib, workers);

    // Closed loop of repetitions until --seconds of timed steps are in (at
    // least three; with --trace, untraced and traced alternate, two each).
    std::vector<RepResult> reps;
    double collected = 0.0;
    int failures = 0;
    for (int i = 0;; ++i) {
        const bool traced = trace && i % 2 == 1;
        reps.push_back(runRep(w, w.shape, seed, traced,
                              out / ("rep" + std::to_string(i))));
        if (reps.back().ok) collected += reps.back().timedS;
        else ++failures;
        const int minReps = trace ? 4 : 3;
        const bool pairDone = !trace || traced;
        if (failures >= 3) break;
        if (collected >= seconds && i + 1 >= minReps && pairDone) break;
    }

    // Cross-check at the run's seed in the reference configuration, and the
    // golden fingerprint at the default seed in the measured configuration.
    const RepResult ref = runRep(w, w.reference, seed, false, out / "reference");
    const bool goldenSeed = seed == kGoldenSeed;
    RepResult golden;
    if (!goldenSeed)
        golden = runRep(w, w.shape, kGoldenSeed, false, out / "golden");

    std::vector<std::string> problems;
    int attempted = 0, failed = 0;
    auto check = [&](const char* what, bool ok, const std::string& detail) {
        ++attempted;
        if (ok) return;
        ++failed;
        problems.push_back(std::string(what) + ": " + detail);
    };
    const std::string expected = ref.ok ? ref.fp.str() : "";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        const RepResult& r = reps[i];
        const std::string name = "rep" + std::to_string(i);
        if (!r.ok) check(name.c_str(), false, r.error);
        else
            check(name.c_str(), ref.ok && r.fp.str() == expected,
                  r.fp.str() + " vs reference " + expected);
    }
    if (!ref.ok) check("reference", false, ref.error);
    else if (goldenSeed)
        check("reference", expected == opt.golden,
              expected + " vs golden " + opt.golden);
    else
        check("reference", true, "");
    if (!goldenSeed) {
        if (!golden.ok) check("golden", false, golden.error);
        else
            check("golden", golden.fp.str() == opt.golden,
                  golden.fp.str() + " vs golden " + opt.golden);
    }

    std::vector<const RepResult*> plain, traced;
    for (const RepResult& r : reps)
        if (r.ok) (r.traced ? traced : plain).push_back(&r);

    std::vector<Metric> metrics;
    const std::vector<double> steps =
        pooled(plain, [](const RepResult& r) -> const std::vector<double>& {
            return r.stepMs;
        });
    if (!trace) {
        // The speed of the faster repetitions: the upper quartile of the
        // per-repetition rate, the lower quartile of the per-repetition
        // median step. A repetition that shares its cores with another
        // tenant of the host only ever reads slower, so these move less with
        // the host's load than the medians do (README.md, "Noise").
        std::vector<double> repMlups, repStepMs;
        double rss = 0.0;
        for (const RepResult* r : plain) {
            repMlups.push_back(r->mlups());
            repStepMs.push_back(r->stepMsP50());
            rss = std::max(rss, r->peakRssMib);
        }
        metrics = {
            {"mlups", "MLUP/s", percentile(repMlups, 0.75)},
            {"step_ms_p50", "ms", percentile(repStepMs, 0.25)},
            {"setup_s", "s",
             medianOf(plain, [](const RepResult& r) { return r.setupS; })},
            {"peak_rss_mib", "MiB", rss},
        };
    } else {
        using V = const std::vector<double>&;
        auto pooledMedian = [&](auto get) {
            return median(pooled(traced, get));
        };
        auto repMedian = [&](auto get) { return medianOf(traced, get); };
        const double phiRate =
            repMedian([](const RepResult& r) { return r.phiSweepMlups; });
        const double muRate =
            repMedian([](const RepResult& r) { return r.muSweepMlups; });
        const double stepMsP50 =
            pooledMedian([](const RepResult& r) -> V { return r.solverStepMs; });
        // Roofline bytes per cell of the paper's §5.1 model, against the
        // STREAM triad of this run: a computed share, not a measured one.
        const double triadBytesPerS = stream.triadGiBs * 1024.0 * 1024 * 1024;
        const double sweepMs = (static_cast<double>(kCellCount) / phiRate +
                                static_cast<double>(kCellCount) / muRate) /
                               1e3;
        // Traced against untraced repetitions of the same run, which
        // alternate, so both see the same host load.
        const double tracedMlups =
            repMedian([](const RepResult& r) { return r.mlups(); });
        const double untracedMlups =
            medianOf(plain, [](const RepResult& r) { return r.mlups(); });
        metrics = {
            {"core.step_ms", "ms", stepMsP50},
            {"core.phi_sweep_mlups", "MLUP/s", phiRate},
            {"core.mu_sweep_mlups", "MLUP/s", muRate},
            {"core.phi_sweep_bw_frac", "frac", phiRate * 1e6 * 88.0 / triadBytesPerS},
            {"core.mu_sweep_bw_frac", "frac", muRate * 1e6 * 72.0 / triadBytesPerS},
            {"core.step_overhead_frac", "frac", 1.0 - sweepMs / stepMsP50},
            {"core.sweep_imbalance", "ratio",
             repMedian([](const RepResult& r) { return r.sweepImbalance; })},
            {"core.construct_s", "s",
             repMedian([](const RepResult& r) { return r.constructS; })},
            {"core.initialize_s", "s",
             repMedian([](const RepResult& r) { return r.initializeS; })},
            {"comm.ghost_bytes_per_step", "B",
             repMedian([](const RepResult& r) { return r.ghostBytesPerStep; })},
            {"comm.phi_exchange_ms", "ms",
             pooledMedian([](const RepResult& r) -> V { return r.phiExchangeMs; })},
            {"comm.mu_exchange_ms", "ms",
             pooledMedian([](const RepResult& r) -> V { return r.muExchangeMs; })},
            {"vmpi.spawn_s", "s",
             repMedian([](const RepResult& r) { return r.spawnS; })},
            {"vmpi.diag_ms", "ms",
             pooledMedian([](const RepResult& r) -> V { return r.diagMs; })},
            {"analysis.sample_ms", "ms",
             pooledMedian([](const RepResult& r) -> V { return r.analysisMs; })},
            {"analysis.fractions_ms", "ms",
             pooledMedian([](const RepResult& r) -> V { return r.fractionsMs; })},
            {"analysis.lamellae_ms", "ms",
             pooledMedian([](const RepResult& r) -> V { return r.lamellaeMs; })},
            {"analysis.correlation_ms", "ms",
             pooledMedian([](const RepResult& r) -> V { return r.correlationMs; })},
            {"io.mesh_frame_ms", "ms",
             pooledMedian([](const RepResult& r) -> V { return r.meshMs; })},
            {"io.mesh_triangles", "count",
             repMedian([](const RepResult& r) {
                 return static_cast<double>(r.meshTriangles);
             })},
            {"io.checkpoint_save_ms", "ms",
             pooledMedian([](const RepResult& r) -> V { return r.checkpointMs; })},
            {"io.checkpoint_mib", "MiB",
             repMedian([](const RepResult& r) { return r.checkpointMib; })},
            {"stream.triad_gibs", "GiB/s", stream.triadGiBs},
            {"trace.mlups", "MLUP/s", tracedMlups},
            {"trace.mlups_ratio", "ratio", tracedMlups / untracedMlups},
        };
    }

    const core::KernelTarget* target = core::activeKernelTarget();
    std::string json = "{\"correct\": ";
    json += failed == 0 && !plain.empty() && (!trace || !traced.empty())
                ? "true"
                : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const Metric& m = metrics[i];
        json += (i ? ", " : "") + jsonString(m.name) + ": {\"value\": " +
                jsonNumber(m.value) + ", \"unit\": " + jsonString(m.unit) +
                "}";
    }
    json += "}, \"detail\": {";
    json += "\"workload\": " + jsonString(w.name);
    json += ", \"seed\": " + std::to_string(seed);
    json += ", \"cells\": " + std::to_string(kCellCount);
    json += ", \"steps_per_rep\": " + std::to_string(kSteps);
    json += ", \"reps_untraced\": " + std::to_string(plain.size());
    json += ", \"reps_traced\": " + std::to_string(traced.size());
    json += ", \"step_samples\": " + std::to_string(steps.size());
    // Reported, not bounded: on a shared host its run-to-run spread is set
    // by the host's scheduling hiccups (README.md, "Noise").
    json += ", \"step_ms_p99\": " + jsonNumber(percentile(steps, 0.99));
    json += ", \"rep_mlups\": [";
    for (std::size_t i = 0; i < reps.size(); ++i)
        json += (i ? ", " : "") + jsonNumber(reps[i].ok ? reps[i].mlups() : NAN);
    json += "]";
    json += ", \"fingerprint\": " + jsonString(expected);
    json += ", \"golden\": " + jsonString(opt.golden);
    json += ", \"kernel_target\": " + jsonString(target->name);
    json += ", \"kernel_width\": " + std::to_string(target->width);
    json += ", \"build_type\": " + jsonString(TPFB_BUILD_TYPE);
    json += ", \"cxx_flags\": " + jsonString(TPFB_CXX_FLAGS);
    json += ", \"native_arch\": ";
    json += TPFB_NATIVE_ARCH ? "true" : "false";
    json += ", \"compiler\": " + jsonString(__VERSION__);
    if (trace) {
        json += ", \"stream_threads\": " + std::to_string(workers);
        json += ", \"stream_array_mib\": " + std::to_string(streamArrayMib);
        json += ", \"stream_total_mib\": " + std::to_string(3 * streamArrayMib);
        json += ", \"l3_mib\": " + std::to_string(l3Mib);
    }
    json += ", \"wall_s\": " + jsonNumber(now() - tStart);
    json += ", \"problems\": [";
    for (std::size_t i = 0; i < problems.size(); ++i)
        json += (i ? ", " : "") + jsonString(problems[i]);
    json += "]}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
