/**
 * @file
 * perfbench_driver — the process that runs one benchmark workload.
 *
 *     perfbench_driver --workload=longtrace|query|fleet --seed=N
 *                      --seconds=S --trace=0|1 --workdir=DIR
 *
 * Runs the workload's set-up, then its steady loop for S seconds with
 * timed set-ups spread over it, checks the outputs (invariants always;
 * the reference digest is compared by perfbench/run.py), and prints one
 * JSON object on stdout: op counts, the output digest, the environment
 * stamp and every metric. With --trace=1 it also records timing spans
 * around the
 * library calls the loop makes, runs the per-layer probes, and reports
 * the per-layer metrics. See perfbench/README.md.
 *
 * The simulator is driven only through its public functions; every
 * layer is measured from outside by timing those calls and reading
 * public counters.
 */

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "arch/cpu_features.hh"
#include "arch/dispatch.hh"
#include "core/odrips.hh"
#include "core/profile_cache.hh"
#include "exec/parallel_sweep.hh"
#include "fleet/campaign.hh"
#include "security/ctr_mode.hh"
#include "security/sha256.hh"
#include "sim/random.hh"
#include "stats/quantile_sketch.hh"
#include "store/query.hh"
#include "store/result_store.hh"
#include "workload/user_profile.hh"

using namespace odrips;
namespace fs = std::filesystem;

namespace
{

// ---------------------------------------------------------------- clock

/** The benchmark's only host-clock read. */
std::int64_t
nowNs()
{
    // odrips-lint: allow(wall-clock)
    const auto t = std::chrono::steady_clock::now().time_since_epoch();
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t).count();
}

double
secondsBetween(std::int64_t t0, std::int64_t t1)
{
    return static_cast<double>(t1 - t0) * 1e-9;
}

// -------------------------------------------------------------- samples

/** Nearest-rank percentile of @p v (copied and sorted). */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = std::ceil(q * static_cast<double>(v.size()));
    const std::size_t idx = static_cast<std::size_t>(
        std::clamp(rank, 1.0, static_cast<double>(v.size())));
    return v[idx - 1];
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** FNV-1a 64 over @p text. */
std::uint64_t
hashOf(const std::string &text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    return h;
}

/** hashOf(@p text) as 16 hex digits. */
std::string
digestOf(const std::string &text)
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(hashOf(text)));
    return buf;
}

std::string
num(double v)
{
    if (!std::isfinite(v))
        return "0";
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

std::string
jsonStr(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

// ---------------------------------------------------------------- trace

/**
 * In-memory span recorder. A span is (name, start, end, parent); spans
 * are kept in memory and summarised once the run ends. Off by default:
 * an inactive Span reads no clock and records nothing.
 */
class Tracer
{
  public:
    struct Record
    {
        const char *name;
        std::int64_t start;
        std::int64_t end;
        std::int64_t parent; ///< span id, -1 for a root
    };

    bool on = false;

    std::int64_t
    newId()
    {
        return nextId.fetch_add(1, std::memory_order_relaxed);
    }

    void
    add(std::int64_t id, const Record &r)
    {
        std::lock_guard<std::mutex> lock(mtx);
        if (records.size() <= static_cast<std::size_t>(id))
            records.resize(static_cast<std::size_t>(id) + 1,
                           Record{nullptr, 0, 0, -1});
        records[static_cast<std::size_t>(id)] = r;
    }

    std::vector<Record> records; ///< indexed by span id

  private:
    std::mutex mtx;
    std::atomic<std::int64_t> nextId{0};
};

Tracer tracer;

/** RAII span around one library call. */
class Span
{
  public:
    Span(const char *name, std::int64_t parent = -1) : name_(name)
    {
        if (!tracer.on)
            return;
        id_ = tracer.newId();
        parent_ = parent;
        start_ = nowNs();
    }

    ~Span()
    {
        if (id_ >= 0)
            tracer.add(id_, {name_, start_, nowNs(), parent_});
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    std::int64_t id() const { return id_; }

  private:
    const char *name_;
    std::int64_t id_ = -1;
    std::int64_t parent_ = -1;
    std::int64_t start_ = 0;
};

/** Per-name summary of the recorded spans. */
struct SpanSummary
{
    std::uint64_t calls = 0;
    double totalNs = 0.0;
    double selfNs = 0.0;
    std::vector<double> durationsNs;
};

/** Summarise spans by name; self time excludes the union of the
 * span's children (clipped to the span). */
std::map<std::string, SpanSummary>
summariseSpans()
{
    const std::vector<Tracer::Record> &rs = tracer.records;
    std::vector<std::vector<std::size_t>> children(rs.size());
    for (std::size_t i = 0; i < rs.size(); ++i)
        if (rs[i].name != nullptr && rs[i].parent >= 0)
            children[static_cast<std::size_t>(rs[i].parent)].push_back(i);

    std::map<std::string, SpanSummary> out;
    for (std::size_t i = 0; i < rs.size(); ++i) {
        const Tracer::Record &r = rs[i];
        if (r.name == nullptr)
            continue;
        std::vector<std::pair<std::int64_t, std::int64_t>> iv;
        for (const std::size_t c : children[i])
            iv.emplace_back(std::max(rs[c].start, r.start),
                            std::min(rs[c].end, r.end));
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = r.start;
        for (const auto &[b, e] : iv) {
            const std::int64_t from = std::max(b, reach);
            if (e > from) {
                covered += e - from;
                reach = e;
            }
        }
        const double dur = static_cast<double>(r.end - r.start);
        SpanSummary &s = out[r.name];
        ++s.calls;
        s.totalNs += dur;
        s.selfNs += dur - static_cast<double>(covered);
        s.durationsNs.push_back(dur);
    }
    return out;
}

// -------------------------------------------------------------- metrics

struct Metric
{
    double value;
    std::string unit;
};

/** Counters and single values by per-layer metric name. */
using Counts = std::map<std::string, double>;

/** Everything one run reports. */
struct Report
{
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;      ///< reference output of the default seed
    std::string inputDigest; ///< generated inputs (seed check)
    std::vector<std::string> violations;
    std::map<std::string, Metric> metrics;
    /** Loop counters and span-free layer values (traced run). */
    Counts counts;

    void
    set(const std::string &name, double value, const std::string &unit)
    {
        metrics[name] = Metric{value, unit};
    }

    void
    violation(const std::string &what)
    {
        if (violations.size() < 8)
            violations.push_back(what);
    }
};

/** How a workload is measured. */
struct LoopShape
{
    double tailQ;           ///< the tail percentile
    std::size_t chunkSize;  ///< requests per chunk
    int setupReps;          ///< back-to-back set-ups per set-up sample
};

/**
 * Timings of the steady loop, in the workload's own op terms. The
 * requests are also cut into chunks of a fixed number of consecutive
 * requests; a chunk's wall time runs from the end of the chunk before
 * it, so it holds the work between requests too. Throughput and the
 * tail are medians over the chunks: a burst of host noise in a few
 * chunks moves neither.
 */
struct LoopStats
{
    explicit LoopStats(const LoopShape &s) : shape(s) {}

    LoopShape shape;
    std::uint64_t ops = 0;
    double seconds = 0.0;
    std::vector<double> requestMs; ///< per request (cycle/batch/campaign)
    std::vector<double> chunkOpsPerS;
    std::vector<double> chunkTailMs;

    /** Start a chunk at @p now, dropping any unfinished one. */
    void
    begin(std::int64_t now)
    {
        mark = now;
        chunkOps = 0;
        chunkFirst = requestMs.size();
    }

    /** Leave @p ns spent outside the loop out of the current chunk. */
    void
    skip(std::int64_t ns)
    {
        mark += ns;
    }

    /** A request of @p n ops that ran from @p t0 to @p t1. */
    void
    request(std::int64_t t0, std::int64_t t1, std::uint64_t n)
    {
        requestMs.push_back(secondsBetween(t0, t1) * 1e3);
        ops += n;
        chunkOps += n;
        if (requestMs.size() - chunkFirst < shape.chunkSize)
            return;
        chunkOpsPerS.push_back(static_cast<double>(chunkOps) /
                               secondsBetween(mark, t1));
        chunkTailMs.push_back(percentile(
            std::vector<double>(requestMs.begin() +
                                    static_cast<std::ptrdiff_t>(chunkFirst),
                                requestMs.end()),
            shape.tailQ));
        begin(t1);
    }

  private:
    std::int64_t mark = 0;
    std::uint64_t chunkOps = 0;
    std::size_t chunkFirst = 0;
};

/** The generic end-to-end metrics every workload reports. A run too
 * short for a whole chunk falls back to whole-run figures. */
void
reportEndToEnd(Report &rep, double setup_s, const LoopStats &loop)
{
    const bool chunked = !loop.chunkOpsPerS.empty();
    rep.set("setup_s", setup_s, "s");
    rep.set("ops_per_s",
            chunked ? percentile(loop.chunkOpsPerS, 0.5)
                    : ratio(static_cast<double>(loop.ops), loop.seconds),
            "1/s");
    rep.set("latency_ms_p50", percentile(loop.requestMs, 0.5), "ms");
    rep.set("latency_ms_tail",
            chunked ? percentile(loop.chunkTailMs, 0.5)
                    : percentile(loop.requestMs, loop.shape.tailQ),
            "ms");
    rep.set("requests", static_cast<double>(loop.requestMs.size()),
            "count");
    rep.set("chunks", static_cast<double>(loop.chunkOpsPerS.size()),
            "count");
}

// --------------------------------------------------------------- probes

/**
 * Time @p n calls of @p fn and report {calls, total, p50, p99} in ns.
 * Probes call one layer's public entry point on the workload's own
 * inputs.
 */
template <typename Fn>
SpanSummary
probe(std::size_t n, Fn &&fn)
{
    SpanSummary s;
    for (std::size_t i = 0; i < n; ++i) {
        const std::int64_t t0 = nowNs();
        fn(i);
        const double dt = static_cast<double>(nowNs() - t0);
        ++s.calls;
        s.totalNs += dt;
        s.selfNs += dt;
        s.durationsNs.push_back(dt);
    }
    return s;
}

double
p50(const SpanSummary &s)
{
    return percentile(s.durationsNs, 0.5);
}

/** The configuration a workload runs, used by every probe. */
struct ProbeInputs
{
    PlatformConfig cfg;
    TechniqueSet tech;
    std::uint64_t seed = 1;
};

/** Query what-if generator (shared by the query loop and the store
 * probe). */
class QueryGenerator
{
  public:
    QueryGenerator(std::uint64_t seed, std::size_t batch,
                   std::size_t fresh)
        : rng(seed), batchSize(batch), freshPerBatch(fresh),
          techniques(store::techniqueNames())
    {
    }

    /** The next batch as JSON query lines. */
    std::vector<std::string>
    next()
    {
        std::vector<store::QuerySpec> batch;
        for (std::size_t i = 0; i < freshPerBatch; ++i) {
            store::QuerySpec spec;
            spec.technique = techniques[static_cast<std::size_t>(
                rng.uniformInt(techniques.size()))];
            // Always set: a continuous knob makes every fresh key new.
            spec.coreFreqGhz = {true, rng.uniform(0.4, 1.2)};
            if (rng.chance(0.5))
                spec.idleDwellS = {true, rng.uniform(5.0, 60.0)};
            if (rng.chance(0.3))
                spec.scalableFraction = {true, rng.uniform(0.2, 0.9)};
            if (rng.chance(0.2))
                spec.coalescingMs = {true, rng.uniform(10.0, 200.0)};
            seen.push_back(spec);
            batch.push_back(spec);
        }
        while (batch.size() < batchSize)
            batch.push_back(seen[static_cast<std::size_t>(
                rng.uniformInt(seen.size()))]);
        for (std::size_t i = batch.size(); i > 1; --i)
            std::swap(batch[i - 1], batch[static_cast<std::size_t>(
                                        rng.uniformInt(i))]);

        std::vector<std::string> lines;
        for (store::QuerySpec &spec : batch) {
            // Built char-wise: GCC 12's restrict checker false-positives
            // on "q" + std::string under -O2/-O3.
            spec.id = std::to_string(issued++);
            spec.id.insert(spec.id.begin(), 'q');
            lines.push_back(specLine(spec));
        }
        return lines;
    }

  private:
    static std::string
    specLine(const store::QuerySpec &spec)
    {
        store::JsonObjectWriter w;
        w.field("id", spec.id);
        w.field("technique", spec.technique);
        const auto knob = [&w](const char *name,
                               const store::QuerySpec::Knob &k) {
            if (k.set)
                w.field(name, k.value);
        };
        knob("core_freq_ghz", spec.coreFreqGhz);
        knob("idle_dwell_s", spec.idleDwellS);
        knob("scalable_fraction", spec.scalableFraction);
        knob("coalescing_ms", spec.coalescingMs);
        return w.done();
    }

    Rng rng;
    std::size_t batchSize;
    std::size_t freshPerBatch;
    std::vector<std::string> techniques;
    std::vector<store::QuerySpec> seen;
    std::uint64_t issued = 0;
};

/** Probe results by per-layer metric name (ns samples). */
using ProbeSet = std::map<std::string, SpanSummary>;

/** Platform, flows, MEE, arch, sim, core-snapshot and workload probes
 * on the workload's own configuration. */
void
probeSimulatorLayers(const ProbeInputs &in, ProbeSet &ps,
                     Counts &counts)
{
    ps["platform.build_ms"] = probe(5, [&](std::size_t) {
        Platform p(in.cfg);
    });

    StandbyTrace trace;
    ps["workload.trace_generate_ms"] = probe(3, [&](std::size_t) {
        StandbyWorkloadGenerator g(in.cfg.workload);
        trace = g.generate(1000);
    });

    Platform platform(in.cfg);
    StandbySimulator sim(platform, in.tech);
    RunProgress progress = sim.beginRun();
    const std::uint64_t events0 = platform.eq.executedEvents();
    const MeeStats mee0 = platform.mee->statistics();
    ps["core.step_cycle_us"] = probe(64, [&](std::size_t i) {
        sim.stepCycle(progress, trace.cycles[i]);
    });
    counts["core.events_per_cycle"] =
        static_cast<double>(platform.eq.executedEvents() - events0) / 64.0;
    const MeeStats &mee1 = platform.mee->statistics();
    const double mee_hits = static_cast<double>(mee1.cacheHits - mee0.cacheHits);
    counts["security.mee_cache_hit_ratio"] = ratio(
        mee_hits,
        mee_hits + static_cast<double>(mee1.cacheMisses - mee0.cacheMisses));
    counts["security.mee_lines_per_cycle"] =
        static_cast<double>((mee1.linesWritten - mee0.linesWritten) +
                            (mee1.linesRead - mee0.linesRead)) /
        64.0;
    counts["security.mee_auth_failures"] =
        static_cast<double>(mee1.authFailures);

    // Flows: the entry/exit halves of a cycle, driven directly.
    SpanSummary enter, exit;
    std::uint64_t dirty = 0, saves = 0;
    for (std::size_t i = 64; i < 128; ++i) {
        const StandbyCycle &c = trace.cycles[i];
        std::int64_t t0 = nowNs();
        sim.flows().enterIdle();
        enter.durationsNs.push_back(static_cast<double>(nowNs() - t0));
        if (const auto &save = sim.flows().lastCycle().contextSave) {
            dirty += save->bytes;
            ++saves;
        }
        platform.eq.run(platform.now() + c.idleDwell);
        t0 = nowNs();
        sim.flows().exitIdle(c.reason);
        exit.durationsNs.push_back(static_cast<double>(nowNs() - t0));
        platform.processor.context.touch();
    }
    enter.calls = exit.calls = 64;
    ps["flows.enter_idle_us"] = enter;
    ps["flows.exit_idle_us"] = exit;
    counts["flows.dirty_bytes_per_save"] =
        ratio(static_cast<double>(dirty), static_cast<double>(saves));

    ps["platform.context_checksum_us"] = probe(32, [&](std::size_t) {
        volatile std::uint64_t sink =
            platform.processor.context.checksum();
        (void)sink;
    });

    // MEE: a whole context-region write and read-back.
    const std::uint64_t region =
        std::min<std::uint64_t>(platform.contextRegionSize(), 1u << 20) &
        ~std::uint64_t{63};
    std::vector<std::uint8_t> buf(region, 0x5a);
    const std::uint64_t base = platform.contextRegionBase();
    ps["security.mee_write_us_per_kb"] = probe(8, [&](std::size_t) {
        platform.mee->secureWrite(base, buf.data(), region, platform.now());
    });
    bool authentic = true;
    ps["security.mee_read_us_per_kb"] = probe(8, [&](std::size_t) {
        bool ok = true;
        platform.mee->secureRead(base, buf.data(), region, platform.now(),
                                 ok);
        authentic = authentic && ok;
    });
    counts["mee_probe_kb"] = static_cast<double>(region) / 1024.0;
    counts["mee_probe_authentic"] = authentic ? 1.0 : 0.0;

    // Snapshots of the warmed simulator.
    std::optional<Snapshot> snap;
    ps["core.snapshot_capture_us"] = probe(8, [&](std::size_t) {
        snap.emplace(Snapshot::capture(sim));
    });
    ps["core.snapshot_restore_us"] = probe(8, [&](std::size_t) {
        snap->restoreInto(sim);
    });
    ps["core.snapshot_fork_us"] = probe(4, [&](std::size_t) {
        ForkedSimulator f = snap->fork();
    });

    // Arch kernels at the active dispatch level, via the public APIs.
    std::vector<std::uint8_t> page(4096);
    for (std::size_t i = 0; i < page.size(); ++i)
        page[i] = static_cast<std::uint8_t>(i * 131 + in.seed);
    ps["arch.sha256_ns_per_kb"] = probe(256, [&](std::size_t) {
        volatile auto d = Sha256::hash(page.data(), page.size())[0];
        (void)d;
    });
    const CtrCipher ctr(Speck128::Key{});
    ps["arch.speck_ctr_ns_per_kb"] = probe(256, [&](std::size_t i) {
        ctr.apply(base, i, page.data(), page.size());
    });

    // Event kernel: one self-rescheduling event.
    EventQueue eq;
    std::uint64_t fired = 0;
    Event ev("perfbench.tick", [&] {
        if (++fired < 100000)
            eq.scheduleAfter(ev, 1000);
    });
    eq.schedule(ev, 1);
    ps["sim.event_ns"] = probe(1, [&](std::size_t) { eq.run(); });
    ps["sim.event_ns"].durationsNs[0] /= static_cast<double>(fired);

    // Device-day generation (fleet hot loop) and sketch aggregation.
    const FleetPopulation pop = FleetPopulation::mixedReference();
    std::uint64_t day_cycles = 0;
    const SpanSummary day = probe(8, [&](std::size_t i) {
        DayCycleGenerator g(pop.classes[i % pop.classes.size()].profile,
                            Rng(in.seed).fork(i));
        StandbyCycle c;
        std::size_t phase = 0;
        while (g.next(c, phase))
            ++day_cycles;
    });
    ps["workload.day_cycle_ns"] = day;
    for (double &d : ps["workload.day_cycle_ns"].durationsNs)
        d /= static_cast<double>(day_cycles) / 8.0;

    Rng rng(in.seed);
    std::vector<double> values(1 << 16);
    for (double &v : values)
        v = rng.exponential(0.05);
    stats::QuantileSketch sketch;
    ps["stats.sketch_add_ns"] = probe(1, [&](std::size_t) {
        for (const double v : values)
            sketch.add(v);
    });
    ps["stats.sketch_add_ns"].durationsNs[0] /=
        static_cast<double>(values.size());
}

// ------------------------------------------------------------- workloads

struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string workdir = ".";
};

/** Set-up samples of an untraced run, one before each of as many equal
 * windows of the steady loop. On a shared host, set-up code (allocation
 * heavy, cache-sized) can run at two speeds that alternate every second
 * or so, so samples taken back to back all land on one of them. */
constexpr int kSetupSamples = 12;
/** setup_s is the median over this many groups of interleaved samples
 * (sample i is in group i % kSetupGroups), a group's value being its
 * mean: each group then spans the whole run. */
constexpr int kSetupGroups = 3;

/** Seconds one timed block of @p reps set-ups takes per set-up. */
template <typename Setup>
double
timeSetup(int reps, Setup &&setup)
{
    const std::int64_t t0 = nowNs();
    for (int r = 0; r < reps; ++r)
        setup();
    return secondsBetween(t0, nowNs()) / reps;
}

/**
 * Measure a workload: its set-up, setup(), and its steady loop,
 * loop(seconds, stats, counts), which adds to @p stats and @p counts.
 * One untimed set-up comes first; it also makes the loop's inputs.
 *
 * Untraced, the loop runs in kSetupSamples equal windows, each after a
 * timed set-up sample; chunks leave the samples out. Traced, the run is
 * eight equal windows, untraced and traced in the order U T T U U T T U,
 * so that a steady drift over the run (a growing store, a machine
 * changing speed) falls on both sides alike. The end-to-end metrics and
 * counters come from the traced windows, and the throughput lost
 * between the two kinds of window is the tracing overhead.
 */
template <typename Setup, typename Loop>
void
measureLoop(const Options &opt, Report &rep, const LoopShape &shape,
            Setup &&setup, Loop &&loop)
{
    const double first_setup_s = timeSetup(1, setup);
    LoopStats untraced(shape);
    Counts counts;
    if (!opt.trace) {
        std::vector<double> samples;
        for (int w = 0; w < kSetupSamples; ++w) {
            const std::int64_t t0 = nowNs();
            samples.push_back(timeSetup(shape.setupReps, setup));
            if (w == 0)
                untraced.begin(nowNs());
            else
                untraced.skip(nowNs() - t0);
            loop(opt.seconds / kSetupSamples, untraced, counts);
        }
        std::vector<double> groups(kSetupGroups, 0.0);
        for (std::size_t i = 0; i < samples.size(); ++i)
            groups[i % kSetupGroups] +=
                samples[i] * kSetupGroups / static_cast<double>(samples.size());
        reportEndToEnd(rep, percentile(groups, 0.5), untraced);
        return;
    }
    LoopStats traced(shape);
    Counts discarded;
    for (const bool on : {false, true, true, false, false, true, true, false}) {
        tracer.on = on;
        LoopStats &ls = on ? traced : untraced;
        ls.begin(nowNs());
        loop(opt.seconds / 8, ls, on ? counts : discarded);
    }
    tracer.on = false;
    reportEndToEnd(rep, first_setup_s, traced);
    const double before =
        ratio(static_cast<double>(untraced.ops), untraced.seconds);
    const double after = ratio(static_cast<double>(traced.ops), traced.seconds);
    rep.set("bench.trace_overhead_pct", 100.0 * ratio(before - after, before),
            "%");
    rep.set("bench.traced_wall_s", traced.seconds, "s");
    rep.set("bench.traced_ops", static_cast<double>(traced.ops), "count");
    for (const auto &[k, v] : counts)
        rep.counts[k] = v;
}

// ---- longtrace

constexpr std::size_t kLongtraceCycles = 1000;

std::string
longtraceSummary(const StandbyResult &r)
{
    char buf[512];
    std::snprintf(buf, sizeof(buf),
                  "avg=%.17g idle=%.17g active=%.17g res=%.17g/%.17g/%.17g "
                  "entry=%llu exit=%llu cycles=%llu sim_ticks=%llu\n",
                  r.averageBatteryPower, r.idleBatteryPower,
                  r.activeBatteryPower, r.idleResidency, r.activeResidency,
                  r.transitionResidency,
                  static_cast<unsigned long long>(r.meanEntryLatency),
                  static_cast<unsigned long long>(r.meanExitLatency),
                  static_cast<unsigned long long>(r.cycles),
                  static_cast<unsigned long long>(r.simulatedTime));
    return buf;
}

void
runLongtrace(const Options &opt, Report &rep, ProbeInputs &in)
{
    PlatformConfig cfg = skylakeConfig();
    cfg.contextMutation.kind = ContextMutationKind::CsrSubset;
    cfg.workload.seed = opt.seed;
    const TechniqueSet tech = TechniqueSet::odrips();
    in = {cfg, tech, opt.seed};

    // Set-up, up to the first result: trace generation +
    // platform/simulator build + the first cycle.
    StandbyTrace trace;
    double generate_ms = 0.0;
    const auto setup = [&] {
        const std::int64_t t0 = nowNs();
        StandbyWorkloadGenerator gen(cfg.workload);
        trace = gen.generate(kLongtraceCycles);
        generate_ms = secondsBetween(t0, nowNs()) * 1e3;
        Platform p(cfg);
        StandbySimulator s(p, tech);
        RunProgress progress = s.beginRun();
        s.stepCycle(progress, trace.cycles[0]);
    };

    // Steady loop: passes over the trace, each on a fresh simulator. A
    // pass carries over from one loop call to the next; the run's first
    // pass always completes, and the one still open at the end is
    // finished and checked after the run.
    std::string reference;
    std::unique_ptr<Platform> platform;
    std::unique_ptr<StandbySimulator> sim;
    RunProgress progress;
    std::size_t done = 0; // cycles of the open pass
    MeeStats mee_last;    // MEE counters at the last reading

    // Add the MEE counters since the last reading to @p counts.
    const auto readMee = [&](Counts &counts) {
        const MeeStats &mee = platform->mee->statistics();
        counts["n.mee_lines"] += static_cast<double>(
            (mee.linesWritten - mee_last.linesWritten) +
            (mee.linesRead - mee_last.linesRead));
        counts["n.mee_hits"] +=
            static_cast<double>(mee.cacheHits - mee_last.cacheHits);
        counts["n.mee_lookups"] += static_cast<double>(
            (mee.cacheHits - mee_last.cacheHits) +
            (mee.cacheMisses - mee_last.cacheMisses));
        mee_last = mee;
    };

    // Finish the open pass, check it and drop its simulator.
    const auto finishPass = [&](Counts &counts) {
        StandbyResult result;
        {
            Span s("core.finish_run");
            result = sim->finishRun(progress);
        }
        readMee(counts);
        const std::uint64_t auth_failures =
            platform->mee->statistics().authFailures;
        bool ok = result.contextIntact && auth_failures == 0;
        if (!ok)
            rep.violation("context or MEE authentication failure");
        if (done == trace.cycles.size()) {
            const std::string summary = longtraceSummary(result);
            if (reference.empty()) {
                reference = summary;
                rep.digest = digestOf(summary);
            } else if (summary != reference) {
                rep.violation("longtrace pass differs from the first");
                ok = false;
            }
        }
        rep.attempted += done;
        if (!ok)
            rep.failed += done;
        counts["security.mee_auth_failures"] +=
            static_cast<double>(auth_failures);
        sim.reset();
        platform.reset();
        done = 0;
    };

    const auto loop = [&](double seconds, LoopStats &ls,
                          Counts &counts) {
        const std::int64_t start = nowNs();
        const std::int64_t deadline =
            start + static_cast<std::int64_t>(seconds * 1e9);
        std::uint64_t events = 0, dirty = 0, saves = 0;
        while (reference.empty() || nowNs() < deadline) {
            if (!sim) {
                Span s("platform.build");
                platform = std::make_unique<Platform>(cfg);
                sim = std::make_unique<StandbySimulator>(*platform, tech);
                progress = sim->beginRun();
                mee_last = platform->mee->statistics();
            }
            const std::uint64_t ev0 = platform->eq.executedEvents();
            const std::int64_t t0 = nowNs();
            {
                Span s("core.step_cycle");
                sim->stepCycle(progress, trace.cycles[done]);
            }
            ls.request(t0, nowNs(), 1);
            ++done;
            if (tracer.on) {
                events += platform->eq.executedEvents() - ev0;
                if (const auto &sv = sim->flows().lastCycle().contextSave) {
                    dirty += sv->bytes;
                    ++saves;
                }
            }
            if (done == trace.cycles.size())
                finishPass(counts);
        }
        if (sim)
            readMee(counts);
        ls.seconds += secondsBetween(start, nowNs());
        // Raw sums ("n.*") add up over the calls; the ratios follow them.
        counts["n.events"] += static_cast<double>(events);
        counts["n.dirty"] += static_cast<double>(dirty);
        counts["n.saves"] += static_cast<double>(saves);
        const double ops = static_cast<double>(ls.ops);
        counts["core.events_per_cycle"] = ratio(counts["n.events"], ops);
        counts["security.mee_lines_per_cycle"] =
            ratio(counts["n.mee_lines"], ops);
        counts["security.mee_cache_hit_ratio"] =
            ratio(counts["n.mee_hits"], counts["n.mee_lookups"]);
        counts["flows.dirty_bytes_per_save"] =
            ratio(counts["n.dirty"], counts["n.saves"]);
    };

    // The tail is p90: on a shared host, host preemption reaches the p99
    // of a 250-cycle chunk in some runs and not in others.
    measureLoop(opt, rep, {0.90, 250, 5}, setup, loop);
    if (sim) {
        Counts after_run;
        finishPass(after_run);
    }
    rep.inputDigest = digestOf(trace.serialize());
    rep.counts["workload.trace_generate_ms"] = generate_ms;
}

// ---- query

constexpr std::size_t kQueryBatch = 64;
constexpr std::size_t kQueryFresh = 16;
constexpr std::size_t kQueryDigestBatches = 8;
/** Batches per epoch. The set-up generates them; each epoch replays
 * them against an empty store and an empty profile cache, so every
 * epoch does the same work and the footprint of a run does not grow
 * with the number of batches it completes. */
constexpr std::uint64_t kQueryEpochBatches = 128;

/** A result line without its leading "id" field: the answer proper. */
std::string
answerOf(const std::string &line)
{
    const std::size_t comma = line.find(',');
    return comma == std::string::npos ? line : line.substr(comma + 1);
}

/** A batch's queries, their profiles by key and their result lines. */
struct BatchAnswer
{
    std::vector<store::ResolvedQuery> queries;
    std::map<ProfileKey, CyclePowerProfile> resolved;
    std::vector<std::string> out;
};

/**
 * Answer one batch the way bench/query_engine.cpp does: parse+resolve
 * → dedupe → store lookup → misses via parallelSweep(measureCycleProfile)
 * → insert → resultLine → flush. Spans hang under @p parent; cold-sweep
 * sums go to @p counts.
 */
BatchAnswer
answerBatch(const std::vector<std::string> &lines, store::ResultStore &db,
            std::int64_t parent, Counts &counts)
{
    BatchAnswer a;
    a.queries.reserve(lines.size());
    for (const std::string &line : lines) {
        Span s("store.parse_resolve", parent);
        a.queries.push_back(
            store::resolveQuery(store::parseQuery(line, "q")));
    }

    std::vector<std::size_t> cold;
    for (std::size_t i = 0; i < a.queries.size(); ++i) {
        const ProfileKey key = a.queries[i].key;
        if (a.resolved.count(key) != 0)
            continue;
        std::optional<store::StoredResult> hit;
        {
            Span s("store.lookup", parent);
            hit = db.lookup(key);
        }
        if (hit) {
            a.resolved.emplace(key, hit->profile);
            continue;
        }
        a.resolved.emplace(key, CyclePowerProfile{});
        cold.push_back(i);
    }

    if (!cold.empty()) {
        const std::int64_t c0 = nowNs();
        Span sweep("exec.cold_sweep", parent);
        std::vector<double> point_ns(cold.size());
        const std::vector<CyclePowerProfile> measured = exec::parallelSweep(
            "perfbench-query-cold", cold.size(),
            [&](const exec::SweepPoint &point) {
                Span s("core.measure", sweep.id());
                const std::int64_t p0 = tracer.on ? nowNs() : 0;
                const store::ResolvedQuery &q = a.queries[cold[point.index]];
                CyclePowerProfile prof =
                    measureCycleProfile(q.cfg, q.techniques);
                if (tracer.on)
                    point_ns[point.index] = static_cast<double>(nowNs() - p0);
                return prof;
            });
        counts["n.cold_ns"] += static_cast<double>(nowNs() - c0);
        counts["n.cold_keys"] += static_cast<double>(cold.size());
        for (const double p : point_ns)
            counts["n.busy_ns"] += p;
        for (std::size_t i = 0; i < cold.size(); ++i) {
            const store::ResolvedQuery &q = a.queries[cold[i]];
            a.resolved[q.key] = measured[i];
            Span s("store.insert", parent);
            db.insert(q.key, store::makeStoredResult(measured[i], q.cfg));
        }
    }

    a.out.reserve(a.queries.size());
    for (const store::ResolvedQuery &q : a.queries) {
        Span s("store.result_line", parent);
        a.out.push_back(store::resultLine(q, a.resolved.at(q.key)));
    }
    {
        Span s("store.flush", parent);
        db.flush();
    }
    return a;
}

void
runQuery(const Options &opt, Report &rep, ProbeInputs &in)
{
    // Set-up, up to the first result: store open in a fresh directory +
    // generation of one epoch of batches + the first batch, answered
    // from an empty profile cache.
    std::vector<std::vector<std::string>> inputs;
    double open_ms = 0.0;
    const std::string setup_dir = opt.workdir + "/setup";
    fs::create_directories(setup_dir);
    int setups = 0;
    Counts setup_counts;
    const auto setup = [&] {
        const std::int64_t t0 = nowNs();
        store::ResultStore db(setup_dir + "/" + std::to_string(setups++),
                              store::ResultStore::Mode::ReadWrite);
        open_ms = secondsBetween(t0, nowNs()) * 1e3;
        QueryGenerator gen(opt.seed, kQueryBatch, kQueryFresh);
        inputs.clear();
        for (std::uint64_t b = 0; b < kQueryEpochBatches; ++b)
            inputs.push_back(gen.next());
        CycleProfileCache::global().clear();
        answerBatch(inputs[0], db, -1, setup_counts);
    };

    // Answers stay across epochs, so a key simulated again in a later
    // epoch must also match its first answer.
    std::map<ProfileKey, std::uint64_t> answers; // hash of the first answer
    std::string digest_text;
    std::uint64_t batches = 0;
    std::uint64_t epoch = 0;
    std::unique_ptr<store::ResultStore> db;
    const auto storeDir = [&] {
        return opt.workdir + "/store-" + std::to_string(epoch);
    };

    const auto loop = [&](double seconds, LoopStats &ls,
                          Counts &counts) {
        const std::int64_t start = nowNs();
        const std::int64_t deadline =
            start + static_cast<std::int64_t>(seconds * 1e9);
        while (batches < kQueryDigestBatches || nowNs() < deadline) {
            if (batches % kQueryEpochBatches == 0) {
                db.reset();
                fs::remove_all(storeDir());
                ++epoch;
                db = std::make_unique<store::ResultStore>(
                    storeDir(), store::ResultStore::Mode::ReadWrite);
                CycleProfileCache::global().clear();
            }
            const std::vector<std::string> &lines =
                inputs[batches % kQueryEpochBatches];
            const std::int64_t t0 = nowNs();
            BatchAnswer a;
            {
                Span batch("bench.batch");
                a = answerBatch(lines, *db, batch.id(), counts);
            }
            ls.request(t0, nowNs(), a.queries.size());

            // Checks (outside the timed request).
            for (std::size_t i = 0; i < a.queries.size(); ++i) {
                bool ok = a.resolved.at(a.queries[i].key).contextIntact;
                const std::uint64_t answer = hashOf(answerOf(a.out[i]));
                const auto [it, fresh] =
                    answers.emplace(a.queries[i].key, answer);
                if (!fresh && it->second != answer) {
                    rep.violation("repeated key answered differently");
                    ok = false;
                }
                ++rep.attempted;
                if (!ok)
                    ++rep.failed;
                if (batches < kQueryDigestBatches)
                    digest_text += a.out[i] + '\n';
            }
            ++batches;
            if (batches == kQueryDigestBatches)
                rep.digest = digestOf(digest_text);
        }
        ls.seconds += secondsBetween(start, nowNs());
        rep.set("cold_keys_per_s",
                ratio(counts["n.cold_keys"], counts["n.cold_ns"] * 1e-9),
                "1/s");
        counts["exec.sweep_efficiency"] =
            ratio(counts["n.busy_ns"],
                  counts["n.cold_ns"] *
                      static_cast<double>(exec::defaultJobs()));
        counts["store.hit_ratio"] = db->counters().hitRate();
        counts["store.segments"] =
            std::max(counts["store.segments"],
                     static_cast<double>(db->segmentCount()));
    };

    measureLoop(opt, rep, {0.90, 32, 1}, setup, loop);
    fs::remove_all(setup_dir);
    {
        std::string all;
        for (const std::vector<std::string> &batch : inputs)
            for (const std::string &l : batch)
                all += l + '\n';
        rep.inputDigest = digestOf(all);
        const store::ResolvedQuery q0 = store::resolveQuery(
            store::parseQuery(inputs[0][0], "probe"));
        in = {q0.cfg, q0.techniques, opt.seed};
    }
    rep.counts["store.open_ms"] = open_ms;
}

// ---- fleet

constexpr std::uint64_t kFleetDevices = 20000;

fleet::CampaignConfig
fleetConfig(std::uint64_t seed, std::uint64_t devices)
{
    fleet::CampaignConfig c;
    c.base = skylakeConfig();
    c.population = FleetPopulation::mixedReference();
    c.seed = seed;
    c.deviceDays = devices;
    return c;
}

void
setFleetCounts(const fleet::CampaignResult &r,
               Counts &counts)
{
    const fleet::CampaignTelemetry &t = r.telemetry;
    counts["fleet.cycles_per_device_day"] =
        ratio(static_cast<double>(t.cycles), static_cast<double>(t.devices));
    counts["fleet.sim_sampled_cycles"] =
        static_cast<double>(t.simulatedCycles);
    counts["fleet.profile_measurements"] =
        static_cast<double>(t.profileMeasurements);
    counts["fleet.aggregation_bytes"] =
        static_cast<double>(t.aggregationBytes);
    std::uint64_t lo = ~std::uint64_t{0}, hi = 0;
    for (const std::uint64_t d : t.devicesPerWorker) {
        if (d == 0)
            continue;
        lo = std::min(lo, d);
        hi = std::max(hi, d);
    }
    counts["fleet.worker_balance"] =
        hi > 0 ? static_cast<double>(lo) / static_cast<double>(hi) : 0.0;
}

void
runFleet(const Options &opt, Report &rep, ProbeInputs &in)
{
    const fleet::CampaignConfig warm = fleetConfig(opt.seed, 64);
    in = {warm.base, warm.population.classes[0].techniques, opt.seed};

    // Set-up: a one-batch campaign from a cold profile cache (pool
    // prime, calibration and profile measurement).
    const auto setup = [&] {
        CycleProfileCache::global().clear();
        fleet::runCampaign(warm);
    };

    const fleet::CampaignConfig cfg = fleetConfig(opt.seed, kFleetDevices);
    {
        std::ostringstream os;
        os << "seed=" << cfg.seed << " devices=" << cfg.deviceDays;
        for (std::uint64_t d = 0; d < 64; ++d)
            os << ' ' << cfg.population.classForDevice(d);
        rep.inputDigest = digestOf(os.str());
    }

    std::string reference;
    const auto loop = [&](double seconds, LoopStats &ls,
                          Counts &counts) {
        const std::int64_t start = nowNs();
        const std::int64_t deadline =
            start + static_cast<std::int64_t>(seconds * 1e9);
        do {
            const std::int64_t t0 = nowNs();
            fleet::CampaignResult result;
            {
                Span s("fleet.campaign");
                result = fleet::runCampaign(cfg);
            }
            ls.request(t0, nowNs(), cfg.deviceDays);
            std::ostringstream os;
            fleet::printCampaignReport(os, cfg, result);
            bool ok = result.devices == cfg.deviceDays;
            if (reference.empty()) {
                reference = os.str();
                if (rep.digest.empty())
                    rep.digest = digestOf(reference);
            } else if (os.str() != reference) {
                rep.violation("campaign report differs from the first");
                ok = false;
            }
            rep.attempted += cfg.deviceDays;
            if (!ok)
                rep.failed += cfg.deviceDays;
            setFleetCounts(result, counts);
        } while (nowNs() < deadline);
        ls.seconds += secondsBetween(start, nowNs());
    };

    measureLoop(opt, rep, {0.90, 4, 1}, setup, loop);
}

// ------------------------------------------------------ per-layer report

/** Store-layer probe for workloads that never open a store: one
 * generated batch against a fresh store in the work directory. */
void
probeStore(const Options &opt, ProbeSet &ps,
           Counts &counts)
{
    const std::string dir = opt.workdir + "/probe_store";
    fs::remove_all(dir);
    std::unique_ptr<store::ResultStore> db;
    ps["store.open_ms"] = probe(1, [&](std::size_t) {
        db = std::make_unique<store::ResultStore>(
            dir, store::ResultStore::Mode::ReadWrite);
    });
    QueryGenerator gen(opt.seed, kQueryBatch, kQueryFresh);
    const std::vector<std::string> lines = gen.next();
    std::vector<store::ResolvedQuery> qs;
    ps["store.parse_resolve_us"] = probe(lines.size(), [&](std::size_t i) {
        qs.push_back(store::resolveQuery(store::parseQuery(lines[i], "q")));
    });
    const CyclePowerProfile prof =
        measureCycleProfile(qs[0].cfg, qs[0].techniques);
    ps["store.insert_us"] = probe(qs.size(), [&](std::size_t i) {
        db->insert(qs[i].key, store::makeStoredResult(prof, qs[i].cfg));
    });
    ps["store.flush_ms"] = probe(1, [&](std::size_t) { db->flush(); });
    ps["store.lookup_us"] = probe(qs.size(), [&](std::size_t i) {
        (void)db->lookup(qs[i].key);
    });
    ps["store.result_line_us"] = probe(qs.size(), [&](std::size_t i) {
        (void)store::resultLine(qs[i], prof);
    });
    counts["store.hit_ratio"] = db->counters().hitRate();
    counts["store.segments"] = static_cast<double>(db->segmentCount());
    db.reset();
    fs::remove_all(dir);
}

/** Exec/core probe for workloads without a cold sweep: a sweep of
 * uncached profile measurements of the workload's configuration. */
void
probeColdSweep(const ProbeInputs &in, ProbeSet &ps,
               Counts &counts)
{
    const std::size_t points = 2 * exec::defaultJobs();
    std::vector<double> point_ns(points);
    ps["exec.cold_sweep_ms"] = probe(1, [&](std::size_t) {
        exec::parallelSweep("perfbench-probe-cold", points,
                            [&](const exec::SweepPoint &point) {
                                const std::int64_t t0 = nowNs();
                                const CyclePowerProfile p =
                                    measureCycleProfileUncached(in.cfg,
                                                                in.tech);
                                point_ns[point.index] =
                                    static_cast<double>(nowNs() - t0);
                                return p;
                            });
    });
    SpanSummary measure;
    for (const double d : point_ns) {
        ++measure.calls;
        measure.totalNs += d;
        measure.durationsNs.push_back(d);
    }
    ps["core.measure_cold_ms"] = measure;
    counts["exec.sweep_efficiency"] =
        ratio(measure.totalNs,
              ps["exec.cold_sweep_ms"].totalNs *
                  static_cast<double>(exec::defaultJobs()));
}

/** Fleet probes: checkpoint-pool prime always; a small campaign on the
 * workload's own base configuration when the workload is not fleet. */
void
probeFleet(const ProbeInputs &in, bool campaign, ProbeSet &ps,
           Counts &counts)
{
    fleet::CampaignConfig c = fleetConfig(in.seed, 256);
    c.base = in.cfg;
    ps["fleet.pool_prime_ms"] = probe(3, [&](std::size_t) {
        fleet::CheckpointPool pool(c.base, c.population,
                                   exec::defaultJobs() + 1);
        pool.prime({});
    });
    if (!campaign)
        return;
    fleet::CampaignResult r;
    ps["fleet.campaign_s"] = probe(1, [&](std::size_t) {
        r = fleet::runCampaign(c);
    });
    setFleetCounts(r, counts);
}

struct LayerMetric
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric, in report order. Names ending in a time
 * unit are reported as the p50 of their probe or loop span. */
constexpr LayerMetric kLayerMetrics[] = {
    {"core.step_cycle_us", "us"},
    {"core.events_per_cycle", "count"},
    {"core.host_ns_per_event", "ns"},
    {"core.measure_cold_ms", "ms"},
    {"core.profile_cache_hit_ratio", "ratio"},
    {"core.snapshot_capture_us", "us"},
    {"core.snapshot_restore_us", "us"},
    {"core.snapshot_fork_us", "us"},
    {"core.self_share", "ratio"},
    {"flows.enter_idle_us", "us"},
    {"flows.exit_idle_us", "us"},
    {"flows.dirty_bytes_per_save", "bytes"},
    {"platform.build_ms", "ms"},
    {"platform.context_checksum_us", "us"},
    {"platform.self_share", "ratio"},
    {"security.mee_write_us_per_kb", "us/KB"},
    {"security.mee_read_us_per_kb", "us/KB"},
    {"security.mee_cache_hit_ratio", "ratio"},
    {"security.mee_lines_per_cycle", "count"},
    {"security.mee_auth_failures", "count"},
    {"arch.sha256_ns_per_kb", "ns/KB"},
    {"arch.speck_ctr_ns_per_kb", "ns/KB"},
    {"sim.event_ns", "ns"},
    {"store.open_ms", "ms"},
    {"store.parse_resolve_us", "us"},
    {"store.lookup_us", "us"},
    {"store.insert_us", "us"},
    {"store.flush_ms", "ms"},
    {"store.result_line_us", "us"},
    {"store.hit_ratio", "ratio"},
    {"store.segments", "count"},
    {"store.self_share", "ratio"},
    {"exec.cold_sweep_ms", "ms"},
    {"exec.sweep_efficiency", "ratio"},
    {"exec.self_share", "ratio"},
    {"workload.trace_generate_ms", "ms"},
    {"workload.day_cycle_ns", "ns"},
    {"fleet.campaign_s", "s"},
    {"fleet.pool_prime_ms", "ms"},
    {"fleet.cycles_per_device_day", "count"},
    {"fleet.sim_sampled_cycles", "count"},
    {"fleet.profile_measurements", "count"},
    {"fleet.worker_balance", "ratio"},
    {"fleet.aggregation_bytes", "bytes"},
    {"fleet.self_share", "ratio"},
    {"stats.sketch_add_ns", "ns"},
    {"bench.trace_overhead_pct", "%"},
};

/** ns per unit for a time unit; 0 for anything else. */
double
nsPerUnit(const std::string &unit)
{
    if (unit == "s")
        return 1e9;
    if (unit == "ms")
        return 1e6;
    if (unit == "us" || unit == "us/KB")
        return 1e3;
    if (unit == "ns" || unit == "ns/KB")
        return 1.0;
    return 0.0;
}

/**
 * Run the probes, merge them with the traced loop's spans and counters
 * into the per-layer metrics, and return the span table as JSON:
 * {name: {calls, calls_per_op, total_ns, self_ns, p50_ns, p99_ns}}.
 */
std::string
reportLayers(const Options &opt, const ProbeInputs &in, Report &rep)
{
    std::map<std::string, SpanSummary> spans = summariseSpans();
    const double ops = rep.metrics["bench.traced_ops"].value;

    const CycleProfileCacheStats cs = CycleProfileCache::global().statistics();
    rep.counts["core.profile_cache_hit_ratio"] =
        ratio(static_cast<double>(cs.hits), static_cast<double>(cs.calls()));

    // Span self time by layer, as a share of the traced window.
    const double wall = rep.metrics["bench.traced_wall_s"].value * 1e9;
    for (const char *layer : {"core", "platform", "store", "exec", "fleet"})
        rep.counts[std::string(layer) + ".self_share"] = 0.0;
    for (const auto &[name, s] : spans) {
        const std::string layer = name.substr(0, name.find('.'));
        if (layer != "bench")
            rep.counts[layer + ".self_share"] += ratio(s.selfNs, wall);
    }

    ProbeSet ps;
    Counts counts;
    probeSimulatorLayers(in, ps, counts);
    if (opt.workload != "query") {
        probeStore(opt, ps, counts);
        probeColdSweep(in, ps, counts);
    }
    probeFleet(in, opt.workload != "fleet", ps, counts);

    // Loop spans win over probes where the workload makes the call.
    const std::pair<const char *, const char *> fromLoop[] = {
        {"core.step_cycle", "core.step_cycle_us"},
        {"core.measure", "core.measure_cold_ms"},
        {"platform.build", "platform.build_ms"},
        {"store.parse_resolve", "store.parse_resolve_us"},
        {"store.lookup", "store.lookup_us"},
        {"store.insert", "store.insert_us"},
        {"store.flush", "store.flush_ms"},
        {"store.result_line", "store.result_line_us"},
        {"exec.cold_sweep", "exec.cold_sweep_ms"},
        {"fleet.campaign", "fleet.campaign_s"},
    };
    for (const auto &[span, metric] : fromLoop)
        if (spans.count(span) != 0)
            ps[metric] = spans[span];
    if (counts["security.mee_auth_failures"] > 0.0 ||
        counts["mee_probe_authentic"] == 0.0)
        rep.violation("MEE authentication failure in the probes");
    // Loop counters win over probe counters.
    for (const auto &[k, v] : rep.counts)
        counts[k] = v;

    const double mee_kb = counts["mee_probe_kb"];
    for (const LayerMetric &m : kLayerMetrics) {
        const double per = nsPerUnit(m.unit);
        if (rep.metrics.count(m.name) != 0)
            continue; // measured by the loop itself
        double v = 0.0;
        if (counts.count(m.name) != 0) {
            v = counts[m.name];
        } else if (per > 0.0 && ps.count(m.name) != 0) {
            v = p50(ps[m.name]) / per;
            const std::string name = m.name;
            if (name.rfind("security.mee_", 0) == 0)
                v /= mee_kb;
            else if (name.rfind("arch.", 0) == 0)
                v /= 4.0; // 4 KB pages
        } else if (std::string(m.name) == "core.host_ns_per_event") {
            v = ratio(p50(ps["core.step_cycle_us"]),
                      counts["core.events_per_cycle"]);
        }
        rep.set(m.name, v, m.unit);
    }

    std::string out = "{";
    for (const auto &[name, s] : spans) {
        if (out.size() > 1)
            out += ",";
        out += jsonStr(name) + ":{\"calls\":" +
               num(static_cast<double>(s.calls)) +
               ",\"calls_per_op\":" +
               num(ratio(static_cast<double>(s.calls), ops)) +
               ",\"total_ns\":" + num(s.totalNs) +
               ",\"self_ns\":" + num(s.selfNs) +
               ",\"p50_ns\":" + num(percentile(s.durationsNs, 0.5)) +
               ",\"p99_ns\":" + num(percentile(s.durationsNs, 0.99)) + "}";
    }
    return out + "}";
}

/** Dispatch level, kernels, workers, compiler, build type and a scalar
 * SHA-256 calibration time, for normalising across machines. */
std::string
envStamp()
{
    const arch::CryptoKernels &k = arch::activeKernels();
    const arch::CryptoKernels &scalar =
        arch::kernelsFor(arch::DispatchLevel::Scalar);
    std::vector<std::uint8_t> page(4096, 0x3c);
    std::uint32_t state[8] = {0x6a09e667, 0xbb67ae85, 0x3c6ef372,
                              0xa54ff53a, 0x510e527f, 0x9b05688c,
                              0x1f83d9ab, 0x5be0cd19};
    const SpanSummary cal = probe(64, [&](std::size_t) {
        scalar.sha256Compress(state, page.data(), page.size() / 64);
    });
    return std::string("{\"dispatch\":") + jsonStr(k.levelName) +
           ",\"sha256_kernel\":" + jsonStr(k.sha256Name) +
           ",\"speck_kernel\":" + jsonStr(k.speckName) +
           ",\"cpu_features\":" + jsonStr(arch::cpuFeatureString()) +
           ",\"workers\":" + num(exec::defaultJobs()) +
           ",\"compiler\":" + jsonStr(PERFBENCH_COMPILER) +
           ",\"build_type\":" + jsonStr(PERFBENCH_BUILD_TYPE) +
           ",\"scalar_sha256_4k_ns\":" + num(p50(cal)) + "}";
}

} // namespace

int
main(int argc, char **argv)
{
    Logger::quiet(true);
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        const auto val = [&](const char *key) -> std::optional<std::string> {
            const std::string k = std::string("--") + key + "=";
            if (a.rfind(k, 0) == 0)
                return a.substr(k.size());
            return std::nullopt;
        };
        if (auto v = val("workload"))
            opt.workload = *v;
        else if (auto v = val("seed"))
            opt.seed = std::stoull(*v);
        else if (auto v = val("seconds"))
            opt.seconds = std::stod(*v);
        else if (auto v = val("trace"))
            opt.trace = *v == "1";
        else if (auto v = val("workdir"))
            opt.workdir = *v;
        else {
            std::fprintf(stderr, "perfbench_driver: unknown argument %s\n",
                         a.c_str());
            return 2;
        }
    }

    Report rep;
    ProbeInputs in;
    if (opt.workload == "longtrace")
        runLongtrace(opt, rep, in);
    else if (opt.workload == "query")
        runQuery(opt, rep, in);
    else if (opt.workload == "fleet")
        runFleet(opt, rep, in);
    else {
        std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }

    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    rep.set("peak_rss_mb", static_cast<double>(ru.ru_maxrss) / 1024.0, "MB");

    std::string spans_json = "{}";
    if (opt.trace)
        spans_json = reportLayers(opt, in, rep);

    // ---- Emit.
    std::string metrics = "{";
    for (const auto &[k, m] : rep.metrics) {
        if (metrics.size() > 1)
            metrics += ",";
        metrics += jsonStr(k) + ":{\"value\":" + num(m.value) +
                   ",\"unit\":" + jsonStr(m.unit) + "}";
    }
    metrics += "}";
    std::string violations = "[";
    for (const std::string &v : rep.violations) {
        if (violations.size() > 1)
            violations += ",";
        violations += jsonStr(v);
    }
    violations += "]";
    std::printf("{\"workload\":%s,\"seed\":%llu,\"attempted\":%llu,"
                "\"failed\":%llu,\"digest\":%s,\"input_digest\":%s,"
                "\"violations\":%s,\"env\":%s,\"spans\":%s,"
                "\"metrics\":%s}\n",
                jsonStr(opt.workload).c_str(),
                static_cast<unsigned long long>(opt.seed),
                static_cast<unsigned long long>(rep.attempted),
                static_cast<unsigned long long>(rep.failed),
                jsonStr(rep.digest).c_str(), jsonStr(rep.inputDigest).c_str(),
                violations.c_str(), envStamp().c_str(), spans_json.c_str(),
                metrics.c_str());
    return 0;
}
