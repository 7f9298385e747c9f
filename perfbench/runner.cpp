/**
 * @file
 * Workload runner of the repository benchmark (see README.md).
 *
 * Runs one workload serially — one process, one thread, jobs one after
 * another — through the library's public calls, and prints one JSON
 * document of raw measurements on stdout: set-up times, per-pass job
 * counts, per-job latencies, host-speed probes (see HostProbe), per-job
 * outcome digests and, in traced mode, one span around each layer call
 * plus the layer counters. run.py turns that document into metrics.
 *
 *   perfbench_runner --workload <fig15_paper|service_zipf|dense_feedback>
 *                    --seed <n> --seconds <s> --trace <0|1>
 *
 * The timed section repeats a fixed pass of jobs until `seconds` have
 * passed. With --trace 1, untraced and traced passes alternate, so the
 * traced run measures its own tracing overhead.
 */
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "common/hash.hpp"
#include "common/json.hpp"
#include "common/rng.hpp"
#include "compiler/cache/cache.hpp"
#include "compiler/compiler.hpp"
#include "runtime/machine.hpp"
#include "service/job_server.hpp"
#include "sweep/exec.hpp"
#include "sweep/grid.hpp"

using namespace dhisq;

namespace {

using Clock = std::chrono::steady_clock;

double
msSince(Clock::time_point t0)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - t0)
        .count();
}

// ---------------------------------------------------------------------------
// Spans: name, start, end and the enclosing span, kept in memory and
// written out with the rest of the document.
// ---------------------------------------------------------------------------

class Tracer
{
  public:
    explicit Tracer(Clock::time_point origin) : _origin(origin) {}

    bool on = false;

    int
    open(const char *name)
    {
        const int id = int(_spans.size());
        _spans.push_back(Span{name, _stack.empty() ? -1 : _stack.back(),
                              nowNs(), 0});
        _stack.push_back(id);
        return id;
    }

    void
    close(int id)
    {
        _spans[std::size_t(id)].end_ns = nowNs();
        _stack.pop_back();
    }

    /** Hand out the recorded spans as [id, parent, name, start, end]. */
    Json
    drain()
    {
        Json out = Json::array();
        for (std::size_t i = 0; i < _spans.size(); ++i) {
            Json s = Json::array();
            s.push(i);
            s.push(_spans[i].parent);
            s.push(_spans[i].name);
            s.push(_spans[i].start_ns);
            s.push(_spans[i].end_ns);
            out.push(std::move(s));
        }
        _spans.clear();
        return out;
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        std::int64_t start_ns;
        std::int64_t end_ns;
    };

    std::int64_t
    nowNs() const
    {
        return std::chrono::duration_cast<std::chrono::nanoseconds>(
                   Clock::now() - _origin)
            .count();
    }

    Clock::time_point _origin;
    std::vector<Span> _spans;
    std::vector<int> _stack;
};

/** RAII span; a no-op while the tracer is off. */
class Scope
{
  public:
    Scope(Tracer &tracer, const char *name)
        : _tracer(tracer), _id(tracer.on ? tracer.open(name) : -1)
    {
    }
    ~Scope()
    {
        if (_id >= 0)
            _tracer.close(_id);
    }
    Scope(const Scope &) = delete;
    Scope &operator=(const Scope &) = delete;

  private:
    Tracer &_tracer;
    int _id;
};

// ---------------------------------------------------------------------------
// Host-speed probe: fixed work outside the library, timed between jobs.
// ---------------------------------------------------------------------------

/**
 * The speed of a shared host moves by up to 1.6x from second to second and
 * from minute to minute, with other tenants' load. A probe is a fixed
 * piece of work that does not touch the library, timed right after the
 * jobs it follows, so run.py can express each job's latency at a fixed
 * host speed: latency * nominal / probe.
 *
 * Its kernels stress what the workloads stress: a read-modify-write
 * sweep over an L1-resident and over an L2-resident buffer (the dense
 * state-vector kernels and the simulator's per-core state), a sort and
 * string formatting (allocation and branchy code, as in the compiler),
 * and random hash-map lookups (the event loop's and the cache's tables).
 */
class HostProbe
{
  public:
    HostProbe() : _l1(2 * 1024), _l2(64 * 1024)
    {
        Rng rng(1);
        for (auto &v : _l1)
            v = rng.next();
        for (auto &v : _l2)
            v = rng.next();
        for (std::uint64_t k = 0; k < kMapKeys; ++k)
            _map.emplace(k * 0x9e3779b97f4a7c15ULL, k);
        _keys.reserve(kLookups);
        for (std::size_t i = 0; i < kLookups; ++i)
            _keys.push_back(rng.below(kMapKeys) * 0x9e3779b97f4a7c15ULL);
    }

    /**
     * Time every kernel; [samples, l1 ms, l2 ms, sort ms, map ms]. Each
     * kernel runs once untimed first, so that its time does not depend on
     * how much of the probe's data the jobs before it evicted.
     */
    Json
    run(std::size_t samples)
    {
        Json out = Json::array();
        out.push(samples);
        out.push(warmTimeMs([&] { return sweep(_l1, 200); }));
        out.push(warmTimeMs([&] { return sweep(_l2, 10); }));
        out.push(warmTimeMs([&] { return sortAndFormat(); }));
        out.push(warmTimeMs([&] { return lookups(); }));
        return out;
    }

  private:
    static constexpr std::uint64_t kMapKeys = 16 * 1024;
    static constexpr std::size_t kLookups = 40 * 1000;

    template <typename Kernel>
    double
    warmTimeMs(Kernel kernel)
    {
        _sink = _sink + kernel();
        const auto t0 = Clock::now();
        const std::uint64_t result = kernel();
        const double ms = msSince(t0);
        _sink = _sink + result;
        return ms;
    }

    static std::uint64_t
    sweep(std::vector<std::uint64_t> &buf, unsigned reps)
    {
        std::uint64_t s = 0;
        for (unsigned r = 0; r < reps; ++r)
            for (auto &v : buf) {
                s += v;
                v = s;
            }
        return s;
    }

    static std::uint64_t
    sortAndFormat()
    {
        Rng rng(3);
        std::vector<std::uint64_t> v(8 * 1024);
        for (auto &x : v)
            x = rng.next();
        std::sort(v.begin(), v.end());
        std::vector<std::string> s;
        for (std::size_t i = 0; i < 1500; ++i)
            s.push_back(std::to_string(v[i]));
        return v[7] + s.size();
    }

    std::uint64_t
    lookups() const
    {
        std::uint64_t s = 0;
        for (const std::uint64_t k : _keys)
            s += _map.find(k)->second;
        return s;
    }

    std::vector<std::uint64_t> _l1;
    std::vector<std::uint64_t> _l2;
    std::unordered_map<std::uint64_t, std::uint64_t> _map;
    std::vector<std::uint64_t> _keys;
    /** Kernel results, kept so the kernels are not optimized away. */
    volatile std::uint64_t _sink = 0;
};

/**
 * Runs the probe after a job once kGapMs have passed since the last
 * probe, and on demand at the end of a batch of samples, so that every
 * sample has a probe taken within about kGapMs after it.
 */
class Prober
{
  public:
    static constexpr double kGapMs = 25.0;

    /** Probe into `log` if the gap has passed (or `force`) and samples
     *  were taken since the last probe. */
    void
    after(std::size_t samples, Json &log, bool force = false)
    {
        if (samples == _probed_at ||
            (!force && msSince(_last) < kGapMs))
            return;
        log.push(_probe.run(samples));
        _probed_at = samples;
        _last = Clock::now();
    }

    /** Start a new batch of samples (a pass, or set-up). */
    void
    restart()
    {
        _probed_at = 0;
        _last = Clock::now();
    }

    /** `reps` probes back to back into `log`, for the untimed replays. */
    void
    burst(unsigned reps, Json &log)
    {
        for (unsigned i = 0; i < reps; ++i)
            log.push(_probe.run(0));
    }

  private:
    HostProbe _probe;
    std::size_t _probed_at = 0;
    Clock::time_point _last = Clock::now();
};

// ---------------------------------------------------------------------------
// Layer counters, summed per pass.
// ---------------------------------------------------------------------------

struct Counters
{
    std::uint64_t compiled_instructions = 0;
    std::uint64_t swaps_inserted = 0;
    std::uint64_t events = 0;
    std::uint64_t core_instructions = 0;
    std::uint64_t pause_cycles = 0;
    std::uint64_t telf_records = 0;
    std::uint64_t messages = 0;
    std::uint64_t broadcasts = 0;
    std::uint64_t gates = 0;
    std::uint64_t measurements = 0;
    std::uint64_t cache_lookups = 0;
    std::uint64_t cache_misses = 0;

    void
    add(const Counters &o)
    {
        compiled_instructions += o.compiled_instructions;
        swaps_inserted += o.swaps_inserted;
        events += o.events;
        core_instructions += o.core_instructions;
        pause_cycles += o.pause_cycles;
        telf_records += o.telf_records;
        messages += o.messages;
        broadcasts += o.broadcasts;
        gates += o.gates;
        measurements += o.measurements;
        cache_lookups += o.cache_lookups;
        cache_misses += o.cache_misses;
    }

    Json
    toJson() const
    {
        Json j = Json::object();
        j["compiled_instructions"] = compiled_instructions;
        j["swaps_inserted"] = swaps_inserted;
        j["events"] = events;
        j["core_instructions"] = core_instructions;
        j["pause_cycles"] = pause_cycles;
        j["telf_records"] = telf_records;
        j["messages"] = messages;
        j["broadcasts"] = broadcasts;
        j["gates"] = gates;
        j["measurements"] = measurements;
        j["cache_lookups"] = cache_lookups;
        j["cache_misses"] = cache_misses;
        return j;
    }
};

/** Counters of one compiled-and-run job, read from the public stats. */
Counters
machineCounters(const compiler::CompiledProgram &program,
                runtime::Machine &machine, const runtime::RunReport &report)
{
    Counters c;
    c.compiled_instructions = program.totalInstructions();
    c.swaps_inserted = program.stats.counter("swaps_inserted");
    c.events = report.events_executed;
    c.pause_cycles = report.pause_cycles;
    for (ControllerId id = 0; id < machine.numControllers(); ++id)
        c.core_instructions +=
            machine.core(id).stats().counter("instructions_executed");
    c.telf_records = machine.telf().size();
    c.messages = machine.fabric().stats().counter("messages");
    c.broadcasts = machine.fabric().stats().counter("broadcasts");
    const StatSet &dev = machine.device().stats();
    c.gates = dev.counter("gates_1q") + dev.counter("gates_2q");
    c.measurements = dev.counter("measurements");
    return c;
}

// ---------------------------------------------------------------------------
// Outcome digests. Only simulated outcomes go in; host-effort counters
// (events, instructions, TELF records) stay out.
// ---------------------------------------------------------------------------

void
absorbMeasurements(
    Hasher128 &h,
    const std::vector<q::QuantumDevice::MeasurementRecord> &records)
{
    h.u64(records.size());
    for (const auto &m : records) {
        h.u64(m.qubit);
        h.i64(m.bit);
        h.u64(m.start);
        h.u64(m.ready);
    }
}

Hash128
runDigest(const runtime::RunReport &report, const q::QuantumDevice &device)
{
    Hasher128 h;
    h.u64(report.makespan);
    h.u64(report.deadlock ? 1 : 0);
    h.u64(report.timing_violations);
    h.u64(report.coincidence_violations);
    h.u64(report.syncs_completed);
    h.u64(report.pause_cycles);
    absorbMeasurements(h, device.measurements());
    return h.digest();
}

/** A job's outcome as the service reports it (no sync/pause counters). */
Hash128
serviceDigest(const service::JobResult &result)
{
    Hasher128 h;
    h.u64(result.ok ? 1 : 0);
    h.str(result.error);
    h.u64(result.makespan);
    absorbMeasurements(h, result.measurements);
    return h.digest();
}

/** Per distinct job: the first digest seen and how later runs agreed. */
struct JobRecord
{
    std::string digest;
    bool ok = true;
    std::string error;
    std::uint64_t runs = 0;
    std::uint64_t inconsistent = 0;
};

class Outcomes
{
  public:
    /** Record one run of job `id`. */
    void
    record(const std::string &id, const Hash128 &digest, bool ok,
           const std::string &error)
    {
        auto it = std::find_if(_jobs.begin(), _jobs.end(),
                               [&](const auto &e) { return e.first == id; });
        if (it == _jobs.end()) {
            _jobs.emplace_back(id, JobRecord{digest.hex(), ok, error, 0, 0});
            it = _jobs.end() - 1;
        }
        JobRecord &job = it->second;
        ++job.runs;
        if (job.digest != digest.hex())
            ++job.inconsistent;
    }

    Json
    toJson() const
    {
        Json out = Json::object();
        for (const auto &[id, job] : _jobs) {
            Json j = Json::object();
            j["digest"] = job.digest;
            j["ok"] = job.ok;
            j["error"] = job.error;
            j["runs"] = job.runs;
            j["inconsistent"] = job.inconsistent;
            out[id] = std::move(j);
        }
        return out;
    }

  private:
    std::vector<std::pair<std::string, JobRecord>> _jobs;
};

// ---------------------------------------------------------------------------
// One pass of the timed section.
// ---------------------------------------------------------------------------

struct Pass
{
    bool traced = false;
    std::uint64_t jobs = 0;
    std::vector<double> latency_ms;
    /** Host probes: [samples before it, kernel ms...] (see HostProbe). */
    Json probes = Json::array();
    Counters counters;
    Json spans;
    /** service_zipf: (catalog index, compile-cache miss) per request. */
    Json requests = Json::array();

    Json
    toJson() const
    {
        Json j = Json::object();
        j["traced"] = traced;
        j["jobs"] = jobs;
        Json lat = Json::array();
        for (double v : latency_ms)
            lat.push(v);
        j["latency_ms"] = std::move(lat);
        j["probes"] = probes;
        j["counters"] = counters.toJson();
        if (traced) {
            j["spans"] = spans;
            j["requests"] = requests;
        }
        return j;
    }
};

// ---------------------------------------------------------------------------
// Workloads that drive the layers directly (fig15_paper, dense_feedback).
// ---------------------------------------------------------------------------

struct DirectJob
{
    std::string id;
    std::size_t circuit = 0; ///< Index into DirectInputs::circuits.
    std::size_t topology = 0; ///< Index into DirectInputs::topologies.
    compiler::CompilerConfig cc;
    bool state_vector = false;
    std::uint64_t device_seed = 1;
};

struct DirectInputs
{
    std::vector<compiler::Circuit> circuits;
    std::vector<net::TopologyConfig> topo_cfgs;
    std::vector<net::Topology> topologies;
    std::vector<DirectJob> jobs;
};

/** Topology of `qubits` at one qubit block per controller, with the
 *  interconnect knobs of sweep::executeWith's defaults. */
net::TopologyConfig
topologyFor(net::TopologyShape shape, unsigned controllers)
{
    net::TopologyConfig cfg = sweep::shapeTopology(shape, controllers);
    cfg.hub_latency = sweep::ExecOptions{}.hub_latency;
    return cfg;
}

/** Build one circuit and its line topology under set-up spans. */
void
addCircuit(DirectInputs &in, Tracer &tracer, const sweep::CircuitSpec &spec,
           unsigned qubits_per_controller)
{
    {
        Scope s(tracer, "build");
        in.circuits.push_back(spec.build());
    }
    const unsigned n = in.circuits.back().numQubits();
    in.topo_cfgs.push_back(
        topologyFor(net::TopologyShape::kLine,
                    (n + qubits_per_controller - 1) / qubits_per_controller));
    Scope s(tracer, "topology");
    in.topologies.push_back(net::Topology::build(in.topo_cfgs.back()));
}

/** fig15_paper: the smaller paper size of each Figure 15 family, each
 *  under lock-step and BISP, on the timing-only device. */
DirectInputs
setupFig15(std::uint64_t seed, Tracer &tracer)
{
    DirectInputs in;
    const char *names[] = {"adder_n577", "bv_n400", "logical_t_n432",
                           "qft_n100", "w_state_n800"};
    for (const char *name : names) {
        sweep::CircuitSpec spec;
        spec.kind = sweep::CircuitSpec::Kind::kFigure15;
        spec.name = name;
        spec.expand_fraction = 1.0;
        spec.expand_seed = seed;
        addCircuit(in, tracer, spec, 1);
        for (const auto scheme : {compiler::SyncScheme::kLockStep,
                                  compiler::SyncScheme::kBisp}) {
            DirectJob job;
            job.id = std::string(name) + "/" + compiler::toString(scheme);
            job.circuit = job.topology = in.circuits.size() - 1;
            job.cc.scheme = scheme;
            job.device_seed = seed;
            in.jobs.push_back(job);
        }
    }
    return in;
}

/** dense_feedback: functional dense state-vector runs at 18 qubits under
 *  BISP — rotation-heavy VQE iterations beside random dynamic circuits
 *  with mid-circuit measurement and feedback. */
DirectInputs
setupDense(std::uint64_t seed, Tracer &tracer)
{
    // 18 qubits: the dense backend is nearly all of a pass, and the 4 MiB
    // state vector streams from L3. Runs at 14 qubits, whose state stays
    // in L2, spread more from run to run on a shared host (0.21 against
    // 0.17 in interleaved runs).
    constexpr unsigned kQubits = 18;
    // Eleven jobs: an odd count puts the median job in the middle of one
    // job's band of samples, and a VQE majority puts it on a VQE
    // iteration, whose cost the seed does not change. The random circuits
    // are kept at half the cost of an iteration, so the slowest bands,
    // where the tail percentile falls, are VQE iterations too; at 16
    // layers the slowest random circuit set the tail, and its cost moved
    // with the seed.
    constexpr unsigned kVqe = 7;
    constexpr unsigned kRandom = 4;
    DirectInputs in;
    Rng rng(seed);
    for (unsigned i = 0; i < kVqe + kRandom; ++i) {
        // The ansatz structure is fixed; the seed picks the optimizer
        // steps (angles) and the random circuits.
        sweep::CircuitSpec spec;
        if (i < kVqe) {
            spec.kind = sweep::CircuitSpec::Kind::kVqeSweep;
            spec.vqe.qubits = kQubits;
            spec.vqe.layers = 4;
            spec.vqe.iteration = unsigned(rng.below(1u << 20)) * kVqe + i;
        } else {
            spec.kind = sweep::CircuitSpec::Kind::kRandomDynamic;
            spec.random.qubits = kQubits;
            spec.random.layers = 8;
            spec.random.feedback_fraction = 0.5;
            spec.random.seed = rng.next();
        }
        addCircuit(in, tracer, spec, 1);
        DirectJob job;
        job.id = spec.id() + "/" + std::to_string(i);
        job.circuit = job.topology = in.circuits.size() - 1;
        job.cc.scheme = compiler::SyncScheme::kBisp;
        job.cc.backend = q::BackendTier::kDense;
        job.state_vector = true;
        job.device_seed = rng.next();
        in.jobs.push_back(job);
    }
    return in;
}

struct Built
{
    compiler::CompiledProgram program;
    std::unique_ptr<runtime::Machine> machine;
};

/** machineConfigFor + Machine + CompiledProgram::applyTo. */
Built
buildMachine(const DirectInputs &in, const DirectJob &job,
             compiler::CompiledProgram program, bool state_vector)
{
    auto mc = compiler::machineConfigFor(in.topo_cfgs[job.topology], job.cc,
                                         program, state_vector,
                                         job.device_seed);
    mc.fabric.star_messages =
        job.cc.scheme == compiler::SyncScheme::kLockStep;
    Built b;
    b.machine = std::make_unique<runtime::Machine>(mc);
    program.applyTo(*b.machine);
    b.program = std::move(program);
    return b;
}

/** Compile, build and run one job; record its outcome into the pass. */
void
runDirectJob(const DirectInputs &in, const DirectJob &job, Tracer &tracer,
             Outcomes &outcomes, Pass &pass)
{
    const auto t0 = Clock::now();
    {
        Scope job_span(tracer, "job");
        compiler::Compiler comp(in.topologies[job.topology], job.cc);
        Result<compiler::CompiledProgram> compiled = [&] {
            Scope s(tracer, "compile");
            return comp.tryCompile(in.circuits[job.circuit]);
        }();
        if (!compiled) {
            outcomes.record(job.id, Hash128{}, false, compiled.message());
        } else {
            Built b = [&] {
                Scope s(tracer, "machine_build");
                return buildMachine(in, job, compiled.take(),
                                    job.state_vector);
            }();
            runtime::RunReport report;
            {
                Scope s(tracer, "run");
                report = b.machine->run();
            }
            // As in sweep::runPoint: coincidence breaks under lock-step
            // are the baseline's data, under BISP they are failures.
            const bool ok =
                !report.deadlock &&
                (report.coincidence_violations == 0 ||
                 job.cc.scheme == compiler::SyncScheme::kLockStep);
            outcomes.record(job.id, runDigest(report, b.machine->device()),
                            ok, ok ? "" : report.summary());
            pass.counters.add(machineCounters(b.program, *b.machine, report));
        }
    }
    pass.latency_ms.push_back(msSince(t0));
    ++pass.jobs;
}

/** Per distinct dense job: wall ms of Machine::run on the timing-only
 *  device, for the same compiled program (quantum.backend_ms). */
Json
timingReplay(const DirectInputs &in)
{
    Json out = Json::object();
    for (const auto &job : in.jobs) {
        compiler::Compiler comp(in.topologies[job.topology], job.cc);
        auto compiled = comp.tryCompile(in.circuits[job.circuit]);
        if (!compiled)
            continue;
        Built b = buildMachine(in, job, compiled.take(), false);
        const auto t0 = Clock::now();
        b.machine->run();
        out[job.id] = msSince(t0);
    }
    return out;
}

// ---------------------------------------------------------------------------
// service_zipf: a closed-loop client of service::JobServer.
// ---------------------------------------------------------------------------

constexpr double kZipfExponent = 1.1;
constexpr std::size_t kCatalog = 32;
constexpr std::size_t kRequests = 1024;

struct ServiceInputs
{
    std::vector<service::JobRequest> catalog;
    /** Catalog index of each request, in send order. */
    std::vector<std::size_t> stream;
    /** One single-request batch per request (the submit() argument). */
    std::vector<std::vector<service::JobRequest>> batches;
    /** Per catalog entry: its topology, for the unit-cost replay. */
    std::vector<net::TopologyConfig> topo_cfgs;
};

ServiceInputs
setupService(std::uint64_t seed)
{
    ServiceInputs in;
    Rng rng(seed);
    const auto base = [&] {
        service::JobRequest req;
        req.topology = net::TopologyShape::kHeavyHex;
        req.config.placement = place::PlacementStrategy::kKlMincut;
        req.config.qubits_per_controller = 2;
        req.config.routing = compiler::RoutingMode::kSwap;
        req.config.route_window = 8;
        return req;
    };
    // Catalog index == popularity rank. Half the ranks are iterations of
    // one 48-qubit VQE ansatz on 24 controllers; the others alternate
    // over-capacity, windowed-routed 96-qubit routingStress and
    // randomDynamic circuits on 40 controllers (96 qubits need 48 at two
    // per controller). The class of each rank is fixed, so the seed
    // changes the circuits but not the cost profile of the mix.
    for (std::size_t r = 0; r < kCatalog; ++r) {
        service::JobRequest req = base();
        if (r % 2 == 0) {
            req.controllers = 24;
            req.circuit.kind = sweep::CircuitSpec::Kind::kVqeSweep;
            req.circuit.vqe.qubits = 48;
            req.circuit.vqe.layers = 3;
            req.circuit.vqe.iteration =
                unsigned(rng.below(1u << 20)) * kCatalog + unsigned(r);
        } else {
            req.controllers = 40;
            if (r % 4 == 1) {
                req.circuit.kind = sweep::CircuitSpec::Kind::kRoutingStress;
                req.circuit.routing_stress.qubits = 96;
                req.circuit.routing_stress.layers = 6;
                req.circuit.routing_stress.stride = 7;
                req.circuit.routing_stress.seed = rng.next();
            } else {
                req.circuit.kind = sweep::CircuitSpec::Kind::kRandomDynamic;
                req.circuit.random.qubits = 96;
                req.circuit.random.layers = 8;
                req.circuit.random.feedback_span = 12;
                req.circuit.random.seed = rng.next();
            }
        }
        req.id = req.circuit.id() + "/" + std::to_string(r);
        req.seed = rng.next();
        in.catalog.push_back(req);
    }
    // Each rank gets its zipf(s) share of the stream (at least one
    // request; rank 0 absorbs the rounding), in a seeded order.
    double total = 0.0;
    for (std::size_t r = 0; r < kCatalog; ++r)
        total += 1.0 / std::pow(double(r + 1), kZipfExponent);
    for (std::size_t r = kCatalog; r-- > 1;) {
        const double share =
            1.0 / std::pow(double(r + 1), kZipfExponent) / total;
        const auto n = std::max<std::size_t>(
            1, std::size_t(std::lround(share * double(kRequests))));
        in.stream.insert(in.stream.end(), n, r);
    }
    in.stream.insert(in.stream.end(), kRequests - in.stream.size(), 0);
    for (std::size_t i = in.stream.size(); i > 1; --i)
        std::swap(in.stream[i - 1], in.stream[rng.below(i)]);
    for (const std::size_t job : in.stream)
        in.batches.push_back({in.catalog[job]});
    for (const auto &req : in.catalog)
        in.topo_cfgs.push_back(topologyFor(req.topology, req.controllers));
    return in;
}

/** Per catalog job: the JSON of its first result served by a real
 *  compile (cache miss) and of its first result served from the cache
 *  (hit), for the cache-off consistency replay. */
struct CachedResults
{
    std::vector<std::string> miss;
    std::vector<std::string> hit;
};

/** Send the request stream once, one request per submit(). */
void
runServicePass(const ServiceInputs &in, service::JobServer &server,
               Tracer &tracer, Prober &prober, Outcomes &outcomes,
               Pass &pass, CachedResults &cached)
{
    auto &cache = compiler::cache::CompileCache::global();
    for (std::size_t i = 0; i < in.batches.size(); ++i) {
        const std::size_t job = in.stream[i];
        const auto before = cache.stats();
        const auto t0 = Clock::now();
        std::vector<service::JobResult> results;
        {
            Scope s(tracer, "submit");
            results = server.submit(in.batches[i]);
        }
        pass.latency_ms.push_back(msSince(t0));
        const auto after = cache.stats();
        const service::JobResult &r = results.front();
        ++pass.jobs;
        outcomes.record(in.catalog[job].id, serviceDigest(r), r.ok, r.error);
        pass.counters.cache_lookups += after.lookups - before.lookups;
        pass.counters.cache_misses += after.misses - before.misses;
        const bool miss = after.misses != before.misses;
        if (pass.traced) {
            Json req = Json::array();
            req.push(job);
            req.push(miss);
            pass.requests.push(std::move(req));
        }
        std::string &first = miss ? cached.miss[job] : cached.hit[job];
        if (first.empty())
            first = r.toJson().dump();
        prober.after(pass.latency_ms.size(), pass.probes);
    }
}

/** Host probes taken right before and right after the untimed replays. */
constexpr unsigned kReplayProbes = 3;

/** Replays per catalog job and layer in serviceUnits (odd, so the median
 *  is one). */
constexpr unsigned kUnitReps = 5;

double
median(std::vector<double> times)
{
    std::sort(times.begin(), times.end());
    return times[times.size() / 2];
}

/** Median of `reps` timings of `call`, in ms. */
template <typename Call>
double
medianMs(unsigned reps, Call call)
{
    std::vector<double> times;
    for (unsigned rep = 0; rep < reps; ++rep) {
        const auto t0 = Clock::now();
        call();
        times.push_back(msSince(t0));
    }
    return median(std::move(times));
}

/**
 * Replay each catalog job through the layers outside the timed section:
 * per-layer unit costs (circuit build, topology build, cold compile,
 * cached compile, machine build, run), each the median of kUnitReps
 * back-to-back replays, and the job's layer counters. A layer's replays
 * run back to back, as in the stream, where most requests build and run
 * a machine with no compile between them: a cold compile and the cache
 * clear after it free large blocks, which glibc may hand back to the
 * system, and a machine built right after them pays to fault its memory
 * in again (1.5 ms against 0.36 ms per request in one measurement).
 */
Json
serviceUnits(const ServiceInputs &in)
{
    Json out = Json::array();
    for (std::size_t i = 0; i < in.catalog.size(); ++i) {
        const auto &req = in.catalog[i];
        Json u = Json::object();
        u["build_ms"] =
            medianMs(kUnitReps, [&] { (void)req.circuit.build(); });
        u["topology_ms"] = medianMs(kUnitReps, [&] {
            (void)net::Topology::build(in.topo_cfgs[i]);
        });
        const compiler::Circuit circuit = req.circuit.build();
        const net::Topology topo = net::Topology::build(in.topo_cfgs[i]);

        compiler::CompilerConfig cc = req.config;
        cc.cache = compiler::CacheMode::kOff;
        Result<compiler::CompiledProgram> compiled =
            compiler::Compiler(topo, cc).tryCompile(circuit);
        if (!compiled) {
            u["error"] = compiled.message();
            out.push(std::move(u));
            continue;
        }
        u["cold_compile_ms"] = medianMs(kUnitReps, [&] {
            compiled = compiler::Compiler(topo, cc).tryCompile(circuit);
        });
        cc.cache = compiler::CacheMode::kMemory;
        (void)compiler::Compiler(topo, cc).tryCompile(circuit);
        u["cached_compile_ms"] = medianMs(kUnitReps, [&] {
            (void)compiler::Compiler(topo, cc).tryCompile(circuit);
        });
        compiler::cache::CompileCache::global().clear();

        const compiler::CompiledProgram program = compiled.take();
        const auto mc = compiler::machineConfigFor(in.topo_cfgs[i], cc,
                                                   program, false, req.seed);
        std::vector<double> build_ms;
        std::vector<double> run_ms;
        for (unsigned rep = 0; rep < kUnitReps; ++rep) {
            auto t0 = Clock::now();
            runtime::Machine machine(mc);
            program.applyTo(machine);
            build_ms.push_back(msSince(t0));
            t0 = Clock::now();
            const runtime::RunReport report = machine.run();
            run_ms.push_back(msSince(t0));
            if (rep == 0)
                u["counters"] =
                    machineCounters(program, machine, report).toJson();
        }
        u["machine_build_ms"] = median(std::move(build_ms));
        u["run_ms"] = median(std::move(run_ms));
        out.push(std::move(u));
    }
    return out;
}

/**
 * Re-submit every distinct catalog job with the cache off. Its result
 * must be byte-identical both to the job's cache-miss result and to its
 * cache-hit result from the timed section. Every catalog job has at least
 * six requests per pass, so each has a hit; a missing one is a mismatch.
 */
Json
serviceConsistency(const ServiceInputs &in, const CachedResults &cached)
{
    service::JobServer::Options so;
    so.cache = compiler::CacheMode::kOff;
    service::JobServer server(so);
    std::uint64_t checked = 0;
    std::uint64_t mismatched = 0;
    for (std::size_t i = 0; i < in.catalog.size(); ++i) {
        const std::string off = server.submit({in.catalog[i]}).front()
                                    .toJson()
                                    .dump();
        for (const std::string *served : {&cached.miss[i], &cached.hit[i]}) {
            ++checked;
            if (*served != off)
                ++mismatched;
        }
    }
    Json out = Json::object();
    out["checked"] = checked;
    out["mismatched"] = mismatched;
    return out;
}

// ---------------------------------------------------------------------------

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench_runner: %s\nusage: perfbench_runner --workload "
                 "<fig15_paper|service_zipf|dense_feedback> --seed <n> "
                 "--seconds <s> --trace <0|1>\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string_view flag = argv[i];
        if (i + 1 >= argc)
            usage("missing value");
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            a.workload = value;
        } else if (flag == "--seed") {
            a.seed = std::strtoull(value, &end, 10);
        } else if (flag == "--seconds") {
            a.seconds = std::strtod(value, &end);
        } else if (flag == "--trace") {
            a.trace = std::string_view(value) == "1";
        } else {
            usage("unknown flag");
        }
        if (end != nullptr && *end != '\0')
            usage("malformed number");
    }
    if (a.workload != "fig15_paper" && a.workload != "service_zipf" &&
        a.workload != "dense_feedback")
        usage("unknown workload");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

/**
 * Repeat set-up at least five times and until one second has passed (at
 * most 5000 times), so that its median is a steady figure; the last
 * set-up's inputs are kept. Host probes between the repetitions go to
 * `probes`, as in a pass.
 * With tracing on, the first set-up records its build/topology spans.
 */
template <typename Inputs, typename Setup>
Inputs
timedSetup(Setup setup, Tracer &tracer, bool trace, Prober &prober,
           Json &times, Json &probes, Json &setup_spans)
{
    Inputs inputs;
    double total = 0.0;
    prober.restart();
    for (unsigned i = 0; i < 5 || (total < 1000.0 && i < 5000); ++i) {
        tracer.on = trace && i == 0;
        compiler::cache::CompileCache::global().clear();
        const auto t0 = Clock::now();
        inputs = setup(tracer);
        const double ms = msSince(t0);
        total += ms;
        times.push(ms / 1000.0);
        if (tracer.on)
            setup_spans = tracer.drain();
        prober.after(times.size(), probes);
    }
    prober.after(times.size(), probes, true);
    tracer.on = false;
    return inputs;
}

long
peakRssKb()
{
    struct rusage usage = {};
    getrusage(RUSAGE_SELF, &usage);
    return usage.ru_maxrss;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    Tracer tracer(Clock::now());
    Outcomes outcomes;

    Json doc = Json::object();
    doc["workload"] = args.workload;
    doc["seed"] = args.seed;
    Json setup_times = Json::array();
    Json setup_probes = Json::array();
    Json setup_spans = Json::array();
    Prober prober;
    Json passes = Json::array();

    // Untraced and traced passes alternate in the traced run. An untraced
    // run makes at least `min_passes` passes, which fixes the smallest
    // latency sample a run can have and so the tail percentile run.py
    // reports for the workload.
    const unsigned min_passes = args.trace                          ? 2
                                : args.workload == "fig15_paper"    ? 8
                                : args.workload == "dense_feedback" ? 8
                                                                    : 1;
    doc["min_passes"] = min_passes;
    const auto timed = [&](const auto &run_pass) {
        // One untimed warm-up pass first. glibc raises its mmap threshold
        // to the largest block freed so far, so until a pass's largest
        // blocks have been freed once, the same Machine construction
        // costs 0.2 ms in one process and 1.3 ms in another. The warm-up
        // pass's job runs are checked like the others.
        {
            Pass warm_up;
            prober.restart();
            run_pass(warm_up);
        }
        const auto start = Clock::now();
        for (unsigned i = 0;
             i < min_passes || msSince(start) < args.seconds * 1e3; ++i) {
            Pass pass;
            pass.traced = args.trace && i % 2 == 1;
            tracer.on = pass.traced;
            prober.restart();
            run_pass(pass);
            prober.after(pass.latency_ms.size(), pass.probes, true);
            tracer.on = false;
            if (pass.traced)
                pass.spans = tracer.drain();
            passes.push(pass.toJson());
        }
    };

    if (args.workload == "service_zipf") {
        const auto in = timedSetup<ServiceInputs>(
            [&](Tracer &) { return setupService(args.seed); }, tracer,
            args.trace, prober, setup_times, setup_probes, setup_spans);
        service::JobServer::Options so;
        so.threads = 1;
        so.cache = compiler::CacheMode::kMemory;
        service::JobServer server(so);
        CachedResults cached{std::vector<std::string>(in.catalog.size()),
                             std::vector<std::string>(in.catalog.size())};
        timed([&](Pass &pass) {
            // Every pass replays the stream against a cold cache.
            compiler::cache::CompileCache::global().clear();
            runServicePass(in, server, tracer, prober, outcomes, pass,
                           cached);
        });
        // Probes before and after the untimed replays scale their times.
        Json replay_probes = Json::array();
        prober.burst(kReplayProbes, replay_probes);
        doc["units"] = serviceUnits(in);
        prober.burst(kReplayProbes, replay_probes);
        doc["replay_probes"] = std::move(replay_probes);
        Json stream = Json::array();
        for (std::size_t job : in.stream)
            stream.push(job);
        doc["stream"] = std::move(stream);
        if (args.trace)
            doc["consistency"] = serviceConsistency(in, cached);
    } else {
        const bool fig15 = args.workload == "fig15_paper";
        const auto in = timedSetup<DirectInputs>(
            [&](Tracer &t) {
                return fig15 ? setupFig15(args.seed, t)
                             : setupDense(args.seed, t);
            },
            tracer, args.trace, prober, setup_times, setup_probes,
            setup_spans);
        timed([&](Pass &pass) {
            for (const auto &job : in.jobs) {
                runDirectJob(in, job, tracer, outcomes, pass);
                prober.after(pass.latency_ms.size(), pass.probes);
            }
        });
        if (args.trace && !fig15) {
            Json replay_probes = Json::array();
            prober.burst(kReplayProbes, replay_probes);
            doc["timing_replay_ms"] = timingReplay(in);
            prober.burst(kReplayProbes, replay_probes);
            doc["replay_probes"] = std::move(replay_probes);
        }
    }

    doc["setup_s"] = std::move(setup_times);
    doc["setup_probes"] = std::move(setup_probes);
    doc["setup_spans"] = std::move(setup_spans);
    doc["passes"] = std::move(passes);
    doc["jobs"] = outcomes.toJson();
    doc["peak_rss_kb"] = peakRssKb();
    std::printf("%s\n", doc.dump().c_str());
    return 0;
}
