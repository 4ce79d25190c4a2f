// End-to-end and per-layer benchmark of the AHB+ simulator.
//
// Drives the library from outside, through its public calls only, in a
// closed loop from one process: an op starts when the previous one ended.
// Every op's output is checked (see check_result), every layer call can be
// wrapped in a trace span, and the last line of stdout is one JSON object
// that perfbench/run.py turns into the benchmark result.  README.md next to
// this file explains the workloads and the layer -> metric -> workload map.
//
//   perfbench --workload table1-tlm|table1-accuracy|sweep-wbuf --seed N
//             --seconds S --trace 0|1 --out DIR [--tiny]

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <exception>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <sys/resource.h>

#include "core/checkpoint.hpp"
#include "core/platform.hpp"
#include "scenario/registry.hpp"
#include "scenario/scenario.hpp"
#include "state/snapshot.hpp"
#include "stats/report.hpp"
#include "sweep/runner.hpp"
#include "sweep/spec.hpp"
#include "traffic/trace_bin.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace {

using namespace ahbp;
namespace fs = std::filesystem;

// ------------------------------------------------------------------ clock --

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolated percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/// Cost of one steady_clock read: the median over batches, so a preempted
/// batch does not inflate it.  Every span pays about one read inside its
/// interval; the tracer subtracts it.
double calibrate_clock_ns() {
  constexpr int kBatch = 20000;
  std::vector<double> per_read;
  for (int b = 0; b < 15; ++b) {
    const std::int64_t t0 = now_ns();
    std::int64_t sink = 0;
    for (int i = 0; i < kBatch; ++i) {
      sink ^= now_ns();
    }
    const std::int64_t t1 = now_ns();
    per_read.push_back(static_cast<double>(t1 - t0 - (sink & 0)) / kBatch);
  }
  return median(per_read);
}

// ---------------------------------------------------------------- tracing --

/// One layer call: name, start, end, the span that caused it (-1 = none)
/// and the op it belongs to.  Spans outside an op (a layer timed through
/// its own public call, see run_pipeline_op) carry the op id but no parent.
struct Span {
  const char* name;
  std::int32_t parent;
  std::uint32_t op;
  std::int64_t start;
  std::int64_t end;
};

struct Tracer {
  bool enabled = false;
  std::vector<Span> spans;
  std::int32_t open = -1;
  std::uint32_t op = 0;
  std::vector<bool> op_is_main;  ///< per op id: main group (else probe)
};

/// RAII span; a no-op when tracing is off.
class Scope {
 public:
  Scope(Tracer& t, const char* name, bool detached = false) : t_(t) {
    if (!t_.enabled) {
      return;
    }
    idx_ = static_cast<std::int32_t>(t_.spans.size());
    t_.spans.push_back({name, detached ? -1 : t_.open, t_.op, 0, 0});
    saved_open_ = t_.open;
    t_.open = idx_;
    t_.spans[static_cast<std::size_t>(idx_)].start = now_ns();
  }
  ~Scope() {
    if (idx_ < 0) {
      return;
    }
    t_.spans[static_cast<std::size_t>(idx_)].end = now_ns();
    t_.open = saved_open_;
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& t_;
  std::int32_t idx_ = -1;
  std::int32_t saved_open_ = -1;
};

// ----------------------------------------------------------------- inputs --

std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ull;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
  return x ^ (x >> 31);
}

/// The k-th traffic seed of a run: distinct per (seed, k), kept small and
/// non-zero (0 means "preset default" to the registry).
std::uint64_t sub_seed(std::uint64_t seed, std::uint64_t k) {
  return 1 + splitmix64(seed * 1000003ull + k) % 1'000'000'000ull;
}

std::uint64_t fnv1a(std::string_view s,
                    std::uint64_t h = 0xcbf29ce484222325ull) {
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex64(std::uint64_t v) {
  std::ostringstream os;
  os << std::hex << std::setw(16) << std::setfill('0') << v;
  return os.str();
}

std::uint64_t scripted_txns(const core::PlatformConfig& cfg) {
  std::uint64_t n = 0;
  for (const auto& s : core::expand_stimulus(cfg)) {
    n += s.size();
  }
  return n;
}

/// One `run`-style op: scenario text plus dotted overrides, run on TLM and,
/// when `rtl`, on RTL too.
struct PipelineInput {
  std::string row;   ///< Table-1 row, the unit cycle errors are grouped by
  std::string name;  ///< row + traffic seed
  std::string text;  ///< serialized scenario
  std::vector<std::pair<std::string, std::string>> overrides;
  bool rtl = false;
  std::uint64_t expected_txns = 0;
};

/// One design-space sweep over a trace-replayed base, run cold and warm.
struct SweepInput {
  std::string name;
  std::string sweep_text;
  std::string base_text;
  core::PlatformConfig base;  ///< parsed base (traces resolved from disk)
  sim::Cycle warmup = 0;
  sim::Cycle capture_cycles = 0;
  sim::Cycle capture_ran = 0;
  std::uint64_t expected_txns = 0;
  std::unique_ptr<core::Platform> warm;  ///< base warmed to `warmup`
};

const char* const kTable1Rows[] = {"cpu-1", "cpu-2", "cpu-3", "cpu-4",
                                   "dma-1", "dma-2", "dma-3", "dma-4",
                                   "rt-1",  "rt-2",  "rt-3",  "rt-4"};

std::vector<PipelineInput> make_table1_inputs(std::uint64_t seed,
                                              unsigned subseeds,
                                              unsigned items, bool rtl,
                                              bool checkers) {
  const auto& reg = scenario::ScenarioRegistry::builtin();
  std::vector<PipelineInput> out;
  for (unsigned k = 0; k < subseeds; ++k) {
    const std::uint64_t s = sub_seed(seed, k);
    for (const char* row : kTable1Rows) {
      const core::PlatformConfig cfg =
          reg.build(std::string("table1/") + row, items, s);
      PipelineInput in;
      in.row = row;
      in.name = std::string(row) + "/s" + std::to_string(s);
      in.text = scenario::serialize(cfg);
      in.overrides = {{"platform.checkers", checkers ? "on" : "off"}};
      in.rtl = rtl;
      in.expected_txns = scripted_txns(cfg);
      out.push_back(std::move(in));
    }
  }
  return out;
}

// The sweep axes.  `bus.drain_watermark` is deliberately absent: values > 1
// strand posted writes and hang the run (see README.md).
const char* const kSweepAxes =
    "bus.write_buffer_depth = 1, 2, 4, 8\n"
    "bus.filter_mask = 0x7f, 0x77\n"
    "ddr.preset = ddr266, ddr400\n"
    "master0.objective = 16, 32, 64\n";
/// The point whose values equal the base's.
const char* const kSweepBaseLabel =
    "bus.write_buffer_depth=1 bus.filter_mask=0x7f ddr.preset=ddr266 "
    "master0.objective=32";

void write_file(const fs::path& p, std::string_view bytes) {
  std::ofstream os(p, std::ios::binary);
  os.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  if (!os) {
    throw std::runtime_error("cannot write " + p.string());
  }
}

/// The write-dominated wbuf-stress preset with master 0 made a real-time
/// master, captured on TLM into binary traces under `dir`; the base the
/// sweep sees replays those traces.  Throws when the replay does not
/// reproduce the capture exactly.
std::unique_ptr<SweepInput> make_sweep_input(std::uint64_t seed,
                                             unsigned items,
                                             const fs::path& dir) {
  fs::create_directories(dir);
  core::PlatformConfig cfg =
      scenario::ScenarioRegistry::builtin().build("wbuf-stress", items, seed);
  scenario::apply_key(cfg, "master0.class", "rt");
  scenario::apply_key(cfg, "master0.objective", "32");
  scenario::apply_key(cfg, "bus.write_buffer_depth", "1");
  scenario::validate(cfg);

  core::Platform cap(cfg, core::ModelKind::kTlm);
  cap.enable_capture();
  cap.run(cfg.max_cycles);
  const core::SimResult cr = cap.result();
  if (!cr.finished || cr.protocol_errors != 0) {
    throw std::runtime_error("sweep capture run did not finish cleanly");
  }
  for (std::size_t m = 0; m < cfg.masters.size(); ++m) {
    const fs::path p = dir / ("master" + std::to_string(m) + ".trace");
    write_file(p, traffic::trace_bin_bytes(
                      cap.capture(static_cast<ahb::MasterId>(m)).captured()));
    traffic::StimulusSpec& st = cfg.masters[m].traffic;
    st.source = traffic::StimulusSource::kTrace;
    st.trace_path = fs::absolute(p).string();
    st.trace_text.clear();
    st.trace_loaded = false;
  }

  auto in = std::make_unique<SweepInput>();
  in->name = "wbuf-stress/s" + std::to_string(seed);
  in->base_text = scenario::serialize(cfg);
  const fs::path base_path = fs::absolute(dir / "base.scn");
  write_file(base_path, in->base_text);
  in->sweep_text =
      "base = " + base_path.string() + "\n\n[sweep]\n" + kSweepAxes;
  in->base = scenario::parse(in->base_text);
  core::resolve_stimulus(in->base);
  in->capture_cycles = cr.cycles;
  in->capture_ran = cr.ran_cycles;
  in->expected_txns = scripted_txns(in->base);
  in->warmup = std::max<sim::Cycle>(1, cr.cycles * 2 / 5);

  core::Platform replay(in->base, core::ModelKind::kTlm);
  replay.run(in->base.max_cycles);
  const core::SimResult rr = replay.result();
  if (rr.cycles != cr.cycles || rr.ran_cycles != cr.ran_cycles) {
    throw std::runtime_error(
        "replay of the capture ran " + std::to_string(rr.cycles) +
        " cycles, the capture " + std::to_string(cr.cycles));
  }
  in->warm = std::make_unique<core::Platform>(in->base, core::ModelKind::kTlm);
  in->warm->run(in->warmup);
  return in;
}

// ---------------------------------------------------------------- results --

/// Simulated-time counters of one model, summed over runs.  A speed-only
/// change must leave every one of them exactly unchanged.
struct Counters {
  std::uint64_t bus_cycles = 0, bus_busy = 0, grants = 0, handovers = 0;
  std::uint64_t absorbed = 0, bypassed = 0, full_stalls = 0;
  std::uint64_t row_hits = 0, row_total = 0;
  std::uint64_t stall[obs::kStallClassCount] = {};
  std::uint64_t violations = 0;

  void add(const core::SimResult& r) {
    const stats::RunProfile& p = r.profile;
    bus_cycles += p.bus.cycles;
    bus_busy += p.bus.busy_cycles;
    grants += p.bus.grants;
    handovers += p.bus.handovers;
    absorbed += p.write_buffer.absorbed;
    bypassed += p.write_buffer.bypassed;
    full_stalls += p.write_buffer.full_stalls;
    row_hits += p.ddr.hits.row_hits;
    row_total +=
        p.ddr.hits.row_hits + p.ddr.hits.row_misses + p.ddr.hits.row_conflicts;
    for (const auto& m : p.masters) {
      for (unsigned c = 0; c < obs::kStallClassCount; ++c) {
        stall[c] += m.stalls.cycles[c];
      }
    }
    violations += r.protocol_errors;
  }
};

/// Host time of one model's cold runs (the library's own measure of the
/// time spent inside Platform::run).
struct ModelTime {
  std::uint64_t cycles = 0;
  std::uint64_t activity = 0;
  double wall = 0.0;
  std::vector<double> run_ms;

  void add(const core::SimResult& r) {
    cycles += r.ran_cycles;
    activity += r.kernel_activity;
    wall += r.wall_seconds;
    run_ms.push_back(r.wall_seconds * 1e3);
  }
  void merge(const ModelTime& o) {
    cycles += o.cycles;
    activity += o.activity;
    wall += o.wall;
    run_ms.insert(run_ms.end(), o.run_ms.begin(), o.run_ms.end());
  }
  double kcycles_per_s() const {
    return wall > 0 ? static_cast<double>(cycles) / wall / 1e3 : 0.0;
  }
};

/// Everything one group of ops (main or probe) produced in one pass.
struct PassStats {
  double main_wall_s = 0.0;
  std::vector<double> op_ms;
  ModelTime tlm, rtl;
  ModelTime tlm_paired;  ///< TLM runs of ops that also ran RTL
  std::vector<std::pair<std::string, double>> errors;  ///< (row, |e| %)
  std::vector<double> cold_points_per_s, warm_points_per_s, fork_ms;
  std::vector<double> warm_point_ms;
  std::uint64_t forks = 0, demoted = 0;
  std::uint64_t txns = 0;
  std::size_t snapshot_bytes = 0;
};

struct Checker {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> messages;
  bool op_failed = false;

  void fail(const std::string& what) {
    op_failed = true;
    if (messages.size() < 20) {
      messages.push_back(what);
    }
  }
  void begin_op() { op_failed = false; }
  void end_op() {
    ++attempted;
    if (op_failed) {
      ++failed;
    }
  }
};

/// The per-run output checks: finished, zero protocol errors, every scripted
/// transaction retired, and each master's stall classes summing to the
/// cycles it ran.  A run that reaches max_cycles is unfinished, so fails.
void check_result(Checker& ck, const std::string& what,
                  const core::SimResult& r, std::uint64_t expected_txns) {
  if (!r.finished) {
    ck.fail(what + ": " + r.model + " did not finish (ran " +
            std::to_string(r.ran_cycles) + " cycles)");
  }
  if (r.protocol_errors != 0) {
    ck.fail(what + ": " + r.model + " " + std::to_string(r.protocol_errors) +
            " protocol errors");
  }
  if (r.completed != expected_txns) {
    ck.fail(what + ": " + r.model + " retired " + std::to_string(r.completed) +
            " of " + std::to_string(expected_txns) + " transactions");
  }
  for (const auto& m : r.profile.masters) {
    if (m.stalls.total() != r.ran_cycles) {
      ck.fail(what + ": " + r.model + " " + m.name + " stall classes sum to " +
              std::to_string(m.stalls.total()) + ", ran " +
              std::to_string(r.ran_cycles));
    }
  }
}

/// Digest of simulated statistics: identical for identical inputs, whatever
/// the host timing or tracing.
void digest_result(std::uint64_t& h, const core::SimResult& r) {
  const stats::RunProfile& p = r.profile;
  std::ostringstream os;
  os << r.model << ' ' << r.finished << ' ' << r.cycles << ' '
     << r.ran_cycles << ' ' << r.completed << ' ' << r.protocol_errors << ' '
     << r.qos_warnings << ' ' << p.bus.busy_cycles << ' ' << p.bus.grants
     << ' ' << p.bus.handovers << ' ' << p.bus.bytes << ' '
     << p.write_buffer.absorbed << ' ' << p.write_buffer.bypassed << ' '
     << p.write_buffer.full_stalls << ' ' << p.ddr.hits.row_hits << ' '
     << p.ddr.hits.row_misses << ' ' << p.ddr.hits.row_conflicts;
  for (const auto& m : p.masters) {
    for (const auto c : m.stalls.cycles) {
      os << ' ' << c;
    }
  }
  h = fnv1a(os.str(), h);
}

/// One op as measured: what ran, its wall time and its models' host time.
struct OpRecord {
  std::size_t pass;
  bool main;
  bool traced;
  std::string name;
  double wall_ms;
  std::uint64_t tlm_cycles, rtl_cycles;
  double tlm_ms, rtl_ms;
};

struct RunState {
  std::vector<OpRecord> ops;
  std::size_t pass = 0;
  Tracer tracer;
  Checker ck;
  Counters tlm_counters, rtl_counters;
  std::uint64_t digest = 0xcbf29ce484222325ull;
  bool collect = true;  ///< sum counters (first timed pass only)
  std::ostringstream sink;  ///< report output goes here, not to stdout
};

void note_result(RunState& st, const core::SimResult& r) {
  digest_result(st.digest, r);
  if (st.collect) {
    (r.model == "rtl" ? st.rtl_counters : st.tlm_counters).add(r);
  }
}

// -------------------------------------------------------------------- ops --

/// parse -> apply_key -> validate -> construct -> run -> result -> report,
/// per model.  The Platform constructor expands the stimulus itself; with
/// tracing on, expansion is timed once more through its own public call,
/// outside the op, so it is measured but not counted twice in coverage.
void run_pipeline_op(RunState& st, PassStats& ps, const PipelineInput& in) {
  Tracer& t = st.tracer;
  const std::int64_t t0 = now_ns();
  core::SimResult tlm_r, rtl_r;
  core::PlatformConfig cfg;
  {
    Scope op(t, "op");
    {
      Scope s(t, "scenario.parse");
      cfg = scenario::parse(in.text);
    }
    for (const auto& [k, v] : in.overrides) {
      Scope s(t, "scenario.apply_key");
      scenario::apply_key(cfg, k, v);
    }
    {
      Scope s(t, "scenario.validate");
      scenario::validate(cfg);
    }
    for (int pass = 0; pass < (in.rtl ? 2 : 1); ++pass) {
      const bool rtl = pass == 1;
      std::unique_ptr<core::Platform> p;
      {
        Scope s(t, "core.construct");
        p = std::make_unique<core::Platform>(
            cfg, rtl ? core::ModelKind::kRtl : core::ModelKind::kTlm);
      }
      {
        Scope s(t, rtl ? "rtl.run" : "tlm.run");
        p->run(cfg.max_cycles);
      }
      core::SimResult r;
      {
        Scope s(t, "core.result");
        r = p->result();
      }
      {
        Scope s(t, "stats.report");
        stats::print_report(st.sink, r.profile, r.model + " " + in.name);
        core::write_stats_json(st.sink, r);
      }
      (rtl ? rtl_r : tlm_r) = std::move(r);
      {
        Scope s(t, "core.teardown");
        p.reset();
      }
    }
  }
  const std::int64_t t1 = now_ns();
  ps.op_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  st.sink.str("");

  if (t.enabled) {
    Scope s(t, "traffic.expand", /*detached=*/true);
    const auto scripts = core::expand_stimulus(cfg);
    for (const auto& sc : scripts) {
      ps.txns += sc.size();
    }
  }

  check_result(st.ck, in.name, tlm_r, in.expected_txns);
  note_result(st, tlm_r);
  ps.tlm.add(tlm_r);
  if (in.rtl) {
    check_result(st.ck, in.name, rtl_r, in.expected_txns);
    note_result(st, rtl_r);
    ps.rtl.add(rtl_r);
    ps.tlm_paired.add(tlm_r);
    ps.errors.emplace_back(in.row,
                           100.0 * sweep::cycle_error(tlm_r, rtl_r));
  }
}

/// "k1=v1 k2=v2" point label -> its (key, value) overrides.
std::vector<std::pair<std::string, std::string>> split_label(
    const std::string& label) {
  std::vector<std::pair<std::string, std::string>> kv;
  std::istringstream is(label);
  std::string tok;
  while (is >> tok) {
    const std::size_t eq = tok.find('=');
    if (eq != std::string::npos) {
      kv.emplace_back(tok.substr(0, eq), tok.substr(eq + 1));
    }
  }
  return kv;
}

/// Number of save+restore forks timed per sweep op.
constexpr int kForksPerOp = 8;

/// parse_spec -> expand -> cold sweep -> warm-forked sweep -> report, then
/// the fork cost on its own: save the warm base, restore it into a fresh
/// platform, and check the resumed run reproduces the capture exactly.
void run_sweep_op(RunState& st, PassStats& ps, const SweepInput& in,
                  unsigned jobs) {
  Tracer& t = st.tracer;
  const sweep::SweepRunner runner(jobs);
  const std::int64_t t0 = now_ns();
  std::vector<sweep::PointOutcome> cold, warm;
  std::vector<sweep::SweepPoint> points;
  double cold_s = 0.0, warm_s = 0.0;
  std::vector<double> fork_ms;
  core::SimResult fork_r;
  std::size_t snapshot_bytes = 0;
  {
    Scope op(t, "op");
    sweep::SweepSpec spec;
    {
      Scope s(t, "scenario.parse");
      spec = sweep::parse_spec(in.sweep_text);
    }
    {
      Scope s(t, "sweep.expand");
      points = sweep::expand(spec);
    }
    {
      Scope s(t, "sweep.run_cold");
      const std::int64_t a = now_ns();
      cold = runner.run(points, sweep::Model::kTlm);
      cold_s = static_cast<double>(now_ns() - a) / 1e9;
    }
    {
      Scope s(t, "sweep.run_warm");
      const std::int64_t a = now_ns();
      warm = runner.run(points, sweep::Model::kTlm, spec.base_config,
                        in.warmup);
      warm_s = static_cast<double>(now_ns() - a) / 1e9;
    }
    {
      Scope s(t, "stats.report");
      sweep::write_point_csv(st.sink, cold, sweep::Model::kTlm);
      sweep::write_point_csv(st.sink, warm, sweep::Model::kTlm);
    }
    std::unique_ptr<core::Platform> fork;
    for (int k = 0; k < kForksPerOp; ++k) {
      std::vector<std::uint8_t> bytes;
      const std::int64_t a = now_ns();
      {
        Scope s(t, "state.save");
        state::StateWriter w;
        in.warm->save_state(w);
        bytes = w.finish();
      }
      const std::int64_t b = now_ns();
      {
        Scope s(t, "core.construct");
        fork = std::make_unique<core::Platform>(in.base,
                                                core::ModelKind::kTlm);
      }
      const std::int64_t c = now_ns();
      {
        Scope s(t, "state.restore");
        state::StateReader r(bytes.data(), bytes.size());
        fork->restore_state(r);
      }
      const std::int64_t d = now_ns();
      fork_ms.push_back(static_cast<double>((b - a) + (d - c)) / 1e6);
      snapshot_bytes = bytes.size();
    }
    {
      Scope s(t, "tlm.run");
      fork->run(in.base.max_cycles);
    }
    {
      Scope s(t, "core.result");
      fork_r = fork->result();
    }
    {
      Scope s(t, "stats.report");
      core::write_stats_json(st.sink, fork_r);
    }
  }
  const std::int64_t t1 = now_ns();
  ps.op_ms.push_back(static_cast<double>(t1 - t0) / 1e6);
  st.sink.str("");

  if (t.enabled) {
    // Layers the sweep runner calls internally, timed through their own
    // public calls outside the op: per-point overrides and trace expansion.
    for (const auto& p : points) {
      core::PlatformConfig cfg = in.base;
      for (const auto& kv : split_label(p.label)) {
        Scope s(t, "scenario.apply_key", /*detached=*/true);
        scenario::apply_key(cfg, kv.first, kv.second);
      }
    }
    Scope s(t, "traffic.expand", /*detached=*/true);
    for (const auto& sc : core::expand_stimulus(in.base)) {
      ps.txns += sc.size();
    }
  }

  const auto n = static_cast<double>(points.size());
  ps.cold_points_per_s.push_back(n / cold_s);
  ps.warm_points_per_s.push_back(n / warm_s);
  ps.fork_ms.insert(ps.fork_ms.end(), fork_ms.begin(), fork_ms.end());
  ps.snapshot_bytes = snapshot_bytes;

  bool saw_base = false;
  for (auto* set : {&cold, &warm}) {
    const bool is_warm = set == &warm;
    for (const auto& o : *set) {
      const std::string what =
          in.name + (is_warm ? " warm " : " cold ") + o.label;
      if (!o.error.empty() || !o.has_tlm) {
        st.ck.fail(what + ": " + o.error);
        continue;
      }
      check_result(st.ck, what, o.tlm, in.expected_txns);
      note_result(st, o.tlm);
      if (is_warm) {
        ++ps.forks;
        ps.demoted += o.demoted ? 1 : 0;
        ps.warm_point_ms.push_back(o.tlm.wall_seconds * 1e3);
      } else {
        ps.tlm.add(o.tlm);
      }
      if (o.label == kSweepBaseLabel) {
        saw_base = true;
        if (o.tlm.cycles != in.capture_cycles) {
          st.ck.fail(what + ": replay ran " + std::to_string(o.tlm.cycles) +
                     " cycles, the capture " +
                     std::to_string(in.capture_cycles));
        }
      }
    }
  }
  if (!saw_base) {
    st.ck.fail(in.name + ": no sweep point matches the base");
  }
  check_result(st.ck, in.name + " fork", fork_r, in.expected_txns);
  note_result(st, fork_r);
  if (fork_r.cycles != in.capture_cycles ||
      fork_r.ran_cycles != in.capture_ran) {
    st.ck.fail(in.name + ": restored run ended at cycle " +
               std::to_string(fork_r.cycles) + ", the capture at " +
               std::to_string(in.capture_cycles));
  }
}

// -------------------------------------------------------------- workloads --

/// A list of ops run once per pass.  Sweep inputs run `sweep_reps` times.
struct Group {
  std::vector<PipelineInput> pipes;
  std::vector<std::unique_ptr<SweepInput>> sweeps;
  unsigned sweep_reps = 1;

  bool has_rtl() const {
    return std::any_of(pipes.begin(), pipes.end(),
                       [](const PipelineInput& p) { return p.rtl; });
  }
  std::size_t ops() const { return pipes.size() + sweeps.size() * sweep_reps; }
};

/// `main` is the workload proper.  `probe` is a small fixed-input group
/// (traffic seed kProbeSeed, whatever --seed says) that measures the
/// end-to-end metrics whose layers the main group leaves idle, so every
/// metric is measured on every workload: the Table-1 rows on both models
/// where main runs no RTL, and the wbuf-stress sweep where main runs no
/// sweep.  Its inputs never change, so it adds no seed-to-seed spread.
struct Workload {
  Group main, probe;
  std::vector<std::uint64_t> traffic_seeds;
};

struct Sizes {
  unsigned tlm_items, tlm_subseeds;  // table1-tlm
  unsigned acc_items, acc_subseeds;  // table1-accuracy
  unsigned sweep_items, sweep_reps;  // sweep-wbuf
  unsigned probe_items;              // probe Table-1 rows
  unsigned probe_sweep_reps_tlm, probe_sweep_reps_acc;
};

constexpr Sizes kFull{2000, 4, 400, 16, 150, 12, 100, 3, 16};
constexpr Sizes kTiny{60, 1, 40, 1, 40, 2, 30, 1, 1};
constexpr std::uint64_t kProbeSeed = 1;
constexpr std::size_t kMinOps = 100;

Workload make_workload(const std::string& name, std::uint64_t seed,
                       const Sizes& z, const fs::path& dir) {
  Workload w;
  const std::uint64_t probe_seed = sub_seed(kProbeSeed, 0);
  auto probe_table1 = [&] {
    return make_table1_inputs(kProbeSeed, 1, z.probe_items, true, true);
  };
  auto probe_sweep = [&] {
    return make_sweep_input(probe_seed, z.sweep_items, dir / "probe-sweep");
  };
  if (name == "table1-tlm") {
    w.main.pipes =
        make_table1_inputs(seed, z.tlm_subseeds, z.tlm_items, false, false);
    w.probe.pipes = probe_table1();
    w.probe.sweeps.push_back(probe_sweep());
    w.probe.sweep_reps = z.probe_sweep_reps_tlm;
    for (unsigned k = 0; k < z.tlm_subseeds; ++k) {
      w.traffic_seeds.push_back(sub_seed(seed, k));
    }
  } else if (name == "table1-accuracy") {
    w.main.pipes =
        make_table1_inputs(seed, z.acc_subseeds, z.acc_items, true, true);
    w.probe.sweeps.push_back(probe_sweep());
    w.probe.sweep_reps = z.probe_sweep_reps_acc;
    for (unsigned k = 0; k < z.acc_subseeds; ++k) {
      w.traffic_seeds.push_back(sub_seed(seed, k));
    }
  } else if (name == "sweep-wbuf") {
    w.main.sweeps.push_back(
        make_sweep_input(sub_seed(seed, 0), z.sweep_items, dir / "sweep"));
    w.main.sweep_reps = z.sweep_reps;
    w.probe.pipes = probe_table1();
    w.traffic_seeds.push_back(sub_seed(seed, 0));
  } else {
    throw std::invalid_argument("unknown workload '" + name + "'");
  }
  return w;
}

/// (input name, FNV-1a of its serialized scenario / sweep text).  The work
/// directory is masked out of the text first, so the hash names the input,
/// not where the checkout lives.
std::vector<std::pair<std::string, std::string>> scenario_hashes(
    const Workload& w, const fs::path& dir) {
  const std::string work = fs::absolute(dir).string();
  auto hash = [&](std::string text) {
    for (std::size_t at = text.find(work); at != std::string::npos;
         at = text.find(work, at)) {
      text.replace(at, work.size(), "<work>");
    }
    return hex64(fnv1a(text));
  };
  std::vector<std::pair<std::string, std::string>> out;
  for (const Group* g : {&w.main, &w.probe}) {
    const std::string tag = g == &w.main ? "" : "probe:";
    for (const auto& p : g->pipes) {
      out.emplace_back(tag + p.name, hash(p.text));
    }
    for (const auto& s : g->sweeps) {
      out.emplace_back(tag + s->name + ":base", hash(s->base_text));
      out.emplace_back(tag + s->name + ":sweep", hash(s->sweep_text));
    }
  }
  return out;
}

// ----------------------------------------------------------------- passes --

struct Pass {
  PassStats main, probe;
  double wall_s = 0.0;  ///< main + probe
  bool traced = false;
};

/// One op of a group: a pipeline input, or one rep of a sweep input.
struct OpRef {
  const PipelineInput* pipe;
  const SweepInput* sweep;
};

/// `g`'s ops in pass order; a warm-up takes only the first Table-1 seed's
/// rows and one rep of each sweep.
std::vector<OpRef> op_list(const Group& g, bool warm_up) {
  std::vector<OpRef> ops;
  const std::size_t np =
      warm_up ? std::min(std::size(kTable1Rows), g.pipes.size())
              : g.pipes.size();
  for (std::size_t i = 0; i < np; ++i) {
    ops.push_back({&g.pipes[i], nullptr});
  }
  const unsigned reps = warm_up ? std::min(1u, g.sweep_reps) : g.sweep_reps;
  for (unsigned r = 0; r < reps; ++r) {
    for (const auto& sw : g.sweeps) {
      ops.push_back({nullptr, sw.get()});
    }
  }
  return ops;
}

/// Run one op, counting it and its failures; returns its wall seconds.
double run_op(RunState& st, PassStats& ps, bool is_main, const OpRef& op,
              unsigned jobs) {
  st.tracer.op_is_main.push_back(is_main);
  st.tracer.op = static_cast<std::uint32_t>(st.tracer.op_is_main.size() - 1);
  const ModelTime tlm0 = ps.tlm, rtl0 = ps.rtl;
  const std::string& what = op.pipe ? op.pipe->name : op.sweep->name;
  const std::int64_t t0 = now_ns();
  st.ck.begin_op();
  try {
    if (op.pipe) {
      run_pipeline_op(st, ps, *op.pipe);
    } else {
      run_sweep_op(st, ps, *op.sweep, jobs);
    }
  } catch (const std::exception& e) {
    st.ck.fail(what + ": " + e.what());
  }
  st.ck.end_op();
  const double wall = static_cast<double>(now_ns() - t0) / 1e9;
  st.ops.push_back({st.pass, is_main, st.tracer.enabled, what, wall * 1e3,
                    ps.tlm.cycles - tlm0.cycles, ps.rtl.cycles - rtl0.cycles,
                    (ps.tlm.wall - tlm0.wall) * 1e3,
                    (ps.rtl.wall - rtl0.wall) * 1e3});
  return wall;
}

/// One pass: every main op once, with the probe's ops spread evenly among
/// them so both sample the same stretch of host time.
Pass run_pass(RunState& st, const Workload& w, unsigned jobs, bool traced,
              bool warm_up = false) {
  Pass p;
  p.traced = traced;
  st.tracer.enabled = traced;
  const std::vector<OpRef> mains = op_list(w.main, warm_up);
  const std::vector<OpRef> probes = op_list(w.probe, warm_up);
  const std::int64_t t0 = now_ns();
  std::size_t next_probe = 0;
  for (std::size_t i = 0; i < mains.size(); ++i) {
    p.main.main_wall_s += run_op(st, p.main, true, mains[i], jobs);
    for (; next_probe * mains.size() < (i + 1) * probes.size(); ++next_probe) {
      run_op(st, p.probe, false, probes[next_probe], jobs);
    }
  }
  for (; next_probe < probes.size(); ++next_probe) {
    run_op(st, p.probe, false, probes[next_probe], jobs);
  }
  p.wall_s = static_cast<double>(now_ns() - t0) / 1e9;
  st.tracer.enabled = false;
  return p;
}

/// Set the workload up: generate inputs, capture traces, then warm up with
/// a short pass (the first Table-1 seed's rows, one rep of each sweep).
void set_up(RunState& st, Workload& w, const std::string& name,
            std::uint64_t seed, const Sizes& z, const fs::path& dir,
            unsigned jobs) {
  w = make_workload(name, seed, z, dir);
  const bool collect = st.collect;
  st.collect = false;
  run_pass(st, w, jobs, false, true);
  st.collect = collect;
}

// ---------------------------------------------------------------- metrics --

struct Metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_str(std::string_view s) {
  std::string o = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      o += '\\';
      o += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      o += ' ';
    } else {
      o += c;
    }
  }
  return o + "\"";
}

/// Full-precision number (obs::JsonWriter rounds to 6 significant digits,
/// too coarse for measured times).
std::string json_num(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  std::ostringstream os;
  os << std::setprecision(17) << v;
  return os.str();
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

/// The group a metric comes from: main when it produces it, else probe.
const PassStats& pick(const Pass& p, bool main_has) {
  return main_has ? p.main : p.probe;
}

std::vector<Metric> end_to_end_metrics(const std::vector<Pass>& passes,
                                       const Workload& w,
                                       const std::vector<double>& setup_s) {
  // Host rates pool every timed pass (total simulated cycles over total
  // host seconds in Platform::run); per-pass rates spread wider.
  std::vector<double> wall, ops, cold, warm, fork;
  ModelTime tlm, rtl, tlm_paired;
  const bool main_rtl = w.main.has_rtl();
  const bool main_sweep = !w.main.sweeps.empty();
  for (const Pass& p : passes) {
    wall.push_back(p.main.main_wall_s);
    ops.insert(ops.end(), p.main.op_ms.begin(), p.main.op_ms.end());
    tlm.merge(p.main.tlm);
    const PassStats& a = pick(p, main_rtl);
    rtl.merge(a.rtl);
    tlm_paired.merge(a.tlm_paired);
    const PassStats& s = pick(p, main_sweep);
    cold.insert(cold.end(), s.cold_points_per_s.begin(),
                s.cold_points_per_s.end());
    warm.insert(warm.end(), s.warm_points_per_s.begin(),
                s.warm_points_per_s.end());
    fork.insert(fork.end(), s.fork_ms.begin(), s.fork_ms.end());
  }

  // Cycle error over the distinct inputs (one pass; simulated, so every
  // pass repeats it exactly): the mean over every (row, seed), and the
  // worst row's mean over its seeds.
  const auto& errs = pick(passes.front(), main_rtl).errors;
  std::map<std::string, std::vector<double>> by_row;
  double sum = 0.0;
  for (const auto& [row, e] : errs) {
    by_row[row].push_back(e);
    sum += e;
  }
  double worst = 0.0;
  for (const auto& [row, v] : by_row) {
    double s = 0.0;
    for (const double e : v) {
      s += e;
    }
    worst = std::max(worst, s / static_cast<double>(v.size()));
  }

  return {
      {"setup_s", median(setup_s), "s"},
      {"wall_s", median(wall), "s"},
      {"op_ms_p50", percentile(ops, 0.5), "ms"},
      {"op_ms_p90", percentile(ops, 0.9), "ms"},
      {"tlm_kcycles_per_s", tlm.kcycles_per_s(), "kcycles/s"},
      {"rtl_kcycles_per_s", rtl.kcycles_per_s(), "kcycles/s"},
      {"tlm_rtl_speedup", tlm_paired.kcycles_per_s() / rtl.kcycles_per_s(),
       "x"},
      {"cycle_error_pct_mean",
       errs.empty() ? 0.0 : sum / static_cast<double>(errs.size()), "%"},
      {"cycle_error_pct_max", worst, "%"},
      {"points_per_s_cold", median(cold), "1/s"},
      {"points_per_s_warm", median(warm), "1/s"},
      {"fork_ms", median(fork), "ms"},
      {"peak_rss_mb", peak_rss_mb(), "MB"},
  };
}

struct TraceSummary {
  std::map<std::string, double> self_ms;  ///< total self time per layer
  double coverage = 0.0;
};

std::vector<Metric> per_layer_metrics(const std::vector<Pass>& passes,
                                      const Workload& w, const RunState& st,
                                      double clock_ns, TraceSummary& ts) {
  const Tracer& t = st.tracer;
  const bool main_rtl = w.main.has_rtl();
  const bool main_sweep = !w.main.sweeps.empty();

  // Span durations less one clock read; self = duration - children.
  std::vector<double> dur(t.spans.size()), child(t.spans.size(), 0.0);
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    dur[i] = std::max(0.0, static_cast<double>(s.end - s.start) - clock_ns);
    if (s.parent >= 0) {
      child[static_cast<std::size_t>(s.parent)] += dur[i];
    }
  }
  double op_total = 0.0, covered = 0.0;
  std::map<std::string, std::vector<double>> main_ms, probe_ms;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    const std::string name = s.name;
    if (name == "op") {
      op_total += dur[i];
      covered += child[i];
      continue;
    }
    const double self = dur[i] - child[i];
    ts.self_ms[name] += self / 1e6;
    (t.op_is_main[s.op] ? main_ms : probe_ms)[name].push_back(dur[i] / 1e6);
  }
  ts.coverage = op_total > 0 ? covered / op_total : 0.0;

  auto span_ms = [&](const std::string& name) {
    const auto m = main_ms.find(name);
    if (m != main_ms.end()) {
      return median(m->second);
    }
    const auto p = probe_ms.find(name);
    return p != probe_ms.end() ? median(p->second) : 0.0;
  };

  // Per-model host time and traffic, from the traced passes.
  ModelTime tlm, rtl;
  std::uint64_t txns = 0, txns_all = 0;
  std::vector<double> point_ms;
  std::uint64_t forks = 0, demoted = 0;
  std::size_t snapshot_bytes = 0;
  for (const Pass& p : passes) {
    if (!p.traced) {
      continue;
    }
    tlm.merge(p.main.tlm);
    rtl.merge(pick(p, main_rtl).rtl);
    const PassStats& s = pick(p, main_sweep);
    point_ms.insert(point_ms.end(), s.warm_point_ms.begin(),
                    s.warm_point_ms.end());
    forks += s.forks;
    demoted += s.demoted;
    snapshot_bytes = s.snapshot_bytes;
    txns = txns_all == 0 ? p.main.txns : txns;
    txns_all += p.main.txns;
  }
  // ns per expanded transaction over the main group's expand spans.
  double expand_ms_sum = 0.0;
  if (const auto it = main_ms.find("traffic.expand"); it != main_ms.end()) {
    for (const double v : it->second) {
      expand_ms_sum += v;
    }
  }

  auto per = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  std::vector<Metric> m = {
      {"scenario.parse_ms", span_ms("scenario.parse"), "ms"},
      {"scenario.apply_key_us", span_ms("scenario.apply_key") * 1e3, "us"},
      {"traffic.expand_ms", span_ms("traffic.expand"), "ms"},
      {"traffic.txns", static_cast<double>(txns), "count"},
      {"traffic.ns_per_txn",
       per(expand_ms_sum * 1e6, static_cast<double>(txns_all)), "ns"},
      {"core.construct_ms", span_ms("core.construct"), "ms"},
      {"tlm.run_ms", median(tlm.run_ms), "ms"},
      {"tlm.ns_per_cycle", per(tlm.wall * 1e9, static_cast<double>(tlm.cycles)),
       "ns"},
      {"tlm.ns_per_eval",
       per(tlm.wall * 1e9, static_cast<double>(tlm.activity)), "ns"},
      {"tlm.evals_per_cycle",
       per(static_cast<double>(tlm.activity), static_cast<double>(tlm.cycles)),
       "evals/cycle"},
      {"rtl.run_ms", median(rtl.run_ms), "ms"},
      {"rtl.ns_per_cycle", per(rtl.wall * 1e9, static_cast<double>(rtl.cycles)),
       "ns"},
      {"rtl.ns_per_delta",
       per(rtl.wall * 1e9, static_cast<double>(rtl.activity)), "ns"},
      {"rtl.deltas_per_cycle",
       per(static_cast<double>(rtl.activity), static_cast<double>(rtl.cycles)),
       "deltas/cycle"},
      {"state.save_ms", span_ms("state.save"), "ms"},
      {"state.restore_ms", span_ms("state.restore"), "ms"},
      {"state.snapshot_bytes", static_cast<double>(snapshot_bytes), "bytes"},
      {"sweep.expand_ms", span_ms("sweep.expand"), "ms"},
      {"sweep.point_ms_p50", median(point_ms), "ms"},
      {"sweep.fork_useful_ratio",
       per(static_cast<double>(forks - demoted), static_cast<double>(forks)),
       "ratio"},
      {"stats.report_ms", span_ms("stats.report"), "ms"},
  };

  for (const bool rtl_model : {false, true}) {
    const Counters& c = rtl_model ? st.rtl_counters : st.tlm_counters;
    const std::string sfx = rtl_model ? ".rtl" : ".tlm";
    m.push_back({"bus.utilization" + sfx,
                 per(static_cast<double>(c.bus_busy),
                     static_cast<double>(c.bus_cycles)),
                 "ratio"});
    m.push_back({"bus.grants" + sfx, static_cast<double>(c.grants), "count"});
    m.push_back(
        {"bus.handovers" + sfx, static_cast<double>(c.handovers), "count"});
    m.push_back(
        {"wbuf.absorbed" + sfx, static_cast<double>(c.absorbed), "count"});
    m.push_back(
        {"wbuf.bypassed" + sfx, static_cast<double>(c.bypassed), "count"});
    m.push_back({"wbuf.full_stalls" + sfx, static_cast<double>(c.full_stalls),
                 "cycles"});
    m.push_back({"ddr.row_hit_rate" + sfx,
                 per(static_cast<double>(c.row_hits),
                     static_cast<double>(c.row_total)),
                 "ratio"});
    for (unsigned k = 0; k < obs::kStallClassCount; ++k) {
      m.push_back({"stall." +
                       std::string(to_string(static_cast<obs::StallClass>(k))) +
                       sfx,
                   static_cast<double>(c.stall[k]), "cycles"});
    }
    m.push_back({"assertions.violations" + sfx,
                 static_cast<double>(c.violations), "count"});
  }

  // Traced vs untraced wall time of the same passes, paired in order.
  std::vector<double> over;
  const Pass* untraced = nullptr;
  const Pass* traced = nullptr;
  for (const Pass& p : passes) {
    (p.traced ? traced : untraced) = &p;
    if (traced != nullptr && untraced != nullptr) {
      over.push_back(100.0 * (traced->wall_s / untraced->wall_s - 1.0));
      traced = untraced = nullptr;
    }
  }
  m.push_back({"trace.overhead_pct", median(over), "%"});
  m.push_back({"trace.coverage", ts.coverage, "ratio"});
  return m;
}

/// Every op of the run (pass 0 = set-up warm-up), for offline analysis.
void write_ops(const fs::path& path, const std::vector<OpRecord>& ops) {
  std::ofstream os(path);
  os << "pass,group,traced,name,wall_ms,tlm_cycles,tlm_run_ms,rtl_cycles,"
        "rtl_run_ms\n";
  for (const OpRecord& o : ops) {
    os << o.pass << ',' << (o.main ? "main" : "probe") << ',' << o.traced
       << ',' << o.name << ',' << o.wall_ms << ',' << o.tlm_cycles << ','
       << o.tlm_ms << ',' << o.rtl_cycles << ',' << o.rtl_ms << '\n';
  }
}

void write_spans(const fs::path& path, const Tracer& t) {
  std::ofstream os(path);
  os << "id,name,parent,op,main,start_ns,end_ns\n";
  const std::int64_t base = t.spans.empty() ? 0 : t.spans.front().start;
  for (std::size_t i = 0; i < t.spans.size(); ++i) {
    const Span& s = t.spans[i];
    os << i << ',' << s.name << ',' << s.parent << ',' << s.op << ','
       << (t.op_is_main[s.op] ? 1 : 0) << ',' << s.start - base << ','
       << s.end - base << '\n';
  }
}

int usage() {
  std::cerr << "usage: perfbench --workload table1-tlm|table1-accuracy|"
               "sweep-wbuf --seed N --seconds S --trace 0|1 --out DIR "
               "[--tiny]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload, out_dir;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  int trace = -1;
  bool tiny = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) {
        throw std::invalid_argument(a + " needs a value");
      }
      return argv[++i];
    };
    try {
      if (a == "--workload") {
        workload = next();
      } else if (a == "--seed") {
        seed = std::stoull(next());
      } else if (a == "--seconds") {
        seconds = std::stod(next());
      } else if (a == "--trace") {
        trace = std::stoi(next());
      } else if (a == "--out") {
        out_dir = next();
      } else if (a == "--tiny") {
        tiny = true;
      } else {
        return usage();
      }
    } catch (const std::exception& e) {
      std::cerr << e.what() << "\n";
      return usage();
    }
  }
  if (workload.empty() || out_dir.empty() || seconds <= 0 ||
      (trace != 0 && trace != 1)) {
    return usage();
  }

  try {
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    const unsigned jobs = std::min(4u, nproc);
    const Sizes& z = tiny ? kTiny : kFull;
    const fs::path dir = fs::path(out_dir) / ("work-" + workload + "-" +
                                              std::to_string(seed));
    fs::create_directories(dir);
    const double clock_ns = calibrate_clock_ns();

    RunState st;
    Workload w;
    std::vector<double> setup_s;
    std::vector<std::pair<std::string, std::string>> hashes;
    const int setups = trace ? 1 : 3;
    for (int k = 0; k < setups; ++k) {
      const std::int64_t t0 = now_ns();
      set_up(st, w, workload, seed, z, dir, jobs);
      setup_s.push_back(static_cast<double>(now_ns() - t0) / 1e9);
      const auto h = scenario_hashes(w, dir);
      if (k > 0 && h != hashes) {
        st.ck.fail("set-up generated different inputs on repetition");
      }
      hashes = h;
    }

    // Whole passes only, so every op of the workload weighs the same in
    // the percentiles.  Another pass (a traced run: another traced and
    // untraced pair over the same inputs) starts while it is expected to
    // end within --seconds, and, untraced, until kMinOps main ops ran so
    // p90 has ten samples beyond it.
    std::vector<Pass> passes;
    std::uint64_t first_digest = 0;
    const std::int64_t start = now_ns();
    for (std::size_t i = 0;; ++i) {
      const double elapsed = static_cast<double>(now_ns() - start) / 1e9;
      const bool few_ops = !trace && !tiny && i * w.main.ops() < kMinOps;
      if (i > 0 && !few_ops &&
          elapsed + elapsed / static_cast<double>(i) > seconds) {
        break;
      }
      for (std::size_t half = 0; half < (trace ? 2u : 1u); ++half) {
        const bool traced = trace && (i + half) % 2 == 1;
        st.digest = 0xcbf29ce484222325ull;
        st.collect = passes.empty();
        st.pass = passes.size() + 1;
        passes.push_back(run_pass(st, w, jobs, traced));
        if (passes.size() == 1) {
          first_digest = st.digest;
        } else if (st.digest != first_digest) {
          st.ck.fail("simulated statistics differ between passes (" +
                     hex64(st.digest) + " vs " + hex64(first_digest) + ")");
        }
      }
    }

    write_ops(dir / (trace ? "ops-trace.csv" : "ops.csv"), st.ops);
    std::vector<Metric> metrics;
    TraceSummary ts;
    if (trace) {
      metrics = per_layer_metrics(passes, w, st, clock_ns, ts);
      write_spans(dir / "spans.csv", st.tracer);
    } else {
      metrics = end_to_end_metrics(passes, w, setup_s);
    }

    std::size_t main_ops = 0;
    for (const Pass& p : passes) {
      main_ops += p.main.op_ms.size();
    }
    std::ostringstream js;
    js << "{\"workload\": " << json_str(workload) << ", \"seed\": " << seed
       << ", \"trace\": " << trace << ", \"tiny\": " << (tiny ? "true" : "false")
       << ", \"correct\": " << (st.ck.failed == 0 ? "true" : "false")
       << ", \"attempted\": " << st.ck.attempted
       << ", \"failed\": " << st.ck.failed << ", \"messages\": [";
    for (std::size_t i = 0; i < st.ck.messages.size(); ++i) {
      js << (i ? ", " : "") << json_str(st.ck.messages[i]);
    }
    js << "], \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
      js << (i ? ", " : "") << json_str(metrics[i].name) << ": {\"value\": "
         << json_num(metrics[i].value)
         << ", \"unit\": " << json_str(metrics[i].unit) << "}";
    }
    js << "}, \"info\": {\"passes\": " << passes.size()
       << ", \"main_ops\": " << main_ops
       << ", \"digest\": " << json_str(hex64(first_digest))
       << ", \"clock_read_ns\": " << json_num(clock_ns)
       << ", \"sweep_jobs\": " << jobs << ", \"nproc\": " << nproc
       << ", \"snapshot_format_version\": " << state::kFormatVersion
       << ", \"build_type\": " << json_str(PERFBENCH_BUILD_TYPE)
       << ", \"compiler\": " << json_str(std::string("g++ ") + __VERSION__)
       << ", \"cxx_flags\": " << json_str(PERFBENCH_CXX_FLAGS)
       << ", \"probe_seed\": " << kProbeSeed << ", \"traffic_seeds\": [";
    for (std::size_t i = 0; i < w.traffic_seeds.size(); ++i) {
      js << (i ? ", " : "") << w.traffic_seeds[i];
    }
    js << "], \"scenario_hashes\": {";
    for (std::size_t i = 0; i < hashes.size(); ++i) {
      js << (i ? ", " : "") << json_str(hashes[i].first) << ": "
         << json_str(hashes[i].second);
    }
    js << "}";
    if (trace) {
      js << ", \"coverage\": " << json_num(ts.coverage)
         << ", \"layer_self_ms\": {";
      std::size_t i = 0;
      for (const auto& [name, ms] : ts.self_ms) {
        js << (i++ ? ", " : "") << json_str(name) << ": " << json_num(ms);
      }
      js << "}, \"spans_file\": " << json_str((dir / "spans.csv").string());
    }
    js << "}}";
    for (const auto& msg : st.ck.messages) {
      std::cerr << "check failed: " << msg << "\n";
    }
    std::cout << js.str() << std::endl;
    return 0;
  } catch (const std::exception& e) {
    std::cerr << "perfbench: " << e.what() << "\n";
    return 1;
  }
}
