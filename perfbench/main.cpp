// The simulator's benchmark: one workload per process.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//   perfbench --self-test
//
// Workloads (all at the paper's defaults: ETX metric, 3-D virtual space,
// average physical degree 14.5):
//   vpod_construct          16 networks of n=50, serial engine, each from the
//                           start token through the end of period 1
//   vpod_construct_sharded  the same networks on the sharded engine (3 shards)
//   vpod_steady             8 networks of n=80 converged through period 10,
//                           then one more period each per round
//   route_eval              centralized MDT at n=2000 + GDV / MDT-greedy routing,
//                           plus all pairs of geo_wan(n=110, seed=11)
//
// A run repeats whole rounds of short timed spans while one more round still
// fits in --seconds (always at least one). Every span is scaled to a fixed
// host speed by a probe timed just before and after it (see SpeedProbe).
// wall_s is the median over rounds of a network's scaled span, as a median
// over the batch for the VPoD workloads. The host.* ledger lines give the
// unscaled figure in every run.
// --trace 0 prints the end-to-end metrics; --trace 1 switches on the
// program's profile sites and the handler shim and prints the per-layer
// ledger instead. Correctness checks run outside every timed span. The last
// stdout line is the result JSON.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <memory>
#include <numeric>
#include <random>
#include <string>
#include <vector>

#include "checks.hpp"
#include "eval/invariants.hpp"
#include "eval/protocol_runner.hpp"
#include "ledger.hpp"
#include "obs/profile.hpp"
#include "radio/topology.hpp"
#include "routing/mdt_view.hpp"
#include "routing/routers.hpp"
#include "scenario/geo_wan.hpp"

using namespace gdvr;
using perfbench::LinkTable;

namespace {

using Clock = std::chrono::steady_clock;
// Initialised before main runs: setup_s counts from here.
const Clock::time_point g_process_start = Clock::now();

double since(Clock::time_point t0) { return std::chrono::duration<double>(Clock::now() - t0).count(); }

// --- sizes ------------------------------------------------------------------
// A single VPoD network's protocol cost varies by about 30% from seed to
// seed, so the VPoD workloads simulate a batch of independent networks per
// round and report medians over the batch. Networks are small enough that
// one span takes about 0.1 s, so a run repeats each one many times.
constexpr int kConstructN = 50;
constexpr int kConstructBatch = 16;
constexpr int kShards = 3;  // sharded engine; n/128 would give 1 at this size
constexpr int kSteadyN = 80;
constexpr int kSteadyBatch = 8;
constexpr int kSteadyWarmPeriods = 10;
// Rounds whose traffic the protocol metrics count; every run makes at least
// this many, so those metrics do not depend on the host's speed.
constexpr int kSteadyMetricPeriods = 10;
constexpr int kRouteN = 2000;
constexpr int kRoutePairs = 20000;
constexpr int kProbePairs = 20000;  // cap on GDV probes of a VPoD snapshot
// The geo_wan instance whose Delaunay graph is wrong (see README): fixed,
// not seeded, so its failures are the same in every run.
constexpr int kGeoN = 110;
constexpr std::uint64_t kGeoSeed = 11;

// --- output -----------------------------------------------------------------
struct Metric {
  std::string name;
  double value;
  std::string unit;
};

struct Report {
  bool correct = true;
  std::string why;
  long long attempted = 0;
  long long failed = 0;
  std::vector<Metric> e2e;
  std::vector<Metric> layer;

  void fail(const std::string& reason) {
    if (correct) why = reason;
    correct = false;
  }
};

// Human-readable lines first (a traced run also lists its end-to-end
// metrics, for the tracing overhead; an untraced one the host.* ledger
// lines), then the result JSON as the last line.
void print_result(const Report& rep, bool trace) {
  const std::vector<Metric>& ms = trace ? rep.layer : rep.e2e;
  for (const Metric& m : trace ? rep.e2e : rep.layer)
    std::printf("%s %-27s %18.6f %s\n", trace ? "traced" : "ledger", m.name.c_str(), m.value, m.unit.c_str());
  for (const Metric& m : ms) std::printf("%-34s %18.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::printf("attempted %lld failed %lld correct %s\n", rep.attempted, rep.failed,
              rep.correct ? "true" : "false");
  if (!rep.correct) std::printf("incorrect: %s\n", rep.why.c_str());
  std::string json = "{\"correct\": ";
  json += rep.correct ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(rep.attempted);
  json += ", \"failed\": " + std::to_string(rep.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof value, "%.17g", std::isfinite(ms[i].value) ? ms[i].value : 0.0);
    json += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + value + ", \"unit\": \"" +
            ms[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
}

// --- helpers ----------------------------------------------------------------
int host_cpus() {
  cpu_set_t set;
  return sched_getaffinity(0, sizeof set, &set) == 0 ? CPU_COUNT(&set) : 1;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

double median(std::vector<double> v) {
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n == 0 ? 0.0 : n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

// --- host speed -------------------------------------------------------------
// The host's speed swings by up to 2x for seconds to minutes while CPU time
// stays equal to wall time: other tenants of the shared last-level cache slow
// every memory access, and a register-only loop stays within 3%. The probe is
// a fixed number of random read-modify-writes over a 4 MiB table, twice the
// L2. With slowdown = (mean of the probes just before and after a span) /
// kProbeRefS, a span's scaled time is its host time / slowdown^sensitivity:
// its host time at the speed where one probe takes kProbeRefS. The
// sensitivity is the workload's log-log slope of span time against probe
// time, measured over 300 s of rounds in one process and rounded to a half
// (README).
constexpr double kProbeRefS = 0.002;         // about the fastest tenth of probes on the reference host
constexpr double kVpodSensitivity = 1.0;     // serial engine: measured 1.03
constexpr double kShardedSensitivity = 0.5;  // measured 0.52: waits on 3 threads' cores
constexpr double kRouteSensitivity = 0.5;    // measured 0.51: its data mostly fits in the L2

class SpeedProbe {
 public:
  SpeedProbe() : table_(kWords) { run(); }  // first touch outside every span

  // Host seconds of one probe.
  double run() {
    const auto t0 = Clock::now();
    for (int k = 0; k < kAccesses; ++k) {
      state_ = state_ * 6364136223846793005ull + 1442695040888963407ull;
      table_[(state_ >> 40) & (kWords - 1)] += static_cast<std::uint32_t>(state_);
    }
    const double s = since(t0);
    sink_ += table_[state_ & (kWords - 1)];  // keeps the table observable
    return s;
  }

 private:
  static constexpr std::size_t kWords = std::size_t{1} << 20;  // 4 MiB of uint32
  static constexpr int kAccesses = 400000;
  std::vector<std::uint32_t> table_;
  std::uint64_t state_ = 1;
  std::uint32_t sink_ = 0;
};

// One timed span: host seconds and the mean probe / kProbeRefS around it.
struct Span {
  double raw_s = 0.0;
  double slowdown = 1.0;
};

template <class F>
Span timed(SpeedProbe& probe, F&& work) {
  const double before = probe.run();
  const auto t0 = Clock::now();
  work();
  const double raw = since(t0);
  return {raw, 0.5 * (before + probe.run()) / kProbeRefS};
}

// Per-network samples of a VPoD batch (one "network" for route_eval).
struct SpanSamples {
  std::vector<std::vector<double>> raw, scaled;
  std::vector<double> slowdowns;
  double sensitivity;

  SpanSamples(std::size_t networks, double sensitivity_)
      : raw(networks), scaled(networks), sensitivity(sensitivity_) {}
  void add(std::size_t i, const Span& s) {
    raw[i].push_back(s.raw_s);
    scaled[i].push_back(s.raw_s / std::pow(s.slowdown, sensitivity));
    slowdowns.push_back(s.slowdown);
  }
  // The median over networks of each network's median span.
  static double of(const std::vector<std::vector<double>>& per_network) {
    std::vector<double> m;
    for (const std::vector<double>& v : per_network) m.push_back(median(v));
    return median(m);
  }
  double wall_s() const { return of(scaled); }
  double raw_wall_s() const { return of(raw); }
};

// The paper's standard network (same as the figure benches): area scaled so
// the average physical degree stays 14.5 (200 nodes <-> 100 m x 100 m).
radio::Topology paper_topology(int n, std::uint64_t seed) {
  radio::TopologyConfig tc;
  tc.n = n;
  tc.seed = seed;
  const double scale = std::sqrt(static_cast<double>(n) / 200.0);
  tc.width_m = 100.0 * scale;
  tc.height_m = 100.0 * scale;
  tc.obstacle_size_m = 10.0;
  tc.target_avg_degree = 14.5;
  return radio::make_random_topology(tc);
}

vpod::VpodConfig paper_vpod() {
  vpod::VpodConfig vc;
  vc.dim = 3;  // Ta = 20 s, cc = 0.1, ce = 0.25, adaptive timeout: paper defaults
  return vc;
}

// All ordered pairs when there are at most `cap`, else `cap` pairs drawn
// from `seed` (s != t).
std::vector<std::pair<int, int>> make_pairs(int n, int cap, std::uint64_t seed) {
  std::vector<std::pair<int, int>> pairs;
  if (static_cast<long long>(n) * (n - 1) <= cap) {
    for (int s = 0; s < n; ++s)
      for (int t = 0; t < n; ++t)
        if (s != t) pairs.emplace_back(s, t);
    return pairs;
  }
  std::mt19937_64 rng(seed);
  std::uniform_int_distribution<int> pick(0, n - 1);
  while (static_cast<int>(pairs.size()) < cap) {
    const int s = pick(rng), t = pick(rng);
    if (s != t) pairs.emplace_back(s, t);
  }
  return pairs;
}

using Router = std::function<routing::RouteResult(int, int)>;

std::vector<routing::RouteResult> route_all(const Router& route,
                                            const std::vector<std::pair<int, int>>& pairs) {
  std::vector<routing::RouteResult> out;
  out.reserve(pairs.size());
  for (const auto& [s, t] : pairs) out.push_back(route(s, t));
  return out;
}

struct Tally {
  long long attempted = 0;
  long long failed = 0;
  long long delivered = 0;
  double cost = 0.0;  // summed over delivered routes
  long long hops = 0;
  double cost_per_delivery() const { return delivered ? cost / delivered : 0.0; }
};

// Checks every delivered route against the benchmark's own link table and
// shortest paths (one tree per distinct source).
Tally check_routes(const LinkTable& links, const std::vector<std::pair<int, int>>& pairs,
                   const std::vector<routing::RouteResult>& results, Report& rep,
                   const char* what) {
  Tally t;
  std::vector<std::size_t> order(pairs.size());
  std::iota(order.begin(), order.end(), 0);
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return pairs[a].first < pairs[b].first; });
  std::vector<double> dist;
  int tree_of = -1;
  for (std::size_t i : order) {
    const auto [s, d] = pairs[i];
    const routing::RouteResult& r = results[i];
    ++t.attempted;
    if (!r.success) {
      ++t.failed;
      continue;
    }
    if (tree_of != s) {
      dist = links.shortest_costs(s);
      tree_of = s;
    }
    const std::string why = perfbench::check_route(links, s, d, r, dist[static_cast<std::size_t>(d)]);
    if (!why.empty()) {
      rep.fail(std::string(what) + " route " + std::to_string(s) + "->" + std::to_string(d) + ": " + why);
      continue;
    }
    ++t.delivered;
    t.cost += r.cost;
    t.hops += r.transmissions;
  }
  return t;
}

// --- per-layer ledger ---------------------------------------------------------
const char* const kKindNames[] = {"token",           "hello",         "join_request",
                                  "join_reply",      "nbr_set_request", "nbr_set_reply",
                                  "pos_update"};
constexpr int kLedgerKinds = 7;  // kToken..kPosUpdate, the kinds VPoD + MDT send

// Sums of the simulation layers over every timed span of a run.
struct SimLedger {
  double run_s = 0.0;
  std::uint64_t sent = 0, delivered = 0;
  std::size_t slot_capacity = 0;
  sim::Simulator::ShardedStats sharded{};
  perfbench::HandlerTotals handlers{};
  perfbench::ProfileTotals profile;
  std::uint64_t rec_calls = 0, rec_rebuilds = 0, adjustments = 0;
  geom::DynamicDtStats dt{};
};

// Snapshot of the counters a span is measured against.
struct SimMark {
  std::uint64_t sent;
  perfbench::HandlerTotals handlers;
  perfbench::ProfileTotals profile;
  mdt::MdtOverlay::RecomputeStats rec;
  geom::DynamicDtStats dt;
  std::uint64_t adjustments;

  static SimMark take(const eval::VpodRunner& r, bool trace) {
    const mdt::MdtOverlay& o = r.protocol().overlay();
    return {r.net().total_messages_sent(), trace ? perfbench::handler_totals() : perfbench::HandlerTotals{},
            trace ? perfbench::ProfileTotals::read() : perfbench::ProfileTotals{}, o.recompute_stats(),
            o.dt_stats(), r.protocol().adjustments()};
  }
};

void add_span(SimLedger& L, eval::VpodRunner& r, const SimMark& m, double span_s, bool trace) {
  const SimMark now = SimMark::take(r, trace);
  L.run_s += span_s;
  L.sent += now.sent - m.sent;
  L.slot_capacity = std::max(L.slot_capacity, r.simulator().slot_capacity());
  const sim::Simulator::ShardedStats ss = r.simulator().sharded_stats();
  L.sharded.outbox_peak = std::max(L.sharded.outbox_peak, ss.outbox_peak);
  L.sharded.outbox_grows += ss.outbox_grows;
  for (int k = 0; k < perfbench::kKinds; ++k) {
    L.handlers[k].s += now.handlers[k].s - m.handlers[k].s;
    L.handlers[k].n += now.handlers[k].n - m.handlers[k].n;
    L.handlers[k].bytes += now.handlers[k].bytes - m.handlers[k].bytes;
    L.delivered += now.handlers[k].n - m.handlers[k].n;
  }
  L.profile = L.profile.plus(now.profile.minus(m.profile));
  L.rec_calls += now.rec.calls - m.rec.calls;
  L.rec_rebuilds += now.rec.rebuilds - m.rec.rebuilds;
  L.adjustments += now.adjustments - m.adjustments;
  L.dt.inserts += now.dt.inserts - m.dt.inserts;
  L.dt.removes += now.dt.removes - m.dt.removes;
  L.dt.moves += now.dt.moves - m.dt.moves;
  L.dt.move_early_outs += now.dt.move_early_outs - m.dt.move_early_outs;
  L.dt.full_rebuilds += now.dt.full_rebuilds - m.dt.full_rebuilds;
  L.dt.walk_fallbacks += now.dt.walk_fallbacks - m.dt.walk_fallbacks;
}

// Routing-layer times recorded by the benchmark around its own calls.
struct RouteLedger {
  double snapshot_s = 0.0, centralized_mdt_s = 0.0, gdv_s = 0.0, mdt_greedy_s = 0.0;
  double hops_per_route = 0.0;
  perfbench::ProfileTotals profile;  // sites hit by the routing calls
};

// The host.* ledger lines, which every run prints: the same statistic as
// wall_s on the unscaled spans, and the median probe slowdown.
void emit_host(Report& rep, const SpanSamples& spans) {
  rep.layer.push_back({"host.raw_wall_s", spans.raw_wall_s(), "s"});
  rep.layer.push_back({"host.slowdown", median(spans.slowdowns), "ratio"});
}

// Emits the rest of the per-layer list; values are per round (sums / rounds).
void emit_layers(Report& rep, double topology_s, const SimLedger& L, const RouteLedger& R, int rounds,
                 int threads) {
  const double per = 1.0 / std::max(rounds, 1);
  auto add = [&](const std::string& name, double v, const char* unit) { rep.layer.push_back({name, v, unit}); };
  const perfbench::ProfileTotals prof = L.profile.plus(R.profile);
  const double build_s = prof.site("geom.delaunay_build").s, remove_s = prof.site("geom.delaunay_remove").s,
               move_s = prof.site("geom.delaunay_move").s;
  const double recompute_s = L.profile.site("mdt.recompute").s;
  double handler_s = 0.0;
  for (const perfbench::KindTotals& k : L.handlers) handler_s += k.s;

  add("radio.topology_s", topology_s, "s");
  add("sim.run_s", L.run_s * per, "s");
  // Handler and recompute time are busy time summed over threads; divided by
  // the thread count they compare with the span's wall time.
  add("sim.other_s", std::max(0.0, L.run_s - (handler_s + recompute_s) / threads) * per, "s");
  add("sim.msgs_sent", static_cast<double>(L.sent) * per, "count");
  add("sim.msgs_delivered", static_cast<double>(L.delivered) * per, "count");
  add("sim.slot_capacity", static_cast<double>(L.slot_capacity), "count");
  add("sim.outbox_peak", static_cast<double>(L.sharded.outbox_peak), "count");
  add("sim.outbox_grows", static_cast<double>(L.sharded.outbox_grows) * per, "count");
  for (int k = 0; k < kLedgerKinds; ++k) {
    const std::string base = std::string("mdt.handle.") + kKindNames[k];
    add(base + ".s", L.handlers[k].s * per, "s");
    add(base + ".n", static_cast<double>(L.handlers[k].n) * per, "count");
    add(base + ".bytes", static_cast<double>(L.handlers[k].bytes) * per, "B");
  }
  add("mdt.recompute.self_s",
      std::max(0.0, recompute_s - (L.profile.site("geom.delaunay_build").s + L.profile.site("geom.delaunay_remove").s +
                                   L.profile.site("geom.delaunay_move").s)) * per,
      "s");
  add("mdt.recompute.calls", static_cast<double>(L.rec_calls) * per, "count");
  add("mdt.recompute.hit_rate",
      L.rec_calls ? 1.0 - static_cast<double>(L.rec_rebuilds) / static_cast<double>(L.rec_calls) : 0.0, "ratio");
  add("geom.build_s", build_s * per, "s");
  add("geom.remove_s", remove_s * per, "s");
  add("geom.move_s", move_s * per, "s");
  add("geom.dt.inserts", static_cast<double>(L.dt.inserts) * per, "count");
  add("geom.dt.removes", static_cast<double>(L.dt.removes) * per, "count");
  add("geom.dt.moves", static_cast<double>(L.dt.moves) * per, "count");
  add("geom.dt.full_rebuilds", static_cast<double>(L.dt.full_rebuilds) * per, "count");
  add("geom.dt.walk_fallbacks", static_cast<double>(L.dt.walk_fallbacks) * per, "count");
  add("geom.dt.early_out_rate",
      L.dt.moves ? static_cast<double>(L.dt.move_early_outs) / static_cast<double>(L.dt.moves) : 0.0, "ratio");
  add("vpod.adjustments", static_cast<double>(L.adjustments) * per, "count");
  add("routing.snapshot_s", R.snapshot_s, "s");
  add("routing.centralized_mdt_s", R.centralized_mdt_s, "s");
  add("routing.gdv_s", R.gdv_s, "s");
  add("routing.mdt_greedy_s", R.mdt_greedy_s, "s");
  add("routing.hops_per_route", R.hops_per_route, "hops");
  add("graph.dijkstra_s", prof.site("graph.dijkstra").s * per, "s");
}

// Rounds continue while one more round of the last one's length still ends
// within the run's --seconds; every run does at least one round.
bool another_round(Clock::time_point loop_start, double last_round_s, double seconds) {
  return since(loop_start) + last_round_s <= seconds;
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

// The protocol outcome of one batch: per-network values (reported as
// medians over the batch, which a single heavy network cannot drag) and
// routing tallies pooled over every network's probes.
struct VpodTotals {
  long long alive = 0;
  long long joined = 0;
  std::vector<double> ctrl;     // control messages per node per period, per network
  std::vector<double> storage;  // avg_storage(), per network
  Tally gdv, mdt;
};

void add_tally(Tally& into, const Tally& t) {
  into.attempted += t.attempted;
  into.failed += t.failed;
  into.delivered += t.delivered;
  into.cost += t.cost;
  into.hops += t.hops;
}

// Outside every timed span, once per network: the protocol-state audit, then
// GDV probes over the runner's snapshot and MDT-greedy over the centralized
// MDT of the true locations, on the same pairs.
void finish_network(const eval::VpodRunner& runner, const radio::Topology& topo, std::uint64_t seed,
                    std::uint64_t span_msgs, int span_periods, Report& rep, RouteLedger& R,
                    VpodTotals& T) {
  eval::InvariantOptions io;
  io.seed = seed;
  const eval::InvariantReport inv = eval::audit_invariants(runner, io);
  if (inv.link_liveness != 1.0) rep.fail("virtual-link liveness " + std::to_string(inv.link_liveness));
  if (inv.joined_nodes != inv.alive_nodes)
    rep.fail(std::to_string(inv.alive_nodes - inv.joined_nodes) + " alive nodes never joined");
  T.alive += inv.alive_nodes;
  T.joined += inv.joined_nodes;
  T.ctrl.push_back(static_cast<double>(span_msgs) / inv.alive_nodes / span_periods);
  T.storage.push_back(runner.avg_storage());

  const LinkTable links(topo.etx);
  const auto pairs = make_pairs(topo.size(), kProbePairs, seed ^ 0x9e3779b97f4a7c15ull);
  auto t0 = Clock::now();
  const routing::MdtView view = runner.snapshot();
  R.snapshot_s += since(t0);
  t0 = Clock::now();
  const auto gdv = route_all([&](int s, int t) { return routing::route_gdv(view, s, t); }, pairs);
  R.gdv_s += since(t0);
  t0 = Clock::now();
  const routing::MdtView actual = routing::centralized_mdt(topo.positions, topo.etx);
  R.centralized_mdt_s += since(t0);
  t0 = Clock::now();
  const auto mdt = route_all([&](int s, int t) { return routing::route_mdt_greedy(actual, s, t); }, pairs);
  R.mdt_greedy_s += since(t0);

  const Tally m = check_routes(links, pairs, mdt, rep, "mdt-greedy");
  if (m.failed > 0) rep.fail("MDT-greedy on true locations failed " + std::to_string(m.failed) + " pairs");
  add_tally(T.gdv, check_routes(links, pairs, gdv, rep, "gdv"));
  add_tally(T.mdt, m);
}

void emit_vpod(Report& rep, double setup_s, const SpanSamples& spans, const VpodTotals& T) {
  rep.e2e = {{"setup_s", setup_s, "s"},
             {"wall_s", spans.wall_s(), "s"},
             {"peak_rss_mb", peak_rss_mb(), "MB"},
             {"ctrl_msgs_per_node_period", median(T.ctrl), "msg/node/period"},
             {"storage_per_node", median(T.storage), "nodes"},
             {"gdv_tx_per_delivery", T.gdv.cost_per_delivery(), "tx"},
             {"mdt_tx_per_delivery", T.mdt.cost_per_delivery(), "tx"}};
}

// Shim bookkeeping: delivered == sent - lost - expired - in flight, and the
// in-flight count cannot exceed the simulator's pending events.
void check_delivery_balance(eval::VpodRunner& r, std::uint64_t delivered, Report& rep) {
  const mdt::Net& net = r.net();
  const long long in_flight = static_cast<long long>(net.total_messages_sent()) -
                              static_cast<long long>(net.messages_lost()) -
                              static_cast<long long>(net.messages_expired()) - static_cast<long long>(delivered);
  if (in_flight < 0 || in_flight > static_cast<long long>(r.simulator().pending()))
    rep.fail("shim delivered " + std::to_string(delivered) + " messages; NetSim accounts for " +
             std::to_string(in_flight) + " in flight");
}

std::uint64_t delivered_total() {
  std::uint64_t n = 0;
  for (const perfbench::KindTotals& k : perfbench::handler_totals()) n += k.n;
  return n;
}

// The batch's networks: topology i of run `seed` is seeded (seed << 8) | i.
std::vector<radio::Topology> make_batch(int n, int count, std::uint64_t seed, double* topology_s) {
  const auto t0 = Clock::now();
  std::vector<radio::Topology> topos;
  for (int i = 0; i < count; ++i) topos.push_back(paper_topology(n, (seed << 8) | static_cast<std::uint64_t>(i)));
  *topology_s = since(t0);
  return topos;
}

std::unique_ptr<eval::VpodRunner> make_runner(const radio::Topology& topo, bool trace) {
  auto r = std::make_unique<eval::VpodRunner>(topo, /*use_etx=*/true, paper_vpod());
  if (trace) perfbench::install_handler_shim(*r);
  return r;
}

// vpod_construct / vpod_construct_sharded: a round simulates every network
// of the batch from a fresh runner, start token through the end of period 1.
void construct_workload(const Args& a, Report& rep) {
  const bool sharded = a.workload == "vpod_construct_sharded";
  int threads = 1;
  if (sharded) {
    threads = std::min(kShards, host_cpus());
    setenv("GDVR_SIM_ENGINE", "sharded", 1);
    setenv("GDVR_SIM_SHARDS", std::to_string(kShards).c_str(), 1);
    setenv("GDVR_THREADS", std::to_string(threads).c_str(), 1);
  }
  double topology_s = 0.0;
  const std::vector<radio::Topology> topos = make_batch(kConstructN, kConstructBatch, a.seed, &topology_s);
  const double setup_s = since(g_process_start);

  SpeedProbe probe;
  std::vector<double> walls;
  std::vector<std::uint64_t> first_sent;
  SimLedger L;
  RouteLedger R;
  VpodTotals T;
  SpanSamples spans(topos.size(), sharded ? kShardedSensitivity : kVpodSensitivity);
  const auto loop_start = Clock::now();
  do {
    double round_s = 0.0;
    for (std::size_t i = 0; i < topos.size(); ++i) {
      auto runner = make_runner(topos[i], a.trace);
      const std::uint64_t delivered0 = delivered_total();
      SimMark mark = SimMark::take(*runner, a.trace);
      mark.sent = 0;  // the start token's first sends happen in the constructor
      const Span span = timed(probe, [&] { runner->run_to_period(1); });
      round_s += span.raw_s;
      spans.add(i, span);
      add_span(L, *runner, mark, span.raw_s, a.trace);
      if (a.trace) check_delivery_balance(*runner, delivered_total() - delivered0, rep);
      // Later rounds re-simulate the same networks: the outcome must repeat.
      const std::uint64_t sent = runner->net().total_messages_sent();
      if (walls.empty()) {
        first_sent.push_back(sent);
        finish_network(*runner, topos[i], a.seed, sent, 1, rep, R, T);
      } else if (sent != first_sent[i]) {
        rep.fail("rounds of the same network disagree");
      }
    }
    walls.push_back(round_s);
  } while (another_round(loop_start, walls.back(), a.seconds));

  const long long rounds = static_cast<long long>(walls.size());
  rep.attempted = T.alive * rounds;
  rep.failed = (T.alive - T.joined) * rounds;
  emit_vpod(rep, setup_s, spans, T);
  R.hops_per_route = T.gdv.delivered ? static_cast<double>(T.gdv.hops) / T.gdv.delivered : 0.0;
  emit_host(rep, spans);
  if (a.trace) emit_layers(rep, topology_s, L, R, static_cast<int>(rounds), threads);
}

// vpod_steady: set-up converges every network of the batch through period
// kSteadyWarmPeriods; a round is the next period of each network in turn, so
// a slow stretch of the host falls on all networks alike. The protocol
// metrics and probes are taken after round kSteadyMetricPeriods, which every
// run reaches, so they do not depend on how many rounds the host fits in.
void steady_workload(const Args& a, Report& rep) {
  double topology_s = 0.0;
  const std::vector<radio::Topology> topos = make_batch(kSteadyN, kSteadyBatch, a.seed, &topology_s);
  std::vector<std::unique_ptr<eval::VpodRunner>> runners;
  std::vector<std::uint64_t> delivered(topos.size(), 0);
  for (std::size_t i = 0; i < topos.size(); ++i) {
    const std::uint64_t d0 = delivered_total();
    runners.push_back(make_runner(topos[i], a.trace));
    runners.back()->run_to_period(kSteadyWarmPeriods);
    delivered[i] += delivered_total() - d0;
  }
  const double setup_s = since(g_process_start);

  std::vector<std::uint64_t> sent0;
  for (const auto& r : runners) sent0.push_back(r->net().total_messages_sent());
  SpeedProbe probe;
  SimLedger L;
  RouteLedger R;
  VpodTotals T;
  SpanSamples spans(topos.size(), kVpodSensitivity);
  int rounds = 0;
  double round_s = 0.0;
  const auto loop_start = Clock::now();
  do {
    ++rounds;
    round_s = 0.0;
    for (std::size_t i = 0; i < topos.size(); ++i) {
      eval::VpodRunner& runner = *runners[i];
      const std::uint64_t d0 = delivered_total();
      const SimMark mark = SimMark::take(runner, a.trace);
      const Span span = timed(probe, [&] { runner.run_to_period(kSteadyWarmPeriods + rounds); });
      round_s += span.raw_s;
      spans.add(i, span);
      add_span(L, runner, mark, span.raw_s, a.trace);
      delivered[i] += delivered_total() - d0;
      if (a.trace) check_delivery_balance(runner, delivered[i], rep);
      if (rounds == kSteadyMetricPeriods)
        finish_network(runner, topos[i], a.seed, runner.net().total_messages_sent() - sent0[i],
                       kSteadyMetricPeriods, rep, R, T);
    }
  } while (rounds < kSteadyMetricPeriods || another_round(loop_start, round_s, a.seconds));

  rep.attempted = T.gdv.attempted;
  rep.failed = T.gdv.failed;
  emit_vpod(rep, setup_s, spans, T);
  R.hops_per_route = T.gdv.delivered ? static_cast<double>(T.gdv.hops) / T.gdv.delivered : 0.0;
  emit_host(rep, spans);
  if (a.trace) emit_layers(rep, topology_s, L, R, rounds, 1);
}

// Stored nodes per node for MDT on true locations (the paper's Fig. 16
// baseline): physical neighbours, DT neighbours, and for every relay of a
// virtual link both of its endpoints.
double mdt_storage(const routing::MdtView& view, const graph::Graph& g) {
  std::vector<std::vector<int>> known(static_cast<std::size_t>(g.size()));
  for (int u = 0; u < g.size(); ++u) {
    for (const graph::Edge& e : g.neighbors(u)) known[static_cast<std::size_t>(u)].push_back(e.to);
    for (const routing::MdtView::DtNbr& d : view.dt[static_cast<std::size_t>(u)]) {
      known[static_cast<std::size_t>(u)].push_back(d.id);
      for (std::size_t i = 1; i + 1 < d.path.size(); ++i) {
        known[static_cast<std::size_t>(d.path[i])].push_back(u);
        known[static_cast<std::size_t>(d.path[i])].push_back(d.id);
      }
    }
  }
  double total = 0.0;
  for (std::vector<int>& k : known) {
    std::sort(k.begin(), k.end());
    total += static_cast<double>(std::unique(k.begin(), k.end()) - k.begin());
  }
  return total / g.size();
}

// Control messages per node per period implied by the overlay: MDT keeps a
// multi-hop virtual link by one neighbour-set request and one reply per
// period, each crossing the link's physical hops.
double mdt_maintenance_msgs(const routing::MdtView& view, const graph::Graph& g) {
  double msgs = 0.0;
  for (const auto& nbrs : view.dt)
    for (const routing::MdtView::DtNbr& d : nbrs) msgs += 2.0 * static_cast<double>(d.path.size() - 1);
  return msgs / g.size();
}

// route_eval: every round builds the centralized MDT of the paper network and
// of the geo_wan instance and routes every pair on both with GDV and
// MDT-greedy. Rounds repeat the same inputs, so results must repeat.
void route_workload(const Args& a, Report& rep) {
  auto t0 = Clock::now();
  const radio::Topology topo = paper_topology(kRouteN, a.seed);
  const double topology_s = since(t0);
  scenario::GeoWanConfig gc;
  gc.n = kGeoN;
  gc.seed = kGeoSeed;
  const radio::Topology geo = scenario::make_geo_wan(gc);
  const auto pairs = make_pairs(topo.size(), kRoutePairs, a.seed ^ 0x9e3779b97f4a7c15ull);
  const auto geo_pairs = make_pairs(geo.size(), 1 << 30, 0);
  const double setup_s = since(g_process_start);

  SpeedProbe probe;
  SpanSamples spans(1, kRouteSensitivity);
  RouteLedger R;
  std::vector<routing::RouteResult> gdv, mdt, geo_gdv, geo_mdt;
  double storage = 0.0, ctrl = 0.0;
  std::vector<double> round_cost;
  const perfbench::ProfileTotals prof0 = a.trace ? perfbench::ProfileTotals::read() : perfbench::ProfileTotals{};
  const auto loop_start = Clock::now();
  do {
    routing::MdtView view, geo_view;
    std::vector<routing::RouteResult> g, gg, m, gm;
    spans.add(0, timed(probe, [&] {
      t0 = Clock::now();
      view = routing::centralized_mdt(topo.positions, topo.etx);
      geo_view = routing::centralized_mdt(geo.positions, geo.etx);
      R.centralized_mdt_s += since(t0);
      t0 = Clock::now();
      g = route_all([&](int s, int t) { return routing::route_gdv(view, s, t); }, pairs);
      gg = route_all([&](int s, int t) { return routing::route_gdv(geo_view, s, t); }, geo_pairs);
      R.gdv_s += since(t0);
      t0 = Clock::now();
      m = route_all([&](int s, int t) { return routing::route_mdt_greedy(view, s, t); }, pairs);
      gm = route_all([&](int s, int t) { return routing::route_mdt_greedy(geo_view, s, t); }, geo_pairs);
      R.mdt_greedy_s += since(t0);
    }));

    // Outside the span: rounds must agree, and the first is kept for checks.
    double cost = 0.0;
    for (const auto* v : {&g, &gg, &m, &gm})
      for (const routing::RouteResult& r : *v) cost += r.success ? r.cost : -1.0;
    round_cost.push_back(cost);
    if (round_cost.size() == 1) {
      storage = mdt_storage(view, topo.etx);
      ctrl = mdt_maintenance_msgs(view, topo.etx);
      gdv = std::move(g);
      mdt = std::move(m);
      geo_gdv = std::move(gg);
      geo_mdt = std::move(gm);
    }
  } while (another_round(loop_start, spans.raw[0].back(), a.seconds));
  const double rss = peak_rss_mb();
  const int rounds = static_cast<int>(round_cost.size());
  if (a.trace) R.profile = perfbench::ProfileTotals::read().minus(prof0);
  for (double c : round_cost)
    if (c != round_cost.front()) rep.fail("rounds over the same inputs disagree");

  const LinkTable links(topo.etx), geo_links(geo.etx);
  const Tally tg = check_routes(links, pairs, gdv, rep, "gdv");
  const Tally tm = check_routes(links, pairs, mdt, rep, "mdt-greedy");
  const Tally tgg = check_routes(geo_links, geo_pairs, geo_gdv, rep, "geo_wan gdv");
  const Tally tgm = check_routes(geo_links, geo_pairs, geo_mdt, rep, "geo_wan mdt-greedy");
  rep.attempted = (tg.attempted + tm.attempted + tgg.attempted + tgm.attempted) * rounds;
  rep.failed = (tg.failed + tm.failed + tgg.failed + tgm.failed) * rounds;

  rep.e2e = {{"setup_s", setup_s, "s"},
             {"wall_s", spans.wall_s(), "s"},
             {"peak_rss_mb", rss, "MB"},
             {"ctrl_msgs_per_node_period", ctrl, "msg/node/period"},
             {"storage_per_node", storage, "nodes"},
             {"gdv_tx_per_delivery", tg.cost_per_delivery(), "tx"},
             {"mdt_tx_per_delivery", tm.cost_per_delivery(), "tx"}};
  emit_host(rep, spans);
  if (a.trace) {
    const double per = 1.0 / rounds;
    R.centralized_mdt_s *= per;
    R.gdv_s *= per;
    R.mdt_greedy_s *= per;
    R.hops_per_route = tg.delivered ? static_cast<double>(tg.hops) / tg.delivered : 0.0;
    emit_layers(rep, topology_s, SimLedger{}, R, rounds, 1);
  }
}

bool parse(int argc, char** argv, Args& a) {
  bool have_workload = false;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") {
      a.workload = v;
      have_workload = true;
    } else if (k == "--seed") {
      a.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (k == "--seconds") {
      a.seconds = std::atof(v.c_str());
    } else if (k == "--trace") {
      a.trace = v == "1";
    } else {
      return false;
    }
  }
  return have_workload && argc % 2 == 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc == 2 && std::strcmp(argv[1], "--self-test") == 0) {
    const std::string why = perfbench::self_test();
    std::printf("self-test: %s\n", why.empty() ? "ok" : why.c_str());
    return why.empty() ? 0 : 1;
  }
  Args a;
  if (!parse(argc, argv, a)) {
    std::fprintf(stderr, "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n");
    return 2;
  }
  // The environment must not choose the engine or the pool for us.
  setenv("GDVR_SIM_ENGINE", "serial", 1);
  setenv("GDVR_THREADS", "1", 1);
  unsetenv("GDVR_SIM_SHARDS");
  obs::set_profiling(a.trace);

  Report rep;
  if (a.workload == "vpod_construct" || a.workload == "vpod_construct_sharded") {
    construct_workload(a, rep);
  } else if (a.workload == "vpod_steady") {
    steady_workload(a, rep);
  } else if (a.workload == "route_eval") {
    route_workload(a, rep);
  } else {
    std::fprintf(stderr, "unknown workload '%s'\n", a.workload.c_str());
    return 2;
  }
  // The checks' own checks: a broken checker must not pass a run.
  if (const std::string why = perfbench::self_test(); !why.empty()) rep.fail("self-test: " + why);

  const char* engine = std::getenv("GDVR_SIM_ENGINE");
  std::printf("host: nproc=%d build=%s compiler=%s engine=%s threads=%s\n", host_cpus(),
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, engine, std::getenv("GDVR_THREADS"));
  print_result(rep, a.trace);
  return 0;
}
