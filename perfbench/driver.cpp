// perfbench driver: runs one workload of the repo benchmark for a fixed
// wall-clock budget and writes the raw per-op records as JSON — wall times,
// the inputs of the per-op output check, layer counters and, in a traced
// run, one span per call into a layer's public function. perfbench/run.py
// turns the records into metrics; all arithmetic lives in
// perfbench/metrics.py so it is unit-tested without a build.
//
//   perfbench --workload oneshot-attack --seed 1 --seconds 20 --trace 0
//             --out records.json
//
// The driver sets no execution knob (flood kernel, thread counts, OpenMP
// environment): it measures the library defaults a user gets. Every input
// derives from --seed. See perfbench/README.md for the workloads.
#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <charconv>
#include <chrono>
#include <cstdint>
#include <exception>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "adversary/strategies.hpp"
#include "bench_core/json.hpp"
#include "bench_core/scheduler.hpp"
#include "dynamics/churn_trace.hpp"
#include "dynamics/midrun.hpp"
#include "dynamics/mutable_overlay.hpp"
#include "graph/categories.hpp"
#include "graph/hamiltonian.hpp"
#include "graph/small_world.hpp"
#include "incremental/engine.hpp"
#include "protocols/estimator.hpp"
#include "protocols/neighborhood.hpp"
#include "protocols/refine.hpp"
#include "protocols/verification.hpp"
#include "sim/runner.hpp"
#include "sim/world.hpp"
#include "util/rng.hpp"

namespace {

using namespace byz;
using Clock = std::chrono::steady_clock;
using graph::NodeId;

const Clock::time_point kProcessStart = Clock::now();

double now_us() {
  return std::chrono::duration<double, std::micro>(Clock::now() -
                                                   kProcessStart)
      .count();
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Spans. One Tracer per op (or per set-up repetition), so the batch
// workload's trial workers never share one. A disabled tracer records
// nothing.
// ---------------------------------------------------------------------------

struct SpanRec {
  std::string name;
  int parent = -1;  ///< index into the same tracer's spans; -1 = root
  double start_us = 0.0;
  double end_us = 0.0;
};

class Tracer {
 public:
  explicit Tracer(bool on) : on_(on) {}
  [[nodiscard]] bool on() const noexcept { return on_; }

  int open(const char* name) {
    if (!on_) return -1;
    const int id = static_cast<int>(spans_.size());
    spans_.push_back({name, open_.empty() ? -1 : open_.back(), now_us(), 0.0});
    open_.push_back(id);
    return id;
  }
  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end_us = now_us();
    open_.pop_back();
  }
  [[nodiscard]] std::vector<SpanRec> take() { return std::move(spans_); }

 private:
  bool on_;
  std::vector<SpanRec> spans_;
  std::vector<int> open_;
};

class Span {
 public:
  Span(Tracer& tracer, const char* name)
      : tracer_(tracer), id_(tracer.open(name)) {}
  ~Span() { tracer_.close(id_); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

// ---------------------------------------------------------------------------
// Records.
// ---------------------------------------------------------------------------

struct OpRecord {
  std::string kind;  ///< "algo2", "brc" or "epoch"
  std::size_t client = 0;  ///< the op's slot in its batch (its client)
  std::size_t seq = 0;     ///< the batch number (the client's op number)
  bool traced = false;
  double wall_ms = 0.0;    ///< the whole op, probes included when traced
  bool returned = false;   ///< false = the op threw
  std::string error;
  double in_band_frac = 0.0;  ///< honest share inside the backend's bound
  double eps = 0.0;           ///< the bound's outlier budget
  bool alive_ok = true;       ///< churn: alive count == trace n_after
  std::uint64_t nodes = 0;    ///< run-start members (message denominator)
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t digest = 0;  ///< fold of statuses and estimates
  std::map<std::string, double> counters;
  std::vector<SpanRec> spans;
};

struct SetupRecord {
  double wall_s = 0.0;
  std::map<std::string, double> counters;
  std::vector<SpanRec> spans;
};

/// Ops that share one stretch of wall time: a batch of the trial scheduler.
struct BatchRecord {
  double wall_ms = 0.0;
  unsigned jobs = 1;
  bool traced = false;
  std::size_t ops = 1;
};

struct RunRecords {
  std::size_t prefix_ops = 0;  ///< leading ops the deterministic metrics use
  double loop_wall_s = 0.0;
  std::vector<SetupRecord> setups;
  std::vector<OpRecord> ops;
  std::vector<BatchRecord> batches;
};

std::uint64_t fold_run(const proto::RunResult& run) {
  std::uint64_t h = util::mix_seed(0x5EED, run.status.size());
  for (std::size_t v = 0; v < run.status.size(); ++v) {
    h = util::mix_seed(h, (static_cast<std::uint64_t>(run.status[v]) << 32) |
                              run.estimate[v]);
  }
  return h;
}

/// The per-op output-check inputs and the deterministic per-op counts.
void record_run(OpRecord& rec, const proto::RunResult& run,
                std::uint64_t true_n, std::uint64_t nodes,
                const proto::EstimatorBound& bound) {
  const auto acc = proto::summarize_accuracy(run, true_n, bound.lo, bound.hi);
  rec.in_band_frac = acc.frac_in_band;
  rec.eps = bound.eps;
  rec.nodes = nodes;
  rec.rounds = run.flood_rounds;
  rec.messages = run.instr.total_messages();
  rec.digest = fold_run(run);
}

void record_protocol_counters(OpRecord& rec, const proto::RunResult& run) {
  rec.counters["protocols.subphases"] =
      static_cast<double>(run.subphases_executed);
  rec.counters["protocols.token_msgs"] =
      static_cast<double>(run.instr.token_messages);
  rec.counters["protocols.verify_msgs"] =
      static_cast<double>(run.instr.verify_messages);
  rec.counters["protocols.injections_caught"] =
      static_cast<double>(run.instr.injections_caught);
}

/// Returns freed heap pages to the OS, so the process's max RSS is the
/// high-water mark of one batch (or set-up), not how the allocator happened
/// to fragment over the batches before it. Called only while no op runs
/// (after a set-up, between batches): malloc_trim locks every arena. Returns
/// the ms it took, which the loop keeps out of its measured wall time.
double release_free_heap() {
  const auto t0 = Clock::now();
  malloc_trim(0);
  return ms_since(t0);
}

double mebibytes(std::uint64_t bytes) {
  return static_cast<double>(bytes) / (1024.0 * 1024.0);
}

// ---------------------------------------------------------------------------
// Layer calls shared by the workloads.
// ---------------------------------------------------------------------------

/// Overlay::build split into its two public halves so each gets a span.
graph::Overlay build_overlay(NodeId n, std::uint32_t d, std::uint64_t seed,
                             Tracer& tracer) {
  graph::OverlayParams params;
  params.n = n;
  params.d = d;
  params.seed = seed;
  std::optional<graph::Graph> h;
  {
    Span span(tracer, "graph.h_sample");
    util::Xoshiro256 rng(seed);
    h.emplace(graph::build_hamiltonian_graph(n, d, rng));
  }
  Span span(tracer, "graph.g_pass");
  return graph::Overlay::build_from_h(params, std::move(*h));
}

/// Traced ops only: the setup stage (claims, lies, crash rule) and the
/// Verifier construction, re-run as probes on the op's own inputs because
/// the protocol run has no public entry point for either.
void probe_setup_and_verifier(const graph::Overlay& overlay,
                              const std::vector<bool>& byz,
                              adv::StrategyKind kind, std::uint64_t color_seed,
                              Tracer& tracer, OpRecord& rec) {
  std::optional<proto::ClaimSet> claims;
  std::vector<bool> crashed;
  sim::Instrumentation instr;
  {
    Span span(tracer, "protocols.setup");
    const sim::World world = sim::World::make(overlay, byz, color_seed);
    claims.emplace(overlay);
    adv::make_strategy(kind)->setup_lies(world, *claims);
    crashed = proto::compute_crash_set(*claims, byz, &instr);
  }
  {
    Span span(tracer, "protocols.verifier");
    const proto::Verifier verifier(overlay, byz, proto::VerificationConfig{});
  }
  double liars = 0.0;
  double crashes = 0.0;
  for (NodeId v = 0; v < overlay.num_nodes(); ++v) {
    if (byz[v] && !claims->truthful(v)) liars += 1.0;
    if (!byz[v] && crashed[v]) crashes += 1.0;
  }
  rec.counters["protocols.liars"] = liars;
  rec.counters["protocols.crashes"] = crashes;
  rec.counters["protocols.setup_msgs"] =
      static_cast<double>(instr.setup_messages);
}

/// algo2 -> refine_run -> smooth_estimates, the size_service pipeline.
void algo2_op(const graph::Overlay& overlay, const std::vector<bool>& byz,
              adv::StrategyKind kind, std::uint64_t color_seed, Tracer& tracer,
              OpRecord& rec) {
  rec.kind = "algo2";
  if (tracer.on()) {
    probe_setup_and_verifier(overlay, byz, kind, color_seed, tracer, rec);
  }
  const auto estimator = proto::make_estimator("algo2");
  const auto strategy = adv::make_strategy(kind);
  std::optional<proto::RunResult> run;
  {
    Span span(tracer, "protocols.run");
    run.emplace(estimator->run(overlay, byz, *strategy, color_seed));
  }
  std::vector<double> refined;
  {
    Span span(tracer, "protocols.refine");
    refined = proto::refine_run(*run, overlay.params().d);
  }
  {
    Span span(tracer, "protocols.smooth");
    const auto smoothed = proto::smooth_estimates(
        overlay, byz, refined, proto::EstimateLie::kInflate);
  }
  record_run(rec, *run, overlay.num_nodes(), overlay.num_nodes(),
             estimator->bound(overlay));
  record_protocol_counters(rec, *run);
}

void brc_op(const graph::Overlay& overlay, const std::vector<bool>& byz,
            adv::StrategyKind kind, std::uint64_t color_seed, Tracer& tracer,
            OpRecord& rec) {
  rec.kind = "brc";
  const auto estimator = proto::make_estimator("brc");
  const auto strategy = adv::make_strategy(kind);
  std::optional<proto::RunResult> run;
  {
    Span span(tracer, "protocols.brc_run");
    run.emplace(estimator->run(overlay, byz, *strategy, color_seed));
  }
  record_run(rec, *run, overlay.num_nodes(), overlay.num_nodes(),
             estimator->bound(overlay));
}

/// Runs one op under an "op" root span; an exception marks it failed.
template <typename Fn>
OpRecord timed_op(bool traced, Fn&& body) {
  OpRecord rec;
  rec.traced = traced;
  Tracer tracer(traced);
  const auto t0 = Clock::now();
  try {
    Span span(tracer, "op");
    body(tracer, rec);
    rec.returned = true;
  } catch (const std::exception& e) {
    rec.error = e.what();
  }
  rec.wall_ms = ms_since(t0);
  rec.spans = tracer.take();
  return rec;
}

template <typename Fn>
SetupRecord timed_setup(bool traced, Fn&& body) {
  SetupRecord rec;
  Tracer tracer(traced);
  const auto t0 = Clock::now();
  {
    Span span(tracer, "setup");
    body(tracer, rec);
  }
  rec.wall_s = ms_since(t0) / 1000.0;
  rec.spans = tracer.take();
  return rec;
}

// ---------------------------------------------------------------------------
// Workloads.
// ---------------------------------------------------------------------------

// Seed streams: the inputs a run derives from --seed.
constexpr std::uint64_t kOverlayStream = 0x0E1;
constexpr std::uint64_t kPlacementStream = 0xB12;
constexpr std::uint64_t kColorStream = 0xC0100;
constexpr std::uint64_t kTraceStream = 0x7ACE;
constexpr std::uint64_t kChurnStream = 0xC4A;
constexpr std::uint64_t kScheduleStream = 0x5C4ED;

/// Set-up repetitions per run; setup_s is their median. The first one or
/// two of a process run slower, so the median needs several more.
constexpr int kSetupReps = 9;
constexpr std::uint32_t kD = 8;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string out;
};

/// The measured loop of every workload: batches of `batch` ops through the
/// shared scheduler at its default worker count (hardware concurrency),
/// back to back, until the budget is spent and the first `prefix_batches`
/// (traced: at least two) ran. Slot i of every batch is client i, so a
/// client's ops run in sequence, one per batch. A traced run traces every
/// second batch; the untraced ones in between measure the tracing overhead.
/// A thrown op ends the loop after its batch. `op(slot, batch_no, traced)`
/// runs one op. The prefix the deterministic metrics use is the first
/// `prefix_batches` batches, whose inputs do not depend on timing.
template <typename Fn>
void batch_loop(const Options& opt, std::size_t batch,
                std::size_t prefix_batches, RunRecords& out, Fn&& op) {
  const bench_core::TrialScheduler scheduler;
  const unsigned workers =
      static_cast<unsigned>(std::min<std::size_t>(scheduler.jobs(), batch));
  out.prefix_ops = prefix_batches * batch;
  const std::size_t min_batches =
      std::max<std::size_t>(prefix_batches, opt.trace ? 2 : 1);
  const auto start = Clock::now();
  double released_ms = 0.0;
  for (std::size_t b = 0;; ++b) {
    if (b >= min_batches &&
        ms_since(start) - released_ms >= opt.seconds * 1000.0) {
      break;
    }
    const bool traced = opt.trace && b % 2 == 1;
    const auto t0 = Clock::now();
    auto recs = scheduler.map(
        batch, [&](std::uint64_t i) { return op(i, b, traced); });
    out.batches.push_back({ms_since(t0), workers, traced, batch});
    bool threw = false;
    for (std::size_t i = 0; i < batch; ++i) {
      recs[i].client = i;
      recs[i].seq = b;
      threw = threw || !recs[i].returned;
      out.ops.push_back(std::move(recs[i]));
    }
    if (threw) break;
    released_ms += release_free_heap();
  }
  out.loop_wall_s = (ms_since(start) - released_ms) / 1000.0;
}

/// Clients querying a size service under the fake-color attack. The
/// network is size_service's default deployment (its --seed=11, first
/// trial: overlay and placement seeds as size_service derives them), built
/// once and shared; --seed drives each query's coins. A fixed network keeps
/// the deterministic metrics steady across seeds: in two of ten networks
/// sampled per seed, a handful of honest nodes stayed undecided until the
/// phase cap, which multiplied the round count by ~110.
void run_oneshot_attack(const Options& opt, RunRecords& out) {
  constexpr NodeId kN = NodeId{1} << 14;
  constexpr double kDelta = 0.5;
  const std::uint64_t network = bench_core::TrialScheduler::trial_seed(11, 0);
  std::optional<graph::Overlay> overlay;
  std::vector<bool> byz;
  for (int rep = 0; rep < kSetupReps; ++rep) {
    overlay.reset();
    out.setups.push_back(
        timed_setup(opt.trace, [&](Tracer& tracer, SetupRecord& rec) {
          overlay.emplace(build_overlay(kN, kD, network, tracer));
          util::Xoshiro256 rng(network ^ 0xB12);
          byz = graph::random_byzantine_mask(
              kN, sim::derive_byz_count(kN, kDelta), rng);
          rec.counters["graph.overlay_mb"] = mebibytes(overlay->memory_bytes());
        }));
    release_free_heap();
  }
  const std::size_t clients = bench_core::TrialScheduler().jobs();
  batch_loop(opt, clients, 1, out,
             [&](std::size_t client, std::size_t seq, bool traced) {
               return timed_op(traced, [&](Tracer& tracer, OpRecord& rec) {
                 algo2_op(*overlay, byz, adv::StrategyKind::kFakeColor,
                          util::mix_seed(util::mix_seed(opt.seed, client),
                                         kColorStream + seq),
                          tracer, rec);
               });
             });
}

/// The BRC trials of batch-large take their network and coins from
/// trial_seed(kBrcPoolRoot, i), i in [0, kBrcPoolSize), less the seeds in
/// kBrcSkipped. On those four, BRC ran 930 to 1890 rounds instead of its
/// usual 450, and on i = 25 no node decided before the batch cap, which
/// fails the output check. Random fault-free trials at n = 2^16 hit that
/// tail about once in 50, so the benchmark would fail runs at random and
/// its round count would jump between seeds; --seed picks pool entries.
constexpr std::uint64_t kBrcPoolRoot = 0xB2C;
constexpr std::uint64_t kBrcPoolSize = 48;
constexpr std::array<std::uint64_t, 4> kBrcSkipped = {11, 25, 35, 41};

/// Trials through the shared scheduler at its default worker count, each
/// building its own overlay; even trials run algo2 (+ refine/smooth) on a
/// network and coins drawn from --seed, odd ones BRC on a pool entry. No
/// Byzantine nodes, so the crash rule has nothing to scan.
void run_batch_large(const Options& opt, RunRecords& out) {
  constexpr NodeId kN = NodeId{1} << 16;
  const unsigned jobs = bench_core::TrialScheduler().jobs();
  const std::size_t batch = std::max<std::size_t>(2, jobs + jobs % 2);
  std::vector<std::uint64_t> brc_pool;
  for (std::uint64_t i = 0; i < kBrcPoolSize; ++i) {
    if (std::find(kBrcSkipped.begin(), kBrcSkipped.end(), i) ==
        kBrcSkipped.end()) {
      brc_pool.push_back(
          bench_core::TrialScheduler::trial_seed(kBrcPoolRoot, i));
    }
  }
  // The trials build their overlays inside the ops, so no op uses what
  // set-up builds. setup_s is a stand-in, reported because every workload
  // reports it: one overlay build of the trial size, outside any trial.
  for (int rep = 0; rep < kSetupReps; ++rep) {
    out.setups.push_back(
        timed_setup(opt.trace, [&](Tracer& tracer, SetupRecord& rec) {
          const auto overlay = build_overlay(
              kN, kD, util::mix_seed(opt.seed, kOverlayStream), tracer);
          rec.counters["graph.overlay_mb"] = mebibytes(overlay.memory_bytes());
        }));
    release_free_heap();
  }
  batch_loop(opt, batch, 1, out,
             [&](std::size_t slot, std::size_t b, bool traced) {
               const std::uint64_t index = b * batch + slot;
               return timed_op(traced, [&](Tracer& tracer, OpRecord& rec) {
                 const std::uint64_t seed =
                     index % 2 == 0
                         ? bench_core::TrialScheduler::trial_seed(opt.seed,
                                                                  index)
                         : brc_pool[util::mix_seed(opt.seed, index) %
                                    brc_pool.size()];
                 const auto overlay = build_overlay(kN, kD, seed, tracer);
                 rec.counters["graph.overlay_mb"] =
                     mebibytes(overlay.memory_bytes());
                 const std::vector<bool> byz(kN, false);
                 if (index % 2 == 0) {
                   algo2_op(overlay, byz, adv::StrategyKind::kHonest, seed,
                            tracer, rec);
                 } else {
                   brc_op(overlay, byz, adv::StrategyKind::kHonest, seed,
                          tracer, rec);
                 }
               });
             });
}

/// Continuous estimation: one deployment per client, one epoch of steady
/// churn per op, applied during the run under readmit-next-phase, against
/// topology liars.
struct ChurnWorld {
  dynamics::ChurnTrace trace;
  std::unique_ptr<dynamics::MutableOverlay> overlay;
  // Declared after `overlay`: its splice observer must detach first.
  std::unique_ptr<incremental::IncrementalEngine> inc;
  std::optional<dynamics::MutableOverlay::Snapshot> first;
  std::vector<bool> byz;  ///< by stable id; grows with joins
  util::Xoshiro256 churn_rng{0};
};

void run_churn_midrun(const Options& opt, RunRecords& out) {
  constexpr NodeId kN0 = NodeId{1} << 14;
  constexpr double kDelta = 0.7;
  constexpr double kChurnRate = 0.002;  // joins, and leaves, per epoch
  constexpr std::uint32_t kEpochs = 4096;
  const proto::ProtocolConfig cfg{};
  const auto strategy_kind = adv::StrategyKind::kTopologyLiar;

  // One deployment per client, each seeded from (--seed, client).
  const unsigned clients = bench_core::TrialScheduler().jobs();
  std::vector<std::unique_ptr<ChurnWorld>> worlds(clients);
  for (int rep = 0; rep < kSetupReps; ++rep) {
    for (auto& world : worlds) world.reset();
    out.setups.push_back(
        timed_setup(opt.trace, [&](Tracer& tracer, SetupRecord& rec) {
          for (unsigned c = 0; c < clients; ++c) {
            const std::uint64_t seed = util::mix_seed(opt.seed, c);
            auto world = std::make_unique<ChurnWorld>();
            dynamics::ChurnTraceParams trace;
            trace.n0 = kN0;
            trace.epochs = kEpochs;
            trace.arrival_rate = kChurnRate * kN0;
            trace.departure_rate = kChurnRate * kN0;
            trace.model = dynamics::ChurnModel::kSteady;
            trace.min_n = kN0 / 4;
            trace.seed = util::mix_seed(seed, kTraceStream);
            world->trace = dynamics::generate_trace(trace);
            world->overlay = std::make_unique<dynamics::MutableOverlay>(
                kN0, kD, 0, util::mix_seed(seed, kOverlayStream));
            world->inc = std::make_unique<incremental::IncrementalEngine>(
                *world->overlay);
            {
              Span span(tracer, "incremental.snapshot");
              world->first.emplace(world->inc->snapshot());
            }
            util::Xoshiro256 rng(util::mix_seed(seed, kPlacementStream));
            world->byz = graph::random_byzantine_mask(
                kN0, sim::derive_byz_count(kN0, kDelta), rng);
            world->churn_rng =
                util::Xoshiro256(util::mix_seed(seed, kChurnStream));
            rec.counters["graph.overlay_mb"] =
                mebibytes(world->first->overlay.memory_bytes());
            worlds[c] = std::move(world);
          }
        }));
    release_free_heap();
  }

  const auto epoch_op = [&](std::size_t client, std::size_t e, bool traced) {
    return timed_op(traced, [&](Tracer& tracer, OpRecord& rec) {
      rec.kind = "epoch";
      ChurnWorld& w = *worlds[client];
      const std::uint64_t seed = util::mix_seed(opt.seed, client);
      // Epoch 0 runs on the set-up snapshot; later epochs snapshot the
      // previous epoch's churn incrementally, as run_churn does.
      std::optional<dynamics::MutableOverlay::Snapshot> fresh;
      if (e > 0) {
        {
          Span span(tracer, "incremental.snapshot");
          fresh.emplace(w.inc->snapshot());
        }
        rec.counters["incremental.balls_recomputed"] =
            static_cast<double>(w.inc->stats().last_recomputed);
        rec.counters["incremental.balls_reused"] =
            static_cast<double>(w.inc->stats().last_reused);
      }
      const auto& snap = fresh ? *fresh : *w.first;
      const NodeId n_before = w.overlay->num_alive();
      // Throws (failing the op) if a run outlasts the trace.
      const auto& epoch = w.trace.epochs.at(e);
      std::optional<dynamics::ChurnSchedule> schedule;
      {
        Span span(tracer, "dynamics.schedule");
        schedule.emplace(dynamics::derive_schedule(
            epoch,
            dynamics::expected_horizon_rounds(n_before, kD, cfg.schedule),
            util::mix_seed(seed, kScheduleStream + e)));
      }
      const std::uint64_t color_seed = util::mix_seed(seed, kColorStream + e);
      if (tracer.on()) {
        std::vector<bool> dense_byz(n_before, false);
        for (NodeId i = 0; i < n_before; ++i) {
          dense_byz[i] = w.byz[snap.dense_to_stable[i]];
        }
        probe_setup_and_verifier(snap.overlay, dense_byz, strategy_kind,
                                 color_seed, tracer, rec);
      }
      dynamics::MidRunConfig mid_cfg;
      mid_cfg.policy = proto::MembershipPolicy::kReadmitNextPhase;
      dynamics::MidRunComposed composed;
      composed.snapshot = &snap;
      const auto strategy = adv::make_strategy(strategy_kind);
      std::optional<dynamics::MidRunOutcome> outcome;
      {
        Span span(tracer, "dynamics.midrun");
        outcome.emplace(dynamics::run_counting_midrun(
            *w.overlay, w.byz, *strategy, cfg, color_seed, *schedule, mid_cfg,
            adv::ChurnAdversary::kNone, w.churn_rng, &composed));
      }
      const NodeId n_after = w.overlay->num_alive();
      rec.alive_ok = n_after == epoch.n_after;
      record_run(rec, outcome->run, n_after, n_before,
                 proto::make_estimator("algo2")->bound(snap.overlay));
      record_protocol_counters(rec, outcome->run);
      const auto& stats = outcome->stats;
      rec.counters["dynamics.events_applied"] =
          static_cast<double>(stats.events_applied);
      rec.counters["dynamics.events_flushed"] =
          static_cast<double>(stats.events_flushed);
      rec.counters["dynamics.admitted"] = static_cast<double>(stats.admitted);
      rec.counters["dynamics.verifier_refreshes"] =
          static_cast<double>(stats.verifier_refreshes);
    });
  };
  batch_loop(opt, clients, 2, out, epoch_op);
}

// ---------------------------------------------------------------------------
// Output.
// ---------------------------------------------------------------------------

using bench_core::Json;

Json counters_json(const std::map<std::string, double>& counters) {
  Json out = Json::object();
  for (const auto& [name, value] : counters) out[name] = value;
  return out;
}

Json spans_json(const std::vector<SpanRec>& spans) {
  Json out = Json::array();
  for (const auto& s : spans) {
    Json span = Json::array();
    span.push_back(s.name);
    span.push_back(s.parent);
    span.push_back(s.start_us);
    span.push_back(s.end_us);
    out.push_back(std::move(span));
  }
  return out;
}

/// The digest as a hex string: a JSON number (a double) would round it.
std::string hex(std::uint64_t value) {
  char buf[17];
  const auto end = std::to_chars(buf, buf + sizeof(buf), value, 16).ptr;
  return {buf, end};
}

Json records_json(const Options& opt, const RunRecords& run) {
  Json setups = Json::array();
  for (const auto& s : run.setups) {
    Json rec = Json::object();
    rec["wall_s"] = s.wall_s;
    rec["counters"] = counters_json(s.counters);
    rec["spans"] = spans_json(s.spans);
    setups.push_back(std::move(rec));
  }
  Json batches = Json::array();
  for (const auto& b : run.batches) {
    Json rec = Json::object();
    rec["wall_ms"] = b.wall_ms;
    rec["jobs"] = static_cast<std::uint64_t>(b.jobs);
    rec["traced"] = b.traced;
    rec["ops"] = static_cast<std::uint64_t>(b.ops);
    batches.push_back(std::move(rec));
  }
  Json ops = Json::array();
  for (const auto& op : run.ops) {
    Json rec = Json::object();
    rec["kind"] = op.kind;
    rec["client"] = static_cast<std::uint64_t>(op.client);
    rec["seq"] = static_cast<std::uint64_t>(op.seq);
    rec["traced"] = op.traced;
    rec["wall_ms"] = op.wall_ms;
    rec["returned"] = op.returned;
    rec["error"] = op.error;
    rec["in_band_frac"] = op.in_band_frac;
    rec["eps"] = op.eps;
    rec["alive_ok"] = op.alive_ok;
    rec["nodes"] = op.nodes;
    rec["rounds"] = op.rounds;
    rec["messages"] = op.messages;
    rec["digest"] = hex(op.digest);
    rec["counters"] = counters_json(op.counters);
    rec["spans"] = spans_json(op.spans);
    ops.push_back(std::move(rec));
  }
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  Json doc = Json::object();
  doc["workload"] = opt.workload;
  doc["seed"] = opt.seed;
  doc["trace"] = opt.trace ? 1 : 0;
  doc["nproc"] =
      static_cast<std::uint64_t>(std::thread::hardware_concurrency());
  doc["compiler"] = PERFBENCH_COMPILER;
  doc["build_type"] = PERFBENCH_BUILD_TYPE;
  doc["peak_rss_kb"] = static_cast<std::int64_t>(usage.ru_maxrss);
  doc["prefix_ops"] = static_cast<std::uint64_t>(run.prefix_ops);
  doc["loop_wall_s"] = run.loop_wall_s;
  doc["setups"] = std::move(setups);
  doc["batches"] = std::move(batches);
  doc["ops"] = std::move(ops);
  return doc;
}

int usage_error(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload oneshot-attack|batch-large|"
               "churn-midrun --seed N --seconds S --trace 0|1 --out FILE\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) return usage_error("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") return usage_error("--trace 0|1");
        opt.trace = value == "1";
      } else if (flag == "--out") {
        opt.out = value;
      } else {
        return usage_error("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage_error("malformed number");
  }
  if (opt.out.empty()) return usage_error("--out is required");
  if (opt.seconds <= 0.0) return usage_error("--seconds must be positive");

  RunRecords run;
  if (opt.workload == "oneshot-attack") {
    run_oneshot_attack(opt, run);
  } else if (opt.workload == "batch-large") {
    run_batch_large(opt, run);
  } else if (opt.workload == "churn-midrun") {
    run_churn_midrun(opt, run);
  } else {
    return usage_error("unknown workload '" + opt.workload + "'");
  }

  std::ofstream file(opt.out);
  file << records_json(opt, run).dump(0) << '\n';
  file.close();
  if (!file) {
    std::cerr << "perfbench: cannot write " << opt.out << "\n";
    return 1;
  }
  return 0;
}
