// mixed_native_<structure>: the paper's Section-5 operation mix (50%
// insert with a uniform key, 50% delete-min, no local work) on one native
// structure, with kThreads threads sharing one prefilled queue in a closed
// loop, through harness::BackendRegistry / QueueHandle. It touches neither
// pqd nor the simulator. The workloads run the paper's algorithm (`skip`)
// and the relaxed one that should scale (`multiqueue`), one per workload,
// so that each has a throughput of its own.
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "harness/workload.hpp"

namespace perfbench {
namespace {

/// The prefill of the repository's native mixed-op suite
/// (bench/native_queues.cpp: 1024 items per thread for up to 8 threads).
constexpr std::size_t kPrefill = 8192;
constexpr int kRounds = 12;
constexpr int kSetupReps = 50;       ///< extra set-ups timed per run
constexpr int kSampleEvery = 64;     ///< untraced rounds time 1 call in 64
constexpr std::size_t kSpanCap = 4096;  ///< spans kept per worker per round
constexpr int kRankShift = 42;       ///< 62-bit key -> 2^20 rank buckets

/// 31 uniform random bits above a 31-bit tag that is unique in the run,
/// so keys are uniform and distinct: a skip queue updates an equal key in
/// place, and distinct keys keep conservation exact.
Key make_key(std::uint64_t random31, std::uint64_t tag) {
  return static_cast<Key>((random31 << 31) | tag);
}

enum class Mode {
  kSampled,  ///< end-to-end: one call in kSampleEvery timed, no spans
  kTraced,   ///< per-layer: every call timed, spans kept
  kRanked,   ///< rank error through the RankTracker; never timed
};

struct alignas(64) Worker {
  Fingerprint inserted;
  Fingerprint deleted;
  std::uint64_t ops = 0;
  Samples insert_ns;
  Samples delete_ns;
  Samples rank;
};

struct Round {
  double ops_per_s = 0.0;
  double setup_s = 0.0;
  std::uint64_t ops = 0;
  Samples insert_ns;
  Samples delete_ns;
  Samples rank;
  slpq::TelemetrySnapshot telemetry;
};

void work(harness::QueueHandle& q, int t, std::uint64_t seed, Mode mode,
          Worker& w, RankTracker* ranks, SpanLog* log, std::uint64_t parent,
          const std::atomic<bool>& go, const std::atomic<bool>& stop) {
  pin_worker(t);
  harness::OpContext ctx;
  ctx.thread = t;
  slpq::detail::Xoshiro256 rng(seed * 0x9E3779B97F4A7C15ULL +
                               static_cast<std::uint64_t>(t) + 1);
  std::uint64_t tag = kPrefill + static_cast<std::uint64_t>(t);
  const std::uint64_t op_base = static_cast<std::uint64_t>(t + 1) << 40;
  std::uint64_t i = 0;
  while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
  while (!stop.load(std::memory_order_relaxed)) {
    for (int j = 0; j < kSampleEvery; ++j, ++i) {
      const bool timed =
          mode == Mode::kTraced || (mode == Mode::kSampled && j == 0);
      const std::uint64_t r = rng.next();
      if (r & 1) {
        const Key key = make_key(r >> 33, tag);
        tag += kThreads;
        w.inserted.add(key);
        if (ranks) ranks->insert(static_cast<std::uint64_t>(key) >> kRankShift);
        if (!timed) {
          q.insert(ctx, key, static_cast<Value>(key));
          continue;
        }
        const std::uint64_t t0 = now_ns();
        q.insert(ctx, key, static_cast<Value>(key));
        const std::uint64_t t1 = now_ns();
        w.insert_ns.add(t1 - t0);
        if (log)
          log->record(log->next_id(), "slpq.insert", parent, op_base | i, t0,
                      t1);
      } else {
        std::optional<Key> got;
        if (!timed) {
          got = q.delete_min(ctx);
        } else {
          const std::uint64_t t0 = now_ns();
          got = q.delete_min(ctx);
          const std::uint64_t t1 = now_ns();
          w.delete_ns.add(t1 - t0);
          if (log)
            log->record(log->next_id(), "slpq.delete_min", parent,
                        op_base | i, t0, t1);
        }
        if (!got) continue;  // EMPTY is a defined outcome
        w.deleted.add(*got);
        if (ranks)
          w.rank.add(ranks->remove(static_cast<std::uint64_t>(*got) >>
                                   kRankShift));
      }
    }
  }
  w.ops = i;
}

/// Set-up, the part of a round timed as setup_s: a fresh queue built
/// through the registry and prefilled with kPrefill distinct keys, which
/// go into `in` (and the rank tracker, when there is one).
std::unique_ptr<harness::QueueHandle> make_queue(
    const harness::Backend& backend, std::uint64_t seed, Fingerprint& in,
    RankTracker* ranks) {
  harness::BenchmarkConfig cfg;
  cfg.structure = backend.name;
  cfg.flavor = harness::Flavor::Native;
  cfg.processors = kThreads;
  cfg.initial_size = kPrefill;
  cfg.seed = seed;
  auto queue = backend.make(harness::BackendInit{cfg, nullptr});
  slpq::detail::Xoshiro256 rng(seed ^ 0xBEEFCAFEULL);
  for (std::size_t i = 0; i < kPrefill; ++i) {
    const Key key = make_key(rng.next() >> 33, i);
    queue->seed(key, static_cast<Value>(key));
    in.add(key);
    if (ranks) ranks->insert(static_cast<std::uint64_t>(key) >> kRankShift);
  }
  return queue;
}

/// One round: build and prefill a fresh queue (timed as set-up), run the
/// closed loop for `seconds`, then quiesce and gate the outcome.
Round run_round(const harness::Backend& backend, std::uint64_t seed,
                double seconds, Mode mode, Result& out) {
  std::unique_ptr<RankTracker> ranks;
  if (mode == Mode::kRanked)
    ranks = std::make_unique<RankTracker>(std::size_t{1} << (62 - kRankShift));

  Round round;
  Fingerprint in;
  const std::uint64_t t_setup = now_ns();
  auto queue = make_queue(backend, seed, in, ranks.get());
  round.setup_s = static_cast<double>(now_ns() - t_setup) * 1e-9;

  std::vector<Worker> workers(kThreads);
  std::vector<SpanLog> logs;
  SpanLog round_log = out.tracer.open(1);
  const std::uint64_t round_span = round_log.next_id();
  if (mode == Mode::kTraced)
    for (int t = 0; t < kThreads; ++t) logs.push_back(out.tracer.open(kSpanCap));
  std::atomic<bool> go{false};
  std::atomic<bool> stop{false};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&, t] {
      work(*queue, t, seed, mode, workers[static_cast<std::size_t>(t)],
           ranks.get(), logs.empty() ? nullptr : &logs[static_cast<std::size_t>(t)],
           round_span, go, stop);
    });
  const std::uint64_t t_start = now_ns();
  go.store(true, std::memory_order_release);
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true, std::memory_order_relaxed);
  for (std::thread& th : threads) th.join();
  const std::uint64_t t_end = now_ns();
  queue->quiesce();
  round.telemetry = queue->telemetry();

  Fingerprint removed;
  for (const Worker& w : workers) {
    in.merge(w.inserted);
    removed.merge(w.deleted);
    round.ops += w.ops;
    round.insert_ns.merge(w.insert_ns);
    round.delete_ns.merge(w.delete_ns);
    round.rank.merge(w.rank);
  }
  round.ops_per_s =
      static_cast<double>(round.ops) * 1e9 / static_cast<double>(t_end - t_start);
  if (mode == Mode::kTraced) {
    round_log.record(round_span, "mixed_native.round", 0, 0, t_start, t_end);
    out.tracer.keep(round_log);
    for (const SpanLog& log : logs) out.tracer.keep(log);
  }

  // Untimed gate: what remains must be warm + inserted - deleted, and a
  // sorted drain (exact backends) must return exactly those keys.
  const std::uint64_t expected = in.count - removed.count;
  const std::uint64_t held = queue->final_size();
  const std::string who = "mixed_native/" + backend.name + " seed " +
                          std::to_string(seed) + ": ";
  out.fail(held > expected ? held - expected : expected - held,
           who + "final_size " + std::to_string(held) + " != expected " +
               std::to_string(expected));
  harness::OpContext ctx;
  const Drain d = drain([&] { return queue->delete_min(ctx); });
  removed.merge(d.keys);
  out.fail(conservation_failures(in, removed),
           who + "keys lost or duplicated");
  if (!backend.has(harness::Backend::kRelaxed))
    out.fail(d.order_violations, who + "drain out of order");
  out.attempted += round.ops;
  return round;
}

}  // namespace

void run_mixed_native(const RunSpec& spec, const std::string& structure,
                      Result& out) {
  const harness::Backend& backend =
      harness::BackendRegistry::instance().require(harness::Flavor::Native,
                                                   structure);
  const bool relaxed = backend.has(harness::Backend::kRelaxed);
  const double untraced_s = spec.trace ? spec.seconds / 2 : spec.seconds;
  // A relaxed structure also spends a tenth of the budget pricing its
  // relaxation; an exact one has rank error 0 by its drain gate.
  const double rank_s = relaxed ? 0.1 * untraced_s : 0.0;
  const double round_s = (untraced_s - rank_s) / kRounds;

  std::vector<double> rates, setups;
  Samples delete_ns;
  slpq::TelemetrySnapshot counters;
  std::uint64_t ops = 0;
  for (int r = 0; r < kRounds; ++r) {
    Round x = run_round(backend, spec.seed * 1000003 + r, round_s,
                        Mode::kSampled, out);
    release_free_memory();
    rates.push_back(x.ops_per_s);
    setups.push_back(x.setup_s);
    delete_ns.merge(x.delete_ns);
    for (const auto& [k, v] : x.telemetry.entries) counters.add(k, v);
    ops += x.ops;
  }
  for (int r = 0; r < kSetupReps; ++r) {
    Fingerprint unused;
    const std::uint64_t t0 = now_ns();
    auto queue = make_queue(backend, spec.seed * 1000003 + 100 + r, unused,
                            nullptr);
    setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
  }
  release_free_memory();
  const double rate = median(rates);
  out.metric("ops_per_s", rate, "1/s");
  out.metric("setup_s", median(setups), "s", setups.size());
  out.metric("delete_p99_ns." + structure, delete_ns.quantile(0.99), "ns",
             delete_ns.count());
  if (relaxed) {
    Round ranked = run_round(backend, spec.seed * 1000003 + 999, rank_s,
                             Mode::kRanked, out);
    out.metric("rank_error_mean." + structure, ranked.rank.mean(), "items",
               ranked.rank.count());
  }

  if (!spec.trace) return;

  // Per-layer numbers: counters from the untraced rounds, call timings
  // from traced rounds that time every call.
  const std::string p = "slpq." + structure + ".";
  slpq_counter_metrics(out, p, counters, ops, structure == "multiqueue");
  Samples ins, del;
  std::vector<double> traced_rates;
  constexpr int kTracedRounds = 4;
  for (int r = 0; r < kTracedRounds; ++r) {
    Round x = run_round(backend, spec.seed * 1000003 + 500 + r,
                        spec.seconds / 2 / kTracedRounds, Mode::kTraced, out);
    release_free_memory();
    ins.merge(x.insert_ns);
    del.merge(x.delete_ns);
    traced_rates.push_back(x.ops_per_s);
  }
  percentile_metrics(out, p + "insert_ns", ins);
  percentile_metrics(out, p + "delete_ns", del);
  out.metric("trace_overhead", 1.0 - median(traced_rates) / rate, "ratio");
}

}  // namespace perfbench
