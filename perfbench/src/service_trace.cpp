// service_trace: a hold-model (discrete-event simulation) trace, recorded
// in memory by harness::Trace::record_hold_model from the run's seed, is
// replayed by kThreads closed-loop clients. End to end, the clients are
// pqd::Sessions on InProcTransport over the pqd defaults (4 `skip`
// shards, batch 8). The traced run replays the same input down a ladder
// of three rungs, timing the calls at each, so that each layer's cost
// has its own number:
//   rung 1  the `skip` QueueHandle alone, called from kThreads threads;
//   rung 2  pqd::Service::insert_batch / delete_min called directly;
//   rung 3  Session::enqueue / dequeue on InProcTransport.
#include <algorithm>
#include <atomic>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"
#include "harness/trace.hpp"
#include "harness/workload.hpp"
#include "harness/workload_spec.hpp"
#include "pqd/service.hpp"
#include "pqd/transport.hpp"

namespace perfbench {
namespace {

/// The trace shape of the repository's pqd tools (tools/pqd_loadgen's
/// --emit-trace defaults, bench/pqd_sweep): a 1000-item warm set, the
/// paper's initial size, and 20000 ops.
constexpr std::uint64_t kWarm = 1000;
constexpr std::uint64_t kTraceOps = 20000;
constexpr std::size_t kSpanCap = 4096;  ///< spans kept per client per replay
constexpr std::uint64_t kTagStride = 0x9E3779B97F4A7C15ULL;

/// Values ride along with keys through pqd's side tables; deriving them
/// from the key lets the gate check that each key came back with its own.
Value value_of(Key k) {
  return static_cast<Value>(k) * 0xD6E8FEB86659FD93ULL + 1;
}

/// The run's input, generated once from the seed.
struct Input {
  std::vector<Key> warm;
  std::vector<Key> ops;  ///< insert key, or -1 for a delete-min
  Fingerprint all;           ///< warm set + every insert of the trace
  std::vector<Key> universe; ///< sorted keys: exact rank buckets

  std::size_t bucket(Key k) const {
    return static_cast<std::size_t>(
        std::lower_bound(universe.begin(), universe.end(), k) -
        universe.begin());
  }
};

Input make_input(std::uint64_t seed) {
  const harness::Trace trace =
      harness::Trace::record_hold_model(kTraceOps, kWarm, 0.5, seed);
  Input in;
  for (const harness::TraceOp& op : trace.warm) {
    in.warm.push_back(harness::spec::scenario_key(op.tick, op.tie));
    in.all.add(in.warm.back());
    in.universe.push_back(in.warm.back());
  }
  for (const harness::TraceOp& op : trace.ops) {
    if (op.kind == harness::TraceOp::Kind::kInsert) {
      in.ops.push_back(harness::spec::scenario_key(op.tick, op.tie));
      in.all.add(in.ops.back());
      in.universe.push_back(in.ops.back());
    } else {
      in.ops.push_back(-1);
    }
  }
  std::sort(in.universe.begin(), in.universe.end());
  return in;
}

enum class Mode {
  kTimed,   ///< end-to-end: every dequeue timed, no spans
  kTraced,  ///< per-layer: every call timed, spans kept
  kRanked,  ///< rank error through the RankTracker; never timed
};

/// Rung 1: the backend alone.
struct BackendClient {
  harness::QueueHandle& q;
  harness::OpContext ctx;

  void enqueue(Key k, SpanLog*, std::uint64_t) { q.insert(ctx, k, value_of(k)); }
  std::optional<pqd::Item> dequeue(SpanLog*, std::uint64_t) {
    const std::optional<Key> k = q.delete_min(ctx);
    if (!k) return std::nullopt;
    return pqd::Item{*k, value_of(*k)};
  }
  void flush() {}
};

/// Rung 2: the service called directly, batching inserts the way a
/// session does (a batch goes in when full or before a delete-min).
struct ServiceClient {
  pqd::Service& service;
  std::uint64_t tag;
  std::vector<pqd::Item> pending{};

  void enqueue(Key k, SpanLog* log, std::uint64_t parent) {
    pending.emplace_back(k, value_of(k));
    if (pending.size() >= static_cast<std::size_t>(service.config().batch))
      apply(log, parent);
  }
  std::optional<pqd::Item> dequeue(SpanLog* log, std::uint64_t parent) {
    apply(log, parent);
    const std::uint64_t t0 = log ? now_ns() : 0;
    std::optional<pqd::Item> item = service.delete_min();
    if (log)
      log->record(log->next_id(), "pqd.Service.delete_min", parent, 0, t0,
                  now_ns());
    return item;
  }
  void flush() { apply(nullptr, 0); }

  void apply(SpanLog* log, std::uint64_t parent) {
    if (pending.empty()) return;
    const std::uint64_t t0 = log ? now_ns() : 0;
    service.insert_batch(pending.data(), pending.size(), tag++);
    if (log)
      log->record(log->next_id(), "pqd.Service.insert_batch", parent, 0, t0,
                  now_ns());
    pending.clear();
  }
};

/// Rung 3: a client session on the in-process transport.
struct SessionClient {
  pqd::Session session;

  void enqueue(Key k, SpanLog*, std::uint64_t) { session.enqueue(k, value_of(k)); }
  std::optional<pqd::Item> dequeue(SpanLog*, std::uint64_t) {
    return session.dequeue();
  }
  void flush() { session.flush(); }
};

/// Span names of one rung's calls (literals: spans outlive the replay).
struct RungNames {
  const char* round;
  const char* enqueue;
  const char* dequeue;
};
constexpr RungNames kBackendRung{"rung1.slpq", "rung1.QueueHandle.insert",
                                 "rung1.QueueHandle.delete_min"};
constexpr RungNames kServiceRung{"rung2.pqd.Service", "rung2.enqueue",
                                 "rung2.dequeue"};
constexpr RungNames kSessionRung{"rung3.pqd.Session", "rung3.Session.enqueue",
                                 "rung3.Session.dequeue"};

struct Replay {
  double ops_per_s = 0.0;
  double thread_ns_per_op = 0.0;  ///< client-thread time per op
  Samples enqueue_ns;
  Samples dequeue_ns;
  Samples rank;
  Fingerprint removed;
};

/// Replays the trace through kThreads clients, each on its contiguous
/// block of ops (as harness trace_loop and pqd_loadgen split it).
template <typename MakeClient>
Replay replay(const Input& in, Mode mode, const RungNames& rung,
              MakeClient&& make_client, RankTracker* ranks, Result& out) {
  struct alignas(64) Tally {
    Samples enqueue_ns, dequeue_ns, rank;
    Fingerprint removed;
  };
  std::vector<Tally> tallies(kThreads);
  std::vector<SpanLog> logs;
  SpanLog round_log = out.tracer.open(1);
  const std::uint64_t round_span = round_log.next_id();
  if (mode == Mode::kTraced)
    for (int c = 0; c < kThreads; ++c) logs.push_back(out.tracer.open(kSpanCap));
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  std::vector<std::thread> threads;
  const std::size_t n = in.ops.size();
  for (int c = 0; c < kThreads; ++c) {
    threads.emplace_back([&, c] {
      const auto uc = static_cast<std::size_t>(c);
      Tally& tally = tallies[uc];
      SpanLog* log = logs.empty() ? nullptr : &logs[uc];
      pin_worker(c);
      auto client = make_client(c);
      ready.fetch_add(1, std::memory_order_release);
      while (!go.load(std::memory_order_acquire)) std::this_thread::yield();
      for (std::size_t i = n * uc / kThreads; i < n * (uc + 1) / kThreads; ++i) {
        const Key key = in.ops[i];
        if (key >= 0) {
          if (ranks) ranks->insert(in.bucket(key));
          if (mode != Mode::kTraced) {
            client.enqueue(key, nullptr, 0);
            continue;
          }
          const std::uint64_t id = log->next_id();
          const std::uint64_t t0 = now_ns();
          client.enqueue(key, log, id);
          const std::uint64_t t1 = now_ns();
          tally.enqueue_ns.add(t1 - t0);
          log->record(id, rung.enqueue, round_span, i + 1, t0, t1);
          continue;
        }
        std::optional<pqd::Item> got;
        if (mode == Mode::kRanked) {
          got = client.dequeue(nullptr, 0);
        } else {
          const std::uint64_t id = log ? log->next_id() : 0;
          const std::uint64_t t0 = now_ns();
          got = client.dequeue(log, id);
          const std::uint64_t t1 = now_ns();
          tally.dequeue_ns.add(t1 - t0);
          if (log)
            log->record(id, rung.dequeue, round_span, i + 1, t0, t1);
        }
        if (!got) continue;  // EMPTY is a defined outcome
        tally.removed.add(got->first);
        if (ranks) tally.rank.add(ranks->remove(in.bucket(got->first)));
      }
      client.flush();
    });
  }
  while (ready.load(std::memory_order_acquire) < kThreads)
    std::this_thread::yield();
  const std::uint64_t t_start = now_ns();
  go.store(true, std::memory_order_release);
  for (std::thread& th : threads) th.join();
  const std::uint64_t t_end = now_ns();

  Replay r;
  const double elapsed = static_cast<double>(t_end - t_start);
  r.ops_per_s = static_cast<double>(n) * 1e9 / elapsed;
  r.thread_ns_per_op = elapsed * kThreads / static_cast<double>(n);
  for (Tally& t : tallies) {
    r.enqueue_ns.merge(t.enqueue_ns);
    r.dequeue_ns.merge(t.dequeue_ns);
    r.rank.merge(t.rank);
    r.removed.merge(t.removed);
  }
  if (mode == Mode::kTraced) {
    round_log.record(round_span, rung.round, 0, 0, t_start, t_end);
    out.tracer.keep(round_log);
    for (const SpanLog& log : logs) out.tracer.keep(log);
  }
  out.attempted += n;
  return r;
}

/// Untimed gate: `held` must be warm + inserts - successful deletes, and
/// a single-threaded drain must return exactly the keys not yet removed,
/// each with its own value, and in order when the structure is exact (the
/// skip queue; the service is relaxed, and a claim window published
/// before a smaller insert legitimately drains ahead of it).
template <typename Pop>
void gate(const Input& in, const std::string& who, bool exact,
          std::uint64_t held, Fingerprint removed, Pop&& pop, Result& out) {
  const std::uint64_t expected = in.all.count - removed.count;
  out.fail(held > expected ? held - expected : expected - held,
           who + ": holds " + std::to_string(held) + ", expected " +
               std::to_string(expected));
  std::uint64_t bad_values = 0;
  const Drain d = drain([&]() -> std::optional<Key> {
    const std::optional<pqd::Item> item = pop();
    if (!item) return std::nullopt;
    if (item->second != value_of(item->first)) ++bad_values;
    return item->first;
  });
  removed.merge(d.keys);
  out.fail(conservation_failures(in.all, removed),
           who + ": keys lost or duplicated");
  if (exact) out.fail(d.order_violations, who + ": drain out of order");
  out.fail(bad_values, who + ": keys returned with another key's value");
}

pqd::ServiceConfig service_config(std::uint64_t seed) {
  pqd::ServiceConfig cfg;  // the pqd defaults: 4 skip shards, batch 8
  cfg.queue.seed = seed;
  cfg.queue.initial_size = kWarm;
  cfg.queue.total_ops = kWarm + kTraceOps;
  return cfg;
}

struct ServiceRun {
  Replay replay;
  double setup_s = 0.0;
  slpq::TelemetrySnapshot telemetry;
};

/// Rung 3, also the end-to-end path: service set-up (construction,
/// seeding, priming, transport) timed, then the sessions replay the trace.
ServiceRun run_sessions(const Input& in, std::uint64_t seed, Mode mode,
                        Result& out) {
  ServiceRun run;
  const std::uint64_t t0 = now_ns();
  pqd::Service service(service_config(seed));
  for (const Key k : in.warm) service.seed(k, value_of(k));
  service.prime();
  pqd::InProcTransport transport(service, kThreads + 1);
  run.setup_s = static_cast<double>(now_ns() - t0) * 1e-9;

  std::unique_ptr<RankTracker> ranks;
  if (mode == Mode::kRanked) {
    ranks = std::make_unique<RankTracker>(in.universe.size());
    for (const Key k : in.warm) ranks->insert(in.bucket(k));
  }
  run.replay = replay(
      in, mode, kSessionRung,
      [&](int) { return SessionClient{pqd::Session(transport)}; },
      ranks.get(), out);
  run.telemetry = service.telemetry();
  gate(in, "service_trace/pqd seed " + std::to_string(seed), false,
       service.size(),
       run.replay.removed, [&] { return service.delete_min(); }, out);
  return run;
}

Replay run_backend_rung(const Input& in, std::uint64_t seed, Result& out,
                        slpq::TelemetrySnapshot& telemetry) {
  harness::BenchmarkConfig cfg = service_config(seed).queue;
  cfg.structure = "skip";
  cfg.flavor = harness::Flavor::Native;
  cfg.processors = kThreads;
  auto queue = harness::BackendRegistry::instance()
                   .require(harness::Flavor::Native, "skip")
                   .make(harness::BackendInit{cfg, nullptr});
  for (const Key k : in.warm) queue->seed(k, value_of(k));
  Replay r = replay(
      in, Mode::kTraced, kBackendRung,
      [&](int c) {
        harness::OpContext ctx;
        ctx.thread = c;
        return BackendClient{*queue, ctx};
      },
      nullptr, out);
  queue->quiesce();
  telemetry = queue->telemetry();
  harness::OpContext ctx;
  gate(in, "service_trace/rung1 seed " + std::to_string(seed), true,
       queue->final_size(), r.removed,
       [&]() -> std::optional<pqd::Item> {
         const std::optional<Key> k = queue->delete_min(ctx);
         if (!k) return std::nullopt;
         return pqd::Item{*k, value_of(*k)};
       },
       out);
  return r;
}

Replay run_service_rung(const Input& in, std::uint64_t seed, Result& out) {
  pqd::Service service(service_config(seed));
  for (const Key k : in.warm) service.seed(k, value_of(k));
  service.prime();
  Replay r = replay(
      in, Mode::kTraced, kServiceRung,
      [&](int c) {
        return ServiceClient{service, static_cast<std::uint64_t>(c) * kTagStride};
      },
      nullptr, out);
  gate(in, "service_trace/rung2 seed " + std::to_string(seed), false,
       service.size(),
       r.removed, [&] { return service.delete_min(); }, out);
  return r;
}

}  // namespace

void run_service_trace(const RunSpec& spec, Result& out) {
  const Input in = make_input(spec.seed);
  const double untraced_s = spec.trace ? spec.seconds / 2 : spec.seconds;

  // End to end: fresh service per replay, replays until the budget is
  // spent (at least three, so the median has company).
  std::vector<double> rates, setups, occupancy, imbalance;
  Samples dequeue_ns;
  slpq::TelemetrySnapshot counters;
  const std::uint64_t t_begin = now_ns();
  for (int i = 0;
       i < 3 || static_cast<double>(now_ns() - t_begin) * 1e-9 < untraced_s;
       ++i) {
    ServiceRun run = run_sessions(in, spec.seed, Mode::kTimed, out);
    release_free_memory();
    rates.push_back(run.replay.ops_per_s);
    setups.push_back(run.setup_s);
    dequeue_ns.merge(run.replay.dequeue_ns);
    occupancy.push_back(
        static_cast<double>(run.telemetry.get("pqd.batch_occupancy.mean")));
    imbalance.push_back(
        static_cast<double>(run.telemetry.get("pqd.shard_imbalance")));
    for (const auto& [k, v] : run.telemetry.entries) counters.add(k, v);
  }
  const double e2e_rate = median(rates);
  out.metric("ops_per_s", e2e_rate, "1/s");
  out.metric("setup_s", median(setups), "s", setups.size());
  out.metric("dequeue_p50_ns.pqd", dequeue_ns.quantile(0.50), "ns",
             dequeue_ns.count());
  out.metric("dequeue_p99_ns.pqd", dequeue_ns.quantile(0.99), "ns",
             dequeue_ns.count());
  const ServiceRun ranked = run_sessions(in, spec.seed, Mode::kRanked, out);
  out.metric("rank_error_mean.pqd", ranked.replay.rank.mean(), "items",
             ranked.replay.rank.count());

  if (!spec.trace) return;

  const double ops = static_cast<double>(rates.size() * in.ops.size());
  for (const char* key :
       {"pqd.shard_acquisitions", "pqd.window_refills", "pqd.empty_refills"})
    out.metric(key, static_cast<double>(counters.get(key)) / ops, "count/op");
  out.metric("pqd.batch_occupancy.mean", median(occupancy), "items");
  out.metric("pqd.shard_imbalance", median(imbalance), "%");

  // The ladder: the same input down three rungs, every call timed, until
  // the traced half of the budget is spent (at least one of each).
  std::vector<double> rung_rate[3], rung_ns[3];
  Samples rung_del[3], backend_ins;
  slpq::TelemetrySnapshot backend_counters;
  std::uint64_t backend_ops = 0;
  const std::uint64_t t_ladder = now_ns();
  for (int i = 0; i < 1 || static_cast<double>(now_ns() - t_ladder) * 1e-9 <
                               spec.seconds / 2;
       ++i) {
    slpq::TelemetrySnapshot t;
    Replay r1 = run_backend_rung(in, spec.seed, out, t);
    for (const auto& [k, v] : t.entries) backend_counters.add(k, v);
    backend_ops += in.ops.size();
    backend_ins.merge(r1.enqueue_ns);
    Replay r2 = run_service_rung(in, spec.seed, out);
    ServiceRun r3 = run_sessions(in, spec.seed, Mode::kTraced, out);
    release_free_memory();
    Replay* rs[3] = {&r1, &r2, &r3.replay};
    for (int k = 0; k < 3; ++k) {
      rung_rate[k].push_back(rs[k]->ops_per_s);
      rung_ns[k].push_back(rs[k]->thread_ns_per_op);
      rung_del[k].merge(rs[k]->dequeue_ns);
    }
  }
  for (int k = 0; k < 3; ++k) {
    const std::string p = "pqd.rung" + std::to_string(k + 1) + ".";
    out.metric(p + "ops_per_s", median(rung_rate[k]), "1/s");
    percentile_metrics(out, p + "delete_ns", rung_del[k]);
  }
  out.metric("pqd.service_delta_ns", median(rung_ns[1]) - median(rung_ns[0]),
             "ns");
  out.metric("pqd.transport_delta_ns", median(rung_ns[2]) - median(rung_ns[1]),
             "ns");

  // The slpq layer on this input is rung 1: the skip queue alone.
  percentile_metrics(out, "slpq.skip.insert_ns", backend_ins);
  percentile_metrics(out, "slpq.skip.delete_ns", rung_del[0]);
  slpq_counter_metrics(out, "slpq.skip.", backend_counters, backend_ops,
                       false);

  out.metric("trace_overhead", 1.0 - median(rung_rate[2]) / e2e_rate, "ratio");
}

}  // namespace perfbench
