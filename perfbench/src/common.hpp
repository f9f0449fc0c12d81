// Shared pieces of the benchmark binary: the clock, worker pinning,
// percentile sample stores, the key fingerprints behind the conservation
// gate, the rank tracker that prices relaxation, in-memory spans, and the
// result sink every workload writes into.
//
// Everything here sits outside the program under test: the workloads call
// the public entry points (harness::BackendRegistry/QueueHandle,
// pqd::Service/Session, harness::run_sim_benchmark) and time those calls
// from these files.
#pragma once

#include <malloc.h>
#include <pthread.h>
#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "harness/backend.hpp"
#include "slpq/telemetry.hpp"
#include "slpq/detail/random.hpp"
#include "slpq/detail/spinlock.hpp"

namespace perfbench {

using harness::Key;
using harness::Value;

/// Closed-loop workers (threads or sessions) per run: one per CPU of the
/// 4-CPU reference host, so no worker waits for a core.
inline constexpr int kThreads = 4;

inline std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

/// Pins the calling worker to the `index`-th CPU it may run on, so the
/// kThreads workers of a round each own one CPU instead of migrating
/// between them. Leaves the thread unpinned when there are fewer CPUs.
inline void pin_worker(int index) {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof allowed, &allowed) != 0) return;
  for (int cpu = 0, seen = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (!CPU_ISSET(cpu, &allowed) || seen++ != index) continue;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpu, &one);
    pthread_setaffinity_np(pthread_self(), sizeof one, &one);
    return;
  }
}

/// Hands memory freed by the last round back to the OS, so every round
/// starts from a comparable heap and peak RSS does not depend on how
/// earlier rounds happened to fragment the allocator's arenas. Called
/// between rounds, outside every timed window.
inline void release_free_memory() { malloc_trim(0); }

inline double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

/// Samples (call durations in ns, or rank errors). Keeps a uniform
/// reservoir of at most kCap of them, so a run that times every call holds
/// bounded memory, while count() still reports every sample offered.
/// Percentiles interpolate between kept samples, where LogHistogram would
/// snap them to its ~6%-wide buckets and hide changes smaller than that.
class Samples {
 public:
  static constexpr std::size_t kCap = std::size_t{1} << 16;

  void add(std::uint64_t x) {
    ++seen_;
    const auto v = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(x, UINT32_MAX));
    if (v_.size() < kCap) {
      v_.push_back(v);
    } else {
      const std::uint64_t j = rng_.below(seen_);
      if (j < kCap) v_[j] = v;
    }
  }

  /// Pools `o` into this store; past the cap, a uniform random subset of
  /// the pooled samples is kept.
  void merge(const Samples& o) {
    v_.insert(v_.end(), o.v_.begin(), o.v_.end());
    seen_ += o.seen_;
    if (v_.size() <= kCap) return;
    for (std::size_t i = 0; i < kCap; ++i)
      std::swap(v_[i], v_[i + rng_.below(v_.size() - i)]);
    v_.resize(kCap);
  }

  std::uint64_t count() const noexcept { return seen_; }

  /// Linear-interpolated quantile of the kept samples (0 when empty).
  double quantile(double q) {
    if (v_.empty()) return 0.0;
    std::sort(v_.begin(), v_.end());
    const double pos = q * static_cast<double>(v_.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v_.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return v_[lo] + (static_cast<double>(v_[hi]) - v_[lo]) * frac;
  }

  double mean() const {
    if (v_.empty()) return 0.0;
    double sum = 0.0;
    for (const std::uint32_t x : v_) sum += x;
    return sum / static_cast<double>(v_.size());
  }

 private:
  std::uint64_t seen_ = 0;
  std::vector<std::uint32_t> v_;
  slpq::detail::Xoshiro256 rng_{0x5EED5A3B1E5ULL};
};

/// Order-independent multiset fingerprint: a count plus two independent
/// 64-bit hash sums. If the fingerprint of everything inserted equals the
/// fingerprint of everything removed or drained, no key was lost or
/// duplicated (up to a ~2^-64 collision chance), without storing keys.
struct Fingerprint {
  std::uint64_t count = 0;
  std::uint64_t h1 = 0;
  std::uint64_t h2 = 0;

  void add(Key k) noexcept {
    ++count;
    h1 += mix(static_cast<std::uint64_t>(k) ^ 0x243F6A8885A308D3ULL);
    h2 += mix(static_cast<std::uint64_t>(k) * 0x9E3779B97F4A7C15ULL + 1);
  }
  void merge(const Fingerprint& o) noexcept {
    count += o.count;
    h1 += o.h1;
    h2 += o.h2;
  }
  bool operator==(const Fingerprint&) const = default;

 private:
  static std::uint64_t mix(std::uint64_t z) noexcept {
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
  }
};

/// Items lost or duplicated between "in" and "out" fingerprints of one
/// item population: the count difference, or 2 (one lost, one
/// duplicated) when the counts agree but the keys do not.
inline std::uint64_t conservation_failures(const Fingerprint& in,
                                           const Fingerprint& out) {
  if (in.count != out.count)
    return in.count > out.count ? in.count - out.count
                                : out.count - in.count;
  return in == out ? 0 : 2;
}

/// What a single-threaded drain of a quiesced structure returned.
struct Drain {
  Fingerprint keys;
  std::uint64_t order_violations = 0;  ///< pops smaller than the previous pop
};

/// Pops until `pop` has returned nullopt `patience` times in a row (a
/// relaxed structure may report EMPTY while buffered items remain) and
/// records the keys and their order.
template <typename Pop>
Drain drain(Pop&& pop, int patience = 16) {
  Drain out;
  std::optional<Key> prev;
  for (int misses = 0; misses < patience;) {
    const std::optional<Key> k = pop();
    if (!k) {
      ++misses;
      continue;
    }
    misses = 0;
    if (prev && *k < *prev) ++out.order_violations;
    prev = k;
    out.keys.add(*k);
  }
  return out;
}

/// Exact rank error: a Fenwick tree of resident items over a bucket index
/// space, shared by all workers behind one lock. insert() runs before the
/// structure's insert and remove() after its delete-min, so the rank of a
/// popped key counts every item a client had handed over and not yet got
/// back that is smaller. The lock serializes workers, so rank rounds are
/// never timed. (harness::spec::RankErrorProbe buckets a fixed 2^31 key
/// space, which the trace workload's tick<<24 keys overflow.)
class RankTracker {
 public:
  explicit RankTracker(std::size_t buckets) : tree_(buckets + 1, 0) {}

  void insert(std::size_t bucket) {
    std::lock_guard<slpq::detail::TinySpinLock> g(lock_);
    update(bucket, 1);
  }

  /// Resident items in buckets below `bucket`; then removes one item.
  std::uint64_t remove(std::size_t bucket) {
    std::lock_guard<slpq::detail::TinySpinLock> g(lock_);
    std::int64_t below = 0;
    for (std::size_t i = bucket; i > 0; i -= i & (~i + 1)) below += tree_[i];
    update(bucket, -1);
    return below > 0 ? static_cast<std::uint64_t>(below) : 0;
  }

 private:
  void update(std::size_t bucket, std::int64_t d) {
    for (std::size_t i = bucket + 1; i < tree_.size(); i += i & (~i + 1))
      tree_[i] += d;
  }

  slpq::detail::TinySpinLock lock_;
  std::vector<std::int64_t> tree_;
};

/// One recorded call: name, start/end (ns, steady clock), the span that
/// caused it, and the workload op it served (0 for round-level spans).
struct Span {
  const char* name;
  std::uint64_t id;
  std::uint64_t parent;
  std::uint64_t op;
  std::uint64_t start;
  std::uint64_t end;
};

/// One thread's spans, kept in memory until the run ends. Bounded: after
/// `cap` spans further calls are still timed (Samples) but not logged.
class SpanLog {
 public:
  SpanLog(std::uint64_t owner, std::size_t cap) : owner_(owner), cap_(cap) {
    spans_.reserve(cap);
  }

  /// A fresh span id; taken before the call so children can name it.
  std::uint64_t next_id() noexcept { return (owner_ << 40) | ++seq_; }

  void record(std::uint64_t id, const char* name, std::uint64_t parent,
              std::uint64_t op, std::uint64_t start, std::uint64_t end) {
    if (spans_.size() < cap_)
      spans_.push_back(Span{name, id, parent, op, start, end});
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::uint64_t owner_;
  std::size_t cap_;
  std::uint64_t seq_ = 0;
  std::vector<Span> spans_;
};

/// Spans of the whole run: the main thread opens one log per worker per
/// round, takes each back once the round's workers have joined, and
/// main() writes them all out when the run is over.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = std::size_t{1} << 16;

  /// A fresh log. Owner ids stay unique across rounds so span ids never
  /// collide.
  SpanLog open(std::size_t cap) { return SpanLog(++owners_, cap); }

  /// Keeps `log`'s spans while the run holds fewer than kMaxSpans, so a
  /// run of many short rounds writes a bounded file.
  void keep(const SpanLog& log) {
    const std::size_t room = kMaxSpans - std::min(kMaxSpans, spans_.size());
    const std::size_t n = std::min(room, log.spans().size());
    spans_.insert(spans_.end(), log.spans().begin(), log.spans().begin() + n);
  }

  const std::vector<Span>& spans() const noexcept { return spans_; }

 private:
  std::uint64_t owners_ = 0;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::uint64_t samples;  ///< timed calls behind a percentile; 0 otherwise
};

/// Everything a workload reports: metrics, the correctness tally, and the
/// human-readable lines (violations, the accuracy statement).
struct Result {
  std::vector<Metric> metrics;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> violations;
  std::vector<std::string> notes;
  Tracer tracer;

  void metric(std::string name, double value, std::string unit,
              std::uint64_t samples = 0) {
    metrics.push_back({std::move(name), value, std::move(unit), samples});
  }
  void fail(std::uint64_t ops, std::string why) {
    if (ops == 0) return;
    failed += ops;
    violations.push_back(std::move(why));
  }
};

/// `<prefix>.p50` and `<prefix>.p99` of timed calls, with their count.
inline void percentile_metrics(Result& out, const std::string& prefix,
                               Samples& s) {
  out.metric(prefix + ".p50", s.quantile(0.50), "ns", s.count());
  out.metric(prefix + ".p99", s.quantile(0.99), "ns", s.count());
}

/// The slpq layer's own counters (slpq-telemetry/1 keys), per operation,
/// plus the delete-min claim waste ratio. A key the structure does not
/// export is an error, not a silent 0.
inline void slpq_counter_metrics(Result& out, const std::string& prefix,
                                 const slpq::TelemetrySnapshot& t,
                                 std::uint64_t ops, bool multiqueue) {
  std::vector<const char*> keys = {
      "insert_retries", "delete_retries",  "failed_cas",
      "prefix_nodes_walked", "pool_refills", "reclaim.retired",
      "reclaim.freed",  "reclaim.stalls",  "reclaim.pending"};
  if (multiqueue)
    keys.insert(keys.end(),
                {"mq.ins_flushes", "mq.refills", "mq.dbuf_invalidations"});
  for (const char* key : {"claim_wins", "claim_losses"}) keys.push_back(key);
  for (const char* key : keys)
    if (!t.find(key))
      throw std::runtime_error(prefix + ": no telemetry key " + key);
  for (std::size_t i = 0; i + 2 < keys.size(); ++i)
    out.metric(prefix + keys[i],
               ops ? static_cast<double>(t.get(keys[i])) /
                         static_cast<double>(ops)
                   : 0.0,
               "count/op");
  const double wins = static_cast<double>(t.get("claim_wins"));
  const double losses = static_cast<double>(t.get("claim_losses"));
  out.metric(prefix + "claim_win_ratio",
             wins + losses > 0 ? wins / (wins + losses) : 1.0, "ratio");
}

/// Options every workload receives from main().
struct RunSpec {
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
};

void run_mixed_native(const RunSpec& spec, const std::string& structure,
                      Result& out);
void run_service_trace(const RunSpec& spec, Result& out);
void run_paper_sim(const RunSpec& spec, const std::string& structure,
                   Result& out);

}  // namespace perfbench
