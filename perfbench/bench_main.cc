// perfbench: fetch rate, fetch latency and misses of five of the paper's
// systems on this host, end to end, and in a separate traced run layer by
// layer. See README.md for the workloads, the metrics and how to run it.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// One process builds all five systems, then runs them in turns: every
// round, each system serves the next slice of the same per-worker access
// streams with kWorkers closed-loop workers. The last line of stdout is one
// JSON object with the fetches attempted and failed, whether every output
// check passed, and the metrics.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "buffer/buffer_pool.h"
#include "checks.h"
#include "core/coordinator_factory.h"
#include "obs/metrics.h"
#include "policy/policy_factory.h"
#include "policy/sharded_policy.h"
#include "storage/storage_engine.h"
#include "timed_coordinator.h"
#include "util/clock.h"
#include "workload/trace_generator.h"

namespace bpw::perfbench {
namespace {

constexpr uint32_t kWorkers = 4;
constexpr size_t kPageSize = 4096;
// A run is a series of rounds; in each, every system serves one slice of
// the streams. The first quarter of the rounds is warm-up and is not
// measured: it covers the host's slow start after idling (about 1.5 s) and
// brings each pool from its sequential prewarm to the workload's steady
// state.
constexpr uint64_t kWarmupShare = 4;
// Untraced runs time FetchPage on one stream position in kSampleEvery, in
// every system alike; the times of kLatencySystem are kept and reported.
constexpr uint64_t kSampleEvery = 4;
// Accesses of worker 0's stream replayed through a fresh pool and through
// the policy alone, after the prewarm.
constexpr uint64_t kReplayAccesses = 400'000;
constexpr uint32_t kWriteBit = 1u << 31;

// pgBat++ is reported as pgBatPP: '+' is not allowed in metric names.
const std::vector<std::pair<std::string, std::string>> kSystems = {
    {"pgClock", "pgClock"}, {"pg2Q", "pg2Q"},       {"pgBatPre", "pgBatPre"},
    {"pgBat++", "pgBatPP"}, {"pgShard", "pgShard"},
};
const std::string kLatencySystem = "pgBatPre";

struct WorkloadDef {
  std::string name;
  WorkloadSpec spec;
  size_t frames = 0;
  // Fetches each worker makes for each system per second of --seconds; set
  // so that a run's measured rounds last about --seconds on a 4-core host.
  uint64_t fetches_per_second = 0;
  // Fetches each worker makes for one system in one round. Short slices
  // spread a slow spell of the host over all systems alike.
  uint64_t slice = 0;
};

std::vector<WorkloadDef> Workloads() {
  std::vector<WorkloadDef> defs(2);
  defs[0].name = "oltp-resident";
  defs[0].spec.name = "dbt2";
  defs[0].spec.num_pages = 8192;
  defs[0].spec.warehouses = 50;
  defs[0].frames = 7680;
  defs[0].fetches_per_second = 250'000;
  defs[0].slice = 25'000;

  defs[1].name = "browse-evict";
  defs[1].spec.name = "dbt1";
  defs[1].spec.num_pages = 32768;
  defs[1].spec.zipf_theta = 0.8;
  defs[1].frames = 8192;
  defs[1].fetches_per_second = 42'000;
  defs[1].slice = 5'000;
  return defs;
}

// Per-worker access streams: page id, with kWriteBit set on writes.
using Stream = std::vector<uint32_t>;

std::vector<Stream> GenerateStreams(const WorkloadSpec& spec, uint64_t length) {
  std::vector<Stream> streams(kWorkers);
  for (uint32_t t = 0; t < kWorkers; ++t) {
    Stream& stream = streams[t];
    stream.resize(length);
    auto trace = CreateTrace(spec, t);
    for (uint64_t i = 0; i < length; ++i) {
      const PageAccess access = trace->Next();
      stream[i] = static_cast<uint32_t>(access.page) |
                  (access.is_write ? kWriteBit : 0);
    }
  }
  return streams;
}

// What a worker counted over one slice (or a sum of slices).
struct Tally {
  uint64_t attempted = 0;
  uint64_t ok = 0;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t bad_stamps = 0;
  // Traced run only: FetchPage time split by hit/miss, the part of it spent
  // in coordinator calls, and Release time.
  uint64_t hit_ns = 0;
  uint64_t hit_core_ns = 0;
  uint64_t miss_ns = 0;
  uint64_t miss_core_ns = 0;
  uint64_t release_ns = 0;

  void Add(const Tally& o) {
    attempted += o.attempted;
    ok += o.ok;
    hits += o.hits;
    misses += o.misses;
    bad_stamps += o.bad_stamps;
    hit_ns += o.hit_ns;
    hit_core_ns += o.hit_core_ns;
    miss_ns += o.miss_ns;
    miss_core_ns += o.miss_core_ns;
    release_ns += o.release_ns;
  }
};

struct WindowDeltas {
  LockStats lock;
  StorageStats storage;
  uint64_t evictions = 0;
  uint64_t writebacks = 0;
  uint64_t eviction_races = 0;
  std::map<std::string, double> coord;  // coord.* registry deltas
  TimedCoordinator::CallTimes calls;
};

struct System {
  std::string name;   // PaperSystemConfig name
  std::string label;  // metric-name suffix
  SystemConfig config;
  std::unique_ptr<StorageEngine> storage;
  std::unique_ptr<BufferPool> pool;
  TimedCoordinator* timed = nullptr;  // traced run only; owned by the pool
  AccessStats prewarm;

  Tally all;       // every slice: the correctness totals
  Tally measured;  // measured rounds only
  std::vector<double> round_rates;
  WindowDeltas window;  // traced run: summed over measured slices
  TimedCoordinator::CallTimes final_calls;  // traced run: the whole run
  std::vector<uint32_t> hit_samples, miss_samples;  // untraced, ns
  AccessStats sessions;  // the workers' sessions at the end
  double replay_ns_per_fetch = 0;
};

struct Options {
  std::string workload;
  uint64_t seed = 1;
  uint64_t seconds = 10;
  bool trace = false;
};

bool ParseOptions(int argc, char** argv, Options* options) {
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    char* end = nullptr;
    const unsigned long long number = std::strtoull(value, &end, 10);
    const bool numeric = end != value && *end == '\0';
    if (flag == "--workload") {
      options->workload = value;
    } else if (flag == "--seed" && numeric) {
      options->seed = number;
    } else if (flag == "--seconds" && numeric && number > 0) {
      options->seconds = number;
    } else if (flag == "--trace" && numeric && number <= 1) {
      options->trace = number == 1;
    } else {
      std::fprintf(stderr, "bad argument: %s %s\n", flag.c_str(), value);
      return false;
    }
  }
  if (argc % 2 != 1 || options->workload.empty()) {
    std::fprintf(stderr,
                 "usage: perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1>\n");
    return false;
  }
  return true;
}

StatusOr<System> BuildSystem(const std::string& name, const std::string& label,
                             const WorkloadDef& workload, bool traced) {
  auto config = PaperSystemConfig(name);
  if (!config.ok()) return config.status();
  System system;
  system.name = name;
  system.label = label;
  system.config = config.value();
  if (traced) system.config.instrumentation = LockInstrumentation::kTiming;

  system.storage = std::make_unique<StorageEngine>(workload.spec.num_pages,
                                                   kPageSize);
  auto coordinator = CreateCoordinator(system.config, workload.frames);
  if (!coordinator.ok()) return coordinator.status();
  std::unique_ptr<Coordinator> top = std::move(coordinator).value();
  if (traced) {
    auto timed = std::make_unique<TimedCoordinator>(std::move(top));
    system.timed = timed.get();
    top = std::move(timed);
  }
  BufferPoolConfig pool_config;
  pool_config.num_frames = workload.frames;
  pool_config.page_size = kPageSize;
  system.pool = std::make_unique<BufferPool>(pool_config, system.storage.get(),
                                             std::move(top));
  if (system.timed != nullptr && !system.timed->ForwardFrameTags()) {
    return Status::Internal("the pool bound no frame tags");
  }

  auto session = system.pool->CreateSession();
  Status status = system.pool->Prewarm(
      *session, 0, std::min<uint64_t>(workload.spec.num_pages, workload.frames));
  if (!status.ok()) return status;
  system.pool->FlushSession(*session);
  system.prewarm = session->stats();
  return system;
}

// One slice of one worker's stream through one system.
struct SliceTask {
  size_t system = 0;
  uint64_t begin = 0;
  uint64_t end = 0;
  bool measured = false;
};

struct SliceResult {
  Tally tally;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
};

template <bool kTraced>
void RunSlice(BufferPool& pool, BufferPool::Session& session,
              const Stream& stream, const SliceTask& task, SliceResult* out,
              std::vector<uint32_t>* hit_samples,
              std::vector<uint32_t>* miss_samples) {
  Tally& tally = out->tally;
  const bool sample = task.measured;
  out->start_ns = NowNanos();
  for (uint64_t i = task.begin; i < task.end; ++i) {
    const uint32_t access = stream[i];
    const PageId page = access & ~kWriteBit;
    const uint64_t misses_before = session.stats().misses;
    ++tally.attempted;
    uint64_t fetch_ns = 0;
    uint64_t core_ns = 0;
    const bool timed = kTraced || (sample && i % kSampleEvery == 0);
    const uint64_t core_before = kTraced ? TimedCoordinator::ThreadNanos() : 0;
    const uint64_t t0 = timed ? NowNanos() : 0;
    auto handle = pool.FetchPage(session, page);
    if (timed) fetch_ns = NowNanos() - t0;
    if (kTraced) core_ns = TimedCoordinator::ThreadNanos() - core_before;
    if (!handle.ok()) continue;
    ++tally.ok;
    const bool miss = session.stats().misses != misses_before;
    ++(miss ? tally.misses : tally.hits);
    // Read the page as a caller would: its stamp must name it.
    if (!StampNamesPage(page, handle.value().data())) ++tally.bad_stamps;
    if (access & kWriteBit) handle.value().MarkDirty();
    if constexpr (kTraced) {
      (miss ? tally.miss_ns : tally.hit_ns) += fetch_ns;
      (miss ? tally.miss_core_ns : tally.hit_core_ns) += core_ns;
      const uint64_t r0 = NowNanos();
      handle.value().Release();
      tally.release_ns += NowNanos() - r0;
    } else {
      handle.value().Release();
      if (timed && hit_samples != nullptr) {
        (miss ? miss_samples : hit_samples)
            ->push_back(static_cast<uint32_t>(
                std::min<uint64_t>(fetch_ns, UINT32_MAX)));
      }
    }
  }
  out->end_ns = NowNanos();
}

// A barrier whose waiters spin: a worker that finishes its slice early
// keeps its core busy instead of letting it idle into a slow wake-up.
class SpinBarrier {
 public:
  explicit SpinBarrier(uint32_t parties) : parties_(parties) {}

  void ArriveAndWait() {
    const uint32_t phase = phase_.load(std::memory_order_acquire);
    if (arrived_.fetch_add(1, std::memory_order_acq_rel) + 1 == parties_) {
      arrived_.store(0, std::memory_order_relaxed);
      phase_.store(phase + 1, std::memory_order_release);
      return;
    }
    while (phase_.load(std::memory_order_acquire) == phase) {
#if defined(__x86_64__) || defined(__i386__)
      __builtin_ia32_pause();
#endif
    }
  }

 private:
  const uint32_t parties_;
  std::atomic<uint32_t> arrived_{0};
  std::atomic<uint32_t> phase_{0};
};

// The kWorkers closed-loop workers: the calling thread is worker 0, so
// that kWorkers threads run in all. Each worker holds one session per
// system for the whole run and serves one slice per barrier phase.
class Workers {
 public:
  Workers(std::vector<System>& systems, const std::vector<Stream>& streams,
          bool traced)
      : systems_(systems),
        streams_(streams),
        traced_(traced),
        barrier_(kWorkers),
        results_(kWorkers),
        hit_samples_(kWorkers, std::vector<std::vector<uint32_t>>(
                                   systems.size())),
        miss_samples_(kWorkers, std::vector<std::vector<uint32_t>>(
                                    systems.size())),
        sessions_end_(kWorkers, std::vector<AccessStats>(systems.size())) {
    // Room for every sample up front, so that no reallocation moves the
    // peak resident set from run to run.
    const uint64_t most = streams[0].size() / kSampleEvery + 1;
    for (uint32_t t = 0; t < kWorkers && !traced; ++t) {
      for (size_t s = 0; s < systems.size(); ++s) {
        if (systems[s].name != kLatencySystem) continue;
        hit_samples_[t][s].reserve(most);
        miss_samples_[t][s].reserve(most);
      }
    }
    main_sessions_ = CreateSessions();
    for (uint32_t t = 1; t < kWorkers; ++t) {
      threads_.emplace_back([this, t] {
        auto sessions = CreateSessions();
        for (;;) {
          barrier_.ArriveAndWait();
          if (stop_) break;
          Serve(t, sessions);
          barrier_.ArriveAndWait();
        }
        EndSessions(t, sessions);
      });
    }
  }

  ~Workers() { Stop(); }
  Workers(const Workers&) = delete;
  Workers& operator=(const Workers&) = delete;

  /// Every worker serves `task`; returns their results.
  const std::vector<SliceResult>& Run(const SliceTask& task) {
    task_ = task;
    barrier_.ArriveAndWait();  // workers start
    Serve(0, main_sessions_);
    barrier_.ArriveAndWait();  // workers done
    return results_;
  }

  /// Flushes every session, ends the workers and joins them.
  void Stop() {
    if (stopped_) return;
    stopped_ = true;
    stop_ = true;
    barrier_.ArriveAndWait();
    for (auto& thread : threads_) thread.join();
    EndSessions(0, main_sessions_);
  }

  /// Every worker's samples of `system`, sorted.
  std::vector<uint32_t> SortedSamples(size_t system, bool miss) const {
    size_t total = 0;
    for (uint32_t t = 0; t < kWorkers; ++t) {
      total += (miss ? miss_samples_ : hit_samples_)[t][system].size();
    }
    std::vector<uint32_t> all;
    all.reserve(total);
    for (uint32_t t = 0; t < kWorkers; ++t) {
      const auto& mine = (miss ? miss_samples_ : hit_samples_)[t][system];
      all.insert(all.end(), mine.begin(), mine.end());
    }
    std::sort(all.begin(), all.end());
    return all;
  }

  AccessStats SessionTotals(size_t system) const {
    AccessStats total;
    for (uint32_t t = 0; t < kWorkers; ++t) {
      total.hits += sessions_end_[t][system].hits;
      total.misses += sessions_end_[t][system].misses;
    }
    return total;
  }

 private:
  using Sessions = std::vector<std::unique_ptr<BufferPool::Session>>;

  Sessions CreateSessions() {
    Sessions sessions;
    for (System& system : systems_) {
      sessions.push_back(system.pool->CreateSession());
    }
    return sessions;
  }

  void Serve(uint32_t t, Sessions& sessions) {
    const SliceTask task = task_;
    BufferPool& pool = *systems_[task.system].pool;
    SliceResult& out = results_[t];
    out = SliceResult{};
    if (traced_) {
      RunSlice<true>(pool, *sessions[task.system], streams_[t], task, &out,
                     nullptr, nullptr);
    } else {
      const bool keep = systems_[task.system].name == kLatencySystem;
      RunSlice<false>(pool, *sessions[task.system], streams_[t], task, &out,
                      keep ? &hit_samples_[t][task.system] : nullptr,
                      keep ? &miss_samples_[t][task.system] : nullptr);
    }
  }

  void EndSessions(uint32_t t, Sessions& sessions) {
    for (size_t s = 0; s < systems_.size(); ++s) {
      systems_[s].pool->FlushSession(*sessions[s]);
      sessions_end_[t][s] = sessions[s]->stats();
    }
    sessions.clear();
  }

  std::vector<System>& systems_;
  const std::vector<Stream>& streams_;
  const bool traced_;
  SpinBarrier barrier_;
  // Written by worker 0 between barrier phases, read by the others.
  SliceTask task_;
  bool stop_ = false;
  bool stopped_ = false;
  std::vector<SliceResult> results_;
  std::vector<std::vector<std::vector<uint32_t>>> hit_samples_;
  std::vector<std::vector<std::vector<uint32_t>>> miss_samples_;
  std::vector<std::vector<AccessStats>> sessions_end_;
  Sessions main_sessions_;
  std::vector<std::thread> threads_;  // last: started after the rest exist
};

WindowDeltas Snapshot(const System& system) {
  WindowDeltas snap;
  snap.lock = system.pool->coordinator().lock_stats();
  snap.storage = system.storage->stats();
  snap.evictions = system.pool->evictions();
  snap.writebacks = system.pool->writebacks();
  snap.eviction_races = system.pool->eviction_races();
  for (const auto& [name, value] :
       obs::MetricsRegistry::Default().Snapshot().values) {
    if (name.rfind("coord.", 0) == 0) snap.coord[name] = value;
  }
  if (system.timed != nullptr) snap.calls = system.timed->Totals();
  return snap;
}

// Adds after - before into `sum`.
void AddDelta(const WindowDeltas& before, const WindowDeltas& after,
              WindowDeltas* sum) {
  sum->lock.acquisitions += after.lock.acquisitions - before.lock.acquisitions;
  sum->lock.contentions += after.lock.contentions - before.lock.contentions;
  sum->lock.trylock_failures +=
      after.lock.trylock_failures - before.lock.trylock_failures;
  sum->lock.hold_nanos += after.lock.hold_nanos - before.lock.hold_nanos;
  sum->lock.wait_nanos += after.lock.wait_nanos - before.lock.wait_nanos;
  sum->storage.reads += after.storage.reads - before.storage.reads;
  sum->storage.writes += after.storage.writes - before.storage.writes;
  sum->evictions += after.evictions - before.evictions;
  sum->writebacks += after.writebacks - before.writebacks;
  sum->eviction_races += after.eviction_races - before.eviction_races;
  for (const auto& [name, value] : after.coord) {
    const auto it = before.coord.find(name);
    sum->coord[name] += value - (it == before.coord.end() ? 0 : it->second);
  }
  sum->calls.Add(after.calls.Minus(before.calls));
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

// The p-th quantile of sorted whole-nanosecond samples, each standing for
// its 1 ns bin: the rank is interpolated within the run of equal samples it
// falls in, so a quantile is not stuck on a whole number.
double Quantile(const std::vector<uint32_t>& samples, double p) {
  if (samples.empty()) return 0;
  const double rank = p * static_cast<double>(samples.size());
  const size_t at = std::min(static_cast<size_t>(rank), samples.size() - 1);
  const uint32_t value = samples[at];
  const size_t first = static_cast<size_t>(
      std::lower_bound(samples.begin(), samples.end(), value) -
      samples.begin());
  const size_t last = static_cast<size_t>(
      std::upper_bound(samples.begin(), samples.end(), value) -
      samples.begin());
  const double within = (rank - static_cast<double>(first)) /
                        static_cast<double>(last - first);
  return static_cast<double>(value) - 0.5 + std::clamp(within, 0.0, 1.0);
}

double PerFetch(double count, uint64_t fetches, double scale) {
  return fetches == 0 ? 0 : count * scale / static_cast<double>(fetches);
}

double PerCall(uint64_t nanos, uint64_t calls) {
  return calls == 0 ? 0 : static_cast<double>(nanos) / calls;
}

// Rebuilds `system` fresh, runs the prewarm and then `prefix` of one stream
// through it with one session, and checks that every access is a hit or a
// miss exactly when it is one for the system's policy alone. Also times the
// policy's replay of the prefix.
Status CheckReplay(const System& measured, const WorkloadDef& workload,
                   const Stream& stream, double* replay_ns_per_fetch) {
  const uint64_t prewarm =
      std::min<uint64_t>(workload.spec.num_pages, workload.frames);
  const uint64_t length = std::min<uint64_t>(kReplayAccesses, stream.size());
  std::vector<PageId> accesses;
  accesses.reserve(prewarm + length);
  for (PageId page = 0; page < prewarm; ++page) accesses.push_back(page);
  for (uint64_t i = 0; i < length; ++i) {
    accesses.push_back(stream[i] & ~kWriteBit);
  }

  StorageEngine storage(workload.spec.num_pages, kPageSize);
  auto coordinator = CreateCoordinator(measured.config, workload.frames);
  if (!coordinator.ok()) return coordinator.status();
  BufferPoolConfig pool_config;
  pool_config.num_frames = workload.frames;
  pool_config.page_size = kPageSize;
  BufferPool pool(pool_config, &storage, std::move(coordinator).value());
  auto session = pool.CreateSession();
  std::vector<uint8_t> pool_hits;
  pool_hits.reserve(accesses.size());
  for (const PageId page : accesses) {
    const uint64_t misses_before = session->stats().misses;
    auto handle = pool.FetchPage(*session, page);
    if (!handle.ok()) return handle.status();
    pool_hits.push_back(session->stats().misses == misses_before ? 1 : 0);
  }
  pool.FlushSession(*session);

  std::unique_ptr<ReplacementPolicy> policy;
  if (measured.config.coordinator == "sharded") {
    auto sharded = ShardedPolicy::Create(measured.config.policy,
                                         measured.config.policy_shards,
                                         workload.frames);
    if (!sharded.ok()) return sharded.status();
    policy = std::move(sharded).value();
  } else {
    auto plain = CreatePolicy(measured.config.policy, workload.frames);
    if (!plain.ok()) return plain.status();
    policy = std::move(plain).value();
  }
  // Time only the stream part: the prewarm fills free frames.
  uint64_t replay_ns = 0;
  const std::vector<uint8_t> replay =
      ReplayHits(*policy, workload.spec.num_pages, accesses, prewarm,
                 &replay_ns);
  *replay_ns_per_fetch =
      static_cast<double>(replay_ns) / static_cast<double>(length);
  return CheckSameDecisions(pool_hits, replay);
}

void AddMetric(std::string* out, const std::string& name, double value,
               const char* unit) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.12g", value);
  if (out->size() > 1) *out += ", ";
  *out += "\"" + name + "\": {\"value\": " + buf + ", \"unit\": \"" + unit +
          "\"}";
}

int Main(int argc, char** argv) {
  const uint64_t process_start_ns = NowNanos();
  Options options;
  if (!ParseOptions(argc, argv, &options)) return 2;
  const std::vector<WorkloadDef> defs = Workloads();
  const auto def = std::find_if(defs.begin(), defs.end(), [&](const auto& d) {
    return d.name == options.workload;
  });
  if (def == defs.end()) {
    std::fprintf(stderr, "unknown workload: %s\n", options.workload.c_str());
    return 2;
  }
  WorkloadDef workload = *def;
  workload.spec.seed = options.seed;

  // Set-up: the five systems, built and prewarmed one after another.
  std::vector<System> systems;
  for (const auto& [name, label] : kSystems) {
    auto system = BuildSystem(name, label, workload, options.trace);
    if (!system.ok()) {
      std::fprintf(stderr, "%s: %s\n", name.c_str(),
                   system.status().ToString().c_str());
      return 1;
    }
    systems.push_back(std::move(system).value());
  }
  const double setup_s =
      static_cast<double>(NowNanos() - process_start_ns) / 1e9;

  // The traced run serves half the fetches: tracing about halves the rate,
  // and the run should still last about --seconds.
  const uint64_t per_round = workload.slice;
  const uint64_t rounds = std::max<uint64_t>(
      4, workload.fetches_per_second * options.seconds /
             (options.trace ? 2 : 1) / per_round);
  const uint64_t warmup_rounds = rounds / kWarmupShare;
  const uint64_t length = per_round * rounds;
  const uint64_t gen_start = NowNanos();
  const std::vector<Stream> streams = GenerateStreams(workload.spec, length);
  const double gen_ns_per_access =
      static_cast<double>(NowNanos() - gen_start) /
      static_cast<double>(length * kWorkers);

  uint64_t attempted = 0;
  uint64_t failed = 0;
  {
    Workers workers(systems, streams, options.trace);
    for (uint64_t round = 0; round < rounds; ++round) {
      for (size_t s = 0; s < systems.size(); ++s) {
        System& system = systems[s];
        SliceTask task;
        task.system = s;
        task.begin = round * per_round;
        task.end = task.begin + per_round;
        task.measured = round >= warmup_rounds;
        const WindowDeltas before =
            task.measured && options.trace ? Snapshot(system) : WindowDeltas{};
        const std::vector<SliceResult>& results = workers.Run(task);
        Tally slice;
        uint64_t start_ns = UINT64_MAX;
        uint64_t end_ns = 0;
        for (const SliceResult& r : results) {
          slice.Add(r.tally);
          start_ns = std::min(start_ns, r.start_ns);
          end_ns = std::max(end_ns, r.end_ns);
        }
        attempted += slice.attempted;
        failed += slice.attempted - slice.ok;
        system.all.Add(slice);
        if (!task.measured) continue;
        system.measured.Add(slice);
        system.round_rates.push_back(static_cast<double>(slice.ok) * 1e9 /
                                     static_cast<double>(end_ns - start_ns));
        if (options.trace) AddDelta(before, Snapshot(system), &system.window);
      }
    }
    workers.Stop();
    for (size_t s = 0; s < systems.size(); ++s) {
      systems[s].sessions = workers.SessionTotals(s);
      if (!options.trace) {
        systems[s].hit_samples = workers.SortedSamples(s, /*miss=*/false);
        systems[s].miss_samples = workers.SortedSamples(s, /*miss=*/true);
      }
    }
  }

  // How steady the host was: the spread of each system's round rates.
  for (const System& system : systems) {
    std::vector<double> rates = system.round_rates;
    std::sort(rates.begin(), rates.end());
    const size_t n = rates.size();
    std::fprintf(stderr,
                 "%-8s %zu rounds, fetches/s: q1 %.4g median %.4g q3 %.4g\n",
                 system.label.c_str(), n, rates[n / 4], Median(rates),
                 rates[3 * n / 4]);
  }

  // Output checks, per system, after it has quiesced.
  std::vector<std::string> errors;
  for (System& system : systems) {
    auto check = [&](const std::string& what, const Status& status) {
      if (!status.ok()) {
        errors.push_back(system.name + ": " + what + ": " + status.ToString());
      }
    };
    check("flush", system.pool->FlushAll());
    check("integrity", system.pool->CheckIntegrity());
    if (system.all.bad_stamps != 0) {
      check("stamps", Status::Corruption(std::to_string(system.all.bad_stamps) +
                                         " fetched pages named another page"));
    }
    const uint64_t session_accesses = system.prewarm.accesses() +
                                      system.sessions.accesses();
    const uint64_t misses = system.prewarm.misses + system.sessions.misses;
    check("session totals",
          CheckSessionTotals(session_accesses,
                             system.prewarm.accesses() + system.all.ok));
    const StorageStats io = system.storage->stats();
    check("reads", CheckReadsMatchMisses(io.reads, misses));
    check("writes", CheckWritesMatchWritebacks(io.writes,
                                               system.pool->writebacks()));
    check("storage pages", CheckStoragePages(*system.storage));
    if (options.trace) {
      const Tally& m = system.measured;
      check("traced reads",
            CheckReadsMatchMisses(system.window.storage.reads, m.misses));
      check("core within hits", CheckNested("hits", m.hit_core_ns, m.hit_ns));
      check("core within misses",
            CheckNested("misses", m.miss_core_ns, m.miss_ns));
      const auto& calls = system.window.calls;
      check("OnHit within hit fetches",
            CheckNested("OnHit", calls.nanos[TimedCoordinator::kOnHit],
                        m.hit_ns));
      system.final_calls = system.timed->Totals();
    }
    // Done with this system: free it before the replays build theirs, so
    // that the peak resident set is the measured phase's.
    system.timed = nullptr;
    system.pool.reset();
    system.storage.reset();
  }
  for (System& system : systems) {
    Status status = CheckReplay(system, workload, streams[0],
                                &system.replay_ns_per_fetch);
    if (!status.ok()) {
      errors.push_back(system.name + ": replay: " + status.ToString());
    }
  }
  for (const std::string& error : errors) {
    std::fprintf(stderr, "check failed: %s\n", error.c_str());
  }

  std::string metrics = "{";
  if (!options.trace) {
    AddMetric(&metrics, "setup_s", setup_s, "s");
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    AddMetric(&metrics, "peak_rss_mb",
              static_cast<double>(usage.ru_maxrss) / 1024.0, "MB");
    for (const System& system : systems) {
      AddMetric(&metrics, "fetch_per_s." + system.label,
                Median(system.round_rates), "1/s");
    }
    for (const System& system : systems) {
      if (system.name != kLatencySystem) continue;
      AddMetric(&metrics, "hit_p50_ns.pgBatPre",
                Quantile(system.hit_samples, 0.50), "ns");
      AddMetric(&metrics, "hit_p99_ns.pgBatPre",
                Quantile(system.hit_samples, 0.99), "ns");
      AddMetric(&metrics, "miss_p50_ns.pgBatPre",
                Quantile(system.miss_samples, 0.50), "ns");
      AddMetric(&metrics, "miss_p99_ns.pgBatPre",
                Quantile(system.miss_samples, 0.99), "ns");
      std::fprintf(stderr, "pgBatPre latency samples: %zu hits, %zu misses\n",
                   system.hit_samples.size(), system.miss_samples.size());
    }
    for (const System& system : systems) {
      AddMetric(&metrics, "miss_per_kfetch." + system.label,
                PerFetch(static_cast<double>(system.measured.misses),
                         system.measured.ok, 1e3),
                "1/kfetch");
    }
  } else {
    for (const System& system : systems) {
      const Tally& m = system.measured;
      const WindowDeltas& w = system.window;
      const std::string& sys = system.label;
      const uint64_t fetches = m.ok;
      AddMetric(&metrics, "buffer.fetch_hit_ns." + sys,
                PerCall(m.hit_ns, m.hits), "ns");
      AddMetric(&metrics, "buffer.fetch_miss_ns." + sys,
                PerCall(m.miss_ns, m.misses), "ns");
      AddMetric(&metrics, "buffer.release_ns." + sys,
                PerCall(m.release_ns, fetches), "ns");
      AddMetric(&metrics, "buffer.hit_self_ns." + sys,
                PerCall(m.hit_ns - m.hit_core_ns, m.hits), "ns");
      AddMetric(&metrics, "buffer.miss_self_ns." + sys,
                PerCall(m.miss_ns - m.miss_core_ns, m.misses), "ns");
      AddMetric(&metrics, "buffer.evictions_per_kfetch." + sys,
                PerFetch(static_cast<double>(w.evictions), fetches, 1e3),
                "1/kfetch");
      AddMetric(&metrics, "buffer.writebacks_per_kfetch." + sys,
                PerFetch(static_cast<double>(w.writebacks), fetches, 1e3),
                "1/kfetch");
      AddMetric(&metrics, "buffer.eviction_races." + sys,
                static_cast<double>(w.eviction_races), "count");
      using TC = TimedCoordinator;
      AddMetric(&metrics, "core.on_hit_ns." + sys,
                PerCall(w.calls.nanos[TC::kOnHit], w.calls.calls[TC::kOnHit]),
                "ns");
      AddMetric(&metrics, "core.choose_victim_ns." + sys,
                PerCall(w.calls.nanos[TC::kChooseVictim],
                        w.calls.calls[TC::kChooseVictim]),
                "ns");
      AddMetric(&metrics, "core.complete_miss_ns." + sys,
                PerCall(w.calls.nanos[TC::kCompleteMiss],
                        w.calls.calls[TC::kCompleteMiss]),
                "ns");
      // FlushSlot runs when the workers end, outside the measured rounds.
      AddMetric(&metrics, "core.flush_slot_ns." + sys,
                PerCall(system.final_calls.nanos[TC::kFlushSlot],
                        system.final_calls.calls[TC::kFlushSlot]),
                "ns");
      const auto coord = [&](const char* name) {
        const auto it = w.coord.find(name);
        return it == w.coord.end() ? 0.0 : it->second;
      };
      if (sys != "pgClock" && sys != "pg2Q") {
        AddMetric(&metrics, "core.commit_batches_per_kfetch." + sys,
                  PerFetch(coord("coord.commit_batches"), fetches, 1e3),
                  "1/kfetch");
        AddMetric(&metrics, "core.stale_commits_per_kfetch." + sys,
                  PerFetch(coord("coord.stale_commits"), fetches, 1e3),
                  "1/kfetch");
      }
      if (sys == "pgBatPre" || sys == "pgBatPP") {
        AddMetric(&metrics, "core.lock_fallbacks_per_kfetch." + sys,
                  PerFetch(coord("coord.lock_fallbacks"), fetches, 1e3),
                  "1/kfetch");
      }
      AddMetric(&metrics, "sync.acquisitions_per_kfetch." + sys,
                PerFetch(static_cast<double>(w.lock.acquisitions), fetches,
                         1e3),
                "1/kfetch");
      AddMetric(&metrics, "sync.contentions_per_mfetch." + sys,
                PerFetch(static_cast<double>(w.lock.contentions), fetches,
                         1e6),
                "1/Mfetch");
      AddMetric(&metrics, "sync.trylock_failures_per_kfetch." + sys,
                PerFetch(static_cast<double>(w.lock.trylock_failures), fetches,
                         1e3),
                "1/kfetch");
      AddMetric(&metrics, "sync.wait_ns_per_fetch." + sys,
                PerFetch(static_cast<double>(w.lock.wait_nanos), fetches, 1),
                "ns");
      AddMetric(&metrics, "sync.hold_ns_per_fetch." + sys,
                PerFetch(static_cast<double>(w.lock.hold_nanos), fetches, 1),
                "ns");
      AddMetric(&metrics, "storage.reads_per_kfetch." + sys,
                PerFetch(static_cast<double>(w.storage.reads), fetches, 1e3),
                "1/kfetch");
      AddMetric(&metrics, "storage.writes_per_kfetch." + sys,
                PerFetch(static_cast<double>(w.storage.writes), fetches, 1e3),
                "1/kfetch");
      AddMetric(&metrics, "policy.replay_ns_per_fetch." + sys,
                system.replay_ns_per_fetch, "ns");
      AddMetric(&metrics, "traced.fetch_per_s." + sys,
                Median(system.round_rates), "1/s");
    }
    AddMetric(&metrics, "workload.gen_ns_per_access", gen_ns_per_access, "ns");
  }
  metrics += "}";

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed), metrics.c_str());
  return 0;
}

}  // namespace
}  // namespace bpw::perfbench

int main(int argc, char** argv) { return bpw::perfbench::Main(argc, argv); }
