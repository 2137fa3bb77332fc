// simai_bench: the simulator's host cost on five of the paper's workloads.
//
// The paper's results are virtual-time numbers that the canonical
// fingerprints hold fixed; what a user of this reproduction waits for is the
// host time the simulator takes to replay them. This program measures that
// from outside, through the public entry points users call (sim::Engine,
// core::run_pattern1, core::run_pattern2, serve::run_cluster), and checks
// every virtual-time output against committed digests (expected.json).
//
// One workload per process. Protocol (README.md has the full tables):
//   1 warm-up repetition at the default seeds, which must reproduce the
//   committed digest whatever --seed says, then timed full repetitions of
//   the --seed inputs, each followed by a bring-up repetition (same width,
//   one step per process), until --seconds have elapsed, at least kMinReps
//   of each. Reported: median, q1 and q3 (Python's statistics.quantiles
//   method) with n.
//   --traced additionally runs armed (obs plane on) repetitions, reads the
//   obs registry after each, then an empty-delay engine ping at the
//   workload's width (the floor probe), and reports the per-layer metrics.
//
// The last stdout line is the run's JSON record; it is also written to
// $SIMAI_BENCH_DIR/simai_bench_<workload>[_traced].json when that is set,
// next to the traced run's host-time spans (trace_<workload>.json).
#include <fcntl.h>
#include <sched.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <functional>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "core/experiment.hpp"
#include "obs/metrics.hpp"
#include "obs/obs.hpp"
#include "serve/serve.hpp"
#include "sim/engine.hpp"
#include "util/json.hpp"

extern char** environ;

namespace {

using namespace simai;

// Fewest timed repetitions per arming state, whatever --seconds says.
constexpr int kMinReps = 3;

double now_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Usage {
  double user = 0.0, sys = 0.0;
  double minflt = 0.0, nvcsw = 0.0, nivcsw = 0.0;
};

Usage usage() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  auto secs = [](const timeval& tv) {
    return double(tv.tv_sec) + 1e-6 * double(tv.tv_usec);
  };
  return {secs(ru.ru_utime), secs(ru.ru_stime), double(ru.ru_minflt),
          double(ru.ru_nvcsw), double(ru.ru_nivcsw)};
}

double peak_rss_mib() {
  struct rusage ru{};
  ::getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // Linux reports KiB
}

std::uint64_t fnv1a(std::string_view s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

/// Appends `key=value ` with every digit of a double, so the digest sees
/// any change in the virtual-time output.
void field(std::string& out, const char* key, double v) {
  char buf[96];
  std::snprintf(buf, sizeof buf, "%s=%.17g ", key, v);
  out += buf;
}

struct Quartiles {
  double q1 = 0.0, median = 0.0, q3 = 0.0;
  std::size_t n = 0;
};

/// Median, and q1/q3 exactly as Python's statistics.quantiles(v, n=4)
/// ("exclusive" method) computes them, so this record and an outside
/// analysis of the same samples agree.
Quartiles quartiles(std::vector<double> v) {
  Quartiles q;
  q.n = v.size();
  if (v.empty()) return q;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  q.median = n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  if (n < 2) {
    q.q1 = q.q3 = q.median;
    return q;
  }
  auto cut = [&](std::size_t i) {
    const std::size_t m = n + 1;
    const std::size_t j = std::clamp<std::size_t>(i * m / 4, 1, n - 1);
    const double delta = double(i * m) - double(j * 4);
    return (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0;
  };
  q.q1 = cut(1);
  q.q3 = cut(3);
  return q;
}

// ---------------------------------------------------------------------------
// Child processes: `--all` re-executes this binary once per workload, and the
// host facts ask git for the source revision.
// ---------------------------------------------------------------------------

/// Runs argv[0] (PATH lookup) and waits for it. With `out`, captures its
/// stdout. Returns the exit status, or -1 when it could not run.
int spawn_wait(const std::vector<std::string>& args, std::string* out) {
  std::vector<char*> argv;
  for (const std::string& a : args)
    argv.push_back(const_cast<char*>(a.c_str()));
  argv.push_back(nullptr);
  int fds[2] = {-1, -1};
  if (out != nullptr && ::pipe(fds) != 0) return -1;
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  if (out != nullptr) {
    posix_spawn_file_actions_adddup2(&fa, fds[1], STDOUT_FILENO);
    posix_spawn_file_actions_addclose(&fa, fds[0]);
    posix_spawn_file_actions_addopen(&fa, STDERR_FILENO, "/dev/null", O_WRONLY,
                                     0);
  }
  pid_t pid = 0;
  const int rc =
      ::posix_spawnp(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (out != nullptr) {
    ::close(fds[1]);
    if (rc == 0) {
      char buf[4096];
      ssize_t got = 0;
      while ((got = ::read(fds[0], buf, sizeof buf)) > 0)
        out->append(buf, static_cast<std::size_t>(got));
    }
    ::close(fds[0]);
  }
  if (rc != 0) return -1;
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0) {
    if (errno != EINTR) return -1;
  }
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

bool optimized_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__) || \
    !defined(__OPTIMIZE__)
  return false;
#else
  return true;
#endif
}

util::Json host_facts() {
  util::Json h = util::Json::object();
  cpu_set_t set;
  CPU_ZERO(&set);
  h["nproc"] = ::sched_getaffinity(0, sizeof set, &set) == 0
                   ? CPU_COUNT(&set)
                   : static_cast<int>(::sysconf(_SC_NPROCESSORS_ONLN));
  std::string model = "unknown";
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos && colon + 2 <= line.size())
      model = line.substr(colon + 2);
    break;
  }
  h["cpu_model"] = model;
  h["compiler"] = SIMAI_BENCH_COMPILER;
  h["build_type"] = SIMAI_BENCH_BUILD_TYPE;
  h["optimized"] = optimized_build();
  std::string sha;
  if (spawn_wait({"git", "-C", SIMAI_BENCH_SOURCE_ROOT, "rev-parse", "HEAD"},
                 &sha) != 0 || sha.size() < 40)
    sha = "unknown";
  h["git_sha"] = sha.substr(0, 40);
  return h;
}

// ---------------------------------------------------------------------------
// Host-time spans (written as Chrome trace JSON by traced runs)
// ---------------------------------------------------------------------------

class Spans {
 public:
  int open(std::string name, int parent) {
    spans_.push_back({std::move(name), now_s(), 0.0, parent});
    return static_cast<int>(spans_.size());  // ids start at 1; 0 = no parent
  }
  void close(int id) { spans_[static_cast<std::size_t>(id - 1)].end = now_s(); }

  void write(const std::string& path) const {
    util::Json::Array events;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      util::Json e = util::Json::object();
      e["name"] = s.name;
      e["cat"] = "simai_bench";
      e["ph"] = "X";
      e["pid"] = 1;
      e["tid"] = 1;
      e["ts"] = 1e6 * (s.start - origin_);
      e["dur"] = 1e6 * (s.end - s.start);
      e["args"] = util::Json::object();
      e["args"]["id"] = static_cast<int>(i + 1);
      e["args"]["parent"] = s.parent;
      events.push_back(std::move(e));
    }
    util::Json doc = util::Json::object();
    doc["traceEvents"] = util::Json(std::move(events));
    doc["displayTimeUnit"] = "ms";
    doc.dump_file(path, -1);
  }

 private:
  struct Span {
    std::string name;
    double start = 0.0, end = 0.0;
    int parent = 0;
  };
  std::vector<Span> spans_;
  double origin_ = now_s();
};

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

/// What one call through a public entry point produced: the digest of its
/// virtual-time output and the fingerprint-fixed counts the per-layer
/// ratios use as their bases.
struct Rep {
  std::uint64_t digest = 0;
  std::map<std::string, double> counts;
};

struct Workload {
  std::string name;
  std::string digest_key;   // fig6 w1 and w4 share one committed digest
  bool seed_sensitive = false;  // virtual-time output depends on --seed
  std::uint64_t processes = 0;  // live processes at full width
  std::function<Rep(bool bring_up)> run;
};

/// The empty-delay ping: `procs` processes each doing `delays` delay(0)
/// calls, on an Engine this program owns so each phase is timed apart.
struct Ping {
  double spawn_s = 0.0, run_s = 0.0, teardown_s = 0.0;
  std::uint64_t events = 0;
  std::size_t live = 0, slots = 0;
  sim::Engine::FiberStats fibers;
};

Ping ping(std::uint64_t procs, std::uint64_t delays) {
  Ping out;
  auto engine = std::make_unique<sim::Engine>();
  const double t0 = now_s();
  for (std::uint64_t p = 0; p < procs; ++p) {
    engine->spawn("p" + std::to_string(p), [delays](sim::Context& ctx) {
      for (std::uint64_t k = 0; k < delays; ++k) ctx.delay(0.0);
    });
  }
  const double t1 = now_s();
  engine->run();
  const double t2 = now_s();
  out.events = engine->dispatched_events();
  out.live = engine->live_process_count();
  out.slots = engine->process_slots();
  out.fibers = engine->fiber_stats();
  engine.reset();
  out.spawn_s = t1 - t0;
  out.run_s = t2 - t1;
  out.teardown_s = now_s() - t2;
  return out;
}

std::string component_digest(const char* who, const core::ComponentStats& c) {
  std::string s = who;
  s += ": ";
  field(s, "steps", double(c.steps));
  field(s, "transport_events", double(c.transport_events));
  for (const auto& [key, st] :
       {std::pair{"iter", &c.iter_time}, std::pair{"read", &c.read_time},
        std::pair{"write", &c.write_time}}) {
    field(s, (std::string(key) + ".n").c_str(), double(st->count()));
    field(s, (std::string(key) + ".mean").c_str(), st->mean());
  }
  field(s, "retries", double(c.recovery.retries));
  field(s, "failed_ops", double(c.recovery.failed_ops));
  field(s, "corrupt", double(c.recovery.corrupt_payloads));
  field(s, "recovery_time", c.recovery.recovery_time);
  return s;
}

double workload_events(const core::ComponentStats& sim,
                       const core::ComponentStats& train) {
  return double(sim.steps + train.steps + sim.transport_events +
                train.transport_events);
}

Rep ping_rep(std::uint64_t procs, bool bring_up) {
  const Ping p = ping(procs, bring_up ? 0 : 15);
  std::string s;
  field(s, "events", double(p.events));
  field(s, "drained", p.live == 0 ? 1.0 : 0.0);
  return Rep{fnv1a(s), {{"core.workload_events", double(p.events)}}};
}

Rep fig3_rep(core::Pattern1Config c, bool bring_up) {
  if (bring_up) c.train_iters = c.max_sim_iters = 1;
  const core::Pattern1Result r = core::run_pattern1(c);
  std::string s;
  field(s, "makespan", r.makespan);
  s += component_digest("sim", r.sim);
  s += component_digest("train", r.train);
  return Rep{fnv1a(s),
             {{"core.workload_events", workload_events(r.sim, r.train)}}};
}

Rep fig6_rep(core::Pattern2Config c, bool bring_up) {
  if (bring_up) c.train_iters = 1;
  const core::Pattern2Result r = core::run_pattern2(c);
  std::string s;
  field(s, "makespan", r.makespan);
  field(s, "runtime_per_iter", r.train_runtime_per_iter);
  s += component_digest("sim", r.sim);
  s += component_digest("train", r.train);
  return Rep{fnv1a(s),
             {{"core.workload_events", workload_events(r.sim, r.train)}}};
}

Rep serve_rep(serve::ServeConfig c, bool bring_up) {
  if (bring_up) c.arrivals.requests_per_client = 1;
  const serve::ServeResult r = serve::run_cluster(c);
  const auto total = std::uint64_t(c.arrivals.clients) *
                     std::uint64_t(c.arrivals.requests_per_client);
  if (r.completed + r.rejected != total)
    throw Error("serve: requests left unresolved");
  // Holds for every seed, including those no digest was committed for.
  for (const serve::RequestRecord& q : r.requests) {
    if (q.status == serve::RequestStatus::Completed &&
        !(q.arrival <= q.batched && q.batched <= q.compute_start &&
          q.compute_start <= q.compute_end && q.compute_end <= q.completed))
      throw Error("serve: request " + std::to_string(q.id) +
                  " has an out-of-order timeline");
  }
  const double batches = double(r.batches);
  return Rep{fnv1a(r.fingerprint()),
             {{"core.workload_events", double(total)},
              {"serve.completed", double(r.completed)},
              {"serve.rejected", double(r.rejected)},
              {"serve.batches", batches},
              {"serve.mean_batch",
               batches > 0 ? double(r.completed) / batches : 0.0},
              {"serve.peak_queue_depth", double(r.peak_queue_depth)}}};
}

std::vector<Workload> make_workloads(bool smoke,
                                     std::optional<std::uint64_t> seed) {
  std::vector<Workload> out;

  const std::uint64_t procs = smoke ? 4'096 : 131'072;
  out.push_back({"ping-131k", "ping-131k", false, procs,
                 [procs](bool bring_up) { return ping_rep(procs, bring_up); }});

  core::Pattern1Config p1;
  p1.backend = platform::BackendKind::NodeLocal;
  p1.nodes = smoke ? 8 : 512;
  p1.representative_pairs = 0;  // every rank pair is a pair of processes
  p1.payload_cap = 4 * KiB;
  p1.train_iters = 40;
  p1.sim_init_time = 0.5;
  p1.train_init_time = 1.0;
  if (seed) p1.seed = *seed;
  out.push_back({"fig3-p1-512", "fig3-p1-512", false,
                 2ull * std::uint64_t(p1.instantiated_pairs()),
                 [p1](bool bring_up) { return fig3_rep(p1, bring_up); }});

  core::Pattern2Config p2;
  p2.backend = platform::BackendKind::Dragon;
  p2.num_sims = smoke ? 15 : 511;
  p2.payload_cap = 4 * KiB;
  p2.train_iters = 2000;
  if (seed) p2.seed = *seed;
  for (const unsigned workers : {1u, 4u}) {
    core::Pattern2Config c = p2;
    c.workers = workers;
    out.push_back({workers == 1 ? "fig6-p2-512" : "fig6-p2-512-w4",
                   "fig6-p2-512", false, std::uint64_t(c.num_sims) + 1,
                   [c](bool bring_up) { return fig6_rep(c, bring_up); }});
  }

  serve::ServeConfig sc;
  sc.arrivals.clients = 4;
  sc.arrivals.requests_per_client = smoke ? 200 : 25'000;
  sc.arrivals.rate = 4000.0;  // aggregate, below node-local capacity
  sc.policy.max_batch_size = 8;
  sc.policy.max_queue_delay = 0.002;
  sc.policy.max_queue_depth = 64;
  sc.replicas = 2;
  sc.backend = platform::BackendKind::NodeLocal;
  if (seed) sc.arrivals.seed = sc.weight_seed = *seed;
  // clients + replicas + publisher, scheduler and frontend
  out.push_back({"serve-nl-4k", "serve-nl-4k", true,
                 std::uint64_t(sc.arrivals.clients + sc.replicas + 3),
                 [sc](bool bring_up) { return serve_rep(sc, bring_up); }});
  return out;
}

// ---------------------------------------------------------------------------
// Measurement
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  bool all = false;
  bool traced = false;
  bool smoke = false;
  double seconds = 12.0;  // BENCHMARK.json's run_seconds
  std::optional<std::uint64_t> seed;
};

/// A fingerprint-fixed count of the last good full call; 0 when absent.
double count_of(const std::map<std::string, double>& counts, const char* key) {
  const auto it = counts.find(key);
  return it == counts.end() ? 0.0 : it->second;
}

/// Per-repetition samples of one arming state.
struct Samples {
  std::vector<double> wall, cpu, setup;
  std::vector<double> user, sys, minflt, nvcsw, nivcsw;
};

class Runner {
 public:
  /// `timed` runs the timed repetitions. `reference` is the same workload at
  /// its default seeds: every warm-up runs it and must reproduce the
  /// committed digest, so each run checks the program against committed
  /// output even when --seed moves the timed repetitions to inputs no digest
  /// was committed for. Those must then repeat their first digest exactly.
  Runner(const Workload& timed, const Workload& reference, bool seeded,
         util::Json expected)
      : timed_(timed),
        reference_(reference),
        committed_(!seeded || !timed.seed_sensitive),
        expected_(std::move(expected)) {}

  /// Warm-up, then full/bring-up pairs until `seconds` pass (at least
  /// kMinReps pairs). Armed runs reset and arm the obs plane before every
  /// call and keep the registry of the last full call in `registry_`.
  Samples measure(double seconds, bool armed) {
    Samples s;
    const int warm = spans_.open(armed ? "warm-up (traced)" : "warm-up", 0);
    call(reference_, false, armed, warm, nullptr);
    spans_.close(warm);
    const double t_end = now_s() + seconds;
    for (int n = 0; n < kMinReps || now_s() < t_end; ++n) {
      const int rep =
          spans_.open(armed ? "repetition (traced)" : "repetition", 0);
      const Usage u0 = usage();
      double wall = 0.0;
      call(timed_, false, armed, rep, &wall);
      const Usage u1 = usage();
      double setup = 0.0;
      call(timed_, true, armed, rep, &setup);
      spans_.close(rep);
      s.wall.push_back(wall);
      s.setup.push_back(setup);
      s.cpu.push_back((u1.user - u0.user) + (u1.sys - u0.sys));
      s.user.push_back(u1.user - u0.user);
      s.sys.push_back(u1.sys - u0.sys);
      s.minflt.push_back(u1.minflt - u0.minflt);
      s.nvcsw.push_back(u1.nvcsw - u0.nvcsw);
      s.nivcsw.push_back(u1.nivcsw - u0.nivcsw);
    }
    return s;
  }

  /// The floor probe: the engine alone, at this workload's width and with
  /// (about) its workload-event count.
  Ping probe() {
    const double events = count_of(counts_, "core.workload_events");
    const std::uint64_t per_proc = std::max<std::uint64_t>(
        1, std::uint64_t(events / double(timed_.processes) + 0.5));
    const int id = spans_.open("floor probe", 0);
    const Ping p = ping(timed_.processes, per_proc - 1);
    spans_.close(id);
    return p;
  }

  int attempted() const { return attempted_; }
  int failed() const { return failed_; }
  /// The first timed full repetition's digest.
  std::uint64_t digest() const { return first_[0].value_or(0); }
  const std::map<std::string, double>& counts() const { return counts_; }
  const util::Json& registry() const { return registry_; }
  const Spans& spans() const { return spans_; }

 private:
  /// One call through the workload's public entry point; `wall` receives
  /// its duration. A call that throws or whose digest is wrong counts as
  /// failed.
  void call(const Workload& w, bool bring_up, bool armed, int parent,
            double* wall) {
    ++attempted_;
    if (armed) {
      obs::reset();
      obs::set_enabled(true);
    }
    const int id = spans_.open(bring_up ? "bring-up" : "public call", parent);
    const double t0 = now_s();
    std::optional<Rep> rep;
    try {
      rep = w.run(bring_up);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: repetition threw: %s\n", w.name.c_str(),
                   e.what());
    }
    const double dt = now_s() - t0;
    spans_.close(id);
    if (armed) {
      obs::set_enabled(false);
      if (!bring_up) registry_ = obs::registry().to_json();
    }
    if (wall != nullptr) *wall = dt;
    const bool timed = &w == &timed_;
    if (!rep || !digest_ok(timed, bring_up, rep->digest)) {
      ++failed_;
      return;
    }
    if (timed && !bring_up) counts_ = rep->counts;
  }

  bool digest_ok(bool timed, bool bring_up, std::uint64_t got) {
    const char* kind = bring_up ? "bring_up" : "full";
    if (timed) {
      std::optional<std::uint64_t>& first = first_[bring_up ? 1 : 0];
      if (!first) first = got;
      if (!committed_) {
        if (got == *first) return true;
        std::fprintf(stderr,
                     "%s: %s digest %s differs from this run's first %s\n",
                     timed_.name.c_str(), kind, hex(got).c_str(),
                     hex(*first).c_str());
        return false;
      }
    }
    const util::Json* entry = expected_.find(timed_.digest_key);
    const util::Json* want = entry != nullptr ? entry->find(kind) : nullptr;
    if (want != nullptr && want->is_string() && want->as_string() == hex(got))
      return true;
    const bool known = want != nullptr && want->is_string();
    std::fprintf(stderr, "%s: %s digest %s, expected %s\n",
                 timed_.name.c_str(), kind, hex(got).c_str(),
                 known ? want->as_string().c_str() : "(none committed)");
    return false;
  }

  const Workload& timed_;
  const Workload& reference_;
  const bool committed_;  // timed calls are checked against expected.json
  util::Json expected_;
  Spans spans_;
  int attempted_ = 0, failed_ = 0;
  std::optional<std::uint64_t> first_[2];  // timed full, timed bring-up
  std::map<std::string, double> counts_;   // from the last good timed full call
  util::Json registry_ = util::Json::object();
};

/// Sum of every registry series named `name` (the part before `{`) whose
/// key contains `label`; histograms contribute their `field`.
double series_sum(const util::Json& reg, std::string_view name,
                  std::string_view label = {}, const char* field = "sum") {
  double total = 0.0;
  for (const auto& [key, value] : reg.as_object()) {
    const std::string_view k(key);
    if (k.substr(0, k.find('{')) != name) continue;
    if (!label.empty() && k.find(label) == std::string_view::npos) continue;
    total +=
        value.is_object() ? value.at(field).as_double() : value.as_double();
  }
  return total;
}

class Record {
 public:
  void add(const std::string& name, double value, const char* unit) {
    util::Json m = util::Json::object();
    m["value"] = value;
    m["unit"] = unit;
    metrics_[name] = std::move(m);
    std::printf("  %-30s %16.6f %s\n", name.c_str(), value, unit);
  }
  void add(const std::string& name, const std::vector<double>& samples,
           const char* unit) {
    const Quartiles q = quartiles(samples);
    util::Json m = util::Json::object();
    m["value"] = q.median;
    m["unit"] = unit;
    m["q1"] = q.q1;
    m["q3"] = q.q3;
    m["n"] = static_cast<std::uint64_t>(q.n);
    m["samples"] =
        util::Json(util::Json::Array(samples.begin(), samples.end()));
    metrics_[name] = std::move(m);
    std::printf("  %-30s %16.6f %s  (q1 %.6f, q3 %.6f, n %zu)\n", name.c_str(),
                q.median, unit, q.q1, q.q3, q.n);
  }
  util::Json take() { return util::Json(std::move(metrics_)); }

 private:
  util::Json::Object metrics_;
};

double median(const std::vector<double>& v) { return quartiles(v).median; }

int run_one(const Workload& w, const Workload& reference, const Options& opt,
            const util::Json& host) {
  const util::Json expected = util::Json::parse_file(SIMAI_BENCH_EXPECTED);
  Runner runner(w, reference, opt.seed.has_value(),
                expected.at(opt.smoke ? "smoke" : "full"));

  std::printf("== %s (%s, %s scale, seed %s, %.0f s per phase)\n",
              w.name.c_str(), opt.traced ? "traced" : "untraced",
              opt.smoke ? "smoke" : "full",
              opt.seed ? std::to_string(*opt.seed).c_str() : "default",
              opt.traced ? opt.seconds / 2 : opt.seconds);
  // Traced runs split the budget: half untraced (the reference the overhead
  // ratio and the per-repetition OS counters come from), half armed.
  const Samples un = runner.measure(opt.traced ? opt.seconds / 2 : opt.seconds,
                                    /*armed=*/false);
  const double rss = peak_rss_mib();

  Record rec;
  rec.add("wall_s", un.wall, "s");
  rec.add("cpu_s", un.cpu, "s");
  rec.add("setup_s", un.setup, "s");
  rec.add("peak_rss_mib", rss, "MiB");

  if (opt.traced) {
    const Samples tr = runner.measure(opt.seconds / 2, /*armed=*/true);
    const util::Json reg = runner.registry();
    const Ping probe = runner.probe();
    const auto& counts = runner.counts();
    const double wall = median(un.wall);
    const double events = count_of(counts, "core.workload_events");

    rec.add("sim.events", double(probe.events), "count");
    rec.add("sim.events_per_s", double(probe.events) / probe.run_s, "1/s");
    rec.add("sim.spawn_s", probe.spawn_s, "s");
    rec.add("sim.teardown_s", probe.teardown_s, "s");
    rec.add("sim.floor_s", probe.run_s, "s");
    rec.add("sim.process_slots", double(probe.slots), "count");
    const sim::Engine::FiberStats& fs = probe.fibers;
    rec.add("sim.stack_mapped_mib", double(fs.stack_bytes_mapped) / double(MiB),
            "MiB");
    rec.add("sim.stacks_acquired", double(fs.stacks_acquired), "count");
    rec.add("sim.stack_pool_hits", double(fs.stack_pool_hits), "count");
    rec.add("sim.stack_pool_hit_ratio",
            fs.stacks_acquired ? double(fs.stack_pool_hits) /
                                     double(fs.stacks_acquired)
                               : 0.0,
            "ratio");

    rec.add("core.workload_events", events, "count");
    rec.add("core.ns_per_event", events > 0 ? 1e9 * wall / events : 0.0, "ns");
    rec.add("core.above_floor_s", wall - median(un.setup) - probe.run_s, "s");

    const double writes =
        series_sum(reg, "transport_ops_total", "op=\"write\"");
    const double reads = series_sum(reg, "transport_ops_total", "op=\"read\"");
    rec.add("transport.write_ops", writes, "count");
    rec.add("transport.read_ops", reads, "count");
    rec.add("transport.bytes", series_sum(reg, "transport_bytes_total"), "B");
    if (writes + reads > 0)
      rec.add("core.ns_per_transport_op", 1e9 * wall / (writes + reads), "ns");

    rec.add("kv.put_ops", series_sum(reg, "kv_ops_total", "op=\"put\""),
            "count");
    rec.add("kv.get_ops", series_sum(reg, "kv_ops_total", "op=\"get\""),
            "count");
    rec.add("kv.bytes", series_sum(reg, "kv_bytes_total"), "B");

    const double rounds = series_sum(reg, "sim_parallel_rounds_total");
    const double nulls = series_sum(reg, "sim_parallel_null_rounds_total");
    rec.add("par.rounds", rounds, "count");
    rec.add("par.null_round_ratio", rounds > 0 ? nulls / rounds : 0.0, "ratio");
    rec.add("par.fallback_rounds",
            series_sum(reg, "sim_parallel_fallback_rounds_total"), "count");
    rec.add("par.deliveries", series_sum(reg, "sim_parallel_deliveries_total"),
            "count");
    rec.add("par.lookahead_stalls",
            series_sum(reg, "sim_parallel_lookahead_stalls_total"), "count");
    rec.add("par.events_per_round",
            rounds > 0 ? series_sum(reg, "sim_parallel_round_events") / rounds
                       : 0.0,
            "count");
    rec.add("par.cores_busy", median(un.cpu) / wall, "ratio");

    for (const char* key :
         {"serve.completed", "serve.rejected", "serve.batches",
          "serve.mean_batch", "serve.peak_queue_depth"})
      rec.add(key, count_of(counts, key), "count");
    if (count_of(counts, "serve.completed") > 0)
      rec.add("serve.ns_per_request",
              1e9 * wall / count_of(counts, "serve.completed"), "ns");

    rec.add("os.user_s", un.user, "s");
    rec.add("os.sys_s", un.sys, "s");
    rec.add("os.minor_faults", un.minflt, "count");
    rec.add("os.vol_ctx_switches", un.nvcsw, "count");
    rec.add("os.invol_ctx_switches", un.nivcsw, "count");

    rec.add("obs.armed_overhead_ratio", median(tr.wall) / wall, "ratio");
  }
  rec.add("reps_failed", double(runner.failed()), "count");
  std::printf("  %-30s %16d count\n", "reps", runner.attempted());

  util::Json doc = util::Json::object();
  doc["suite"] = "simai_bench";
  doc["workload"] = w.name;
  doc["mode"] = opt.traced ? "traced" : "untraced";
  doc["scale"] = opt.smoke ? "smoke" : "full";
  doc["seed"] = opt.seed ? util::Json(*opt.seed) : util::Json();
  doc["host"] = host;
  doc["reps"] = runner.attempted();
  doc["reps_failed"] = runner.failed();
  doc["digest"] = hex(runner.digest());
  doc["metrics"] = rec.take();

  if (const char* dir = std::getenv("SIMAI_BENCH_DIR")) {
    const std::string base = std::string(dir) + "/";
    doc.dump_file(base + "simai_bench_" + w.name +
                  (opt.traced ? "_traced" : "") + ".json");
    if (opt.traced) runner.spans().write(base + "trace_" + w.name + ".json");
  }
  std::printf("%s\n", doc.dump().c_str());
  return runner.failed() == 0 ? 0 : 1;
}

/// `--all`: every workload in its own process, one after another.
int run_all(const Options& opt) {
  int worst = 0;
  for (const Workload& w : make_workloads(opt.smoke, std::nullopt)) {
    std::vector<std::string> args = {"/proc/self/exe", "--workload", w.name,
                                     "--seconds", std::to_string(opt.seconds)};
    if (opt.traced) args.push_back("--traced");
    if (opt.smoke) args.push_back("--smoke");
    if (opt.seed) {
      args.push_back("--seed");
      args.push_back(std::to_string(*opt.seed));
    }
    std::fflush(stdout);
    const int rc = spawn_wait(args, nullptr);
    if (rc != 0) {
      std::fprintf(stderr, "%s exited with %d\n", w.name.c_str(), rc);
      worst = 1;
    }
  }
  return worst;
}

void usage_and_exit(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s (--workload NAME | --all) [--traced] [--smoke]\n"
               "          [--seed N] [--seconds S]\n"
               "workloads:",
               argv0);
  for (const Workload& w : make_workloads(false, std::nullopt))
    std::fprintf(stderr, " %s", w.name.c_str());
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::optional<std::uint64_t> parse_u64(const char* s) {
  if (s == nullptr || *s < '0' || *s > '9') return std::nullopt;
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(s, &end, 10);
  if (errno != 0 || *end != '\0') return std::nullopt;
  return v;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* next = i + 1 < argc ? argv[i + 1] : nullptr;
    if (arg == "--workload" && next) {
      opt.workload = argv[++i];
    } else if (arg == "--all") {
      opt.all = true;
    } else if (arg == "--traced") {
      opt.traced = true;
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else if (arg == "--seed" && next) {
      opt.seed = parse_u64(argv[++i]);
      if (!opt.seed) usage_and_exit(argv[0]);
    } else if (arg == "--seconds" && next) {
      char* end = nullptr;
      opt.seconds = std::strtod(argv[++i], &end);
      if (*end != '\0' || !(opt.seconds >= 0.0 && opt.seconds <= 3600.0))
        usage_and_exit(argv[0]);
    } else {
      usage_and_exit(argv[0]);
    }
  }
  if (opt.all == !opt.workload.empty()) usage_and_exit(argv[0]);
  if (opt.all) return run_all(opt);

  const std::vector<Workload> timed = make_workloads(opt.smoke, opt.seed);
  const std::vector<Workload> reference =
      make_workloads(opt.smoke, std::nullopt);
  std::size_t i = 0;
  while (i < timed.size() && timed[i].name != opt.workload) ++i;
  if (i == timed.size()) usage_and_exit(argv[0]);

  const util::Json host = host_facts();
  if (!host.at("optimized").as_bool())
    std::fprintf(stderr,
                 "WARNING: simai_bench was built without optimization or with "
                 "a sanitizer (build type %s); its times do not describe a "
                 "release build\n",
                 SIMAI_BENCH_BUILD_TYPE);
  try {
    return run_one(timed[i], reference[i], opt, host);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "simai_bench: %s\n", e.what());
    return 1;
  }
}
