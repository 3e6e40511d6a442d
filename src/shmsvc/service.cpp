#include "shmsvc/service.hpp"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <sys/mman.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>

#include "common/check.hpp"
#include "common/rng.hpp"

namespace armbar::shmsvc {
namespace {

std::uint64_t ms_to_ns(std::uint64_t ms) { return ms * 1000000ull; }

std::string self_exe() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return {};
  buf[n] = '\0';
  return std::string(buf);
}

std::string dirname_of(const std::string& path) {
  const std::size_t p = path.rfind('/');
  return p == std::string::npos ? std::string(".") : path.substr(0, p);
}

}  // namespace

std::string find_tool(const std::string& name) {
  std::vector<std::string> candidates;
  if (const char* d = std::getenv("ARMBAR_TOOL_DIR"); d != nullptr && d[0] != '\0')
    candidates.push_back(std::string(d) + "/" + name);
  const std::string exe = self_exe();
  if (!exe.empty()) {
    std::string dir = dirname_of(exe);
    candidates.push_back(dir + "/" + name);
    for (int up = 0; up < 3; ++up) {
      candidates.push_back(dir + "/tools/" + name);
      dir += "/..";
    }
  }
  for (const std::string& c : candidates)
    if (::access(c.c_str(), X_OK) == 0) return c;
  return {};
}

// ---------------------------------------------------------------------------
// Worker entry

int maybe_run_worker(int argc, char** argv) {
  WorkerOpts o;
  bool is_worker = false;
  auto val = [&](int& i) -> const char* {
    ARMBAR_CHECK_MSG(i + 1 < argc, "worker flag missing its value");
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--role") {
      const std::string r = val(i);
      ARMBAR_CHECK_MSG(r == "producer" || r == "consumer", "bad --role");
      o.role = r == "producer" ? Role::kProducer : Role::kConsumer;
      is_worker = true;
    } else if (a == "--attach-worker") {
      o.attach = val(i);
    } else if (a == "--channel") {
      o.channel = static_cast<std::uint32_t>(std::strtoul(val(i), nullptr, 10));
    } else if (a == "--payload-seed") {
      o.payload_seed = std::strtoull(val(i), nullptr, 10);
    } else if (a == "--produce-work") {
      o.tuning.produce_work =
          static_cast<std::uint32_t>(std::strtoul(val(i), nullptr, 10));
    } else if (a == "--lease-ms") {
      o.tuning.backoff.lease_ns = ms_to_ns(std::strtoull(val(i), nullptr, 10));
    } else if (a == "--op-deadline-ms") {
      o.tuning.op_deadline_ns = ms_to_ns(std::strtoull(val(i), nullptr, 10));
    } else if (a == "--crash-point") {
      ARMBAR_CHECK_MSG(parse_crash_point(val(i), &o.crash.point),
                       "bad --crash-point");
    } else if (a == "--crash-op") {
      o.crash.at_op = std::strtoull(val(i), nullptr, 10);
    }
  }
  if (!is_worker) return -1;

  Segment seg;
  std::string err;
  if (!Segment::attach(o.attach, &seg, &err)) {
    std::fprintf(stderr, "worker: attach %s failed: %s\n", o.attach.c_str(),
                 err.c_str());
    return kWorkerAttachFailed;
  }
  Peer peer(seg, o.role);
  try {
    if (o.role == Role::kProducer) {
      Producer prod(seg, o.channel, peer, o.tuning, o.crash);
      while (prod.produce(payload_at(o.payload_seed, prod.position()))) {
      }
      return kWorkerOk;
    }
    Consumer cons(seg, o.channel, peer, o.tuning, o.crash);
    for (;;) {
      std::uint32_t payload = 0;
      std::uint64_t ticket = 0;
      const Consumer::Pop r = cons.pop(&payload, &ticket);
      if (r == Consumer::Pop::kDone) return kWorkerOk;
      if (r == Consumer::Pop::kGap) continue;
      if (payload != payload_at(o.payload_seed, ticket)) {
        std::fprintf(stderr,
                     "worker: MISDELIVERY ch=%u ticket=%llu got=%08x want=%08x\n",
                     o.channel, static_cast<unsigned long long>(ticket), payload,
                     payload_at(o.payload_seed, ticket));
        return kWorkerMisdelivery;
      }
    }
  } catch (const StallError& e) {
    // Leave the registration behind: our claimed-but-unfinished state must
    // stay attributed to this pid so recovery can account it after exit.
    peer.abandon();
    std::fprintf(stderr, "worker: stalled: %s\n", e.what());
    return kWorkerStalled;
  }
}

// ---------------------------------------------------------------------------
// Emergency cleanup registry

namespace {
std::mutex g_cleanup_mu;
std::vector<pid_t> g_children;
std::vector<std::string> g_segments;
volatile std::sig_atomic_t g_tool_signal = 0;
void tool_signal_handler(int sig) { g_tool_signal = sig; }
}  // namespace

void register_live_child(pid_t pid) {
  std::lock_guard<std::mutex> lk(g_cleanup_mu);
  g_children.push_back(pid);
}

void forget_child(pid_t pid) {
  std::lock_guard<std::mutex> lk(g_cleanup_mu);
  g_children.erase(std::remove(g_children.begin(), g_children.end(), pid),
                   g_children.end());
}

void register_segment(const std::string& shm_name) {
  std::lock_guard<std::mutex> lk(g_cleanup_mu);
  g_segments.push_back(shm_name);
}

void forget_segment(const std::string& shm_name) {
  std::lock_guard<std::mutex> lk(g_cleanup_mu);
  g_segments.erase(std::remove(g_segments.begin(), g_segments.end(), shm_name),
                   g_segments.end());
}

void emergency_cleanup() {
  std::vector<pid_t> kids;
  std::vector<std::string> segs;
  {
    std::lock_guard<std::mutex> lk(g_cleanup_mu);
    kids.swap(g_children);
    segs.swap(g_segments);
  }
  for (pid_t p : kids) ::kill(p, SIGKILL);
  for (pid_t p : kids) {
    int st = 0;
    while (::waitpid(p, &st, 0) < 0 && errno == EINTR) {
    }
  }
  for (const std::string& s : segs) ::shm_unlink(s.c_str());
}

volatile std::sig_atomic_t* install_tool_signals() {
  g_tool_signal = 0;
  std::signal(SIGINT, &tool_signal_handler);
  std::signal(SIGTERM, &tool_signal_handler);
  return &g_tool_signal;
}

// ---------------------------------------------------------------------------
// Fleet

namespace {

struct Child {
  pid_t pid = -1;
  Role role = Role::kConsumer;
  std::uint32_t channel = 0;
};

pid_t spawn_worker(const std::string& bin, const std::string& attach, Role role,
                   std::uint32_t channel, std::uint64_t payload_seed,
                   const ChannelTuning& tuning, const CrashPlan& crash) {
  std::vector<std::string> args = {
      bin,
      "--role", role == Role::kProducer ? "producer" : "consumer",
      "--attach-worker", attach,
      "--channel", std::to_string(channel),
      "--payload-seed", std::to_string(payload_seed),
      "--produce-work", std::to_string(tuning.produce_work),
      "--lease-ms", std::to_string(tuning.backoff.lease_ns / 1000000ull),
      "--op-deadline-ms", std::to_string(tuning.op_deadline_ns / 1000000ull),
  };
  if (crash.point != CrashPlan::Point::kNone) {
    args.emplace_back("--crash-point");
    args.emplace_back(to_string(crash.point));
    args.emplace_back("--crash-op");
    args.emplace_back(std::to_string(crash.at_op));
  }
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  const pid_t pid = ::fork();
  ARMBAR_CHECK_MSG(pid >= 0, "fork failed");
  if (pid == 0) {
    ::execv(argv[0], argv.data());
    _exit(127);
  }
  return pid;
}

const char* role_name(Role r) {
  return r == Role::kProducer ? "producer" : "consumer";
}

double percentile_us(const std::uint64_t* hist, double q) {
  std::uint64_t total = 0;
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) total += hist[b];
  if (total == 0) return 0.0;
  const double target = q * static_cast<double>(total);
  double seen = 0;
  for (std::size_t b = 0; b < kLatencyBuckets; ++b) {
    seen += static_cast<double>(hist[b]);
    if (seen >= target) {
      // Geometric midpoint of the log2 bucket, in microseconds.
      return static_cast<double>(1ull << b) * 1.5 / 1000.0;
    }
  }
  return static_cast<double>(1ull << (kLatencyBuckets - 1)) / 1000.0;
}

}  // namespace

Fleet::Fleet(FleetConfig cfg) : cfg_(std::move(cfg)) {}

FleetResult Fleet::run(const std::function<bool()>& interrupted) {
  FleetResult res;
  if (cfg_.kill_max_ms < cfg_.kill_min_ms) cfg_.kill_max_ms = cfg_.kill_min_ms;
  const bool owner = cfg_.attach.empty();

  Segment seg;
  if (owner) {
    seg = Segment::create(cfg_.seg);
    register_segment(seg.shm_name());
  } else {
    std::string err;
    if (!Segment::attach(cfg_.attach, &seg, &err)) {
      res.error = "attach failed: " + err;
      return res;
    }
  }
  const SegmentHeader& h = seg.header();
  const std::uint32_t channels = h.channels;
  const std::uint64_t payload_seed = h.seed;

  std::string bin = cfg_.worker_bin.empty() ? self_exe() : cfg_.worker_bin;
  if (bin.empty() || ::access(bin.c_str(), X_OK) != 0) {
    res.error = "worker binary not found: " + bin;
    if (owner) {
      seg.unlink();
      forget_segment(seg.shm_name());
    }
    return res;
  }

  Rng rng(cfg_.chaos_seed);
  auto make_plan = [&](Role role) {
    CrashPlan plan;
    if (!cfg_.chaos || rng.below(100) >= cfg_.crash_plan_pct) return plan;
    static const CrashPlan::Point kProducerPoints[] = {
        CrashPlan::Point::kMidProduce, CrashPlan::Point::kAfterPublish};
    static const CrashPlan::Point kConsumerPoints[] = {
        CrashPlan::Point::kAfterClaim, CrashPlan::Point::kAfterMark};
    plan.point = role == Role::kProducer ? kProducerPoints[rng.below(2)]
                                         : kConsumerPoints[rng.below(2)];
    plan.at_op = 20 + rng.below(5000);
    return plan;
  };

  std::vector<Child> kids;
  auto spawn = [&](Role role, std::uint32_t ch, bool with_plan) {
    const CrashPlan plan = with_plan ? make_plan(role) : CrashPlan{};
    const pid_t pid = spawn_worker(bin, seg.shm_name(), role, ch, payload_seed,
                                   cfg_.tuning, plan);
    register_live_child(pid);
    kids.push_back({pid, role, ch});
    if (cfg_.verbose)
      std::fprintf(stderr, "fleet: spawned %s pid=%d ch=%u plan=%s@%llu\n",
                   role_name(role), static_cast<int>(pid), ch,
                   to_string(plan.point),
                   static_cast<unsigned long long>(plan.at_op));
  };

  for (std::uint32_t ch = 0; ch < channels; ++ch) {
    if (cfg_.spawn_producers) spawn(Role::kProducer, ch, true);
    if (cfg_.spawn_consumers)
      for (std::uint32_t i = 0; i < cfg_.consumers_per_channel; ++i)
        spawn(Role::kConsumer, ch, true);
  }

  const std::uint64_t t0 = now_ns();
  const std::uint64_t watchdog_at = t0 + ms_to_ns(cfg_.deadline_ms);
  const std::uint64_t chaos_until =
      cfg_.chaos && cfg_.chaos_ms != 0 ? t0 + ms_to_ns(cfg_.chaos_ms) : 0;
  // A kill-budget window (no chaos_ms) spaces its kills by production, not
  // by wall clock: a kill lands each time the channels have produced
  // another records / (2 * budget) tickets in total, so the budget is spent
  // by half of one channel's stream however fast the fleet drains it.
  const bool kill_by_production =
      cfg_.chaos && cfg_.chaos_ms == 0 && cfg_.chaos_max_kills != 0;
  const std::uint64_t kill_step =
      kill_by_production
          ? std::max<std::uint64_t>(1, h.records / (2 * cfg_.chaos_max_kills))
          : 0;
  const auto produced = [&] {
    std::uint64_t total = 0;
    for (std::uint32_t ch = 0; ch < channels; ++ch)
      total += seg.ctrl(ch).prod.load(std::memory_order_relaxed);
    return total;
  };
  const auto next_kill_after = [&](std::uint64_t now) {
    return kill_by_production
               ? produced() + kill_step
               : now + ms_to_ns(cfg_.kill_min_ms +
                                rng.below(cfg_.kill_max_ms - cfg_.kill_min_ms + 1));
  };
  std::uint64_t next_kill = cfg_.chaos ? next_kill_after(t0) : ~0ull;
  bool chaos_active = cfg_.chaos;
  bool failed = false;

  auto stop_all_channels = [&]() {
    for (std::uint32_t ch = 0; ch < channels; ++ch) {
      seg.ctrl(ch).stop.store(1, std::memory_order_relaxed);
      seg.ctrl(ch).prod_doorbell.post();
      seg.ctrl(ch).cons_doorbell.post();
    }
  };

  auto kill_everything = [&]() {
    for (const Child& k : kids) ::kill(k.pid, SIGKILL);
    for (const Child& k : kids) {
      int st = 0;
      while (::waitpid(k.pid, &st, 0) < 0 && errno == EINTR) {
      }
      forget_child(k.pid);
    }
    kids.clear();
  };

  for (;;) {
    const std::uint64_t now = now_ns();

    if (interrupted && interrupted()) {
      kill_everything();
      res.interrupted = true;
      res.error = "interrupted";
      break;
    }
    if (now > watchdog_at) {
      kill_everything();
      res.error = "fleet watchdog expired: service hang";
      failed = true;
      break;
    }

    // Reap and restart.
    for (;;) {
      int st = 0;
      const pid_t pid = ::waitpid(-1, &st, WNOHANG);
      if (pid <= 0) break;
      forget_child(pid);
      auto it = std::find_if(kids.begin(), kids.end(),
                             [pid](const Child& k) { return k.pid == pid; });
      if (it == kids.end()) continue;
      const Child dead = *it;
      kids.erase(it);
      if (WIFEXITED(st) && WEXITSTATUS(st) == kWorkerOk) continue;
      if (WIFSIGNALED(st) && WTERMSIG(st) == SIGKILL) {
        // A chaos kill (ours or a self-inflicted crash plan): restart the
        // worker so the fleet always makes progress. New crash plans only
        // while the kill window is open.
        ++res.restarts;
        spawn(dead.role, dead.channel, chaos_active);
        continue;
      }
      res.error = std::string(role_name(dead.role)) + " ch=" +
                  std::to_string(dead.channel) + " failed: " +
                  (WIFEXITED(st)
                       ? "exit " + std::to_string(WEXITSTATUS(st))
                       : "signal " + std::to_string(WTERMSIG(st)));
      failed = true;
      break;
    }
    if (failed) {
      kill_everything();
      break;
    }

    // Chaos kills.
    if (chaos_active) {
      const bool window_over =
          (chaos_until != 0 && now >= chaos_until) ||
          (cfg_.chaos_max_kills != 0 && res.kills >= cfg_.chaos_max_kills);
      if (window_over) {
        chaos_active = false;
        stop_all_channels();
      } else if ((kill_by_production ? produced() : now) >= next_kill &&
                 !kids.empty()) {
        std::vector<const Child*> pool;
        for (const Child& k : kids)
          if (cfg_.victims == ChaosVictims::kAll || k.role == Role::kProducer)
            pool.push_back(&k);
        if (!pool.empty()) {
          const Child* victim = pool[rng.below(pool.size())];
          if (::kill(victim->pid, SIGKILL) == 0) ++res.kills;
        }
        next_kill = next_kill_after(now);
      }
    }

    // Completion: all workers exited cleanly and every channel is drained.
    if (kids.empty()) {
      bool done = true;
      for (std::uint32_t ch = 0; ch < channels && done; ++ch) {
        ChannelCtrl& c = seg.ctrl(ch);
        done = c.produce_done.load(std::memory_order_acquire) != 0 &&
               c.cons.load(std::memory_order_relaxed) >=
                   c.prod.load(std::memory_order_relaxed);
      }
      if (done) break;
      // Workers gone but work remains (e.g. consumers-only fleet waiting on
      // an external producer): for a spawning fleet this is unreachable
      // because kDone implies drained; keep waiting for external progress.
      if (cfg_.spawn_producers && cfg_.spawn_consumers) break;
    }

    timespec ts{0, 2000000};  // 2 ms supervision tick
    nanosleep(&ts, nullptr);
  }

  const std::uint64_t t1 = now_ns();
  res.seconds = static_cast<double>(t1 - t0) * 1e-9;

  if (!res.interrupted && !failed) {
    // Final recovery pass (force): mops up tickets whose claimant was
    // killed on the very last records, where no later waiter would have
    // triggered recovery organically.
    {
      Peer auditor(seg, Role::kNone);
      for (std::uint32_t ch = 0; ch < channels; ++ch)
        run_recovery(seg, ch, auditor.index(), /*force=*/true);
    }

    // Exact audit from the mark arrays.
    std::uint64_t hist[kLatencyBuckets] = {};
    std::uint64_t lat_count = 0;
    for (std::uint32_t ch = 0; ch < channels; ++ch) {
      ChannelCtrl& c = seg.ctrl(ch);
      ChannelAudit a;
      a.produced = c.prod.load(std::memory_order_relaxed);
      a.consumed = c.cons.load(std::memory_order_relaxed);
      const std::atomic<std::uint8_t>* marks = seg.marks(ch);
      for (std::uint64_t t = 0; t < h.records; ++t) {
        const std::uint8_t m = marks[t].load(std::memory_order_relaxed);
        const std::uint32_t del = m & 3u;
        const std::uint32_t gap = m >> 2;
        if (t < a.produced) {
          if (del >= 1) {
            ++a.delivered;
            if (del >= 2) ++a.duplicates;
          } else if (gap > 0) {
            ++a.gaps;
          } else {
            ++a.unmarked;
          }
        } else if (m != 0) {
          ++a.overmarks;
        }
      }
      a.generation = c.generation.load(std::memory_order_relaxed);
      a.recoveries = c.recoveries.load(std::memory_order_relaxed);
      a.gaps_tombstoned = c.gaps_tombstoned.load(std::memory_order_relaxed);
      a.gaps_reclaimed = c.gaps_reclaimed.load(std::memory_order_relaxed);
      a.intents_rescued = c.intents_rescued.load(std::memory_order_relaxed);
      a.slot_reclaims = c.slot_reclaims.load(std::memory_order_relaxed);
      a.seq_repairs = c.seq_repairs.load(std::memory_order_relaxed);
      a.lock_steals = c.lock_steals.load(std::memory_order_relaxed);
      a.peer_reclaims = c.peer_reclaims.load(std::memory_order_relaxed);
      a.barriers = c.barriers.load(std::memory_order_relaxed);
      a.full_barriers = c.full_barriers.load(std::memory_order_relaxed);
      a.futex_waits = c.futex_waits.load(std::memory_order_relaxed);
      a.identity_ok = a.delivered + a.gaps == a.produced &&
                      a.consumed == a.produced && a.duplicates == 0 &&
                      a.unmarked == 0 && a.overmarks == 0;
      res.produced += a.produced;
      res.delivered += a.delivered;
      res.gaps += a.gaps;
      res.duplicates += a.duplicates;
      res.barriers += a.barriers;
      res.full_barriers += a.full_barriers;
      res.futex_waits += a.futex_waits;
      for (std::size_t b = 0; b < kLatencyBuckets; ++b)
        hist[b] += c.latency_hist[b].load(std::memory_order_relaxed);
      lat_count += c.latency_count.load(std::memory_order_relaxed);
      res.channels.push_back(a);
    }
    (void)lat_count;
    res.p50_us = percentile_us(hist, 0.50);
    res.p99_us = percentile_us(hist, 0.99);
    res.p999_us = percentile_us(hist, 0.999);
    res.mps = res.seconds > 0 ? static_cast<double>(res.delivered) / res.seconds / 1e6
                              : 0.0;
    res.ok = !failed;
    for (const ChannelAudit& a : res.channels)
      if (!a.identity_ok) {
        res.ok = false;
        if (res.error.empty()) res.error = "delivery accounting identity violated";
      }
  }

  // Teardown: the owner unlinks; everyone optionally sweeps stale segments
  // (the chaos-teardown GC of the satellite task).
  if (owner) {
    seg.unlink();
    forget_segment(seg.shm_name());
  }
  if (cfg_.run_gc) {
    const GcStats gc = gc_stale_segments();
    res.gc_removed = gc.removed;
  }
  // Verify nothing of ours is left in /dev/shm (owner runs only).
  if (owner) {
    res.segments_clean = true;
    const std::string mine_prefix =
        "armbar." + current_user() + "." + std::to_string(::getpid()) + ".";
    if (DIR* d = ::opendir("/dev/shm")) {
      while (dirent* e = ::readdir(d))
        if (std::strncmp(e->d_name, mine_prefix.c_str(), mine_prefix.size()) == 0)
          res.segments_clean = false;
      ::closedir(d);
    }
  } else {
    res.segments_clean = true;
  }
  return res;
}

}  // namespace armbar::shmsvc
