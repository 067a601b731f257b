#include "obs/serve.hpp"

#ifndef ALPS_OBS_DISABLE

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <limits>
#include <mutex>
#include <thread>
#include <utility>

#include "obs/telemetry.hpp"

namespace alps::obs {

namespace {

// ---- double-buffered snapshot publication ------------------------------
//
// Two pre-rendered response slots. The publisher (simulation rank 0)
// writes the retired slot only after its reader count drains to zero,
// then swaps `cur`; the reader (server thread) pins a slot by bumping
// its reader count and re-checking `cur` — if the publisher swapped in
// between, it retreats and retries. All operations are seq_cst: the
// cur.store/load pair orders the slot's string writes before the reads,
// and the readers fetch_sub/load pair orders the reads before the next
// overwrite. Lock-free on the read side by construction.

struct Published {
  std::string metrics;
  std::string status;
  bool healthy = true;
  std::string health_reason;
};

struct ServeState {
  Published bufs[2];
  std::atomic<int> cur{-1};  // -1 = nothing published yet
  std::atomic<int> readers[2] = {{0}, {0}};

  std::atomic<bool> active{false};
  std::atomic<bool> stopping{false};
  std::atomic<int> listen_fd{-1};
  std::atomic<int> port{-1};
  std::thread thread;

  // Publisher-side state (one publisher at a time; the mutex also covers
  // restarts from tests).
  std::mutex pub_mtx;
  std::deque<std::pair<double, int>> window;  // (wall_s, step)
  std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  std::atomic<long> target_steps{-1};
  std::atomic<int> stagnation_limit{3};
  int consecutive_unconverged = 0;
  std::atomic<bool> marked_unhealthy{false};
  std::string marked_reason;  // under pub_mtx
};

ServeState& state() {
  static ServeState s;
  return s;
}

int acquire_slot(ServeState& s) {
  for (;;) {
    const int c = s.cur.load();
    if (c < 0) return -1;
    s.readers[c].fetch_add(1);
    if (s.cur.load() == c) return c;
    s.readers[c].fetch_sub(1);  // publisher swapped underneath: retry
  }
}

void release_slot(ServeState& s, int c) { s.readers[c].fetch_sub(1); }

// ---- rendering ---------------------------------------------------------

std::string fmt_num(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}

/// Prometheus metric-name charset: [a-zA-Z0-9_:]; everything else -> '_'.
std::string sanitize_metric(const std::string& name) {
  std::string out = name;
  for (char& c : out)
    if (!(std::isalnum(static_cast<unsigned char>(c)) || c == '_')) c = '_';
  return out;
}

void append_gauge(std::string& out, const char* name, const char* help,
                  double v) {
  out += "# HELP ";
  out += name;
  out += ' ';
  out += help;
  out += "\n# TYPE ";
  out += name;
  out += " gauge\n";
  out += name;
  out += ' ';
  out += fmt_num(v);
  out += '\n';
}

}  // namespace

std::string prometheus_text(const MetricsSnapshot& snap) {
  std::string out;
  out.reserve(16384);
  append_gauge(out, "alps_up", "1 while the metrics publisher is stepping", 1);
  append_gauge(out, "alps_step", "Current simulation step",
               static_cast<double>(snap.step));
  append_gauge(out, "alps_sim_time", "Simulation time (model units)",
               snap.sim_time);
  append_gauge(out, "alps_dt", "Current time-step size", snap.dt);
  append_gauge(out, "alps_dofs", "Global velocity-pressure dofs",
               static_cast<double>(snap.dofs));
  append_gauge(out, "alps_elements", "Global element count",
               static_cast<double>(snap.elements));
  append_gauge(out, "alps_ranks", "World size",
               static_cast<double>(snap.ranks));
  append_gauge(out, "alps_partition_imbalance",
               "max_rank_elements * ranks / total_elements",
               snap.partition_imbalance);
  append_gauge(out, "alps_cp_imbalance",
               "Step critical-path length over mean path length",
               snap.cp_imbalance);
  append_gauge(out, "alps_healthy", "1 healthy, 0 after a sentinel trip",
               snap.healthy ? 1 : 0);
  append_gauge(out, "alps_wait_blocked_seconds",
               "Rank-summed blocked time in the last step",
               snap.wait_blocked_s);
  if (!snap.solves.empty()) {
    const SolveRow& last = snap.solves.back();
    append_gauge(out, "alps_solver_iterations",
                 "Krylov iterations of the last Stokes solve",
                 static_cast<double>(last.iterations));
    append_gauge(out, "alps_solver_relative_residual",
                 "Relative residual of the last Stokes solve", last.relres);
    append_gauge(out, "alps_picard_iterations",
                 "Picard iterations of the last Stokes solve",
                 static_cast<double>(snap.picard_iterations));
  }
  if (snap.mem_available) {
    append_gauge(out, "alps_mem_accounted_bytes",
                 "Registry-accounted bytes, summed over ranks",
                 static_cast<double>(snap.mem_accounted_total));
    append_gauge(out, "alps_mem_rss_max_bytes", "Worst single-rank RSS",
                 static_cast<double>(snap.mem_rss_max));
  }

  for (const auto& [name, value] : snap.counters) {
    const std::string m = "alps_" + sanitize_metric(name) + "_total";
    out += "# TYPE " + m + " counter\n";
    out += m + ' ' + std::to_string(value) + '\n';
  }

  // One histogram family, one series per phase. Bucket counts are
  // cumulative and close with +Inf, sum and count follow — the exposition
  // shape check_metrics.py validates for monotonicity.
  out +=
      "# HELP alps_latency_seconds Per-phase duration distribution "
      "(log-bucketed, growth 1.08)\n"
      "# TYPE alps_latency_seconds histogram\n";
  for (const auto& [name, h] : snap.hists) {
    if (h.empty()) continue;
    int lo = 0, hi = Histogram::kBucketCount - 1;
    while (lo < Histogram::kBucketCount && h.bucket(lo) == 0) ++lo;
    while (hi > lo && h.bucket(hi) == 0) --hi;
    std::uint64_t cum = 0;
    const std::string series =
        "alps_latency_seconds_bucket{phase=\"" + name + "\",le=\"";
    for (int i = lo; i <= hi; ++i) {
      if (h.bucket(i) == 0 && i != hi) continue;  // sparse but cumulative
      cum += h.bucket(i);
      // Re-scan: skipped empty buckets contribute nothing, so cum is the
      // true cumulative count at upper(i).
      out += series + fmt_num(Histogram::bucket_upper(i)) + "\"} " +
             std::to_string(cum) + '\n';
    }
    out += series + "+Inf\"} " + std::to_string(h.count()) + '\n';
    out += "alps_latency_seconds_sum{phase=\"" + name + "\"} " +
           fmt_num(h.sum()) + '\n';
    out += "alps_latency_seconds_count{phase=\"" + name + "\"} " +
           std::to_string(h.count()) + '\n';
  }
  return out;
}

std::string status_json(const MetricsSnapshot& snap, double eta_s,
                        double step_rate_per_s, long target_steps) {
  TelemetryRecord w;
  w.field("step", snap.step)
      .field("time", snap.sim_time)
      .field("dt", snap.dt)
      .field("dofs", snap.dofs)
      .field("elements", snap.elements)
      .field("ranks", snap.ranks)
      .field("partition_imbalance", snap.partition_imbalance)
      .field("cp_imbalance", snap.cp_imbalance)
      .field("healthy", snap.healthy)
      .field("health_reason", snap.health_reason)
      .obj_open("solver");
  if (snap.solves.empty()) {
    w.field_json("status", "null");
  } else {
    w.field("picard_iterations", snap.picard_iterations);
    json_solves(w, "solves", snap.solves);
  }
  w.obj_close().field("wait_blocked_s", snap.wait_blocked_s);
  if (snap.mem_available)
    w.obj_open("memory")
        .field("accounted_total_bytes", snap.mem_accounted_total)
        .field("rss_max_bytes", snap.mem_rss_max)
        .obj_close();
  // An unknown target, rate or ETA goes to the writer as NaN, which it
  // writes as null.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  return w
      .field("target_steps",
             target_steps >= 0 ? static_cast<double>(target_steps) : nan)
      .field("step_rate_per_s", step_rate_per_s > 0 ? step_rate_per_s : nan)
      .field("eta_s", eta_s >= 0 ? eta_s : nan)
      .field("telemetry_records", telemetry_records())
      .json();
}

// ---- publishing --------------------------------------------------------

void metrics_publish(const MetricsSnapshot& snap) {
  ServeState& s = state();
  std::lock_guard<std::mutex> lock(s.pub_mtx);

  // ETA from a sliding window of (wall clock, step) pairs.
  const double now = std::chrono::duration<double>(
                         std::chrono::steady_clock::now() - s.epoch)
                         .count();
  s.window.emplace_back(now, snap.step);
  while (s.window.size() > 32) s.window.pop_front();
  double rate = 0;
  if (s.window.size() >= 2) {
    const double dt_wall = s.window.back().first - s.window.front().first;
    const int dsteps = s.window.back().second - s.window.front().second;
    if (dt_wall > 0 && dsteps > 0) rate = dsteps / dt_wall;
  }
  const long target = s.target_steps.load();
  double eta = -1;
  if (target >= 0 && rate > 0)
    eta = target > snap.step ? (target - snap.step) / rate : 0.0;

  // Convergence tracking: consecutive steps whose last solve did not
  // converge, whatever the reason (la::to_string's tokens).
  if (!snap.solves.empty()) {
    const bool bad = snap.solves.back().status != "converged";
    s.consecutive_unconverged = bad ? s.consecutive_unconverged + 1 : 0;
  }

  MetricsSnapshot eff = snap;
  if (s.marked_unhealthy.load()) {
    eff.healthy = false;
    if (eff.health_reason.empty()) eff.health_reason = s.marked_reason;
  }
  if (s.consecutive_unconverged >= s.stagnation_limit.load()) {
    eff.healthy = false;
    if (eff.health_reason.empty())
      eff.health_reason = "unconverged_solves=" +
                          std::to_string(s.consecutive_unconverged);
  }

  const int c = s.cur.load();
  const int next = c < 0 ? 0 : 1 - c;
  // Wait for the retired slot's readers to drain; the server handles one
  // short request at a time, so this spin is bounded by one response.
  while (s.readers[next].load() != 0) std::this_thread::yield();
  Published& p = s.bufs[next];
  p.metrics = prometheus_text(eff);
  p.status = status_json(eff, eta, rate, target);
  p.healthy = eff.healthy;
  p.health_reason = eff.health_reason;
  s.cur.store(next);
}

void metrics_set_target_steps(long steps) {
  state().target_steps.store(steps);
}

int metrics_set_stagnation_limit(int n) {
  return state().stagnation_limit.exchange(n > 0 ? n : 1);
}

void metrics_mark_unhealthy(const std::string& reason) {
  ServeState& s = state();
  {
    std::lock_guard<std::mutex> lock(s.pub_mtx);
    if (s.marked_reason.empty()) s.marked_reason = reason;
  }
  s.marked_unhealthy.store(true);
}

void metrics_linger_if_unhealthy() {
  ServeState& s = state();
  if (!s.active.load() || !s.marked_unhealthy.load()) return;
  double linger = 2.0;
  if (const char* env = std::getenv("ALPS_METRICS_LINGER"))
    if (*env != '\0') linger = std::atof(env);
  if (linger <= 0) return;
  std::this_thread::sleep_for(std::chrono::duration<double>(linger));
}

void metrics_reset_for_testing() {
  ServeState& s = state();
  std::lock_guard<std::mutex> lock(s.pub_mtx);
  // Readers may still hold a slot only while the server runs; tests call
  // this with the server stopped (or between their own requests).
  s.cur.store(-1);
  s.window.clear();
  s.consecutive_unconverged = 0;
  s.marked_unhealthy.store(false);
  s.marked_reason.clear();
  s.target_steps.store(-1);
  s.stagnation_limit.store(3);
}

// ---- HTTP server -------------------------------------------------------

namespace {

void send_response(int fd, int code, const char* reason,
                   const char* content_type, const std::string& body) {
  std::string head = "HTTP/1.1 " + std::to_string(code) + ' ' + reason +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size()) +
                     "\r\nConnection: close\r\n\r\n";
  head += body;
  std::size_t off = 0;
  while (off < head.size()) {
    const ssize_t n = ::send(fd, head.data() + off, head.size() - off,
#ifdef MSG_NOSIGNAL
                             MSG_NOSIGNAL
#else
                             0
#endif
    );
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

void handle_connection(ServeState& s, int fd) {
  timeval tv{};
  tv.tv_sec = 2;
  ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
  char buf[2048];
  std::size_t got = 0;
  while (got < sizeof buf - 1) {
    const ssize_t n = ::recv(fd, buf + got, sizeof buf - 1 - got, 0);
    if (n <= 0) break;
    got += static_cast<std::size_t>(n);
    buf[got] = '\0';
    if (std::strstr(buf, "\r\n\r\n") != nullptr ||
        std::strstr(buf, "\n\n") != nullptr)
      break;
  }
  buf[got] = '\0';
  // "GET <path> HTTP/1.x" — anything else is a 400.
  std::string path;
  if (std::strncmp(buf, "GET ", 4) == 0) {
    const char* p = buf + 4;
    const char* sp = std::strchr(p, ' ');
    if (sp != nullptr) path.assign(p, sp);
  }
  if (path.empty()) {
    send_response(fd, 400, "Bad Request", "text/plain", "bad request\n");
    return;
  }
  const std::size_t q = path.find('?');
  if (q != std::string::npos) path.resize(q);

  if (path == "/metrics") {
    const int c = acquire_slot(s);
    if (c < 0) {
      send_response(fd, 200, "OK", "text/plain; version=0.0.4",
                    "# no snapshot published yet\nalps_up 1\n");
      return;
    }
    send_response(fd, 200, "OK", "text/plain; version=0.0.4",
                  s.bufs[c].metrics);
    release_slot(s, c);
  } else if (path == "/status") {
    const int c = acquire_slot(s);
    if (c < 0) {
      send_response(fd, 200, "OK", "application/json",
                    TelemetryRecord().field_json("step", "null").json());
      return;
    }
    send_response(fd, 200, "OK", "application/json", s.bufs[c].status);
    release_slot(s, c);
  } else if (path == "/healthz") {
    bool healthy = !s.marked_unhealthy.load();
    std::string reason;
    if (!healthy) {
      // The sticky mark may predate the next publish; its reason lives
      // under pub_mtx. Safe to take here: we hold no slot pin, so the
      // publisher's reader-drain spin cannot be waiting on us.
      std::lock_guard<std::mutex> lock(s.pub_mtx);
      reason = s.marked_reason;
    }
    const int c = acquire_slot(s);
    if (c >= 0) {
      healthy = healthy && s.bufs[c].healthy;
      if (reason.empty()) reason = s.bufs[c].health_reason;
      release_slot(s, c);
    }
    if (healthy) {
      send_response(fd, 200, "OK", "text/plain", "ok\n");
    } else {
      send_response(fd, 503, "Service Unavailable", "text/plain",
                    "unhealthy: " + (reason.empty() ? "sentinel" : reason) +
                        "\n");
    }
  } else {
    send_response(fd, 404, "Not Found", "text/plain", "not found\n");
  }
}

void server_loop(ServeState& s) {
  for (;;) {
    const int lfd = s.listen_fd.load();
    if (lfd < 0 || s.stopping.load()) break;
    sockaddr_in peer{};
    socklen_t len = sizeof peer;
    const int fd =
        ::accept(lfd, reinterpret_cast<sockaddr*>(&peer), &len);
    if (fd < 0) {
      if (s.stopping.load()) break;
      if (errno == EINTR) continue;
      break;  // listen socket is gone
    }
    handle_connection(s, fd);
    ::close(fd);
  }
}

}  // namespace

int serve_start(int port, std::string* err) {
  ServeState& s = state();
  std::lock_guard<std::mutex> lock(s.pub_mtx);
  if (s.active.load()) return s.port.load();

  const char* bind_env = std::getenv("ALPS_METRICS_BIND");
  const std::string bind_addr =
      (bind_env != nullptr && *bind_env != '\0') ? bind_env : "127.0.0.1";

  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    if (err != nullptr) *err = "socket: " + std::string(std::strerror(errno));
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(port));
  if (::inet_pton(AF_INET, bind_addr.c_str(), &addr.sin_addr) != 1) {
    if (err != nullptr) *err = "bad bind address: " + bind_addr;
    ::close(fd);
    return -1;
  }
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) < 0 ||
      ::listen(fd, 16) < 0) {
    if (err != nullptr) {
      *err = "bind " + bind_addr + ":" + std::to_string(port) + ": " +
             std::strerror(errno);
    }
    ::close(fd);
    return -1;
  }
  sockaddr_in bound{};
  socklen_t blen = sizeof bound;
  ::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &blen);
  const int got_port = static_cast<int>(ntohs(bound.sin_port));

  s.stopping.store(false);
  s.listen_fd.store(fd);
  s.port.store(got_port);
  s.thread = std::thread([&s] { server_loop(s); });
  s.active.store(true);
  return got_port;
}

int serve_maybe_start() {
  const char* env = std::getenv("ALPS_METRICS_PORT");
  if (env == nullptr || *env == '\0') return -1;
  const long port = std::atol(env);
  if (port < 0 || port > 65535) {
    std::fprintf(stderr, "alps: ignoring ALPS_METRICS_PORT=%s (bad port)\n",
                 env);
    return -1;
  }
  std::string err;
  const int got = serve_start(static_cast<int>(port), &err);
  if (got < 0)
    std::fprintf(stderr, "alps: metrics server failed: %s\n", err.c_str());
  return got;
}

void serve_stop() {
  ServeState& s = state();
  std::thread joiner;
  {
    std::lock_guard<std::mutex> lock(s.pub_mtx);
    if (!s.active.load()) return;
    s.stopping.store(true);
    const int fd = s.listen_fd.exchange(-1);
    if (fd >= 0) {
      ::shutdown(fd, SHUT_RDWR);  // wakes the blocking accept
      ::close(fd);
    }
    joiner = std::move(s.thread);
    s.active.store(false);
    s.port.store(-1);
  }
  if (joiner.joinable()) joiner.join();
}

bool serve_active() { return state().active.load(); }

int serve_port() { return state().port.load(); }

}  // namespace alps::obs

#endif  // ALPS_OBS_DISABLE
