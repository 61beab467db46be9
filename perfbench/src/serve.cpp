// serve — the real `fast_server --tiered` binary over loopback, preloaded
// with loadgen-style 64-bit synthetic signatures and driven with a zipf
// 90/10 query/insert mix. Engine work per request is small (about one
// candidate per query), so network and queueing time dominate.
//
// Phases: a closed loop at a fixed concurrency gives ops_per_s and
// query_p50_ms (latency with kClosedConns x kClosedDepth requests in
// flight, so mostly queueing); an open-loop ladder of fixed offered rates
// gives latency at the reference rate (its first rung) and
// slo_rate_per_s. The open-loop generator stamps
// every request with its due time, sends from one thread and receives with
// blocking reads on another, so latency includes any delay the generator
// itself adds (reported as loadgen.late_p99_ms).
#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <pthread.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <array>
#include <cmath>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>

#include "common.hpp"
#include "core/pipeline/factory.hpp"
#include "core/query_engine.hpp"
#include "server/protocol.hpp"

namespace perfbench {
namespace {

namespace wire = fast::server;

constexpr std::size_t kKeySpace = 20000;  // preloaded keys
constexpr double kZipfSkew = 0.99;
constexpr double kReadFraction = 0.9;
constexpr std::size_t kSigBits = 16384;
constexpr std::size_t kSigSetBits = 64;  // loadgen's synthetic signatures
constexpr std::size_t kTopK = 10;
constexpr std::size_t kPreloadBatch = 500;
constexpr std::size_t kClosedConns = 2;  // one per generator thread
constexpr std::size_t kClosedDepth = 16;  // requests in flight per conn
constexpr double kRefRate = 3000;        // reference offered rate, 1/s
constexpr double kRateStep = 250;        // ladder step above the reference
constexpr std::size_t kMaxSteps = 20;
constexpr std::size_t kChunks = 5;
constexpr std::size_t kCrossChecks = 200;
constexpr double kSloPercentile = 50;  // slo_rate_per_s holds this latency
constexpr double kWarmupS = 0.5;

/// loadgen's deterministic synthetic signature of a key.
fast::hash::SparseSignature synth_signature(std::uint64_t key) {
  fast::util::SplitMix64 sm(key * 0x2545f4914f6cdd1dULL + 0xfa57);
  std::vector<std::uint32_t> bits;
  for (std::size_t i = 0; i < kSigSetBits; ++i) {
    bits.push_back(static_cast<std::uint32_t>(sm.next() % kSigBits));
  }
  std::sort(bits.begin(), bits.end());
  bits.erase(std::unique(bits.begin(), bits.end()), bits.end());
  return fast::hash::SparseSignature(std::move(bits), kSigBits);
}

void pin_to(pid_t tid_or_pid, const std::vector<int>& cpus, bool thread) {
  if (cpus.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  if (thread) {
    ::pthread_setaffinity_np(::pthread_self(), sizeof(set), &set);
  } else {
    ::sched_setaffinity(tid_or_pid, sizeof(set), &set);
  }
}

/// One fast_server child process; stopped (SIGTERM, then SIGKILL) and
/// reaped on destruction.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, std::size_t workers,
                const std::string& log_path, const std::vector<int>& cpus) {
    std::vector<std::string> args = {
        bin, "--tiered", "--port=0", "--workers=" + std::to_string(workers),
        "--queue=65536"};
    std::vector<char*> argv;
    for (auto& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);
    ::unlink(log_path.c_str());  // never read a previous server's port
    pid_ = ::fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      const int fd = ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC,
                            0644);
      if (fd >= 0) {
        ::dup2(fd, 1);
        ::dup2(fd, 2);
      }
      ::prctl(PR_SET_PDEATHSIG, SIGKILL);  // never outlive the benchmark
      pin_to(0, cpus, false);
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    try {
      wait_for_port(log_path);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  void stop() {
    if (pid_ <= 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 1000; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      ::usleep(10000);
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }
  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

 private:
  /// The server prints its bound port once listening.
  void wait_for_port(const std::string& log_path) {
    const Clock::time_point t0 = Clock::now();
    while (port_ == 0) {
      std::ifstream in(log_path);
      std::string line;
      while (std::getline(in, line)) {
        const auto at = line.find("listening on 127.0.0.1:");
        if (at != std::string::npos) {
          port_ = static_cast<std::uint16_t>(
              std::stoi(line.substr(at + 23)));
        }
      }
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        throw std::runtime_error("fast_server exited during start-up");
      }
      if (seconds_since(t0) > 20) throw std::runtime_error("no listen line");
      if (port_ == 0) ::usleep(1000);
    }
  }

  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

/// A blocking wire-protocol connection. Sends and receives may run on two
/// different threads (they share only the descriptor). Reads time out
/// after 10 s so a stuck server cannot hang the benchmark.
class Wire {
 public:
  explicit Wire(std::uint16_t port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (fd_ < 0 || ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                             sizeof(addr)) != 0) {
      if (fd_ >= 0) ::close(fd_);
      throw std::runtime_error("connect to fast_server failed");
    }
    int one = 1;
    ::setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    timeval tv{10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  ~Wire() { ::close(fd_); }
  Wire(const Wire&) = delete;
  Wire& operator=(const Wire&) = delete;

  void send_frame(const std::vector<std::uint8_t>& framed) {
    std::size_t off = 0;
    while (off < framed.size()) {
      const ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) throw std::runtime_error("send to fast_server failed");
      off += static_cast<std::size_t>(n);
    }
  }
  void recv(wire::Response* out) {
    std::vector<std::uint8_t> body;
    while (!assembler_.next(&body)) {
      const ssize_t n = ::recv(fd_, buf_.data(), buf_.size(), 0);
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0 || assembler_.error()) {
        throw std::runtime_error("recv from fast_server failed");
      }
      assembler_.feed({buf_.data(), static_cast<std::size_t>(n)});
    }
    std::string error;
    if (!wire::decode_response(body, out, &error)) {
      throw std::runtime_error("bad response: " + error);
    }
  }
  wire::Response call(const std::vector<std::uint8_t>& body) {
    send_frame(wire::frame(body));
    wire::Response r;
    recv(&r);
    return r;
  }
  /// Negotiates the server-timing trailer (tracing) or not.
  void hello(bool timing) {
    const auto r = call(wire::encode_hello(
        0, 0, timing ? wire::kCapServerTiming : 0));
    if (r.status != wire::Status::kOk) {
      throw std::runtime_error("hello rejected");
    }
  }

 private:
  int fd_ = -1;
  wire::FrameAssembler assembler_;
  std::array<std::uint8_t, 65536> buf_{};
};

/// Latency and trailer samples of one phase.
struct Tally {
  Samples query_ms, insert_ms, late_ms;
  Samples net_ms, queue_ms, exec_ms;
  std::uint64_t ok = 0, retries = 0, errors = 0;
  std::vector<std::uint64_t> acked_inserts;

  void merge(const Tally& o) {
    query_ms.append(o.query_ms);
    insert_ms.append(o.insert_ms);
    late_ms.append(o.late_ms);
    net_ms.append(o.net_ms);
    queue_ms.append(o.queue_ms);
    exec_ms.append(o.exec_ms);
    ok += o.ok;
    retries += o.retries;
    errors += o.errors;
    acked_inserts.insert(acked_inserts.end(), o.acked_inserts.begin(),
                         o.acked_inserts.end());
  }
  /// Books one response whose request was due at `latency_ms` ago.
  void book(const wire::Response& r, bool is_query, std::uint64_t insert_id,
            double latency_ms) {
    if (r.status == wire::Status::kRetryAfter) {
      ++retries;
      return;
    }
    if (r.status != wire::Status::kOk) {
      ++errors;
      return;
    }
    ++ok;
    (is_query ? query_ms : insert_ms).add(latency_ms);
    if (!is_query) acked_inserts.push_back(insert_id);
    if (r.has_timing) {
      const double queue = static_cast<double>(r.queue_ns) / 1e6;
      const double exec = static_cast<double>(r.exec_ns) / 1e6;
      queue_ms.add(queue);
      exec_ms.add(exec);
      net_ms.add(std::max(0.0, latency_ms - queue - exec));
    }
  }
};

/// The request stream: zipf-keyed queries over the preloaded keys and
/// inserts of fresh ids, 90/10.
class Mix {
 public:
  Mix(std::uint64_t seed, std::uint64_t first_fresh_id)
      : rng_(seed), zipf_(kKeySpace, kZipfSkew), next_id_(first_fresh_id) {}
  /// Frames request `seq`; sets *is_query and, for inserts, *id.
  std::vector<std::uint8_t> next(std::uint64_t seq, bool* is_query,
                                 std::uint64_t* id) {
    *is_query = rng_.bernoulli(kReadFraction);
    if (*is_query) {
      *id = zipf_(rng_);
      return wire::frame(wire::encode_query(seq, kTopK, synth_signature(*id)));
    }
    *id = next_id_++;
    return wire::frame(wire::encode_insert(seq, *id, synth_signature(*id)));
  }

 private:
  fast::util::Rng rng_;
  fast::util::ZipfDistribution zipf_;
  std::uint64_t next_id_;
};

/// Fresh-id ranges: each phase/thread inserts ids from its own block.
std::uint64_t id_block(std::size_t phase) {
  return (static_cast<std::uint64_t>(phase) + 1) << 32;
}

/// Closed loop: kClosedConns connections, one per generator thread, each
/// keeping kClosedDepth requests in flight. Books every response into
/// `out` and returns the phase's wall time in seconds.
double closed_loop_phase(std::uint16_t port, double seconds, bool timing,
                         std::uint64_t seed, std::size_t phase,
                         const std::vector<int>& cpus, Tally* out) {
  std::vector<Tally> tallies(kClosedConns);
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::duration_cast<Clock::duration>(
                  std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  std::exception_ptr failure;
  std::mutex failure_mutex;
  for (std::size_t c = 0; c < kClosedConns; ++c) {
    threads.emplace_back([&, c] {
      try {
        pin_to(0, cpus, true);
        Wire conn(port);
        conn.hello(timing);
        Mix mix(seed * 131 + c, id_block(phase * kClosedConns + c));
        struct Pending {
          Clock::time_point sent;
          bool is_query;
          std::uint64_t id;
        };
        std::map<std::uint64_t, Pending> pending;
        std::uint64_t seq = 1;
        const auto issue = [&] {
          Pending p{};
          const auto framed = mix.next(seq, &p.is_query, &p.id);
          p.sent = Clock::now();
          pending[seq++] = p;
          conn.send_frame(framed);
        };
        for (std::size_t d = 0; d < kClosedDepth; ++d) issue();
        while (!pending.empty()) {
          wire::Response r;
          conn.recv(&r);
          const Clock::time_point now = Clock::now();
          const auto it = pending.find(r.seq);
          if (it == pending.end()) throw std::runtime_error("unknown seq");
          tallies[c].book(r, it->second.is_query, it->second.id,
                          seconds_between(it->second.sent, now) * 1e3);
          pending.erase(it);
          if (now < deadline) issue();
        }
      } catch (...) {
        std::lock_guard<std::mutex> lk(failure_mutex);
        failure = std::current_exception();
      }
    });
  }
  for (auto& t : threads) t.join();
  if (failure) std::rethrow_exception(failure);
  const double wall = seconds_since(start);
  for (const auto& t : tallies) out->merge(t);
  return wall;
}

/// One open-loop rung at a fixed offered rate. Request i is due at
/// start + i / rate; its latency runs from that due time to the arrival of
/// its response, so generator lateness counts against the server, never
/// hides it.
struct Rung {
  double rate = 0;
  Tally tally;
  double backlog_p50_ms = 0;  ///< median latency of the last 10% of requests
};

Rung open_loop_rung(std::uint16_t port, double rate, double seconds,
                    bool timing, std::uint64_t seed, std::size_t phase,
                    const std::vector<int>& sender_cpus,
                    const std::vector<int>& receiver_cpus) {
  Rung rung;
  rung.rate = rate;
  const auto n = static_cast<std::size_t>(std::llround(rate * seconds));
  // Pre-frame the whole stream so the sender only waits and writes.
  Mix mix(seed * 977 + phase, id_block(1000 + phase));
  std::vector<std::vector<std::uint8_t>> frames(n);
  std::vector<bool> is_query(n);
  std::vector<std::uint64_t> ids(n);
  for (std::size_t i = 0; i < n; ++i) {
    bool q = false;
    frames[i] = mix.next(i + 1, &q, &ids[i]);
    is_query[i] = q;
  }
  Wire conn(port);
  conn.hello(timing);
  const auto period = std::chrono::duration<double>(1.0 / rate);
  const Clock::time_point start = Clock::now() + std::chrono::milliseconds(2);
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       period * static_cast<double>(i));
  };
  std::vector<double> latency(n, 0.0);
  std::exception_ptr failure;
  std::thread receiver([&] {
    try {
      pin_to(0, receiver_cpus, true);
      for (std::size_t got = 0; got < n; ++got) {
        wire::Response r;
        conn.recv(&r);
        const Clock::time_point now = Clock::now();
        if (r.seq == 0 || r.seq > n) throw std::runtime_error("unknown seq");
        const std::size_t i = r.seq - 1;
        latency[i] = seconds_between(due(i), now) * 1e3;
        rung.tally.book(r, is_query[i], ids[i], latency[i]);
      }
    } catch (...) {
      failure = std::current_exception();
    }
  });
  std::exception_ptr send_failure;
  try {
    pin_to(0, sender_cpus, true);
    constexpr auto kSpin = std::chrono::microseconds(100);
    for (std::size_t i = 0; i < n; ++i) {
      const Clock::time_point at = due(i);
      if (Clock::now() < at - kSpin) std::this_thread::sleep_until(at - kSpin);
      while (Clock::now() < at) {
      }
      rung.tally.late_ms.add(seconds_since(at) * 1e3);
      conn.send_frame(frames[i]);
    }
  } catch (...) {
    send_failure = std::current_exception();
  }
  receiver.join();  // its reads time out if the server stops answering
  if (send_failure) std::rethrow_exception(send_failure);
  if (failure) std::rethrow_exception(failure);
  Samples last;
  for (std::size_t i = n - n / 10; i < n; ++i) last.add(latency[i]);
  rung.backlog_p50_ms = last.percentile(50);
  return rung;
}

/// Parses the "name value" sample lines of a Prometheus exposition.
std::map<std::string, double> parse_prometheus(const std::string& text) {
  std::map<std::string, double> out;
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos)
      continue;
    const auto sp = line.find(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

}  // namespace

Report run_serve(const Options& opts) {
  Report report;
  // Thread budget: the server's I/O thread and workers plus the two
  // generator threads stay within the usable CPUs. With four or more CPUs
  // the server is pinned to the first two and the generator to the next
  // two, so the two sides never contend for a core.
  const std::size_t workers =
      opts.nproc > 3 ? std::min<std::size_t>(2, opts.nproc - 3) : 1;
  std::vector<int> server_cpus, sender_cpus, receiver_cpus;
  if (opts.nproc >= 4) {
    server_cpus.assign(opts.cpus.begin(), opts.cpus.begin() + 1 + workers);
    sender_cpus = {opts.cpus[1 + workers]};
    receiver_cpus = {opts.cpus[2 + workers]};
  }
  report.note("threads: server_io=1 server_workers=" +
              std::to_string(workers) + " generator=2 pinned=" +
              (server_cpus.empty() ? "0" : "1"));
  if (opts.server_bin.empty()) throw std::runtime_error("--server-bin unset");

  // Set-up: start a fresh server and preload it, several times; the last
  // one is measured.
  const std::string log = opts.work_dir + "/fast_server.log";
  std::unique_ptr<ServerProcess> server;
  std::vector<double> setup_s;
  for (int rep = 0; rep < (opts.trace ? 1 : 3); ++rep) {
    server.reset();
    const Clock::time_point t0 = Clock::now();
    server = std::make_unique<ServerProcess>(opts.server_bin, workers, log,
                                             server_cpus);
    Wire conn(server->port());
    std::vector<std::uint64_t> ids;
    std::vector<fast::hash::SparseSignature> sigs;
    for (std::uint64_t key = 1; key <= kKeySpace; ++key) {
      ids.push_back(key);
      sigs.push_back(synth_signature(key));
      if (ids.size() == kPreloadBatch || key == kKeySpace) {
        const auto r = conn.call(wire::encode_insert_batch(key, ids, sigs));
        if (r.status != wire::Status::kOk || r.count != ids.size()) {
          throw std::runtime_error("preload rejected");
        }
        ids.clear();
        sigs.clear();
      }
    }
    setup_s.push_back(seconds_since(t0));
  }
  const std::uint16_t port = server->port();

  std::vector<int> generator_cpus = sender_cpus;
  generator_cpus.insert(generator_cpus.end(), receiver_cpus.begin(),
                        receiver_cpus.end());
  Tally all;  // every acked write, for the cross-check
  Tally warm;
  closed_loop_phase(port, kWarmupS, false, opts.seed, 0, generator_cpus,
                    &warm);
  all.merge(warm);

  // Closed-loop chunks alternate with reference-rate chunks across the run.
  // Closed-loop figures pool all their chunks; reference-rate figures are
  // medians over chunks. Traced runs add a closed-loop chunk with the timing
  // trailer negotiated beside each untraced one.
  const double closed_s = opts.seconds * 0.1;
  const double ref_s = opts.seconds * 0.05;
  std::vector<double> q50, q90, i50, i90;
  Tally closed, traced;  // pooled closed-loop samples, untraced and traced
  double closed_wall_s = 0, traced_wall_s = 0;
  Tally ref;  // pooled reference-rate samples
  std::size_t phase = 1;
  for (std::size_t c = 0; c < kChunks; ++c) {
    closed_wall_s += closed_loop_phase(port, closed_s, false, opts.seed,
                                       phase++, generator_cpus, &closed);
    if (opts.trace) {
      traced_wall_s += closed_loop_phase(port, closed_s, true, opts.seed,
                                         phase++, generator_cpus, &traced);
    }
    const Rung r = open_loop_rung(port, kRefRate, ref_s, opts.trace,
                                  opts.seed, phase++, sender_cpus,
                                  receiver_cpus);
    q50.push_back(r.tally.query_ms.percentile(50));
    q90.push_back(r.tally.query_ms.percentile(90));
    i50.push_back(r.tally.insert_ms.percentile(50));
    i90.push_back(r.tally.insert_ms.percentile(90));
    ref.merge(r.tally);
    all.merge(r.tally);
  }
  all.merge(closed);
  all.merge(traced);
  const double ops_per_s = static_cast<double>(closed.ok) / closed_wall_s;

  // Open-loop ladder above the reference rate. slo_rate_per_s is the
  // highest passing rate, interpolated toward the next (failing) rung so
  // the figure moves smoothly instead of by whole steps. Three failing
  // rungs in a row end the ladder, so one disturbed rung does not.
  const double limit = opts.slo_p50_ms;
  std::vector<double> rates = {kRefRate};
  std::vector<double> tails = {median(q50)};
  std::vector<bool> pass = {tails[0] <= limit};
  if (!opts.trace) {
    std::size_t failing = pass[0] ? 0 : 1;
    for (std::size_t k = 1; k <= kMaxSteps && failing < 3; ++k) {
      const Rung r = open_loop_rung(port, kRefRate + kRateStep * k,
                                    opts.seconds * 0.04, false, opts.seed,
                                    phase++, sender_cpus, receiver_cpus);
      all.merge(r.tally);
      rates.push_back(r.rate);
      tails.push_back(r.tally.query_ms.percentile(kSloPercentile));
      pass.push_back(tails.back() <= limit && r.backlog_p50_ms <= limit);
      failing = pass.back() ? 0 : failing + 1;
    }
  }
  double slo_rate = 0;
  std::size_t best = rates.size();  // highest passing rung
  for (std::size_t k = 0; k < rates.size(); ++k) {
    if (pass[k]) best = k;
  }
  if (best + 1 == rates.size()) {
    slo_rate = rates[best];
  } else {
    const double lo_rate = best < rates.size() ? rates[best] : 0.0;
    const double lo_tail = best < rates.size() ? tails[best] : 0.0;
    const std::size_t hi = best < rates.size() ? best + 1 : 0;
    // A rung that failed on backlog alone gives no latency to interpolate.
    const double frac = tails[hi] > limit
                            ? (limit - lo_tail) / (tails[hi] - lo_tail)
                            : 0.0;
    slo_rate = lo_rate + (rates[hi] - lo_rate) * std::clamp(frac, 0.0, 1.0);
  }
  const double server_rss = rss_mb_of(server->pid());

  // Cross-check: a direct QueryEngine over the same live set must answer a
  // sample of queries hit-for-hit like the server.
  fast::core::FastConfig config;
  config.tier.enabled = true;
  fast::core::TieredIndex mirror_index(config, placeholder_pca());
  fast::core::QueryEngine mirror(mirror_index, 1);
  for (std::uint64_t key = 1; key <= kKeySpace; ++key) {
    mirror.insert_signature(key, synth_signature(key));
  }
  for (std::uint64_t id : all.acked_inserts) {
    mirror.insert_signature(id, synth_signature(id));
  }
  std::size_t mismatches = 0;
  {
    Wire conn(port);
    fast::util::Rng rng(opts.seed ^ 0xc4ec);
    const fast::util::ZipfDistribution zipf(kKeySpace, kZipfSkew);
    for (std::size_t i = 0; i < kCrossChecks; ++i) {
      // Half the sample asks for preloaded keys, half for acked inserts.
      const std::uint64_t key =
          i % 2 == 0 || all.acked_inserts.empty()
              ? zipf(rng)
              : all.acked_inserts[rng.next_u64() % all.acked_inserts.size()];
      const auto sig = synth_signature(key);
      const auto r = conn.call(wire::encode_query(i + 1, kTopK, sig));
      auto got = r.status == wire::Status::kOk && r.results.size() == 1
                     ? r.results[0]
                     : std::vector<fast::core::ScoredId>{};
      if (opts.inject == "wrong_answer" && i == 0 && !got.empty()) {
        got[0].id ^= 1;
      }
      const auto want = mirror.query_signature(sig, kTopK).hits;
      bool same = got.size() == want.size();
      for (std::size_t h = 0; same && h < got.size(); ++h) {
        same = got[h].id == want[h].id && got[h].score == want[h].score;
      }
      if (!same) ++mismatches;
    }
  }
  std::map<std::string, double> scrape;
  if (opts.trace) {
    Wire conn(port);
    scrape = parse_prometheus(conn.call(wire::encode_metrics(1)).text);
  }
  server->stop();
  server.reset();

  const std::uint64_t sent = all.ok + all.retries + all.errors;
  report.attempted = sent + kCrossChecks;
  report.failed = all.retries + all.errors;
  if (mismatches > 0) {
    report.violation("serve: " + std::to_string(mismatches) + " of " +
                     std::to_string(kCrossChecks) +
                     " answers differ from a direct QueryEngine");
  }
  if (report.failed > 0) {
    report.violation("serve: " + std::to_string(report.failed) +
                     " requests failed or were refused");
  }
  std::ostringstream ladder;
  for (std::size_t k = 0; k < rates.size(); ++k) {
    ladder << " " << fmt(rates[k]) << ":" << fmt(tails[k]);
  }
  const auto& q = ref.query_ms;
  report.note("serve: ref_queries=" + std::to_string(q.size()) +
              " ref_query_p50_ms=" + fmt(median(q50)) +
              " ref_insert_p50_ms=" + fmt(median(i50)) +
              " ref_inserts=" + std::to_string(ref.insert_ms.size()) +
              " ref_query_p90_ms=" + fmt(median(q90)) +
              " ref_query_p99_ms=" + fmt(q.percentile(99)) +
              " ref_insert_p90_ms=" + fmt(median(i90)) +
              " ladder_rate:p50_ms=" + ladder.str() +
              " slo_p50_ms=" + fmt(limit) + " slo_rate_per_s=" + fmt(slo_rate) +
              " failed_frac=" +
              fmt(static_cast<double>(report.failed) /
                  static_cast<double>(report.attempted)));

  if (!opts.trace) {
    report.metric("setup_s", median(setup_s), "s");
    report.metric("query_p50_ms", closed.query_ms.percentile(50), "ms");
    report.metric("ops_per_s", ops_per_s, "1/s");
    report.metric("rss_mb", server_rss, "MiB");
    return report;
  }

  const auto aggregator = fast::core::pipeline::make_aggregator(config);
  double keys_insert_s = 0, keys_query_s = 0, hash_ops = 0;
  constexpr std::size_t kKeySample = 2000;
  for (std::uint64_t key = 1; key <= kKeySample; ++key) {
    const auto sig = synth_signature(key);
    std::vector<std::vector<std::uint64_t>> probes;
    const Clock::time_point a = Clock::now();
    (void)aggregator->keys(sig, nullptr);
    const Clock::time_point b = Clock::now();
    (void)aggregator->keys(sig, &probes);
    keys_insert_s += seconds_between(a, b);
    keys_query_s += seconds_since(b);
    hash_ops += static_cast<double>(aggregator->insert_hash_ops(sig));
  }
  const auto scraped = [&](const char* name) {
    const auto it = scrape.find(name);
    return it == scrape.end() ? 0.0 : it->second;
  };
  const double queries = scraped("index_queries");
  report.metric("sa.keys_insert_us", keys_insert_s / kKeySample * 1e6, "us");
  report.metric("sa.keys_query_us", keys_query_s / kKeySample * 1e6, "us");
  report.metric("sa.hash_ops_per_sig", hash_ops / kKeySample, "count");
  report.metric("chs.bucket_probes_per_query",
                scraped("chs_bucket_probes_per_query_sum") /
                    scraped("chs_bucket_probes_per_query_count"),
                "count");
  report.metric("rank.candidates_per_query",
                scraped("chs_candidates_per_query_sum") /
                    scraped("chs_candidates_per_query_count"),
                "count");
  report.metric("tier.seals", scraped("tier_seals"), "count");
  report.metric("compaction.runs", scraped("compaction_runs"), "count");
  report.metric("tier.segments_end", scraped("segment_count"), "count");
  report.metric("tier.tombstones_end", scraped("tier_tombstones"), "count");
  report.metric("tier.segment_skips_per_query",
                scraped("tier_segment_skips") / queries, "count");
  report.metric("server.net_p50_ms", ref.net_ms.percentile(50), "ms");
  report.metric("server.net_p99_ms", ref.net_ms.percentile(99), "ms");
  report.metric("server.queue_p99_ms", ref.queue_ms.percentile(99),
                "ms");
  report.metric("server.exec_p50_ms", ref.exec_ms.percentile(50), "ms");
  report.metric("server.exec_p99_ms", ref.exec_ms.percentile(99), "ms");
  report.metric("server.retry_frac",
                static_cast<double>(all.retries) / static_cast<double>(sent),
                "frac");
  report.metric("loadgen.late_p99_ms", ref.late_ms.percentile(99), "ms");
  report.metric("trace.overhead_frac",
                ops_per_s / (static_cast<double>(traced.ok) / traced_wall_s) -
                    1.0,
                "frac");
  return report;
}

}  // namespace perfbench
