#pragma once
// In-process message-passing runtime: the MPI substitute used by every
// distributed algorithm in this repository (see DESIGN.md, Substitutions).
//
// P "ranks" execute concurrently as std::threads and communicate only
// through this interface: matched point-to-point messages plus the
// collectives the paper's algorithms need (allgather for partition
// ranges, allreduce for MarkElements thresholds and balance fixpoints,
// alltoallv for partition/field transfer, exscan for global numbering).
//
// Collectives are staged through shared memory guarded by a barrier; the
// traffic they *would* generate on a network is recorded in CommStats so
// the performance model (src/perf) can synthesize large-P timings from
// counted, not invented, communication.

#include <atomic>
#include <barrier>
#include <condition_variable>
#include <cstdint>
#include <cstring>
#include <deque>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <vector>

#include "obs/obs.hpp"

namespace alps::par {

/// Live communication counters (shared, thread-safe). Calls and payload
/// bytes are incremented once per participating rank; the *_bytes fields
/// record the payload each rank contributes to the collective (what it
/// would put on a network), so the perf model sees measured traffic, not
/// just call counts. In this in-process runtime alltoallv is transported
/// over p2p messages, so its payload also appears in p2p_bytes.
struct AtomicCommStats {
  std::atomic<std::uint64_t> p2p_messages{0};
  std::atomic<std::uint64_t> p2p_bytes{0};
  std::atomic<std::uint64_t> allreduce_calls{0};
  std::atomic<std::uint64_t> allreduce_bytes{0};
  std::atomic<std::uint64_t> allgather_calls{0};
  std::atomic<std::uint64_t> allgather_bytes{0};
  std::atomic<std::uint64_t> alltoall_calls{0};
  std::atomic<std::uint64_t> alltoall_bytes{0};
  std::atomic<std::uint64_t> barrier_calls{0};

  void reset() {
    p2p_messages = 0;
    p2p_bytes = 0;
    allreduce_calls = 0;
    allreduce_bytes = 0;
    allgather_calls = 0;
    allgather_bytes = 0;
    alltoall_calls = 0;
    alltoall_bytes = 0;
    barrier_calls = 0;
  }
};

/// Copyable snapshot of the counters, returned from par::run.
struct CommStats {
  std::uint64_t p2p_messages = 0;
  std::uint64_t p2p_bytes = 0;
  std::uint64_t allreduce_calls = 0;
  std::uint64_t allreduce_bytes = 0;
  std::uint64_t allgather_calls = 0;
  std::uint64_t allgather_bytes = 0;
  std::uint64_t alltoall_calls = 0;
  std::uint64_t alltoall_bytes = 0;
  std::uint64_t barrier_calls = 0;
};

inline CommStats snapshot(const AtomicCommStats& s) {
  return CommStats{s.p2p_messages.load(),    s.p2p_bytes.load(),
                   s.allreduce_calls.load(), s.allreduce_bytes.load(),
                   s.allgather_calls.load(), s.allgather_bytes.load(),
                   s.alltoall_calls.load(),  s.alltoall_bytes.load(),
                   s.barrier_calls.load()};
}

namespace detail {

struct Envelope {
  int src = -1;
  int tag = 0;
  // Post time of the send (obs trace clock). Lets the receiver classify
  // its blocked time exactly — waited-before-post is late-sender time,
  // waited-after-post is transfer — without a cross-rank exchange. 0 when
  // wait-state accounting is off.
  std::uint64_t sent_ns = 0;
  std::vector<std::byte> data;
};

struct Mailbox {
  std::mutex mtx;
  std::condition_variable cv;
  std::deque<Envelope> queue;
};

}  // namespace detail

/// Shared state owned by the Runtime; one instance per "world".
class World {
 public:
  explicit World(int size);

  int size() const { return size_; }
  AtomicCommStats& stats() { return stats_; }

  /// Bytes of undelivered envelopes queued in `rank`'s mailbox (payload
  /// plus envelope headers) — what the "par.mailbox" memory scope
  /// reports. Takes the mailbox lock; cold path.
  std::uint64_t mailbox_pending_bytes(int rank);

 private:
  friend class Comm;

  int size_;
  std::vector<detail::Mailbox> mailboxes_;
  std::barrier<> barrier_;
  // Per-rank alltoallv round counter. alltoallv is collective, so every
  // rank's own counter agrees at matching calls; folding it into the
  // message tag keeps successive rounds from interleaving without a
  // trailing barrier (each rank only touches its own slot).
  std::vector<std::uint64_t> a2a_epoch_;
  // Staging area for shared-memory collectives. Each rank deposits a
  // pointer to its contribution; two barrier phases separate publish
  // and read so slots can be reused immediately afterwards.
  std::vector<const void*> stage_;
  std::vector<std::size_t> stage_sizes_;
  AtomicCommStats stats_;
};

/// Per-rank handle; the only way ranks interact. Mirrors the slice of MPI
/// the paper's algorithms rely on.
class Comm {
 public:
  Comm(World& world, int rank) : world_(&world), rank_(rank) {}

  int rank() const { return rank_; }
  int size() const { return world_->size_; }

  // ---- point-to-point -------------------------------------------------
  void send_bytes(int dest, int tag, std::span<const std::byte> data);
  std::vector<std::byte> recv_bytes(int src, int tag);

  template <typename T>
  void send(int dest, int tag, std::span<const T> data) {
    static_assert(std::is_trivially_copyable_v<T>);
    send_bytes(dest, tag, std::as_bytes(data));
  }
  template <typename T>
  void send(int dest, int tag, const std::vector<T>& data) {
    send(dest, tag, std::span<const T>(data));
  }
  template <typename T>
  std::vector<T> recv(int src, int tag) {
    static_assert(std::is_trivially_copyable_v<T>);
    std::vector<std::byte> raw = recv_bytes(src, tag);
    if (raw.size() % sizeof(T) != 0)
      throw std::runtime_error("par::Comm::recv: size mismatch");
    std::vector<T> out(raw.size() / sizeof(T));
    // An empty message has null data pointers, which memcpy must not see.
    if (!raw.empty()) std::memcpy(out.data(), raw.data(), raw.size());
    return out;
  }

  // ---- collectives ----------------------------------------------------
  void barrier();

  /// Gather one element from every rank, in rank order, on every rank.
  template <typename T>
  std::vector<T> allgather(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    OBS_COMM_SPAN("par.allgather");
    world_->stats_.allgather_calls++;
    world_->stats_.allgather_bytes += sizeof(T);
    publish(&value, sizeof(T));
    std::vector<T> out(size());
    for (int r = 0; r < size(); ++r)
      std::memcpy(&out[r], world_->stage_[r], sizeof(T));
    release();
    return out;
  }

  /// Gather variable-length contributions, concatenated in rank order.
  template <typename T>
  std::vector<T> allgatherv(std::span<const T> local) {
    static_assert(std::is_trivially_copyable_v<T>);
    OBS_COMM_SPAN("par.allgatherv");
    world_->stats_.allgather_calls++;
    world_->stats_.allgather_bytes += local.size() * sizeof(T);
    publish(local.data(), local.size() * sizeof(T));
    std::vector<T> out;
    for (int r = 0; r < size(); ++r) {
      std::size_t n = world_->stage_sizes_[r] / sizeof(T);
      std::size_t off = out.size();
      out.resize(off + n);
      if (n > 0) std::memcpy(out.data() + off, world_->stage_[r], n * sizeof(T));
    }
    release();
    return out;
  }
  template <typename T>
  std::vector<T> allgatherv(const std::vector<T>& local) {
    return allgatherv(std::span<const T>(local));
  }

  /// Gather variable-length contributions onto `root` only (point-to-
  /// point, concatenated in rank order); other ranks return empty. Unlike
  /// allgatherv this keeps every rank except the root at O(local) memory.
  template <typename T>
  std::vector<T> gatherv(std::span<const T> local, int root) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (rank_ != root) {
      send(root, kGatherTag, local);
      return {};
    }
    std::vector<T> out;
    for (int r = 0; r < size(); ++r) {
      if (r == rank_) {
        out.insert(out.end(), local.begin(), local.end());
      } else {
        const std::vector<T> part = recv<T>(r, kGatherTag);
        out.insert(out.end(), part.begin(), part.end());
      }
    }
    return out;
  }
  template <typename T>
  std::vector<T> gatherv(const std::vector<T>& local, int root) {
    return gatherv(std::span<const T>(local), root);
  }

  /// Reduce a single value with a binary op; result on every rank.
  template <typename T, typename Op>
  T allreduce(const T& value, Op op) {
    static_assert(std::is_trivially_copyable_v<T>);
    OBS_COMM_SPAN("par.allreduce");
    world_->stats_.allreduce_calls++;
    world_->stats_.allreduce_bytes += sizeof(T);
    publish(&value, sizeof(T));
    T acc;
    std::memcpy(&acc, world_->stage_[0], sizeof(T));
    for (int r = 1; r < size(); ++r) {
      T v;
      std::memcpy(&v, world_->stage_[r], sizeof(T));
      acc = op(acc, v);
    }
    release();
    return acc;
  }

  template <typename T>
  T allreduce_sum(const T& v) {
    return allreduce(v, [](T a, T b) { return a + b; });
  }

  /// Element-wise sum-reduce a vector in ONE collective round: out[i] =
  /// sum over ranks of in[i]. This is what lets the Krylov solvers fuse
  /// their independent dot products into a single synchronization per
  /// reduction point instead of one allreduce per scalar. `out` must not
  /// overlap `in` and both sides must pass the same length.
  void allreduce_sum(std::span<const double> in, std::span<double> out);
  template <typename T>
  T allreduce_max(const T& v) {
    return allreduce(v, [](T a, T b) { return a > b ? a : b; });
  }
  template <typename T>
  T allreduce_min(const T& v) {
    return allreduce(v, [](T a, T b) { return a < b ? a : b; });
  }
  bool allreduce_or(bool v) {
    int r = allreduce_sum<int>(v ? 1 : 0);
    return r != 0;
  }

  /// Exclusive prefix sum: rank r receives sum of values of ranks < r.
  template <typename T>
  T exscan_sum(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    OBS_COMM_SPAN("par.exscan");
    world_->stats_.allreduce_calls++;
    world_->stats_.allreduce_bytes += sizeof(T);
    publish(&value, sizeof(T));
    T acc{};
    for (int r = 0; r < rank_; ++r) {
      T v;
      std::memcpy(&v, world_->stage_[r], sizeof(T));
      acc = acc + v;
    }
    release();
    return acc;
  }

  /// Personalized all-to-all: sendbufs[d] goes to rank d; returns one
  /// buffer per source rank.
  template <typename T>
  std::vector<std::vector<T>> alltoallv(const std::vector<std::vector<T>>& sendbufs) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (static_cast<int>(sendbufs.size()) != size())
      throw std::runtime_error("par::Comm::alltoallv: need one buffer per rank");
    OBS_COMM_SPAN("par.alltoallv");
    world_->stats_.alltoall_calls++;
    // Tag this round with the per-communicator epoch: senders and
    // receivers agree on it because alltoallv is collective, and a
    // message from round k can never match a recv of round k+1, so no
    // barrier is needed between successive rounds.
    const std::uint64_t epoch =
        world_->a2a_epoch_[static_cast<std::size_t>(rank_)]++;
    const int tag =
        kAlltoallTag | static_cast<int>((epoch & 0x7fffu) << 16);
    for (int d = 0; d < size(); ++d)
      if (d != rank_) {
        world_->stats_.alltoall_bytes +=
            sendbufs[static_cast<std::size_t>(d)].size() * sizeof(T);
        send(d, tag, sendbufs[d]);
      }
    std::vector<std::vector<T>> out(size());
    out[rank_] = sendbufs[rank_];
    for (int s = 0; s < size(); ++s)
      if (s != rank_) out[s] = recv<T>(s, tag);
    return out;
  }

  AtomicCommStats& stats() { return world_->stats_; }

  /// Bytes queued for (but not yet received by) this rank.
  std::uint64_t pending_recv_bytes() {
    return world_->mailbox_pending_bytes(rank_);
  }

 private:
  static constexpr int kAlltoallTag = 0x7f00;
  static constexpr int kGatherTag = 0x7f01;

  void publish(const void* p, std::size_t bytes);
  void release();

  World* world_;
  int rank_;
};

}  // namespace alps::par
