#ifndef ICEWAFL_STREAM_CHANNEL_H_
#define ICEWAFL_STREAM_CHANNEL_H_

#include <cstdint>
#include <deque>
#include <utility>

#include "stream/tuple.h"
#include "util/sync.h"

namespace icewafl {

/// \brief Counters describing one channel's traffic.
///
/// `blocked_pushes` / `blocked_pops` count the calls that had to wait on
/// the condition variable — the direct measure of backpressure (full
/// channel) and starvation (empty channel) between pipeline stages.
struct ChannelStats {
  uint64_t pushes = 0;
  uint64_t pops = 0;
  uint64_t blocked_pushes = 0;
  uint64_t blocked_pops = 0;
  /// Rejected TryPush calls, by reason. These are what reconcile the
  /// server's slow-consumer metrics (drops, disconnects) against the
  /// channel layer: every dropped item starts as a kFull TryPush.
  uint64_t try_push_full = 0;
  uint64_t try_push_closed = 0;
  /// Largest weight queued at once (peak buffering; items when every
  /// push has the default weight 1).
  uint64_t peak_queued = 0;

  /// \brief Accumulates `other` (peak takes the max; everything else sums).
  void Add(const ChannelStats& other) {
    pushes += other.pushes;
    pops += other.pops;
    blocked_pushes += other.blocked_pushes;
    blocked_pops += other.blocked_pops;
    try_push_full += other.try_push_full;
    try_push_closed += other.try_push_closed;
    if (other.peak_queued > peak_queued) peak_queued = other.peak_queued;
  }
};

/// \brief Bounded blocking MPSC/MPMC queue connecting pipeline stages.
///
/// The backbone of the pipelined runtime: producers `Push` until the
/// channel holds `capacity` items, then block — backpressure propagates
/// upstream to the source, which is what bounds the memory footprint of
/// an unbounded stream. Consumers `Pop` until the channel is both closed
/// and drained.
///
/// Items may carry a weight (default 1): the capacity bounds the summed
/// weight of the queued items, so one item standing for k units (the
/// server's chunk of k tuple frames) occupies k units of capacity. An
/// item heavier than the capacity is only admitted into an empty
/// channel, so it can never wait forever.
///
/// End-of-stream and abort are modelled explicitly:
///  - `Close()`   — graceful: no further pushes succeed, queued items
///                  remain poppable (normal end of a bounded stream);
///  - `Poison()`  — abort: closes *and* discards queued items so blocked
///                  producers and consumers wake immediately (error
///                  propagation across stages).
///
/// All operations are safe to call concurrently from any thread. The
/// channel lock ranks as `kLockRankChannel` in the global hierarchy
/// (util/sync.h): server code may enqueue while holding registry /
/// session / connection locks, but channel callbacks never re-enter the
/// server.
template <typename T>
class BoundedChannel {
 public:
  /// \param capacity maximum queued weight (>= 1).
  explicit BoundedChannel(size_t capacity)
      : capacity_(capacity < 1 ? 1 : capacity) {}

  BoundedChannel(const BoundedChannel&) = delete;
  BoundedChannel& operator=(const BoundedChannel&) = delete;

  /// \brief Enqueues `item` of `weight` units, blocking while it does
  /// not fit. When `was_empty` is given it is set, under the channel
  /// lock, to whether the channel was empty before this push — a
  /// consumer polled elsewhere needs a wake-up exactly then.
  /// \return false iff the channel was closed (the item is dropped).
  bool Push(T item, size_t weight = 1, bool* was_empty = nullptr)
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    bool waited = false;
    if (!FitsLocked(weight) && !closed_) {
      waited = true;
      if (weight > 1) ++heavy_waiters_;
      while (!FitsLocked(weight) && !closed_) not_full_.Wait(mu_);
      if (weight > 1) --heavy_waiters_;
    }
    if (closed_) return false;
    if (was_empty != nullptr) *was_empty = queue_.empty();
    EnqueueLocked(std::move(item), weight);
    // A wait only counts as backpressure when the push actually lands;
    // waits cut short by Close()/Poison() are aborts, not backpressure.
    if (waited) ++stats_.blocked_pushes;
    lock.Unlock();
    not_empty_.NotifyOne();
    return true;
  }

  /// \brief Outcome of a non-blocking TryPush.
  enum class PushResult { kOk, kFull, kClosed };

  /// \brief Non-blocking enqueue; never waits. Used by the serving
  /// fan-out to implement the drop_oldest / disconnect slow-consumer
  /// policies, where a full queue is a decision point, not a wait.
  /// `weight` and `was_empty` as in Push.
  PushResult TryPush(T item, size_t weight = 1, bool* was_empty = nullptr)
      EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (closed_) {
      ++stats_.try_push_closed;
      return PushResult::kClosed;
    }
    if (!FitsLocked(weight)) {
      ++stats_.try_push_full;
      return PushResult::kFull;
    }
    if (was_empty != nullptr) *was_empty = queue_.empty();
    EnqueueLocked(std::move(item), weight);
    lock.Unlock();
    not_empty_.NotifyOne();
    return PushResult::kOk;
  }

  /// \brief Non-blocking dequeue; never waits. `weight`, when given,
  /// receives the popped item's weight.
  /// \return false when the channel is currently empty (whether open or
  /// closed — combine with closed() to distinguish end of stream, which
  /// is race-free for a channel's single consumer).
  bool TryPop(T* out, size_t* weight = nullptr) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (queue_.empty()) return false;
    const bool broadcast = DequeueLocked(out, weight);
    lock.Unlock();
    NotifyNotFull(broadcast);
    return true;
  }

  /// \brief Dequeues into `*out`, blocking while the channel is empty and
  /// still open.
  /// \return false iff the channel is closed and drained (end of stream).
  bool Pop(T* out) EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    if (queue_.empty() && !closed_) {
      ++stats_.blocked_pops;
      while (queue_.empty() && !closed_) not_empty_.Wait(mu_);
    }
    if (queue_.empty()) return false;
    const bool broadcast = DequeueLocked(out, nullptr);
    lock.Unlock();
    NotifyNotFull(broadcast);
    return true;
  }

  /// \brief Closes the channel for writing; queued items stay poppable.
  void Close() EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  /// \brief Closes the channel and discards queued items (abort path).
  void Poison() EXCLUDES(mu_) {
    {
      MutexLock lock(&mu_);
      closed_ = true;
      queue_.clear();
      weight_ = 0;
    }
    not_full_.NotifyAll();
    not_empty_.NotifyAll();
  }

  bool closed() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return closed_;
  }

  /// \brief Queued items (not weight).
  size_t size() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return queue_.size();
  }

  /// \brief Summed weight of the queued items.
  size_t weight() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return weight_;
  }

  size_t capacity() const { return capacity_; }

  ChannelStats stats() const EXCLUDES(mu_) {
    MutexLock lock(&mu_);
    return stats_;
  }

 private:
  struct Slot {
    T item;
    size_t weight;
  };

  bool FitsLocked(size_t weight) const REQUIRES(mu_) {
    return queue_.empty() || weight_ + weight <= capacity_;
  }

  void EnqueueLocked(T item, size_t weight) REQUIRES(mu_) {
    queue_.push_back(Slot{std::move(item), weight});
    weight_ += weight;
    ++stats_.pushes;
    if (weight_ > stats_.peak_queued) stats_.peak_queued = weight_;
  }

  /// Pops the front item; returns whether producers need a broadcast
  /// wake-up (see NotifyNotFull).
  bool DequeueLocked(T* out, size_t* weight) REQUIRES(mu_) {
    Slot& front = queue_.front();
    *out = std::move(front.item);
    if (weight != nullptr) *weight = front.weight;
    weight_ -= front.weight;
    queue_.pop_front();
    ++stats_.pops;
    return heavy_waiters_ > 0;
  }

  /// Wakes producers after a pop (lock released). A woken producer whose
  /// heavy item still does not fit waits again and would swallow a
  /// single notification meant for a lighter one, so heavy waiters get
  /// a broadcast; unit-weight traffic keeps the single wake-up.
  void NotifyNotFull(bool broadcast) {
    if (broadcast) {
      not_full_.NotifyAll();
    } else {
      not_full_.NotifyOne();
    }
  }

  const size_t capacity_;
  mutable Mutex mu_{kLockRankChannel};
  CondVar not_full_;
  CondVar not_empty_;
  std::deque<Slot> queue_ GUARDED_BY(mu_);
  size_t weight_ GUARDED_BY(mu_) = 0;
  /// Producers blocked in Push with a weight above 1.
  size_t heavy_waiters_ GUARDED_BY(mu_) = 0;
  bool closed_ GUARDED_BY(mu_) = false;
  ChannelStats stats_ GUARDED_BY(mu_);
};

/// \brief Channel of tuple batches — the unit of transfer between
/// pipeline stages (batching amortizes locking and virtual dispatch).
using BatchChannel = BoundedChannel<TupleVector>;

}  // namespace icewafl

#endif  // ICEWAFL_STREAM_CHANNEL_H_
