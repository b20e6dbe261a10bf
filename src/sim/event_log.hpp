// Structured simulation event log.
//
// When enabled, the simulator records the decisions and state changes a
// data center operator would audit: reconfiguration start/completion,
// machine transitions, QoS violations. The log is bounded (a ring of the
// most recent events plus monotone counters) so multi-month simulations
// stay in constant memory, and exports to CSV for offline analysis.
//
// Storage is a fixed-capacity circular buffer: one std::vector that fills
// to capacity and then overwrites in place — after the warm-up there are
// zero allocations per event beyond the detail string itself (a deque ring
// would allocate and free a block every few dozen drops on multi-month
// runs). events() exposes the retained window oldest-first through a
// lightweight View (self-contained iterators, no copying).
#pragma once

#include <cstddef>
#include <iterator>
#include <string>
#include <vector>

#include "arch/catalog.hpp"
#include "core/combination.hpp"
#include "util/units.hpp"

namespace bml {

enum class EventKind {
  kReconfigurationStart,
  kReconfigurationComplete,
  kBootComplete,
  kShutdownComplete,
  kQosViolation,
  kMachineFailure,
  kMachineRepair,
  kGroupStrike,
  kSpareProvision,
  kSpareRelease,
  kPreemption,
  kOverloadEnter,
  kOverloadExit,
  kAppArrival,
  kAppDeparture,
};

[[nodiscard]] const char* to_string(EventKind kind);

/// One logged event. `detail` is event-specific:
///   reconfiguration start    — target combination rendering
///   reconfiguration complete — seconds it took
///   boot complete            — "<n> transitions": the boots and shutdowns
///                              that completed that second (shutdown
///                              complete is never recorded; the batch
///                              counts them)
///   QoS violation            — shortfall in req/s
///   machine failure / repair — architecture name
///   group strike             — machines felled by the rack-level strike
///   spare provision/release  — the SLO app's name
///   preemption               — machines taken and the victim app's name
///   overload enter/exit      — spill-over above rated capacity in req/s
///   app arrival/departure    — the tenant's name
struct SimEvent {
  TimePoint time = 0;
  EventKind kind = EventKind::kReconfigurationStart;
  std::string detail;
};

/// Bounded event recorder.
class EventLog {
 public:
  /// Oldest-first window over the retained events. A non-owning view into
  /// the log's ring: valid until the next record() on (or destruction of)
  /// the log it came from. Iterators are self-contained, so a View
  /// temporary can hand out begin()/end() safely (range-for over
  /// log.events() works).
  class View {
   public:
    class iterator {
     public:
      using iterator_category = std::forward_iterator_tag;
      using value_type = SimEvent;
      using difference_type = std::ptrdiff_t;
      using pointer = const SimEvent*;
      using reference = const SimEvent&;

      iterator() = default;
      iterator(const SimEvent* ring, std::size_t ring_size, std::size_t head,
               std::size_t index)
          : ring_(ring), ring_size_(ring_size), head_(head), index_(index) {}

      reference operator*() const {
        return ring_[(head_ + index_) % ring_size_];
      }
      pointer operator->() const { return &**this; }
      iterator& operator++() {
        ++index_;
        return *this;
      }
      iterator operator++(int) {
        iterator copy = *this;
        ++index_;
        return copy;
      }
      friend bool operator==(const iterator& a, const iterator& b) {
        return a.index_ == b.index_;
      }
      friend bool operator!=(const iterator& a, const iterator& b) {
        return !(a == b);
      }

     private:
      const SimEvent* ring_ = nullptr;
      std::size_t ring_size_ = 1;
      std::size_t head_ = 0;
      std::size_t index_ = 0;
    };

    View(const SimEvent* ring, std::size_t ring_size, std::size_t head,
         std::size_t count)
        : ring_(ring), ring_size_(ring_size), head_(head), count_(count) {}

    [[nodiscard]] std::size_t size() const { return count_; }
    [[nodiscard]] bool empty() const { return count_ == 0; }
    [[nodiscard]] const SimEvent& operator[](std::size_t i) const {
      return ring_[(head_ + i) % ring_size_];
    }
    [[nodiscard]] const SimEvent& front() const { return (*this)[0]; }
    [[nodiscard]] const SimEvent& back() const { return (*this)[count_ - 1]; }
    [[nodiscard]] iterator begin() const {
      return iterator(ring_, ring_size_, head_, 0);
    }
    [[nodiscard]] iterator end() const {
      return iterator(ring_, ring_size_, head_, count_);
    }

   private:
    const SimEvent* ring_;
    std::size_t ring_size_;
    std::size_t head_;
    std::size_t count_;
  };

  /// Keeps at most `capacity` most recent events (older ones are dropped,
  /// counters keep counting).
  explicit EventLog(std::size_t capacity = 4096);

  void record(TimePoint time, EventKind kind, std::string detail);

  /// Most recent events, oldest first.
  [[nodiscard]] View events() const {
    return View(ring_.data(), ring_.empty() ? 1 : ring_.size(), head_,
                ring_.size());
  }

  /// Total events ever recorded per kind (independent of the ring size).
  [[nodiscard]] std::size_t count(EventKind kind) const;
  [[nodiscard]] std::size_t total() const { return total_; }

  /// "time,kind,detail" CSV of the retained events.
  [[nodiscard]] std::string to_csv() const;

 private:
  std::size_t capacity_;
  /// Fills to capacity_ via push_back, then overwrites in place; head_ is
  /// the oldest retained event once the ring has wrapped (0 before).
  std::vector<SimEvent> ring_;
  std::size_t head_ = 0;
  std::vector<std::size_t> counts_;
  std::size_t total_ = 0;
};

}  // namespace bml
