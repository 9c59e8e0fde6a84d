// Records of signaled posts, keyed by the wr_id their completion carries.
//
// A post that wants its completion handled files a record here and passes
// the returned id to the NIC as its wr_id; the completion handler takes the
// record back with live(), and a post the NIC rejected releases its id at
// once. Id 0 is never issued: it is the wr_id of every unsignaled post, so
// an unsignaled op's error completion can never be mistaken for a record.
// Freed ids are reused last-in first-out. Single-threaded (one per rank).
#pragma once

#include <cstdint>
#include <vector>

namespace photon::util {

template <typename Rec>
class OpTable {
 public:
  /// File `rec` and return its id (never 0).
  std::uint64_t alloc(const Rec& rec) {
    if (free_.empty()) {
      slots_.push_back({rec, true});
      return slots_.size();
    }
    const std::uint64_t id = free_.back();
    free_.pop_back();
    Slot& s = slots_[id - 1];
    s.rec = rec;
    s.live = true;
    return id;
  }

  /// Free a live id.
  void release(std::uint64_t id) {
    slots_[id - 1].live = false;
    free_.push_back(id);
  }

  /// The live record filed under `id`, or null (id 0, unknown or freed).
  Rec* live(std::uint64_t id) {
    // id 0 wraps to the largest index and fails the bound.
    if (id - 1 >= slots_.size() || !slots_[id - 1].live) return nullptr;
    return &slots_[id - 1].rec;
  }

 private:
  struct Slot {
    Rec rec;
    bool live;
  };
  std::vector<Slot> slots_;
  std::vector<std::uint64_t> free_;
};

}  // namespace photon::util
