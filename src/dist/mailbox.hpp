// The receive side of the Transport delivery contract, shared by both
// backends: a node's queued messages, popped by tag in (sender id,
// per-sender sequence) order — never physical arrival order. Messages
// are kept in push order, so among one sender's messages the earliest
// pushed has the lowest sequence; pop therefore returns the first queued
// match from the lowest sender id. Not thread-safe: each backend calls
// it under its own lock, which is also what makes push order equal the
// order its senders were sequenced in.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "dist/transport.hpp"

namespace mdgan::dist {

class Mailbox {
 public:
  void push(Message msg) {
    bytes_ += msg.payload.size();
    items_.push_back(std::move(msg));
  }

  // Removes and returns the queued `tag` message with the lowest
  // (sender, sequence) key; nullopt when none is queued.
  std::optional<Message> pop(const std::string& tag) {
    auto best = items_.end();
    for (auto it = items_.begin(); it != items_.end(); ++it) {
      if (it->tag == tag && (best == items_.end() || it->from < best->from)) {
        best = it;
      }
    }
    if (best == items_.end()) return std::nullopt;
    Message out = std::move(*best);
    items_.erase(best);
    bytes_ -= out.payload.size();
    return out;
  }

  std::size_t size() const { return items_.size(); }
  // Payload bytes currently queued.
  std::size_t bytes() const { return bytes_; }
  void clear() {
    items_.clear();
    bytes_ = 0;
  }

 private:
  std::vector<Message> items_;
  std::size_t bytes_ = 0;
};

}  // namespace mdgan::dist
