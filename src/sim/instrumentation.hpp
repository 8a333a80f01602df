// Message/round/byte accounting shared by the message-level engine and the
// fast path. The two tiers count the same logical events so that the
// equivalence tests can compare them directly.
//
// Byte model ("small-sized messages", §2.1): a token message carries one
// color (4B) + header (8B source/dest ids); an adjacency claim carries its
// list of 4B ids; a verification query/response carries 2 ids + color.
#pragma once

#include <cstdint>

namespace byz::sim {

struct Instrumentation {
  std::uint64_t setup_messages = 0;
  std::uint64_t setup_bytes = 0;
  std::uint64_t token_messages = 0;
  std::uint64_t token_bytes = 0;
  std::uint64_t verify_messages = 0;  ///< query + response each count 1
  std::uint64_t verify_bytes = 0;
  std::uint64_t flood_rounds = 0;
  std::uint64_t injections_attempted = 0;
  std::uint64_t injections_accepted = 0;
  std::uint64_t injections_caught = 0;
  std::uint64_t max_node_round_sends = 0;  ///< peak per-node per-round fan-out
  std::uint64_t crashes = 0;

  /// Counter-for-counter equality — the equivalence suites' definition of
  /// "identical message accounting".
  bool operator==(const Instrumentation&) const = default;

  void merge(const Instrumentation& other) noexcept;

  [[nodiscard]] std::uint64_t total_messages() const noexcept {
    return setup_messages + token_messages + verify_messages;
  }
  [[nodiscard]] std::uint64_t total_bytes() const noexcept {
    return setup_bytes + token_bytes + verify_bytes;
  }

  // Byte-cost constants of the model.
  static constexpr std::uint64_t kTokenBytes = 12;
  static constexpr std::uint64_t kIdBytes = 4;
  static constexpr std::uint64_t kVerifyBytes = 16;

  void count_token(std::uint64_t count = 1) noexcept {
    token_messages += count;
    token_bytes += count * kTokenBytes;
  }
  void count_setup_list(std::uint64_t list_len,
                        std::uint64_t count = 1) noexcept {
    setup_messages += count;
    setup_bytes += count * (8 + list_len * kIdBytes);
  }
  void count_verification(std::uint64_t round_trips) noexcept {
    verify_messages += 2 * round_trips;
    verify_bytes += 2 * round_trips * kVerifyBytes;
  }
};

}  // namespace byz::sim
