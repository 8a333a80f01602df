#include "obs/digest.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "bench_core/json.hpp"
#include "obs/recorder.hpp"

namespace byz::obs {
namespace {

TEST(DigestMix, Mix64IsDeterministicAndAvalanches) {
  EXPECT_EQ(mix64(42), mix64(42));
  EXPECT_NE(mix64(42), mix64(43));
  // A one-bit input flip must move many output bits (sanity, not a proof).
  const std::uint64_t diff = mix64(42) ^ mix64(42 ^ 1ull);
  int bits = 0;
  for (std::uint64_t d = diff; d != 0; d &= d - 1) ++bits;
  EXPECT_GE(bits, 16);
}

TEST(DigestMix, TaggedTermsNeverCollideAcrossRoles) {
  // The same (node, value) pair must digest differently per role so a
  // sender term can never cancel a receiver term under the XOR fold.
  const std::uint64_t s = digest_sender_term(7, 99);
  const std::uint64_t r = digest_receiver_term(7, 99);
  const std::uint64_t m = digest_member_term(7, 99);
  const std::uint64_t st = digest_state_term(7, 99);
  EXPECT_NE(s, r);
  EXPECT_NE(s, m);
  EXPECT_NE(s, st);
  EXPECT_NE(r, m);
  EXPECT_NE(r, st);
  EXPECT_NE(m, st);
}

TEST(DigestMix, HexFormatsFixedWidth) {
  EXPECT_EQ(hex_u64(0), "0x0000000000000000");
  EXPECT_EQ(hex_u64(0xDEADBEEFull), "0x00000000deadbeef");
  EXPECT_EQ(hex_u64(~std::uint64_t{0}), "0xffffffffffffffff");
}

DigestTrail make_trail(std::uint64_t round_salt) {
  // Two phases; phase p has p subphases of p rounds each — the paper's
  // schedule shape in miniature. `round_salt` perturbs exactly one round
  // digest (global round index 2) when nonzero.
  DigestTrail t;
  std::uint64_t round = 0;
  for (std::uint32_t p = 1; p <= 2; ++p) {
    for (std::uint32_t j = 0; j < p; ++j) {
      for (std::uint32_t s = 0; s < p; ++s) {
        std::uint64_t d = mix2(mix2(p, j), round);
        if (round == 2 && round_salt != 0) d ^= round_salt;
        t.rounds.push_back({p, j, round, d});
        ++round;
      }
      t.subphases.push_back({p, j, mix2(p, j)});
    }
    t.phases.push_back({p, mix64(p)});
  }
  t.run_digest = mix64(0xABC);
  t.closed = true;
  return t;
}

TEST(DigestDivergenceWalk, IdenticalTrailsReportNone) {
  const DigestTrail a = make_trail(0);
  const DigestDivergence div = first_divergence(a, a);
  EXPECT_FALSE(div.diverged());
  EXPECT_EQ(div.level, DigestDivergence::Level::kNone);
}

TEST(DigestDivergenceWalk, LocalizesSingleDivergentRound) {
  DigestTrail a = make_trail(0);
  DigestTrail b = make_trail(0x1234);
  // The round fold feeds the enclosing levels in a real run; emulate that
  // so the walk can drill phase -> subphase -> round.
  b.subphases[1].digest ^= 1;  // global round 2 lives in phase 2 subphase 0
  b.phases[1].digest ^= 1;
  b.run_digest ^= 1;
  const DigestDivergence div = first_divergence(a, b);
  ASSERT_TRUE(div.diverged());
  EXPECT_EQ(div.level, DigestDivergence::Level::kRound);
  EXPECT_EQ(div.phase, 2u);
  EXPECT_EQ(div.subphase, 0u);
  EXPECT_EQ(div.round, 2u);
}

TEST(DigestDivergenceWalk, TruncatedTrailDivergesAtFirstMissingPhase) {
  const DigestTrail a = make_trail(0);
  DigestTrail b = a;
  b.phases.pop_back();
  const DigestDivergence div = first_divergence(a, b);
  ASSERT_TRUE(div.diverged());
  EXPECT_EQ(div.level, DigestDivergence::Level::kPhase);
  EXPECT_EQ(div.phase, 2u);
}

TEST(DigestDivergenceWalk, RunOnlyDifferenceReportsRunLevel) {
  const DigestTrail a = make_trail(0);
  DigestTrail b = a;
  b.run_digest ^= 0xFF;
  const DigestDivergence div = first_divergence(a, b);
  ASSERT_TRUE(div.diverged());
  EXPECT_EQ(div.level, DigestDivergence::Level::kRun);
}

TEST(FlightRecorderRing, KeepsNewestEventsBounded) {
  FlightRecorder rec(4);
  for (std::uint64_t i = 0; i < 10; ++i) {
    rec.record({FlightEventKind::kNote, 1, 0, i, i, 0});
  }
  EXPECT_EQ(rec.total_recorded(), 10u);
  const auto tail = rec.tail();
  ASSERT_EQ(tail.size(), 4u);
  EXPECT_EQ(tail.front().a, 6u);  // oldest surviving
  EXPECT_EQ(tail.back().a, 9u);   // newest
}

/// Drives a digester through a deterministic synthetic schedule (the same
/// shape as make_trail), with one node-term fold per round.
void drive(RunDigester& dg) {
  for (std::uint32_t p = 1; p <= 2; ++p) {
    dg.begin_phase(p);
    dg.fold_phase(digest_state_term(0, p));
    for (std::uint32_t j = 0; j < p; ++j) {
      dg.begin_subphase(j);
      for (std::uint32_t s = 0; s < p; ++s) {
        dg.fold_round(digest_sender_term(s, p));
        dg.fold_round(digest_receiver_term(s + 1, p));
        dg.close_round(/*tokens=*/p * 3);
      }
      dg.fold_subphase(digest_state_term(j, 1));
      dg.close_subphase();
    }
    dg.close_phase();
  }
  dg.fold_run(digest_state_term(0, 7));
  dg.close_run();
}

TEST(RunDigesterTrail, SameSequenceFoldsIdenticalTrails) {
  RunDigester a;
  RunDigester b;
  drive(a);
  drive(b);
  ASSERT_TRUE(a.trail().closed);
  EXPECT_EQ(a.trail().rounds.size(), 5u);     // 1*1 + 2*2
  EXPECT_EQ(a.trail().subphases.size(), 3u);  // 1 + 2
  EXPECT_EQ(a.trail().phases.size(), 2u);
  EXPECT_FALSE(first_divergence(a.trail(), b.trail()).diverged());
  EXPECT_EQ(a.trail().run_digest, b.trail().run_digest);
}

TEST(RunDigesterTrail, FoldOrderInsideARoundIsCommutative) {
  // The two tiers visit the close set in different orders; the round fold
  // must not care.
  RunDigester a;
  RunDigester b;
  a.begin_phase(1);
  a.begin_subphase(0);
  a.fold_round(digest_sender_term(1, 5));
  a.fold_round(digest_receiver_term(2, 5));
  a.close_round(3);
  b.begin_phase(1);
  b.begin_subphase(0);
  b.fold_round(digest_receiver_term(2, 5));
  b.fold_round(digest_sender_term(1, 5));
  b.close_round(3);
  EXPECT_EQ(a.trail().rounds[0].digest, b.trail().rounds[0].digest);
}

TEST(RunDigesterTrail, AnySingleEventPerturbationChangesEveryLevelAbove) {
  // Property: flipping any one per-round event flips that round's digest,
  // its subphase, its phase, and the run digest — no fold absorbs it.
  RunDigester base;
  drive(base);
  const std::size_t rounds = base.trail().rounds.size();
  for (std::uint64_t r = 0; r < rounds; ++r) {
    RunDigester perturbed;
    perturbed.set_perturbation(r, 0x5EED);
    drive(perturbed);
    const DigestDivergence div =
        first_divergence(base.trail(), perturbed.trail());
    ASSERT_TRUE(div.diverged()) << "round " << r;
    EXPECT_EQ(div.level, DigestDivergence::Level::kRound) << "round " << r;
    EXPECT_EQ(div.round, r);
    EXPECT_EQ(div.phase, base.trail().rounds[r].phase);
    EXPECT_EQ(div.subphase, base.trail().rounds[r].subphase);
    EXPECT_NE(base.trail().run_digest, perturbed.trail().run_digest)
        << "round " << r;
  }
}

TEST(RunDigesterTrail, RecorderStampsRoundCloseWithHierarchicalClock) {
  FlightRecorder rec;
  RunDigester dg;
  dg.attach_recorder(&rec);
  drive(dg);
  const auto tail = rec.tail();
  ASSERT_EQ(tail.size(), 5u);  // one kRoundClose per round
  EXPECT_EQ(tail.front().kind, FlightEventKind::kRoundClose);
  EXPECT_EQ(tail.front().phase, 1u);
  EXPECT_EQ(tail.front().round, 0u);
  EXPECT_EQ(tail.back().phase, 2u);
  EXPECT_EQ(tail.back().round, 4u);
  EXPECT_EQ(tail.back().b, dg.trail().rounds.back().digest);
}

TEST(ForensicsReport, JsonParsesAndNamesTheDivergentRound) {
  FlightRecorder rec_a;
  FlightRecorder rec_b;
  RunDigester a;
  RunDigester b;
  a.attach_recorder(&rec_a);
  b.attach_recorder(&rec_b);
  b.set_perturbation(3, 0xBAD);
  drive(a);
  drive(b);
  ForensicsInfo info;
  info.scenario = "digest_test";
  info.seed = 77;
  info.flags = "--unit-test";
  info.detail = "digest trails diverged (outcomes identical)";
  const std::string doc_text =
      forensics_json(info, a.trail(), b.trail(), &rec_a, &rec_b);
  const auto doc = bench_core::Json::parse(doc_text);
  ASSERT_TRUE(doc.has_value()) << doc_text;
  EXPECT_EQ(doc->find("schema")->as_string(), "byzobs/forensics/v1");
  EXPECT_EQ(doc->find("scenario")->as_string(), "digest_test");
  const bench_core::Json* div = doc->find("first_divergence");
  ASSERT_NE(div, nullptr);
  EXPECT_EQ(div->find("level")->as_string(), "round");
  EXPECT_EQ(div->find("round")->as_number(), 3.0);
  EXPECT_EQ(div->find("phase")->as_number(),
            static_cast<double>(a.trail().rounds[3].phase));
  const bench_core::Json* tiers = doc->find("tiers");
  ASSERT_NE(tiers, nullptr);
  ASSERT_EQ(tiers->elements().size(), 2u);
  for (const auto& tier : tiers->elements()) {
    EXPECT_NE(tier.find("flight_tail"), nullptr);
    EXPECT_FALSE(tier.find("run_digest")->as_string().empty());
  }
}

}  // namespace
}  // namespace byz::obs
