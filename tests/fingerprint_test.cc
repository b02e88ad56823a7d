// Accusation-soundness tests for the Tardos fingerprinting layer: code
// determinism, honest single-copy tracing against plain CodedWatermark
// detection, zero innocent accusations across a seed grid of honest and
// colluded runs, graceful degradation past the design coalition size,
// thread-count invariance of TraceMany (wired into the TSan CI job), and
// bit-for-bit agreement of codewords and the lockstep trace scan with the
// scalar reference in trace_oracle.h.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "qpwm/coding/coded_watermark.h"
#include "qpwm/coding/codec.h"
#include "qpwm/coding/fingerprint.h"
#include "qpwm/core/adversarial.h"
#include "qpwm/core/attack.h"
#include "qpwm/core/local_scheme.h"
#include "qpwm/logic/query.h"
#include "qpwm/structure/generators.h"
#include "qpwm/util/parallel.h"
#include "qpwm/util/random.h"
#include "trace_oracle.h"

namespace qpwm {
namespace {

struct Fixture {
  Structure g;
  std::unique_ptr<AtomQuery> query;
  std::unique_ptr<QueryIndex> index;
  WeightMap weights;
  std::unique_ptr<LocalScheme> scheme;

  explicit Fixture(size_t n, uint64_t seed) : weights(1, 0) {
    Rng rng(seed);
    g = RandomBoundedDegreeGraph(n, 3, 3 * n, false, rng);
    query = AtomQuery::Adjacency("E");
    index = std::make_unique<QueryIndex>(g, *query, AllParams(g, 1));
    weights = RandomWeights(g, 1000, 9999, rng);
    LocalSchemeOptions opts;
    opts.epsilon = 0.25;
    opts.key = {seed, seed + 1};
    opts.encoding = PairEncoding::kAntipodal;
    scheme = std::make_unique<LocalScheme>(
        LocalScheme::Plan(*index, opts).ValueOrDie());
  }
};

bool AllFromCoalition(const std::vector<Accusation>& accused,
                      const std::vector<uint64_t>& coalition) {
  for (const Accusation& a : accused) {
    bool member = false;
    for (uint64_t m : coalition) member |= (m == a.recipient);
    if (!member) return false;
  }
  return true;
}

TEST(FingerprintTest, TardosCodeDeterministicFromSeed) {
  TardosOptions opts;
  opts.design_c = 3;
  opts.seed = 42;
  TardosCode code(500, opts);
  TardosCode again(500, opts);
  ASSERT_EQ(code.length(), 500u);
  EXPECT_GT(code.cutoff(), 0.0);
  EXPECT_LT(code.cutoff(), 0.5);
  for (size_t i = 0; i < code.length(); ++i) {
    EXPECT_GE(code.bias(i), code.cutoff()) << i;
    EXPECT_LE(code.bias(i), 1.0 - code.cutoff()) << i;
    EXPECT_EQ(code.bias(i), again.bias(i)) << i;
  }
  EXPECT_EQ(code.CodewordOf(7), again.CodewordOf(7));

  // The streaming generator and the materialized codeword agree bit for bit.
  TardosCode::Stream stream = code.StreamOf(7);
  BitVec word = code.CodewordOf(7);
  for (size_t i = 0; i < code.length(); ++i) {
    EXPECT_EQ(stream.NextBit(), word.Get(i)) << i;
  }

  // Distinct recipients and distinct seeds give distinct codewords.
  EXPECT_NE(code.CodewordOf(7), code.CodewordOf(8));
  TardosOptions reseeded = opts;
  reseeded.seed = 43;
  EXPECT_NE(TardosCode(500, reseeded).CodewordOf(7), code.CodewordOf(7));
}

TEST(FingerprintTest, HonestSingleCopyMatchesPlainDetect) {
  Fixture s(6000, 3);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);
  ASSERT_GT(wm.PayloadBits(), 400u);

  TardosOptions topts;
  topts.design_c = 2;
  topts.seed = 31;
  FingerprintedWatermark fp(wm, topts);
  const uint64_t leaker = 37;
  const uint64_t candidates = 500;

  WeightMap marked = fp.EmbedFor(s.weights, leaker);
  HonestServer server(*s.index, marked);

  // The observation *is* one plain coded detection — same payload, same
  // verdict, nothing resampled.
  FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
  CodedDetection plain = wm.Detect(s.weights, server).ValueOrDie();
  EXPECT_EQ(obs.channel.message.payload, plain.message.payload);
  EXPECT_EQ(obs.channel.verdict.kind, plain.verdict.kind);
  EXPECT_EQ(obs.channel.verdict.fp_bound, plain.verdict.fp_bound);
  EXPECT_EQ(obs.channel.message.payload, fp.CodewordOf(leaker));
  EXPECT_EQ(plain.verdict.kind, VerdictKind::kMatch);

  TraceResult traced = fp.TraceMany(obs, candidates);
  EXPECT_EQ(traced.kind, TraceVerdictKind::kTraced);
  EXPECT_EQ(traced.ExitCode(), 0);
  ASSERT_EQ(traced.accused.size(), 1u);
  EXPECT_EQ(traced.accused[0].recipient, leaker);
  EXPECT_LE(traced.accused[0].log10_fp, -6.0);
  EXPECT_EQ(traced.accused[0].score, fp.Score(obs, leaker));
  EXPECT_GE(traced.accused[0].score, traced.threshold);
  ASSERT_FALSE(traced.top.empty());
  EXPECT_EQ(traced.top[0].recipient, leaker);
}

TEST(FingerprintTest, SeedGridNeverAccusesInnocents) {
  Fixture s(12000, 5);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);
  ASSERT_GT(wm.PayloadBits(), 1200u);

  WeightMap unrelated = s.weights;
  Rng wrng(99);
  unrelated.ForEach([&](const Tuple& t, Weight) {
    unrelated.Set(t, wrng.Uniform(1000, 9999));
  });

  const uint64_t candidates = 2000;
  const std::vector<uint64_t> coalition = {11, 1203};
  for (uint64_t code_seed : {51u, 52u, 53u}) {
    TardosOptions topts;
    topts.design_c = 2;
    topts.seed = code_seed;
    FingerprintedWatermark fp(wm, topts);

    // Honest runs: the untouched original and an unrelated database must
    // accuse nobody and report NO MARK.
    for (const WeightMap* honest : {&s.weights, &unrelated}) {
      HonestServer server(*s.index, *honest);
      FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
      TraceResult traced = fp.TraceMany(obs, candidates);
      EXPECT_TRUE(traced.accused.empty()) << "seed " << code_seed;
      EXPECT_EQ(traced.kind, TraceVerdictKind::kNoMark) << "seed " << code_seed;
      EXPECT_EQ(traced.ExitCode(), 1) << "seed " << code_seed;
    }

    // Colluded runs: every attack, full design-size coalition. At least one
    // member must be traced and nobody outside the coalition ever is.
    WeightMap copy_a = fp.EmbedFor(s.weights, coalition[0]);
    WeightMap copy_b = fp.EmbedFor(s.weights, coalition[1]);
    const std::vector<const WeightMap*> copies = {&copy_a, &copy_b};
    for (const std::string& spec : KnownCollusionSpecs()) {
      auto attack = MakeCollusionAttack(spec).ValueOrDie();
      Rng arng(code_seed * 1000003 + 7);
      WeightMap forged = attack->Forge(copies, arng).ValueOrDie();
      HonestServer server(*s.index, forged);
      FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
      TraceResult traced = fp.TraceMany(obs, candidates);
      EXPECT_TRUE(AllFromCoalition(traced.accused, coalition))
          << spec << " seed " << code_seed;
      EXPECT_EQ(traced.kind, TraceVerdictKind::kTraced)
          << spec << " seed " << code_seed;
      EXPECT_FALSE(traced.accused.empty()) << spec << " seed " << code_seed;
      for (const Accusation& a : traced.accused) {
        EXPECT_LE(a.log10_fp, -6.0) << spec << " seed " << code_seed;
      }
    }
  }
}

TEST(FingerprintTest, OverDesignCoalitionDegradesGracefully) {
  Fixture s(12000, 7);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);

  TardosOptions topts;
  topts.design_c = 2;
  topts.seed = 71;
  FingerprintedWatermark fp(wm, topts);

  // A coalition far past design_c running the strongest wash-out. The only
  // acceptable outcomes are a correct accusation or abstention — never an
  // innocent.
  const std::vector<uint64_t> coalition = {3, 401, 807, 1204, 1603};
  std::vector<WeightMap> copies;
  std::vector<const WeightMap*> ptrs;
  for (uint64_t member : coalition) {
    copies.push_back(fp.EmbedFor(s.weights, member));
  }
  for (const WeightMap& c : copies) ptrs.push_back(&c);
  Rng arng(73);
  WeightMap forged = MedianCollusion().Forge(ptrs, arng).ValueOrDie();
  HonestServer server(*s.index, forged);
  FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
  TraceResult traced = fp.TraceMany(obs, 2000);
  EXPECT_TRUE(AllFromCoalition(traced.accused, coalition));
  if (traced.accused.empty()) {
    EXPECT_EQ(traced.kind, TraceVerdictKind::kUntraceable);
    EXPECT_EQ(traced.ExitCode(), 3);
  } else {
    EXPECT_EQ(traced.kind, TraceVerdictKind::kTraced);
  }
}

TEST(FingerprintTest, TraceManyThreadIdentical) {
  Fixture s(6000, 11);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);

  TardosOptions topts;
  topts.design_c = 2;
  topts.seed = 111;
  FingerprintedWatermark fp(wm, topts);

  WeightMap copy_a = fp.EmbedFor(s.weights, 5);
  WeightMap copy_b = fp.EmbedFor(s.weights, 900);
  Rng arng(113);
  WeightMap forged =
      InterleavingCollusion(32).Forge({&copy_a, &copy_b}, arng).ValueOrDie();
  HonestServer server(*s.index, forged);

  SetParallelThreads(1);
  FingerprintObservation base_obs = fp.Observe(s.weights, server).ValueOrDie();
  TraceResult base = fp.TraceMany(base_obs, 5000);
  for (size_t threads : {1u, 2u, 8u}) {
    SetParallelThreads(threads);
    FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
    ASSERT_EQ(obs.score_if_one, base_obs.score_if_one) << threads;
    ASSERT_EQ(obs.score_if_zero, base_obs.score_if_zero) << threads;
    EXPECT_EQ(obs.null_variance, base_obs.null_variance) << threads;
    TraceResult traced = fp.TraceMany(obs, 5000);
    EXPECT_EQ(traced.kind, base.kind) << threads;
    EXPECT_EQ(traced.threshold, base.threshold) << threads;
    EXPECT_EQ(traced.pruned, base.pruned) << threads;
    ASSERT_EQ(traced.accused.size(), base.accused.size()) << threads;
    for (size_t i = 0; i < base.accused.size(); ++i) {
      EXPECT_EQ(traced.accused[i].recipient, base.accused[i].recipient);
      EXPECT_EQ(traced.accused[i].score, base.accused[i].score);
      EXPECT_EQ(traced.accused[i].log10_fp, base.accused[i].log10_fp);
    }
    ASSERT_EQ(traced.top.size(), base.top.size()) << threads;
    for (size_t i = 0; i < base.top.size(); ++i) {
      EXPECT_EQ(traced.top[i].recipient, base.top[i].recipient);
      EXPECT_EQ(traced.top[i].score, base.top[i].score);
    }
  }
  SetParallelThreads(0);
}

// Every codeword ever handed out was drawn with the floating-point rule
// NextDouble() < p_i; the integer threshold rule must reproduce it exactly,
// or copies already distributed would stop tracing.
TEST(FingerprintTest, CodewordsMatchOracleStream) {
  for (uint64_t seed : {1u, 0x5EEDu}) {
    for (size_t length : {1u, 63u, 500u, 7576u}) {
      TardosOptions opts;
      opts.seed = seed;
      TardosCode code(length, opts);
      for (size_t i = 0; i < length; ++i) {
        // thr = ceil(p * 2^53) is the first 53-bit draw that gives bit 0.
        const uint64_t thr = code.bias_threshold(i);
        ASSERT_LT(std::ldexp(static_cast<double>(thr - 1), -53), code.bias(i));
        ASSERT_GE(std::ldexp(static_cast<double>(thr), -53), code.bias(i));
      }
      for (uint64_t r = 0; r < 1000; ++r) {
        ASSERT_EQ(code.CodewordOf(r), oracle::CodewordOf(code, r))
            << "seed " << seed << " length " << length << " recipient " << r;
      }
    }
  }
}

void ExpectSameTrace(const TraceResult& got, const TraceResult& want,
                     const std::string& where) {
  EXPECT_EQ(got.kind, want.kind) << where;
  EXPECT_EQ(got.threshold, want.threshold) << where;
  EXPECT_EQ(got.max_achievable, want.max_achievable) << where;
  EXPECT_EQ(got.pruned, want.pruned) << where;
  ASSERT_EQ(got.accused.size(), want.accused.size()) << where;
  for (size_t i = 0; i < want.accused.size(); ++i) {
    EXPECT_EQ(got.accused[i].recipient, want.accused[i].recipient) << where;
    EXPECT_EQ(got.accused[i].score, want.accused[i].score) << where;
    EXPECT_EQ(got.accused[i].log10_fp, want.accused[i].log10_fp) << where;
  }
  ASSERT_EQ(got.top.size(), want.top.size()) << where;
  for (size_t i = 0; i < want.top.size(); ++i) {
    EXPECT_EQ(got.top[i].recipient, want.top[i].recipient) << where;
    EXPECT_EQ(got.top[i].score, want.top[i].score) << where;
    EXPECT_EQ(got.top[i].log10_fp, want.top[i].log10_fp) << where;
  }
}

// The lockstep scan against the one-candidate, prune-every-position oracle:
// pools that leave partial lane groups (1, 3, 5, 17, 4099) or none (4),
// 1 and 3 threads (3 threads splits the pool into 24 blocks whose edges
// fall mid-group), pruning off and at three fractions, over honest, single-
// leaker and colluded observations.
TEST(FingerprintTest, TraceManyMatchesScalarOracle) {
  Fixture s(6000, 13);
  AdversarialScheme adv(*s.scheme, 3);
  IdentityCodec codec;
  CodedWatermark wm(adv, codec);

  TardosOptions topts;
  topts.design_c = 2;
  topts.seed = 131;
  FingerprintedWatermark fp(wm, topts);

  WeightMap single = fp.EmbedFor(s.weights, 0);
  WeightMap copy_a = fp.EmbedFor(s.weights, 2);
  WeightMap copy_b = fp.EmbedFor(s.weights, 4098);
  Rng arng(137);
  WeightMap colluded =
      InterleavingCollusion(32).Forge({&copy_a, &copy_b}, arng).ValueOrDie();
  const std::vector<std::pair<std::string, const WeightMap*>> suspects = {
      {"honest", &s.weights}, {"single", &single}, {"colluded", &colluded}};

  std::vector<TraceOptions> modes(4);
  modes[0].prune = false;
  modes[1].prune_frac = 0.25;
  modes[2].prune_frac = 0.5;
  modes[3].prune_frac = 1.0;

  bool saw_partial_prune = false;
  bool saw_accusation = false;
  for (const auto& [name, weights] : suspects) {
    HonestServer server(*s.index, *weights);
    FingerprintObservation obs = fp.Observe(s.weights, server).ValueOrDie();
    for (size_t m = 0; m < modes.size(); ++m) {
      for (uint64_t pool : {1u, 3u, 4u, 5u, 17u, 4099u}) {
        const TraceResult want = oracle::TraceMany(fp, obs, pool, modes[m]);
        saw_partial_prune |= want.pruned > 0 && want.pruned < pool;
        saw_accusation |= !want.accused.empty();
        for (size_t threads : {1u, 3u}) {
          SetParallelThreads(threads);
          const TraceResult got = fp.TraceMany(obs, pool, modes[m]);
          const std::string where = name + " mode " + std::to_string(m) +
                                    " pool " + std::to_string(pool) +
                                    " threads " + std::to_string(threads);
          ExpectSameTrace(got, want, where);
          for (const Accusation& a : got.accused) {
            EXPECT_EQ(a.score, fp.Score(obs, a.recipient)) << where;
            EXPECT_EQ(a.score, oracle::Score(fp.code(), obs, a.recipient))
                << where;
          }
        }
      }
    }
  }
  SetParallelThreads(0);
  EXPECT_TRUE(saw_partial_prune);
  EXPECT_TRUE(saw_accusation);
}

}  // namespace
}  // namespace qpwm
