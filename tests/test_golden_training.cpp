// Golden training bits: the trained weights of every case study's default
// configuration, at a small scale and a fixed seed, hashed and pinned.
//
// The shard/merge and thread-count tests compare two runs of the *same*
// binary, so a kernel change that shifts every result the same way passes
// them. These hashes are the bits of the naive-loop GEMMs and scalar Adam
// (docs/determinism.md, "Floating-point kernels"); any change to the
// summation order, the zero-skipping rule or the floating-point contraction
// of the training step breaks them.
//
// A deliberate, documented change of training bytes reads the new values
// from the failure messages, which print every computed hash in hex.
#include <gtest/gtest.h>

#include <cstdint>
#include <ios>
#include <cstring>
#include <map>
#include <string>

#include "src/casestudies/registry.h"
#include "src/core/splitter.h"
#include "src/ml/trainer.h"

namespace varbench {
namespace {

constexpr double kScale = 0.05;
constexpr std::uint64_t kSeed = 20260727;

/// FNV-1a over the raw bytes of every weight and bias, layer by layer.
std::uint64_t hash_parameters(const std::vector<math::Matrix>& weights,
                              const std::vector<std::vector<double>>& biases) {
  std::uint64_t h = 0xCBF29CE484222325ULL;
  const auto mix = [&h](std::span<const double> values) {
    for (const double v : values) {
      std::uint64_t bits = 0;
      std::memcpy(&bits, &v, sizeof bits);
      for (int byte = 0; byte < 8; ++byte) {
        h ^= (bits >> (8 * byte)) & 0xFFU;
        h *= 0x100000001B3ULL;
      }
    }
  };
  for (std::size_t i = 0; i < weights.size(); ++i) {
    mix(weights[i].data());
    mix(biases[i]);
  }
  return h;
}

std::uint64_t hash_model(const ml::Mlp& m) {
  return hash_parameters(m.weights(), m.biases());
}

struct Fixture {
  ml::Dataset train;
  ml::TrainConfig config;
  rngx::VariationSeeds seeds;
};

Fixture fixture(const std::string& id) {
  const auto cs = casestudies::make_case_study(id, kScale);
  rngx::Rng master{rngx::derive_seed(kSeed, "golden:" + id)};
  Fixture f;
  f.seeds = rngx::VariationSeeds::random(master);
  auto split_rng = f.seeds.rng_for(rngx::VariationSource::kDataSplit);
  f.train = core::materialize(*cs.pool, cs.splitter->split(*cs.pool, split_rng))
                .first;
  f.config = cs.pipeline->resolve_config(cs.pipeline->default_params());
  // pascalvoc_fcn adds deliberately unseeded noise after training; the
  // golden bits pin the seeded training itself.
  f.config.numerical_noise_std = 0.0;
  return f;
}

struct Golden {
  std::uint64_t train_mlp;   // one-shot train_mlp
  std::uint64_t checkpoint;  // Trainer state after the first epoch
};

const std::map<std::string, Golden>& goldens() {
  static const std::map<std::string, Golden> g{
      {"cifar10_vgg11", {0x377D781683F87462ULL, 0x135A65DC7A6D1806ULL}},
      {"glue_rte_bert", {0x4E9200440491F7D1ULL, 0x054EAD0C61AB0856ULL}},
      {"glue_sst2_bert", {0x7AD7CE1EC7530AB3ULL, 0x9DED58EBC5CA49C1ULL}},
      {"mhc_mlp", {0xF224E472BD4D21CDULL, 0x16B9B3C9002EF70CULL}},
      {"pascalvoc_fcn", {0x0DA67E1B4FC052C2ULL, 0x6326D18ADB416D82ULL}},
  };
  return g;
}

class GoldenTraining : public ::testing::TestWithParam<std::string> {};

TEST_P(GoldenTraining, TrainMlpAndResumedTrainerMatchPinnedHashes) {
  const std::string id = GetParam();
  const Fixture f = fixture(id);

  const std::uint64_t one_shot =
      hash_model(ml::train_mlp(f.train, f.config, f.seeds));

  // Checkpoint after one epoch, restore into a fresh Trainer, finish.
  ml::Trainer part{f.train, f.config, f.seeds};
  part.run_epoch();
  const ml::TrainerCheckpoint ckpt = part.checkpoint();
  const std::uint64_t at_checkpoint =
      hash_parameters(ckpt.weights, ckpt.biases);
  ml::Trainer resumed{f.train, f.config, f.seeds};
  resumed.restore(ckpt);
  resumed.run_to_completion();
  const std::uint64_t after_resume = hash_model(resumed.model());

  const Golden& want = goldens().at(id);
  EXPECT_EQ(one_shot, want.train_mlp)
      << id << " train_mlp got 0x" << std::hex << std::uppercase << one_shot;
  EXPECT_EQ(at_checkpoint, want.checkpoint)
      << id << " checkpoint got 0x" << std::hex << std::uppercase
      << at_checkpoint;
  EXPECT_EQ(after_resume, want.train_mlp)
      << id << " resumed got 0x" << std::hex << std::uppercase << after_resume;
}

INSTANTIATE_TEST_SUITE_P(
    CaseStudies, GoldenTraining,
    ::testing::ValuesIn(casestudies::case_study_ids()),
    [](const ::testing::TestParamInfo<std::string>& info) { return info.param; });

}  // namespace
}  // namespace varbench
