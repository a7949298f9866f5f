// Synthetic Sentinel-2 substrate tests: noise determinism, scene statistics,
// class/HSV consistency, tiling, manual-label simulation, acquisition.

#include <gtest/gtest.h>

#include "img/color.h"
#include "metrics/metrics.h"
#include "s2/acquisition.h"
#include "s2/manual_label.h"
#include "s2/noise.h"
#include "s2/scene.h"
#include "s2/tiles.h"
#include "util/hash.h"

namespace ps = polarice::s2;
namespace pi = polarice::img;

namespace {
ps::SceneConfig test_scene_config(bool cloudy, std::uint64_t seed = 11) {
  ps::SceneConfig cfg;
  cfg.width = 256;
  cfg.height = 256;
  cfg.seed = seed;
  cfg.cloudy = cloudy;
  return cfg;
}
}  // namespace

TEST(PerlinNoise, DeterministicPerSeed) {
  ps::PerlinNoise a(5), b(5), c(6);
  EXPECT_DOUBLE_EQ(a.at(1.3, 2.7), b.at(1.3, 2.7));
  EXPECT_NE(a.at(1.3, 2.7), c.at(1.3, 2.7));
}

TEST(PerlinNoise, BoundedRoughlyUnitRange) {
  ps::PerlinNoise n(7);
  for (int i = 0; i < 2000; ++i) {
    const double v = n.at(i * 0.37, i * 0.61);
    EXPECT_GE(v, -1.5);
    EXPECT_LE(v, 1.5);
  }
}

TEST(PerlinNoise, ZeroAtLatticePoints) {
  ps::PerlinNoise n(8);
  EXPECT_DOUBLE_EQ(n.at(3.0, 4.0), 0.0);
}

TEST(PerlinNoise, FbmIsSmootherThanItLooks) {
  // Neighbouring samples must be close (continuity).
  ps::PerlinNoise n(9);
  for (int i = 0; i < 100; ++i) {
    const double x = i * 0.11, y = i * 0.07;
    EXPECT_NEAR(n.fbm(x, y, 5), n.fbm(x + 0.01, y, 5), 0.1);
  }
}

TEST(SceneGenerator, DeterministicPerConfig) {
  const auto a = ps::SceneGenerator(test_scene_config(true)).generate();
  const auto b = ps::SceneGenerator(test_scene_config(true)).generate();
  EXPECT_EQ(a.rgb, b.rgb);
  EXPECT_EQ(a.labels, b.labels);
}

// Golden digests of every Scene plane. Synthesis feeds every accuracy in the
// repo, so a speedup of generate() must reproduce these bytes exactly. The
// digests were taken from the sort-based quantile code before it switched to
// selection; the configs cover cloudy and clear, non-square and tiny sizes,
// a darkened season, zero class fractions and full cloud cover.
TEST(SceneGenerator, PlanesMatchGoldenDigests) {
  struct Golden {
    const char* name;
    int width, height;
    std::uint64_t seed;
    bool cloudy;
    double season, water, thin, coverage;
    std::uint64_t lo, hi;
  };
  const Golden cases[] = {
      // GCC contracts a * b + c into an FMA wherever the target has one,
      // also in ISO C++ mode. That moves one shadow_strength value of this
      // scene (3.2e-10) by an ulp, so its digest is per target.
#if defined(__FMA__)
      {"cloudy_256", 256, 256, 11, true, 1.0, 0.30, 0.35, 0.45,
       0x8516fc42706a0da9ULL, 0xbbf34a168ebe3044ULL},
#else
      {"cloudy_256", 256, 256, 11, true, 1.0, 0.30, 0.35, 0.45,
       0x9e747602fbb9d95eULL, 0xa5fadf6fea02ac0bULL},
#endif
      {"clear_256", 256, 256, 11, false, 1.0, 0.30, 0.35, 0.45,
       0x71593dcd190e4694ULL, 0x9481f0dfd8afc9f1ULL},
      {"cloudy_200x136", 200, 136, 5, true, 1.0, 0.30, 0.35, 0.45,
       0x642671790d1593e1ULL, 0x072efeaf9c85c464ULL},
      {"season_0.6", 192, 160, 3, true, 0.6, 0.30, 0.35, 0.45,
       0xe0516c5a9b82ef82ULL, 0xd37f32eb936c7effULL},
      {"no_water_no_thin", 128, 96, 7, true, 1.0, 0.0, 0.0, 0.45,
       0x4c6737d43c47a0cbULL, 0x92f87daf569c0eb6ULL},
      {"no_thin_full_cover", 160, 224, 9, true, 1.0, 0.25, 0.0, 1.0,
       0x1c44468a30f96931ULL, 0x9af68b44d87e68e4ULL},
      {"tiny_5x3", 5, 3, 2, true, 1.0, 0.30, 0.35, 0.45,
       0x4be7bd685a0953aaULL, 0x6135f16e729848a5ULL},
  };
  for (const auto& g : cases) {
    ps::SceneConfig cfg;
    cfg.width = g.width;
    cfg.height = g.height;
    cfg.seed = g.seed;
    cfg.cloudy = g.cloudy;
    cfg.season_brightness = g.season;
    cfg.water_fraction = g.water;
    cfg.thin_fraction = g.thin;
    cfg.cloud_coverage = g.coverage;
    const auto scene = ps::SceneGenerator(cfg).generate();
    polarice::util::Fnv128 hash;
    hash.update(scene.rgb.data(), scene.rgb.size());
    hash.update(scene.rgb_clean.data(), scene.rgb_clean.size());
    hash.update(scene.labels.data(), scene.labels.size());
    hash.update(scene.cloud_opacity.data(),
                scene.cloud_opacity.size() * sizeof(float));
    hash.update(scene.shadow_strength.data(),
                scene.shadow_strength.size() * sizeof(float));
    EXPECT_EQ(hash.lo, g.lo) << g.name << std::hex << " lo 0x" << hash.lo;
    EXPECT_EQ(hash.hi, g.hi) << g.name << std::hex << " hi 0x" << hash.hi;
  }
}

TEST(SceneGenerator, DifferentSeedsDiffer) {
  const auto a = ps::SceneGenerator(test_scene_config(true, 1)).generate();
  const auto b = ps::SceneGenerator(test_scene_config(true, 2)).generate();
  EXPECT_FALSE(a.rgb == b.rgb);
}

TEST(SceneGenerator, ClassFractionsApproximatelyHonored) {
  auto cfg = test_scene_config(false);
  cfg.width = cfg.height = 512;
  cfg.water_fraction = 0.3;
  cfg.thin_fraction = 0.35;
  const auto scene = ps::SceneGenerator(cfg).generate();
  std::array<std::size_t, 3> counts{};
  for (const auto v : scene.labels) ++counts[v];
  const double total = 512.0 * 512.0;
  EXPECT_NEAR(counts[0] / total, 0.30, 0.02);
  EXPECT_NEAR(counts[1] / total, 0.35, 0.02);
  EXPECT_NEAR(counts[2] / total, 0.35, 0.02);
}

TEST(SceneGenerator, CleanSceneVMatchesClassBands) {
  // Property: on a clean scene, every pixel's HSV V sits inside its class's
  // paper threshold band — this is what makes auto-labeling work.
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  const auto hsv = pi::rgb_to_hsv(scene.rgb);
  for (int y = 0; y < scene.rgb.height(); ++y) {
    for (int x = 0; x < scene.rgb.width(); ++x) {
      const int v = hsv.at(x, y, 2);
      const int cls = scene.labels.at(x, y);
      const auto& range = ps::kPaperHsvRanges[cls];
      ASSERT_GE(v, range.lower[2]) << "at " << x << "," << y;
      ASSERT_LE(v, range.upper[2]) << "at " << x << "," << y;
    }
  }
}

TEST(SceneGenerator, CleanSceneHasZeroCloudCover) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  EXPECT_DOUBLE_EQ(scene.cloud_cover_fraction(), 0.0);
  EXPECT_EQ(scene.rgb, scene.rgb_clean);
}

TEST(SceneGenerator, CloudySceneHasCoverAndDistortion) {
  const auto scene = ps::SceneGenerator(test_scene_config(true)).generate();
  EXPECT_GT(scene.cloud_cover_fraction(), 0.1);
  EXPECT_FALSE(scene.rgb == scene.rgb_clean);
}

TEST(SceneGenerator, HazeBrightensShadowsDarken) {
  auto cfg = test_scene_config(true);
  cfg.shadow_strength = 0.0;  // haze only
  const auto hazed = ps::SceneGenerator(cfg).generate();
  double brightened = 0, count = 0;
  for (int y = 0; y < cfg.height; ++y) {
    for (int x = 0; x < cfg.width; ++x) {
      if (hazed.cloud_opacity.at(x, y) > 0.1) {
        brightened += int(hazed.rgb.at(x, y, 2)) -
                      int(hazed.rgb_clean.at(x, y, 2));
        ++count;
      }
    }
  }
  ASSERT_GT(count, 0);
  EXPECT_GT(brightened / count, 5.0);  // haze raises brightness on average
}

TEST(SceneGenerator, ValidatesConfig) {
  auto cfg = test_scene_config(true);
  cfg.water_fraction = 0.9;
  cfg.thin_fraction = 0.3;
  EXPECT_THROW(ps::SceneGenerator{cfg}, std::invalid_argument);
  cfg = test_scene_config(true);
  cfg.thick_v_lo = 190;  // violates the paper band nesting
  EXPECT_THROW(ps::SceneGenerator{cfg}, std::invalid_argument);
  cfg = test_scene_config(true);
  cfg.width = 0;
  EXPECT_THROW(ps::SceneGenerator{cfg}, std::invalid_argument);
}

TEST(Labels, ColorizeRoundTrip) {
  pi::ImageU8 labels(4, 2, 1);
  labels.at(0, 0) = 0;
  labels.at(1, 0) = 1;
  labels.at(2, 0) = 2;
  const auto rgb = ps::colorize_labels(labels);
  EXPECT_EQ(rgb.at(0, 0, 1), 255);  // water -> green
  EXPECT_EQ(rgb.at(1, 0, 2), 255);  // thin -> blue
  EXPECT_EQ(rgb.at(2, 0, 0), 255);  // thick -> red
  EXPECT_EQ(ps::labels_from_colors(rgb), labels);
}

TEST(Labels, RoundTripGuards) {
  pi::ImageU8 bad(2, 2, 1, 9);
  EXPECT_THROW(ps::colorize_labels(bad), std::invalid_argument);
  pi::ImageU8 white(2, 2, 3, 255);
  EXPECT_THROW(ps::labels_from_colors(white), std::invalid_argument);
}

TEST(Tiles, SplitCoversSceneExactly) {
  const auto scene = ps::SceneGenerator(test_scene_config(true)).generate();
  const auto tiles = ps::split_scene(scene, 64, 3);
  ASSERT_EQ(tiles.size(), 16u);  // 256/64 = 4 per axis
  for (const auto& t : tiles) {
    EXPECT_EQ(t.rgb.width(), 64);
    EXPECT_EQ(t.scene_index, 3);
  }
  // Pixel-exact reassembly of the labels.
  std::vector<pi::ImageU8> planes;
  for (const auto& t : tiles) planes.push_back(t.labels);
  EXPECT_EQ(ps::stitch_labels(planes, 4, 4), scene.labels);
}

TEST(Tiles, CloudFractionConsistentWithScene) {
  const auto scene = ps::SceneGenerator(test_scene_config(true)).generate();
  const auto tiles = ps::split_scene(scene, 64);
  double mean_fraction = 0.0;
  for (const auto& t : tiles) {
    EXPECT_GE(t.cloud_fraction, 0.0);
    EXPECT_LE(t.cloud_fraction, 1.0);
    mean_fraction += t.cloud_fraction;
  }
  mean_fraction /= static_cast<double>(tiles.size());
  EXPECT_NEAR(mean_fraction, scene.cloud_cover_fraction(), 1e-9);
}

TEST(Tiles, GuardsBadInput) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  EXPECT_THROW(ps::split_scene(scene, 0), std::invalid_argument);
  std::vector<pi::ImageU8> planes(2, pi::ImageU8(4, 4, 1));
  EXPECT_THROW(ps::stitch_labels(planes, 2, 2), std::invalid_argument);
}

TEST(ManualLabels, HighButImperfectAgreement) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  const auto manual = ps::simulate_manual_labels(scene.labels);
  std::vector<int> truth, annotated;
  for (int y = 0; y < scene.labels.height(); ++y) {
    for (int x = 0; x < scene.labels.width(); ++x) {
      truth.push_back(scene.labels.at(x, y));
      annotated.push_back(manual.at(x, y));
    }
  }
  const double agreement = polarice::metrics::pixel_accuracy(truth, annotated);
  EXPECT_GT(agreement, 0.95);  // annotators are good...
  EXPECT_LT(agreement, 0.9999);  // ...but not perfect
}

TEST(ManualLabels, DeterministicPerSeedAndDistinctAcrossSeeds) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  ps::ManualLabelConfig cfg;
  cfg.seed = 1;
  const auto a = ps::simulate_manual_labels(scene.labels, cfg);
  const auto b = ps::simulate_manual_labels(scene.labels, cfg);
  EXPECT_EQ(a, b);
  cfg.seed = 2;
  const auto c = ps::simulate_manual_labels(scene.labels, cfg);
  EXPECT_FALSE(a == c);
}

TEST(ManualLabels, PreservesClassInventory) {
  const auto scene = ps::SceneGenerator(test_scene_config(false)).generate();
  const auto manual = ps::simulate_manual_labels(scene.labels);
  for (const auto v : manual) EXPECT_LT(v, 3);
}

TEST(Acquisition, ProducesConfiguredTileCount) {
  ps::AcquisitionConfig cfg;
  cfg.num_scenes = 4;
  cfg.scene_size = 128;
  cfg.tile_size = 64;
  cfg.cloudy_scene_fraction = 0.5;
  const auto tiles = ps::acquire_tiles(cfg);
  EXPECT_EQ(tiles.size(), 16u);  // 4 scenes x 4 tiles
  EXPECT_EQ(cfg.total_tiles(), 16);
  // First half of scenes are cloudy: some tiles must carry cloud fraction.
  double cloudy_tiles = 0;
  for (const auto& t : tiles) cloudy_tiles += t.cloud_fraction > 0.01;
  EXPECT_GT(cloudy_tiles, 0);
}

TEST(Acquisition, ValidatesConfig) {
  ps::AcquisitionConfig cfg;
  cfg.scene_size = 100;
  cfg.tile_size = 64;  // not a divisor
  EXPECT_THROW(ps::acquire_tiles(cfg), std::invalid_argument);
  cfg = ps::AcquisitionConfig{};
  cfg.num_scenes = 0;
  EXPECT_THROW(ps::acquire_tiles(cfg), std::invalid_argument);
  cfg = ps::AcquisitionConfig{};
  cfg.cloudy_scene_fraction = 1.5;
  EXPECT_THROW(ps::acquire_tiles(cfg), std::invalid_argument);
}
