// Smoothing filter tests: box, Gaussian, median.

#include <gtest/gtest.h>

#include <numeric>
#include <string>
#include <tuple>

#include "img/filter.h"
#include "util/rng.h"

namespace pi = polarice::img;

TEST(GaussianKernel, NormalizedAndSymmetric) {
  for (const int k : {1, 3, 5, 11, 31}) {
    const auto kernel = pi::gaussian_kernel_1d(k, 0.0);
    ASSERT_EQ(kernel.size(), static_cast<std::size_t>(k));
    const float sum = std::accumulate(kernel.begin(), kernel.end(), 0.0f);
    EXPECT_NEAR(sum, 1.0f, 1e-5f);
    for (int i = 0; i < k / 2; ++i) {
      EXPECT_FLOAT_EQ(kernel[i], kernel[k - 1 - i]);
    }
  }
}

TEST(GaussianKernel, PeakAtCenter) {
  const auto kernel = pi::gaussian_kernel_1d(7, 1.5);
  for (std::size_t i = 0; i < kernel.size(); ++i) {
    EXPECT_LE(kernel[i], kernel[3]);
  }
}

TEST(GaussianKernel, RejectsEvenOrNonPositive) {
  EXPECT_THROW(pi::gaussian_kernel_1d(4, 1.0), std::invalid_argument);
  EXPECT_THROW(pi::gaussian_kernel_1d(0, 1.0), std::invalid_argument);
  EXPECT_THROW(pi::gaussian_kernel_1d(-3, 1.0), std::invalid_argument);
}

TEST(GaussianBlur, PreservesConstantImage) {
  pi::ImageU8 im(16, 16, 3, 137);
  const auto out = pi::gaussian_blur(im, 5);
  for (const auto v : out) EXPECT_EQ(v, 137);
}

TEST(GaussianBlur, SmoothsAnImpulse) {
  pi::ImageU8 im(15, 15, 1, 0);
  im.at(7, 7) = 255;
  const auto out = pi::gaussian_blur(im, 5, 1.0);
  EXPECT_LT(out.at(7, 7), 255);            // peak reduced
  EXPECT_GT(out.at(7, 7), out.at(6, 7));   // still the maximum
  EXPECT_GT(out.at(6, 7), out.at(5, 7));   // monotone falloff
  EXPECT_EQ(out.at(0, 0), 0);              // energy stays local
}

TEST(GaussianBlur, FloatVariantPreservesMeanApproximately) {
  polarice::util::Rng rng(3);
  pi::ImageF32 im(32, 32, 1);
  double sum = 0.0;
  for (auto& v : im) {
    v = rng.uniform_f();
    sum += v;
  }
  const auto out = pi::gaussian_blur(im, 7, 2.0);
  double out_sum = 0.0;
  for (const auto v : out) out_sum += v;
  EXPECT_NEAR(out_sum / im.size(), sum / im.size(), 0.02);
}

// Property: the vectorized blur equals the reference bit for bit, for both
// pixel types, at every kernel the project uses (the cloud filter's 31 and
// 81 included), and on images smaller than the kernel radius.
class BlurIdentity
    : public ::testing::TestWithParam<std::tuple<int, int, int>> {};

TEST_P(BlurIdentity, MatchesReferenceBitForBit) {
  const auto [ksize, width, height] = GetParam();
  polarice::util::Rng rng(77 + ksize + width * 3 + height * 5);
  pi::ImageU8 u8(width, height, 1);
  for (auto& v : u8) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  pi::ImageF32 f32(width, height, 1);
  for (auto& v : f32) v = rng.uniform_f();
  EXPECT_EQ(pi::gaussian_blur(u8, ksize), pi::gaussian_blur_ref(u8, ksize));
  EXPECT_EQ(pi::gaussian_blur(f32, ksize), pi::gaussian_blur_ref(f32, ksize));
  EXPECT_EQ(pi::gaussian_blur(u8, ksize, 1.7),
            pi::gaussian_blur_ref(u8, ksize, 1.7));
}

INSTANTIATE_TEST_SUITE_P(
    KernelsAndSizes, BlurIdentity,
    ::testing::Combine(::testing::Values(1, 3, 31, 81),
                       ::testing::Values(512, 129, 1, 7, 3),
                       ::testing::Values(512, 77, 1, 3, 40)),
    [](const auto& info) {
      return "k" + std::to_string(std::get<0>(info.param)) + "_" +
             std::to_string(std::get<1>(info.param)) + "x" +
             std::to_string(std::get<2>(info.param));
    });

TEST(BoxFilter, MultiChannelMatchesPerChannelBlur) {
  // A 3-channel image takes the reference loop, a single channel the
  // vectorized one; with the same kernel they must agree exactly.
  polarice::util::Rng rng(6);
  pi::ImageU8 rgb(45, 23, 3);
  for (auto& v : rgb) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  for (const int k : {3, 9, 31}) {
    const auto out = pi::box_filter(rgb, k);
    for (int c = 0; c < 3; ++c) {
      pi::ImageU8 plane(rgb.width(), rgb.height(), 1);
      for (int y = 0; y < rgb.height(); ++y) {
        for (int x = 0; x < rgb.width(); ++x) plane.at(x, y) = rgb.at(x, y, c);
      }
      const auto blurred = pi::box_filter(plane, k);
      for (int y = 0; y < rgb.height(); ++y) {
        for (int x = 0; x < rgb.width(); ++x) {
          ASSERT_EQ(out.at(x, y, c), blurred.at(x, y))
              << "k " << k << " channel " << c << " at " << x << "," << y;
        }
      }
    }
  }
}

TEST(BoxFilter, AveragesNeighbourhood) {
  pi::ImageU8 im(3, 3, 1, 0);
  im.at(1, 1) = 90;
  const auto out = pi::box_filter(im, 3);
  EXPECT_EQ(out.at(1, 1), 10);  // 90 / 9
}

TEST(BoxFilter, Ksize1IsIdentity) {
  polarice::util::Rng rng(4);
  pi::ImageU8 im(9, 7, 3);
  for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto out = pi::box_filter(im, 1);
  EXPECT_EQ(out, im);
}

TEST(MedianFilter, RemovesSaltAndPepperNoise) {
  pi::ImageU8 im(32, 32, 1, 100);
  polarice::util::Rng rng(8);
  for (int i = 0; i < 40; ++i) {
    const int x = static_cast<int>(rng.uniform_int(0, 31));
    const int y = static_cast<int>(rng.uniform_int(0, 31));
    im.at(x, y) = rng.bernoulli(0.5) ? 0 : 255;
  }
  const auto out = pi::median_filter(im, 3);
  int survivors = 0;
  for (const auto v : out) survivors += (v == 0 || v == 255);
  EXPECT_LT(survivors, 5);  // isolated specks are gone
}

TEST(MedianFilter, ConstantImageUnchanged) {
  pi::ImageU8 im(8, 8, 1, 42);
  EXPECT_EQ(pi::median_filter(im, 5), im);
}

TEST(MedianFilter, PreservesStepEdgeLocation) {
  pi::ImageU8 im(16, 4, 1);
  for (int y = 0; y < 4; ++y) {
    for (int x = 0; x < 16; ++x) im.at(x, y) = x < 8 ? 10 : 240;
  }
  const auto out = pi::median_filter(im, 3);
  EXPECT_EQ(out.at(3, 1), 10);
  EXPECT_EQ(out.at(12, 1), 240);
}

TEST(MedianFilter, RejectsMultiChannelAndEvenKsize) {
  pi::ImageU8 rgb(4, 4, 3);
  EXPECT_THROW(pi::median_filter(rgb, 3), std::invalid_argument);
  pi::ImageU8 gray(4, 4, 1);
  EXPECT_THROW(pi::median_filter(gray, 2), std::invalid_argument);
}

// Property: median equals brute-force window sort for random images.
class MedianSweep : public ::testing::TestWithParam<int> {};

TEST_P(MedianSweep, MatchesBruteForce) {
  const int ksize = GetParam();
  polarice::util::Rng rng(1000 + ksize);
  pi::ImageU8 im(21, 13, 1);
  for (auto& v : im) v = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  const auto fast = pi::median_filter(im, ksize);
  const int radius = ksize / 2;
  for (int y = 0; y < im.height(); ++y) {
    for (int x = 0; x < im.width(); ++x) {
      std::vector<std::uint8_t> window;
      for (int dy = -radius; dy <= radius; ++dy) {
        for (int dx = -radius; dx <= radius; ++dx) {
          window.push_back(im.at_clamped(x + dx, y + dy));
        }
      }
      std::nth_element(window.begin(), window.begin() + window.size() / 2,
                       window.end());
      ASSERT_EQ(fast.at(x, y), window[window.size() / 2])
          << "at (" << x << "," << y << ") ksize " << ksize;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Ksizes, MedianSweep, ::testing::Values(1, 3, 5, 7));
