#include "img/filter.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace polarice::img {

namespace {
void require_odd(int ksize, const char* what) {
  if (ksize < 1 || ksize % 2 == 0) {
    throw std::invalid_argument(std::string(what) + ": ksize must be odd >= 1");
  }
}

std::uint8_t round_u8(float v) noexcept {
  return static_cast<std::uint8_t>(std::clamp(std::lround(v), 0L, 255L));
}

/// Separable convolution with a symmetric 1-D kernel, replicated borders.
/// The oracle: one clamped read per tap per pixel, any channel count.
template <typename T>
Image<T> separable_ref(const Image<T>& src, const std::vector<float>& k) {
  const int radius = static_cast<int>(k.size()) / 2;
  const int w = src.width(), h = src.height(), nc = src.channels();
  Image<float> tmp(w, h, nc);
  // Horizontal pass.
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < nc; ++c) {
        float acc = 0.0f;
        for (int i = -radius; i <= radius; ++i) {
          acc += k[i + radius] *
                 static_cast<float>(src.at_clamped(x + i, y, c));
        }
        tmp.at(x, y, c) = acc;
      }
    }
  }
  // Vertical pass.
  Image<T> out(w, h, nc);
  for (int y = 0; y < h; ++y) {
    for (int x = 0; x < w; ++x) {
      for (int c = 0; c < nc; ++c) {
        float acc = 0.0f;
        for (int i = -radius; i <= radius; ++i) {
          acc += k[i + radius] * tmp.at_clamped(x, y + i, c);
        }
        if constexpr (std::is_same_v<T, std::uint8_t>) {
          out.at(x, y, c) = round_u8(acc);
        } else {
          out.at(x, y, c) = acc;
        }
      }
    }
  }
  return out;
}

/// out[x] += kv * in[x] over one row. Separate restrict-qualified pointers
/// are what lets the compiler vectorize the x loop.
void axpy_row(float* __restrict out, const float* __restrict in, float kv,
              int n) noexcept {
  for (int x = 0; x < n; ++x) out[x] += kv * in[x];
}

/// separable_ref's result, bit for bit, for single-channel images. Every
/// pixel still sums its taps in order -r..r starting from 0.0f; only the
/// loop nest changes, taps outer and x inner, so each tap is one
/// vectorizable pass over a row. Multi-channel images take the ref path.
template <typename T>
Image<T> separable(const Image<T>& src, const std::vector<float>& k) {
  if (src.channels() != 1) return separable_ref(src, k);
  const int taps = static_cast<int>(k.size());
  const int radius = taps / 2;
  const int w = src.width(), h = src.height();
  // Horizontal pass: each row is copied into a buffer padded by the radius
  // with its clamped edge values, so tap i of pixel x reads pad[i + x].
  Image<float> tmp(w, h, 1, 0.0f);
  std::vector<float> pad(static_cast<std::size_t>(w) + 2 * radius);
  for (int y = 0; y < h; ++y) {
    const T* row = src.data() + static_cast<std::size_t>(y) * w;
    std::fill_n(pad.begin(), radius, static_cast<float>(row[0]));
    std::transform(row, row + w, pad.begin() + radius,
                   [](T v) { return static_cast<float>(v); });
    std::fill_n(pad.begin() + radius + w, radius,
                static_cast<float>(row[w - 1]));
    float* tmp_row = tmp.data() + static_cast<std::size_t>(y) * w;
    for (int i = 0; i < taps; ++i) axpy_row(tmp_row, pad.data() + i, k[i], w);
  }
  // Vertical pass: one accumulator row, fed tap by tap from clamped rows.
  Image<T> out(w, h, 1);
  std::vector<float> acc(static_cast<std::size_t>(w));
  for (int y = 0; y < h; ++y) {
    std::fill(acc.begin(), acc.end(), 0.0f);
    for (int i = 0; i < taps; ++i) {
      const int sy = std::clamp(y + i - radius, 0, h - 1);
      axpy_row(acc.data(), tmp.data() + static_cast<std::size_t>(sy) * w,
               k[i], w);
    }
    T* dst = out.data() + static_cast<std::size_t>(y) * w;
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      std::transform(acc.begin(), acc.end(), dst, round_u8);
    } else {
      std::copy(acc.begin(), acc.end(), dst);
    }
  }
  return out;
}
}  // namespace

std::vector<float> gaussian_kernel_1d(int ksize, double sigma) {
  require_odd(ksize, "gaussian_kernel_1d");
  if (sigma <= 0.0) sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8;
  const int radius = ksize / 2;
  std::vector<float> k(ksize);
  double sum = 0.0;
  for (int i = -radius; i <= radius; ++i) {
    const double v = std::exp(-(i * i) / (2.0 * sigma * sigma));
    k[i + radius] = static_cast<float>(v);
    sum += v;
  }
  for (auto& v : k) v = static_cast<float>(v / sum);
  return k;
}

ImageU8 box_filter(const ImageU8& src, int ksize) {
  require_odd(ksize, "box_filter");
  const std::vector<float> k(ksize, 1.0f / static_cast<float>(ksize));
  return separable(src, k);
}

ImageU8 gaussian_blur(const ImageU8& src, int ksize, double sigma) {
  return separable(src, gaussian_kernel_1d(ksize, sigma));
}

ImageF32 gaussian_blur(const ImageF32& src, int ksize, double sigma) {
  return separable(src, gaussian_kernel_1d(ksize, sigma));
}

ImageU8 gaussian_blur_ref(const ImageU8& src, int ksize, double sigma) {
  return separable_ref(src, gaussian_kernel_1d(ksize, sigma));
}

ImageF32 gaussian_blur_ref(const ImageF32& src, int ksize, double sigma) {
  return separable_ref(src, gaussian_kernel_1d(ksize, sigma));
}

ImageU8 median_filter(const ImageU8& src, int ksize) {
  require_odd(ksize, "median_filter");
  if (src.channels() != 1) {
    throw std::invalid_argument("median_filter: expected single channel");
  }
  const int w = src.width(), h = src.height();
  const int radius = ksize / 2;
  const int window = ksize * ksize;
  const int median_rank = window / 2;  // 0-based rank of the median
  ImageU8 out(w, h, 1);

  // Sliding histogram per row: O(ksize) update per pixel.
  for (int y = 0; y < h; ++y) {
    int hist[256] = {0};
    // Seed histogram for x = 0.
    for (int dy = -radius; dy <= radius; ++dy) {
      for (int dx = -radius; dx <= radius; ++dx) {
        ++hist[src.at_clamped(dx, y + dy)];
      }
    }
    for (int x = 0; x < w; ++x) {
      if (x > 0) {
        for (int dy = -radius; dy <= radius; ++dy) {
          --hist[src.at_clamped(x - radius - 1, y + dy)];
          ++hist[src.at_clamped(x + radius, y + dy)];
        }
      }
      int count = 0;
      for (int v = 0; v < 256; ++v) {
        count += hist[v];
        if (count > median_rank) {
          out.at(x, y) = static_cast<std::uint8_t>(v);
          break;
        }
      }
    }
  }
  return out;
}

}  // namespace polarice::img
