#pragma once
// Smoothing / noise filters (paper §III.A "noise filtering"): box, Gaussian
// (separable), and median. Borders replicate (cv::BORDER_REPLICATE).

#include "img/image.h"

namespace polarice::img {

/// Box (mean) filter with an odd ksize x ksize window; any channel count.
ImageU8 box_filter(const ImageU8& src, int ksize);

/// Gaussian blur with an odd ksize x ksize kernel. sigma <= 0 derives the
/// OpenCV default sigma = 0.3 * ((ksize - 1) * 0.5 - 1) + 0.8.
ImageU8 gaussian_blur(const ImageU8& src, int ksize, double sigma = 0.0);

/// Float variant used inside the cloud filter's illumination estimate.
ImageF32 gaussian_blur(const ImageF32& src, int ksize, double sigma = 0.0);

/// Reference blurs: the same result computed one clamped read per tap per
/// pixel. Test oracles for gaussian_blur, which must match them bit for bit.
ImageU8 gaussian_blur_ref(const ImageU8& src, int ksize, double sigma = 0.0);
ImageF32 gaussian_blur_ref(const ImageF32& src, int ksize, double sigma = 0.0);

/// Median filter with an odd ksize x ksize window (single channel only);
/// histogram-based so it is O(1) per pixel update.
ImageU8 median_filter(const ImageU8& src, int ksize);

/// Builds a normalized 1-D Gaussian kernel of odd length `ksize`.
std::vector<float> gaussian_kernel_1d(int ksize, double sigma);

}  // namespace polarice::img
