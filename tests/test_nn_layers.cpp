/**
 * @file
 * Numerical gradient checks for every layer type and unit tests for the
 * loss/optimizer machinery. A layer whose backward pass disagrees with
 * central-difference gradients would silently corrupt every accuracy
 * experiment, so these are the framework's bedrock tests.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>

#include "nn/attention.h"
#include "nn/layers_basic.h"
#include "nn/layers_conv.h"
#include "nn/layers_norm.h"
#include "nn/loss.h"
#include "nn/model.h"
#include "nn/optimizer.h"
#include "test_support.h"

namespace mirage {
namespace nn {
namespace {

using mirage::test::gradCheck;
using mirage::test::randomTensor;

TEST(GradCheck, Dense)
{
    Rng rng(1);
    FormatBackend backend(numerics::DataFormat::FP32);
    Dense layer(5, 4, &backend, rng);
    gradCheck(layer, randomTensor({3, 5}, 2));
}

TEST(GradCheck, DenseRank3)
{
    Rng rng(1);
    FormatBackend backend(numerics::DataFormat::FP32);
    Dense layer(5, 4, &backend, rng);
    gradCheck(layer, randomTensor({2, 3, 5}, 3));
}

TEST(GradCheck, Conv2d)
{
    Rng rng(2);
    FormatBackend backend(numerics::DataFormat::FP32);
    Conv2d layer(2, 3, 3, 1, 1, &backend, rng);
    gradCheck(layer, randomTensor({2, 2, 5, 5}, 4));
}

TEST(GradCheck, Conv2dStride2NoPad)
{
    Rng rng(3);
    FormatBackend backend(numerics::DataFormat::FP32);
    Conv2d layer(2, 2, 3, 2, 0, &backend, rng);
    gradCheck(layer, randomTensor({2, 2, 7, 7}, 5));
}

/**
 * Element-wise im2col/col2im with a bounds test per element: the layout
 * reference for Conv2d's span-wise staging. cols is [C*k*k, total_cols];
 * one sample fills columns [col0, col0 + out_h * out_w).
 */
void
naiveIm2col(const float *x, int ch, int h, int w, int kernel, int stride,
            int pad, int out_h, int out_w, std::vector<float> &cols,
            int total_cols, int col0)
{
    for (int c = 0; c < ch; ++c)
        for (int ky = 0; ky < kernel; ++ky)
            for (int kx = 0; kx < kernel; ++kx) {
                const int row = (c * kernel + ky) * kernel + kx;
                for (int oy = 0; oy < out_h; ++oy)
                    for (int ox = 0; ox < out_w; ++ox) {
                        const int iy = oy * stride + ky - pad;
                        const int ix = ox * stride + kx - pad;
                        float v = 0.0f;
                        if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                            v = x[(static_cast<size_t>(c) * h + iy) * w + ix];
                        cols[static_cast<size_t>(row) * total_cols + col0 +
                             oy * out_w + ox] = v;
                    }
            }
}

void
naiveCol2im(const std::vector<float> &cols, int ch, int h, int w, int kernel,
            int stride, int pad, int out_h, int out_w, float *dx,
            int total_cols, int col0)
{
    for (int c = 0; c < ch; ++c)
        for (int ky = 0; ky < kernel; ++ky)
            for (int kx = 0; kx < kernel; ++kx) {
                const int row = (c * kernel + ky) * kernel + kx;
                for (int oy = 0; oy < out_h; ++oy)
                    for (int ox = 0; ox < out_w; ++ox) {
                        const int iy = oy * stride + ky - pad;
                        const int ix = ox * stride + kx - pad;
                        if (iy >= 0 && iy < h && ix >= 0 && ix < w)
                            dx[(static_cast<size_t>(c) * h + iy) * w + ix] +=
                                cols[static_cast<size_t>(row) * total_cols +
                                     col0 + oy * out_w + ox];
                    }
            }
}

std::vector<float>
naiveTranspose(const std::vector<float> &a, int rows, int cols)
{
    std::vector<float> t(a.size());
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c)
            t[static_cast<size_t>(c) * rows + r] =
                a[static_cast<size_t>(r) * cols + c];
    return t;
}

bool
sameBytes(const float *a, const float *b, size_t n)
{
    return std::memcmp(a, b, n * sizeof(float)) == 0;
}

TEST(Conv2dStaging, MatchesElementWiseReferenceByteForByte)
{
    // Conv2d's forward, weight gradient and input gradient against the
    // same GEMMs fed by element-wise staging: any padding, stride or
    // addition-order slip in the span-wise im2col/col2im shows up as a
    // byte difference. The 1 x 2 input gives kernel offsets whose every
    // column is padding.
    struct Geometry
    {
        int h, w, kernel, stride, pad;
    };
    std::vector<Geometry> cases;
    for (auto [h, w] : {std::pair{7, 9}, std::pair{1, 2}})
        for (int kernel : {1, 3, 5})
            for (int stride : {1, 2})
                for (int pad : {0, 1, 2})
                    if (h + 2 * pad >= kernel && w + 2 * pad >= kernel)
                        cases.push_back({h, w, kernel, stride, pad});
    FormatBackend backend(numerics::DataFormat::FP32);
    const int batch = 3, in_ch = 2, out_ch = 3;
    for (const auto [h, w, kernel, stride, pad] : cases) {
        SCOPED_TRACE(testing::Message()
                     << h << "x" << w << " kernel=" << kernel
                     << " stride=" << stride << " pad=" << pad);
        Rng rng(static_cast<uint64_t>(h * 1000 + kernel * 100 +
                                      stride * 10 + pad));
        Conv2d conv(in_ch, out_ch, kernel, stride, pad, &backend, rng,
                    /*bias=*/true);
        conv.params()[1]->value = Tensor::randn({out_ch}, rng, 0.5f);
        const Tensor x = Tensor::randn({batch, in_ch, h, w}, rng);
        const Tensor y = conv.forward(x, true);
        const int out_h = (h + 2 * pad - kernel) / stride + 1;
        const int out_w = (w + 2 * pad - kernel) / stride + 1;
        ASSERT_EQ(y.shape(),
                  (std::vector<int>{batch, out_ch, out_h, out_w}));
        const Tensor dy = Tensor::randn(y.shape(), rng);
        const Tensor dx = conv.backward(dy);

        const int k_dim = in_ch * kernel * kernel;
        const int p = out_h * out_w;
        const int total = batch * p;
        const int64_t sample = static_cast<int64_t>(in_ch) * h * w;
        const std::vector<float> &wt = conv.params()[0]->value.vec();
        const std::vector<float> &bias = conv.params()[1]->value.vec();

        std::vector<float> cols(static_cast<size_t>(k_dim) * total,
                                -1.0f);
        for (int b = 0; b < batch; ++b)
            naiveIm2col(x.data() + b * sample, in_ch, h, w, kernel,
                        stride, pad, out_h, out_w, cols, total, b * p);
        const std::vector<float> y_mat =
            backend.gemm(wt, cols, out_ch, k_dim, total, false, false);
        std::vector<float> y_ref(static_cast<size_t>(y.size()));
        std::vector<float> dy_mat(y_mat.size());
        for (int b = 0; b < batch; ++b)
            for (int o = 0; o < out_ch; ++o)
                for (int i = 0; i < p; ++i) {
                    const size_t mat =
                        static_cast<size_t>(o) * total + b * p + i;
                    const size_t ten =
                        (static_cast<size_t>(b) * out_ch + o) * p + i;
                    y_ref[ten] = y_mat[mat] + bias[o];
                    dy_mat[mat] = dy[static_cast<int64_t>(ten)];
                }
        EXPECT_TRUE(sameBytes(y.data(), y_ref.data(), y_ref.size()));

        std::vector<float> dw_ref(wt.size(), 0.0f);
        const std::vector<float> dw =
            backend.gemm(dy_mat, naiveTranspose(cols, k_dim, total),
                         out_ch, total, k_dim, true, false);
        for (size_t i = 0; i < dw.size(); ++i)
            dw_ref[i] += dw[i];
        EXPECT_TRUE(sameBytes(conv.params()[0]->grad.data(),
                              dw_ref.data(), dw_ref.size()));

        const std::vector<float> dcols =
            backend.gemm(naiveTranspose(wt, out_ch, k_dim), dy_mat,
                         k_dim, out_ch, total, false, true);
        std::vector<float> dx_ref(static_cast<size_t>(x.size()),
                                  0.0f);
        for (int b = 0; b < batch; ++b)
            naiveCol2im(dcols, in_ch, h, w, kernel, stride, pad, out_h,
                        out_w, dx_ref.data() + b * sample, total,
                        b * p);
        EXPECT_TRUE(sameBytes(dx.data(), dx_ref.data(), dx_ref.size()));

        // A second forward at a smaller shape reuses the im2col
        // buffer without zeroing it: every element is rewritten.
        const Tensor x2 = Tensor::randn({1, in_ch, h, w}, rng);
        std::vector<float> cols2(static_cast<size_t>(k_dim) * p);
        naiveIm2col(x2.data(), in_ch, h, w, kernel, stride, pad, out_h,
                    out_w, cols2, p, 0);
        const std::vector<float> y2_mat =
            backend.gemm(wt, cols2, out_ch, k_dim, p, false, false);
        const Tensor y2 = conv.forward(x2, true);
        for (int o = 0; o < out_ch; ++o)
            for (int i = 0; i < p; ++i)
                y_ref[static_cast<size_t>(o) * p + i] =
                    y2_mat[static_cast<size_t>(o) * p + i] + bias[o];
        EXPECT_TRUE(sameBytes(y2.data(), y_ref.data(),
                              static_cast<size_t>(y2.size())));
    }
}

TEST(GradCheck, ReLU)
{
    ReLU layer;
    gradCheck(layer, randomTensor({4, 6}, 6));
}

TEST(GradCheck, Gelu)
{
    Gelu layer;
    gradCheck(layer, randomTensor({4, 6}, 7));
}

TEST(GradCheck, MaxPool)
{
    MaxPool2d layer;
    gradCheck(layer, randomTensor({2, 2, 4, 4}, 8));
}

TEST(GradCheck, GlobalAvgPool)
{
    GlobalAvgPool layer;
    gradCheck(layer, randomTensor({2, 3, 4, 4}, 9));
}

TEST(GradCheck, SequenceMeanPool)
{
    SequenceMeanPool layer;
    gradCheck(layer, randomTensor({2, 5, 3}, 10));
}

TEST(GradCheck, BatchNorm)
{
    BatchNorm2d layer(3);
    gradCheck(layer, randomTensor({4, 3, 3, 3}, 11), 4e-2);
}

TEST(GradCheck, LayerNorm)
{
    LayerNorm layer(6);
    gradCheck(layer, randomTensor({4, 6}, 12), 4e-2);
}

TEST(GradCheck, MultiHeadAttention)
{
    Rng rng(13);
    FormatBackend backend(numerics::DataFormat::FP32);
    MultiHeadSelfAttention layer(4, 2, &backend, rng);
    gradCheck(layer, randomTensor({2, 3, 4}, 14), 4e-2);
}

TEST(GradCheck, ResidualBlockWithShortcut)
{
    Rng rng(15);
    FormatBackend backend(numerics::DataFormat::FP32);
    auto main = std::make_unique<Sequential>();
    main->emplace<Dense>(4, 4, &backend, rng);
    main->emplace<ReLU>();
    auto shortcut = std::make_unique<Sequential>();
    shortcut->emplace<Dense>(4, 4, &backend, rng);
    ResidualBlock layer(std::move(main), std::move(shortcut));
    gradCheck(layer, randomTensor({3, 4}, 16));
}

TEST(GradCheck, SmallSequentialStack)
{
    Rng rng(17);
    FormatBackend backend(numerics::DataFormat::FP32);
    Sequential model;
    model.emplace<Conv2d>(1, 2, 3, 1, 1, &backend, rng);
    model.emplace<ReLU>();
    model.emplace<MaxPool2d>();
    model.emplace<Flatten>();
    model.emplace<Dense>(2 * 2 * 2, 3, &backend, rng);
    gradCheck(model, randomTensor({2, 1, 4, 4}, 18));
}

TEST(Loss, SoftmaxCrossEntropyMatchesHandComputation)
{
    Tensor logits({1, 3});
    logits[0] = 1.0f;
    logits[1] = 2.0f;
    logits[2] = 3.0f;
    const LossResult r = softmaxCrossEntropy(logits, {2});
    // L = -log softmax_2 = log(e^1 + e^2 + e^3) - 3.
    const double expect =
        std::log(std::exp(1.0) + std::exp(2.0) + std::exp(3.0)) - 3.0;
    EXPECT_NEAR(r.loss, expect, 1e-5);
    // Gradient sums to zero and is negative only at the label.
    EXPECT_LT(r.grad[2], 0.0f);
    EXPECT_NEAR(r.grad[0] + r.grad[1] + r.grad[2], 0.0f, 1e-6);
}

TEST(Loss, SoftmaxGradientNumerical)
{
    Rng rng(19);
    Tensor logits = Tensor::randn({3, 5}, rng);
    const std::vector<int> labels = {1, 4, 0};
    const LossResult r = softmaxCrossEntropy(logits, labels);
    const float eps = 1e-3f;
    for (int64_t i = 0; i < logits.size(); i += 2) {
        const float orig = logits[i];
        logits[i] = orig + eps;
        const float up = softmaxCrossEntropy(logits, labels).loss;
        logits[i] = orig - eps;
        const float down = softmaxCrossEntropy(logits, labels).loss;
        logits[i] = orig;
        EXPECT_NEAR(r.grad[i], (up - down) / (2 * eps), 2e-3) << i;
    }
}

TEST(Loss, MseAndArgmax)
{
    Tensor pred({2, 2});
    pred[0] = 1.0f;
    pred[1] = 3.0f;
    pred[2] = 0.0f;
    pred[3] = 5.0f;
    Tensor target({2, 2});
    target.fill(1.0f);
    const LossResult r = meanSquaredError(pred, target);
    EXPECT_NEAR(r.loss, (0 + 4 + 1 + 16) / 4.0, 1e-6);
    const auto am = argmaxRows(pred);
    EXPECT_EQ(am[0], 1);
    EXPECT_EQ(am[1], 1);
}

TEST(Optimizer, SgdStepDirection)
{
    Param p;
    p.value = Tensor({2});
    p.value[0] = 1.0f;
    p.value[1] = -1.0f;
    p.grad = Tensor({2});
    p.grad[0] = 0.5f;
    p.grad[1] = -0.5f;
    Sgd opt(0.1f);
    opt.step({&p});
    EXPECT_NEAR(p.value[0], 0.95f, 1e-6);
    EXPECT_NEAR(p.value[1], -0.95f, 1e-6);
}

TEST(Optimizer, SgdMomentumAccumulates)
{
    Param p;
    p.value = Tensor({1});
    p.grad = Tensor({1});
    p.grad[0] = 1.0f;
    Sgd opt(0.1f, 0.9f);
    opt.step({&p});
    EXPECT_NEAR(p.value[0], -0.1f, 1e-6);
    opt.step({&p}); // velocity = 0.9 * 1 + 1 = 1.9
    EXPECT_NEAR(p.value[0], -0.1f - 0.19f, 1e-6);
}

TEST(Optimizer, AdamFirstStepIsLrSized)
{
    Param p;
    p.value = Tensor({1});
    p.grad = Tensor({1});
    p.grad[0] = 3.0f; // any positive gradient: first Adam step ~ lr
    Adam opt(0.01f);
    opt.step({&p});
    EXPECT_NEAR(p.value[0], -0.01f, 1e-4);
}

TEST(Optimizer, ZeroGradClears)
{
    Param p;
    p.value = Tensor({2});
    p.grad = Tensor({2});
    p.grad.fill(3.0f);
    Optimizer::zeroGrad({&p});
    EXPECT_EQ(p.grad[0], 0.0f);
    EXPECT_EQ(p.grad[1], 0.0f);
}

} // namespace
} // namespace nn
} // namespace mirage
