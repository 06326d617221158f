#include "nn/tensor.h"

#include <algorithm>
#include <sstream>

#include "common/logging.h"
#include "common/simd.h"

namespace mirage {
namespace nn {

Tensor::Tensor(std::vector<int> shape) : shape_(std::move(shape))
{
    data_.assign(static_cast<size_t>(elementCount(shape_)), 0.0f);
}

Tensor
Tensor::randn(std::vector<int> shape, Rng &rng, float stddev)
{
    Tensor t(std::move(shape));
    for (auto &v : t.data_)
        v = static_cast<float>(rng.gaussian(0.0, stddev));
    return t;
}

int
Tensor::dim(size_t i) const
{
    MIRAGE_ASSERT(i < shape_.size(), "dimension index out of range");
    return shape_[i];
}

void
Tensor::fill(float v)
{
    for (auto &x : data_)
        x = v;
}

Tensor
Tensor::reshaped(std::vector<int> new_shape) const
{
    MIRAGE_ASSERT(elementCount(new_shape) == size(),
                  "reshape changes element count");
    Tensor t;
    t.shape_ = std::move(new_shape);
    t.data_ = data_;
    return t;
}

int64_t
Tensor::elementCount(const std::vector<int> &shape)
{
    int64_t count = 1;
    for (int d : shape) {
        MIRAGE_ASSERT(d > 0, "tensor dimensions must be positive");
        count *= d;
    }
    return count;
}

std::string
Tensor::shapeString() const
{
    std::ostringstream oss;
    oss << "[";
    for (size_t i = 0; i < shape_.size(); ++i)
        oss << shape_[i] << (i + 1 < shape_.size() ? ", " : "");
    oss << "]";
    return oss.str();
}

std::vector<float>
matmulFp32(const std::vector<float> &a, const std::vector<float> &b, int m,
           int k, int n)
{
    MIRAGE_ASSERT(a.size() == static_cast<size_t>(m) * k, "A shape mismatch");
    MIRAGE_ASSERT(b.size() == static_cast<size_t>(k) * n, "B shape mismatch");
    std::vector<float> c(static_cast<size_t>(m) * n, 0.0f);
    for (int i = 0; i < m; ++i) {
        for (int kk = 0; kk < k; ++kk) {
            const float a_ik = a[static_cast<size_t>(i) * k + kk];
            if (a_ik == 0.0f)
                continue;
            const float *b_row = &b[static_cast<size_t>(kk) * n];
            float *c_row = &c[static_cast<size_t>(i) * n];
            for (int j = 0; j < n; ++j)
                c_row[j] += a_ik * b_row[j];
        }
    }
    return c;
}

std::vector<float>
transposed(const std::vector<float> &a, int rows, int cols)
{
    std::vector<float> t(a.size());
    transposeInto(a, rows, cols, t);
    return t;
}

void
transposeInto(std::span<const float> a, int rows, int cols,
              std::span<float> out)
{
    MIRAGE_ASSERT(a.size() == static_cast<size_t>(rows) * cols,
                  "transpose shape mismatch");
    MIRAGE_ASSERT(out.size() == a.size(), "transpose output size mismatch");
    // Cache-blocked: a panel of kPanel input columns becomes kPanel output
    // rows that stay in L1 while 8 x 8 register tiles sweep down the input
    // rows. Element-wise, the sweep would stride `rows` floats through
    // `out` per element (and, for power-of-two `cols`, read rows that all
    // map to one L1 set).
    constexpr int kPanel = 64;
    const float *src = a.data();
    float *dst = out.data();
    const int rows8 = rows - rows % 8;
    const int cols8 = cols - cols % 8;
    const auto at = [&](int r, int c) {
        dst[static_cast<size_t>(c) * rows + r] =
            src[static_cast<size_t>(r) * cols + c];
    };
    for (int c0 = 0; c0 < cols; c0 += kPanel) {
        const int c1 = std::min(cols, c0 + kPanel);
        const int c1_8 = std::min(c1, cols8);
        for (int r = 0; r < rows8; r += 8) {
            int c = c0;
            for (; c < c1_8; c += 8)
                simd::transpose8x8F32(src + static_cast<size_t>(r) * cols + c,
                                      cols,
                                      dst + static_cast<size_t>(c) * rows + r,
                                      rows);
            for (; c < c1; ++c)
                for (int rr = r; rr < r + 8; ++rr)
                    at(rr, c);
        }
        for (int r = rows8; r < rows; ++r)
            for (int c = c0; c < c1; ++c)
                at(r, c);
    }
}

} // namespace nn
} // namespace mirage
