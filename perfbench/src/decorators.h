#ifndef PERFBENCH_DECORATORS_H
#define PERFBENCH_DECORATORS_H

/**
 * @file
 * Decorators that time the library from outside, at its public
 * boundaries: a GemmBackend handed to the model factory, a Layer around
 * the whole network, and an Optimizer around the real one. Untraced,
 * each only forwards the call (plus a few counter increments), so the
 * end-to-end run pays one virtual call per boundary.
 */

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/gemm_backend.h"
#include "nn/layer.h"
#include "nn/optimizer.h"
#include "serve/repository.h"
#include "trace.h"

namespace perfbench {

/** Which of a layer's three training GEMMs a call is. */
enum class GemmKind
{
    Fwd,
    Wgrad,
    Dgrad,
};

inline constexpr std::array<const char *, 3> kGemmKindNames = {
    "fwd", "wgrad", "dgrad"};

/** Span names by kind (string literals, as Span::name requires). */
inline constexpr std::array<const char *, 3> kGemmSpanNames = {
    "numerics.gemm.fwd", "numerics.gemm.wgrad", "numerics.gemm.dgrad"};

/** A GEMM-bearing layer instance, in forward order. */
struct GemmLayerInfo
{
    std::string path;       ///< e.g. "l3.main.l0.conv".
    int64_t weight_elems = 0;
};

/** One (layer instance, kind) GEMM site and its shape. */
struct GemmSite
{
    int layer = -1;
    GemmKind kind = GemmKind::Fwd;
    int m = 0, k = 0, n = 0;
    uint64_t calls = 0;
};

/**
 * State shared by one trainer's decorators: the span log, the step the
 * driving thread is in, and that step's root span (replica threads take
 * it as their parent).
 */
struct TrainProbe
{
    explicit TrainProbe(SpanLog &log) : log(log) {}

    SpanLog &log;
    std::atomic<uint64_t> step_id{0};
    std::atomic<uint64_t> step_uid{0};
    int next_replica = 0; ///< Factory calls so far (driving thread only).
};

/**
 * GemmBackend decorator: attributes every call to the layer instance and
 * GEMM kind that issued it and, when tracing, records one span per call
 * tagged with that site. One instance per replica, so its state is
 * single-threaded.
 */
class TimedBackend final : public mirage::nn::GemmBackend
{
  public:
    TimedBackend(mirage::nn::GemmBackend &inner, TrainProbe &probe,
                 int replica);

    std::string name() const override { return inner_.name(); }
    using mirage::nn::GemmBackend::gemm;
    void gemm(std::span<const float> a, std::span<const float> b, int m,
              int k, int n, bool a_is_grad, bool b_is_grad,
              std::span<float> out) override;

    /** Installs the model's GEMM layers once the model is built. */
    void setLayers(std::vector<GemmLayerInfo> layers);
    const std::vector<GemmLayerInfo> &layers() const { return layers_; }

    /** Marks the start of a forward or backward pass over the model. */
    void beginPass(bool backward);

    /** Sites indexed layer * 3 + kind; shapes are set on first call. */
    const std::vector<GemmSite> &sites() const { return sites_; }

    /** Calls whose layer or kind could not be attributed. */
    uint64_t unattributed() const { return unattributed_; }

  private:
    /** Site index of the next call in the current pass; -1 if unknown. */
    int classify(int m, int n);

    mirage::nn::GemmBackend &inner_;
    TrainProbe &probe_;
    int replica_;
    std::vector<GemmLayerInfo> layers_;
    std::vector<GemmSite> sites_;
    bool backward_ = false;
    int pass_calls_ = 0;
    uint64_t unattributed_ = 0;
};

/**
 * Layer decorator around a whole network: one span per forward and per
 * backward pass of a replica, parented to the driving thread's step
 * span. Owns the replica's TimedBackend so the model's layers, which
 * hold it by raw pointer, never outlive it.
 */
class TimedLayer final : public mirage::nn::Layer
{
  public:
    TimedLayer(std::unique_ptr<mirage::nn::Sequential> inner,
               std::unique_ptr<TimedBackend> backend, TrainProbe &probe,
               int replica);

    std::string name() const override { return inner_->name(); }
    mirage::nn::Tensor forward(const mirage::nn::Tensor &x,
                               bool training) override;
    mirage::nn::Tensor backward(const mirage::nn::Tensor &grad_out) override;
    std::vector<mirage::nn::Param *> params() override
    {
        return inner_->params();
    }
    void appendNamedParams(const std::string &prefix,
                           std::vector<mirage::nn::NamedParam> &out) override
    {
        inner_->appendNamedParams(prefix, out);
    }

    const TimedBackend &backend() const { return *backend_; }

  private:
    std::unique_ptr<TimedBackend> backend_;
    std::unique_ptr<mirage::nn::Sequential> inner_;
    TrainProbe &probe_;
    int replica_;
};

/** Optimizer decorator: one span per step(); everything else forwards. */
class TimedOptimizer final : public mirage::nn::Optimizer
{
  public:
    TimedOptimizer(std::unique_ptr<mirage::nn::Optimizer> inner,
                   TrainProbe &probe);

    void step(const std::vector<mirage::nn::Param *> &params) override;
    float lr() const override { return inner_->lr(); }
    void setLr(float lr) override { inner_->setLr(lr); }
    std::string typeName() const override { return inner_->typeName(); }
    std::vector<std::string> stateSlots() const override
    {
        return inner_->stateSlots();
    }
    std::vector<float> stateSlot(const mirage::nn::Param *p,
                                 const std::string &slot) const override
    {
        return inner_->stateSlot(p, slot);
    }
    void setStateSlot(mirage::nn::Param *p, const std::string &slot,
                      std::vector<float> data) override
    {
        inner_->setStateSlot(p, slot, std::move(data));
    }
    int64_t stepCount() const override { return inner_->stepCount(); }
    void setStepCount(int64_t t) override { inner_->setStepCount(t); }

  private:
    std::unique_ptr<mirage::nn::Optimizer> inner_;
    TrainProbe &probe_;
};

/**
 * A ModelFactory building `build(backend, rng)` behind the decorators.
 * Each call is one replica (the Trainer calls it once per replica, in
 * order); `layers_out`, when given, receives each replica's TimedLayer.
 */
mirage::serve::ModelFactory timedFactory(
    TrainProbe &probe, mirage::serve::ModelFactory build,
    std::vector<const TimedLayer *> *layers_out);

} // namespace perfbench

#endif // PERFBENCH_DECORATORS_H
