#include "decorators.h"

#include <utility>

namespace perfbench {

using mirage::nn::Param;
using mirage::nn::Tensor;

TimedBackend::TimedBackend(mirage::nn::GemmBackend &inner, TrainProbe &probe,
                           int replica)
    : inner_(inner), probe_(probe), replica_(replica)
{
}

void
TimedBackend::setLayers(std::vector<GemmLayerInfo> layers)
{
    layers_ = std::move(layers);
    sites_.assign(layers_.size() * 3, GemmSite{});
    for (size_t l = 0; l < layers_.size(); ++l)
        for (int kind = 0; kind < 3; ++kind) {
            GemmSite &s = sites_[l * 3 + static_cast<size_t>(kind)];
            s.layer = static_cast<int>(l);
            s.kind = static_cast<GemmKind>(kind);
        }
}

void
TimedBackend::beginPass(bool backward)
{
    backward_ = backward;
    pass_calls_ = 0;
}

int
TimedBackend::classify(int m, int n)
{
    const int layers = static_cast<int>(layers_.size());
    const int call = pass_calls_++;
    if (!backward_)
        return call < layers ? call * 3 + static_cast<int>(GemmKind::Fwd)
                             : -1;
    // Backward visits the layers in reverse, two GEMMs each (in either
    // order); the weight gradient is the one whose output has the
    // weight's shape.
    const int layer = layers - 1 - call / 2;
    if (layer < 0)
        return -1;
    const bool wgrad = static_cast<int64_t>(m) * n ==
                       layers_[static_cast<size_t>(layer)].weight_elems;
    return layer * 3 + static_cast<int>(wgrad ? GemmKind::Wgrad
                                              : GemmKind::Dgrad);
}

void
TimedBackend::gemm(std::span<const float> a, std::span<const float> b, int m,
                   int k, int n, bool a_is_grad, bool b_is_grad,
                   std::span<float> out)
{
    const int site = classify(m, n);
    if (site < 0) {
        ++unattributed_;
    } else {
        GemmSite &s = sites_[static_cast<size_t>(site)];
        s.m = m;
        s.k = k;
        s.n = n;
        ++s.calls;
    }
    const char *span_name =
        site < 0 ? "numerics.gemm" : kGemmSpanNames[static_cast<size_t>(site % 3)];
    SpanScope span(probe_.log, span_name,
                   probe_.step_id.load(std::memory_order_relaxed), replica_);
    span.setTag(site);
    inner_.gemm(a, b, m, k, n, a_is_grad, b_is_grad, out);
}

TimedLayer::TimedLayer(std::unique_ptr<mirage::nn::Sequential> inner,
                       std::unique_ptr<TimedBackend> backend,
                       TrainProbe &probe, int replica)
    : backend_(std::move(backend)), inner_(std::move(inner)), probe_(probe),
      replica_(replica)
{
    // GEMM-bearing layers in forward order: the named-parameter walk
    // visits layers in the order forward runs them.
    std::vector<GemmLayerInfo> layers;
    for (const mirage::nn::NamedParam &np : inner_->namedParams()) {
        const std::string &path = np.path;
        for (const char *suffix : {"conv.weight", "dense.weight"}) {
            const std::string s(suffix);
            if (path.size() >= s.size() &&
                path.compare(path.size() - s.size(), s.size(), s) == 0)
                layers.push_back({path.substr(0, path.size() - 7),
                                  np.param->value.size()});
        }
    }
    backend_->setLayers(std::move(layers));
}

Tensor
TimedLayer::forward(const Tensor &x, bool training)
{
    SpanScope span(probe_.log, "nn.fwd",
                   probe_.step_id.load(std::memory_order_relaxed), replica_,
                   probe_.step_uid.load(std::memory_order_relaxed));
    backend_->beginPass(/*backward=*/false);
    return inner_->forward(x, training);
}

Tensor
TimedLayer::backward(const Tensor &grad_out)
{
    SpanScope span(probe_.log, "nn.bwd",
                   probe_.step_id.load(std::memory_order_relaxed), replica_,
                   probe_.step_uid.load(std::memory_order_relaxed));
    backend_->beginPass(/*backward=*/true);
    return inner_->backward(grad_out);
}

TimedOptimizer::TimedOptimizer(std::unique_ptr<mirage::nn::Optimizer> inner,
                               TrainProbe &probe)
    : inner_(std::move(inner)), probe_(probe)
{
}

void
TimedOptimizer::step(const std::vector<Param *> &params)
{
    SpanScope span(probe_.log, "nn.optimizer",
                   probe_.step_id.load(std::memory_order_relaxed), -1);
    inner_->step(params);
}

mirage::serve::ModelFactory
timedFactory(TrainProbe &probe, mirage::serve::ModelFactory build,
             std::vector<const TimedLayer *> *layers_out)
{
    return [&probe, build = std::move(build),
            layers_out](mirage::nn::GemmBackend *backend, mirage::Rng &rng) {
        const int replica = probe.next_replica++;
        auto timed = std::make_unique<TimedBackend>(*backend, probe, replica);
        auto net = build(timed.get(), rng);
        auto layer = std::make_unique<TimedLayer>(std::move(net),
                                                  std::move(timed), probe,
                                                  replica);
        if (layers_out != nullptr)
            layers_out->push_back(layer.get());
        auto model = std::make_unique<mirage::nn::Sequential>();
        model->add(std::move(layer));
        return model;
    };
}

} // namespace perfbench
