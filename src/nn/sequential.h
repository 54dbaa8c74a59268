/**
 * @file
 * Sequential container of modules.
 */

#ifndef SUPERBNN_NN_SEQUENTIAL_H
#define SUPERBNN_NN_SEQUENTIAL_H

#include "nn/module.h"

namespace superbnn::nn {

/** Runs its children in order; backward in reverse order. */
class Sequential : public Module
{
  public:
    Sequential() = default;

    /** Append a layer; returns a reference for chaining. */
    Sequential &add(ModulePtr module);

    /** Typed emplace helper: net.emplace<BinaryLinear>(...). */
    template <typename T, typename... Args>
    T &
    emplace(Args &&...args)
    {
        auto mod = std::make_unique<T>(std::forward<Args>(args)...);
        T &ref = *mod;
        layers.push_back(std::move(mod));
        return ref;
    }

    Tensor forward(const Tensor &input, bool training) override;

    Tensor backward(const Tensor &grad_output) override;

    /**
     * The reverse walk without the network's input gradient: it ends
     * at the first child with parameters, which runs
     * backwardParameters(); the children before it have nothing to
     * accumulate.
     */
    void backwardParameters(const Tensor &grad_output) override;

    std::vector<Parameter *> parameters() override;
    std::string name() const override { return "Sequential"; }

    std::size_t size() const { return layers.size(); }
    Module &layer(std::size_t i) { return *layers[i]; }
    const Module &layer(std::size_t i) const { return *layers[i]; }

  private:
    std::vector<ModulePtr> layers;
};

} // namespace superbnn::nn

#endif // SUPERBNN_NN_SEQUENTIAL_H
