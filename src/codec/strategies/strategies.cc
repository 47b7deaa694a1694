/**
 * @file
 * Strategy selection: resolves VTRANS_KERNEL_ISA / setKernelIsa() to one
 * of the backend tables and publishes it for the hot-path kernels()
 * accessor. Also holds the calling thread's simulated kernel cost model
 * (scalar vs vector probe sites).
 */

#include "codec/strategies/strategies.h"

#include <cstdlib>

#include "common/status.h"

namespace vtrans::codec {

namespace detail {

std::atomic<const KernelOps*> g_kernels{nullptr};
constinit thread_local KernelModel t_kernel_model = KernelModel::Scalar;

namespace {

/** Best table this build + CPU supports. */
const KernelOps*
bestKernels()
{
    if (const KernelOps* avx2 = avx2Kernels()) {
        return avx2;
    }
    if (const KernelOps* sse41 = sse41Kernels()) {
        return sse41;
    }
    return &scalarKernels();
}

/** Maps a backend name to its table; nullptr when unknown/unsupported. */
const KernelOps*
lookupKernels(const std::string& name)
{
    if (name == "auto") {
        return bestKernels();
    }
    if (name == "scalar") {
        return &scalarKernels();
    }
    if (name == "sse41") {
        return sse41Kernels();
    }
    if (name == "avx2") {
        return avx2Kernels();
    }
    return nullptr;
}

} // namespace

const KernelOps*
initKernels()
{
    const char* env = std::getenv("VTRANS_KERNEL_ISA");
    const KernelOps* table = nullptr;
    if (env != nullptr && env[0] != '\0') {
        table = lookupKernels(env);
        if (table == nullptr) {
            VT_WARN("VTRANS_KERNEL_ISA=", env,
                    " unknown or unsupported; using auto");
        }
    }
    if (table == nullptr) {
        table = bestKernels();
    }
    // First-wins under concurrent first use: both threads computed the
    // same env-derived answer, so either store is fine.
    const KernelOps* expected = nullptr;
    g_kernels.compare_exchange_strong(expected, table,
                                      std::memory_order_relaxed);
    return g_kernels.load(std::memory_order_relaxed);
}

} // namespace detail

bool
setKernelIsa(const std::string& name)
{
    const KernelOps* table = detail::lookupKernels(name);
    if (table == nullptr) {
        return false;
    }
    detail::g_kernels.store(table, std::memory_order_relaxed);
    return true;
}

std::string
kernelIsa()
{
    return kernels().name;
}

std::vector<std::string>
availableKernelIsas()
{
    std::vector<std::string> isas{"scalar"};
    if (sse41Kernels() != nullptr) {
        isas.emplace_back("sse41");
    }
    if (avx2Kernels() != nullptr) {
        isas.emplace_back("avx2");
    }
    return isas;
}

bool
parseKernelModel(const std::string& name, KernelModel* model)
{
    if (name != "scalar" && name != "vector") {
        return false;
    }
    *model = name == "vector" ? KernelModel::Vector : KernelModel::Scalar;
    return true;
}

} // namespace vtrans::codec
