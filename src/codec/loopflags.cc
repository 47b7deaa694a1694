#include "codec/loopflags.h"

namespace vtrans::codec {

namespace detail {

constinit thread_local LoopOptFlags t_loop_flags;

} // namespace detail

BuildScope::BuildScope(const LoopOptFlags& loops, KernelModel kernels)
    : saved_loops_(detail::t_loop_flags),
      saved_kernels_(detail::t_kernel_model)
{
    detail::t_loop_flags = loops;
    detail::t_kernel_model = kernels;
}

BuildScope::~BuildScope()
{
    detail::t_loop_flags = saved_loops_;
    detail::t_kernel_model = saved_kernels_;
}

} // namespace vtrans::codec
