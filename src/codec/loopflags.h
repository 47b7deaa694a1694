#ifndef VTRANS_CODEC_LOOPFLAGS_H_
#define VTRANS_CODEC_LOOPFLAGS_H_

/**
 * @file
 * Loop-optimization switches for the codec's hot pixel loops — the
 * concrete transformations the Graphite polyhedral pass applies when
 * FFmpeg is compiled with -floop-interchange -ftree-loop-distribution
 * -floop-block (paper §III-D1). Each switch selects a semantically
 * identical loop schedule with better locality:
 *
 *  - interchange_deblock: the vertical-edge deblocking pass walks the
 *    frame column-major by default (edge-by-edge); interchanged, it walks
 *    row-major, turning a strided miss storm into sequential reuse.
 *  - fuse_lookahead: the lookahead computes intra and inter cost proxies
 *    in two separate passes over the half-resolution planes; fused, each
 *    block's pixels are loaded once for both.
 *
 * Both schedules produce bit-identical output: the
 * Integration.LoopOptFlagsDoNotChangeOutput and
 * ParallelSweep.BinaryIsAValue tests check the output identity.
 *
 * The flags and the kernel model (strategies.h) describe how the
 * simulated binary was built, so they belong to a run: a `BuildScope`
 * selects both for the calling thread (core::runInstrumented opens one
 * from `RunConfig::binary`). Outside any scope a thread runs the
 * default build: no loop restructuring, scalar kernels.
 */

#include "codec/strategies/strategies.h"

namespace vtrans::codec {

/** Which Graphite-style loop transformations are active. */
struct LoopOptFlags
{
    bool interchange_deblock = false;
    bool fuse_lookahead = false;
};

namespace detail {
extern constinit thread_local LoopOptFlags t_loop_flags;
} // namespace detail

/** The loop flags the calling thread's codec runs with. Returned by
 *  value: GCC 12's UBSan null check on a reference to a thread-local
 *  tests stale flags and reports a null member access. */
inline LoopOptFlags
loopOptFlags()
{
    return detail::t_loop_flags;
}

/** Selects the calling thread's loop flags and kernel model for the
 *  scope's lifetime, and restores the previous ones on exit. */
class BuildScope
{
  public:
    BuildScope(const LoopOptFlags& loops, KernelModel kernels);
    ~BuildScope();

    BuildScope(const BuildScope&) = delete;
    BuildScope& operator=(const BuildScope&) = delete;

  private:
    LoopOptFlags saved_loops_;
    KernelModel saved_kernels_;
};

} // namespace vtrans::codec

#endif // VTRANS_CODEC_LOOPFLAGS_H_
