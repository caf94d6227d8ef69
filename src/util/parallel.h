#ifndef TRICLUST_SRC_UTIL_PARALLEL_H_
#define TRICLUST_SRC_UTIL_PARALLEL_H_

#include <cstddef>
#include <functional>

namespace triclust {

/// Compute parallelism for the solver kernels.
///
/// The hot kernels of Algorithm 1/2 (SpMM, the dense k×k algebra, the loss
/// reductions) are row-partitionable, so they all funnel through the two
/// primitives below, backed by one persistent process-wide worker pool.
/// Workers are spawned lazily on the first parallel call and reused for the
/// lifetime of the process; a solver iteration therefore never pays thread
/// creation cost.
///
/// The ONE width mechanism is the thread-local ThreadBudget: every
/// ParallelFor/ParallelReduce call runs at the width of the innermost
/// budget installed on the calling thread (ScopedThreadBudget), or at
/// width 1 when none is installed.
/// Budgets do not leak downward: a chunk body starts with no installed
/// budget, so a parallel call inside it runs serially unless the body
/// installs its own. The pool accepts concurrent jobs from any thread,
/// including its own workers, so a body that does install a budget fans
/// out again on the shared workers.
///
/// Determinism contract — results are bit-identical at EVERY width:
///  - ParallelFor: each index is processed by exactly one thread with the
///    same per-index code as the serial loop, so kernels that write
///    disjoint output rows are bit-identical for every width.
///  - ParallelReduce: the range is cut into fixed-size chunks (independent
///    of the width), chunk partial sums are combined in chunk order, and
///    the 1-width path walks the *same* chunks in the same combine order
///    serially. Results are therefore bit-identical across all widths,
///    including 1 — which is what lets a fit running under any budget
///    reproduce a standalone serial fit exactly.
///
/// Width resolution of a budget: 0 = std::thread::hardware_concurrency(),
/// 1 = strict serial (no pool involvement), n = at most n concurrent
/// threads (the calling thread participates as one of them). An
/// oversubscribed schedule (budgets summing past the pool) degrades
/// gracefully: helpers are a scheduling hint, each job always makes
/// progress on its submitting thread, and results never depend on how many
/// helpers actually joined.

/// The width the *next* ParallelFor/ParallelReduce on this thread would
/// use: the innermost installed budget, else 1 (always ≥ 1). Exposed for
/// tests and for kernels that pick an algorithm by width.
int CurrentParallelWidth();

/// A thread budget: how many concurrent threads one solver fit may occupy.
/// A budget is a plain value — copy it, store it in a workspace, pass it
/// down — and takes effect only while installed on a thread via
/// ScopedThreadBudget. 0 resolves to hardware concurrency; an *ambient*
/// budget (the default-constructed value) means "no opinion": installing
/// it is a no-op and the thread keeps its current width.
class ThreadBudget {
 public:
  /// Ambient: defer to the calling context (its installed budget, else 1).
  ThreadBudget() : threads_(kAmbient) {}
  /// Explicit budget of `threads` (≥ 0; 0 = hardware concurrency).
  explicit ThreadBudget(int threads);

  static ThreadBudget Ambient() { return ThreadBudget(); }
  static ThreadBudget Serial() { return ThreadBudget(1); }

  bool is_ambient() const { return threads_ == kAmbient; }
  /// The raw setting (0 = auto). Must not be called on an ambient budget.
  int threads() const;
  /// The resolved concurrent-thread width, always ≥ 1. Must not be called
  /// on an ambient budget.
  int resolved() const;

 private:
  friend class ScopedThreadBudget;
  static constexpr int kAmbient = -1;
  int threads_;
};

/// RAII: installs `budget` as the calling thread's budget for the scope's
/// lifetime, restoring the previous state on destruction. Installing an
/// ambient budget is a no-op (the previous state stays in effect). Scopes
/// nest (innermost wins) and are THREAD-LOCAL: budgets on different
/// threads are fully independent, so concurrent fits with different
/// budgets never stomp each other.
///
/// Spell it with braces — `ScopedThreadBudget scope{ThreadBudget(n)};`.
/// With parentheses and a named argument the line declares a function
/// (most vexing parse) and installs nothing.
class ScopedThreadBudget {
 public:
  explicit ScopedThreadBudget(ThreadBudget budget);
  ~ScopedThreadBudget();
  ScopedThreadBudget(const ScopedThreadBudget&) = delete;
  ScopedThreadBudget& operator=(const ScopedThreadBudget&) = delete;

 private:
  int previous_;
  bool installed_;
};

/// Runs body(chunk_begin, chunk_end) over disjoint sub-ranges covering
/// [begin, end). `grain` is the minimum chunk size (load-balancing hint;
/// does not affect results for disjoint-output bodies). With a width of 1
/// (CurrentParallelWidth), or a range no larger than `grain`, runs
/// body(begin, end) inline on the calling thread, under its budget.
///
/// Thread safety: callable from any thread, including pool workers. Calls
/// from distinct threads run as concurrent pool jobs sharing the worker
/// set; a chunk body that installs a ThreadBudget may itself call
/// ParallelFor at that width. The caller must ensure bodies on
/// different sub-ranges touch disjoint data.
///
/// Bodies should not throw: an exception on the calling thread is
/// propagated only after all pool workers drained the job, and an
/// exception on a worker thread terminates the process (std::thread
/// semantics). The solver kernels satisfy this — they only fail via
/// TRICLUST_CHECK, which aborts.
void ParallelFor(size_t begin, size_t end, size_t grain,
                 const std::function<void(size_t, size_t)>& body);

/// Sum of chunk_sum(chunk_begin, chunk_end) over fixed-size chunks of
/// [begin, end), combined in chunk order. `grain` is the fixed chunk size
/// and must not depend on the width. Bit-identical at every width,
/// including 1 (see the determinism contract above). Thread safety: as
/// ParallelFor; chunk_sum must be a pure function of its range (it may run
/// on any thread, in any order).
double ParallelReduce(size_t begin, size_t end, size_t grain,
                      const std::function<double(size_t, size_t)>& chunk_sum);

/// Default fixed chunk sizes for the reductions (rows of a factor matrix /
/// flat element ranges). Exposed so tests can mirror the chunking.
inline constexpr size_t kReduceRowGrain = 1024;
inline constexpr size_t kReduceFlatGrain = 8192;

}  // namespace triclust

#endif  // TRICLUST_SRC_UTIL_PARALLEL_H_
