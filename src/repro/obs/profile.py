"""Kernel-level deterministic instrumentation profiler.

Spans (:mod:`repro.obs.tracer`) attribute exclusive time per *expression*;
this module attributes it per *kernel* — the named inner loops the
ROADMAP's raw-speed arc needs ranked before anything is ported to a
compiled backend:

===================  =========================================================
kernel               what it covers
===================  =========================================================
``enum.recurse``     the search driver itself: ``GetBestPlan`` recursion glue,
                     plan comparisons, bounding arithmetic
``partition.*``      one partition-strategy invocation step (``next()`` on the
                     partition generator); the suffix names the strategy
                     family — ``partition.mincut`` (Algorithm 4),
                     ``partition.mincut_probe`` (Algorithm 6),
                     ``partition.articulation`` (left-deep minimal cuts),
                     ``partition.peel`` (naive left-deep)
``enum.subsets``     bitset subset enumeration (``iter_subsets``-driven naive
                     bushy generate-and-test)
``partition.bcc_build``  biconnection-tree construction inside the minimal-cut
                     strategies (nested under the partition kernel)
``memo.table``       memo probes, plan decodes, stores, and evictions
``cost.eval``        every cost-model call: scans, operator costing, join and
                     sort plan assembly, predicted-cost lower bounds
===================  =========================================================

The profiler mirrors the tracer's NULL-object contract: hot paths test
one ``enabled``/``self._profiling`` flag and pay nothing when profiling
is off (:data:`NULL_PROFILER`); ``benchmarks/bench_profile.py`` gates
that disabled-path overhead.  When on, :class:`RecordingProfiler` keeps a
frame stack and attributes *exclusive* wall time — a frame's inclusive
time minus its nested kernel frames — plus deterministic call and
operation counts, so two seeded runs always agree on everything except
the wall-clock columns (compare :meth:`RecordingProfiler.deterministic_table`).

Collapsed-stack output (:meth:`RecordingProfiler.collapsed`) is the
standard ``frame;frame value`` flamegraph format (values in integer
microseconds), directly consumable by ``flamegraph.pl``, speedscope, or
``inferno-flamegraph``; see ``docs/profiling.md``.
"""

from __future__ import annotations

from typing import Any, Iterator

from repro.obs.timing import clock

__all__ = [
    "KERNEL_SEARCH",
    "KERNEL_BCC_BUILD",
    "KERNEL_MEMO",
    "KERNEL_COST",
    "KernelProfiler",
    "NullProfiler",
    "NULL_PROFILER",
    "RecordingProfiler",
    "ProfiledMemoCalls",
    "profiled_iter",
    "render_kernel_table",
]

#: The search-driver glue kernel (one frame wrapping the whole search).
KERNEL_SEARCH = "enum.recurse"
#: Biconnection-tree construction (nested inside a partition kernel).
KERNEL_BCC_BUILD = "partition.bcc_build"
#: Memo probes, decodes, stores, and evictions.
KERNEL_MEMO = "memo.table"
#: Cost-model evaluation: scans, operator costs, plan assembly, bounds.
KERNEL_COST = "cost.eval"


class KernelProfiler:
    """Profiler interface; every method is optional to override.

    ``enabled`` is the zero-overhead switch, exactly like
    :attr:`~repro.obs.tracer.Tracer.enabled`: instrumented code tests it
    once (or caches it as ``self._profiling``) and skips all profiler
    calls when false.
    """

    enabled: bool = True

    def enter(self, kernel: str) -> None:
        """Open a kernel frame (stack-nested; close with :meth:`exit`)."""

    def exit(self) -> None:
        """Close the innermost open kernel frame."""

    def count(self, kernel: str, op: str, amount: int = 1) -> None:
        """Add a deterministic operation count to a kernel."""


class NullProfiler(KernelProfiler):
    """The zero-overhead default: records nothing, never consulted."""

    enabled = False


#: Shared do-nothing profiler; identity-compared in hot paths.
NULL_PROFILER = NullProfiler()


class RecordingProfiler(KernelProfiler):
    """Accumulates per-kernel exclusive time, calls, ops, and stacks.

    A *frame* is one ``enter``/``exit`` pair.  Its exclusive time is its
    inclusive wall time minus the inclusive time of kernel frames nested
    inside it, so summing exclusive time over every kernel reproduces the
    root frame's inclusive time (the same attribution the tracer uses for
    per-span counters).  Stacks are aggregated by kernel path for
    collapsed-stack flamegraph export.
    """

    enabled = True

    def __init__(self) -> None:
        #: Exclusive wall seconds per kernel.
        self.seconds: dict[str, float] = {}
        #: Closed frames per kernel (deterministic for a seeded run).
        self.calls: dict[str, int] = {}
        #: Named operation counts per kernel (deterministic).
        self.ops: dict[str, dict[str, int]] = {}
        #: Exclusive wall seconds per kernel path (for flamegraphs).
        self.stacks: dict[tuple[str, ...], float] = {}
        # Open frames: [kernel, started_at, child_inclusive_seconds].
        self._stack: list[list[Any]] = []

    # -- recording ---------------------------------------------------------------

    def enter(self, kernel: str) -> None:
        self._stack.append([kernel, clock(), 0.0])

    def exit(self) -> None:
        kernel, started, child_seconds = self._stack.pop()
        inclusive = clock() - started
        exclusive = inclusive - child_seconds
        if exclusive < 0.0:
            exclusive = 0.0
        self.seconds[kernel] = self.seconds.get(kernel, 0.0) + exclusive
        self.calls[kernel] = self.calls.get(kernel, 0) + 1
        if self._stack:
            frame = self._stack[-1]
            frame[2] += inclusive
            path = tuple(open_frame[0] for open_frame in self._stack) + (kernel,)
        else:
            path = (kernel,)
        self.stacks[path] = self.stacks.get(path, 0.0) + exclusive

    def count(self, kernel: str, op: str, amount: int = 1) -> None:
        ops = self.ops.get(kernel)
        if ops is None:
            ops = self.ops[kernel] = {}
        ops[op] = ops.get(op, 0) + amount

    # -- views -------------------------------------------------------------------

    def kernels(self) -> list[str]:
        """Every kernel observed (frames or ops), sorted by name."""
        return sorted(set(self.seconds) | set(self.ops))

    def total_seconds(self) -> float:
        """Sum of exclusive time over every kernel (= root inclusive)."""
        return sum(self.seconds.values())

    def table(self) -> list[dict[str, Any]]:
        """Per-kernel rows sorted by exclusive time, largest first."""
        total = self.total_seconds()
        rows = []
        for kernel in self.kernels():
            seconds = self.seconds.get(kernel, 0.0)
            rows.append(
                {
                    "kernel": kernel,
                    "calls": self.calls.get(kernel, 0),
                    "exclusive_s": seconds,
                    "share": seconds / total if total > 0 else 0.0,
                    "ops": dict(sorted(self.ops.get(kernel, {}).items())),
                }
            )
        rows.sort(key=lambda row: (-row["exclusive_s"], row["kernel"]))
        return rows

    def deterministic_table(self) -> list[dict[str, Any]]:
        """The wall-clock-free view: two seeded runs yield identical tables."""
        return [
            {"kernel": kernel, "calls": self.calls.get(kernel, 0),
             "ops": dict(sorted(self.ops.get(kernel, {}).items()))}
            for kernel in self.kernels()
        ]

    def report(self, wall_seconds: float | None = None) -> dict[str, Any]:
        """JSON-ready summary; ``wall_seconds`` adds shares of end-to-end wall."""
        total = self.total_seconds()
        rows = self.table()
        if wall_seconds is not None and wall_seconds > 0:
            for row in rows:
                row["share_of_wall"] = row["exclusive_s"] / wall_seconds
        report: dict[str, Any] = {
            "total_profiled_s": total,
            "kernels": rows,
        }
        if wall_seconds is not None:
            report["wall_s"] = wall_seconds
            if wall_seconds > 0:
                report["coverage_of_wall"] = total / wall_seconds
        return report

    def collapsed(self) -> str:
        """Collapsed-stack flamegraph text: ``a;b <microseconds>`` lines."""
        lines = []
        for path in sorted(self.stacks):
            micros = int(round(self.stacks[path] * 1e6))
            lines.append(f"{';'.join(path)} {micros}")
        return "\n".join(lines)


def render_kernel_table(
    profiler: RecordingProfiler, *, kernels: list[str] | None = None
) -> str:
    """Human-readable per-kernel summary table.

    ``kernels`` optionally restricts the rows (shares stay relative to
    the full profiled total, so a filtered table still reads honestly).
    """
    rows = profiler.table()
    if kernels is not None:
        wanted = set(kernels)
        rows = [row for row in rows if row["kernel"] in wanted]
    if not rows:
        return "(no kernel frames recorded)"
    width = max(len(row["kernel"]) for row in rows)
    lines = [f"{'kernel'.ljust(width)}  {'calls':>10}  {'excl ms':>10}  {'share':>6}"]
    for row in rows:
        ops = " ".join(f"{op}={n}" for op, n in row["ops"].items())
        lines.append(
            f"{row['kernel'].ljust(width)}  {row['calls']:>10}  "
            f"{row['exclusive_s'] * 1e3:>10.3f}  {row['share'] * 100:>5.1f}%"
            + (f"  ({ops})" if ops else "")
        )
    return "\n".join(lines)


def profiled_iter(
    profiler: KernelProfiler,
    kernel: str,
    iterator: Iterator[Any],
    op: str | None = None,
) -> Iterator[Any]:
    """Attribute the time spent *inside* ``iterator`` to ``kernel``.

    Each ``next()`` runs under its own frame, so time spent in the
    consumer's loop body stays outside the kernel — exactly the
    generator-boundary attribution a sampling profiler cannot give.
    """
    while True:
        profiler.enter(kernel)
        try:
            item = next(iterator)
        except StopIteration:
            profiler.exit()
            return
        if op is not None:
            profiler.count(kernel, op)
        profiler.exit()
        yield item


class ProfiledMemoCalls:
    """Attribute memo probes/decodes/stores to :data:`KERNEL_MEMO`.

    A duck-typed stand-in for the hot subset of the
    :class:`~repro.memo.MemoTable` API the enumerator calls per recursion
    step; everything else (setup, summaries) still goes through the
    wrapped table directly.  Eviction counts are reported by the
    memo itself via :meth:`~repro.memo.MemoTable.attach_profiler`.
    """

    def __init__(self, memo: Any, profiler: KernelProfiler) -> None:
        self._memo = memo
        self._profiler = profiler

    def get(self, query: Any, subset: int, order: int | None) -> Any:
        profiler = self._profiler
        profiler.enter(KERNEL_MEMO)
        try:
            return self._memo.get(query, subset, order)
        finally:
            profiler.count(KERNEL_MEMO, "probes")
            profiler.exit()

    def plan_for_query(self, query: Any, entry: Any) -> Any:
        profiler = self._profiler
        profiler.enter(KERNEL_MEMO)
        try:
            return self._memo.plan_for_query(query, entry)
        finally:
            profiler.count(KERNEL_MEMO, "decodes")
            profiler.exit()

    def store_plan(
        self, query: Any, subset: int, order: int | None, plan: Any
    ) -> None:
        profiler = self._profiler
        profiler.enter(KERNEL_MEMO)
        try:
            self._memo.store_plan(query, subset, order, plan)
        finally:
            profiler.count(KERNEL_MEMO, "stores")
            profiler.exit()

    def store_lower_bound(
        self,
        query: Any,
        subset: int,
        order: int | None,
        budget: float,
        *,
        frontier: Any = None,
    ) -> None:
        profiler = self._profiler
        profiler.enter(KERNEL_MEMO)
        try:
            self._memo.store_lower_bound(
                query, subset, order, budget, frontier=frontier
            )
        finally:
            profiler.count(KERNEL_MEMO, "stores")
            profiler.exit()
