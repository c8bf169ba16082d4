"""Generated per-shape kernels for the compiled front end's ``OP_LOOP``.

Each distinct loop *shape* — slot kinds, strides and work costs, i.e. an
``OP_LOOP`` body (apps/opstream.py) without its base addresses — gets one
Python function, generated from source under the processor's template
:data:`Options` and cached at module level.  Every constant is folded
into the source, so the kernel has no slot dispatch, no body indexing and
no option branch per element.

A kernel executes elements with exactly the per-element semantics of the
generator front end (``Processor._run``), down to the L1's absolute LRU
tick values, and returns only at the end of the loop, at a quantum yield,
on an L1+L2 read miss (the element advanced past) or on a full write
buffer (the store not retired).  DESIGN.md §13.2 has the details.
:func:`kernel_source` renders a kernel; tracebacks through one show its
generated lines (each is registered with ``linecache``).
"""

from __future__ import annotations

import linecache
from typing import Callable, Dict, List, Sequence, Tuple

from ..apps.opstream import SLOT_R, SLOT_W, SLOT_WORK
from ..cache.states import LineState

#: exit status, the first item of a kernel's return tuple
LOOP_DONE = 0      # every iteration retired
LOOP_YIELD = 1     # ran a quantum ahead of global time
LOOP_MISS = 2      # read missed L1 and L2; the last item is its address
LOOP_WB_FULL = 3   # store found the write buffer full; not retired

#: (block_size, l1_cycles, l2_cycles, store_cycles, l1_lru, trace_values,
#: coded_l1): the processor-wide template options
Options = Tuple[int, int, int, int, bool, bool, bool]
#: per slot (kind, stride) for reads and stores, (SLOT_WORK, cycles) for work
Shape = Tuple[Tuple[int, int], ...]

#: a kernel's arguments (Processor._run_compiled passes its hoisted locals)
#: and return tuple
KERNEL_ARGS = ("body, iters, j, time, stop, entries, wb, push, kick, l1, "
               "slot_get, states, datas, lrus, l1_lookup, l2_lookup, "
               "l1_insert, trace")
KERNEL_RETURNS = "status, time, iters, j, ops, nwb, nl1, nl2, miss"

_KERNELS: Dict[Tuple[Options, Shape], Callable] = {}


def body_shape(body: Sequence[int]) -> Shape:
    """The shape of a flat ``(kind, a, b) * n`` loop body."""
    return tuple([(kind, a if kind == SLOT_WORK else b)
                  for kind, a, b in zip(body[0::3], body[1::3], body[2::3])])


def loop_kernel(body: Sequence[int], options: Options) -> Callable:
    """The (cached) kernel for ``body``'s shape under ``options``."""
    key = (options, body_shape(body))
    kernel = _KERNELS.get(key)
    if kernel is None:
        source = kernel_source(key[1], options)
        filename = f"<loop kernel {len(_KERNELS)}: {key[1]} {options}>"
        linecache.cache[filename] = (len(source), None,
                                     source.splitlines(True), filename)
        namespace = {"SHARED": LineState.SHARED}
        exec(compile(source, filename, "exec"), namespace)
        kernel = _KERNELS[key] = namespace["loop_kernel"]
    return kernel


def kernel_source(shape: Shape, options: Options) -> str:
    """The generated source of the kernel for ``shape`` under ``options``."""
    return _Emitter(shape, options).render()


class _Emitter:
    """Renders one kernel.  Element code comes in two variants: checked
    (advances ``time`` and tests the quantum after every element) and
    unchecked (``fast``: runs inside a run of whole iterations that cannot
    reach the quantum boundary, with ``time`` held at the run's start)."""

    def __init__(self, shape: Shape, options: Options) -> None:
        (block, self.l1_cycles, self.l2_cycles, self.store_cycles,
         lru, self.trace, self.coded) = options
        self.shape = shape
        self.n = len(shape)
        self.mask = -block
        self.shift = block.bit_length() - 1
        self.tick = self.coded and lru  # the kernel keeps the L1 tick local
        self.lines: List[str] = []
        kinds = [kind for kind, _ in shape]
        cost = [self.l1_cycles if kind == SLOT_R
                else self.store_cycles if kind == SLOT_W else c
                for kind, c in shape]
        # cost before each slot index when every read hits L1
        self.prefix = [sum(cost[:k]) for k in range(self.n + 1)]
        self.reads_before = tuple(kinds[:k].count(SLOT_R)
                                  for k in range(self.n + 1))
        self.stores_before = tuple(kinds[:k].count(SLOT_W)
                                   for k in range(self.n + 1))
        # reads whose stride stays inside a block for two or more elements
        # remember their last L1 line (block m<k>, slot i<k>): a line
        # cannot leave L1 during a kernel call except through the kernel's
        # own refills, which forget every remembered line
        self.memo = [k for k, (kind, stride) in enumerate(shape)
                     if kind == SLOT_R and self.coded
                     and 2 * abs(stride) <= block]

    def put(self, depth: int, text: str) -> None:
        for line in text.split("\n"):
            self.lines.append("    " * depth + line)

    def exit(self, d: int, k: int, status: int, advanced: bool,
             fast: bool) -> None:
        """Leave the loop at element ``k`` (``advanced``: k is consumed)."""
        terms = []
        if fast and self.prefix[self.n]:
            terms.append(f"(iters - left) * {self.prefix[self.n]}")
        if fast and self.prefix[k]:
            terms.append(str(self.prefix[k]))
        if terms:
            self.put(d, f"time += {' + '.join(terms)}")
        nxt = k + 1 if advanced else k
        if nxt == self.n:
            self.put(d, "j = 0\n" + ("iters = left - 1" if fast
                                     else "iters -= 1"))
        else:
            self.put(d, f"j = {nxt}" + ("\niters = left" if fast else ""))
        self.put(d, f"status = {status}\nbreak")

    def read(self, d: int, k: int, stride: int, fast: bool) -> None:
        a = f"a{k}"
        hit = ["tick += 1", "lrus[i] = tick"] if self.tick else []
        if not fast and self.l1_cycles:
            hit.append(f"time += {self.l1_cycles}")
        if self.trace:
            hit.append(f'trace.append(("r", {a}, datas[i], time))')
        self.put(d, f"b = {a} & {self.mask}\n"
                    "if b in entries or b == draining:\n    nwb += 1")
        if not fast and self.l1_cycles:
            self.put(d + 1, f"time += {self.l1_cycles}")
        if k in self.memo:
            self.put(d, f"elif b == m{k}:")
            memo_hit = "\n".join(hit or ["pass"])
            self.put(d + 1, memo_hit.replace("[i]", f"[i{k}]"))
            hit += [f"m{k} = b", f"i{k} = i"]
        self.put(d, "else:")
        if self.coded:
            self.put(d + 1, f"i = slot_get({a} >> {self.shift})\n"
                            "if i is not None and states[i]:")
        else:
            self.put(d + 1, f"data = l1_lookup({a})\nif data is not None:")
            hit = [line.replace("datas[i]", "data") for line in hit]
        self.put(d + 2, "\n".join(hit or ["pass"]))
        self.put(d + 1, "else:")
        e = d + 2
        if self.coded:
            self.put(e, "l1.misses += 1")
        self.put(e, f"data = l2_lookup({a})\nif data is None:\n"
                    f"    miss = {a}")
        if stride:
            self.put(e + 1, f"{a} += {stride}")
        self.exit(e + 1, k, LOOP_MISS, True, fast)
        insert = f"l1_insert({a}, SHARED, data)"
        if self.tick:
            insert = f"l1._tick = tick\n{insert}\ntick = l1._tick"
        self.put(e, insert)
        if self.memo:  # the refill may have evicted a remembered line
            self.put(e, " = ".join(f"m{m}" for m in self.memo) + " = -1")
        self.put(e, "nl2 += 1")
        extra = self.l2_cycles - (self.l1_cycles if fast else 0)
        if extra:
            self.put(e, f"time += {extra}")
        if self.trace:
            self.put(e, f'trace.append(("r", {a}, data, time))')
        if stride:
            self.put(d, f"{a} += {stride}")

    def store(self, d: int, k: int, stride: int, fast: bool) -> None:
        # merges, the common case, are counted at exit from the slot
        # positions: stores advanced minus successful pushes
        self.put(d, f"b = a{k} & {self.mask}\n"
                    "if b != draining and b in entries:\n"
                    "    entries[b] += 1\n"
                    f"elif push(a{k}):\n"
                    "    pushed += 1\n"
                    "else:")
        self.exit(d + 1, k, LOOP_WB_FULL, False, fast)
        self.put(d, "if draining is None:\n"
                    "    kick()\n"
                    "    draining = wb._draining")
        if stride:
            self.put(d, f"a{k} += {stride}")
        if not fast and self.store_cycles:
            self.put(d, f"time += {self.store_cycles}")

    def element(self, d: int, k: int, fast: bool) -> None:
        kind, c = self.shape[k]
        if kind == SLOT_R:
            self.read(d, k, c, fast)
        elif kind == SLOT_W:
            self.store(d, k, c, fast)
        elif not fast and c:
            self.put(d, f"time += {c}")
        if not fast:
            self.put(d, "if time >= stop:")
            self.exit(d + 1, k, LOOP_YIELD, True, False)

    def render(self) -> str:
        put, n = self.put, self.n
        addrs = [k for k, (kind, _) in enumerate(self.shape)
                 if kind != SLOT_WORK]
        put(0, f"def loop_kernel({KERNEL_ARGS}):")
        for k in addrs:
            put(1, f"a{k} = body[{3 * k + 1}]")
        if self.memo:
            put(1, " = ".join(f"m{k}" for k in self.memo) + " = -1\n"
                   + " = ".join(f"i{k}" for k in self.memo) + " = 0")
        put(1, "draining = wb._draining")
        if self.tick:
            put(1, "tick = l1._tick")
        put(1, "iters0 = iters\nj0 = j\nnwb = nl2 = pushed = 0\n"
               "miss = -1\nstatus = 0")
        per_iter = self.prefix[n]
        worst = per_iter + self.reads_before[n] * max(
            0, self.l2_cycles - self.l1_cycles)
        if not self.trace:
            # runs of whole iterations none of which can reach the quantum
            # boundary, even if every read hits only in L2
            put(1, f"limit = stop - {worst}\nwhile iters:\n"
                   "    if j == 0 and time < limit:")
            put(3, f"fit = min(iters, (limit - time + {worst - 1}) // {worst})"
                if worst else "fit = iters")
            put(3, "for left in range(iters, iters - fit, -1):")
            before = len(self.lines)
            for k in range(n):
                self.element(4, k, True)
            if len(self.lines) == before:
                put(4, "pass")  # only work slots
            put(3, "else:")
            if per_iter:
                put(4, f"time += fit * {per_iter}")
            put(4, "iters -= fit\ncontinue")
            put(3, "break")
        else:
            put(1, "while iters:")
        # checked elements; also where an exit re-enters mid-iteration
        for k in range(n):
            put(2, "if j == 0:" if k == 0 else f"if j <= {k}:")
            self.element(3, k, False)
        put(2, "j = 0\niters -= 1")
        for k in addrs:
            put(1, f"body[{3 * k + 1}] = a{k}")
        if self.tick:
            put(1, "l1._tick = tick")
        put(1, f"ops = (iters0 - iters) * {n} + j - j0")
        rb, sb = self.reads_before, self.stores_before
        if rb[n]:
            put(1, f"reads = (iters0 - iters) * {rb[n]} + {rb}[j] - {rb}[j0]\n"
                   f"if status == {LOOP_MISS}:\n    ops -= 1\n    reads -= 1\n"
                   "nl1 = reads - nwb - nl2")
            if self.coded:
                put(1, "l1.hits += nl1")
        else:
            put(1, "nl1 = 0")
        if sb[n]:
            put(1, f"merged = (iters0 - iters) * {sb[n]} + {sb}[j] - {sb}[j0]"
                   " - pushed\nif merged:\n"
                   "    wb.stores_retired += merged\n"
                   "    wb.stores_merged += merged")
        put(1, f"return {KERNEL_RETURNS}")
        return "\n".join(self.lines) + "\n"
