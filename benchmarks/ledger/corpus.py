"""The ledger's inputs: the truth corpus and the seeded program generators.

Every program a workload analyses is made here from the workload seed
alone, so one seed always yields the same inputs.  The truth corpus is
the paper's own: the 31 registry programs plus ``examples/*.toy``; its
interpreter ref-run branch counts live in ``truth.json`` beside this
file, because recomputing them takes far longer than a benchmark run.
"""

from __future__ import annotations

import hashlib
import json
import math
import pathlib
import random
from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

LEDGER_DIR = pathlib.Path(__file__).resolve().parent
REPO_ROOT = LEDGER_DIR.parents[1]
TRUTH_PATH = LEDGER_DIR / "truth.json"

#: Ref inputs for the example programs (registry programs carry their
#: own).  ``clamp`` reads one input per iteration, ``countdown`` 32.
EXAMPLE_REF_ARGS = {"clamp.toy": [256], "countdown.toy": [0]}
EXAMPLE_INPUT_SEED = 1995


@dataclass
class CorpusProgram:
    """One program of the truth corpus with its ref-run inputs."""

    name: str
    source: str
    args: List[int]
    inputs: List[int] = field(default_factory=list)
    max_steps: int = 2_000_000

    @property
    def digest(self) -> str:
        return hashlib.sha256(self.source.encode("utf-8")).hexdigest()


def truth_corpus() -> List[CorpusProgram]:
    """The 33 programs of ``oneshot-suite``, registry first, then examples."""
    from repro.workloads import all_workloads, lcg_stream

    programs = [
        CorpusProgram(w.name, w.source, list(w.ref_args), list(w.ref_inputs), w.max_steps)
        for w in all_workloads()
    ]
    for path in sorted((REPO_ROOT / "examples").glob("*.toy")):
        programs.append(
            CorpusProgram(
                f"examples/{path.name}",
                path.read_text(encoding="utf-8"),
                list(EXAMPLE_REF_ARGS.get(path.name, [0])),
                lcg_stream(EXAMPLE_INPUT_SEED, 512),
            )
        )
    return programs


# -- interpreter truth -----------------------------------------------------------


def ref_branch_counts(program: CorpusProgram) -> Dict[str, List[int]]:
    """Run the interpreter on the ref inputs: ``"fn/label" -> [taken, not]``."""
    from repro.ir import prepare_module
    from repro.lang import compile_source
    from repro.profiling import run_module

    module = compile_source(program.source, module_name=program.name)
    prepare_module(module)
    result = run_module(
        module,
        args=program.args,
        input_values=program.inputs,
        max_steps=program.max_steps,
    )
    return {
        f"{function}/{label}": list(counts)
        for (function, label), counts in sorted(result.branch_counts.items())
    }


def build_truth(programs: Iterable[CorpusProgram]) -> dict:
    """The ``truth.json`` document for ``programs`` (slow: interprets them)."""
    return {
        "format": 1,
        "programs": {
            program.name: {
                "sha256": program.digest,
                "branches": ref_branch_counts(program),
            }
            for program in programs
        },
    }


def load_truth(programs: List[CorpusProgram]) -> Dict[str, Dict[Tuple[str, str], List[int]]]:
    """Branch counts per program; raises ValueError if the fixture is stale."""
    document = json.loads(TRUTH_PATH.read_text(encoding="utf-8"))
    stored = document.get("programs", {})
    out = {}
    for program in programs:
        entry = stored.get(program.name)
        if entry is None or entry.get("sha256") != program.digest:
            raise ValueError(
                f"truth.json has no ref run for the current {program.name}; "
                "regenerate it with `python -m benchmarks.ledger truth --write`"
            )
        out[program.name] = {
            tuple(key.split("/", 1)): counts for key, counts in entry["branches"].items()
        }
    return out


@dataclass
class TruthScore:
    """Predictions scored against the interpreter's ref runs."""

    weight: int = 0
    missed: float = 0.0
    executed: int = 0
    covered: int = 0
    violations: List[str] = field(default_factory=list)

    def add(
        self,
        program: str,
        predictions: Dict[Tuple[str, str], float],
        exact: Dict[Tuple[str, str], bool],
        truth: Dict[Tuple[str, str], List[int]],
    ) -> None:
        """Score one program.

        ``exact`` marks the ranges-sourced predictions whose value is
        known exactly (rendered percentages are not); only those can be
        checked for a certain-but-wrong 0 or 1.
        """
        for key, (taken, not_taken) in sorted(truth.items()):
            total = taken + not_taken
            if total == 0:
                continue
            self.executed += 1
            self.weight += total
            predicted = predictions.get(key)
            if predicted is None:
                self.violations.append(f"{program}: executed branch {key} not predicted")
                predicted = 0.5
            else:
                self.covered += 1
            self.missed += not_taken if predicted >= 0.5 else taken
            if exact.get(key) and (
                (predicted == 1.0 and not_taken) or (predicted == 0.0 and taken)
            ):
                self.violations.append(
                    f"{program}: ranges predicted {predicted} for {key}, "
                    f"interpreter saw {taken}/{not_taken}"
                )

    @property
    def miss_rate(self) -> float:
        """Execution-weighted share of mispredicted branch directions."""
        return self.missed / self.weight if self.weight else 0.0


def parse_branch_table(text: str) -> Dict[Tuple[str, str], Tuple[float, str]]:
    """Rows of a rendered ``branch_table``: key -> (P(taken), source)."""
    rows = {}
    for line in text.splitlines()[1:]:
        function, label, percent, source = line.split()
        rows[(function, label)] = (float(percent.rstrip("%")) / 100.0, source)
    return rows


def conditional_branches(module) -> int:
    """IR conditional branches of a prepared module."""
    from repro.ir import Branch

    return sum(
        1
        for function in module.functions.values()
        for block in function.blocks.values()
        if block.instructions and isinstance(block.instructions[-1], Branch)
    )


# -- large-modules generator ------------------------------------------------------

#: Units per loop-chain function: well below the ~41-unit chain length at
#: which the engine stops reaching the rest of a function (see README).
CHAIN_UNITS_MAX = 24
INSTR_PER_CHAIN_UNIT = 48
INSTR_PER_COMPONENT = 66
COMPONENTS_MIN, COMPONENTS_MAX = 4, 24

#: One block of ``large-modules``: target IR sizes, log-spaced 200..2000.
#: Every block holds the same sizes, so a run's percentiles do not depend
#: on how many blocks it completes.  Their number is odd, so the median
#: and p90 of k >= 2 blocks fall inside the k modules of one size (with
#: 12 sizes the median fell on the edge between two sizes 23% apart and
#: jumped between them from run to run), and small, so each size has
#: four to six modules in a run to take the median of.
LARGE_SIZES = [round(200 * 10 ** (i / 4)) for i in range(5)]


def _chain_function(name: str, units: int, rng: random.Random) -> str:
    lines = [f"func {name}(n) {{", "  var acc = 0;"]
    for unit in range(units):
        limit = rng.randint(8, 16)
        threshold = rng.randint(2, limit - 2)
        modulus = rng.choice((2, 3, 5))
        lines += [
            f"  var v{unit} = 0;",
            f"  for (i{unit} = 0; i{unit} < {limit}; i{unit} = i{unit} + 1) {{",
            f"    if (i{unit} > {threshold}) {{ v{unit} = v{unit} + 2; }}",
            f"    else {{ v{unit} = v{unit} + 1; }}",
            f"    if (v{unit} % {modulus} == 0) {{ acc = acc + 1; }}",
            "  }",
            f"  if (v{unit} > {limit}) {{ acc = acc + v{unit}; }}",
        ]
    lines += ["  return acc;", "}"]
    return "\n".join(lines)


def component_source(index: int, params: dict, comment: Optional[str] = None) -> str:
    """One leaf/mid/top call-graph component (as in the incremental bench)."""
    note = f"\n  // {comment}\n" if comment else ""
    return (
        f"func leaf_{index}(x) {{{note}\n"
        "  var t = 0;\n"
        f"  for (j = 0; j < {params['bound']}; j = j + 1) {{\n"
        f"    if (x + j > {params['threshold']}) {{ t = t + 2; }} else {{ t = t + 1; }}\n"
        "  }\n"
        "  return t;\n"
        "}\n\n"
        f"func mid_{index}(x) {{\n"
        f"  var s = leaf_{index}(x) + leaf_{index}(x + {params['offset']});\n"
        f"  if (s > {params['cut']}) {{ return s - {params['cut']}; }}\n"
        "  return s;\n"
        "}\n\n"
        f"func top_{index}(n) {{\n"
        "  var acc = 0;\n"
        f"  for (k = 0; k < n; k = k + 1) {{ acc = acc + mid_{index}(k); }}\n"
        f"  if (acc > {params['limit']}) {{ return acc; }}\n"
        "  return 0 - acc;\n"
        "}\n"
    )


def component_params(rng: random.Random) -> dict:
    return {
        "bound": rng.randint(20, 60),
        "threshold": rng.randint(10, 50),
        "offset": rng.randint(1, 9),
        "cut": rng.randint(30, 90),
        "limit": rng.randint(50, 200),
    }


def large_module(seed: int, index: int, target: int, kind: str) -> str:
    """Module ``index`` of the ``large-modules`` stream, about ``target`` instrs."""
    rng = random.Random(f"large/{seed}/{index}")
    if kind == "callgraph":
        count = min(COMPONENTS_MAX, max(COMPONENTS_MIN, round(target / INSTR_PER_COMPONENT)))
        parts = [component_source(i, component_params(rng)) for i in range(count)]
        calls = [f"top_{i}(n)" for i in range(count)]
    else:
        units = max(4, round(target / INSTR_PER_CHAIN_UNIT))
        count = math.ceil(units / CHAIN_UNITS_MAX)
        sizes = [units // count + (1 if i < units % count else 0) for i in range(count)]
        parts = [_chain_function(f"chain_{i}", size, rng) for i, size in enumerate(sizes)]
        calls = [f"chain_{i}(n)" for i in range(count)]
    body = "".join(f"  total = total + {call};\n" for call in calls)
    parts.append(f"func main(n) {{\n  var total = 0;\n{body}  return total;\n}}\n")
    return "\n".join(parts)


def large_block(seed: int, block: int, sizes: List[int] = LARGE_SIZES) -> List[Tuple[int, str]]:
    """Block ``block``: one module per size -> (index, source).

    Odd slots are call graphs where 4..24 components reach the size, the
    rest loop chains.  Sizes, kinds and order are the same for every
    seed and the seed draws the constants, so seeds differ in their
    inputs but not in how much work a block holds.
    """
    out = []
    for slot, target in enumerate(sizes):
        fits = target <= COMPONENTS_MAX * INSTR_PER_COMPONENT
        kind = "callgraph" if slot % 2 and fits else "chain"
        index = block * len(sizes) + slot
        out.append((index, large_module(seed, index, target, kind)))
    return out


# -- edit-loop module ----------------------------------------------------------


#: Components of the edit-loop module (61 functions with ``main``).  The
#: count is fixed, not drawn from the seed: a recheck recompiles the
#: whole module, so its cost grows with the count, and a seeded 16-24
#: moved the median recheck by 25% from seed to seed.
EDIT_COMPONENTS = 20
#: One block of edits, in seeded order: 70% a new constant, 20% a revert
#: to an earlier version, 10% a comment.
EDIT_MIX = ("constant",) * 14 + ("revert",) * 4 + ("comment",) * 2


class EditableModule:
    """A seeded module of call-graph components and its edited versions."""

    def __init__(self, seed: int, components: int = EDIT_COMPONENTS):
        self.rng = random.Random(f"edit/{seed}")
        self.params = [component_params(self.rng) for _ in range(components)]
        self.comments: Dict[int, str] = {}
        self.history = [self._snapshot()]
        self.edits = 0

    def _snapshot(self):
        return ([dict(p) for p in self.params], dict(self.comments))

    def source(self) -> str:
        parts = [
            component_source(i, params, self.comments.get(i))
            for i, params in enumerate(self.params)
        ]
        parts.append("func main(n) { return top_0(n); }\n")
        return "\n".join(parts)

    def block(self, size: int) -> List[str]:
        """The kinds of the next ``size`` edits: ``EDIT_MIX`` in seeded order."""
        kinds = list(EDIT_MIX)
        self.rng.shuffle(kinds)
        return kinds[:size]

    def edit(self, kind: str) -> None:
        """Apply one seeded edit of ``kind`` (see ``EDIT_MIX``).

        A constant edit changes one function; a revert restores the
        whole module to an earlier version and a comment edit changes no
        semantics, so both replay every component.
        """
        self.edits += 1
        if kind == "revert" and len(self.history) > 1:
            params, comments = self.history[self.rng.randrange(len(self.history) - 1)]
            self.params = [dict(p) for p in params]
            self.comments = dict(comments)
        elif kind == "comment":
            self.comments[self.rng.randrange(len(self.params))] = f"edit {self.edits}"
        else:
            params = self.params[self.rng.randrange(len(self.params))]
            name = self.rng.choice(sorted(params))
            fresh = component_params(self.rng)[name]
            while fresh == params[name]:
                fresh += 1
            params[name] = fresh
        self.history.append(self._snapshot())


# -- serve-mixed programs -------------------------------------------------------

WORKING_SET = 64
ZIPF_S = 1.1
COMMAND_MIX = (("predict", 0.7), ("check", 0.2), ("ranges", 0.1))


@dataclass
class Request:
    """One scheduled request of the open-loop generator."""

    due: float  # seconds after the phase starts
    command: str
    name: str
    source: str


class RequestStream:
    """Seeded serve traffic: novel programs plus a Zipf-drawn working set."""

    def __init__(self, seed: int, working_set: int = WORKING_SET):
        from repro.server.loadgen import make_program

        self._make_program = make_program
        self.rng = random.Random(f"serve/{seed}")
        self.base = 1_000_000 + (seed % 1000) * 100_000
        self.working = [
            (f"ws{rank}.toy", make_program(self.base + rank)) for rank in range(working_set)
        ]
        self.weights = [1.0 / (rank + 1) ** ZIPF_S for rank in range(working_set)]
        self.novel_count = 0

    def warm_pairs(self) -> List[Tuple[str, str, str]]:
        """Every (command, name, source) of the working set, once."""
        return [
            (command, name, source)
            for name, source in self.working
            for command, _ in COMMAND_MIX
        ]

    def requests(self, count: int) -> List[Request]:
        """``count`` requests in the exact mix, in seeded order.

        Every run of 20 holds 5 novel programs (one in each 4) and the
        commands 14/4/2, so the mix does not vary with the seed; only the
        order, the working-set draws and the novel programs do.
        """
        out: List[Request] = []
        pattern = [
            command for command, share in COMMAND_MIX for _ in range(round(share * 20))
        ]
        while len(out) < count:
            commands = list(pattern)
            self.rng.shuffle(commands)
            novel_slots = {4 * group + self.rng.randrange(4) for group in range(5)}
            for slot, command in enumerate(commands):
                if slot in novel_slots:
                    self.novel_count += 1
                    index = self.base + 50_000 + self.novel_count
                    out.append(Request(0.0, command, f"novel{index}.toy",
                                       self._make_program(index)))
                else:
                    name, source = self.rng.choices(self.working, self.weights)[0]
                    out.append(Request(0.0, command, name, source))
        return out[:count]

    def schedule(self, rate: float, seconds: float) -> List[Request]:
        """Poisson arrivals at ``rate`` per second for ``seconds``."""
        dues = []
        due = self.rng.expovariate(rate)
        while due < seconds:
            dues.append(due)
            due += self.rng.expovariate(rate)
        requests = self.requests(len(dues))
        for request, due in zip(requests, dues):
            request.due = due
        return requests
