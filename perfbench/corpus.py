"""Seeded lint corpus with planted, counted findings.

:func:`generate` writes a Python package of about the size of the
program's own tree (~25k lines, ~140 files) and a ``pyproject.toml``
whose ``[tool.repro.lint]`` section points every scope and the project
graph at the corpus itself, so the linter sees neither the program's
growing ``src/`` nor a cached graph from another run.

Most of the code is clean filler: functions and classes that every rule
passes, with imports between modules so the project graph has edges.
Into it go planted violations of every per-file rule (1-3 of each, in
seeded files and positions) and one seeded instance of each
whole-program drift (XMOD001-XMOD005). The generator records the rule,
path and line of every finding it plants; a lint run is correct only if
it reports exactly that set.
"""

from __future__ import annotations

import random
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

PACKAGE = "corp"
FILLER_FILES = 130
FUNCTIONS_PER_FILE = (14, 20)

CONFIG = f"""\
[tool.repro.lint]
hot-path = ["{PACKAGE}/hot"]
rng-allowed = ["{PACKAGE}/seeding.py"]
clock-exempt = []
mutation-scope = ["{PACKAGE}/kern"]
process-scope = ["{PACKAGE}/proc"]
trace-scope = ["{PACKAGE}/serve"]
exclude = []
fault-registry = ["{PACKAGE}/faults/registry.py"]
state-scope = ["{PACKAGE}/state"]
state-attrs = ["state"]
graph-roots = ["{PACKAGE}"]
"""

WORDS = ("alpha", "bravo", "cedar", "delta", "ember", "fjord", "gamma",
         "heron", "iris", "jade", "kelp", "lumen", "maple", "nadir",
         "onyx", "pike", "quill", "raven", "sable", "tundra", "umber",
         "vale", "wren", "xenon", "yarrow", "zephyr")
SCOPES = ("core", "hot", "kern", "proc", "serve")


@dataclass
class Source:
    """One module being generated: imports, body lines, planted findings."""

    path: str
    imports: set = field(default_factory=set)
    body: list = field(default_factory=list)
    planted: list = field(default_factory=list)   # (rule, body index)
    exports: list = field(default_factory=list)   # scalar helpers

    def add(self, lines, findings=(), imports=()):
        start = len(self.body)
        self.body.extend(lines)
        self.body.append("")
        self.body.append("")
        self.planted.extend((rule, start + k) for rule, k in findings)
        self.imports.update(imports)

    def header(self) -> list[str]:
        lines = [f'"""Generated module {self.path} (lint benchmark corpus)."""',
                 ""]
        if self.imports:
            lines.extend(sorted(self.imports))
            lines.extend(["", ""])
        return lines

    def render(self) -> tuple[str, list[tuple[str, str, int]]]:
        head = self.header()
        body = list(self.body)
        while body and body[-1] == "":
            body.pop()
        text = "\n".join(head + body) + "\n"
        found = [(rule, self.path, len(head) + k + 1)
                 for rule, k in self.planted]
        return text, found


class Namer:
    """Unique, seeded identifiers."""

    def __init__(self, rnd: random.Random):
        self.rnd = rnd
        self.used: set[str] = set()

    def __call__(self, kind: str = "fn") -> str:
        while True:
            name = (f"{kind}_{self.rnd.choice(WORDS)}_"
                    f"{self.rnd.choice(WORDS)}_{self.rnd.randrange(1000)}")
            if name not in self.used:
                self.used.add(name)
                return name


# --------------------------------------------------------------------- #
# Clean filler (every rule passes it, in every scope)
# --------------------------------------------------------------------- #


def _fn_scalar(rnd, name):
    c, c2, k = rnd.randint(1, 9), rnd.randint(2, 7), rnd.randint(2, 5)
    return [
        f"def {name}(values, scale={k}):",
        f'    """Weighted running score of ``values`` (threshold {c})."""',
        "    total = 0.0",
        "    for i, v in enumerate(values):",
        f"        if v > {c}:",
        "            total += v * scale - i",
        "        else:",
        f"            total -= v / (scale + {c2})",
        "    return total",
    ], ()


def _fn_block(rnd, name):
    w, c = rnd.choice((4, 8, 16, 32)), rnd.randint(1, 9)
    return [
        f"def {name}(n, rng):",
        f'    """Noisy ({w}-wide) float32 block, reduced per row."""',
        f"    block = np.zeros((n, {w}), dtype=np.float32)",
        f"    noise = rng.standard_normal((n, {w})).astype(np.float32)",
        f"    block = block + noise * {c}",
        "    return block.sum(axis=1)",
    ], ("import numpy as np",)


def _fn_table(rnd, name):
    c = rnd.randint(1, 50)
    return [
        f"def {name}(table, keys):",
        '    """Doubled lookups in sorted key order."""',
        "    out = {}",
        "    for key in sorted(keys):",
        f"        out[key] = table.get(key, {c}) * 2",
        "    return out",
    ], ()


def _fn_text(rnd, name):
    k = rnd.randint(2, 6)
    return [
        f"def {name}(text):",
        '    """First fields of a comma list, dash-joined."""',
        '    parts = [p.strip() for p in text.split(",") if p]',
        f'    return "-".join(parts[:{k}])',
    ], ()


def _fn_guarded(rnd, name):
    c = rnd.randint(1, 9)
    return [
        f"def {name}(mapping, key):",
        '    """Parse one entry; malformed entries read as the default."""',
        "    try:",
        f"        return int(mapping[key]) + {c}",
        "    except (KeyError, ValueError):",
        f"        return {c}",
    ], ()


def _fn_matrix(rnd, name):
    w = rnd.choice((3, 5, 7))
    return [
        f"def {name}(rows, rng):",
        f'    """Row norms of a {w}-column projection."""',
        f"    proj = rng.standard_normal(({w}, {w})).astype(np.float32)",
        f"    data = np.ones((rows, {w}), dtype=np.float32)",
        "    out = data @ proj",
        "    return np.sqrt((out * out).sum(axis=1))",
    ], ("import numpy as np",)


def _class(rnd, name):
    cap = rnd.randint(4, 64)
    return [
        f"class {name}:",
        f'    """Bounded history of the last {cap} values."""',
        "",
        f"    def __init__(self, size={cap}):",
        "        self.size = size",
        "        self.items = []",
        "",
        "    def push(self, item):",
        "        self.items.append(item)",
        "        if len(self.items) > self.size:",
        "            self.items.pop(0)",
        "        return len(self.items)",
        "",
        "    def mean(self):",
        "        return sum(self.items) / max(len(self.items), 1)",
        "",
        "    def spread(self):",
        "        if not self.items:",
        "            return 0.0",
        "        return max(self.items) - min(self.items)",
    ], ()


FILLERS = (_fn_scalar, _fn_block, _fn_table, _fn_text, _fn_guarded,
           _fn_matrix, _class)


def _fn_calls(rnd, name, helper, module):
    """A function calling a scalar helper of another module (graph edge)."""
    c = rnd.randint(1, 9)
    return [
        f"def {name}(values):",
        f'    """Shifted score from ``{helper}``."""',
        f"    return {helper}(values) + {c}",
    ], (f"from {module} import {helper}",)


# --------------------------------------------------------------------- #
# Planted per-file rule violations: (lines, [(rule, line offset)], imports)
# --------------------------------------------------------------------- #


def _rng001(rnd, name):
    return [f"def {name}(n):",
            f"    return np.random.rand(n) * {rnd.randint(2, 9)}"], \
        [("RNG001", 1)], ("import numpy as np",)


def _dt001(rnd, name):
    return [f"def {name}(n):",
            "    return np.empty(n, dtype=np.float64)"], \
        [("DT001", 1)], ("import numpy as np",)


def _dt002(rnd, name):
    return [f"def {name}(shape):",
            "    buf = np.zeros(shape)",
            "    return buf"], [("DT002", 1)], ("import numpy as np",)


def _dt003(rnd, name):
    return [f"def {name}(chunks):",
            "    out = []",
            "    for chunk in chunks:",
            "        out.append(chunk.astype(np.float32))",
            "    return out"], [("DT003", 3)], ("import numpy as np",)


def _det001(rnd, name):
    return [f"def {name}(budget):",
            "    return time.time() + budget"], [("DET001", 1)], \
        ("import time",)


def _det002(rnd, name):
    return [f"def {name}(values):",
            "    acc = 0.0",
            "    for v in set(values):",
            "        acc += v",
            "    return acc"], [("DET002", 2)], ()


def _det003(rnd, name):
    return [f"def {name}():",
            f"    return os.urandom({rnd.randint(4, 16)})"], \
        [("DET003", 1)], ("import os",)


def _exc001(rnd, name):
    return [f"def {name}(fn):",
            "    try:",
            "        return fn()",
            "    except:",
            "        return None"], [("EXC001", 3)], ()


def _exc002(rnd, name):
    return [f"def {name}(fn):",
            "    try:",
            "        return fn()",
            "    except Exception:",
            "        pass",
            "    return 0"], [("EXC002", 3)], ()


def _mut001(rnd, name):
    return [f"def {name}(buf, rows, vals):",
            "    buf[rows] = vals",
            "    return None"], [("MUT001", 1)], ()


def _obs001(rnd, name):
    return [f"def {name}(batch):",
            f'    with trace("{PACKAGE}.{rnd.choice(WORDS)}"):',
            "        return len(batch)"], [("OBS001", 1)], \
        ("from repro.telemetry import trace",)


def _noqa001(rnd, name):
    return [f"def {name}(n):",
            f"    return n + 1  # repro: noqa[ZZ{rnd.randint(100, 999)}]"], \
        [("NOQA001", 1)], ()


# rule -> (planter, scopes it fires in)
PLANTERS = {
    "RNG001": (_rng001, SCOPES),
    "DT001": (_dt001, ("hot",)),
    "DT002": (_dt002, ("hot",)),
    "DT003": (_dt003, ("hot",)),
    "DET001": (_det001, SCOPES),
    "DET002": (_det002, SCOPES),
    "DET003": (_det003, ("proc",)),
    "EXC001": (_exc001, SCOPES),
    "EXC002": (_exc002, SCOPES),
    "MUT001": (_mut001, ("kern",)),
    "OBS001": (_obs001, ("serve",)),
    "NOQA001": (_noqa001, SCOPES),
}


# --------------------------------------------------------------------- #
# Whole-program drift, one seeded instance of each pass
# --------------------------------------------------------------------- #


def _xmod_sources(rnd, namer) -> list[Source]:
    def w():
        return rnd.choice(WORDS)

    out = []

    # XMOD001: a typo'd fire site, and a registered site nobody fires.
    live_a, live_b = f"{w()}.crash", f"{w()}.slow"
    dead = f"{w()}.orphan{rnd.randrange(100)}"
    reg = Source(f"{PACKAGE}/faults/registry.py")
    reg.add(["KNOWN_SITES = (", f'    "{live_a}",', f'    "{live_b}",',
             f'    "{dead}",', ")"], [("XMOD001", 3)])
    fire = Source(f"{PACKAGE}/faults/drill.py")
    fire.add([f"def {namer()}(injector):",
              f'    injector.fires("{live_a}")',
              f'    injector.draw("{live_b}")',
              f'    injector.fires("{live_a}x")'], [("XMOD001", 3)])
    out += [reg, fire]

    # XMOD002: a read of a never-written metric, a write-only orphan.
    prefix = f"{w()}{rnd.randrange(100)}"
    writer = Source(f"{PACKAGE}/metrics/writer.py")
    writer.add([f"def {namer()}(reg):",
                f'    hits = reg.counter("{prefix}.hits")',
                "    hits.inc()",
                f'    depth = reg.gauge("{prefix}.orphan_write")',
                "    depth.set(3)"], [("XMOD002", 3)])
    reader = Source(f"{PACKAGE}/metrics/reader.py")
    reader.add([f"def {namer()}(reg):",
                f'    total = reg.counter("{prefix}.hits").value',
                f'    ghost = reg.counter("{prefix}.ghost").value',
                "    return total + ghost"], [("XMOD002", 2)])
    out += [writer, reader]

    # XMOD003: a written tag with no reader, and a version drift.
    tag = f"repro.{w()}{rnd.randrange(100)}"
    swriter = Source(f"{PACKAGE}/schemas/writer.py")
    swriter.add([f'TAG = "{tag}/v1"'])
    swriter.add([f"def {namer()}(payload):",
                 '    return {"schema": TAG, "payload": payload}'])
    swriter.add([f"def {namer()}(payload):",
                 f'    return {{"schema": "{tag}orphan/v1", '
                 '"payload": payload}'], [("XMOD003", 1)])
    sreader = Source(f"{PACKAGE}/schemas/reader.py")
    sreader.add([f"def {namer()}(record):",
                 f'    if record.get("schema") != "{tag}/v1":',
                 '        raise ValueError("bad schema")',
                 '    return record["payload"]'])
    drift = Source(f"{PACKAGE}/schemas/drift.py")
    drift.add([f'EXPECTED = "{tag}/v2"'], [("XMOD003", 0)])
    out += [swriter, sreader, drift]

    # XMOD004: a dispatch on a typo'd state, a non-exhaustive chain, and
    # a state assigned but never dispatched on.
    idle, running, parked = (f"{w()}_idle", f"{w()}_run",
                             f"{w()}_park")
    machine = Source(f"{PACKAGE}/state/machine.py")
    machine.add([f"class {namer('Worker')}:",
                 "    def __init__(self):",
                 f'        self.state = "{idle}"',
                 "",
                 "    def start(self):",
                 f'        self.state = "{running}"',
                 "",
                 "    def park(self):",
                 f'        self.state = "{parked}"'], [("XMOD004", 8)])
    dispatch = Source(f"{PACKAGE}/state/dispatch.py")
    dispatch.add([f"def {namer()}(worker):",
                  f'    if worker.state == "{running}n":',
                  "        return 1",
                  "    return 0"], [("XMOD004", 1)])
    dispatch.add([f"def {namer()}(worker):",
                  f'    if worker.state == "{idle}":',
                  '        return "cold"',
                  f'    elif worker.state == "{running}":',
                  '        return "hot"'], [("XMOD004", 1)])
    out += [machine, dispatch]

    # XMOD005: a cold helper's float64 block called from the hot path.
    helper = namer()
    cold = Source(f"{PACKAGE}/core/blocks.py")
    cold.add([f"def {helper}(n):",
              f"    return np.zeros((n, {rnd.choice((4, 8, 16))}))"],
             imports=("import numpy as np",))
    kernel = Source(f"{PACKAGE}/hot/kernel.py")
    kernel.add([f"def {namer()}(n):",
                f"    return {helper}(n)"], [("XMOD005", 1)],
               (f"from {PACKAGE}.core.blocks import {helper}",))
    out += [cold, kernel]
    return out


# --------------------------------------------------------------------- #
# Assembly
# --------------------------------------------------------------------- #


@dataclass
class Corpus:
    root: Path
    files: list[str]
    lines: int
    expected: Counter          # (rule, path, line) -> count
    target: str                # the file linted on its own

    def expected_for(self, path: str | None = None) -> Counter:
        """Planted findings of the whole corpus, or of one file."""
        if path is None:
            return Counter(self.expected)
        return Counter({key: n for key, n in self.expected.items()
                        if key[1] == path})


def _module(path: str) -> str:
    return path[:-3].replace("/", ".")


def generate(root: Path, seed: int) -> Corpus:
    """Write the corpus for ``seed`` under ``root``; returns its key."""
    rnd = random.Random(seed)
    namer = Namer(rnd)
    sources: list[Source] = []
    for k in range(FILLER_FILES):
        scope = SCOPES[k % len(SCOPES)] if k < 25 else rnd.choice(SCOPES)
        sources.append(Source(f"{PACKAGE}/{scope}/mod_{k:03d}.py"))
    for src in sources:
        for _ in range(rnd.randint(*FUNCTIONS_PER_FILE)):
            filler = rnd.choice(FILLERS)
            kind = "Cls" if filler is _class else "fn"
            name = namer(kind)
            lines, imports = filler(rnd, name)
            src.add(lines, imports=imports)
            if filler is _fn_scalar:
                src.exports.append(name)
        # Graph edges: call scalar helpers of earlier modules.
        earlier = [s for s in sources[:sources.index(src)] if s.exports]
        for other in rnd.sample(earlier, min(len(earlier), rnd.randint(0, 3))):
            lines, imports = _fn_calls(rnd, namer(), rnd.choice(other.exports),
                                       _module(other.path))
            src.add(lines, imports=imports)
    for rule, (planter, scopes) in sorted(PLANTERS.items()):
        eligible = [s for s in sources
                    if s.path.split("/")[1] in scopes]
        for src in rnd.sample(eligible, rnd.randint(1, 3)):
            lines, findings, imports = planter(rnd, namer())
            # Insert between two filler definitions, not always at the end.
            at = rnd.randrange(len(src.body) // 2)
            while at and src.body[at - 1] != "":
                at += 1
            _insert(src, at, lines, findings, imports)
    sources += _xmod_sources(rnd, namer)
    sources.append(Source(f"{PACKAGE}/seeding.py"))
    sources[-1].add(["def make_rng(seed):",
                     "    return np.random.default_rng(seed)"],
                    imports=("import numpy as np",))

    expected: Counter = Counter()
    total_lines = 0
    packages = {f"{PACKAGE}/__init__.py"}
    for src in sources:
        text, found = src.render()
        path = root / src.path
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
        expected.update(found)
        total_lines += text.count("\n")
        packages.add(str(Path(src.path).parent / "__init__.py"))
    for init in sorted(packages):
        (root / init).write_text('"""Corpus package."""\n', encoding="utf-8")
    (root / "pyproject.toml").write_text(CONFIG, encoding="utf-8")
    files = sorted(src.path for src in sources) + sorted(packages)
    return Corpus(root, files, total_lines + len(packages), expected,
                  target=f"{PACKAGE}/hot/kernel.py")


def _insert(src: Source, at: int, lines, findings, imports) -> None:
    """Insert a definition at body index ``at``, shifting later plants."""
    block = list(lines) + ["", ""]
    src.body[at:at] = block
    src.planted = [(rule, k + len(block) if k >= at else k)
                   for rule, k in src.planted]
    src.planted.extend((rule, at + k) for rule, k in findings)
    src.imports.update(imports)
