"""Every definition in ``src/``, and every option of the campaign system,
has a caller outside ``tests/``.

Code whose only caller is its own test costs reading, review and upkeep
and serves nothing the program does. Two censuses keep it out.

**Definitions.** Every function, method and class in ``src/repro`` must
be used somewhere in ``src/``, ``benchmarks/`` or ``examples/`` outside
its own definition. A use is code, not prose: an :mod:`ast` ``Name`` or
``Attribute`` spelling the name, or a string literal that is exactly
the name (a dispatch table, a ``getattr``). Docstrings, comments and
messages do not count, and neither do import statements and ``__all__``
entries in a package ``__init__.py``: a re-export is not a use. Nor
does a use inside a def in :data:`KEEP`, whose callers are tests. Text
under ``.github/`` counts as before, since CI steps name what they run.

**Options.** Every defaulted parameter of a def in the nine campaign
packages (:data:`CAMPAIGN_PACKAGES`), plus ``ProtectedAesDevice``'s
``drift``, must be set by some call in those trees. A call to a def of
the same name sets it when it passes the parameter by keyword, reaches
its position with positional arguments, or uses ``*``/``**``. The
callee of ``Cls(...)``, and of ``cls(...)`` inside a classmethod of
``Cls``, is ``Cls.__init__``; ``super().__init__(...)`` in a subclass
calls its bases' ``__init__``. An option nothing sets is one value the
code never runs with: inline its default and delete its branches.

A name match is rough in one direction only: a dead method or option
that shares its name with a live one (say ``run``) passes. What must
stay although nothing in those trees uses it goes in :data:`KEEP` or
:data:`KEEP_PARAMS`, each with its reason. The parameters of a def in
:data:`KEEP` need no entry: that def's callers are tests by design.
"""

import ast
import collections
import pathlib
import re

ROOT = pathlib.Path(__file__).parent.parent
SRC = ROOT / "src" / "repro"
#: The trees whose code counts as a use of a name.
CALLER_TREES = ("src", "benchmarks", "examples")
_NAME = re.compile(r"[A-Za-z_]\w*")

#: The packages whose defaulted parameters the option census covers.
CAMPAIGN_PACKAGES = (
    "pipeline",
    "store",
    "service",
    "scenarios",
    "obs",
    "verify",
    "attacks",
    "experiments",
    "leakage_assessment",
)
#: Defs outside those packages whose options the census also covers.
CAMPAIGN_PLUMBING = ("repro.power.acquisition:ProtectedAesDevice.__init__",)

#: ``module:qualified name`` -> why it stays without a caller in the
#: trees above.
KEEP = {
    "repro.attacks.lattice:lattice_cpa_attack": (
        "the batch lattice adversary: the test of the headline claim, that "
        "lattice alignment recovers a byte where generic CPA fails on the "
        "same RFTC traces, runs on it"
    ),
    "repro.hw.block_ram:BlockRam.read_burst": (
        "the DRP write burst the configuration BRAM streams to an MMCM on "
        "every reconfiguration (the paper's Fig. 2 datapath); the ROM "
        "tests read the stored bursts through it"
    ),
    "repro.errors:LockError": (
        "the error of the MMCM lock contract that Mmcm.output_period_ns "
        "raises before relock; part of the public ReproError hierarchy"
    ),
    "repro.hw.bufg:SwitchEvent": (
        "the record ClockMux.switch returns: the dead time a switch costs "
        "and the new selection, which the mux tests read"
    ),
    "repro.hw.bufg:ClockMux.switch": (
        "the BUFGMUX glitch-free switch rule (one old period plus half a "
        "new one, halved in the expected case) that "
        "RFTCController._mux_dead_times charges in vectorized form; the "
        "mux tests pin the rule on it"
    ),
    "repro.hw.lfsr:GaloisLfsr": (
        "DESIGN.md section 2 names the Galois LFSR, the fabric form of the "
        "paper's 128-bit RNG"
    ),
    "repro.hw.mmcm:Mmcm.output_period_ns": (
        "the MMCM lock contract: the only read of an output that refuses "
        "it (LockError) until a DRP reconfiguration has relocked, which "
        "the MMCM tests check"
    ),
    "repro.hw.mmcm:Mmcm.reconfig_count": (
        "the only observable of how many DRP reconfigurations an MMCM "
        "took; tests of the controller and the full stack read it"
    ),
    "repro.leakage_assessment.snr:partition_snr": (
        "the per-sample SNR behind the Sec. 5 claim that spreading "
        "completion times lowers SNR, which the end-to-end test checks"
    ),
    "repro.obs.metrics:MetricsRegistry.gauge_value": (
        "the read side of a gauge; engine and attack-consumer tests check "
        "the gauges they set through it"
    ),
    "repro.pipeline.shm:_OutOfBandPickler.reducer_override": (
        "pickle hook: pickle.Pickler calls it for every object it saves"
    ),
    "repro.pipeline.shm:sweep_prefix": (
        "operator remedy for orphaned shared-memory segments, documented "
        "in docs/robustness.md; recovery code for a crashed run"
    ),
    "repro.rftc.controller:ReconfigurationPipeline.mean_encryptions_per_swap": (
        "the measured encryptions per MMCM swap (Fig. 2-B's x), checked "
        "against expected_encryptions_per_swap"
    ),
    "repro.testing.faults:_chunk_file": (
        "the chunk-file lookup both on-disk fault helpers below share"
    ),
    "repro.testing.faults:corrupt_chunk_file": (
        "fault helper; repro.testing exists to serve the tests"
    ),
    "repro.testing.faults:drop_manifest_tail": (
        "fault helper; repro.testing exists to serve the tests"
    ),
    "repro.testing.faults:truncate_chunk_file": (
        "fault helper; repro.testing exists to serve the tests"
    ),
    "repro.utils.blas:blas_threads": (
        "the probe that checks a worker restores its BLAS thread count; "
        "moving it into a test would remove no code"
    ),
}

#: ``module:qualified name(parameter=)`` -> why the option stays
#: although no call in the trees above sets it.
KEEP_PARAMS = {
    "repro.pipeline.shm:leaked_segments(prefix=)": (
        "sweep_prefix, the operator remedy in KEEP, scans its own prefix "
        "through it"
    ),
    "repro.service.client:ServiceClient.__init__(timeout=)": (
        "a deployment setting: the socket timeout for a remote daemon"
    ),
    "repro.service.client:ServiceClient.__init__(token=)": (
        "a deployment setting: the tenant's bearer token when the daemon "
        "runs with --auth"
    ),
}


def _module_name(path):
    module = ".".join(path.relative_to(SRC.parent).with_suffix("").parts)
    return module.removesuffix(".__init__")


def _walk_defs(tree):
    """Yield (qualified name, node, enclosing class or None) per def/class.

    Module-level functions and classes, and every function and class in a
    class body.
    """
    stack = [(node, "", None) for node in tree.body]
    while stack:
        node, prefix, owner = stack.pop()
        if not isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
        ):
            continue
        yield prefix + node.name, node, owner
        if isinstance(node, ast.ClassDef):
            stack.extend(
                (child, prefix + node.name + ".", node) for child in node.body
            )


def _definitions():
    """Yield (key, name, path, first line, last line) for each def/class.

    Dunder names are protocol hooks and are skipped.
    """
    for path in sorted(SRC.rglob("*.py")):
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified, node, _ in _walk_defs(tree):
            if node.name.startswith("__") and node.name.endswith("__"):
                continue
            yield (
                f"{_module_name(path)}:{qualified}",
                node.name,
                path,
                node.lineno,
                node.end_lineno,
            )


def _reexport_lines(path, tree):
    """Line numbers of imports and ``__all__`` entries in an ``__init__``."""
    lines = set()
    if path.name != "__init__.py":
        return lines
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)) or (
            isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign))
            and "__all__"
            in {
                t.id
                for t in getattr(node, "targets", [getattr(node, "target", None)])
                if isinstance(t, ast.Name)
            }
        ):
            lines.update(range(node.lineno, node.end_lineno + 1))
    return lines


def _caller_trees():
    """{path: parsed module} over the Python files of the caller trees."""
    return {
        path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for tree in CALLER_TREES
        for path in sorted((ROOT / tree).rglob("*.py"))
        if "__pycache__" not in path.parts
    }


def _kept_defs(path, tree):
    """The nodes of the defs in :data:`KEEP` defined in ``path``."""
    if SRC not in path.parents:
        return []
    module = _module_name(path)
    return [
        node
        for qualified, node, _ in _walk_defs(tree)
        if f"{module}:{qualified}" in KEEP
    ]


def _name_uses(trees):
    """{name: [(path, line)]} of every code use of a name.

    Uses inside a def in :data:`KEEP` are left out: that def's callers
    are tests, so what it uses serves only them.
    """
    uses = collections.defaultdict(list)
    for path, tree in trees.items():
        skip = _reexport_lines(path, tree)
        for node in _kept_defs(path, tree):
            skip.update(range(node.lineno, node.end_lineno + 1))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                name = node.id
            elif isinstance(node, ast.Attribute):
                name = node.attr
            elif isinstance(node, ast.Constant) and isinstance(node.value, str):
                name = node.value
            else:
                continue
            if node.lineno not in skip:
                uses[name].append((path, node.lineno))
    return uses


def _github_names():
    """Every identifier in the text under ``.github/``."""
    names = collections.Counter()
    for path in sorted((ROOT / ".github").rglob("*")):
        if path.is_file():
            names.update(_NAME.findall(path.read_text(encoding="utf-8")))
    return names


def unreferenced():
    """Keys of the definitions nothing outside their own body uses."""
    uses = _name_uses(_caller_trees())
    github = _github_names()
    orphans = []
    for key, name, path, first, last in _definitions():
        outside = [
            (where, line)
            for where, line in uses.get(name, ())
            if not (where == path and first <= line <= last)
        ]
        if not outside and not github[name]:
            orphans.append(key)
    return orphans


def _kept_calls(path, tree):
    """Ids of the calls made inside a def in :data:`KEEP`.

    Such a def is called by tests only, so what it passes sets nothing
    a campaign runs.
    """
    return {
        id(call)
        for node in _kept_defs(path, tree)
        for call in ast.walk(node)
        if isinstance(call, ast.Call)
    }


def _calls(trees):
    """{callee name: [ast.Call]} over the caller trees.

    The callee of ``f(...)`` and ``x.f(...)`` is ``f``. ``cls(...)`` in a
    classmethod of ``C`` calls ``C``, and ``super().m(...)`` in a class
    calls ``m`` of each of its bases, keyed ``(base, m)``. Calls inside a
    def in :data:`KEEP` are left out.
    """
    calls = collections.defaultdict(list)
    for path, tree in trees.items():
        kept = _kept_calls(path, tree)
        for _, node, owner in _walk_defs(tree):
            if isinstance(node, ast.ClassDef):
                bases = [
                    b.id if isinstance(b, ast.Name) else b.attr
                    for b in node.bases
                    if isinstance(b, (ast.Name, ast.Attribute))
                ]
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Attribute)
                        and isinstance(call.func.value, ast.Call)
                        and isinstance(call.func.value.func, ast.Name)
                        and call.func.value.func.id == "super"
                        and id(call) not in kept
                    ):
                        for base in bases:
                            calls[(base, call.func.attr)].append(call)
            elif owner is not None and any(
                isinstance(d, ast.Name) and d.id == "classmethod"
                for d in node.decorator_list
            ):
                for call in ast.walk(node):
                    if (
                        isinstance(call, ast.Call)
                        and isinstance(call.func, ast.Name)
                        and call.func.id == "cls"
                        and id(call) not in kept
                    ):
                        calls[owner.name].append(call)
        for call in ast.walk(tree):
            if not isinstance(call, ast.Call) or id(call) in kept:
                continue
            if isinstance(call.func, ast.Name):
                calls[call.func.id].append(call)
            elif isinstance(call.func, ast.Attribute):
                calls[call.func.attr].append(call)
    return calls


def _defaulted(node, owner):
    """(parameter, position or None) of each defaulted parameter.

    The position counts from the first argument a caller passes, so the
    ``self``/``cls`` of a method is not counted; keyword-only parameters
    have no position.
    """
    args = node.args
    positional = args.posonlyargs + args.args
    bound = owner is not None and not any(
        isinstance(d, ast.Name) and d.id == "staticmethod"
        for d in node.decorator_list
    )
    first_default = len(positional) - len(args.defaults)
    params = [
        (arg.arg, index - bound)
        for index, arg in enumerate(positional)
        if index >= first_default
    ]
    params.extend(
        (arg.arg, None)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
        if default is not None
    )
    return params


def _campaign_options():
    """Yield (key, def key, callee names, parameter, position)."""
    for path in sorted(SRC.rglob("*.py")):
        module = _module_name(path)
        package = module.split(".")[1] if "." in module else ""
        tree = ast.parse(path.read_text(), filename=str(path))
        for qualified, node, owner in _walk_defs(tree):
            if isinstance(node, ast.ClassDef):
                continue
            def_key = f"{module}:{qualified}"
            if package not in CAMPAIGN_PACKAGES and def_key not in CAMPAIGN_PLUMBING:
                continue
            if owner is not None and node.name == "__init__":
                callees = [owner.name, (owner.name, "__init__")]
            elif owner is not None:
                callees = [node.name, (owner.name, node.name)]
            else:
                callees = [node.name]
            for param, position in _defaulted(node, owner):
                yield (
                    f"{def_key}({param}=)", def_key, callees, param, position
                )


def _sets(call, param, position):
    """Whether ``call`` sets the parameter."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(k.arg is None or k.arg == param for k in call.keywords):
        return True
    return position is not None and len(call.args) > position


def unset_options():
    """Keys of the campaign-system options no call outside tests sets."""
    calls = _calls(_caller_trees())
    unset = []
    for key, def_key, callees, param, position in _campaign_options():
        if def_key in KEEP or def_key.removesuffix(".__init__") in KEEP:
            continue
        if not any(
            _sets(call, param, position)
            for callee in callees
            for call in calls.get(callee, ())
        ):
            unset.append(key)
    return unset


def test_every_definition_has_a_caller_outside_tests():
    orphans = [key for key in unreferenced() if key not in KEEP]
    assert not orphans, (
        "defined in src/ but used nowhere in the code of src/, benchmarks/ "
        "or examples/ (or the text of .github/) outside its own body; "
        "delete it or add it to KEEP with a reason:\n  " + "\n  ".join(orphans)
    )


def test_keep_entries_exist_and_need_keeping():
    """A KEEP entry names a live definition that the census would flag."""
    defined = {key for key, *_ in _definitions()}
    assert not set(KEEP) - defined, "KEEP names definitions that are gone"
    needless = set(KEEP) - set(unreferenced())
    assert not needless, f"KEEP entries now have callers: {sorted(needless)}"


def test_every_campaign_option_has_a_caller_outside_tests():
    unset = [key for key in unset_options() if key not in KEEP_PARAMS]
    assert not unset, (
        "defaulted parameters that no call in src/, benchmarks/ or "
        "examples/ sets; inline the default and delete the parameter, or "
        "add it to KEEP_PARAMS with a reason:\n  " + "\n  ".join(unset)
    )


def test_keep_params_entries_exist_and_need_keeping():
    """A KEEP_PARAMS entry names a live option that the census would flag."""
    declared = {key for key, *_ in _campaign_options()}
    assert not set(KEEP_PARAMS) - declared, (
        "KEEP_PARAMS names options that are gone: "
        f"{sorted(set(KEEP_PARAMS) - declared)}"
    )
    needless = set(KEEP_PARAMS) - set(unset_options())
    assert not needless, (
        f"KEEP_PARAMS entries now have callers: {sorted(needless)}"
    )
