"""Rules on the package source, checked on its syntax tree."""

from __future__ import annotations

import ast
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _is_false(node):
    return isinstance(node, ast.Constant) and node.value is False


def _unfreezes(path):
    """Line of every `x.flags.writeable = ...` and `x.setflags(write=...)`
    in a source file that does not set False."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Assign) and not _is_false(node.value):
            if any(isinstance(t, ast.Attribute) and t.attr == "writeable"
                   and isinstance(t.value, ast.Attribute) and t.value.attr == "flags"
                   for t in node.targets):
                yield node.lineno
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and node.func.attr == "setflags"):
            write = [k.value for k in node.keywords if k.arg == "write"] + node.args[:1]
            if write and not _is_false(write[0]):
                yield node.lineno


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_unfreezes_an_array(path):
    # in-place work happens on a fresh box before TorusField._exact freezes
    # it; a returned field's box is never made writeable again
    assert list(_unfreezes(path)) == []


def test_the_rule_sees_an_unfreeze(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("a.flags.writeable = True\nb.flags.writeable = False\n"
                   "c.setflags(write=True)\nd.setflags(write=False)\ne.setflags(1)\n",
                   encoding="utf-8")
    assert list(_unfreezes(src)) == [1, 3, 5]


def _ruled(value):
    """Whether a `workers=` value is 1 or the one rule's `_threads(...)`."""
    return ((isinstance(value, ast.Constant) and type(value.value) is int and value.value == 1)
            or (isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id == "_threads"))


def _unruled_workers(path):
    """Line of every `scipy.fft.<transform>(...)` call in a source file
    that passes no `workers=`, and of every call whose `workers=` is
    neither 1 nor `_threads(...)`; `next_fast_len` plans no transform."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if not isinstance(node, ast.Call):
            continue
        workers = [k.value for k in node.keywords if k.arg == "workers"]
        transform = (isinstance(node.func, ast.Attribute)
                     and ast.unparse(node.func.value) == "scipy.fft"
                     and node.func.attr != "next_fast_len")
        if (transform and not workers) or not all(map(_ruled, workers)):
            yield node.lineno


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_transform_passes_its_workers(path):
    # fields._threads is the one threading rule: a transform that left
    # workers to scipy's default, or passed a count of its own, would
    # thread by another rule; a block on the pool passes 1
    assert list(_unruled_workers(path)) == []


def test_the_rule_sees_a_transform_without_workers(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("scipy.fft.ifft(a, axis=0)\nscipy.fft.irfft(a, workers=w)\n"
                   "scipy.fft.next_fast_len(n, real=True)\nscipy.fft.rfft2(a, workers=1)\n"
                   "numpy.fft.fft(a)\nscipy.fft.fft2(\n    a, norm='forward')\n"
                   "scipy.fft.fft(a, workers=_threads(N))\n"
                   "scipy.fft.fft(a, workers=os.cpu_count())\npocketfft.c2r(a, workers=2)\n"
                   "scipy.fft.fft(a, workers=True)\nscipy.fft.fft(a, workers=fields._threads(N))\n",
                   encoding="utf-8")
    assert list(_unruled_workers(src)) == [1, 2, 6, 9, 10, 11, 12]


def _scoped(path, hit):
    """(line, enclosing function's qualified name) of every node in a
    source file for which hit(node) holds; "" at module level."""
    def walk(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                yield from walk(child, scope + (child.name,))
                continue
            if hit(child):
                yield child.lineno, ".".join(scope)
            yield from walk(child, scope)

    yield from walk(ast.parse(path.read_text(encoding="utf-8")), ())


def _raises_nonzero_mean(node):
    if not (isinstance(node, ast.Raise) and node.exc is not None):
        return False
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return ast.unparse(exc).split(".")[-1] == "NonZeroMean"


def _mean_raises(path):
    """(line, scope) of every `raise NonZeroMean` in a source file."""
    return _scoped(path, _raises_nonzero_mean)


MEAN_RAISERS = {"multipliers.require_mean_zero", "fields._zero_mean"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_mean_checks_raise_nonzero_mean(path):
    # require_mean_zero is the one rule for computed fields, dense and
    # factored; _zero_mean judges declared outside data, for the checked
    # constructor and read_sqf1
    assert [(line, name) for line, name in _mean_raises(path)
            if f"{path.stem}.{name}" not in MEAN_RAISERS] == []


def test_the_rule_sees_a_mean_raise(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def require_mean_zero(f):\n    raise NonZeroMean('a')\n"
                   "class C:\n    def f(self):\n        raise errors.NonZeroMean\n"
                   "def g():\n    def h():\n        raise NonZeroMean('b')\n"
                   "    raise ValueError('c')\n"
                   "raise NonZeroMean('d')\n", encoding="utf-8")
    assert list(_mean_raises(src)) == [(2, "require_mean_zero"), (5, "C.f"),
                                       (8, "g.h"), (10, "")]


ERRSTATE = ("errstate", "seterr")


def _error_states(path):
    """(line, scope) of every reference to numpy's errstate or seterr in
    a source file, by attribute or imported name."""
    return _scoped(path, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr in ERRSTATE)
        or (isinstance(node, ast.Name) and node.id in ERRSTATE)
        or (isinstance(node, ast.ImportFrom) and node.module == "numpy"
            and any(a.name in ERRSTATE for a in node.names))))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_support_scan_silences_floating_point_errors(path):
    # every symbol divides only where |k| > 0, so no operator meets a
    # 0/0; _scan_box alone reads outside data, whose inf - inf it takes
    # as a defect
    assert [(line, name) for line, name in _error_states(path)
            if f"{path.stem}.{name}" != "fields._scan_box"] == []


def test_the_rule_sees_an_error_state(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import numpy as np\nfrom numpy import errstate, seterr as s\n"
                   "def f():\n    with np.errstate(divide='ignore'):\n        pass\n"
                   "class C:\n    def g(self):\n        with errstate(all='ignore'):\n"
                   "            pass\nnp.seterr(all='ignore')\nnp.geterr()\n",
                   encoding="utf-8")
    assert list(_error_states(src)) == [(2, ""), (4, "f"), (8, "C.g"), (10, "")]


def _is_inverse_transform(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and ast.unparse(node.func.value) == "scipy.fft"
            and node.func.attr.startswith("i"))


def _inverse_transforms(path):
    """(line, scope) of every `scipy.fft.i*(...)` call in a source file:
    ifft, irfft, irfft2 and the other inverse transforms."""
    return _scoped(path, _is_inverse_transform)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_every_inverse_transform_runs_in_to_grid(path):
    # to_grid is the one home of the inverse transform, so a tracer that
    # times fields.to_grid sees every sample the program takes
    assert [(line, name) for line, name in _inverse_transforms(path)
            if f"{path.stem}.{name}" != "fields.to_grid"] == []


def test_the_rule_sees_an_inverse_transform(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def to_grid(h):\n    scipy.fft.ifft(h)\n    scipy.fft.irfft(h)\n"
                   "def f():\n    scipy.fft.irfft2(a)\n    scipy.fft.rfft2(a)\n"
                   "class C:\n    def g(self):\n        return scipy.fft.ifftn(a)\n"
                   "numpy.fft.irfft(a)\nscipy.fft.next_fast_len(8)\nscipy.fft.ifft2(a)\n",
                   encoding="utf-8")
    assert list(_inverse_transforms(src)) == [(2, "to_grid"), (3, "to_grid"), (5, "f"),
                                              (9, "C.g"), (12, "")]


def _half_parameters(path):
    """Line of every function or lambda in a source file that takes a
    parameter named `half`, of any kind."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            names = [p.arg for p in a.posonlyargs + a.args + a.kwonlyargs]
            names += [p.arg for p in (a.vararg, a.kwarg) if p is not None]
            if "half" in names:
                yield node.lineno


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_function_takes_a_half_flag(path):
    # a field stores only its k2 >= 0 half, so no code path chooses
    # between a half and a whole box
    assert list(_half_parameters(path)) == []


def test_the_rule_sees_a_half_parameter(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(c, half=False):\n    pass\n"
                   "class C:\n    def g(self, *, half):\n        pass\n"
                   "h = lambda half: half\n"
                   "def k(c, halves, *half):\n    pass\n"
                   "async def m(half, /):\n    pass\n"
                   "def n(c, **kw):\n    return kw.get('half')\n", encoding="utf-8")
    assert sorted(_half_parameters(src)) == [1, 4, 6, 7, 9]


def _is_box_call(node):
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "box")


def _box_calls(path):
    """(line, scope) of every `x.box()` call in a source file."""
    return _scoped(path, _is_box_call)


BOX_CALLERS = {"multipliers.ModulatedField.wave"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_box_readers_rebuild_a_whole_box(path):
    # a field stores its k2 >= 0 half; sums over the box read the half,
    # so a whole box is rebuilt only for a dense field's carrier-0 block;
    # files and exports in box order take it a few rows at a time from
    # box_rows, and the carrier pairing reads theta's support off its half
    assert [(line, name) for line, name in _box_calls(path)
            if f"{path.stem}.{name}" not in BOX_CALLERS] == []


def test_the_rule_sees_a_box_call(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def write_sqf1(f):\n    f.box()\n"
                   "def inner(f, g):\n    return f.box() * g.coeffs\n"
                   "class C:\n    def wave(self, a):\n        return {0: a.box()}\n"
                   "box(f)\nf.boxes()\nf.box\nc = f.pad_to(3).box()\n", encoding="utf-8")
    assert list(_box_calls(src)) == [(2, "write_sqf1"), (4, "inner"), (7, "C.wave"),
                                     (11, "")]


CACHES = ("lru_cache", "cache")


def _functools_caches(path):
    """(line, scope) of every reference to functools.lru_cache or
    functools.cache in a source file, by attribute or imported name; a
    decorator's scope is the function it wraps."""
    names = {a.asname or a.name
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) and node.module == "functools"
             for a in node.names if a.name in CACHES}

    def hit(node):
        return ((isinstance(node, ast.Name) and node.id in names)
                or (isinstance(node, ast.Attribute) and node.attr in CACHES
                    and ast.unparse(node.value) == "functools"))

    return _scoped(path, hit)


def _cache_clears(path):
    """(line, scope) of every `x.cache_clear()` call in a source file."""
    return _scoped(path, lambda node: isinstance(node, ast.Call)
                   and isinstance(node.func, ast.Attribute)
                   and node.func.attr == "cache_clear")


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_the_odd_symbols_are_the_one_cache_and_nothing_clears_it(path):
    # no function is cached: the m_j symbols, once the one cached k-grid,
    # are evaluated block by block as the sampler writes its spectrum, or
    # built fresh for the amplitudes; a cached grid would stay alive
    # through a step's memory peak, and a clear would manage a cache
    # from outside its module
    assert list(_functools_caches(path)) == []
    assert list(_cache_clears(path)) == []


def test_the_rule_sees_a_cache_and_a_clear(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import functools\nfrom functools import lru_cache, cache as memo\n"
                   "@lru_cache(maxsize=1)\ndef _odd_symbols(K):\n    pass\n"
                   "class C:\n    @functools.cache\n    def f(self):\n        pass\n"
                   "g = functools.lru_cache()(len)\n"
                   "def h():\n    @memo\n    def k():\n        pass\n    cache = {}\n"
                   "    _odd_symbols.cache_clear()\n    return cache\n"
                   "functools.partial(len)\nC.f.cache_clear\n", encoding="utf-8")
    assert list(_functools_caches(src)) == [(3, "_odd_symbols"), (7, "C.f"), (10, ""),
                                            (12, "h.k")]
    assert list(_cache_clears(src)) == [(16, "h")]


def _verify_imports(path):
    """(line, scope) of every import of `sqgci.verify` in a source file,
    absolute or relative, as a module or from it."""
    def hit(node):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom):
            # the package's modules sit at its top, so a relative import
            # starts from sqgci
            base = "sqgci" if node.level else ""
            base = ".".join(x for x in (base, node.module) if x)
            names = [base] + [f"{base}.{a.name}" for a in node.names]
        else:
            return False
        return "sqgci.verify" in names

    return _scoped(path, hit)


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_cli_imports_verify(path):
    # verify checks what a run computed and wrote; a module the run
    # imports could not be read back by it without an import cycle
    if path.stem != "cli":
        assert list(_verify_imports(path)) == []


def test_the_rule_sees_a_verify_import(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from .verify import weak_residual\nfrom . import fields, verify\n"
                   "import sqgci.verify\nfrom sqgci.verify import report\n"
                   "from sqgci import verify as v\nfrom .verifier import x\n"
                   "from .fields import verify\nimport verify\n"
                   "def f():\n    from .verify import check\n", encoding="utf-8")
    assert list(_verify_imports(src)) == [(1, ""), (2, ""), (3, ""), (4, ""), (5, ""),
                                          (10, "f")]


def _is_good_grid_call(node):
    return isinstance(node, ast.Call) and (
        (isinstance(node.func, ast.Name) and node.func.id == "good_grid")
        or (isinstance(node.func, ast.Attribute) and node.func.attr == "good_grid"))


def _good_grid_calls(path):
    """(line, scope) of every `good_grid(...)` call in a source file, by
    name or attribute."""
    return _scoped(path, _is_good_grid_call)


GRID_SIZERS = {"fields.product_grid", "fields.sqrt_grid", "norms._grid_side"}


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_only_the_three_sizing_functions_call_good_grid(path):
    # product_grid sizes every exact product, sqrt_grid every square
    # root's sampling and _grid_side every norm's: each rule, and its
    # check against the grid cap, has one home
    assert [(line, name) for line, name in _good_grid_calls(path)
            if f"{path.stem}.{name}" not in GRID_SIZERS] == []


def test_the_rule_sees_a_good_grid_call(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def product_grid(b):\n    return good_grid(2 * b + 2)\n"
                   "def step(s):\n    need = fields.good_grid(4 * s + 2)\n"
                   "class C:\n    def f(self):\n        return [good_grid(n) for n in x]\n"
                   "good_grid\nnext_fast_len(8)\nN = good_grid(9)\n", encoding="utf-8")
    assert list(_good_grid_calls(src)) == [(2, "product_grid"), (4, "step"), (7, "C.f"),
                                           (10, "")]


POOLS = ("ThreadPoolExecutor", "ProcessPoolExecutor", "ThreadPool", "Pool", "Thread",
         "Process")


def _pool_constructions(path):
    """(line, scope) of every call in a source file that constructs a
    thread or process pool, or a thread or process, by attribute or
    imported name."""
    names = {a.asname or a.name
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.ImportFrom) for a in node.names if a.name in POOLS}

    def hit(node):
        if not isinstance(node, ast.Call):
            return False
        f = node.func
        return ((isinstance(f, ast.Name) and f.id in names)
                or (isinstance(f, ast.Attribute) and f.attr in POOLS))

    return _scoped(path, hit)


def test_fields_builds_the_one_pool():
    # fields owns the one pool, of _cpu_count() threads; a second pool
    # would run more threads at once than the process has CPUs
    sites = [(path.stem, name) for path in sorted((ROOT / "src" / "sqgci").glob("*.py"))
             for _, name in _pool_constructions(path)]
    assert sites == [("fields", "_start_pool")]


def test_the_rule_sees_a_pool(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from concurrent.futures import ThreadPoolExecutor as TPE, wait\n"
                   "P = TPE(max_workers=2)\n"
                   "def f():\n    return concurrent.futures.ProcessPoolExecutor()\n"
                   "class C:\n    def g(self):\n        threading.Thread(target=f).start()\n"
                   "multiprocessing.Pool(2)\nwait([])\nThreadPoolExecutor\n"
                   "multiprocessing.pool.ThreadPool(2)\n", encoding="utf-8")
    assert list(_pool_constructions(src)) == [(2, ""), (4, "f"), (7, "C.g"), (8, ""),
                                              (11, "")]


ENVIRON = ("environ", "environb", "getenv", "getenvb")


def _environment_reads(path):
    """(line, scope) of every reference to os.environ, os.getenv or their
    bytes forms in a source file, by attribute or imported name."""
    return _scoped(path, lambda node: (
        (isinstance(node, ast.Attribute) and node.attr in ENVIRON)
        or (isinstance(node, ast.ImportFrom) and node.module == "os"
            and any(a.name in ENVIRON for a in node.names))))


@pytest.mark.parametrize("path", sorted((ROOT / "src" / "sqgci").glob("*.py")),
                         ids=lambda p: p.name)
def test_no_module_reads_the_environment(path):
    # the program's behaviour, its thread count included, follows from
    # its config, its arguments and the CPUs it may use, never from an
    # environment variable
    assert list(_environment_reads(path)) == []


def test_the_rule_sees_an_environment_read(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("import os\nfrom os import getenv as g, path\n"
                   "def f():\n    return os.environ.get('N')\n"
                   "x = os.getenv('N')\nos.path.join('a')\n"
                   "class C:\n    def g(self):\n        return os.environb[b'N']\n"
                   "environ = {}\n", encoding="utf-8")
    assert list(_environment_reads(src)) == [(2, ""), (4, "f"), (5, ""), (9, "C.g")]


def _uncalled(paths):
    """Qualified name (module.function or module.Class.method) of every
    top-level function, and every method other than a dunder, in the
    given source files that no Name or Attribute in them loads outside
    the function's own body; an import or an assignment is no reference."""
    trees = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in paths}
    refs = {}
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                refs.setdefault(node.id, []).append(node)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                refs.setdefault(node.attr, []).append(node)
    for stem, tree in trees.items():
        defs = [((), node) for node in tree.body]
        defs += [((cls.name,), node) for cls in tree.body if isinstance(cls, ast.ClassDef)
                 for node in cls.body]
        for scope, node in defs:
            if (not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                    or scope and node.name.startswith("__") and node.name.endswith("__")):
                continue
            own = {id(n) for n in ast.walk(node)}
            if all(id(n) in own for n in refs.get(node.name, [])):
                yield ".".join((stem,) + scope + (node.name,))


# each entry says why it stays without a caller in src/
UNCALLED = {
    "fields.TorusField.from_modes": "the checked entry point for a field given "
                                    "as modes from outside the program",
}


def test_every_function_has_a_caller_in_src():
    # a function that nothing in src/ calls is code the program does not
    # run; an allowlisted name that gains a caller leaves the list
    paths = sorted((ROOT / "src" / "sqgci").glob("*.py"))
    assert sorted(_uncalled(paths)) == sorted(UNCALLED)


def test_the_rule_sees_an_uncalled_function(tmp_path):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text("def f():\n    return g\ndef g():\n    return g()\n"
                 "def h():\n    def k():\n        pass\n"
                 "class C:\n    def __init__(self):\n        self.m()\n"
                 "    def m(self):\n        pass\n    def n(self):\n        pass\n"
                 "    @property\n    def p(self):\n        pass\n"
                 "async def r():\n    pass\ndef s():\n    return s()\n", encoding="utf-8")
    b.write_text("from a import f, h\nimport a\nf()\na.C.p\nh = 'n'\nr = 1\n",
                 encoding="utf-8")
    assert sorted(_uncalled([a, b])) == ["a.C.n", "a.h", "a.r", "a.s"]
