"""No package code that only tests reach.

The package sources are parsed, not imported.  Starting from the entry
points (`toposkms` itself, the report pipeline the benchmark drives) and
the functions the benchmark tracer wraps, every Name a definition loads,
other than the names a function binds itself (its parameters and
locals), and every Attribute identifier is followed to every definition
of that name.
Inside a class, `self.X` and `cls.X` lead only to the class's own member
X when the class defines one.  So does `x.X` where the package class of
the parameter or local x is known: every binding of x in the definition
is a parameter annotated with that class, or an assignment of a call to
the class or to a package function annotated to return it
(`x = Cls(...)`, `x = make(...)`); a field of the class leads nowhere.
Every other identifier is followed by name alone.  The walk
over-approximates what runs, so a definition it does not reach is
certainly dead outside the tests.

The same holds for state: every attribute a package method stores on
`self` must be read, as an attribute, somewhere in the package, and
every field of a package dataclass must be read somewhere in the
package, the tests or the benchmark.  A string constant equal to a field
name counts as a read of it, since report code reads fields by name
through getattr.

Module-level statements run at import and count as reached.  A function
registered by a package decorator (e.g. `suites.suite`) is reached with
that decorator, and the dunder methods of a class with the class.
Annotations are skipped: naming a type is not using it.
"""
import ast
import collections
import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "toposkms"
SPANS = ROOT / "perfbench" / "spans.py"
READERS = (PACKAGE, ROOT / "tests", ROOT / "perfbench")

ENTRY_POINTS = ("cli.main", "cli.execute", "scenario.load_scenario")


def _local_classes(nodes, classes, returns) -> dict:
    """{name: class name} of the parameters and locals under the nodes
    whose every binding is a parameter annotated with one class of
    `classes`, or an assignment `name = f(...)` where f is that class or
    `returns` maps f to it."""
    kinds, assigned = {}, set()
    # ast.walk visits an assignment before its target
    for node in (n for root in nodes for n in ast.walk(root)):
        if isinstance(node, ast.arg):
            ann = node.annotation
            kinds.setdefault(node.arg, set()).add(
                ann.id if isinstance(ann, ast.Name) and ann.id in classes
                else None)
        elif (isinstance(node, ast.Assign) and len(node.targets) == 1
              and isinstance(node.targets[0], ast.Name)):
            call = node.value
            made = (call.func.id if isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Name) else None)
            kinds.setdefault(node.targets[0].id, set()).add(
                made if made in classes else returns.get(made))
            assigned.add(id(node.targets[0]))
        elif (isinstance(node, ast.Name) and id(node) not in assigned
              and not isinstance(node.ctx, ast.Load)):
            kinds.setdefault(node.id, set()).add(None)
    return {name: next(iter(k)) for name, k in kinds.items()
            if len(k) == 1 and None not in k}


def _identifiers(nodes, owner: str = "", own=frozenset(),
                 classes=None, returns=None) -> set:
    """Name and Attribute identifiers under the nodes, annotations skipped.
    `self.X` and `cls.X` with X in `own`, the members of the class keyed
    `owner`, come out as the member's key `owner.X` instead of X; so does
    `x.X` as `key.X` when x is a parameter or local of a known class
    (_local_classes) and X is a member of it, with `classes` mapping each
    package class name to (key, member names) and `returns` each package
    function to the class it is annotated to return."""
    classes = classes or {}
    local = _local_classes(nodes, classes, returns or {})
    # a name a function binds is its local, not a package definition
    bound = {n.arg if isinstance(n, ast.arg) else n.id
             for root in nodes if _is_def(root) for n in ast.walk(root)
             if isinstance(n, ast.arg) or (isinstance(n, ast.Name)
                                           and isinstance(n.ctx, ast.Store))}
    out = set()
    stack = list(nodes)
    while stack:
        node = stack.pop()
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load) and node.id not in bound:
                out.add(node.id)
        elif (isinstance(node, ast.Attribute) and node.attr in own
              and isinstance(node.value, ast.Name)
              and node.value.id in ("self", "cls")):
            out.add(f"{owner}.{node.attr}")
        elif (isinstance(node, ast.Attribute)
              and isinstance(node.value, ast.Name)
              and node.value.id in local
              and node.attr in classes[local[node.value.id]][1]):
            out.add(f"{classes[local[node.value.id]][0]}.{node.attr}")
            stack.append(node.value)
            continue
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        for field, value in ast.iter_fields(node):
            if field in ("annotation", "returns"):
                continue
            if isinstance(value, ast.AST):
                stack.append(value)
            elif isinstance(value, list):
                stack.extend(v for v in value if isinstance(v, ast.AST))
    return out


def _is_def(node) -> bool:
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef))


def package_graph(sources=None):
    """(uses, decorators, import_time) over {module: source}, by default
    the package: the identifiers each definition uses, the identifiers
    in its decorators, and those used at import."""
    sources = sources or {path.stem: path.read_text(encoding="utf-8")
                          for path in PACKAGE.glob("*.py")}
    trees = {module: ast.parse(text) for module, text in sorted(sources.items())}
    # class name -> (key, names of its methods and fields), function name
    # -> the class its return annotation names; a name defined twice in
    # the package is not known
    classes, returns, defined = {}, {}, collections.Counter()
    for module, tree in trees.items():
        for node in filter(_is_def, tree.body):
            defined[node.name] += 1
            if isinstance(node, ast.ClassDef):
                classes[node.name] = (f"{module}.{node.name}", {
                    t.id for m in node.body
                    if isinstance(m, (ast.Assign, ast.AnnAssign))
                    for t in ast.walk(m)
                    if isinstance(t, ast.Name) and isinstance(t.ctx, ast.Store)
                } | {m.name for m in node.body if _is_def(m)})
            elif isinstance(node.returns, ast.Name):
                returns[node.name] = node.returns.id
    classes = {c: v for c, v in classes.items() if defined[c] == 1}
    returns = {f: c for f, c in returns.items()
               if defined[f] == 1 and c in classes}
    uses, decorators, import_time = {}, {}, set()
    for module, tree in trees.items():
        for node in tree.body:
            if not _is_def(node):
                import_time |= _identifiers([node], classes=classes,
                                            returns=returns)
                continue
            key = f"{module}.{node.name}"
            decorators[key] = _identifiers(node.decorator_list)
            import_time |= decorators[key]
            if isinstance(node, ast.ClassDef):
                members = [n for n in node.body if _is_def(n)]
                rest = [n for n in node.body if not _is_def(n)]
                uses[key] = _identifiers(rest + node.bases + node.keywords,
                                         classes=classes, returns=returns)
                own = {m.name for m in members}
                for m in members:
                    uses[f"{key}.{m.name}"] = _identifiers(
                        [m], key, own, classes, returns)
            else:
                uses[key] = _identifiers([node], classes=classes,
                                         returns=returns)
    return uses, decorators, import_time


def traced_targets():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return [f"{mod}.{name}" for mod, name in module.TARGETS]


def reached(uses, decorators, import_time, roots) -> set:
    """Keys of the definitions the walk reaches.  An identifier with a dot
    is the key of a class member; any other is followed by name."""
    by_name = {}
    for key in uses:
        by_name.setdefault(key.rsplit(".", 1)[1], []).append(key)
        by_name[key] = [key]
    registered = {}
    for key, names in decorators.items():
        for name in names:
            for deco in by_name.get(name, ()):
                registered.setdefault(deco, []).append(key)
    seen = set()
    todo = list(roots) + [k for n in import_time for k in by_name.get(n, ())]
    while todo:
        key = todo.pop()
        if key in seen:
            continue
        seen.add(key)
        todo.extend(k for n in uses[key] for k in by_name.get(n, ()))
        todo.extend(registered.get(key, ()))
        # a class brings its implicitly called dunder methods
        todo.extend(k for k in uses if k.startswith(key + ".__"))
    return seen


TOY = """
class Flow:
    def unitary(self, t):
        return t

    def run(self):
        return self.unitary(1.0)


class Group:
    def __init__(self):
        self.samples = [0.0]

    def unitary(self, t):
        return -t


def main():
    return Flow().run(), Group().samples
"""


def test_self_members_lead_to_their_own_class():
    """Group.unitary is dead: Flow.run calls its own class's unitary.  A
    walk by name alone reaches it through the identifier `unitary`."""
    uses, decorators, import_time = package_graph({"toy": TOY})
    by_name_only = {key: {n.rsplit(".", 1)[-1] for n in names}
                    for key, names in uses.items()}

    def dead(graph):
        return sorted(set(graph) - reached(graph, decorators, import_time,
                                           ["toy.main"]))

    assert dead(by_name_only) == []
    assert dead(uses) == ["toy.Group.unitary"]


TOY_TYPED = """
class Flow:
    def unitary(self, t):
        return t


class Group:
    def unitary(self, t):
        return -t

    def samples(self):
        return [0.0]


def make() -> Group:
    return Group()


def step(flow: Flow, unitary):
    return flow.unitary(unitary)


def main():
    flow = Flow()
    group = make()
    return step(flow, 1.0), flow.unitary(2.0), group.samples()
"""


def test_typed_locals_lead_to_their_own_class():
    """Group.unitary is dead: every `.unitary` is read off a parameter or
    local of class Flow, by annotation, constructor or return
    annotation, and the parameter `unitary` is a local.  A walk by name
    alone reaches it; so does the walk once `flow` may also hold a
    Group."""
    uses, decorators, import_time = package_graph({"toy": TOY_TYPED})

    def dead(graph):
        return sorted(set(graph) - reached(graph, decorators, import_time,
                                           ["toy.main"]))

    by_name_only = {key: {n.rsplit(".", 1)[-1] for n in names}
                    for key, names in uses.items()}
    assert dead(by_name_only) == []
    assert dead(uses) == ["toy.Group.unitary"]
    mixed = TOY_TYPED.replace("    group = make()\n",
                              "    group = make()\n    flow = group\n")
    uses, decorators, import_time = package_graph({"toy": mixed})
    assert dead(uses) == []


def test_traced_names_exist():
    uses, _, _ = package_graph()
    for key in traced_targets() + list(ENTRY_POINTS):
        assert key in uses, key


def test_every_definition_is_reached():
    uses, decorators, import_time = package_graph()
    roots = list(ENTRY_POINTS) + traced_targets()
    seen = reached(uses, decorators, import_time, roots)
    assert sorted(set(uses) - seen) == []


def test_oracles_are_not_second_copies():
    """A test oracle is not also defined in the package, so a dense
    reference cannot drift back into it beside the tests' copy."""
    def top_level(path):
        return {node.name for node in ast.parse(
            path.read_text(encoding="utf-8")).body if _is_def(node)}

    package = set().union(*map(top_level, PACKAGE.glob("*.py")))
    oracles = top_level(ROOT / "tests" / "oracles.py")
    assert oracles
    assert sorted(package & oracles) == []


def stored_and_read():
    """({attribute: module} stored on `self`, attribute names read) over
    the package sources."""
    stored, read = {}, set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if not isinstance(node, ast.Attribute):
                continue
            if isinstance(node.ctx, ast.Load):
                read.add(node.attr)
            elif isinstance(node.value, ast.Name) and node.value.id == "self":
                stored.setdefault(node.attr, path.stem)
    return stored, read


def dataclass_fields():
    """["module.Class.field"] of the annotated fields of the package's
    dataclasses."""
    out = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if (isinstance(node, ast.ClassDef)
                    and "dataclass" in _identifiers(node.decorator_list)):
                out.extend(f"{path.stem}.{node.name}.{item.target.id}"
                           for item in node.body
                           if isinstance(item, ast.AnnAssign))
    return out


def names_read(roots) -> set:
    """Attribute names loaded, and string constants, in the Python files
    under the roots."""
    out = set()
    for root in roots:
        for path in sorted(root.rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
                if isinstance(node, ast.Attribute) and isinstance(node.ctx,
                                                                  ast.Load):
                    out.add(node.attr)
                elif (isinstance(node, ast.Constant)
                      and isinstance(node.value, str)):
                    out.add(node.value)
    return out


def test_every_stored_attribute_is_read():
    stored, read = stored_and_read()
    assert stored
    assert sorted(f"{module}.{attr}" for attr, module in stored.items()
                  if attr not in read) == []
    fields = dataclass_fields()
    assert fields
    read = names_read(READERS)
    assert [f for f in fields if f.rsplit(".", 1)[1] not in read] == []
