"""The library's settable values and size, pinned.

SETTABLE lists every parameter with a default of every function and method
defined in pkgm, dataclass fields with defaults (TrainConfig, RecConfig and
the rest) as parameters of their generated __init__. Adding or removing an
option is then a one-line edit of this list. TEST_ONLY lists every function,
class and method defined in pkgm whose name appears nowhere in src/pkgm or
bench/ but at its definition: what only the tests reach. SRC_LINES is the line
count of src/pkgm, so a change that grows or shrinks the library also edits
that number.
"""

import ast
import importlib
import inspect
import pkgutil
import re
from pathlib import Path

import pkgm

# newlines in src/pkgm/*.py
SRC_LINES = 2536

# the public scoring API, which no pipeline stage calls
TEST_ONLY = ["downstream.RecModel.predict"]

SETTABLE = [
    "downstream.RecConfig.__init__(batch_size)",
    "downstream.RecConfig.__init__(epochs)",
    "downstream.RecConfig.__init__(learning_rate)",
    "downstream.RecConfig.__init__(neg_ratio)",
    "downstream.RecConfig.__init__(seed)",
    "kgstore.TripleStore.__init__(category_relation)",
    "kgstore.id_rows(shape)",
    "kgstore.load_triples(category_relation)",
    "kgstore.read_tsv(comments)",
    "kgstore.read_tsv(miscount)",
    "kgstore.store_from_triples(category_relation)",
    "model.relation_service(dtype)",
    "model.relation_service(groups)",
    "model.triple_service(dtype)",
    "servicing.QueryService.handle(snap)",
    "servicing.serve(host)",
    "servicing.serve(port)",
    "synth.PlantedKG.__init__(category_relation)",
    "synth.PreferenceData.__init__(preferences)",
    "synth.planted_kg(coverage)",
    "synth.planted_kg(n_categories)",
    "synth.planted_kg(n_entities)",
    "synth.planted_kg(powers)",
    "synth.planted_kg(seed)",
    "synth.preference_dataset(interactions_per_user)",
    "synth.preference_dataset(n_categories)",
    "synth.preference_dataset(n_items)",
    "synth.preference_dataset(n_users)",
    "synth.preference_dataset(n_values)",
    "synth.preference_dataset(preferred_prob)",
    "synth.preference_dataset(seed)",
    "synth.split_triples(seed)",
    "trainer.TrainConfig.__init__(batch_size)",
    "trainer.TrainConfig.__init__(corrupt_relation_prob)",
    "trainer.TrainConfig.__init__(dim)",
    "trainer.TrainConfig.__init__(epochs)",
    "trainer.TrainConfig.__init__(learning_rate)",
    "trainer.TrainConfig.__init__(margin)",
    "trainer.TrainConfig.__init__(negatives_per_positive)",
    "trainer.TrainConfig.__init__(seed)",
]


def _functions(module):
    """(qualified name, function) of each function and method defined in module."""
    for name, obj in vars(module).items():
        if getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            yield name, obj
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                member = getattr(member, "__func__", member)  # staticmethod, classmethod
                if inspect.isfunction(member):
                    yield f"{name}.{attr}", member


def settable_values() -> list[str]:
    names = []
    for info in pkgutil.iter_modules(pkgm.__path__):
        module = importlib.import_module(f"pkgm.{info.name}")
        for name, fn in _functions(module):
            names += [f"{info.name}.{name}({param.name})"
                      for param in inspect.signature(fn).parameters.values()
                      if param.default is not inspect.Parameter.empty]
    return sorted(names)


def test_settable_library_values_are_pinned():
    assert settable_values() == SETTABLE


def test_only_tests_reach_the_pinned_names():
    src = Path(pkgm.__path__[0])
    paths = sorted(src.glob("*.py"))
    texts = [path.read_text(encoding="utf-8")
             for path in paths + sorted((src.parents[1] / "bench").glob("*.py"))]
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    found = []
    for path in paths:
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, defs):
                continue
            members = node.body if isinstance(node, ast.ClassDef) else []
            for qual, name in [(node.name, node.name),
                               *((f"{node.name}.{m.name}", m.name) for m in members
                                 if isinstance(m, defs[:2]))]:
                if name.startswith("__") and name.endswith("__"):
                    continue
                # every occurrence of the name is a definition of it
                word = re.compile(rf"\b{name}\b")
                definition = re.compile(rf"^[ \t]*(?:async[ \t]+)?(?:def|class)[ \t]+{name}\b",
                                        re.M)
                if all(len(word.findall(t)) == len(definition.findall(t)) for t in texts):
                    found.append(f"{path.stem}.{qual}")
    assert sorted(found) == TEST_ONLY


def test_src_line_budget():
    lines = sum(path.read_bytes().count(b"\n")
                for path in Path(pkgm.__path__[0]).glob("*.py"))
    assert lines == SRC_LINES, f"src/pkgm has {lines} lines; SRC_LINES is {SRC_LINES}"
