"""The benchmark's tracer wraps nextloc's public names by attribute lookup, so a
renamed or dropped name breaks ``perfbench/run.py --trace``.  This pins the
contract: installing the tracer finds every name, and uninstalling it puts
back every attribute it replaced."""

import importlib.util
import inspect
import pathlib
import sys

import nextloc

TRACING = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module      # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def snapshot():
    """(owner, attribute) -> value for every nextloc module attribute and
    every attribute, inherited ones included, of the classes those modules
    define."""
    out = {}
    for name, module in list(sys.modules.items()):
        if name != "nextloc" and not name.startswith("nextloc."):
            continue
        for attr, value in vars(module).items():
            out[(name, attr)] = value
            if inspect.isclass(value) and value.__module__ == name:
                for cls_attr in dir(value):
                    out[(f"{name}.{attr}", cls_attr)] = inspect.getattr_static(value, cls_attr)
    return out


def test_install_wraps_every_name_and_uninstall_restores_all():
    before = snapshot()
    tracer = load_tracing().Tracer()
    tracer.install(nextloc)
    try:
        during = snapshot()
        changed = {key for key in before if during[key] is not before[key]}
        for key in [("nextloc.evaluate", "rank_of_truth"),
                    ("nextloc.evaluate", "evaluate_with_nets"),
                    ("nextloc.association", "adjust_user_scores"),
                    ("nextloc.association", "adjust_poi_scores"),
                    ("nextloc.autodiff", "matmul"),
                    ("nextloc.user_net.UserNet", "score_rows_at_cuts")]:
            assert key in changed, key
    finally:
        tracer.uninstall()
    after = snapshot()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []
