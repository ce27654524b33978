"""Every public function, method and property of the library is reached by a command.

The commands run in-process under sys.setprofile; a public name that no
command calls belongs in the tests as an oracle, or nowhere.
"""

import importlib
import inspect
import sys
from pathlib import Path

from solfold import cli

SRC = Path(__file__).resolve().parents[1] / "src" / "solfold"

# name -> why it stays in the library although no command reaches it
ALLOWED = {
    "kleinian.kulkarni_membership": "kept for the rows that check Kulkarni's limit "
                                    "set against the computed lines (ROADMAP item 6)",
}


def public_code():
    """Code object of each public module-level function and each public
    method or property of a public class, by module-qualified name."""
    out = {}
    for path in sorted(SRC.glob("*.py")):
        mod = importlib.import_module(f"solfold.{path.stem}")
        tag = path.stem
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                out[f"{tag}.{name}"] = obj.__code__
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    if attr.startswith("_"):
                        continue
                    fn = member.fget if isinstance(member, property) else \
                        getattr(member, "__func__", member)
                    if inspect.isfunction(fn):
                        out[f"{tag}.{name}.{attr}"] = fn.__code__
    return out


def commands(tmp):
    report = str(tmp / "verify.json")
    yield ["verify", "--suite", "all", "--samples", "20", "--out", report]
    for target in ("flow", "leaf-metric", "orbit"):
        for fmt in ("csv", "json"):
            yield ["export", target, "--format", fmt, "--out", str(tmp / f"{target}.{fmt}")]
    yield ["export", "domain", "--out", str(tmp / "domain.json")]
    yield ["export", "limit-set", "--N", "8", "--out", str(tmp / "limit-set.json")]
    yield ["report", "--in", report, "--out", str(tmp / "report.txt")]


def test_every_public_name_is_reached_by_a_command(tmp_path):
    wanted = public_code()
    called = set()

    def hook(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    sys.setprofile(hook)
    try:
        codes = [cli.main(argv) for argv in commands(tmp_path)]
    finally:
        sys.setprofile(None)
    # the verify suite passes, so every command completes
    assert codes == [0] * len(codes)
    unreached = sorted(name for name, code in wanted.items() if code not in called)
    assert unreached == sorted(ALLOWED), \
        f"reached by no command: {sorted(set(unreached) - set(ALLOWED))}; " \
        f"allowed but reached: {sorted(set(ALLOWED) - set(unreached))}"
