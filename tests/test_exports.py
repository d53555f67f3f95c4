"""Every exported name resolves, so a class, field or function that leaves cannot stay exported."""

import importlib
import pkgutil

import hexlat


def test_every_name_in_an_all_resolves():
    names = ["hexlat"] + [f"hexlat.{info.name}" for info in pkgutil.iter_modules(hexlat.__path__)]
    modules = [importlib.import_module(name) for name in names]
    exported = [(m, n) for m in modules for n in getattr(m, "__all__", ())]
    missing = [f"{m.__name__}.{n}" for m, n in exported if not hasattr(m, n)]
    assert len({m for m, _ in exported}) > 1 and not missing, missing
