"""Every call site perfbench/layers.json names must exist under totaldom.

The perfbench tracer wraps each site by setting the attribute it names, so
a site that no longer resolves (say, a dropped import) breaks every traced
run.  Resolve each one here the way the tracer does, without wrapping.
"""

import importlib
import json
import os

LAYERS = os.path.join(os.path.dirname(__file__), os.pardir, "perfbench", "layers.json")


def test_every_traced_site_resolves():
    with open(LAYERS, encoding="utf-8") as fh:
        layers = json.load(fh)["layers"]
    sites = [site for layer in layers for site in layer["sites"]]
    assert len(sites) > 20
    for site in sites:
        module_name, _, attr_path = site.partition(".")
        owner = importlib.import_module("totaldom." + module_name)
        for part in attr_path.split("."):
            assert hasattr(owner, part), f"{site} does not resolve: no attribute {part!r}"
            owner = getattr(owner, part)
        assert callable(owner), site
