"""misac: multimodal sensing-and-communication model sandbox."""

import json

__version__ = "0.1.0"


def canonical_json(obj) -> str:
    """obj as JSON with sorted keys and no whitespace: the one text that config
    fingerprints, dataset manifests and checkpoint headers are written in."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


class MisacError(ValueError):
    """A fault in what the caller gave: config, dataset, checkpoint or
    arguments. Each module's error derives from it, and the CLI exits 1 with
    its message."""
