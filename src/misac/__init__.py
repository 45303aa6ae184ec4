"""misac: multimodal sensing-and-communication model sandbox."""

__version__ = "0.1.0"


class MisacError(ValueError):
    """A fault in what the caller gave: config, dataset, checkpoint or
    arguments. Each module's error derives from it, and the CLI exits 1 with
    its message."""
