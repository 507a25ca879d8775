"""Stored per-plan reference logits of the serving model.

The file holds the no-grad logits of every serving plan on a fixed model
(seed ``REFERENCE_SEED``) and a fixed two-sequence batch. Each run checks
the executor against it, so a change that alters what a plan computes
fails the run instead of only changing its timing.

Regenerate only when a plan's output is meant to change:

    python3 perfbench/reference.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

REFERENCE_FILE = Path(__file__).resolve().parent / "reference" / "forward_plans.npz"


def compute() -> dict[str, np.ndarray]:
    from slimformer import no_grad
    from scenarios import REFERENCE_BATCH, REFERENCE_SEED, serve_inputs

    tokens, planned = serve_inputs(REFERENCE_SEED, batch=REFERENCE_BATCH)
    out = {}
    with no_grad():
        for name, pm in planned.items():
            out[name] = pm.forward(tokens)[0].data
    return out


def load() -> dict[str, np.ndarray]:
    with np.load(REFERENCE_FILE) as stored:
        return {name: stored[name] for name in stored.files}


def main():
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    REFERENCE_FILE.parent.mkdir(exist_ok=True)
    np.savez(REFERENCE_FILE, **compute())
    print(f"wrote {REFERENCE_FILE}")


if __name__ == "__main__":
    main()
