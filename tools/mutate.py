"""Seeded mutation sample: change one site of a module, run the tests, repeat.

    python tools/mutate.py analysis fock_core trap_model --sites 25 --seed 7

The repository is copied once to a temporary directory.  For each sampled
site, src/hotgate/<module>.py is rewritten there with one change: + and -,
* and /, < and <=, > and >=, or == and != swapped, or one numeric constant
bumped (an int by 1, a float doubled).  Then `python -m pytest -x -q` runs
in the copy.  A mutant the suite passes is printed as SURVIVED.  The
working tree is only read.  Written by ast.unparse, so the unmutated
module is run once first and must pass.
"""
import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

SWAPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.Div, ast.Div: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Gt: ast.GtE, ast.GtE: ast.Gt,
         ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}


def sites(tree):
    """(node, index) of every swappable operator and numeric constant, in a
    fixed order; index is the position in a comparison chain, else None."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in SWAPS:
            out.append((node, None))
        elif isinstance(node, ast.Compare):
            out += [(node, i) for i, op in enumerate(node.ops) if type(op) in SWAPS]
        elif isinstance(node, ast.Constant) and type(node.value) in (int, float):
            out.append((node, None))
    return out


def mutant(source, k):
    """The source with site k changed, and a one-line description."""
    tree = ast.parse(source)
    node, i = sites(tree)[k]
    before = ast.unparse(node)
    if isinstance(node, ast.Constant):
        node.value = node.value + 1 if type(node.value) is int else node.value * 2 or 1.0
    elif i is None:
        node.op = SWAPS[type(node.op)]()
    else:
        node.ops[i] = SWAPS[type(node.ops[i])]()
    return ast.unparse(tree), f"line {node.lineno}: {before}  ->  {ast.unparse(node)}"


def passes(copy):
    env = dict(os.environ, PYTHONPATH=str(copy / "src"))
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider"]
    try:
        return subprocess.run(cmd, cwd=copy, env=env, capture_output=True,
                              timeout=900).returncode == 0
    except subprocess.TimeoutExpired:
        return False


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="+", help="module names under src/hotgate")
    parser.add_argument("--sites", type=int, default=25, help="sites sampled per module")
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    root = Path(__file__).resolve().parents[1]
    with tempfile.TemporaryDirectory() as tmp:
        copy = Path(tmp) / "repo"
        shutil.copytree(root, copy, ignore=shutil.ignore_patterns(".git", "__pycache__"))
        for module in args.modules:
            path = copy / "src" / "hotgate" / f"{module}.py"
            source = path.read_text()
            path.write_text(ast.unparse(ast.parse(source)))
            if not passes(copy):
                sys.exit(f"{module}: the unmutated module, unparsed, fails the tests")
            count = len(sites(ast.parse(source)))
            picks = random.Random(args.seed).sample(range(count), min(args.sites, count))
            survivors = 0
            for k in sorted(picks):
                text, what = mutant(source, k)
                path.write_text(text)
                killed = not passes(copy)
                survivors += not killed
                print(f"{module} {what}  {'killed' if killed else 'SURVIVED'}", flush=True)
            path.write_text(source)
            print(f"{module}: {len(picks) - survivors} of {len(picks)} killed, "
                  f"{count} sites", flush=True)


if __name__ == "__main__":
    main()
