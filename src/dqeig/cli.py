"""Command-line interface and matrix/result file formats.

Matrix files ("dqh-1") are JSON documents:

    {"format": "dqh-1", "n": <int>,
     "entries": [[q0, q1, q2, q3, d0, d1, d2, d3], ...]}

with n*n rows in row-major order, standard part first. Result documents are
compact JSON on one line; they list eigenvalues as [st, du] pairs sorted
descending, eigenvectors as lists of 8-real entries, the residual e_lambda,
and iteration counts. Benchmarks are emitted as CSV with the fixed header

    algorithm,n,sparsity,trials,mean_e_lambda,mean_iters,mean_seconds,seed

Exit codes: 0 success, 1 input/usage error, 2 algorithm reported
non-convergence.
"""

import argparse
import csv
import json
import sys

import numpy as np

from . import __version__
from .bench import (
    PENTAGON_REFERENCE_EIGENVALUES,
    pentagon_fixture,
    run_benchmark,
)
from .dual_eig import _check_hermitian, eddcam_ea
from .errors import DQEigError, InnerNoConvergence, ParseError
from .matrices import DualQuaternionMatrix, random_unit_vector
from .power import (
    PowerIterConfig,
    adcam_pm,
    dcam_pm,
    dcama_pm,
    pair_residual,
    power_method_spectrum,
)

PENTAGON_MATCH_TOL = 5e-4


def load_matrix(path: str) -> DualQuaternionMatrix:
    """Read a dqh-1 matrix file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ParseError(f"cannot read matrix file {path}: {exc}") from exc
    if not isinstance(doc, dict) or doc.get("format") != "dqh-1":
        raise ParseError("missing or unknown format tag (expected 'dqh-1')")
    try:
        n = int(doc["n"])
        entries = doc["entries"]
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"malformed matrix document: {exc}") from exc
    if not isinstance(entries, list):
        raise ParseError("'entries' must be a list")
    if n < 1 or len(entries) != n * n:
        raise ParseError(f"expected {n * n} entries, found {len(entries)}")
    for k, row in enumerate(entries):
        if not isinstance(row, list) or len(row) != 8:
            raise ParseError(f"entry {k} must be a list of 8 components")
    try:
        comp = np.array(entries, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ParseError(f"entry components must be numbers: {exc}") from exc
    if comp.ndim != 2 or not np.isfinite(comp).all():
        raise ParseError("entry components must be finite numbers")
    comp = comp.reshape(n, n, 8)
    return DualQuaternionMatrix(
        comp[:, :, 0] + 1j * comp[:, :, 1],
        comp[:, :, 2] + 1j * comp[:, :, 3],
        comp[:, :, 4] + 1j * comp[:, :, 5],
        comp[:, :, 6] + 1j * comp[:, :, 7],
    )


def _rows8(parts):
    """One [q0, q1, q2, q3, d0, d1, d2, d3] row per entry, row-major, from the
    complex parts (w + x i, y + z i) of the standard and the dual part."""
    comp = np.stack([f(a) for a in parts for f in (np.real, np.imag)], axis=-1)
    return comp.reshape(-1, 8).tolist()


def save_matrix(path: str, m: DualQuaternionMatrix) -> None:
    """Write a dqh-1 matrix file; round-trips bit-exactly."""
    doc = {"format": "dqh-1", "n": m.rows, "entries": _rows8(m._parts)}
    with open(path, "w", encoding="utf-8") as fh:
        # json.dumps uses the C encoder, json.dump the pure-Python one; same text
        fh.write(json.dumps(doc) + "\n")


def _result_doc(algorithm, n, pairs, residual, iterations, converged):
    eigenvalues = [[lam.st, lam.du] for lam, vecs in pairs for _ in vecs]
    vecs = [v for _, vs in pairs for v in vs]
    # the rows of every eigenvector from one _rows8 over their stacked parts
    rows = _rows8([np.stack(part) for part in zip(*(v._parts for v in vecs))]) if vecs else []
    return {
        "algorithm": algorithm,
        "n": n,
        "converged": converged,
        "eigenvalues": eigenvalues,
        "eigenvectors": [rows[k * n : (k + 1) * n] for k in range(len(vecs))],
        "e_lambda": residual,
        "iterations": iterations,
    }


def _emit(doc, out_path):
    # compact: without indent, json.dumps runs the C encoder
    text = json.dumps(doc) + "\n"
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def cmd_solve(args) -> int:
    try:
        cfg = PowerIterConfig(
            max_iter=args.max_iter, tol=args.tol,
            aitken_trigger=max(args.tol, 1e-3), seed=args.seed,
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    try:
        matrix = load_matrix(args.matrix)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    n = matrix.rows
    converged = True
    try:
        _check_hermitian(matrix)
        if args.alg == "eddcam":
            res = eddcam_ea(matrix)
            doc = _result_doc("eddcam", n, res.pairs, res.residual, 0, True)
        elif args.alg in ("dcama", "pm"):
            driver = dcama_pm if args.alg == "dcama" else power_method_spectrum
            try:
                res = driver(matrix, cfg)
            except InnerNoConvergence as exc:
                res = exc.partial
                converged = False
            doc = _result_doc(args.alg, n, res.pairs, res.residual, res.iterations, converged)
        else:  # dcam | adcam
            solver = dcam_pm if args.alg == "dcam" else adcam_pm
            rng = np.random.default_rng(args.seed)
            v0 = random_unit_vector(n, rng)
            lam, v, tr = solver(matrix, v0, cfg)
            converged = tr.converged
            doc = _result_doc(
                args.alg, n, ((lam, (v,)),), pair_residual(matrix, lam, v),
                tr.iterations, converged,
            )
    except DQEigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    _emit(doc, args.out)
    return 0 if converged else 2


def cmd_bench(args) -> int:
    if args.trials < 1:
        print("error: --trials must be positive", file=sys.stderr)
        return 1
    if args.sizes and min(args.sizes) < 1:
        print("error: --sizes must be positive", file=sys.stderr)
        return 1
    if args.sparsities and not all(0.0 < s <= 1.0 for s in args.sparsities):
        print("error: --sparsities must lie in (0, 1]", file=sys.stderr)
        return 1
    kwargs = {"trials": args.trials, "seed": args.seed}
    if args.sizes:
        kwargs["sizes"] = tuple(args.sizes)
    if args.sparsities:
        kwargs["sparsities"] = tuple(args.sparsities)
    if args.tol is not None:
        kwargs["tol"] = args.tol
    if args.max_iter is not None:
        kwargs["max_iter"] = args.max_iter
    try:
        records = run_benchmark(args.kind, **kwargs)
    except (DQEigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    cells = {}
    order = []
    for r in records:
        key = (r.algorithm, r.n, r.sparsity)
        if key not in cells:
            cells[key] = []
            order.append(key)
        cells[key].append(r)
    try:
        with open(args.csv, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(
                ["algorithm", "n", "sparsity", "trials", "mean_e_lambda",
                 "mean_iters", "mean_seconds", "seed"]
            )
            for key in sorted(order):
                alg, n, s = key
                rows = cells[key]
                writer.writerow(
                    [
                        alg,
                        n,
                        "" if s is None else format(s, ".6g"),
                        len(rows),
                        format(float(np.mean([r.e_lambda for r in rows])), ".6e"),
                        format(float(np.mean([r.iterations for r in rows])), ".6f"),
                        format(float(np.mean([r.wall_seconds for r in rows])), ".6e"),
                        args.seed,
                    ]
                )
    except OSError as exc:
        print(f"error: cannot write {args.csv}: {exc}", file=sys.stderr)
        return 1
    return 0


def cmd_pentagon(args) -> int:
    fixture = pentagon_fixture()
    if args.alg == "pm":
        cfg = PowerIterConfig(max_iter=5000, tol=1e-6, aitken_trigger=1e-3, seed=args.seed)
        try:
            res = power_method_spectrum(fixture, cfg)
            converged = True
        except InnerNoConvergence as exc:
            res = exc.partial
            converged = False
        found = [[lam.st, lam.du] for lam, _ in res.pairs]
        if args.json:
            _emit(
                {
                    "algorithm": "pm",
                    "converged": converged,
                    "eigenvalues": found,
                    "e_lambda": res.residual,
                    "iterations": res.iterations,
                },
                None,
            )
        else:
            if converged:
                print("pm converged on all eigenvalues (unexpected for this fixture)")
            else:
                print(f"pm: inner power loop hit the iteration cap after "
                      f"{len(res.pairs)} of 5 eigenpairs")
            for st, du in found:
                print(f"  {st:8.4f} {du:+8.4f}eps")
            print(f"  e_lambda = {res.residual:.4e}")
        return 0 if converged else 2

    res = eddcam_ea(fixture)
    found = [(lam.st, lam.du) for lam, vecs in res.pairs for _ in vecs]
    ok = len(found) == 5 and all(
        abs(st - ref.st) <= PENTAGON_MATCH_TOL and abs(du - ref.du) <= PENTAGON_MATCH_TOL
        for (st, du), ref in zip(found, PENTAGON_REFERENCE_EIGENVALUES)
    )
    if args.json:
        _emit(
            {
                "algorithm": "eddcam",
                "converged": True,
                "eigenvalues": [[st, du] for st, du in found],
                "e_lambda": res.residual,
                "reference_match": ok,
            },
            None,
        )
    else:
        for st, du in found:
            print(f"  {st:8.4f} {du:+8.4f}eps")
        print(f"  e_lambda = {res.residual:.4e}")
        print("reference match: " + ("yes" if ok else "NO"))
    return 0 if ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dqeig",
        description="Eigensolvers for dual quaternion Hermitian matrices",
    )
    parser.add_argument("--version", action="version", version=f"dqeig {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p_solve = sub.add_parser("solve", help="solve one matrix file")
    p_solve.add_argument("matrix", help="path to a dqh-1 matrix file")
    p_solve.add_argument(
        "--alg", required=True, choices=["eddcam", "dcama", "dcam", "adcam", "pm"]
    )
    p_solve.add_argument("--tol", type=float, default=1e-6)
    p_solve.add_argument("--max-iter", type=int, default=5000)
    p_solve.add_argument("--seed", type=int, default=0)
    p_solve.add_argument("--out", help="write the result document here instead of stdout")
    p_solve.set_defaults(fn=cmd_solve)

    p_bench = sub.add_parser("bench", help="run a benchmark family, write CSV")
    p_bench.add_argument("kind", choices=["aitken", "laplacian"])
    p_bench.add_argument("--sizes", type=int, nargs="+")
    p_bench.add_argument("--sparsities", type=float, nargs="+")
    p_bench.add_argument("--trials", type=int, default=10)
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--tol", type=float)
    p_bench.add_argument("--max-iter", type=int)
    p_bench.add_argument("--csv", required=True)
    p_bench.set_defaults(fn=cmd_bench)

    p_pent = sub.add_parser("pentagon", help="reproduce the five-agent ring fixture")
    p_pent.add_argument("--alg", choices=["eddcam", "pm"], default="eddcam")
    p_pent.add_argument("--seed", type=int, default=0)
    p_pent.add_argument("--json", action="store_true")
    p_pent.set_defaults(fn=cmd_pentagon)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
