"""Command line interface.

    lockstepsim run --config cfg.json --out rundir/ [--seed N] [--fail-on-safeoff]
    lockstepsim compare RUN_A RUN_B [--alpha A] [--out FILE]
    lockstepsim vote-table --policy 2oo3
    lockstepsim stats --trace rundir/trace.jsonl   (from its completion records)

Exit codes: 0 success, 1 usage or validation error, 2 safety-relevant
finding when --fail-on-safeoff is set.

Streams: stdout carries only machine output. `run` writes nothing to
stdout (its artifacts are the files in --out); its summary and
diagnostics go to stderr. `stats` writes JSON to stdout. `compare` and
`vote-table` write their table to stdout. Every error goes to stderr: no
command ends in a traceback on bad input or an unwritable path; it prints
the reason, naming the file or config field at fault, and exits 1 with
nothing on stdout.
"""

from __future__ import annotations

import argparse
import json
import string
import sys
from pathlib import Path

import numpy as np

from .config import load_config
from .errors import ConfigError, HarnessError
from .experiment import REPORT_FILENAME, run_to_directory
from .profiling import compare_runs, render_comparison_table, stats
from .voting import PASS, VERDICTS, Exact, VotingPolicy, agreement_labels, vote_rounds


class _Parser(argparse.ArgumentParser):
    # usage problems exit 1; code 2 is reserved for safety findings
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="lockstepsim", description="Redundant-inference lockstep simulator")
    sub = parser.add_subparsers(dest="command", parser_class=_Parser)

    p_run = sub.add_parser("run", help="run one experiment config")
    p_run.add_argument("--config", required=True, help="experiment config JSON")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--seed", type=int, default=None, help="override the config seed")
    p_run.add_argument("--fail-on-safeoff", action="store_true",
                       help="exit 2 if the run ends in the safe-off state")
    p_run.set_defaults(func=_cmd_run)

    p_cmp = sub.add_parser("compare", help="compare two run directories")
    p_cmp.add_argument("run_a", help="first run directory or report.json")
    p_cmp.add_argument("run_b", help="second run directory or report.json")
    p_cmp.add_argument("--alpha", type=float, default=0.01)
    p_cmp.add_argument("--out", default=None, help="also write the comparison JSON here")
    p_cmp.set_defaults(func=_cmd_compare)

    p_vt = sub.add_parser("vote-table", help="print the exhaustive verdict table for a policy")
    p_vt.add_argument("--policy", required=True, help="policy name, e.g. 1oo2 or 2oo3")
    p_vt.set_defaults(func=_cmd_vote_table)

    p_st = sub.add_parser("stats", help="turnaround statistics from a trace file")
    p_st.add_argument("--trace", required=True, help="trace.jsonl produced by run")
    p_st.set_defaults(func=_cmd_stats)
    return parser


def _cmd_run(args) -> int:
    config = load_config(args.config, seed_override=args.seed)
    report = run_to_directory(config, args.out)
    total = sum(report.verdict_counts.values())
    print(f"run complete: {total} verdicts {report.verdict_counts}, "
          f"safety={report.safety['final_state']}, out={args.out}", file=sys.stderr)
    if args.fail_on_safeoff and report.safety["final_state"] == "safe_off":
        print("safety switch tripped during the run", file=sys.stderr)
        return 2
    return 0


def _load_report(path_str: str) -> dict:
    p = Path(path_str)
    if p.is_dir():
        p = p / REPORT_FILENAME
    if not p.is_file():
        raise ConfigError([f"no report found at {p}"])
    try:
        report = json.loads(p.read_text())
    except (ValueError, RecursionError) as e:  # also bad UTF-8, too many digits and too deep nesting
        raise ConfigError([f"{p}: not valid JSON ({e})"]) from e
    # the parts compare_runs reads
    replicas = report.get("replicas") if isinstance(report, dict) else None
    if not isinstance(replicas, list) or not all(
        isinstance(r, dict) and type(r.get("replica_id")) is int
        and isinstance(r.get("samples"), list)
        and set(map(type, r["samples"])) <= {int}  # int64s, as `stats` takes
        and (not r["samples"] or -(1 << 63) <= min(r["samples"]) and max(r["samples"]) < 1 << 63)
        and isinstance(r.get("stats"), (dict, type(None)))
        and (r.get("outliers") is None
             or isinstance(r["outliers"], dict) and isinstance(r["outliers"].get("indices", []), list))
        for r in replicas
    ) or len({r["replica_id"] for r in replicas}) < len(replicas):
        raise ConfigError([f"{p}: not a report: expected an object whose replicas each have "
                           "a unique integer replica_id and a list of int64 samples"])
    return report


def _cmd_compare(args) -> int:
    comparison = compare_runs(_load_report(args.run_a), _load_report(args.run_b), alpha=args.alpha)
    if args.out:
        Path(args.out).write_text(json.dumps(comparison, indent=2) + "\n")
    print(render_comparison_table(comparison))
    return 0


def agreement_patterns(n: int):
    """Canonical output-agreement patterns for n replicas (first occurrence
    gets label A, the next new value B, and so on)."""
    def extend(prefix, used):
        if len(prefix) == n:
            yield tuple(prefix)
            return
        for label in range(used + 1):
            yield from extend(prefix + [label], max(used, label + 1))

    yield from extend([], 0)


def _cmd_vote_table(args) -> int:
    policy = VotingPolicy.named(args.policy)
    patterns = list(agreement_patterns(policy.n))
    # one vote per pattern, each output's label standing in for its digest
    labels = agreement_labels(Exact(), np.array(patterns, dtype=np.uint64))
    verdicts, best = vote_rounds(np.ones(len(patterns), dtype=bool), labels, policy.required_agreement)
    print(f"policy {policy} (required agreement: {policy.required_agreement})")
    print(f"{'pattern':>8}  {'verdict':>8}  detail")
    for pattern, row, verdict, group in zip(patterns, labels.tolist(), verdicts.tolist(), best.tolist()):
        name = "".join(string.ascii_uppercase[v] for v in pattern)
        groups = [[rid for rid, label in enumerate(row) if label == g] for g in range(max(row) + 1)]
        if VERDICTS[verdict] == PASS:
            detail = f"agreeing_ids={groups[group]}"
        else:
            detail = f"groups={groups}"
        print(f"{name:>8}  {VERDICTS[verdict]:>8}  {detail}")
    return 0


def _cmd_stats(args) -> int:
    p = Path(args.trace)
    if not p.is_file():
        raise ConfigError(f"no trace file at {p}")
    samples = {}
    with open(p, "rb") as fp:
        for lineno, line in enumerate(fp, 1):
            try:
                rec = json.loads(line.decode())
            except (ValueError, RecursionError) as e:  # also bad UTF-8, too many digits and too deep nesting
                raise ConfigError(f"{p}:{lineno}: not valid JSON ({e})") from e
            if not isinstance(rec, dict):
                raise ConfigError(f"{p}:{lineno}: not a trace record (expected a JSON object)")
            if rec.get("kind") == "completion":
                rid, turnaround = rec.get("replica_id"), rec.get("turnaround_ns")
                if type(rid) is not int or type(turnaround) is not int:  # a bool is an int subclass
                    raise ConfigError(f"{p}:{lineno}: completion record needs integer replica_id and turnaround_ns")
                if not -(1 << 63) <= turnaround < 1 << 63:  # what profiling.stats takes
                    raise ConfigError(f"{p}:{lineno}: turnaround_ns {turnaround} is outside the int64 range")
                samples.setdefault(rid, []).append(turnaround)
    if not samples:
        raise ConfigError("trace contains no completion records")
    out = {str(rid): stats(xs) for rid, xs in sorted(samples.items())}
    print(json.dumps(out, indent=2))
    return 0


def cli_main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_usage(sys.stderr)
        return 1
    try:
        return args.func(args)
    except ConfigError as e:
        print("\n".join(e.errors), file=sys.stderr)
        return 1
    except HarnessError as e:
        print(str(e), file=sys.stderr)
        return 1
    except OSError as e:  # a path that cannot be read, created or written
        print(f"{e.filename}: {e.strerror}", file=sys.stderr)
        return 1


def main() -> None:
    sys.exit(cli_main())


if __name__ == "__main__":
    main()
