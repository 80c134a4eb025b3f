"""Central CLI numeric validation: bad values fail parsing, clearly.

Satellite of the service PR: every strictly-positive numeric option —
``--workers``, ``--max-attempts``, ``--lease-ttl``, ``--poll``, and the
serve limits — goes through :func:`repro.run.cli.positive_int` /
:func:`positive_float`, so a zero or negative value dies in argparse
with a message naming the option, instead of surfacing later as a
deadlock or a silently-serial sweep.  ``submit --max-retries`` counts
retries, so it takes zero (:func:`repro.run.cli.non_negative_int`).
"""

import argparse

import pytest

from repro.run.cli import (
    build_serve_parser,
    build_submit_parser,
    build_sweep_parser,
    build_worker_parser,
    positive_float,
    positive_int,
)

_SWEEP_BASE = ["--preset", "scale_sim_v2_default", "--model", "toy_gemm"]
_WORKER_BASE = ["--spool", "spool"]
_SERVE_BASE = ["--data-dir", "data"]


def test_positive_int_accepts_and_rejects():
    assert positive_int("3") == 3
    for bad in ("0", "-1", "1.5", "three"):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_int(bad)


def test_positive_float_accepts_and_rejects():
    assert positive_float("0.5") == 0.5
    for bad in ("0", "-0.1", "nope"):
        with pytest.raises(argparse.ArgumentTypeError):
            positive_float(bad)
    # NaN compares false against everything: must be rejected, not let
    # through to poison a deadline computation.
    with pytest.raises(argparse.ArgumentTypeError):
        positive_float("nan")


@pytest.mark.parametrize(
    "argv",
    [
        _SWEEP_BASE + ["--workers", "0"],
        _SWEEP_BASE + ["--workers", "-2"],
        _SWEEP_BASE + ["--max-attempts", "0"],
        _SWEEP_BASE + ["--lease-ttl", "0"],
        _SWEEP_BASE + ["--lease-ttl", "-5"],
        _SWEEP_BASE + ["--scale", "0"],
    ],
)
def test_sweep_parser_rejects_non_positive_values(argv, capsys):
    with pytest.raises(SystemExit):
        build_sweep_parser().parse_args(argv)
    message = capsys.readouterr().err
    assert "expected a positive" in message


@pytest.mark.parametrize(
    "argv",
    [
        _WORKER_BASE + ["--poll", "0"],
        _WORKER_BASE + ["--poll", "-1"],
        _WORKER_BASE + ["--lease-ttl", "0"],
        _WORKER_BASE + ["--max-tasks", "0"],
    ],
)
def test_worker_parser_rejects_non_positive_values(argv, capsys):
    with pytest.raises(SystemExit):
        build_worker_parser().parse_args(argv)
    assert "expected a positive" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        _SERVE_BASE + ["--max-queued", "0"],
        _SERVE_BASE + ["--max-active", "0"],
        _SERVE_BASE + ["--workers", "0"],
        _SERVE_BASE + ["--max-attempts", "-1"],
        _SERVE_BASE + ["--lease-ttl", "0"],
        _SERVE_BASE + ["--drain-timeout", "0"],
    ],
)
def test_serve_parser_rejects_non_positive_values(argv, capsys):
    with pytest.raises(SystemExit):
        build_serve_parser().parse_args(argv)
    assert "expected a positive" in capsys.readouterr().err


def test_submit_parser_rejects_non_positive_values(capsys):
    base = _SWEEP_BASE
    with pytest.raises(SystemExit):
        build_submit_parser().parse_args(base + ["--poll", "0"])
    assert "expected a positive" in capsys.readouterr().err
    with pytest.raises(SystemExit):
        build_submit_parser().parse_args(base + ["--max-retries", "-1"])
    assert "expected a non-negative integer" in capsys.readouterr().err


def test_submit_accepts_zero_retries():
    """``--max-retries 0`` is one attempt, as ``ServiceClient`` allows."""
    args = build_submit_parser().parse_args(_SWEEP_BASE + ["--max-retries", "0"])
    assert args.max_retries == 0


def test_valid_values_still_parse():
    args = build_sweep_parser().parse_args(
        _SWEEP_BASE + ["--workers", "4", "--max-attempts", "2", "--lease-ttl", "1.5"]
    )
    assert (args.workers, args.max_attempts, args.lease_ttl) == (4, 2, 1.5)
    args = build_serve_parser().parse_args(
        _SERVE_BASE + ["--max-queued", "3", "--max-active", "2"]
    )
    assert (args.max_queued, args.max_active) == (3, 2)
