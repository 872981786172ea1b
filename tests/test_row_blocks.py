"""The verify suites' row-block chains: the bits of one pass over all the
rows, NaN kept across blocks, and no (pairs, n) temporary."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest

from lpvi import oracle, spaces, sweeps
from lpvi.cli import main
from lpvi.oracle import pairing_inequality_sweep, pairing_sweeps
from lpvi.spaces import row_blocks
from lpvi.sweeps import retraction_suite

# rows per pairing-sweep block when the block constant is STEP * n
STEP = 16
# 210 entries are whole rows at every n of the retraction suite (2, 3, 5
# and 7), so 210 pairs end on a block boundary at each of them
RETRACT_ELEMS = 210


def assert_same_bits(a, b):
    """Every field of two reports holds the same bits (NaN included)."""
    for field in dataclasses.fields(a):
        x = np.asarray(getattr(a, field.name))
        y = np.asarray(getattr(b, field.name))
        assert (x.dtype, x.shape, x.tobytes()) == (y.dtype, y.shape, y.tobytes()), \
            (field.name, x, y)


def one_block(monkeypatch, fn, *args, **kwargs):
    """fn run with every chain in a single block."""
    with monkeypatch.context() as m:
        m.setattr(spaces, "_ROW_BLOCK_ELEMS", 1 << 62)
        return fn(*args, **kwargs)


def block_sizes(rows: int, step: int) -> list[int]:
    return [min(step, rows - start) for start in range(0, rows, step)]


@pytest.mark.parametrize("rows, width", [(0, 3), (1, 1), (10_000, 2),
                                         (10_000, 20), (5, 1 << 16),
                                         (1 << 15, 1), ((1 << 15) + 1, 1)])
def test_row_blocks_cover_the_rows_once_in_order(rows, width):
    idx = np.arange(rows)
    parts = [idx[b] for b in row_blocks(rows, width)]
    assert np.array_equal(np.concatenate([idx[:0], *parts]), idx)
    assert [part.size for part in parts] == block_sizes(
        rows, max(1, (1 << 15) // width))


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("n", [2, 5, 20])
@pytest.mark.parametrize("pairs", [3 * STEP - 1, 3 * STEP, 3 * STEP + 1])
def test_blocked_pairing_sweep_keeps_every_bit(monkeypatch, p, n, pairs):
    whole = one_block(monkeypatch, pairing_inequality_sweep, p, n, pairs, 3)
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", STEP * n)
    rows = []
    real = oracle.duality_norm_rows
    monkeypatch.setattr(oracle, "duality_norm_rows",
                        lambda xs, p: rows.append(len(xs)) or real(xs, p))
    blocked = pairing_inequality_sweep(p, n, pairs, 3)
    assert_same_bits(blocked, whole)
    # J(x) and then J(y) of each block, the last block short
    assert rows == [s for s in block_sizes(pairs, STEP) for _ in "xy"]


@pytest.mark.parametrize("p_values", [[1.5, 3.0, 4.0], [4.0, 1.5, 3.0]])
@pytest.mark.parametrize("n", [2, 5, 20])
@pytest.mark.parametrize("pairs", [3 * STEP - 1, 3 * STEP, 3 * STEP + 1])
def test_each_sweep_of_the_shared_draw_has_the_bits_of_its_own_draw(
        monkeypatch, p_values, n, pairs):
    # a chain that wrote into the shared xs or ys would move every later p
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", STEP * n)
    shared = pairing_sweeps(p_values, n, pairs, 3)
    assert len(shared) == len(p_values)
    for p, sweep in zip(p_values, shared):
        assert_same_bits(sweep, pairing_inequality_sweep(p, n, pairs, 3))


@pytest.mark.parametrize("p", [1.5, 3.0])
def test_default_blocks_keep_the_bits_of_the_verify_sizes(monkeypatch, p):
    # the sizes `lpvi verify` runs: several default blocks at n = 20 and 7
    assert len(row_blocks(10_000, 20)) > 1 and len(row_blocks(10_000, 7)) > 1
    whole = one_block(monkeypatch, pairing_inequality_sweep, p, 20, 10_000, 0)
    assert_same_bits(pairing_inequality_sweep(p, 20, 10_000, 0), whole)
    kwargs = dict(p_values=(p,), pairs=10_000, characterization_samples=50,
                  seed=1)
    whole = one_block(monkeypatch, retraction_suite, **kwargs)
    assert_same_bits(retraction_suite(**kwargs), whole)


@pytest.mark.parametrize("p", [1.5, 3.0, 4.0])
@pytest.mark.parametrize("pairs", [RETRACT_ELEMS - 1, RETRACT_ELEMS,
                                   RETRACT_ELEMS + 1])
def test_blocked_retraction_suite_keeps_every_bit(monkeypatch, p, pairs):
    kwargs = dict(p_values=(p, 2.0), pairs=pairs, characterization_samples=50,
                  seed=4)
    whole = one_block(monkeypatch, retraction_suite, **kwargs)
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", RETRACT_ELEMS)
    rows = []
    real = sweeps.norm_rows
    monkeypatch.setattr(sweeps, "norm_rows",
                        lambda xs, p: rows.append(len(xs)) or real(xs, p))
    blocked = retraction_suite(**kwargs)
    assert_same_bits(blocked, whole)
    # per set: the probe's norm, then |Qx - Qy| and |x - y| of each block;
    # boxes at n = 2, 3, 7 for each p, then a ball and a halfspace at n = 2, 5
    dims = [2, 3, 7] * 2 + [2, 2, 5, 5]
    assert rows == [size for n in dims
                    for size in [1] + [s for s in block_sizes(
                        pairs, RETRACT_ELEMS // n) for _ in "qx"]]


def nan_in_third_block_call(real):
    """real, but NaN in row 0 of every part of its third result with more
    than one row: in each suite here, a block after the first."""
    calls = [0]

    def broken(*args, **kwargs):
        result = real(*args, **kwargs)
        parts = result if isinstance(result, tuple) else (result,)
        if len(parts[0]) > 1:
            calls[0] += 1
            if calls[0] == 3:
                for part in parts:
                    part[0] = np.nan
        return result
    return broken


def test_a_nan_in_a_later_block_reaches_the_pairing_sweep(monkeypatch):
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", STEP * 5)
    monkeypatch.setattr(oracle, "duality_norm_rows",
                        nan_in_third_block_call(oracle.duality_norm_rows))
    # the third call maps the x rows of the second block
    sweep = pairing_inequality_sweep(3.0, 5, 4 * STEP, 0)
    assert math.isnan(sweep.min_margin)
    assert sweep.pinned_slack == 0.0


def test_a_nan_in_a_later_block_reaches_the_retraction_suite(monkeypatch):
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", RETRACT_ELEMS)
    monkeypatch.setattr(sweeps, "norm_rows",
                        nan_in_third_block_call(sweeps.norm_rows))
    # the third call norms Qx - Qy in the second block of a 2-D box
    rep = retraction_suite(p_values=(2.0,), pairs=RETRACT_ELEMS,
                           characterization_samples=50, seed=4)
    assert math.isnan(rep.max_nonexpansive_excess)
    assert math.isnan(rep.min_projection_inequality)


@pytest.mark.parametrize("suite, module, kernel, line", [
    ("pairing", oracle, "duality_norm_rows", "pairing inequality p=1.5 n=2"),
    ("retraction", sweeps, "norm_rows", "nonexpansiveness excess")])
def test_verify_fails_on_a_nan_in_a_later_block(capsys, monkeypatch, suite,
                                                 module, kernel, line):
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", 64)
    assert main(["verify", suite, "--count", "300"]) == 0
    clean = capsys.readouterr().out
    monkeypatch.setattr(module, kernel,
                        nan_in_third_block_call(getattr(module, kernel)))
    assert main(["verify", suite, "--count", "300"]) == 1
    out = capsys.readouterr().out
    changed = [new for new, was in zip(out.splitlines(), clean.splitlines(),
                                       strict=True) if new != was]
    assert len(changed) == 1
    assert changed[0].startswith(f"{line}: nan") and changed[0].endswith("FAIL")


def test_the_pinned_pair_is_row_0_of_the_first_block_only(monkeypatch):
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", STEP * 5)
    real = oracle._pairing_slack_rows
    blocks = [0]

    def first_row_marked(xs, ys, p):
        # row 0 of block k gets slack -(k + 1)
        slack, nx, ny = real(xs, ys, p)
        blocks[0] += 1
        slack[0] = -float(blocks[0])
        return slack, nx, ny

    monkeypatch.setattr(oracle, "_pairing_slack_rows", first_row_marked)
    sweep = pairing_inequality_sweep(3.0, 5, 4 * STEP, 0)
    assert blocks[0] == 4
    assert sweep.pinned_slack == -1.0
    # the first rows of the later blocks are drawn pairs, in the margin
    assert sweep.min_margin < 0.0


def test_verify_pairing_checks_the_pinned_pair_across_blocks(capsys,
                                                            monkeypatch):
    monkeypatch.setattr(spaces, "_ROW_BLOCK_ELEMS", 64)
    real = oracle.duality_norm_rows

    def j_of_zero_is_one(xs, p):
        out, norms = real(xs, p)
        out[~np.any(xs, axis=1)] = 1.0
        return out, norms

    assert main(["verify", "pairing", "--count", "300"]) == 0
    clean = capsys.readouterr().out
    monkeypatch.setattr(oracle, "duality_norm_rows", j_of_zero_is_one)
    assert main(["verify", "pairing", "--count", "300"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert [ln for ln in lines if ln.endswith("PASS")] == clean.splitlines()
    pinned = [ln for ln in lines if ln.startswith("pinned pair x = 0")]
    assert len(pinned) == 9 and all(ln.endswith("FAIL") for ln in pinned)


def traced_peak_mib(fn, *args, **kwargs) -> float:
    tracemalloc.start()
    try:
        fn(*args, **kwargs)
        return tracemalloc.get_traced_memory()[1] / 2 ** 20
    finally:
        tracemalloc.stop()


def test_the_pairing_sweep_holds_no_pairs_by_n_temporary():
    pairing_inequality_sweep(3.0, 20, 2, 0)  # first-call set-up, untraced
    # xs and ys alone are 2 x 10,000 x 20 doubles, about 3.1 MiB; one
    # more (pairs, n) array would take the peak past 6 MiB
    assert traced_peak_mib(pairing_inequality_sweep, 3.0, 20, 10_000, 0) < 6.0


def test_the_retraction_suite_holds_no_pairs_by_n_temporary():
    retraction_suite(pairs=2, characterization_samples=2, seed=0)
    # at n = 7 xs and ys are about 1.1 MiB; whole-array retractions and
    # differences would take the peak past 3 MiB
    assert traced_peak_mib(retraction_suite, pairs=10_000, seed=0) < 3.0


def test_the_shared_draw_holds_no_pairs_by_n_temporary():
    pairing_sweeps([3.0], 20, 2, 0)
    # the three p share xs and ys (about 3.1 MiB); a copy of the draw per
    # p, or one more (pairs, n) array, would take the peak past 6 MiB
    assert traced_peak_mib(pairing_sweeps, [1.5, 3.0, 4.0], 20, 10_000, 0) < 6.0
