"""Stored cutoffs and their log arithmetic, the cutoff schedule, and its divergence certificates."""

import dataclasses
import math
import random
from fractions import Fraction

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cclab import cli
from cclab import counterexample as ce
from cclab import distmodel as dm
from cclab import seqkit as sk
from cclab.cli import spataru_norms
from cclab.counterexample import LogReal

LN2 = math.log(2.0)


# ---------------------------------------------------------------------------
# LogReal
# ---------------------------------------------------------------------------


def test_logreal_levels_and_values():
    x = LogReal(0, 100.0)
    assert x.log_value() == pytest.approx(math.log(100.0))
    y = LogReal(1, 1000.0)  # e^1000, far beyond doubles
    assert y.log_value() == 1000.0
    assert LogReal(0, 0.0).log_value() == -math.inf


def test_logreal_round_trips():
    x = LogReal(0, 3.7)
    up = LogReal(1, x.log_value())
    assert up.log_value() == x.log_value()
    assert math.exp(up.log_value()) == pytest.approx(3.7, rel=1e-12)
    # a replayed schedule carries both levels through its JSON list unchanged
    items = ce.build_schedule(12).to_json_list()
    assert {d["level"] for d in items} == {0, 1}
    again = ce.CutoffSchedule.from_json_list(items)
    assert again.to_json_list() == items


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e200))
def test_logreal_round_trip_log_domain(v):
    x = LogReal(0, v)
    back = LogReal(1, x.log_value())
    assert back.log_value() == x.log_value()
    assert math.exp(back.log_value()) == pytest.approx(v, rel=1e-12)


def _schedule(*cutoffs):
    return ce.CutoffSchedule.from_json_list(
        [{"m": m, "level": level, "payload": payload}
         for m, (level, payload) in enumerate(cutoffs, 1)])


def test_schedule_orders_cutoffs_across_levels():
    # cutoffs are ordered by their logs, whichever level stores them
    ok = _schedule((0, 5.0), (1, 400.0), (0, 1e250), (1, 1e100))  # e^400 ~ 1e173
    assert [x.level for x in ok.log_cutoffs] == [0, 1, 0, 1]
    for cutoffs in [((0, 1e250), (1, 400.0)),            # a level-1 cutoff below
                    ((0, 7.0), (1, math.log(7.0))),       # the same cutoff twice
                    ((1, math.log(7.0)), (0, 7.0))]:
        with pytest.raises(ValueError, match="increase strictly"):
            _schedule(*cutoffs)


def _log_affine_mpmath(lam, c, x):
    """ln(c lambda + x) at 50 digits, from the stored cutoff."""
    with mpmath.workdps(50):
        value = mpmath.mpf(lam.payload) if lam.level == 0 else mpmath.exp(lam.payload)
        return mpmath.log(mpmath.mpf(c) * value + mpmath.mpf(x))


def test_log_affine_matches_mpmath_at_both_levels():
    # the one piece of arithmetic on a stored cutoff is within a few ulp of
    # ln(c lambda + x), and never above it by more than the check slack
    rng = random.Random(31)
    cases = []
    for _ in range(300):
        c, x = rng.uniform(1.0, 3.0), rng.choice([0.0, 1.0, 1e-304, rng.uniform(0.0, 2.0)])
        cases.append((LogReal(0, math.exp(rng.uniform(-0.36, 690.0))), c, x))
        cases.append((LogReal(1, rng.uniform(-0.36, 1e5)), c, x))
        # both sides of the switch to ln(c lambda) + log1p at c lambda = 1e300
        lam = 1e300 * rng.uniform(0.5, 2.0) / c
        cases.append((LogReal(0, lam), c, x))
        cases.append((LogReal(1, math.log(lam)), c, x))
    sides = {ce._LEVEL0_CAP <= lam.payload * c for lam, c, _ in cases if lam.level == 0}
    assert sides == {False, True}
    for lam, c, x in cases:
        got, want = ce._log_affine(lam, c, x), _log_affine_mpmath(lam, c, x)
        assert abs(got - want) <= 4 * math.ulp(max(abs(float(want)), 1.0)), (lam, c, x)
        assert got - want <= ce.SLACK
    # the unit step that keeps cutoffs apart, ln(lambda + 1)
    assert ce._log_affine(LogReal(0, 4.0), 1.0, 1.0) == math.log(5.0)
    assert ce._log_affine(LogReal(1, 3.0), 1.0, 1.0) == pytest.approx(
        math.log(math.exp(3.0) + 1.0), rel=1e-14)


def test_logreal_validation():
    with pytest.raises(ValueError):
        LogReal(2, 1.0)
    with pytest.raises(ValueError):
        LogReal(0, -1.0)
    with pytest.raises(ValueError):
        LogReal(0, math.inf)


# ---------------------------------------------------------------------------
# the normalizing function sqrt(x log x): the norms a(n) and the atom positions
# ---------------------------------------------------------------------------


def test_sqrt_xlogx_anchor_values():
    a = spataru_norms()
    assert a(1) == 1.0
    assert a(2) == pytest.approx(1.1774100225154747, rel=1e-12)
    assert a(8) == pytest.approx(math.sqrt(8.0 * math.log(8.0)), rel=1e-14)
    # the atom of block m sits at sqrt(K_m ln K_m) with ln K_m = lambda_m
    s = ce.build_schedule(2)
    dist = ce.CounterexampleDistribution(s)
    for m in (1, 2):
        lam = s.log_cutoff(m).payload
        assert dist.atom_log_value(m) == pytest.approx(0.5 * (lam + math.log(lam)), rel=1e-15)
    lam = s.log_cutoff(1).payload
    assert math.exp(dist.atom_log_value(1)) == pytest.approx(
        math.sqrt(math.exp(lam) * lam), rel=1e-12)


def test_sqrt_xlogx_strictly_increasing_through_junction():
    # n = 1 takes the value 1, where n log n would vanish; from n = 2 on the formula
    vals = spataru_norms().values(np.arange(1, 11))
    assert (np.diff(vals) > 0.0).all()
    sk.require_nondecreasing(vals)
    dist = ce.CounterexampleDistribution(ce.build_schedule(2))
    assert dist.atom_log_value(1) < dist.atom_log_value(2)


# ---------------------------------------------------------------------------
# required_block_end
# ---------------------------------------------------------------------------


def test_block_end_certificate_always_holds():
    for lam in (LogReal(0, 29.56), LogReal(0, 5000.0), LogReal(1, 2000.0)):
        for m in (1, 3, 7):
            end, cert = ce.required_block_end(lam, m)
            assert cert.margin >= 0.0
            assert lam.log_value() < end


def test_block_end_decreasing_in_m():
    # larger m means a faster-decaying block series, so a smaller end suffices
    lam = LogReal(0, 40.0)
    ends = [ce.required_block_end(lam, m)[0] for m in (1, 2, 4, 8)]
    assert all(a >= b for a, b in zip(ends, ends[1:]))


def test_block_end_unit_exponent_regime():
    # s = 1 when lambda = 2^m: end is about 4(K+1); ln(K+1) is upper-bounded
    # by lambda + e^-lambda, so the computed end sits just above that
    lam = LogReal(0, 2.0)
    end, cert = ce.required_block_end(lam, 1)
    assert cert.margin >= 0.0 and cert.to_json_dict()["mode"] == "integral"
    assert cert.doublings == 0
    want = 2.0 * (1.0 + LN2) + math.exp(-2.0)
    assert end == pytest.approx(math.log(want), rel=1e-12)  # ln ln L
    block_end = math.exp(want)
    assert block_end == pytest.approx(4.0 * (math.exp(2.0) + 1.0), rel=0.02)
    assert block_end >= 4.0 * (math.exp(2.0) + 1.0)


def test_block_end_unavailable_where_the_integral_bound_fails():
    # lambda = ln 2 (K = 2) at m = 2 defeats the integral bound at every slack
    with pytest.raises(ce.BlockEndUnavailable):
        ce.required_block_end(LogReal(0, LN2), 2)


def _at_block_weight_floor(m):
    """The least lambda the block-weight floor admits at m, stored as a
    built schedule would store it."""
    lnlam = ce._min_loglam_for_block_weight(m)
    if lnlam <= math.log(ce._LEVEL0_CAP):
        return LogReal(0, math.exp(lnlam))
    return LogReal(1, lnlam)


@pytest.mark.parametrize("m", range(1, 17))
def test_block_end_integral_route_certifies_at_the_block_weight_floor(m):
    # every cutoff a certificate can accept has a block end, so the integral
    # bound is the one route needed
    lam = _at_block_weight_floor(m)
    end, cert = ce.required_block_end(lam, m)
    assert cert.margin >= 0.0 and lam.log_value() < end


@pytest.mark.parametrize("lam_log", [1.2, math.log(29.6)], ids=["e^1.2", "29.6"])
@pytest.mark.parametrize("m", [1, 2, 3])
def test_block_end_agrees_across_storage_levels(lam_log, m):
    # a cutoff gets the same bounds on lambda and e^-lambda at either level
    lam = math.exp(lam_log)
    low, _ = ce.required_block_end(LogReal(0, lam), m)
    high, _ = ce.required_block_end(LogReal(1, lam_log), m)
    assert abs(high - low) <= math.ulp(low)
    assert high >= low
    assert ce._lambda_lower_float(LogReal(1, lam_log)) <= lam
    assert ce._exp_neg_upper(LogReal(1, lam_log)) >= math.exp(-lam)


def test_level_one_bounds_of_built_schedules_are_unchanged():
    # a built schedule stores lambda >= 1e300 at level 1, where e^-lambda is
    # bounded by 1e-304 and the block-weight correction rounds to 0
    for lam in ce.build_schedule(16).log_cutoffs[9:]:
        assert ce._exp_neg_upper(lam) == 1e-304
        assert ce._block_weight(lam, 10)[0] == 0.0


def test_block_end_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        ce.required_block_end(LogReal(0, 0.5), 1)


def _doubling_loop_block_end(log_cutoff, m):
    """The integral route as a search: double u from s ln 2, as
    u_j = exp(ln(s ln 2) + j ln 2), until the margin clears 0.  The reference
    the closed form must reproduce bit for bit."""
    ln_s = m * LN2 - log_cutoff.log_value()
    e_neg = ce._exp_neg_upper(log_cutoff)
    s_val = math.exp(ln_s) if ln_s > -745.0 else 0.0
    rhs = 0.5 * (math.exp(min(s_val * e_neg, 50.0)) + s_val * e_neg)
    ln_u0 = ln_s + ce._LNLN2
    doublings = 0
    while True:
        ln_u = ln_u0 + doublings * LN2
        u = math.exp(ln_u) if ln_u > -700.0 else 0.0
        if u > 0.0:
            lhs_log, rhs_log, margin = ce._integral_margin(u, rhs)
            if margin >= 0.0:
                break
        doublings += 1
    end = ce._log_affine(log_cutoff, 1.0 + (LN2 + u) / 2.0 ** m, e_neg)
    return end, ce.HalfTailCertificate(m=m, log_s=ln_s, doublings=doublings,
                                       lhs_log=lhs_log, rhs_log=rhs_log,
                                       margin=margin)


def test_block_end_closed_form_matches_doubling_loop():
    cases = list(enumerate(ce.build_schedule(16).log_cutoffs[:-1], 1))
    rng = random.Random(8)
    for _ in range(150):
        cases.append((rng.randint(1, 16), LogReal(0, math.exp(rng.uniform(3.4, 690.0)))))
        cases.append((rng.randint(1, 16), LogReal(1, rng.uniform(691.0, 40000.0))))
    for m, lam in cases:
        assert ce.required_block_end(lam, m) == _doubling_loop_block_end(lam, m), (m, lam)
    # the depth-16 schedule doubles up to tens of thousands of times
    assert max(ce.required_block_end(lam, m)[1].doublings for m, lam in cases[:15]) > 40_000


def test_block_end_slack_stalls_beyond_double_precision():
    # ln u cannot grow once ln 2 is below half an ulp of it
    with pytest.raises(RuntimeError):
        ce.required_block_end(LogReal(1, 1e16), 1)


def test_counterexample_bytes_match_the_doubling_loop(capsys, monkeypatch):
    for depth in range(1, 17):
        argv = ["counterexample", "--preset", f"ms_counterexample({depth})"]
        assert cli.main(argv) == cli.EXIT_OK
        closed = capsys.readouterr().out
        with monkeypatch.context() as patch:
            patch.setattr(ce, "required_block_end", _doubling_loop_block_end)
            assert cli.main(argv) == cli.EXIT_OK
        assert capsys.readouterr().out == closed, depth


# ---------------------------------------------------------------------------
# schedule construction
# ---------------------------------------------------------------------------


def test_first_cutoff_log_matches_bisection_root():
    # lambda * 2^-2 * e^(-2 (1 + corr)) = 1 is linear in ln lambda, with root
    # 2 ln 2 + 2 (1 + corr) at the corr cap e^-29/29; the schedule adds the
    # 1e-6 build margin, and lambda_1 lands near 4e^2 ~ 29.556
    root = 2.0 * LN2 + 2.0 * (1.0 + math.exp(-29.0) / 29.0)
    assert ce._min_loglam_for_block_weight(1) == root
    s = ce.build_schedule(2)
    assert s.log_cutoffs[0].payload == math.exp(root + 1e-6)
    assert s.log_cutoffs[0].payload == pytest.approx(4.0 * math.e ** 2, rel=1e-4)


def test_schedule_conditions_replay():
    s = ce.build_schedule(9)
    margins = [s.margins(m) for m in range(1, 10)]
    assert all(a >= 0.0 for a, _ in margins)
    assert all(b >= 0.0 for _, b in margins[:-1])
    assert margins[-1][1] is None
    # strictly increasing cutoffs, second dominated by the required end
    for i in range(1, 9):
        assert s.log_cutoffs[i - 1].log_value() < s.log_cutoffs[i].log_value()
    end, _ = ce.required_block_end(s.log_cutoffs[0], 1)
    assert end <= s.log_cutoffs[1].log_value()


def test_schedule_depth_limits():
    with pytest.raises(ValueError):
        ce.build_schedule(17)
    with pytest.raises(ValueError):
        ce.build_schedule(0)


def test_schedule_deep_levels_promote():
    s = ce.build_schedule(12)
    assert [x.level for x in s.log_cutoffs[:9]] == [0] * 9
    assert all(x.level == 1 for x in s.log_cutoffs[9:])
    assert all(s.margins(m)[0] >= 0.0 for m in range(1, 13))


def test_schedule_json_round_trip():
    s = ce.build_schedule(5)
    again = ce.CutoffSchedule.from_json_list(s.to_json_list())
    assert again == s


def test_printed_margins_are_the_certificates_margins():
    # bit for bit: cond_B is step 2's margin and cond_A step 5's, block by block
    s = ce.build_schedule(16)
    entries = s.to_json_list()
    certs = ce.verify_counterexample(s).certificates
    assert len(certs) == len(entries) - 1 == 15
    for entry, cert in zip(entries, certs):
        details = {name: det for name, _, det in cert.steps}
        assert entry["cond_B_margin_log"].hex() == (
            details["block-covers-certified-end"]["margin"].hex())
        assert entry["cond_A_margin_log"].hex() == details["block-weight-floor"]["margin"].hex()
    assert entries[-1]["cond_B_margin_log"] is None
    assert entries[-1]["cond_A_margin_log"] >= 0.0


# ---------------------------------------------------------------------------
# block certificates
# ---------------------------------------------------------------------------


def test_blocks_certify_through_depth_nine():
    s = ce.build_schedule(9)
    for m in range(1, 9):
        cert = ce.certify_block(s, m)
        assert cert.ok, (m, cert.failed_step)
        assert cert.block_lower_bound >= 1.0


def test_block_range_validation():
    s = ce.build_schedule(3)
    with pytest.raises(ValueError):
        ce.certify_block(s, 0)
    with pytest.raises(ValueError):
        ce.certify_block(s, 3)


def test_tampered_schedule_fails_at_block_weight():
    s = ce.build_schedule(4)
    lam2 = LogReal(0, s.log_cutoffs[1].payload * 0.5)
    tampered = dataclasses.replace(
        s, log_cutoffs=(s.log_cutoffs[0], lam2) + s.log_cutoffs[2:])
    cert = ce.certify_block(tampered, 2)
    assert not cert.ok
    assert cert.failed_step == "block-weight-floor"


def test_certificates_monotone_under_inflation():
    # inflating every cutoff by e (with the chain order kept) still certifies
    s = ce.build_schedule(6)
    inflated = dataclasses.replace(
        s, log_cutoffs=tuple(LogReal(0, x.payload * math.e) for x in s.log_cutoffs))
    for m in range(1, 6):
        assert ce.certify_block(inflated, m).ok


# ---------------------------------------------------------------------------
# the distribution and its functionals
# ---------------------------------------------------------------------------


def test_total_atom_mass_small():
    # the atoms of block m carry 2^-m e^-lambda_m together: the law is a
    # probability law, and its atom mass is dominated by the first pair
    s = ce.build_schedule(9)
    logs = [-m * LN2 - s.log_cutoff(m).payload for m in range(1, 10)]
    total_log = float(np.logaddexp.reduce(logs))
    assert total_log < 0.0
    assert total_log == pytest.approx(logs[0], abs=1e-6)


def _moment_mpmath(s) -> mpmath.mpf:
    """E[X^2 / log(2 + |X|)] at the working precision, from the stored cutoffs."""
    total = mpmath.mpf(0)
    for m in range(1, s.m_max + 1):
        lam = s.log_cutoff(m)
        lam = mpmath.mpf(lam.payload) if lam.level == 0 else mpmath.exp(lam.payload)
        lx = (lam + mpmath.log(lam)) / 2
        # log(2 + x) = ln x + log1p(2/x); past ln x = 1000 the log1p is below
        # e^-999, and mpmath would not finish exp(-lx)
        lp = lx + mpmath.log1p(2 * mpmath.exp(-lx)) if lx <= 1000 else lx
        total += mpmath.mpf(2) ** -m * lam / lp
    return total


@pytest.mark.parametrize("depth", range(1, 17))
def test_weighted_second_moment_matches_mpmath(depth):
    s = ce.build_schedule(depth)
    with mpmath.workdps(50):
        want = _moment_mpmath(s)
    got = ce.CounterexampleDistribution(s).weighted_second_moment()
    assert abs(got - want) <= 1e-14 * want


def test_inverse_growth_moment_values():
    got = ce.verify_counterexample(ce.build_schedule(1))
    assert got.moment_value == 0.5 and got.moment_deficit == 0.5
    # the closed form equals the running sum of the terms at every depth
    entries = ce.build_schedule(ce.MAX_DEPTH).to_json_list()
    total = 0.0
    for depth in range(1, ce.MAX_DEPTH + 1):
        total += 2.0 ** -depth
        rep = ce.verify_counterexample(ce.CutoffSchedule.from_json_list(entries[:depth]))
        assert (rep.moment_value, rep.depth) == (total, depth)
        assert rep.moment_value + rep.moment_deficit == 1.0  # exact dyadic identity


def test_inverse_growth_moment_per_term_symbolic():
    # the per-term value is exactly 2^-m no matter the cutoffs
    entries = ce.build_schedule(3).to_json_list()
    moved = [{**e, "payload": e["payload"] + 1.0} for e in entries]
    a, b = (ce.verify_counterexample(ce.CutoffSchedule.from_json_list(x))
            for x in (entries, moved))
    assert entries[0]["level"] == 0 and entries[0]["payload"] != moved[0]["payload"]
    assert a.moment_value == b.moment_value == 0.875


def test_truncated_second_moment_log():
    # T just above the first m atoms is sum_{j <= m} 2^-j lambda_j, correctly
    # rounded; only the first two atoms sit at positions below 1e308
    s = ce.build_schedule(5)
    dist = ce.CounterexampleDistribution(s)
    lam = [Fraction(x.payload) for x in s.log_cutoffs[:2]]
    cut = [math.exp(dist.atom_log_value(m)) * (1.0 + 1e-9) for m in (1, 2)]
    got = dist.truncated_second_moments(cut)
    assert got.tolist() == [float(lam[0] / 2), float(lam[0] / 2 + lam[1] / 4)]
    # strict at the cut: a cutoff whose log is ln x_1 does not count block 1,
    # the next double up whose log is larger does
    lx = dist.atom_log_value(1)
    b = math.exp(lx)
    while math.log(b) < lx:
        b = math.nextafter(b, math.inf)
    while math.log(b) > lx:
        b = math.nextafter(b, 0.0)
    above = b
    while math.log(above) == lx:
        above = math.nextafter(above, math.inf)
    assert math.log(b) == lx
    assert dist.truncated_second_moments([b, above]).tolist() == [0.0, float(lam[0] / 2)]


def test_truncated_second_moment_log_rejects_small_n():
    dist = ce.CounterexampleDistribution(ce.build_schedule(3))
    with pytest.raises(ValueError):
        spataru_norms().values(np.array([0]))
    # at n = 1 the cutoff a(1) = 1 lies below every atom
    assert dist.truncated_second_moments(spataru_norms().values(np.array([1]))).tolist() == [0.0]


def test_truncated_second_moment_deep_lower_bound():
    s = ce.build_schedule(12)
    # lambda_10 is past 1e300: blocks 10..12 sit beyond every double cutoff
    assert s.log_cutoff(9).level == 0 and s.log_cutoff(10).level == 1
    dist = ce.CounterexampleDistribution(s)
    shallow = ce.CounterexampleDistribution(ce.build_schedule(9))
    cuts = [1.0, 1e20, 1e300, 1.7e308]
    assert dist.truncated_second_moments(cuts).tolist() == (
        shallow.truncated_second_moments(cuts).tolist())
    with pytest.raises(ValueError):
        dist.atom_log_value(12)
    # yet every block adds to the weighted moment, 2^(1-m) / (1 + ln(lambda)/lambda)
    assert dist.weighted_second_moment() > shallow.weighted_second_moment()
    # the block certificate's exponent floor is the dominant term 2^-11 lambda_11
    name, ok, details = ce.certify_block(s, 11).steps[0]
    assert name == "exponent-floor" and ok
    assert details["floor_log"] == s.log_cutoff(11).log_value() + math.log(2.0 ** -11)


# ---------------------------------------------------------------------------
# headline report
# ---------------------------------------------------------------------------


def test_verify_counterexample_depth_nine():
    rep = ce.verify_counterexample(ce.build_schedule(9))
    assert rep.to_json_dict()["moment_finite"] is True
    assert rep.divergence_certified
    assert len(rep.certificates) == 8
    assert rep.moment_value <= 1.0


def test_verify_counterexample_degenerate_depth_one():
    rep = ce.verify_counterexample(ce.build_schedule(1))
    assert rep.to_json_dict()["moment_finite"] is True
    assert not rep.divergence_certified
    assert len(rep.certificates) == 0
    assert any("vacuous" in note for note in rep.notes)
