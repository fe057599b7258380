"""Layered log arithmetic, the cutoff schedule, and its divergence certificates."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    x = LogReal.from_value(100.0)
    assert x.log_value() == pytest.approx(math.log(100.0))
    y = LogReal.from_log(1000.0)  # e^1000, far beyond doubles
    assert y.log_value() == 1000.0
    assert y.loglog_value() == pytest.approx(math.log(1000.0))
    z = LogReal(2, 800.0)  # e^{e^800}
    assert z.log_value() == math.inf
    assert z.loglog_value() == 800.0


def test_logreal_round_trips():
    x = LogReal.from_value(3.7)
    up = LogReal.from_log(x.log_value())
    assert up.level == 1 and up.compare(x) == 0
    assert math.exp(up.log_value()) == pytest.approx(3.7, rel=1e-12)
    big = LogReal.from_log(512.0)
    assert LogReal(2, big.loglog_value()).log_value() == pytest.approx(512.0, rel=1e-12)
    # a replayed schedule carries every level through its JSON list unchanged
    items = ce.build_schedule(12).to_json_list()
    assert {d["level"] for d in items} == {0, 1}
    items.append({"m": 13, "level": 2, "payload": 800.0,
                  "cond_A_margin_log": 0.0, "cond_B_margin_log": None})
    again = ce.CutoffSchedule.from_json_list(items)
    assert again.log_cutoff(13) == LogReal(2, 800.0)
    assert again.to_json_list() == items


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e200))
def test_logreal_round_trip_log_domain(v):
    x = LogReal.from_value(v)
    back = LogReal.from_log(x.log_value())
    assert back.compare(x) == 0
    if v > 1.0:
        assert LogReal(2, back.loglog_value()).log_value() == pytest.approx(back.payload, rel=1e-12)
    assert math.exp(back.log_value()) == pytest.approx(v, rel=1e-12)


def test_logreal_comparisons_across_levels():
    small = LogReal.from_value(5.0)
    mid = LogReal.from_log(400.0)        # e^400 ~ 1e173
    mid2 = LogReal.from_value(1e250)
    huge = LogReal(2, 100.0)             # e^{e^100}
    assert small < mid < mid2 < huge
    assert not huge < small
    assert LogReal.from_value(7.0).compare(LogReal.from_value(7.0)) == 0


def test_logreal_scaling():
    x = LogReal.from_value(10.0).scaled(3.0)
    assert x.level == 0 and x.payload == 30.0
    y = LogReal.from_value(1e250).scaled(1e100)  # overflows level 0
    assert y.level == 1
    assert y.payload == pytest.approx(math.log(1e250) + math.log(1e100), rel=1e-14)
    z = LogReal.from_log(2000.0).scaled(2.0)
    assert z.payload == pytest.approx(2000.0 + LN2, rel=1e-14)
    w = LogReal(2, 300.0).scaled(5.0)
    assert w.loglog_value() == pytest.approx(300.0)


def test_logreal_plus_scalar():
    assert LogReal.from_value(4.0).plus_scalar(1.0).payload == 5.0
    y = LogReal.from_log(3.0).plus_scalar(1.0)
    assert y.payload == pytest.approx(math.log(math.exp(3.0) + 1.0), rel=1e-14)


def test_logreal_validation():
    with pytest.raises(ValueError):
        LogReal(3, 1.0)
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
    for lam in (LogReal.from_value(29.56), LogReal.from_value(5000.0),
                LogReal.from_log(2000.0)):
        for m in (1, 3, 7):
            end, cert = ce.required_block_end(lam, m)
            assert cert.ok and cert.margin >= 0.0
            assert lam < end


def test_block_end_decreasing_in_m():
    # larger m means a faster-decaying block series, so a smaller end suffices
    lam = LogReal.from_value(40.0)
    ends = [ce.required_block_end(lam, m)[0].log_value() for m in (1, 2, 4, 8)]
    assert all(a >= b for a, b in zip(ends, ends[1:]))


def test_block_end_unit_exponent_regime():
    # s = 1 when lambda = 2^m: end is about 4(K+1); ln(K+1) is upper-bounded
    # by lambda + e^-lambda, so the computed end sits just above that
    lam = LogReal.from_value(2.0)
    end, cert = ce.required_block_end(lam, 1)
    assert cert.ok and cert.mode == "integral" and cert.doublings == 0
    want = 2.0 * (1.0 + LN2) + math.exp(-2.0)
    assert end.level == 0 and end.payload == pytest.approx(want, rel=1e-12)
    block_end = math.exp(end.payload)
    assert block_end == pytest.approx(4.0 * (math.exp(2.0) + 1.0), rel=0.02)
    assert block_end >= 4.0 * (math.exp(2.0) + 1.0)


def test_block_end_enumerated_fallback():
    # lambda = ln 2 (K = 2) with m >= 1 defeats the integral bounds
    end, cert = ce.required_block_end(LogReal.from_value(LN2), 2)
    assert cert.ok and cert.mode == "enumerated"
    # the enumerated certificate is a true half-tail statement
    s = math.exp(cert.log_s)
    assert end.level == 0
    L = int(round(math.exp(end.payload)))
    assert L >= 3
    finite = sum(n ** (-1.0 - s) for n in range(3, L + 1))
    full = finite + sum(n ** (-1.0 - s) for n in range(L + 1, 200000))
    assert finite >= 0.5 * full


def test_block_end_rejects_tiny_cutoff():
    with pytest.raises(ValueError):
        ce.required_block_end(LogReal.from_value(0.5), 1)


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
    assert all(m >= 0.0 for m in s.cond_a_margins)
    assert all(m is None or m >= 0.0 for m in s.cond_b_margins)
    assert s.cond_b_margins[-1] is None
    # strictly increasing cutoffs, second dominated by the required end
    for i in range(1, 9):
        assert s.log_cutoffs[i - 1] < s.log_cutoffs[i]
    end, _ = ce.required_block_end(s.log_cutoffs[0], 1)
    assert end.log_value() <= s.log_cutoffs[1].log_value()


def test_schedule_depth_limits():
    with pytest.raises(ValueError):
        ce.build_schedule(17)
    with pytest.raises(ValueError):
        ce.build_schedule(0)


def test_schedule_deep_levels_promote():
    s = ce.build_schedule(12)
    assert [x.level for x in s.log_cutoffs[:9]] == [0] * 9
    assert all(x.level == 1 for x in s.log_cutoffs[9:])
    assert all(m >= 0.0 for m in s.cond_a_margins)


def test_schedule_json_round_trip():
    s = ce.build_schedule(5)
    again = ce.CutoffSchedule.from_json_list(s.to_json_list())
    assert again == s


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
    lam2 = s.log_cutoffs[1].scaled(0.5)
    tampered = dataclasses.replace(
        s, log_cutoffs=(s.log_cutoffs[0], lam2) + s.log_cutoffs[2:])
    cert = ce.certify_block(tampered, 2)
    assert not cert.ok
    assert cert.failed_step == "block-weight-floor"


def test_certificates_monotone_under_inflation():
    # inflating every cutoff by e (with the chain order kept) still certifies
    s = ce.build_schedule(6)
    inflated = dataclasses.replace(
        s, log_cutoffs=tuple(x.scaled(math.e) for x in s.log_cutoffs))
    for m in range(1, 6):
        assert ce.certify_block(inflated, m).ok


# ---------------------------------------------------------------------------
# the distribution and its functionals
# ---------------------------------------------------------------------------


def test_total_atom_mass_small():
    dist = ce.CounterexampleDistribution(ce.build_schedule(9))
    # every atom sits far above 1e-300, so this tail is the whole atom mass
    total_log = math.log(dm.tails(dist.to_dist(), 1e-300)[0])
    assert total_log < 0.0
    # dominated by the first pair: 2^-1 e^-lambda_1
    lead = -LN2 - dist.schedule.log_cutoffs[0].payload
    assert total_log == pytest.approx(lead, abs=1e-6)


def test_tail_log_values():
    # only the first two atoms of a schedule sit at positions below 1e308
    dist = ce.CounterexampleDistribution(ce.build_schedule(2))
    d = dist.to_dist()
    lv = [dist.atom_log_value(m) for m in (1, 2)]
    lw = [dist.atom_log_weight(m) for m in (1, 2)]
    at_first = math.log(dm.tails(d, math.exp(lv[0]))[0])
    assert at_first == pytest.approx(float(np.logaddexp(lw[0], lw[1])), rel=1e-12)
    assert math.log(dm.tails(d, math.exp(lv[0] + 1.0))[0]) == pytest.approx(lw[1], rel=1e-12)
    assert dm.tails(d, math.exp(lv[1] + 1.0))[0] == 0.0


def test_to_dist_round_trip_mass():
    s = ce.build_schedule(6)
    d = ce.CounterexampleDistribution(s).to_dist()
    assert d.kind == "log_atomic_sym"
    with pytest.raises(dm.SamplingUnavailable):
        dm.sample(d, __import__("cclab.seeding", fromlist=["stream"]).stream(0), 5)


def test_inverse_growth_moment_values():
    s1 = ce.CounterexampleDistribution(ce.build_schedule(1))
    got = ce.inverse_growth_moment(s1)
    assert got.value == 0.5 and got.deficit == 0.5
    s9 = ce.CounterexampleDistribution(ce.build_schedule(9))
    m = ce.inverse_growth_moment(s9)
    assert m.value + m.deficit == 1.0  # exact dyadic identity
    m48 = ce.inverse_growth_moment(s9, terms=48)
    assert m48.value == 1.0 - 2.0 ** -48
    assert m48.deficit == 2.0 ** -48


def test_inverse_growth_moment_per_term_symbolic():
    # the per-term value is exactly 2^-m no matter the cutoffs
    a = ce.inverse_growth_moment(ce.CounterexampleDistribution(ce.build_schedule(3)), terms=3)
    b = ce.inverse_growth_moment(ce.CounterexampleDistribution(ce.build_schedule(5)), terms=3)
    assert a.value == b.value == 0.875


def test_truncated_second_moment_log():
    # T just above the first m atoms is sum_{j <= m} 2^-j lambda_j; only the
    # first two atoms sit at positions below 1e308
    s = ce.build_schedule(5)
    dist = ce.CounterexampleDistribution(s)
    lam = [x.payload for x in s.log_cutoffs]
    cut = [math.exp(dist.atom_log_value(m)) * (1.0 + 1e-9) for m in (1, 2)]
    got = dm.truncated_moments(dist.to_dist(), 2.0, cut)
    assert got[0] == pytest.approx(0.5 * lam[0], rel=1e-12)
    assert got[1] == pytest.approx(0.5 * lam[0] + 0.25 * lam[1], rel=1e-12)
    # monotone in the cutoff, and bounded below by the dominant term
    assert got[1] >= got[0]
    assert got[1] >= lam[1] * 2.0 ** -2


def test_truncated_second_moment_log_rejects_small_n():
    d = ce.CounterexampleDistribution(ce.build_schedule(3)).to_dist()
    with pytest.raises(ValueError):
        dm.truncated_second_moment(d, 1.0, spataru_norms(), 0)
    # at n = 1 the cutoff a(1) = 1 lies below every atom
    assert dm.truncated_second_moment(d, 1.0, spataru_norms(), 1) == 0.0


def test_truncated_second_moment_deep_lower_bound():
    s = ce.build_schedule(12)
    # the atoms of block 11 lie beyond doubles, so T has no log-atomic view here
    assert s.log_cutoff(11).level == 1
    with pytest.raises(ValueError):
        ce.CounterexampleDistribution(s).to_dist()
    # the block certificate's exponent floor is the dominant term 2^-11 lambda_11
    name, ok, details = ce.certify_block(s, 11).steps[0]
    assert name == "exponent-floor" and ok
    want = s.log_cutoff(11).scaled(2.0 ** -11)
    assert LogReal.from_log(details["floor_log"]).compare(want) == 0


# ---------------------------------------------------------------------------
# headline report
# ---------------------------------------------------------------------------


def test_verify_counterexample_depth_nine():
    rep = ce.verify_counterexample(ce.build_schedule(9))
    assert rep.moment_finite
    assert rep.divergence_certified
    assert len(rep.certificates) == 8
    assert rep.moment.value <= 1.0


def test_verify_counterexample_degenerate_depth_one():
    rep = ce.verify_counterexample(ce.build_schedule(1))
    assert rep.moment_finite
    assert not rep.divergence_certified
    assert len(rep.certificates) == 0
    assert any("vacuous" in note for note in rep.notes)
