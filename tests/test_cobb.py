import csv
import dataclasses
import math
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
import reference_loops as ref
from oracles import brute_force_max_size, grid_oracle

import teamgames.st as st
from teamgames.cli import main as cli_main
from teamgames.cobb import (
    COBB_COLUMNS,
    EQUAL,
    PROPORTIONAL,
    UNBOUNDED,
    CobbDouglasConfig,
    ContributionProfile,
    PayoffScheme,
    altruism_roots,
    avg_return_condition,
    cd_altruistic,
    cd_competitive,
    cd_coop_point,
    cd_fully_cooperative,
    cd_marginal,
    cd_subset_utility,
    cd_value,
    contribution_table,
    cooperation_path,
    hybrid,
    max_stable_team_size,
    maximize_scalar,
    payoff,
    payoff_utility_grid,
    rational_contribution,
    rational_table,
    stable_size_grid,
    st_game_view,
    symmetric_rational_contribution,
    zero_altruism_contour,
)
from teamgames.errors import NumericOverflowError
from teamgames.players import PlayerSet

GOLDEN = Path(__file__).parent / "golden"

A = PlayerSet.of(0)
S2 = PlayerSet.of(0, 1)


def random_setup(rng, n_lo=2, n_hi=5, beta_hi=3.0):
    n = int(rng.integers(n_lo, n_hi + 1))
    res = tuple(float(v) for v in rng.uniform(0.2, 2.0, n))
    x = tuple(float(v) for v in rng.uniform(0.0, res))
    cfg = CobbDouglasConfig(
        theta=float(rng.uniform(0.0, 1.0)),
        beta=float(rng.uniform(1.01, beta_hi)),
        alpha=float(rng.uniform(0.5, 2.0)),
    )
    return cfg, ContributionProfile(x, res)


def random_disjoint_pair(rng, n):
    while True:
        a_mask = int(rng.integers(1, 1 << n))
        b_mask = int(rng.integers(0, 1 << n)) & ~a_mask
        if b_mask:
            return PlayerSet(a_mask), PlayerSet(b_mask)


class TestCdValue:
    def test_square_root_case(self):
        assert cd_value(0.5, 4.0, 1.0) == 2.0

    def test_exponent_collapse(self):
        assert cd_value(1.0, 7.0, 0.0) == 7.0
        assert cd_value(0.0, 7.0, 3.0) == 3.0
        assert cd_value(1.0, 0.0, 0.0) == 0.0

    def test_interior_theta_with_zero_base(self):
        assert cd_value(0.75, 0.0, 5.0) == 0.0
        assert cd_value(0.75, 5.0, 0.0) == 0.0

    def test_negative_inputs_rejected(self):
        with pytest.raises(ValueError):
            cd_value(0.5, -1.0, 1.0)
        with pytest.raises(ValueError):
            cd_value(0.5, 1.0, -1.0)

    def test_balanced_split_maximizes(self):
        # fixed y + z = 10: the best split puts y at theta/(1-theta) times z
        for theta in (0.5, 0.75, 0.25):
            ys = np.linspace(0.0, 10.0, 100001)
            values = ys**theta * (10.0 - ys) ** (1.0 - theta)
            best = ys[int(np.argmax(values))]
            expected = 10.0 * theta  # solves y = (theta/(1-theta)) (10-y)
            assert abs(best - expected) <= 2e-4


class TestPayoffScheme:
    def test_one_field_the_proportional_share(self):
        assert [field.name for field in dataclasses.fields(PayoffScheme)] == ["mix"]
        assert PROPORTIONAL == PayoffScheme(1.0) and EQUAL == PayoffScheme(0.0)
        assert hybrid(0.3).mix == 0.3

    def test_hybrid_endpoints_are_the_pure_schemes(self):
        assert hybrid(0.0) == EQUAL
        assert hybrid(1.0) == PROPORTIONAL
        assert hybrid(1) == PROPORTIONAL and hybrid(1).mix == 1.0

    def test_label_follows_the_share(self):
        assert PROPORTIONAL.label() == "proportional"
        assert EQUAL.label() == "equal"
        assert hybrid(0.5).label() == "hybrid(0.5)"

    @pytest.mark.parametrize("gamma", [-0.1, 1.5, math.nan, math.inf])
    def test_share_outside_the_unit_interval_is_refused(self, gamma):
        with pytest.raises(ValueError, match="gamma must lie in"):
            hybrid(gamma)


class TestPayoff:
    cfg = CobbDouglasConfig(theta=0.5, beta=2.0)
    prof = ContributionProfile((2.0, 3.0), (5.0, 5.0))

    def test_scheme_arithmetic(self):
        assert payoff(PROPORTIONAL, self.cfg, self.prof, A, S2) == 10.0
        assert payoff(EQUAL, self.cfg, self.prof, A, S2) == 12.5
        assert payoff(hybrid(0.5), self.cfg, self.prof, A, S2) == 11.25

    def test_hybrid_endpoints(self):
        assert payoff(hybrid(1.0), self.cfg, self.prof, A, S2) == payoff(
            PROPORTIONAL, self.cfg, self.prof, A, S2
        )
        assert payoff(hybrid(0.0), self.cfg, self.prof, A, S2) == payoff(
            EQUAL, self.cfg, self.prof, A, S2
        )

    def test_zero_pool_pays_nothing(self):
        prof = ContributionProfile((0.0, 0.0), (5.0, 5.0))
        for scheme in (PROPORTIONAL, EQUAL, hybrid(0.3)):
            assert payoff(scheme, self.cfg, prof, A, S2) == 0.0

    def test_requires_subset(self):
        with pytest.raises(ValueError):
            payoff(EQUAL, self.cfg, self.prof, PlayerSet.of(1), PlayerSet.of(0))

    def test_partition_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(50):
            cfg, prof = random_setup(rng)
            n = len(prof)
            s_mask = int(rng.integers(1, 1 << n))
            s = PlayerSet(s_mask)
            # random partition of s into nonempty parts
            parts = []
            remaining = s_mask
            while remaining:
                piece = int(rng.integers(1, remaining + 1)) & remaining
                if piece == 0:
                    piece = remaining & -remaining
                parts.append(PlayerSet(piece))
                remaining &= ~piece
            for scheme in (PROPORTIONAL, EQUAL, hybrid(float(rng.uniform(0, 1)))):
                total = sum(payoff(scheme, cfg, prof, part, s) for part in parts)
                assert abs(total - cfg.value(prof.total(s))) <= 1e-9

    def test_payoff_affine_in_gamma(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            cfg, prof = random_setup(rng)
            n = len(prof)
            s = PlayerSet.full(n)
            a = PlayerSet(int(rng.integers(1, 1 << n)))
            lo = payoff(EQUAL, cfg, prof, a, s)
            hi = payoff(PROPORTIONAL, cfg, prof, a, s)
            for gamma in (0.25, 0.5, 0.9):
                blended = payoff(hybrid(gamma), cfg, prof, a, s)
                assert abs(blended - (gamma * hi + (1 - gamma) * lo)) <= 1e-9

    def test_monotone_in_own_contribution(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        a_set = PlayerSet.from_players(range(2))
        union = PlayerSet.full(12)
        for scheme in (EQUAL, hybrid(0.5), PROPORTIONAL):
            last = -1.0
            for xa in np.linspace(0.0, 1.0, 21):
                prof = ContributionProfile.create([float(xa)] * 2 + [0.4] * 10)
                value = payoff(scheme, cfg, prof, a_set, union)
                assert value >= last - 1e-12
                last = value


class TestSubsetUtility:
    def test_power_arithmetic(self):
        # payoff 16 at theta 0.75 with unit reserve
        cfg = CobbDouglasConfig(theta=0.75, beta=1.0, alpha=4.0)
        prof = ContributionProfile((1.0, 3.0), (5.0, 5.0))
        # proportional: (1/4) * 4*4 = 4 ... pick equal to land on 16: f(4)=16, |A|/|S|=1/2 -> 8
        value = cd_subset_utility(PROPORTIONAL, cfg, prof, A, S2)
        assert abs(value - (4.0**0.75) * (4.0**0.25)) <= 1e-12

    def test_sixteen_to_three_quarters(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=2.0)
        prof = ContributionProfile((2.0, 2.0), (3.0, 5.0))
        # f(4) = 16, proportional share 1/2 -> payoff 8; reserve of A is 1
        assert payoff(PROPORTIONAL, cfg, prof, A, S2) == 8.0
        assert cd_subset_utility(PROPORTIONAL, cfg, prof, A, S2) == 8.0**0.75

    def test_zero_reserve_with_interior_theta(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        prof = ContributionProfile((1.0, 0.5), (1.0, 1.0))
        assert cd_subset_utility(PROPORTIONAL, cfg, prof, A, S2) == 0.0

    def test_empty_assessor_is_zero(self):
        cfg = CobbDouglasConfig()
        prof = ContributionProfile.create([0.5, 0.5])
        assert cd_subset_utility(EQUAL, cfg, prof, PlayerSet.empty(), S2) == 0.0


class TestStGameView:
    def test_generic_metrics_match_direct_ones(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            cfg, prof = random_setup(rng)
            n = len(prof)
            scheme = hybrid(float(rng.uniform(0, 1)))
            game = st_game_view(scheme, cfg, prof)
            a, b = random_disjoint_pair(rng, n)
            assert abs(
                st.competitive_contribution(game, a, b) - cd_competitive(scheme, cfg, prof, a, b)
            ) <= 1e-12
            assert abs(
                st.altruistic_contribution(game, a, b) - cd_altruistic(scheme, cfg, prof, a, b)
            ) <= 1e-12
            assert abs(
                st.total_marginal(game, a, b) - cd_marginal(scheme, cfg, prof, a, b)
            ) <= 1e-12

    def test_view_supports_point_tables(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        prof = ContributionProfile.create([0.3, 0.6, 0.9])
        points = st.all_coop_points(st_game_view(EQUAL, cfg, prof))
        assert len(points) == 7


class TestSensibility:
    def test_always_nonnegative_on_random_configurations(self):
        rng = np.random.default_rng(24)
        worst = math.inf
        for _ in range(1500):
            cfg, prof = random_setup(rng)
            n = len(prof)
            a, b = random_disjoint_pair(rng, n)
            for scheme in (PROPORTIONAL, EQUAL, hybrid(0.25), hybrid(0.75)):
                worst = min(worst, cd_competitive(scheme, cfg, prof, a, b))
        assert worst >= -1e-9

    def test_theta_one_competitive_equals_a_payoff(self):
        # with no weight on reserves, the competitive part is exactly A's payment
        rng = np.random.default_rng(25)
        for _ in range(20):
            _, prof = random_setup(rng)
            cfg = CobbDouglasConfig(theta=1.0, beta=1.5)
            n = len(prof)
            a, b = random_disjoint_pair(rng, n)
            union = a | b
            for scheme in (PROPORTIONAL, EQUAL, hybrid(0.4)):
                c = cd_competitive(scheme, cfg, prof, a, b)
                assert abs(c - payoff(scheme, cfg, prof, a, union)) <= 1e-9

    def test_empty_bystanders(self):
        cfg = CobbDouglasConfig(theta=0.5, beta=1.5)
        prof = ContributionProfile.create([0.5, 0.5])
        c = cd_competitive(EQUAL, cfg, prof, S2, PlayerSet.empty())
        assert c == cd_subset_utility(EQUAL, cfg, prof, S2, S2)


class TestCoopPoint:
    def test_empty_bystanders_leave_own_utility(self):
        cfg = CobbDouglasConfig(theta=0.4, beta=1.5)
        prof = ContributionProfile((0.3, 0.6, 0.2), (1.0, 0.8, 0.5))
        a = PlayerSet.of(0, 2)
        own = cd_subset_utility(hybrid(0.3), cfg, prof, a, a)
        point = cd_coop_point(hybrid(0.3), cfg, prof, a, PlayerSet.empty())
        assert (point.altruism, point.competitive, point.marginal) == (0.0, own, own)
        assert point.subset == a and own > 0

    def test_scalar_metrics_are_the_point_fields(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            cfg, prof = random_setup(rng)
            a, b = random_disjoint_pair(rng, len(prof))
            for bystanders in (b, PlayerSet.empty()):
                scheme = hybrid(float(rng.uniform(0, 1)))
                point = cd_coop_point(scheme, cfg, prof, a, bystanders)
                assert cd_competitive(scheme, cfg, prof, a, bystanders) == point.competitive
                assert cd_altruistic(scheme, cfg, prof, a, bystanders) == point.altruism
                assert cd_marginal(scheme, cfg, prof, a, bystanders) == point.marginal

    def test_point_matches_subset_utility_differences(self):
        rng = np.random.default_rng(32)
        for _ in range(30):
            cfg, prof = random_setup(rng)
            a, b = random_disjoint_pair(rng, len(prof))
            scheme = hybrid(float(rng.uniform(0, 1)))
            got = cd_coop_point(scheme, cfg, prof, a, b)
            want = ref.cd_coop_point(scheme, cfg, prof, a, b)
            for key in ("altruism", "competitive", "marginal"):
                assert getattr(got, key) == pytest.approx(getattr(want, key), rel=1e-12, abs=1e-12)


class TestFullCooperativity:
    def test_proportional_with_convex_value_is_always_cooperative(self):
        rng = np.random.default_rng(26)
        for _ in range(300):
            cfg, prof = random_setup(rng)
            n = len(prof)
            a, b = random_disjoint_pair(rng, n)
            assert cd_fully_cooperative(PROPORTIONAL, cfg, prof, a, b)
            assert cd_altruistic(PROPORTIONAL, cfg, prof, a, b) >= -1e-9

    def test_equal_scheme_overcontributor_leaves(self):
        # one player carries the team; equal split taxes them below their solo worth
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        prof = ContributionProfile((0.9, 0.05, 0.05), (1.0, 1.0, 1.0))
        b = PlayerSet.of(0)
        a = PlayerSet.of(1, 2)
        assert not cd_fully_cooperative(EQUAL, cfg, prof, a, b)
        assert cd_altruistic(EQUAL, cfg, prof, a, b) < 0

    def test_sign_agreement_with_altruism(self):
        rng = np.random.default_rng(27)
        for _ in range(500):
            cfg, prof = random_setup(rng)
            n = len(prof)
            a, b = random_disjoint_pair(rng, n)
            if prof.reserve(b) <= 0:
                continue
            scheme = hybrid(float(rng.uniform(0, 1)))
            alt = cd_altruistic(scheme, cfg, prof, a, b)
            cooperative = cd_fully_cooperative(scheme, cfg, prof, a, b, tol=0.0)
            if alt > 1e-12:
                assert cooperative
            elif alt < -1e-12:
                assert not cooperative

    def test_equal_payoff_impossibility_witness(self):
        # equal split cannot stay cooperative as freeloaders multiply:
        # a fixed-contribution group dilutes the big contributor's share
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        flipped_at = None
        for k in range(1, 9):
            x = (0.1,) + tuple([0.2 / k] * k)
            res = tuple(1.0 for _ in x)
            prof = ContributionProfile(x, res)
            freeloaders = PlayerSet.from_players(range(1, k + 1))
            victim = PlayerSet.of(0)
            alt = cd_altruistic(EQUAL, cfg, prof, freeloaders, victim)
            if alt < 0:
                flipped_at = k
                break
        assert flipped_at == 5


class TestAvgReturn:
    def test_power_function_above_one(self):
        cfg = CobbDouglasConfig(beta=1.5)
        assert avg_return_condition(cfg, 1.0, 2.0)

    def test_square_root_fails(self):
        cfg = CobbDouglasConfig(beta=0.5)
        assert not avg_return_condition(cfg, 1.0, 4.0)

    def test_power_equivalence_with_exponent(self):
        pairs = [(0.5, 1.0), (1.0, 3.0), (0.1, 0.2), (2.0, 7.0)]
        for beta in (0.5, 0.9, 1.0, 1.5, 2.5):
            cfg = CobbDouglasConfig(beta=beta)
            holds = all(avg_return_condition(cfg, x, y) for x, y in pairs)
            assert holds == (beta >= 1.0)

    def test_domain_errors(self):
        cfg = CobbDouglasConfig()
        with pytest.raises(ValueError):
            avg_return_condition(cfg, 0.0, 1.0)
        with pytest.raises(ValueError):
            avg_return_condition(cfg, 2.0, 1.0)


class TestTeamSizeBound:
    def test_proportional_is_unbounded(self):
        assert max_stable_team_size(1.0, 0.5, 1.5) == UNBOUNDED

    def test_equal_case_formula(self):
        assert max_stable_team_size(0.0, 0.5, 1.5) == 2  # 2^1.5 ~ 2.83

    def test_hybrid_case_formula(self):
        assert max_stable_team_size(0.5, 0.5, 1.5) == 4  # ~4.83

    def test_negative_denominator_unbounded(self):
        assert max_stable_team_size(0.5, 0.2, 1.5) == UNBOUNDED

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            max_stable_team_size(0.5, 0.0, 1.5)
        with pytest.raises(ValueError):
            max_stable_team_size(0.5, 1.2, 1.5)
        with pytest.raises(ValueError):
            max_stable_team_size(0.5, 0.5, 1.0)

    def test_matches_brute_force_spot_checks(self):
        for gamma, r in ((0.0, 0.5), (0.25, 0.4), (0.5, 0.6)):
            closed = max_stable_team_size(gamma, r, 1.5)
            assert closed == brute_force_max_size(gamma, r, 1.5, cap=12)

    @pytest.mark.parametrize("beta", [2, 3])
    def test_exact_integer_bounds(self, beta):
        # integer beta makes the bound rational: decide the floor exactly
        assert max_stable_team_size(0.0, 0.2, 2) == 25
        # past 2^40, where 4 ulps near a whole step, an exact bound is not rounded up
        e = 52 // beta
        assert max_stable_team_size(0.0, 2.0**-e, beta) == 2.0 ** (beta * e)
        for res in (10, 100, 101, 1000, 1001):
            for gamma in (0.0, 0.25, 0.5, 0.75):
                g = Fraction(gamma)
                for k in range(1, res + 1):
                    r = Fraction(k, res)
                    denom = r**beta - g * r
                    expected = UNBOUNDED if denom <= 0 else math.floor((1 - g) / denom)
                    assert max_stable_team_size(gamma, k / res, beta) == expected, (gamma, k, res)

    @pytest.mark.parametrize("gamma, r", [(0.0, 0.001), (0.0, 0.05), (0.0, 1 / 11)])
    def test_a_bound_past_the_float_range_raises(self, gamma, r):
        # r^300 underflows to 0 or is subnormal, yet the bound is finite (10^900 at r = 0.001)
        with pytest.raises(NumericOverflowError, match=f"^the stable team-size bound at gamma "
                                                       f"{gamma!r}, r {r!r} is past"):
            max_stable_team_size(gamma, r, 300.0)

    def test_an_underflowing_power_below_gamma_r_stays_unbounded(self):
        assert max_stable_team_size(0.5, 0.001, 300.0) == UNBOUNDED
        assert max_stable_team_size(1e-300, 1e-10, 300.0) == UNBOUNDED

    def test_grid_rows(self):
        table = stable_size_grid(1.5, [0.0, 1.0], [0.5, 1.0])
        assert table["gamma"] == [0.0, 0.0, 1.0, 1.0] and table["beta"] == [1.5] * 4
        assert len(table["max_stable_size"]) == 4
        by_key = dict(zip(zip(table["gamma"], table["r"]), table["max_stable_size"]))
        assert by_key[(0.0, 0.5)] == 2
        assert by_key[(1.0, 0.5)] == UNBOUNDED
        assert by_key[(0.0, 1.0)] == 1


class TestRationalContribution:
    def test_theta_zero_contributes_nothing(self):
        cfg = CobbDouglasConfig(theta=0.0, beta=1.5)
        prof = ContributionProfile.create([0.0, 0.5, 0.5])
        assert rational_contribution(EQUAL, cfg, prof, 0) == 0.0

    def test_theta_one_proportional_contributes_everything(self):
        cfg = CobbDouglasConfig(theta=1.0, beta=1.5)
        prof = ContributionProfile.create([0.0, 0.5, 0.5])
        assert rational_contribution(PROPORTIONAL, cfg, prof, 0) == 1.0

    def test_matches_grid_oracle(self):
        rng = np.random.default_rng(28)
        for _ in range(40):
            cfg, prof = random_setup(rng)
            scheme = hybrid(float(rng.uniform(0, 1)))
            player = int(rng.integers(0, len(prof)))
            found = rational_contribution(scheme, cfg, prof, player)
            oracle_x, oracle_u = grid_oracle(scheme, cfg, prof, player)
            trial = prof.replace(player, found)
            me = PlayerSet.of(player)
            team = PlayerSet.full(len(prof))
            found_u = cd_subset_utility(scheme, cfg, trial, me, team)
            assert found_u >= oracle_u - 1e-8
            assert abs(found - oracle_x) <= 1e-4

    def test_symmetric_group_choice_is_shared(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        base = ContributionProfile.create([0.0, 0.0, 0.4, 0.4])
        group = PlayerSet.of(0, 1)
        x = symmetric_rational_contribution(EQUAL, cfg, base, group)
        assert 0.0 <= x <= 1.0
        # for a single-member group this is plain rational contribution
        single = symmetric_rational_contribution(EQUAL, cfg, base, PlayerSet.of(0))
        assert abs(single - rational_contribution(EQUAL, cfg, base, 0)) <= 1e-9

    def test_group_with_unequal_pools_is_refused(self):
        # capping at one member's pool and valuing the reserve with another's
        # made the answer depend on the player labels
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        for pools in ((1.0, 0.5, 1.0), (0.5, 1.0, 1.0)):
            prof = ContributionProfile((0.0, 0.0, 0.6), pools)
            with pytest.raises(ValueError, match=r"pools \[0\.5, 1\.0\]"):
                symmetric_rational_contribution(EQUAL, cfg, prof, PlayerSet.of(0, 1))
        prof = ContributionProfile((0.0, 0.0, 0.6), (0.5, 1.0, 1.0))
        assert 0.0 <= rational_contribution(EQUAL, cfg, prof, 0) <= 0.5

    def test_maximize_scalar_tie_break(self):
        assert maximize_scalar(lambda x: 0.0, 0.0, 1.0) == 0.0
        assert maximize_scalar(lambda x: -((x - 0.5) ** 2), 0.0, 1.0) == pytest.approx(
            0.5, abs=1e-6
        )


class TestZeroAltruismContour:
    def test_proportional_has_root_only_at_zero(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        roots = altruism_roots(PROPORTIONAL, cfg, 1, 1, 0.7)
        assert roots and roots[0] == 0.0
        # dense sampling confirms the balance never dips below zero
        for x_a in np.linspace(0.0, 1.0, 200):
            prof = ContributionProfile.create([float(x_a), 0.7])
            assert cd_altruistic(PROPORTIONAL, cfg, prof, PlayerSet.of(0), PlayerSet.of(1)) >= -1e-12

    def test_equal_head_to_head_closed_form(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        root = zero_altruism_contour(EQUAL, cfg, 1, 1, 1.0)
        assert root == pytest.approx(2.0 ** (2.0 / 3.0) - 1.0, abs=1e-7)

    def test_equal_head_to_head_restates_condition(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        x_b = 0.8
        root = zero_altruism_contour(EQUAL, cfg, 1, 1, x_b)
        assert root is not None
        assert cfg.value(root + x_b) / 2.0 == pytest.approx(cfg.value(x_b), abs=1e-7)

    def test_no_root_is_none(self):
        # concave value function: equal split can never repay the bystander
        cfg = CobbDouglasConfig(theta=0.75, beta=0.5)
        assert zero_altruism_contour(EQUAL, cfg, 1, 1, 1.0) is None

    def test_domain_errors(self):
        cfg = CobbDouglasConfig()
        with pytest.raises(ValueError):
            altruism_roots(EQUAL, cfg, 0, 1, 0.5)
        with pytest.raises(ValueError):
            altruism_roots(EQUAL, cfg, 1, 1, 2.0)


class TestCooperationPath:
    def test_equal_sizes_stay_cooperative(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        for gamma in (0.0, 0.5, 1.0):
            path = cooperation_path(hybrid(gamma), cfg, 2, 2, samples=15)
            assert len(path["altruism"]) == 15
            for altruism in path["altruism"].tolist():
                assert altruism >= -1e-9

    def test_proportional_path_stays_cooperative(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        path = cooperation_path(hybrid(1.0), cfg, 2, 10, samples=15)
        for altruism in path["altruism"].tolist():
            assert altruism >= -1e-9

    def test_equal_split_free_riding_regime(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        path = cooperation_path(hybrid(0.0), cfg, 2, 10, samples=15)
        tail = path["altruism"][path["xB_avg"] >= 0.75]
        assert any(altruism < 0 for altruism in tail.tolist())

    def test_path_is_ordered_by_parameter(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        path = cooperation_path(EQUAL, cfg, 1, 2, samples=7)
        params = path["xB_avg"].tolist()
        assert params == sorted(params)
        assert params[0] == 0.0 and params[-1] == 1.0


class TestGrids:
    def test_degenerate_grid_matches_direct_calls(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        table = payoff_utility_grid(hybrid(0.5), cfg, 2, 3, resolution=2)
        assert [len(table[key]) for key in COBB_COLUMNS] == [4] * len(COBB_COLUMNS)
        assert table["xA_avg"][0] == 0.0 and table["xB_avg"][0] == 0.0
        prof = ContributionProfile.create([0.0] * 2 + [0.0] * 3)
        a = PlayerSet.from_players(range(2))
        union = PlayerSet.full(5)
        assert table["payoff"][0] == payoff(hybrid(0.5), cfg, prof, a, union)
        assert table["utility"][0] == cd_subset_utility(hybrid(0.5), cfg, prof, a, union)

    def test_grid_partitions_value(self):
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        scheme = hybrid(0.25)
        size_a, size_b = 2, 3
        table = payoff_utility_grid(scheme, cfg, size_a, size_b, resolution=5)
        a = PlayerSet.from_players(range(size_a))
        b = PlayerSet.from_players(range(size_a, size_a + size_b))
        union = a | b
        for x_a, x_b in zip(table["xA_avg"], table["xB_avg"]):
            prof = ContributionProfile.create([x_a] * size_a + [x_b] * size_b)
            total = payoff(scheme, cfg, prof, a, union) + payoff(scheme, cfg, prof, b, union)
            assert abs(total - cfg.value(prof.total(union))) <= 1e-9

    def test_equal_vs_proportional_ordering_for_small_contributors(self):
        # a low-contributing pair prefers equal split; gamma sweeps between
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        prof = ContributionProfile.create([0.1] * 2 + [0.8] * 10)
        a = PlayerSet.from_players(range(2))
        union = PlayerSet.full(12)
        pay_equal = payoff(EQUAL, cfg, prof, a, union)
        pay_prop = payoff(PROPORTIONAL, cfg, prof, a, union)
        pay_mid = payoff(hybrid(0.5), cfg, prof, a, union)
        assert pay_equal > pay_mid > pay_prop


class TestClosedForm:
    """The array tables against per-pair subset-utility differences and the recorded tables."""

    @staticmethod
    def _scalar_terms(scheme, cfg, size_a, size_b, x_a, x_b):
        a = PlayerSet.from_players(range(size_a))
        b = PlayerSet.from_players(range(size_a, size_a + size_b))
        prof = ContributionProfile.create([x_a] * size_a + [x_b] * size_b)
        point = ref.cd_coop_point(scheme, cfg, prof, a, b)
        scale = max(
            1.0,
            abs(cd_subset_utility(scheme, cfg, prof, b, a | b)),
            abs(cd_subset_utility(scheme, cfg, prof, b, b)),
        )
        return prof, a, a | b, point, scale

    @pytest.mark.parametrize("size_a, size_b", [(1, 1), (2, 10), (3, 13)])
    def test_rows_match_scalar_api(self, size_a, size_b):
        # 0 and 1 hit 0^0, an empty pot and an empty reserve
        axis = [0.0, 0.3, 0.7, 1.0]
        x_a = [xa for _ in axis for xa in axis]
        x_b = [xb for xb in axis for _ in axis]
        for theta in (0.0, 0.4, 1.0):
            for beta in (0.5, 1.0, 1.5, 3.0):
                cfg = CobbDouglasConfig(theta=theta, beta=beta)
                for gamma in (0.0, 0.25, 0.5, 0.75, 1.0):
                    scheme = hybrid(gamma)
                    table = contribution_table(scheme, cfg, size_a, size_b, x_a, x_b)
                    assert table["xA_avg"].tolist() == x_a and table["xB_avg"].tolist() == x_b
                    for i in range(len(x_a)):
                        prof, a, union, point, scale = self._scalar_terms(
                            scheme, cfg, size_a, size_b, x_a[i], x_b[i]
                        )
                        expected = {
                            "payoff": payoff(scheme, cfg, prof, a, union),
                            "utility": cd_subset_utility(scheme, cfg, prof, a, union),
                            "competitive": point.competitive,
                        }
                        for key, value in expected.items():
                            assert math.isclose(table[key][i], value, rel_tol=1e-12), (key, i)
                        assert abs(table["altruism"][i] - point.altruism) <= 1e-12 * scale, i
                        assert abs(table["marginal"][i] - point.marginal) <= 1e-12 * scale, i
                        assert table["quadrant"][i] == st.classify_quadrant(point).value, i

    @pytest.mark.parametrize(
        "name, argv",
        [
            ("sweep.csv", ["sweep", "--sizeA", "2", "--sizeB", "3", "--resolution", "5", "--gammas", "0,0.5,1"]),
            ("path.csv", ["path", "--sizeA", "2", "--sizeB", "2", "--samples", "7", "--gammas", "0,1"]),
            ("rational.csv", ["rational", "--sizeA", "1", "--sizeB", "2", "--resolution", "5", "--gammas", "0,0.5"]),
        ],
    )
    def test_cli_tables_match_recorded_ones(self, tmp_path, name, argv):
        # recorded from the per-player implementation the closed form replaced
        out = tmp_path / name
        assert cli_main(["cobb", *argv, "-o", str(out)]) == 0
        with open(GOLDEN / name, encoding="utf-8") as fh:
            expected = list(csv.DictReader(fh))
        with open(out, encoding="utf-8") as fh:
            got = list(csv.DictReader(fh))
        assert len(got) == len(expected)
        cfg = CobbDouglasConfig()
        for want, row in zip(expected, got):
            assert want.keys() == row.keys()
            for key in ("gamma", "theta", "beta", "sizeA", "sizeB", "xB_avg", "quadrant"):
                assert row.get(key) == want.get(key), (key, want, row)
            if "xA_rational" in want:
                assert abs(float(row["xA_rational"]) - float(want["xA_rational"])) <= 1e-6
                zero, want_zero = row["zero_altruism_xA"], want["zero_altruism_xA"]
                assert (zero == "") == (want_zero == "")
                if want_zero:
                    assert abs(float(zero) - float(want_zero)) <= 1e-8
                continue
            assert abs(float(row["xA_avg"]) - float(want["xA_avg"])) <= 1e-6
            for key in ("payoff", "utility", "competitive"):
                assert math.isclose(float(row[key]), float(want[key]), rel_tol=1e-12), (key, want, row)
            *_, scale = self._scalar_terms(
                hybrid(float(want["gamma"])), cfg, int(want["sizeA"]), int(want["sizeB"]),
                float(want["xA_avg"]), float(want["xB_avg"]),
            )
            for key in ("altruism", "marginal"):
                assert abs(float(row[key]) - float(want[key])) <= 1e-12 * scale, (key, want, row)

    def test_tables_build_no_player_sets(self, monkeypatch):
        def refuse(self):
            raise AssertionError(f"built a {type(self).__name__}")

        monkeypatch.setattr(PlayerSet, "__post_init__", refuse)
        monkeypatch.setattr(ContributionProfile, "__post_init__", refuse)
        cfg = CobbDouglasConfig(theta=0.75, beta=1.5)
        # 72 heads: past the 64 players a PlayerSet can hold
        assert len(payoff_utility_grid(EQUAL, cfg, 2, 70, resolution=3)["quadrant"]) == 9
        assert len(cooperation_path(EQUAL, cfg, 2, 70, samples=3)["quadrant"]) == 3
        assert len(rational_table(EQUAL, cfg, 2, 70, resolution=3)["zero_altruism_xA"]) == 3

    def test_overflow_is_an_error(self):
        cfg = CobbDouglasConfig(beta=1e308)
        assert cfg.value(np.array([0.0, 0.5, 1.0])).tolist() == [0.0, 0.0, 1.0]
        with pytest.raises(NumericOverflowError, match="overflows at x = 1.25"):
            cfg.value(np.array([0.5, 1.25, 2.0]))
        with pytest.raises(NumericOverflowError):
            payoff_utility_grid(EQUAL, cfg, 2, 3, resolution=3)
        with pytest.raises(ValueError):
            CobbDouglasConfig(alpha=math.inf)
