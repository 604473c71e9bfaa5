import numpy as np
import pytest

from crossphy import gf2, solver, wifi
from crossphy.dsp import make_rng
from crossphy.errors import DimensionError, DomainError
from gf2_oracle import dense_to_bands

SEED = wifi.DEFAULT_SCRAMBLER_SEED
SUBS = (-14, -13, -12, -11, -10, -9, -8)


def label_grid(y, mcs):
    """Point indices on all 48 data subcarriers whose MSB-first labels are
    the interleaved coded bits y, so every coded bit is masked."""
    b = mcs.n_bpsc
    return y.reshape(-1, len(wifi.DATA_SUBCARRIERS), b) @ (1 << np.arange(b - 1, -1, -1))


class TestBuildGenerator:
    def test_dimensions(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        n = 2 * mcs.n_dbps
        G, c = solver.build_generator(n, mcs, SEED)
        assert G.shape == (2 * n, n)
        assert len(c) == 2 * n

    def test_unit_vector_columns(self):
        mcs = wifi.mcs_config("qpsk", "1/2")
        n = mcs.n_dbps
        G, c = solver.build_generator(n, mcs, SEED)
        rng = make_rng(0)
        for i in rng.integers(0, n, 20):
            e = np.zeros(n, dtype=np.uint8)
            e[i] = 1
            assert np.array_equal(wifi.coding_chain(e, mcs, SEED), (G @ e) % 2 ^ c)

    @pytest.mark.parametrize("modulation,rate", [
        ("qam64", "1/2"), ("bpsk", "1/2"), ("qam16", "3/4"), ("bpsk", "3/4"),
        ("qpsk", "1/2"), ("qpsk", "3/4"), ("qam16", "1/2"), ("qam64", "3/4")])
    def test_affine_identity_random_inputs(self, modulation, rate):
        mcs = wifi.mcs_config(modulation, rate)
        n = 2 * mcs.n_dbps
        G, c = solver.build_generator(n, mcs, SEED)
        rng = make_rng(1)
        for _ in range(5):
            x = rng.integers(0, 2, n).astype(np.uint8)
            assert np.array_equal(wifi.coding_chain(x, mcs, SEED), (G @ x) % 2 ^ c)

    def test_offset_is_scrambler_contribution(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        n = mcs.n_dbps
        _, c = solver.build_generator(n, mcs, SEED)
        assert np.array_equal(c, wifi.coding_chain(np.zeros(n, dtype=np.uint8), mcs, SEED))

    def test_partial_symbol_rejected(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        with pytest.raises(DimensionError):
            solver.build_generator(mcs.n_dbps + 1, mcs, SEED)


class TestGf2Solve:
    def test_identity_full_mask(self):
        y = np.array([1, 0, 1, 1, 0, 0, 1, 0], dtype=np.uint8)
        c = np.array([1, 1, 0, 0, 0, 0, 0, 0], dtype=np.uint8)
        res = gf2.eliminate(*dense_to_bands(np.eye(8, dtype=np.uint8)), y ^ c, 8)
        assert np.array_equal(res.x, y ^ c)
        assert res.satisfied == 8 and not res.violated

    def test_all_dont_care_gives_zero(self):
        rng = make_rng(2)
        G = rng.integers(0, 2, (12, 6)).astype(np.uint8)
        y = rng.integers(0, 2, 12).astype(np.uint8)
        mask = np.zeros(12, dtype=bool)
        res = gf2.eliminate(*dense_to_bands(G[mask]), y[mask], 6)
        assert not res.x.any() and not res.violated

    def test_consistent_chain_target(self):
        mcs = wifi.mcs_config("qam16", "1/2")
        n = 2 * mcs.n_dbps
        rng = make_rng(3)
        x_true = rng.integers(0, 2, n).astype(np.uint8)
        y = wifi.coding_chain(x_true, mcs, SEED)
        rep = solver.solve_payload(label_grid(y, mcs), mcs, SEED, wifi.DATA_SUBCARRIERS)
        assert not rep.violated_positions
        assert np.array_equal(wifi.coding_chain(rep.x, mcs, SEED), y)


class TestSolvePayload:
    def test_roundtrip_by_construction(self):
        # build the intended grid from a real transmission, then re-derive it
        mcs = wifi.mcs_config("qam64", "1/2")
        rng = make_rng(4)
        n_sym = 6
        psdu = bytes(rng.integers(0, 256, 18 * n_sym).tolist())
        cols = wifi.columns(SUBS)
        sent = wifi.psdu_grid(psdu, mcs, SEED)[:, cols]
        intended = mcs.constellation.nearest(sent)
        rep = solver.solve_payload(intended, mcs, SEED, SUBS)
        assert not rep.violated_positions
        assert not rep.perturbed_subcarriers
        # the derived PSDU reproduces the same target-bin points
        assert np.allclose(wifi.psdu_grid(rep.psdu, mcs, SEED)[:, cols], sent)

    def test_random_grid_report_is_self_consistent(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        rng = make_rng(5)
        n_sym = 10
        intended = rng.integers(0, 64, (n_sym, len(SUBS)))
        energy = rng.random((n_sym, len(SUBS)))
        rep = solver.solve_payload(intended, mcs, SEED, SUBS, bin_energy=energy)
        achieved = wifi.coding_chain(rep.x, mcs, SEED)
        pos = solver.target_bit_positions(mcs, SUBS, n_sym).reshape(-1)
        mask = np.zeros(len(achieved), dtype=bool)
        mask[pos] = True
        y = np.zeros(len(achieved), dtype=np.uint8)
        b = mcs.n_bpsc
        labels = ((intended[..., None] >> np.arange(b - 1, -1, -1)) & 1).astype(np.uint8)
        y[pos] = labels.reshape(-1)
        ok = mask.copy()
        ok[rep.violated_positions] = False
        assert np.array_equal(achieved[ok & mask], y[ok & mask])
        # every perturbed subcarrier corresponds to at least one violated bit
        perturbed_cells = {(s, sc) for s, sc, _, _ in
                           ((p[0], p[1], p[2], p[3]) for p in rep.perturbed_subcarriers)}
        cell_of_pos = {}
        pos3 = solver.target_bit_positions(mcs, SUBS, n_sym)
        for s in range(n_sym):
            for t, sc in enumerate(SUBS):
                for bit in pos3[s, t]:
                    cell_of_pos[int(bit)] = (s, sc)
        cells_with_violation = {cell_of_pos[p] for p in rep.violated_positions}
        assert perturbed_cells == cells_with_violation

    def test_rate_half_seven_bins_always_consistent(self):
        # 42 constrained bits per symbol vs 144 unknowns: full rank in practice
        mcs = wifi.mcs_config("qam64", "1/2")
        rng = make_rng(6)
        for _ in range(3):
            intended = rng.integers(0, 64, (8, len(SUBS)))
            rep = solver.solve_payload(intended, mcs, SEED, SUBS)
            assert not rep.violated_positions

    def test_energy_ordering_prefers_high_energy_rows(self):
        # over-constrain on purpose: target every data subcarrier at BPSK
        # rate 1/2 (48 constraints vs 24 unknowns per symbol), then check
        # that violations concentrate on the low-energy half
        mcs = wifi.mcs_config("bpsk", "1/2")
        subs = wifi.DATA_SUBCARRIERS
        rng = make_rng(7)
        n_sym = 4
        intended = rng.integers(0, 2, (n_sym, 48))
        energy = rng.random((n_sym, 48))
        rep = solver.solve_payload(intended, mcs, SEED, subs, bin_energy=energy)
        assert rep.violated_positions  # must be inconsistent by counting
        pos = solver.target_bit_positions(mcs, subs, n_sym).reshape(-1)
        prio = np.repeat(energy.reshape(-1), mcs.n_bpsc)
        prio_of_pos = dict(zip(pos.tolist(), prio.tolist()))
        violated_prio = np.array([prio_of_pos[p] for p in rep.violated_positions])
        median_all = np.median(prio)
        assert np.median(violated_prio) < median_all

    def test_determinism(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        rng = make_rng(8)
        intended = rng.integers(0, 64, (5, len(SUBS)))
        a = solver.solve_payload(intended, mcs, SEED, SUBS)
        b = solver.solve_payload(intended, mcs, SEED, SUBS)
        assert a.psdu == b.psdu
        assert a.violated_positions == b.violated_positions

    def test_mismatched_grid_rejected(self):
        mcs = wifi.mcs_config("qam64", "1/2")
        with pytest.raises(DimensionError):
            solver.solve_payload(np.zeros((3, 5), dtype=int), mcs, SEED, SUBS)

    @pytest.mark.parametrize("bad", [64, -1])
    def test_index_outside_the_constellation_rejected(self, bad):
        # QAM-64 indices are 0..63; 64 would solve as point 0 and -1 as 63
        grid = np.zeros((2, len(SUBS)), dtype=int)
        grid[1, 3] = bad
        with pytest.raises(DomainError, match=f"value {bad} "):
            solver.solve_payload(grid, wifi.mcs_config("qam64", "1/2"), SEED, SUBS)

    @pytest.mark.parametrize("energy", [None, np.ones((2, 2))])
    def test_repeated_subcarrier_rejected(self, energy):
        # was a report of every bit satisfied beside perturbed bins, or an
        # IndexError given bin_energy
        with pytest.raises(DimensionError, match="repeat"):
            solver.solve_payload(np.array([[1, 2], [3, 4]]), wifi.mcs_config("qam64", "1/2"),
                                 SEED, (-8, -8), bin_energy=energy)

    def test_float_grid_rejected(self):
        grid = np.zeros((2, len(SUBS)))
        with pytest.raises(DomainError, match="float64"):
            solver.solve_payload(grid, wifi.mcs_config("qam64", "1/2"), SEED, SUBS)

    @pytest.mark.parametrize("rows", [1, 3])
    def test_bin_energy_of_another_shape_rejected(self, rows):
        grid = np.zeros((2, len(SUBS)), dtype=int)
        with pytest.raises(DimensionError, match="bin_energy"):
            solver.solve_payload(grid, wifi.mcs_config("qam64", "1/2"), SEED, SUBS,
                                 bin_energy=np.ones((rows, len(SUBS))))


class TestBandedRows:
    @pytest.mark.parametrize("modulation", ["bpsk", "qpsk", "qam16", "qam64"])
    @pytest.mark.parametrize("rate", ["1/2", "3/4"])
    def test_rows_are_bands_of_at_most_seven(self, modulation, rate):
        mcs = wifi.mcs_config(modulation, rate)
        lead, mask = solver.coded_bit_rows(np.arange(3 * mcs.n_cbps), mcs)
        assert np.all(mask & 1) and np.all(mask < 1 << 7)
        top = lead + np.log2(mask).astype(int)  # highest column of each row
        assert np.all(lead >= 0) and np.all(top < 3 * mcs.n_dbps)

    @pytest.mark.parametrize("modulation", ["bpsk", "qpsk", "qam16", "qam64"])
    @pytest.mark.parametrize("rate", ["1/2", "3/4"])
    def test_max_span_at_most_seven(self, modulation, rate):
        mcs = wifi.mcs_config(modulation, rate)
        rng = make_rng(9)
        for subs in (SUBS, wifi.DATA_SUBCARRIERS):
            intended = rng.integers(0, 2**mcs.n_bpsc, (8, len(subs)))
            energy = rng.random((8, len(subs)))
            rep = solver.solve_payload(intended, mcs, SEED, subs, bin_energy=energy)
            assert 1 <= rep.max_span <= 7

    def test_max_span_on_over_constrained_plan(self):
        from crossphy import sim

        cfg = sim.ExperimentConfig(payload=bytes(range(32)), quantizer_mode="webee",
                                   target_subcarrier_count=30)
        rep = sim.plan_frame(cfg).report
        assert rep.violated_positions  # 30 bins x 6 bits outnumber 144 unknowns
        assert 1 <= rep.max_span <= 7

    @pytest.mark.parametrize("modulation,rate", [("bpsk", "1/2"), ("qam16", "3/4"),
                                                 ("qam64", "1/2")])
    def test_solve_payload_agrees_with_gf2_solve(self, modulation, rate):
        mcs = wifi.mcs_config(modulation, rate)
        subs = wifi.DATA_SUBCARRIERS
        rng = make_rng(10)
        n_sym = 4
        intended = rng.integers(0, 2**mcs.n_bpsc, (n_sym, len(subs)))
        energy = rng.random((n_sym, len(subs)))
        rep = solver.solve_payload(intended, mcs, SEED, subs, bin_energy=energy)

        G, c = solver.build_generator(n_sym * mcs.n_dbps, mcs, SEED)
        pos = solver.target_bit_positions(mcs, subs, n_sym).reshape(-1)
        b = mcs.n_bpsc
        y = np.zeros(len(G), dtype=np.uint8)
        y[pos] = ((intended[..., None] >> np.arange(b - 1, -1, -1)) & 1).reshape(-1)
        mask = np.zeros(len(G), dtype=bool)
        mask[pos] = True
        prio = np.zeros(len(G))
        prio[pos] = np.repeat(energy.reshape(-1), b)
        masked = np.nonzero(mask)[0]
        order = np.argsort(-prio[masked], kind="stable")
        ref = gf2.eliminate(*dense_to_bands(G[masked]), (y ^ c)[masked], G.shape[1],
                            order=order)

        assert rep.violated_positions  # over-constrained, so the order matters
        assert np.array_equal(rep.x, ref.x)
        assert rep.rank == ref.rank
        assert rep.violated_positions == sorted(masked[ref.violated].tolist())

    @pytest.mark.parametrize("payload_len", [8, 48, 127])
    def test_default_plan_rows_all_insert_in_numpy(self, payload_len, monkeypatch):
        # every constrained bit of a default 7-bin plan inserts in at most
        # one reduction step, so gf2's numpy run takes every row and the
        # per-row loop none
        from crossphy import sim

        calls = []

        def spy(lead, mask, rhs, n_cols, order=None):
            calls.append((lead[order], mask[order], rhs[order], n_cols))
            return gf2.eliminate(lead, mask, rhs, n_cols, order=order)

        monkeypatch.setattr(solver, "eliminate", spy)
        for seed in (4, 8191):
            rng = make_rng(seed, 0xBEEF, payload_len)
            payload = bytes(rng.integers(0, 256, payload_len).tolist())
            sim.plan_frame(sim.ExperimentConfig(payload=payload, quantizer_mode="webee"))
        assert len(calls) == 2
        for lead, mask, rhs, n_cols in calls:
            assert gf2._one_step_rows(lead, mask, rhs, n_cols)[0] == len(lead) > 0

    def test_pinned_webee_psdu(self):
        # PSDU of this plan as produced by the dense eliminator the banded
        # one replaced; the elimination order and pivot rule are unchanged
        import hashlib

        from crossphy import sim

        rng = make_rng(4, 0xBEEF, 48)
        cfg = sim.ExperimentConfig(payload=bytes(rng.integers(0, 256, 48).tolist()),
                                   quantizer_mode="webee", delta_f_hz=-3.125e6)
        rep = sim.plan_frame(cfg).report
        assert hashlib.sha256(rep.psdu).hexdigest() == (
            "377888f7900fb75934386670746200cb88a0bc823f1e62547e08d103ee4ae270")
        assert rep.rank == 18186 and not rep.violated_positions

    def test_pinned_over_constrained_webee_plan(self):
        # the plan of test_max_span_on_over_constrained_plan as solved by the
        # per-bit back-substitution: the greedy order decides which bits are
        # violated, so a change to it moves these pins
        import hashlib

        from crossphy import sim

        cfg = sim.ExperimentConfig(payload=bytes(range(32)), quantizer_mode="webee",
                                   target_subcarrier_count=30)
        rep = sim.plan_frame(cfg).report
        assert hashlib.sha256(rep.psdu).hexdigest() == (
            "a9cfdc5802b16beba1a8097d25a7505abba029408ae86424dd4843b4d7749bec")
        violated = np.asarray(rep.violated_positions, dtype="<i8")
        assert len(violated) == 5542
        assert violated[:5].tolist() == [0, 1, 2, 4, 5]
        assert hashlib.sha256(violated.tobytes()).hexdigest() == (
            "a941ccad25d8a3a203407be89c2433cca99aa902fc36f11939a2f2a46faaea15")
        assert rep.max_span == 7 and rep.rank == 43917

    def test_reencode_mismatch_raises(self, monkeypatch):
        from crossphy.errors import CrossPhyError

        mcs = wifi.mcs_config("qam64", "1/2")
        intended = make_rng(11).integers(0, 64, (4, len(SUBS)))
        first_pos = int(solver.target_bit_positions(mcs, SUBS, 4)[0, 0, 0])
        real_chain = solver.coding_chain

        def flip_on_reencode(bits, mcs, seed):
            out = real_chain(bits, mcs, seed)
            if np.any(bits):  # not the offset c = chain(0), built once per shape
                out[first_pos] ^= 1
            return out

        monkeypatch.setattr(solver, "coding_chain", flip_on_reencode)
        with pytest.raises(CrossPhyError, match="re-encode"):
            solver.solve_payload(intended, mcs, SEED, SUBS)
