import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sramdpe.crossbar import (
    ArrayGeometry,
    DriveMode,
    Excitation,
    WeightMatrix,
    ideal_column_currents,
    ideal_dot_product,
    pack_weights,
    unpack_weights,
)
from sramdpe.device import ReadStack, stack_current
from sramdpe.errors import InvalidInputError


class TestWeightMatrix:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            WeightMatrix([[16]])
        with pytest.raises(InvalidInputError):
            WeightMatrix([[-1]])

    def test_uniform(self):
        m = WeightMatrix.uniform(3, 2, 9)
        assert m.rows == 3 and m.words == 2
        assert np.all(m.values == 9)


class TestPacking:
    def test_value_10_bits_and_multipliers(self):
        cells = pack_weights(WeightMatrix([[10]]),
                             ArrayGeometry(rows=1, word_columns=1))
        assert list(cells.data_bits[0]) == [1, 0, 1, 0]
        assert list(cells.geometry.multipliers) == [8, 4, 2, 1]

    def test_value_0_all_off(self):
        cells = pack_weights(WeightMatrix([[0]]),
                             ArrayGeometry(rows=1, word_columns=1))
        assert not cells.data_bits.any()

    def test_round_trip_all_16_values(self):
        g = ArrayGeometry(rows=16, word_columns=1)
        m = WeightMatrix(np.arange(16).reshape(16, 1))
        assert np.array_equal(unpack_weights(pack_weights(m, g)).values, m.values)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 2**32 - 1))
    def test_round_trip_random(self, rows, words, seed):
        rng = np.random.default_rng(seed)
        m = WeightMatrix(rng.integers(0, 16, (rows, words)))
        g = ArrayGeometry(rows=rows, word_columns=words)
        assert np.array_equal(unpack_weights(pack_weights(m, g)).values, m.values)

    def test_dimension_mismatch_rejected(self):
        with pytest.raises(InvalidInputError):
            pack_weights(WeightMatrix([[1, 2]]), ArrayGeometry(rows=1, word_columns=1))


class TestIdealDotProduct:
    def test_defining_arithmetic(self):
        out = ideal_dot_product([0.1, 0.2], WeightMatrix([[3], [5]]))
        assert out[0] == pytest.approx(1.3, rel=1e-12)

    def test_zero_weights_zero_output(self):
        out = ideal_dot_product([0.4, 0.7], WeightMatrix.uniform(2, 3, 0))
        assert np.all(out == 0.0)

    def test_matches_per_bit_expansion_oracle(self):
        rng = np.random.default_rng(5)
        m = WeightMatrix(rng.integers(0, 16, (8, 4)))
        x = rng.uniform(0, 1, 8)
        # brute-force per-bit summation: sum_i v_i (8 w3 + 4 w2 + 2 w1 + w0)
        expect = np.zeros(4)
        for j in range(4):
            for i in range(8):
                w = int(m.values[i, j])
                bits = [(w >> 3) & 1, (w >> 2) & 1, (w >> 1) & 1, w & 1]
                expect[j] += x[i] * (8 * bits[0] + 4 * bits[1]
                                     + 2 * bits[2] + bits[3])
        assert np.allclose(ideal_dot_product(x, m), expect, rtol=0, atol=1e-12)

    def test_rejects_non_finite(self):
        with pytest.raises(InvalidInputError):
            ideal_dot_product([np.nan], WeightMatrix([[1]]))


class TestIdealColumnCurrents:
    def test_zero_inputs_leakage_bound(self):
        g = ArrayGeometry(rows=4, word_columns=2)
        cells = pack_weights(WeightMatrix.uniform(4, 2, 15), g)
        e = Excitation(DriveMode.CONFIG_A, np.zeros(4))
        cc = ideal_column_currents(e, cells, 0.0)
        assert np.all(np.abs(cc.per_group) <= 4 * 4 * 10e-12)

    def test_config_a_clamped_input_gives_exact_zero(self):
        g = ArrayGeometry(rows=2, word_columns=1)
        cells = pack_weights(WeightMatrix.uniform(2, 1, 15), g)
        e = Excitation(DriveMode.CONFIG_A, [0.1, 0.1])
        cc = ideal_column_currents(e, cells, 0.1)
        assert np.all(cc.per_group == 0.0)

    def test_weight_15_vs_1_ratio(self):
        g = ArrayGeometry(rows=1, word_columns=1)
        e = Excitation(DriveMode.CONFIG_A, [0.15])
        i15 = ideal_column_currents(
            e, pack_weights(WeightMatrix([[15]]), g), 0.0).per_group[0]
        i1 = ideal_column_currents(
            e, pack_weights(WeightMatrix([[1]]), g), 0.0).per_group[0]
        assert i15 / i1 == pytest.approx(15.0, rel=0.01)

    def test_weight_sweep_is_linear_through_zero(self):
        g = ArrayGeometry(rows=1, word_columns=1)
        e = Excitation(DriveMode.CONFIG_A, [0.15])
        levels = np.arange(16)
        i = np.array([
            ideal_column_currents(
                e, pack_weights(WeightMatrix([[int(w)]]), g), 0.0
            ).per_group[0]
            for w in levels
        ])
        slope = (levels @ i) / (levels @ levels)
        resid = i - slope * levels
        r2 = 1 - np.sum(resid**2) / np.sum((i - i.mean()) ** 2)
        assert r2 >= 0.99
        assert abs(i[0]) <= 1e-12

    def test_superposition_over_rows(self):
        rng = np.random.default_rng(9)
        n = 6
        g = ArrayGeometry(rows=n, word_columns=2)
        m = WeightMatrix(rng.integers(0, 16, (n, 2)))
        cells = pack_weights(m, g)
        inputs = rng.uniform(0.1, 0.22, n)
        total = ideal_column_currents(
            Excitation(DriveMode.CONFIG_A, inputs), cells, 0.1).per_group
        acc = np.zeros(2)
        for i in range(n):
            g1 = ArrayGeometry(rows=1, word_columns=2)
            c1 = pack_weights(WeightMatrix(m.values[i:i + 1]), g1)
            acc += ideal_column_currents(
                Excitation(DriveMode.CONFIG_A, [inputs[i]]), c1, 0.1
            ).per_group
        assert np.allclose(total, acc, rtol=1e-12, atol=0)

    def test_group_current_is_sum_of_bit_columns(self):
        g = ArrayGeometry(rows=3, word_columns=2)
        cells = pack_weights(WeightMatrix.uniform(3, 2, 11), g)
        e = Excitation(DriveMode.CONFIG_A, [0.12, 0.18, 0.2])
        cc = ideal_column_currents(e, cells, 0.1)
        assert np.allclose(
            cc.per_group, cc.per_bit_column.reshape(2, 4).sum(axis=1),
            rtol=1e-15,
        )

    def test_weight_monotonicity_in_linear_region(self):
        g = ArrayGeometry(rows=1, word_columns=1)
        e = Excitation(DriveMode.CONFIG_A, [0.15])
        prev = -1.0
        for w in range(16):
            i = ideal_column_currents(
                e, pack_weights(WeightMatrix([[w]]), g), 0.0).per_group[0]
            assert i > prev
            prev = i

    def test_config_b_zero_input_offset(self):
        g = ArrayGeometry(rows=4, word_columns=1)
        cells = pack_weights(WeightMatrix.uniform(4, 1, 15), g)
        e = Excitation(DriveMode.CONFIG_B, np.zeros(4), v_bias=0.3)
        cc = ideal_column_currents(e, cells, 0.1)
        assert cc.per_group[0] > 0.0
        assert cc.per_group[0] <= 4 * 4 * 10e-12

    def test_matches_per_stack_evaluation(self):
        """The vectorized path equals cell-by-cell stack_current sums."""
        rng = np.random.default_rng(3)
        g = ArrayGeometry(rows=3, word_columns=2)
        m = WeightMatrix(rng.integers(0, 16, (3, 2)))
        cells = pack_weights(m, g)
        inputs = rng.uniform(0.1, 0.22, 3)
        cc = ideal_column_currents(
            Excitation(DriveMode.CONFIG_A, inputs), cells, 0.1)
        expect = np.zeros(8)
        for i in range(3):
            for j in range(8):
                s = ReadStack(width_multiplier=int(cells.geometry.multipliers[j]))
                expect[j] += stack_current(
                    s, inputs[i], 0.1, 0.65, int(cells.data_bits[i, j])
                )
        assert np.allclose(cc.per_bit_column, expect, rtol=1e-12)


class TestExcitation:
    def test_rejects_out_of_range(self):
        with pytest.raises(InvalidInputError):
            Excitation(DriveMode.CONFIG_A, [0.9])
        with pytest.raises(InvalidInputError):
            Excitation(DriveMode.CONFIG_B, [0.5], v_bias=-0.1)

    def test_drive_voltages_per_mode(self):
        # Inputs go to the active rows in ascending row order; idle rows sit
        # at the zero-current convention of each mode.
        g = ArrayGeometry(rows=4, active_rows=(3, 1))
        a = Excitation(DriveMode.CONFIG_A, [0.1, 0.2], v_dd=0.65)
        sl, rwl = a.row_drive(g, 0.05)
        assert np.array_equal(sl, [0.05, 0.1, 0.05, 0.2])
        assert np.array_equal(rwl, [0.65, 0.65, 0.65, 0.65])
        b = Excitation(DriveMode.CONFIG_B, [0.5, 0.6], v_bias=0.3)
        sl, rwl = b.row_drive(g, 0.05)
        assert np.array_equal(sl, [0.3, 0.3, 0.3, 0.3])
        assert np.array_equal(rwl, [0.0, 0.5, 0.0, 0.6])
        for e in (a, b):
            with pytest.raises(InvalidInputError):
                e.row_drive(ArrayGeometry(rows=4), 0.05)

    def test_geometry_validation(self):
        with pytest.raises(InvalidInputError):
            ArrayGeometry(rows=4, active_rows=(4,))
        with pytest.raises(InvalidInputError):
            ArrayGeometry(rows=4, active_rows=())
