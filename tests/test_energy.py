import numpy as np
import pytest

from sramdpe.config import energy_params, resolve_config
from sramdpe.energy import (
    EnergyParams,
    WorkloadSpec,
    digital_energy,
    dpe_energy,
)
from sramdpe.errors import ConfigError, InvalidInputError

from oracles import share


ZERO = EnergyParams(e_adc=0, e_dac=0, e_array_access=0, e_mac_digital=0,
                    e_mem_read=0, t_adc=0, t_mac=0)


class TestDpeEnergy:
    def test_all_zero_parameters_and_currents(self):
        rep = dpe_energy(WorkloadSpec(), ZERO, np.zeros(16))
        assert rep.total_energy == 0.0

    def test_doubling_adc_energy_is_linear(self):
        p = EnergyParams()
        p2 = EnergyParams(e_adc=2 * p.e_adc)
        w = WorkloadSpec()
        currents = np.full(16, 1e-4)
        a = dpe_energy(w, p, currents).total_energy
        b = dpe_energy(w, p2, currents).total_energy
        assert b - a == pytest.approx(w.words * p.e_adc, rel=1e-12)

    def test_analog_term_integrates_currents(self):
        p = EnergyParams()
        rep = dpe_energy(WorkloadSpec(), p, np.full(16, 1e-4), v_dd=0.65)
        assert rep.breakdown["analog_static"] == pytest.approx(
            16 * 1e-4 * 0.65 * p.t_adc, rel=1e-12
        )

    def test_peripheral_share_dominates_with_defaults(self):
        rep = dpe_energy(WorkloadSpec(), EnergyParams(), np.full(16, 2e-4))
        assert share(rep, "adc", "dac") > 0.5

    def test_time_is_one_conversion_round(self):
        p = EnergyParams()
        assert dpe_energy(WorkloadSpec(), p, np.zeros(16)).time == p.t_adc

    def test_words_beyond_the_adcs_take_more_rounds(self):
        p = EnergyParams()     # 16 converters
        currents = np.full(32, 1e-4)
        rep = dpe_energy(WorkloadSpec(words=32), p, currents, v_dd=0.65)
        assert rep.time == 2 * p.t_adc
        assert rep.breakdown["analog_static"] == pytest.approx(
            32 * 1e-4 * 0.65 * 2 * p.t_adc, rel=1e-12
        )


class TestDigitalEnergy:
    def test_zero_workload(self):
        rep = digital_energy(WorkloadSpec(rows=0, words=0), EnergyParams())
        assert rep.total_energy == 0.0
        assert rep.time == 0.0

    def test_linear_in_rows_times_words(self):
        p = EnergyParams()
        a = digital_energy(WorkloadSpec(rows=8, words=8), p).total_energy
        b = digital_energy(WorkloadSpec(rows=16, words=16), p).total_energy
        assert b == pytest.approx(4 * a, rel=1e-12)

    def test_sequential_time(self):
        p = EnergyParams()
        rep = digital_energy(WorkloadSpec(rows=16, words=16), p)
        assert rep.time == pytest.approx(256 * p.t_mac, rel=1e-12)

    def test_digital_exceeds_dpe_with_defaults(self):
        p = EnergyParams()
        w = WorkloadSpec()
        dig = digital_energy(w, p)
        dpe = dpe_energy(w, p, np.full(16, 2e-4))
        assert dig.total_energy > dpe.total_energy


def _params_from_file(tmp_path, text):
    """``EnergyParams`` read from ``text`` as an ``energy.params_file``."""
    path = tmp_path / "params.json"
    path.write_text(text)
    return energy_params(resolve_config({"energy": {"params_file": str(path)}}))


class TestParams:
    def test_superposition_of_parameters(self):
        w = WorkloadSpec()
        currents = np.full(16, 1e-4)
        p1 = EnergyParams(e_adc=1e-12, e_dac=0, e_array_access=0)
        p2 = EnergyParams(e_adc=0, e_dac=2e-12, e_array_access=0)
        p12 = EnergyParams(e_adc=1e-12, e_dac=2e-12, e_array_access=0)
        a = dpe_energy(w, p1, currents).total_energy
        b = dpe_energy(w, p2, currents).total_energy
        ab = dpe_energy(w, p12, currents).total_energy
        analog = dpe_energy(w, EnergyParams(e_adc=0, e_dac=0,
                                            e_array_access=0),
                            currents).total_energy
        assert ab == pytest.approx(a + b - analog, rel=1e-12)

    def test_json_round_trip_and_hash(self, tmp_path):
        p = EnergyParams(e_adc=3e-12)
        q = _params_from_file(tmp_path, p.to_json())
        assert p == q
        assert p.sha256() == q.sha256()
        assert p.sha256() != EnergyParams().sha256()

    def test_unknown_json_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            _params_from_file(tmp_path, '{"e_adc": 1e-12, "bogus": 1}')

    def test_negative_parameter_rejected(self):
        with pytest.raises(InvalidInputError):
            EnergyParams(e_adc=-1e-12)
