"""Guards for the family protocol: pinned values of every public family entry
point, and the names the perfbench tracer wraps."""

import hashlib
import importlib
import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from gsentropy import (
    CustomFinite,
    Geometric,
    UniformFinite,
    Zeta,
    draw,
    gse_analytic_info,
    pmf_at,
    shannon_entropy,
    sigma_sq_true,
    truncation_index,
)

FAMILIES = {
    "zeta-1.01": Zeta(1.01),
    "zeta-1.5": Zeta(1.5),
    "zeta-3": Zeta(3.0),
    "geometric-1e-9": Geometric(1e-9),
    "geometric-0.3": Geometric(0.3),
    "geometric-0.999999": Geometric(0.999999),
    "uniform-1": UniformFinite(1),
    "uniform-7": UniformFinite(7),
    "uniform-1e6": UniformFinite(10**6),
    "custom-5": CustomFinite(np.array([0.4, 0.0, 0.3, 0.2, 0.1])),
}


def _pin(fn, *args):
    """float.hex of a result (per float in a tuple), or the name of the exception raised."""
    try:
        value = fn(*args)
    except Exception as exc:
        return type(exc).__name__
    if isinstance(value, tuple):
        return tuple(v.hex() if isinstance(v, float) else v for v in value)
    return value.hex() if isinstance(value, float) else value


# Recorded before the families owned their pmf, draw, H_m, sigma_m^2 and
# config.  per_m holds, for m = 1..4, (gse_analytic_info as (H_m, terms),
# sigma_sq_true, truncation_index); pmf_at is at k = 1, 2, 7,
# 1000; draw is the SHA-256 of draw(d, 1000, seed) for seeds 0 and 2022.
# custom-5's sigma_m^2 at m = 2 and 3 was re-recorded, one ulp each, when the
# explicit-pmf kernel's sums moved from the BLAS dot to np.add.reduceat; both
# values lie within 6.1e-16 relative of mpmath.  The truncation_index column
# of the infinite families was re-recorded when it stopped certifying a
# direct-sum cutoff and became the series terms that H_m sums.
PINNED = {'zeta-1.01': {'per_m': ((('0x1.a41e8cd967f89p+6', 1000), '0x1.3ec67a55e4fe6p+13', 1000),
                                  (('0x1.9a536ff8c640ap+0', 1000), '0x1.db436986f6eb8p+7', 1000),
                                  (('0x1.5390ff9b0dee2p-1', 1000), '0x1.d47b17d093007p+7', 1000),
                                  (('0x1.4cc088d9cde2ep-2', 1000), '0x1.4b0a4ed418355p+7', 1000)),
                        'shannon': '0x1.a41e8cd967f89p+6',
                        'pmf_at': ('0x1.45cc0d45476d1p-7',
                                   '0x1.438bf01ec89a9p-8',
                                   '0x1.6d2a06a7e2229p-10',
                                   '0x1.3759485b5bbadp-17'),
                        'config': {'kind': 'zeta', 's': 1.01},
                        'draw': ('3008678e43e79187a5c02197dc332775551bf2abe817835c4874256986011246',
                                 '9736948b2c1e33e25f61044d6b6dac93c5697219b2d0819971a7b7fdb77b09e1')},
          'zeta-1.5': {'per_m': ((('0x1.9beb1fec5d555p+1', 1000), '0x1.158ead2c98bd5p+3', 1000),
                                 (('0x1.5b64a4aa5bbf4p-1', 1000), '0x1.b6338ed943d35p+1', 1000),
                                 (('0x1.eb6f822806e71p-3', 1000), '0x1.e65d98d42fed8p+0', 1000),
                                 (('0x1.7ce60527c1128p-4', 1000), '0x1.6e338625a81d5p-1', 1000)),
                       'shannon': '0x1.9beb1fec5d555p+1',
                       'pmf_at': ('0x1.87fafd259c5f2p-2',
                                  '0x1.152c094a60088p-3',
                                  '0x1.52a3a65547273p-6',
                                  '0x1.962d11c9198a8p-17'),
                       'config': {'kind': 'zeta', 's': 1.5},
                       'draw': ('bf51f08ec0cbd7fdfe1524033e54c30f3bb628f8a74e4817b4cc18f78ac7b864',
                                'd8a2ceff7ebb69ecdd2c4d46761277187d0e938201c4ad75df612af5b4939e45')},
          'zeta-3': {'per_m': ((('0x1.5b64a4aa5bbf4p-1', 1000), '0x1.8cef4c62d9541p+0', 1000),
                               (('0x1.7ce60527c1128p-4', 1000), '0x1.840fa2ac1f05ep-3', 1000),
                               (('0x1.e27f87aab83aap-7', 1000), '0x1.dd3144890ff62p-7', 1000),
                               (('0x1.2dbf26470f5cep-9', 1000), '0x1.771b11ce513a3p-11', 1000)),
                     'shannon': '0x1.5b64a4aa5bbf4p-1',
                     'pmf_at': ('0x1.a9efc35d12235p-1',
                                '0x1.a9efc35d12235p-4',
                                '0x1.3de67276b9330p-9',
                                '0x1.c9588ddd83a45p-31'),
                     'config': {'kind': 'zeta', 's': 3.0},
                     'draw': ('2090a4a3137e5d8a1d8ea018a9655e7d865071ae1f042518305c34cbae5925f3',
                              '657dfb03f1d95c989b517dd09dd573b2e92513f05f292397c2c5a69d1de7427b')},
          'geometric-1e-9': {'per_m': ((('0x1.5b927f329d9f7p+4', 0), '0x1.0000000000000p+0', 0),
                                       (('0x1.507b5db320827p+4', 0), '0x1.7b425ed097b41p+1', 0),
                                       (('0x1.49fe94b7f09c6p+4', 0), '0x1.0d916872b020fp+3', 0),
                                       (('0x1.45643c33a3658p+4', 0), '0x1.2a8ad278e8dcfp+4', 0)),
                             'shannon': '0x1.5b927f329d9f7p+4',
                             'pmf_at': ('0x1.12e0be826d698p-30',
                                        '0x1.12e0be7dd0d20p-30',
                                        '0x1.12e0be66c1dcap-30',
                                        '0x1.12e0ac835af89p-30'),
                             'config': {'kind': 'geometric', 'q': 1e-09},
                             'draw': ('bfc340c707cd855d78a97771068c8ab130fa89cd3ee93ce6faf3fe5009208203',
                                      '7576a930a353e73eadbb0820efa629fd57367213c2c44acb683c733ef674483d')},
          'geometric-0.3': {'per_m': ((('0x1.04a2abe75db5dp+1', 0), '0x1.fa9b3ec7c1852p-1', 0),
                                      (('0x1.5bd511d866e3fp+0', 0), '0x1.5361ce1caa3f2p+1', 0),
                                      (('0x1.f5180dc41ec4cp-1', 0), '0x1.89cfbc0d6d062p+2', 0),
                                      (('0x1.73615e7a2d6bap-1', 0), '0x1.45a862fcf2902p+3', 0)),
                            'shannon': '0x1.04a2abe75db5dp+1',
                            'pmf_at': ('0x1.3333333333333p-2',
                                       '0x1.ae147ae147ae1p-3',
                                       '0x1.212259c71bb31p-5',
                                       '0x1.26f8dc4b2bfecp-516'),
                            'config': {'kind': 'geometric', 'q': 0.3},
                            'draw': ('da8862de3b09ddc1776326dd43c033c940093e3d93398205aa5767e1a66f6131',
                                     '43c031b9de050d8d50415e811c06aa48538240ca66691f9cb0452eb083e5aae2')},
          'geometric-0.999999': {'per_m': ((('0x1.f12063bdaaa3bp-17', 0), '0x1.9047dc439c86dp-13', 0),
                                           (('0x1.f7ae8e70cb0a8p-36', 0), '0x1.b81d0085e1f81p-49', 0),
                                           (('0x1.7e46db239e1dcp-55', 0), '0x1.32395e35ef059p-86', 0),
                                           (('0x1.0b3b1840d4648p-74', 0), '0x1.0a083b9a9e3f5p-124', 0)),
                                 'shannon': '0x1.f12063bdaaa3bp-17',
                                 'pmf_at': ('0x1.ffffde7210be9p-1',
                                            '0x1.0c6f6873e67eep-20',
                                            '0x1.544832e6d16f9p-120',
                                            '0x0.0p+0'),
                                 'config': {'kind': 'geometric', 'q': 0.999999},
                                 'draw': ('57df658ee4a5eac72e752b3445aaeddc8d6b2cba3751fe53bea4b1a037f6def8',
                                          '57df658ee4a5eac72e752b3445aaeddc8d6b2cba3751fe53bea4b1a037f6def8')},
          'uniform-1': {'per_m': ((('0x0.0p+0', 1), '0x0.0p+0', 1),
                                  (('0x0.0p+0', 1), '0x0.0p+0', 1),
                                  (('0x0.0p+0', 1), '0x0.0p+0', 1),
                                  (('0x0.0p+0', 1), '0x0.0p+0', 1)),
                        'shannon': '0x0.0p+0',
                        'pmf_at': ('0x1.0000000000000p+0', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
                        'config': {'kind': 'uniform', 'K': 1},
                        'draw': ('57df658ee4a5eac72e752b3445aaeddc8d6b2cba3751fe53bea4b1a037f6def8',
                                 '57df658ee4a5eac72e752b3445aaeddc8d6b2cba3751fe53bea4b1a037f6def8')},
          'uniform-7': {'per_m': ((('0x1.f2272ae325a57p+0', 7), '0x0.0p+0', 7),
                                  (('0x1.f2272ae325a57p+0', 7), '0x0.0p+0', 7),
                                  (('0x1.f2272ae325a57p+0', 7), '0x0.0p+0', 7),
                                  (('0x1.f2272ae325a57p+0', 7), '0x0.0p+0', 7)),
                        'shannon': '0x1.f2272ae325a57p+0',
                        'pmf_at': ('0x1.2492492492492p-3', '0x1.2492492492492p-3', '0x1.2492492492492p-3', '0x0.0p+0'),
                        'config': {'kind': 'uniform', 'K': 7},
                        'draw': ('f82ee09e55c7ba02921230674004c52a89c5592a7423821096c47b48119573e5',
                                 '3f0a3c49efcf9c84d5756b7c4c67298d30cd11397c7a3555baf99689bda7b4b5')},
          'uniform-1e6': {'per_m': ((('0x1.ba18a998fffa0p+3', 1000000), '0x0.0p+0', 1000000),
                                    (('0x1.ba18a998fffa0p+3', 1000000), '0x0.0p+0', 1000000),
                                    (('0x1.ba18a998fffa0p+3', 1000000), '0x0.0p+0', 1000000),
                                    (('0x1.ba18a998fffa0p+3', 1000000), '0x0.0p+0', 1000000)),
                          'shannon': '0x1.ba18a998fffa0p+3',
                          'pmf_at': ('0x1.0c6f7a0b5ed8dp-20',
                                     '0x1.0c6f7a0b5ed8dp-20',
                                     '0x1.0c6f7a0b5ed8dp-20',
                                     '0x1.0c6f7a0b5ed8dp-20'),
                          'config': {'kind': 'uniform', 'K': 1000000},
                          'draw': ('20b85f750b45043e05a585f965d56aa682311ef88da6f2b0a7bb80b75c1d9b5e',
                                   '548e1e1920ef9cb7af3fc5768268805cf9e58c08b54618366606792fc933e7cc')},
          'custom-5': {'per_m': ((('0x1.47a486cb9a5e4p+0', 5), '0x1.728711ba86a14p-3', 5),
                                 (('0x1.14170dce9ff76p+0', 5), '0x1.2568770aa5ad6p+0', 5),
                                 (('0x1.c6461f224d0f8p-1', 5), '0x1.8a24f85121befp+1', 5),
                                 (('0x1.74f0f2d84a611p-1', 5), '0x1.7b36d298e2447p+2', 5)),
                       'shannon': '0x1.47a486cb9a5e4p+0',
                       'pmf_at': ('0x1.999999999999ap-2', '0x0.0p+0', '0x0.0p+0', '0x0.0p+0'),
                       'config': {'kind': 'custom', 'probs': [0.4, 0.0, 0.3, 0.2, 0.1]},
                       'draw': ('d238827286adf05c7c594ac11872b471432217cb92c900774c8181c18fab7a43',
                                'cf24322df5e175404c178115db0adb20341b3e65e84552e24672908a2b144959')}}


@pytest.mark.parametrize("name", list(FAMILIES))
def test_family_values_are_pinned(name):
    d, pinned = FAMILIES[name], PINNED[name]
    per_m = tuple((_pin(gse_analytic_info, d, m), _pin(sigma_sq_true, d, m),
                   _pin(truncation_index, d, m)) for m in (1, 2, 3, 4))
    assert per_m == pinned["per_m"]
    assert _pin(shannon_entropy, d) == pinned["shannon"]
    assert tuple(_pin(pmf_at, d, k) for k in (1, 2, 7, 1000)) == pinned["pmf_at"]
    assert d.config() == pinned["config"]
    digests = tuple(hashlib.sha256(draw(d, 1000, seed).tobytes()).hexdigest() for seed in (0, 2022))
    assert digests == pinned["draw"]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_truncation_index_is_the_terms_h_m_sums(name):
    d = FAMILIES[name]
    for m in (1, 2, 3, 4):
        assert truncation_index(d, m) == gse_analytic_info(d, m)[1]


@pytest.mark.parametrize("name", list(FAMILIES))
def test_collision_order_is_at_most_2_to_the_53(name):
    # m enters float arithmetic, which would round a larger order
    d = FAMILIES[name]
    h, _ = gse_analytic_info(d, 2**53)
    assert math.isfinite(h) and math.isfinite(sigma_sq_true(d, 2**53))
    for fn in (gse_analytic_info, sigma_sq_true):
        with pytest.raises(ValueError):
            fn(d, 2**53 + 1)
    with pytest.raises(ValueError):
        truncation_index(d, 2**53 + 1)


def test_shannon_clt_fails_only_on_a_zeta_tail_of_s_at_most_2():
    for d in FAMILIES.values():
        assert d.shannon_clt is (not isinstance(d, Zeta) or d.s > 2.0)
    assert Zeta(2.0).shannon_clt is False and Zeta(math.nextafter(2.0, 3.0)).shannon_clt is True


def _tracer():
    path = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_wrapped_names_resolve():
    tracer = _tracer()
    modules = {layer: importlib.import_module(f"gsentropy.{layer}") for layer in tracer.PUBLIC_FUNCTIONS}
    for layer, names in tracer.PUBLIC_FUNCTIONS.items():
        for name in names:
            assert callable(getattr(modules[layer], name, None)), f"{layer}.{name}"
    for layer, cls, meth in tracer.PUBLIC_CLASSMETHODS:
        assert isinstance(vars(getattr(modules[layer], cls)).get(meth), classmethod), f"{layer}.{cls}.{meth}"
    uninstall = tracer.install(tracer.Recorder(), modules)
    try:
        assert modules["entropy"].gse_analytic_info(Zeta(1.5), 2)[0] > 0.0
    finally:
        uninstall()
