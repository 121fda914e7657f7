import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdgpusim.comm import (
    CommModel,
    LinkParams,
    default_comm_model,
    local_edge_nm,
    slab_atoms,
)
from mdgpusim.config import (
    ConfigError,
    parse_config,
    require,
    subsection,
)
from mdgpusim.topology import LinkClass


def test_parse_types():
    cfg = parse_config(
        """
        # a comment
        system.atoms = 1_066_628
        system.cutoff_nm = 1.2
        env.HIPSYCL_ALLOW_INSTANT_SUBMISSION = false
        env.GPU_MAX_HW_QUEUES = 4
        runtime.name = acpp-0.9.4
        note = "spaces kept here"
        """
    )
    assert cfg["system.atoms"] == 1066628
    assert cfg["system.cutoff_nm"] == 1.2
    assert cfg["env.HIPSYCL_ALLOW_INSTANT_SUBMISSION"] is False
    assert cfg["env.GPU_MAX_HW_QUEUES"] == 4
    assert cfg["runtime.name"] == "acpp-0.9.4"
    assert cfg["note"] == "spaces kept here"


def test_parse_errors():
    with pytest.raises(ConfigError):
        parse_config("key_without_value\n")
    with pytest.raises(ConfigError):
        parse_config("a = 1\na = 2\n")
    with pytest.raises(ConfigError):
        parse_config(" = 3\n")
    with pytest.raises(ConfigError):
        parse_config("a =\n")


def test_subsection_and_require():
    cfg = parse_config("env.A = 1\nenv.B = 2\nsys.A = 3\n")
    assert subsection(cfg, "env") == {"A": 1, "B": 2}
    assert require(cfg, "sys.A") == 3
    with pytest.raises(ConfigError):
        require(cfg, "sys.missing")


def test_transfer_law_is_affine():
    link = LinkParams(latency_ns=3000.0, gbytes_per_s=50.0)
    assert link.transfer_ns(0) == 3000
    assert link.transfer_ns(50_000) == 4000  # 50 kB at 50 B/ns = 1000 ns
    assert link.transfer_ns(1_000_000) == 23000


def test_default_links_are_ordered_by_distance():
    model = default_comm_model()
    for nbytes in (0, 10_000, 1_000_000):
        pair = model.transfer_ns(LinkClass.INTRA_GCD_PAIR, nbytes)
        node = model.transfer_ns(LinkClass.INTRA_NODE, nbytes)
        fabric = model.transfer_ns(LinkClass.INTER_NODE, nbytes)
        assert pair <= node <= fabric


def test_comm_model_requires_all_link_classes():
    with pytest.raises(ValueError):
        CommModel({LinkClass.INTRA_NODE: LinkParams(1.0, 1.0)})


def test_slab_sizes_at_water_density():
    # 100k atoms at 100 atoms/nm^3 is a 10 nm cube; a 1.2 nm cutoff slab
    # holds 12% of the atoms
    assert local_edge_nm(100_000, 100.0) == pytest.approx(10.0)
    assert slab_atoms(100_000, 1.2, 100.0) == 12000


def test_slab_saturates_at_whole_domain():
    assert slab_atoms(1000, 50.0, 100.0) == 1000


@given(atoms=st.integers(min_value=100, max_value=10**7),
       c1=st.floats(min_value=0.1, max_value=3.0),
       dc=st.floats(min_value=0.0, max_value=3.0))
def test_halo_sizes_monotone_in_cutoff(atoms, c1, dc):
    assert slab_atoms(atoms, c1 + dc, 100.0) >= slab_atoms(atoms, c1, 100.0)


@given(nbytes=st.integers(min_value=0, max_value=10**9),
       extra=st.integers(min_value=0, max_value=10**6))
def test_transfer_monotone_in_bytes(nbytes, extra):
    link = LinkParams(latency_ns=5000.0, gbytes_per_s=25.0)
    assert link.transfer_ns(nbytes + extra) >= link.transfer_ns(nbytes)
