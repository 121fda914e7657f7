import pytest
from hypothesis import given
from hypothesis import strategies as st

from mdgpusim.topology import (
    LinkClass,
    dardel_node,
    link_class,
    lumi_node,
    nic_for_gcd,
    plan_affinity,
    wired,
)


def test_ccx0_is_wired_to_gcd4_and_nic2():
    assert wired(0) == 4
    assert nic_for_gcd(4) == 2


def test_ccx_gcd_map_is_self_inverse_bijection():
    gcds = [wired(c) for c in range(8)]
    assert sorted(gcds) == list(range(8))
    for c in range(8):
        assert wired(wired(c)) == c
    for i in (-1, 8):
        with pytest.raises(ValueError):
            wired(i)


def test_one_nic_per_gpu_package():
    assert [nic_for_gcd(g) for g in range(8)] == [0, 0, 1, 1, 2, 2, 3, 3]


def test_link_classes():
    assert link_class(0, 1) is LinkClass.INTRA_GCD_PAIR
    assert link_class(6, 7) is LinkClass.INTRA_GCD_PAIR
    assert link_class(0, 2) is LinkClass.INTRA_NODE
    assert link_class(3, 4) is LinkClass.INTRA_NODE
    assert link_class(0, 0, same_node=False) is LinkClass.INTER_NODE
    with pytest.raises(ValueError):
        link_class(3, 3)


def test_reserved_core_profile_exposes_7_cores_per_ccx():
    node = lumi_node()
    assert node.usable_cores_per_ccx() == 7
    assert node.usable_cores(0) == [1, 2, 3, 4, 5, 6, 7]
    assert node.usable_cores(4) == [33, 34, 35, 36, 37, 38, 39]
    assert sum(len(node.usable_cores(c)) for c in range(8)) == 56


def test_smt_profile_exposes_all_cores_twice():
    node = dardel_node()
    assert node.usable_cores_per_ccx() == 8
    assert node.usable_cores(0) == [0, 1, 2, 3, 4, 5, 6, 7]
    assert node.hw_threads([0, 1]) == [0, 1, 64, 65]


def test_plan_binds_each_rank_to_the_ccx_wired_to_its_device():
    plan = plan_affinity(lumi_node(), 8)
    for r in plan.ranks:
        assert r.ccx == (r.gcd + 4) % 8
        assert r.env["ROCR_VISIBLE_DEVICES"] == str(r.gcd)
    assert sorted(r.gcd for r in plan.ranks) == list(range(8))
    assert sorted(r.ccx for r in plan.ranks) == list(range(8))


def test_plan_reorders_devices_when_ranks_stay_put():
    plan = plan_affinity(dardel_node(), 8)
    for r in plan.ranks:
        assert r.ccx == r.rank
        assert r.gcd == (r.rank + 4) % 8
        assert r.env["ROCR_VISIBLE_DEVICES"] == str((r.rank + 4) % 8)


def test_rank0_mask_covers_cores_33_to_39():
    plan = plan_affinity(lumi_node(), 1)
    (r0,) = plan.ranks
    assert r0.gcd == 0 and r0.ccx == 4
    assert r0.cores == [33, 34, 35, 36, 37, 38, 39]
    assert r0.cpu_bind_mask() == "0xfe00000000"


def test_smt_mask_includes_sibling_threads():
    plan = plan_affinity(dardel_node(), 1, threads_per_rank=2)
    (r0,) = plan.ranks
    assert r0.cores == [0, 1]
    assert r0.hw_threads == [0, 1, 64, 65]
    assert r0.cpu_bind_mask() == hex((1 << 0) | (1 << 1) | (1 << 64) | (1 << 65))


def test_env_lines_carry_the_standard_knobs():
    plan = plan_affinity(lumi_node(), 2)
    lines = plan.env_lines()
    assert len(lines) == 2
    assert lines[0].startswith("rank0: ")
    for line in lines:
        assert "OMP_PLACES=cores" in line
        assert "OMP_PROC_BIND=close" in line
        assert "MPICH_OFI_NIC_POLICY=GPU" in line
        assert "ROCR_VISIBLE_DEVICES=" in line


def test_capacity_errors():
    with pytest.raises(ValueError):
        plan_affinity(lumi_node(), 9)
    with pytest.raises(ValueError):
        plan_affinity(lumi_node(), 0)
    with pytest.raises(ValueError):
        plan_affinity(lumi_node(), 4, threads_per_rank=8)  # only 7 usable
    plan_affinity(dardel_node(), 4, threads_per_rank=8)  # 8 usable here


@given(n=st.integers(min_value=1, max_value=8))
def test_plans_never_share_devices_or_cores(n):
    for node in (lumi_node(), dardel_node()):
        plan = plan_affinity(node, n)
        gcds = [r.gcd for r in plan.ranks]
        assert len(set(gcds)) == n
        all_cores = [c for r in plan.ranks for c in r.cores]
        assert len(set(all_cores)) == len(all_cores)
        masks = [r.cpu_bind_mask() for r in plan.ranks]
        combined = 0
        for m in masks:
            v = int(m, 16)
            assert combined & v == 0
            combined |= v
