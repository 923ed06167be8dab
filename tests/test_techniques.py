"""Tests for the technique registry (repro.techniques).

The registry is the single seam through which Machine, the harness
sweeps, the fuzzer and the CLI learn what techniques exist; these
tests pin its contract: registration rules, alias resolution,
did-you-mean errors and the tag-driven queries.
"""
import pytest

from repro import Machine, UnknownTechniqueError, techniques
from repro.gpu.config import small_config
from repro.memory.mmu import MMUMode

from conftest import ALL_TECHNIQUES, FIG6_TECHNIQUES


def test_available_lists_all_builtins_in_order():
    assert techniques.available() == ALL_TECHNIQUES


def test_resolve_returns_spec_with_matching_name():
    spec = techniques.resolve("coal")
    assert spec.name == "coal"
    assert spec.header_size == 16


@pytest.mark.parametrize("alias,canonical", [
    ("tp", "typepointer"),
    ("dynasoar", "soa"),
    ("soaalloc", "soa"),
])
def test_alias_resolution(alias, canonical):
    assert techniques.resolve(alias).name == canonical


def test_unknown_name_raises_with_hints():
    with pytest.raises(UnknownTechniqueError) as excinfo:
        techniques.resolve("sooa")
    err = excinfo.value
    assert err.technique == "sooa"
    assert set(err.known) == set(ALL_TECHNIQUES)
    assert "soa" in err.hints
    assert "did you mean" in str(err)
    assert "soa" in str(err)


def test_unknown_name_without_close_match_still_lists_known():
    with pytest.raises(UnknownTechniqueError) as excinfo:
        techniques.resolve("zzzzzz")
    msg = str(excinfo.value)
    assert "known techniques" in msg
    assert "typepointer" in msg


def test_duplicate_registration_rejected():
    with pytest.raises(ValueError, match="duplicate technique 'cuda'"):
        techniques.register(
            "cuda", lambda m: None, lambda: None, header_size=8)


def test_alias_collision_rejected():
    # both against a canonical name and against an existing alias
    with pytest.raises(ValueError, match="duplicate"):
        techniques.register(
            "fresh1", lambda m: None, lambda: None, header_size=8,
            aliases=("soa",))
    with pytest.raises(ValueError, match="duplicate"):
        techniques.register(
            "fresh2", lambda m: None, lambda: None, header_size=8,
            aliases=("tp",))
    # the failed registrations must not leak partial state
    assert "fresh1" not in techniques.available()
    assert "fresh2" not in techniques.available()


def test_registering_name_shadowing_alias_rejected():
    with pytest.raises(ValueError, match="duplicate technique 'tp'"):
        techniques.register("tp", lambda m: None, lambda: None,
                            header_size=8)


def test_unknown_tags_rejected():
    with pytest.raises(ValueError, match="unknown technique tags"):
        techniques.register(
            "fresh3", lambda m: None, lambda: None, header_size=8,
            tags=("paper", "bogus_tag"))
    assert "fresh3" not in techniques.available()


def test_register_unregister_roundtrip():
    from repro.core.dispatch import SharedVTableDispatch
    from repro.memory.shared_oa import SharedOAAllocator

    spec = techniques.register(
        "mytech",
        lambda m: SharedOAAllocator(m.heap),
        SharedVTableDispatch,
        header_size=16,
        aliases=("mt",),
        description="test-local technique",
        tags=("fuzz",),
    )
    try:
        assert spec.name == "mytech"
        assert "mytech" in techniques.available()
        assert techniques.resolve("mt").name == "mytech"
        assert "mytech" in techniques.fuzz_techniques()
        # a Machine builds through the user registration, no core edits
        m = Machine("mytech", config=small_config())
        assert m.technique == "mytech"
        assert m.strategy.header_size == 16
    finally:
        techniques.unregister("mytech")
    assert "mytech" not in techniques.available()
    with pytest.raises(UnknownTechniqueError):
        techniques.resolve("mt")  # aliases die with the registration


def test_unregister_unknown_raises_keyerror():
    with pytest.raises(KeyError):
        techniques.unregister("never_registered")


def test_paper_query_is_the_figure6_five():
    assert techniques.paper_techniques() == FIG6_TECHNIQUES


def test_figure_query_is_paper_five_plus_soa():
    assert techniques.figure_techniques() == FIG6_TECHNIQUES + ("soa",)


def test_fuzz_query_includes_soa_and_prototypes():
    fuzzed = techniques.fuzz_techniques()
    assert "soa" in fuzzed
    assert "typepointer_proto" in fuzzed
    assert "typepointer_indexed" in fuzzed
    assert "tp_on_cuda" not in fuzzed  # Figure 11 variant, not a default


def test_microbench_query():
    assert techniques.microbench_techniques() == (
        "cuda", "coal", "typepointer", "soa")


def test_machine_resolves_through_registry():
    m = Machine("dynasoar", config=small_config())
    assert m.technique == "soa"  # aliases canonicalise
    assert type(m.allocator).__name__ == "SoaAllocator"
    assert m.mmu.mode is MMUMode.BASELINE


def test_machine_unknown_technique_error():
    with pytest.raises(UnknownTechniqueError, match="did you mean"):
        Machine("typepointre", config=small_config())


def test_spec_mmu_modes():
    assert techniques.get("typepointer").mmu_mode is MMUMode.TYPEPOINTER
    assert techniques.get("typepointer_proto").mmu_mode is MMUMode.PROTOTYPE
    assert techniques.get("soa").mmu_mode is MMUMode.BASELINE
