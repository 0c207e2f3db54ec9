import pytest

from synchrolab.oracles import context_free, nonsofic_ray
from synchrolab.points import BiSeq, point_in_shift
from synchrolab.presentation import Presentation
from synchrolab.shift import Alphabet, build_sft, build_sofic, full_shift, product, word
from synchrolab.specfile import parse_point
from synchrolab.sync import classify_point

BINARY = Alphabet(("0", "1"))


@pytest.fixture(scope="session")
def golden_mean():
    return build_sft(BINARY, {word("11")})


@pytest.fixture(scope="session")
def even_shift():
    p = Presentation.build(
        ["A", "B"], [("A", "1", "A"), ("A", "0", "B"), ("B", "0", "A")])
    return build_sofic(BINARY, p)


@pytest.fixture(scope="session")
def full_two():
    return full_shift(BINARY)


@pytest.fixture(scope="session")
def period_two():
    return build_sft(Alphabet(("a", "b")), {word("aa"), word("bb")})


@pytest.fixture(scope="session")
def even_times_golden(even_shift, golden_mean):
    return product(even_shift, golden_mean)


@pytest.fixture(scope="session")
def even_times_even(even_shift):
    return product(even_shift, even_shift)


@pytest.fixture(scope="session")
def ray_oracle():
    return nonsofic_ray()


@pytest.fixture(scope="session")
def cf_oracle():
    return context_free()


@pytest.fixture(scope="session")
def density_holds():
    """Checks a density report: every entry is a ``"yes"`` with a point of
    the shift that reads the entry's word at 0 and, for the sync check,
    synchronizes."""
    def check(s, report, sync):
        assert report["entries"]
        for entry in report["entries"]:
            assert entry["status"] == "yes", entry
            p = parse_point(entry["point"], s.alphabet)
            assert point_in_shift(s, p) == "yes", entry
            assert p.window(0, len(entry["word"])) == entry["word"], entry
            if sync:
                assert classify_point(s, p).status == "synchronizing", entry
    return check


@pytest.fixture
def zeros():
    return BiSeq.constant("0")


@pytest.fixture
def ones():
    return BiSeq.constant("1")
