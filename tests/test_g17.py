"""The g17 kernels against ``format(x, '.17g')``, ``repr(x)`` and ``str(i)``,
one cell at a time."""

import math
import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import renormdiff
from renormdiff import g17, writer
from renormdiff.writer import _fmt


def texts(values, fallback=_fmt, kernel=g17.render, width=g17.WIDTH):
    """Each rendered cell with its NULs dropped."""
    cells = kernel(values, fallback)
    assert cells.shape == (len(values), width) and cells.dtype == np.uint8
    return [bytes(cell[cell != 0]).decode("ascii") for cell in cells]


def shortest(values, fallback=repr):
    return texts(values, fallback, g17.render_shortest)


def assert_cells_match(values):
    values = np.asarray(values, dtype=np.float64)
    got = texts(values)
    bad = [(v, g, _fmt(v)) for v, g in zip(values.tolist(), got) if g != _fmt(v)]
    assert not bad, f"{len(bad)} of {len(values)} cells differ, first: {bad[:5]}"


def assert_repr_match(values):
    values = np.asarray(values, dtype=np.float64)
    got = shortest(values)
    bad = [(v, g) for v, g in zip(values.tolist(), got) if g != repr(v)]
    assert not bad, f"{len(bad)} of {len(values)} cells differ, first: {bad[:5]}"


def largest_below(power: Fraction) -> float:
    x = float(power)
    return math.nextafter(x, 0.0) if Fraction(x) >= power else x


class TestProperties:
    @settings(max_examples=500, deadline=None)
    @given(st.floats())
    def test_any_float(self, x):
        assert_cells_match([x])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_array(self, xs):
        assert_cells_match(xs)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-11, max_value=2.0**51, exclude_max=True), st.booleans())
    def test_covered_range(self, x, negative):
        assert_cells_match([-x if negative else x])


class TestFamilies:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(17)
        assert_cells_match(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64))

    def test_random_magnitudes_in_the_covered_range(self):
        rng = np.random.default_rng(18)
        scale = 10.0 ** rng.integers(-12, 17, 100_000)
        assert_cells_match(rng.uniform(-10, 10, 100_000) * scale)

    def test_round_half_even_ties(self):
        # x = odd / 2^(p+1) with 10^(16-p) <= x < 10^(17-p): x 10^p is an odd
        # multiple of 1/2, so the 17th digit is a tie.
        rng = np.random.default_rng(19)
        ties, digits = [], []
        for p in range(1, 28):
            lo = Fraction(10) ** (16 - p) * 2 ** (p + 1)
            hi = min(Fraction(10) ** (17 - p) * 2 ** (p + 1), Fraction(2**53))
            first, stop = math.ceil((lo - 1) / 2), math.ceil((hi - 1) / 2)  # odd = 2 i + 1
            if stop <= first:
                continue
            for i in rng.integers(first, stop, 200).tolist():
                x = (2 * i + 1) / 2 ** (p + 1)
                scaled = Fraction(x) * 10**p
                assert scaled.denominator == 2 and 10**16 <= scaled < 10**17
                ties.append(x)
                digits.append(math.floor(scaled) % 10)
        assert len(ties) > 3000
        assert {d % 2 for d in digits} == {0, 1}  # ties rounded down and up
        assert_cells_match(ties)
        assert_cells_match([-x for x in ties])

    def test_powers_of_ten_and_their_neighbours(self):
        values = []
        for k in range(-20, 21):
            x = float(Fraction(10) ** k)
            values += [x, math.nextafter(x, 0.0), math.nextafter(x, math.inf)]
        assert_cells_match(values + [-x for x in values])

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e16, 1e17])
    def test_fixed_and_exponent_switch_points(self, edge):
        values = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        assert_cells_match(values + [-x for x in values])

    def test_three_digit_exponents(self):
        assert_cells_match([1e-100, 1e100, 1.2345678901234567e-300, -9.87654321e250,
                            2.2250738585072014e-308, 1.7976931348623157e308])

    def test_zeros_subnormals_and_non_finite(self):
        assert_cells_match([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                            math.nan, -math.nan, math.inf, -math.inf])

    def test_trailing_zeros(self):
        values = [float(i) for i in range(1, 3000)] + [i / 64 for i in range(1, 3000)]
        values += [1e15, 2.0**50, 2.0**51 - 1, 0.5, 0.25, 0.125, 1e-11, 1.5e-11]
        assert_cells_match(values + [-x for x in values])

    def test_seventeenth_digit_rounds_up_to_a_power_of_ten(self):
        # The largest double below 1e-14 is 1e-14 to 17 digits, as are these.
        values = [largest_below(Fraction(10) ** j) for j in (-305, -176, -79, -14, 98, 220)]
        assert [_fmt(x) for x in values[3:]] == ["1e-14", "1e+98", "1e+220"]
        assert_cells_match(values)

    def test_no_covered_value_rounds_up_to_a_power_of_ten(self):
        # Only the largest double below 10^j can lie within half a unit of the
        # 17th digit of it; for every j of the covered range none does, which
        # is why the kernel has no carry into an 18th digit.
        for j in range(-11, 17):
            power = Fraction(10) ** j
            assert power - Fraction(largest_below(power)) > power / 2 / 10**17


class TestShortestProperties:
    @settings(max_examples=500, deadline=None)
    @given(st.floats())
    def test_any_float(self, x):
        assert_repr_match([x])

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(), min_size=1, max_size=64))
    def test_any_array(self, xs):
        assert_repr_match(xs)

    @settings(max_examples=200, deadline=None)
    @given(st.floats(min_value=1e-11, max_value=2.0**51, exclude_max=True), st.booleans())
    def test_covered_range(self, x, negative):
        assert_repr_match([-x if negative else x])


class TestShortestFamilies:
    def test_random_bit_patterns(self):
        rng = np.random.default_rng(21)
        assert_repr_match(rng.integers(0, 2**64, 100_000, dtype=np.uint64).view(np.float64))

    def test_random_magnitudes_in_the_covered_range(self):
        rng = np.random.default_rng(22)
        scale = 10.0 ** rng.integers(-12, 17, 100_000)
        assert_repr_match(rng.uniform(-10, 10, 100_000) * scale)

    def test_short_decimals(self):
        # Few digits, as in a time grid n * dt: the interval holds a multiple of
        # a high power of ten.
        rng = np.random.default_rng(23)
        values = rng.integers(-10**6, 10**6, 50_000) / 10.0 ** rng.integers(0, 12, 50_000)
        assert_repr_match(np.concatenate([values, np.arange(50_000) * 0.002]))

    def test_power_of_two_significands(self):
        # The lower neighbour of 2^i is half as near as the upper one.
        values = [2.0**i for i in range(-40, 52)]
        values += [math.nextafter(x, 0.0) for x in values] + [math.nextafter(x, math.inf) for x in values]
        seen = []
        assert shortest(values, lambda v: seen.append(v) or repr(v)) == [repr(x) for x in values]
        assert set(values[:92]) <= set(seen)  # every power of two goes to the fallback

    def test_ties_at_the_shortest_length(self):
        # x = odd / 2^(p+1) puts y = x 10^p halfway between two integers, and
        # x = odd / 4 near 2^50 puts it halfway between two multiples of ten
        # with u = 6.25: ties at 17 and at 16 digits.
        rng = np.random.default_rng(24)
        ties = []
        for p in range(1, 28):
            lo = Fraction(10) ** (16 - p) * 2 ** (p + 1)
            hi = min(Fraction(10) ** (17 - p) * 2 ** (p + 1), Fraction(2**53))
            first, stop = math.ceil((lo - 1) / 2), math.ceil((hi - 1) / 2)
            if stop > first:
                ties += [(2 * i + 1) / 2 ** (p + 1) for i in rng.integers(first, stop, 200).tolist()]
        ties += [(2 * i + 1) / 4 for i in rng.integers(2**50, 2**51, 2000).tolist()]
        seen = []
        got = shortest(ties + [-x for x in ties], lambda v: seen.append(v) or repr(v))
        assert got == [repr(x) for x in ties + [-x for x in ties]]
        assert len(seen) > len(ties)  # most of them are ties at the chosen length
        assert {len(repr(x).replace(".", "")) for x in seen} >= {16, 17}

    def test_shortest_form_rounds_up_to_a_power_of_ten(self):
        # The doubles nearest 1e-7 and 1e-6 lie below them, so their 17 digits
        # start 99999999999999999 and the shortest is the next power of ten.
        values = [largest_below(Fraction(10) ** j) for j in range(-11, 16)]
        assert repr(values[4]) == "1e-07" and math.floor(Fraction(values[4]) * 10**8) == 9
        assert_repr_match(values + [-x for x in values])

    @pytest.mark.parametrize("edge", [1e-5, 1e-4, 1e15, 2.0**51, 1e16])
    def test_fixed_and_exponent_switch_points(self, edge):
        values = [edge, math.nextafter(edge, 0.0), math.nextafter(edge, math.inf)]
        assert_repr_match(values + [-x for x in values])

    def test_integral_values_end_in_point_zero(self):
        values = [float(i) for i in range(1, 3000)] + [i * 1e4 for i in range(1, 300)]
        values += [1e15, 2.0**50, 2.0**51 - 1, 123456789012345.0, 1e14 + 1, 3.0e-0]
        got = shortest(values + [-x for x in values])
        assert got == [repr(x) for x in values + [-x for x in values]]
        assert got[0] == "1.0" and got[2998] == "2999.0"

    def test_zeros_subnormals_and_non_finite(self):
        assert_repr_match([0.0, -0.0, 5e-324, -5e-324, 2.225073858507201e-308,
                           math.nan, -math.nan, math.inf, -math.inf, 1e-300, 1e300])


class TestIntegers:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=64))
    def test_any_int64(self, values):
        got = texts(np.array(values, dtype=np.int64), _fmt, g17.render_integers, g17.INT_WIDTH)
        assert got == [str(v) for v in values]

    def test_every_length_and_edge(self):
        values = [0, 9, 10, 99, 100, 10**15, 10**16 - 1, 10**16, 10**18, -1, 2**63 - 1, -(2**63)]
        values += [10**i + d for i in range(16) for d in (-1, 0, 1)]
        rng = np.random.default_rng(25)
        values += rng.integers(0, 10 ** rng.integers(1, 17, 5000)).tolist()
        got = texts(np.array(values, dtype=np.int64), _fmt, g17.render_integers, g17.INT_WIDTH)
        assert got == [str(v) for v in values]

    def test_unsigned_and_narrow(self):
        unsigned = np.array([0, 1, 2**64 - 1, 10**19, 10**16 - 1], dtype=np.uint64)
        assert texts(unsigned, _fmt, g17.render_integers, g17.INT_WIDTH) == [str(v) for v in unsigned.tolist()]
        narrow = np.arange(-300, 300, 7, dtype=np.int16)
        assert texts(narrow, _fmt, g17.render_integers, g17.INT_WIDTH) == [str(v) for v in narrow.tolist()]

    def test_fallback_sees_only_uncovered_values(self):
        seen = []
        values = [5, 10**16 - 1, -1, 10**16, 0, -(2**63)]
        got = texts(np.array(values), lambda v: seen.append(v) or str(v), g17.render_integers,
                    g17.INT_WIDTH)
        assert got == [str(v) for v in values] and seen == [-1, 10**16, -(2**63)]


class TestBlockScratch:
    """The writer renders a chunk's float columns, a 2-D block, in one call;
    the kernel's arrays, its cells included, stay a few words per value."""

    @staticmethod
    def _block():
        rng = np.random.default_rng(21)
        block = rng.normal(size=(7, 1024)) * 10.0 ** rng.integers(-14, 18, (7, 1024))
        # values left to the fallback, in every column: zero, subnormal, nan,
        # the infinities, magnitudes outside the kernel, powers of two and a
        # tie at 16 digits
        specials = [0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf, 1e-300, 3e20, 1.0,
                    -0.5, (2**51 + 1) / 4]
        block[:, 100 : 100 + len(specials)] = specials
        return block

    @pytest.mark.parametrize("kernel, reference", [(g17.render, _fmt),
                                                   (g17.render_shortest, repr)],
                             ids=["render", "render_shortest"])
    def test_cells_and_scratch_of_a_block(self, kernel, reference):
        block = self._block()
        kernel(block, reference)  # the tables are built
        tracemalloc.start()
        try:
            cells = kernel(block, reference)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cells.shape == (block.size, g17.WIDTH)
        got = [bytes(cell[cell != 0]).decode("ascii") for cell in cells]
        want = [reference(v) for v in block.ravel().tolist()]
        bad = [(v, g, w) for v, g, w in zip(block.ravel().tolist(), got, want) if g != w]
        assert not bad, f"{len(bad)} of {block.size} cells differ, first: {bad[:5]}"
        # 271 bytes a value when each field of the layout was gathered at
        # once; 84 with each formed in place and freed once used
        assert peak / block.size <= 160


class TestInterface:
    def test_fallback_sees_only_uncovered_values(self):
        seen = []

        def fallback(x):
            seen.append(x)
            return _fmt(x)

        covered = [1.0, -0.5, 123.456, 1.5e-11, -2.0**51 + 1, 1e15, 9.99e-5]
        # The double nearest 1e-11 lies below 10^-11.
        uncovered = [0.0, -0.0, math.inf, 1e-11, 2.0**51, 1e16, 5e-324]
        assert texts(np.array(covered + uncovered), fallback) == [_fmt(x) for x in covered + uncovered]
        assert seen[:2] == [0.0, 0.0] and seen[2:] == uncovered[2:]

    def test_shortest_fallback_sees_only_uncovered_values(self):
        seen = []

        def fallback(x):
            seen.append(x)
            return repr(x)

        covered = [1.5, -0.3, 123.456, 1.5e-11, -2.0**51 + 1, 1e15, 9.99e-5, 100.0]
        # Uncovered magnitudes, then powers of two, then a tie at 16 digits.
        uncovered = [0.0, math.inf, 1e-11, 2.0**51, 1e16, 5e-324, 1.0, -0.5, (2**51 + 1) / 4]
        assert shortest(covered + uncovered, fallback) == [repr(x) for x in covered + uncovered]
        assert seen == uncovered

    def test_strided_and_narrow_inputs(self):
        rng = np.random.default_rng(20)
        wide = rng.normal(size=3000) * 10.0 ** rng.integers(-6, 8, 3000)
        assert texts(wide[::7]) == [_fmt(x) for x in wide[::7]]
        narrow = wide.astype(np.float32)
        assert texts(narrow) == [_fmt(x) for x in narrow]

    def test_empty(self):
        assert g17.render(np.zeros(0), _fmt).shape == (0, g17.WIDTH)
        assert g17.render_shortest(np.zeros(0), repr).shape == (0, g17.WIDTH)
        assert g17.render_integers(np.zeros(0, np.int64), _fmt).shape == (0, g17.INT_WIDTH)

    def test_cli_cell_width(self):
        assert writer._CELL_WIDTH == {"f": g17.WIDTH, "i": g17.INT_WIDTH, "u": g17.INT_WIDTH}

    def test_cli_import_leaves_tables_unbuilt(self):
        # Only an array column needs the tables: importing the CLI, building
        # its parser and writing a sweep's list columns in either format skip
        # them, and the first array column builds them.  The CLI loads the
        # writer itself only when it writes.
        src = os.path.dirname(os.path.dirname(renormdiff.__file__))
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        code = (
            "import sys, numpy as np, renormdiff.cli as cli\n"
            "def built(): return 'renormdiff.g17' in sys.modules\n"
            "print(built())\n"
            "cli.build_parser()\n"
            "print(built())\n"
            "print('renormdiff.writer' in sys.modules)\n"
            "from renormdiff import writer\n"
            "for fmt in ('csv', 'json'):\n"
            "    ''.join(writer.table_text(fmt, {'value': [0.5, 1.5], 'x': [None, 2]}, {}))\n"
            "print(built())\n"
            "''.join(writer.table_text('json', {'x': np.ones(3)}, None))\n"
            "print(built())\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env={**os.environ, "PYTHONPATH": path})
        assert proc.returncode == 0, proc.stderr
        # g17 after the import and the parser, the writer after the parser,
        # g17 after the list columns and after the array column
        assert proc.stdout.split() == ["False", "False", "False", "False", "True"]
